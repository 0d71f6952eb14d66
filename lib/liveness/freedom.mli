(** (l,k)-freedom: the paper's restricted liveness space (Section 5.1).

    Definition 5.1: a fair execution [e] ensures (l,k)-freedom if,
    whenever at most [k] processes take infinitely many steps in [e]:
    - if at least [l] processes are correct in [e], at least [l]
      processes make progress in [e];
    - if fewer than [l] processes are correct, all correct processes
      make progress.

    (l,k)-freedom is the union of [l]-lock-freedom (an independent
    minimal progress guarantee) and [k]-obstruction-freedom (a
    dependent maximal progress guarantee); the classical properties are
    special points of the grid:

    - (1,1)-freedom  = obstruction-freedom;
    - (1,n)-freedom  = lock-freedom;
    - (n,n)-freedom  = wait-freedom = [Lmax] (with [good] = all
      responses) = local progress (with [good] = commits, for TM).

    The grid is partially ordered: a point is stronger the further
    right ([k]) and the higher ([l]) it lies (Figure 1); (1,3)- and
    (2,2)-freedom are incomparable (Section 5.1). *)

open Slx_sim

type t = private { l : int; k : int }
(** An (l,k)-freedom property, [1 <= l <= k]. *)

val make : l:int -> k:int -> t
(** @raise Invalid_argument unless [1 <= l <= k]. *)

val l : t -> int
val k : t -> int

val obstruction_freedom : t
(** (1,1)-freedom. *)

val lock_freedom : n:int -> t
(** (1,n)-freedom. *)

val wait_freedom : n:int -> t
(** (n,n)-freedom — the strongest point of the grid, [Lmax]. *)

val l_lock_freedom : l:int -> n:int -> t
(** (l,n)-freedom: at least [l] correct processes make progress
    regardless of scheduling. *)

val k_obstruction_freedom : k:int -> t
(** (k,k)-freedom: progress for every member of a group of at most [k]
    processes running without outside step contention. *)

val equal : t -> t -> bool

val pp : Format.formatter -> t -> unit
(** Prints ["(1,2)-freedom"]. *)

(** {1 Evaluation on bounded runs} *)

val holds : good:('res -> bool) -> ('inv, 'res) Run_report.t -> t -> bool
(** Definition 5.1 evaluated under the bounded-run interpretation
    (DESIGN.md §5): “takes infinitely many steps” = active in the
    window, “correct” = not crashed, “makes progress” = receives a
    [good] response in the window.

    Only meaningful on bounded-fair runs ({!Fairness.is_bounded_fair});
    the function itself does not check fairness. *)

val explain :
  good:('res -> bool) -> ('inv, 'res) Run_report.t -> t ->
  [ `Holds
  | `Vacuous  (** More than [k] processes active: the gate is off. *)
  | `Violated of Slx_history.Proc.Set.t
      (** The correct processes that failed to make progress. *) ]
(** Like {!holds} but with a verdict explaining why. *)

val holds_summary :
  good:('res -> bool) -> 'res Run_report.window_summary -> t -> bool
(** {!holds} on a run's {!Run_report.summary}, for callers evaluating
    many points on one run. *)

val violated_on_cycle :
  correct:Slx_history.Proc.Set.t ->
  active:Slx_history.Proc.Set.t ->
  progressed:Slx_history.Proc.Set.t ->
  t ->
  bool
(** Definition 5.1 evaluated directly on a cycle of the configuration
    graph, for the fair-cycle search ({!Slx_core.Live_explore}): an
    infinite run that pumps the cycle has [active] = the processes
    granted steps on the cycle (they take infinitely many steps, all
    others take finitely many), [correct] = the non-crashed processes,
    and [progressed] = the processes receiving a [good] response on the
    cycle (each repetition delivers another one).  [true] iff such a
    run violates the (l,k) point: the gate [|active| <= k] is on and
    the progress clause of Definition 5.1 fails for
    [progressed ∩ correct]. *)

(** {1 The strength order (Figure 1)} *)

val stronger_equal : t -> t -> bool
(** [stronger_equal a b]: every execution ensuring [a] ensures [b] —
    on the grid, [a.l >= b.l && a.k >= b.k]. *)

val comparable : t -> t -> bool

val all : n:int -> t list
(** Every grid point [(l,k)] with [1 <= l <= k <= n], in lexicographic
    order. *)

val maximal : t list -> t list
(** The maximal elements of a set of grid points under
    {!stronger_equal} — e.g. the strongest implementable properties of
    Theorems 5.2 and 5.3 are the unique maximal white points. *)

val minimal : t list -> t list
(** Dually, the minimal elements — the weakest members of a set, e.g.
    of the excluding (black) points. *)

val unique : t list -> t option
(** [Some p] iff the list contains exactly one point — the
    “there {e is} a strongest/weakest” conclusions of Theorems 5.2 and
    5.3 are [unique (maximal whites)] / [unique (minimal blacks)]. *)
