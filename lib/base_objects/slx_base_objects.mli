(** Base objects: the atomic hardware primitives of the paper's model.

    “Base objects are shared objects, like read/write registers,
    test-and-set, compare-and-swap and etc., which are usually provided
    by the hardware and which are used to implement higher level shared
    objects.” (Section 2.)

    Every primitive here counts as exactly one atomic step of the
    calling process: it is implemented with {!Slx_sim.Runtime.atomic}
    and therefore suspends the caller until the scheduler grants it a
    step.  Base objects must only be used from algorithm code running
    under the {!Slx_sim.Runner}.

    The paper's results about consensus depend on {e which} base
    objects an implementation uses (registers only vs. stronger
    primitives); keeping each primitive in its own module makes that
    restriction syntactically visible in implementation code.

    Every constructor additionally registers a state reader with the
    current {!Slx_sim.Runtime} fingerprint registry (a no-op outside
    the exploration engine), so that the shared state of a
    configuration can be digested for transposition pruning. *)

(** Atomic read/write registers — the only base object permitted to the
    consensus implementations of Theorems 5.2 and Corollaries 4.5,
    4.10. *)
module Register : sig
  type 'a t

  val make : 'a -> 'a t
  (** A fresh register holding the given initial value.  Allocation is
      not a step (it happens at implementation-construction time). *)

  val read : 'a t -> 'a
  (** Atomic read: one step. *)

  val write : 'a t -> 'a -> unit
  (** Atomic write: one step. *)

  type 'a pool = 'a Slx_sim.Runtime.pool
  (** An unbounded family of registers sharing one initial value, with
      no capacity ({!Slx_sim.Runtime.make_pool}). *)

  val pool : 'a -> 'a pool

  val cell : 'a pool -> int -> 'a t
  (** [cell p i] is register [i] of [p], materialised on first use
      without a step ({!Slx_sim.Runtime.pool_cell}). *)
end

(** Compare-and-swap objects — used by the TM Algorithm 1 ([I(1,2)])
    for its versioned value object [C]. *)
module Cas : sig
  type 'a t

  val make : 'a -> 'a t

  val read : 'a t -> 'a
  (** Atomic read: one step. *)

  val compare_and_swap : 'a t -> expected:'a -> desired:'a -> bool
  (** Atomically: if the current value is structurally equal to
      [expected], install [desired] and return [true]; otherwise return
      [false].  One step. *)

  type 'a pool = 'a Slx_sim.Runtime.pool
  (** An unbounded family of CAS objects, as {!Register.pool}. *)

  val pool : 'a -> 'a pool
  val cell : 'a pool -> int -> 'a t
end

(** Test-and-set objects. *)
module Test_and_set : sig
  type t

  val make : unit -> t

  val test_and_set : t -> bool
  (** Atomically sets the flag; returns [true] iff the caller was the
      first to set it.  One step. *)

  val reset : t -> unit
  (** Atomically clears the flag (the primitive test-and-set locks use
      to release).  One step. *)

  val read : t -> bool
end

(** Fetch-and-add counters. *)
module Fetch_and_add : sig
  type t

  val make : int -> t

  val fetch_and_add : t -> int -> int
  (** [fetch_and_add c d] atomically adds [d] and returns the previous
      value.  One step. *)

  val read : t -> int
end

(** Atomic FIFO queues — the classical consensus-number-2 base object
    (Herlihy 1991).  Used by {!Slx_consensus.Queue_consensus} to build
    wait-free 2-process consensus, and by the explorer experiments to
    find, automatically, where the construction breaks at three
    processes. *)
module Queue : sig
  type 'a t

  val make : 'a list -> 'a t
  (** A fresh queue holding the given items, front first. *)

  val enqueue : 'a t -> 'a -> unit
  (** One step. *)

  val dequeue : 'a t -> 'a option
  (** [None] on empty.  One step. *)
end

(** Atomic-snapshot objects of [n] single-writer segments — the object
    [R[1..n]] of Algorithm 1.  [scan] returns all segments in one
    atomic step, as the paper's algorithm assumes ([snapshot <-
    R.scan()]). *)
module Snapshot : sig
  type 'a t

  val make : n:int -> 'a -> 'a t
  (** [make ~n init] is a snapshot object with segments [1..n], all
      initialized to [init]. *)

  val update : 'a t -> Slx_history.Proc.t -> 'a -> unit
  (** [update s p v] writes [v] into segment [p].  One step. *)

  val scan : 'a t -> 'a array
  (** All segments, indexed [0 .. n-1] (segment of process [p] at index
      [p - 1]).  One step. *)
end
