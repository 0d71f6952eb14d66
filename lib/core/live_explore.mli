(** Liveness model checking: exhaustive search for fair,
    progress-free cycles (lassos) in the bounded configuration graph.

    The paper's negative results (Theorems 5.2/5.3) assert that an
    adversary can drive an implementation into an infinite {e fair} run
    with no progress.  The adversary games sample such runs; this
    module {e searches} for them: it walks the same bounded decision
    tree as {!Explore} (nodes are {!Slx_sim.Runner.Cursor}
    configurations, edges scheduler decisions) looking for a reachable
    cycle that is

    - {b fair} — every non-crashed process that is not {e blocked}
      (idle with no further work from [invoke]) takes a scheduling
      grant on the cycle, the finitization contract of doc/model.md §2;
    - {b progress-free} — pumping the cycle forever violates the
      pluggable (l,k)-freedom predicate
      ({!Slx_liveness.Freedom.violated_on_cycle}): the processes
      granted on the cycle are the ones taking infinitely many steps,
      and the [good] responses on the cycle are the ones delivered
      infinitely often.

    {b The cycle quotient.}  Raw configurations never recur along a
    run — time, histories and step counts grow monotonically, and
    implementations allocate fresh base objects (the register
    consensus allocates per-round registers) — so cycles are detected
    in the abstract-trace quotient of {!Slx_liveness.Lasso}: a node
    closes a candidate cycle of period [p] when the per-tick cells
    ({!Slx_liveness.Lasso.tick_cells}: grant skeleton + event
    skeletons) of its last [2p] ticks are [p]-periodic, i.e. two full
    repetitions are observed, exactly the existing lasso-certificate
    criterion.  A candidate only becomes a verdict after {e
    certificate validation}: from a cursor standing at stem + cycle —
    a fresh replay, or a leaf's own cursor — the cycle is pumped until
    at least [pump_ticks] extra ticks are covered
    ({!Slx_liveness.Lasso.pump_from}), which must reproduce the cells and
    the boundary configuration digest on every repetition and yield a
    report satisfying the standard bounded violation
    ({!Slx_liveness.Lasso.certified_violation}).  Pumping is what
    rejects the spurious periodic suffixes of runs that merely {e
    pass through} a repetitive phase before responding (e.g. a solo
    register-consensus process mid-round, which decides within a
    bounded number of further grants); see doc/model.md §7 for the
    soundness argument and its honest limits.

    The walk is depth-first in the canonical menu order of {!Explore},
    so the emitted certificate is deterministic: the lex-least
    stem+cycle script among the validated candidates.

    {b Cost.}  A configuration is materialised only for the consumers
    that read it.  A node's first child that needs a cursor extends the
    node's own; every later one replays the prefix into a fresh cursor.
    A child at the depth bound has an empty menu, so its candidate
    checks are all it computes: when the parent's cells already rule
    out every period (the new cell's first item — the grant, or the
    invocation or crash it records — is known before the step), the
    leaf is accounted with no cursor, no step and no sleep-set
    settlement.  At a leaf, the first candidate pump continues from the
    leaf's own cursor ({!Slx_liveness.Lasso.pump_from}); any other pump
    replays stem + cycle into a fresh cursor.  Tick cells are compared
    as interned ints, with per-period match runs carried down the path,
    so a node's candidate test is O([max_period]).  The search
    keeps no transposition cache: the context that determines every
    candidate in a subtree includes the last [2 * max_period] abstract
    cells, which at the default [max_period] is the whole path from the
    root, and a tree walk never visits a path twice.

    {b Reductions.}  Naive sleep sets are unsound for cycle detection
    — sleep sets are path-dependent, and pruning by them can defer a
    transition forever around a cycle (the classic "ignoring
    problem"), dropping every representative of a periodic run.  The
    [dpor] reduction narrows that gap with a {e bounded-ignoring cycle
    proviso}: the DPOR sleep-set walk of {!Explore} (dynamic
    observed-access race reversal, {!Dpor}) runs under two extra wake
    rules — a node whose every enabled decision is asleep force-wakes
    them all instead of truncating the path, and no process stays
    asleep through more than [proviso_bound] consecutive edges.  This
    does {e not} keep every fair periodic run in the reduced tree: the
    default reduction answers [No_fair_cycle] where the unreduced
    search finds and pump-validates a lasso — register consensus
    (1,2) at n = 2, depths 6 and 7 (stem [I1(0) I2(1) S1 S2], cycle
    [S1 S2] at depth 6), and every lasso point of the n = 3 plane at
    depth 8 with 1 or 2 crashes (stem [I1(0) S1 I2(1) C3 S1 S2], cycle
    [S1 S2]).  A [dpor] [No_fair_cycle] is therefore a verdict about
    the reduced tree only; pass [~dpor:false] for the exhaustive
    answer.  Certificate validation (pumping) remains the
    unconditional backstop against false positives: a reduced search
    can miss a lasso, never invent one.  The other reduction offered
    is [invoke_order]. *)

open Slx_history
open Slx_sim
open Slx_liveness

type ('inv, 'res) outcome =
  | Lasso of ('inv, 'res) Lasso.cert
      (** A fair, progress-free, pump-validated cycle was found; the
          certificate replays through {!Slx_liveness.Lasso.pump}. *)
  | No_fair_cycle
      (** No candidate survived validation anywhere in the bounded
          tree: every fair cycle of the instance (within [depth],
          [max_period], the crash budget) makes progress. *)

type live_seed = {
  ls_script : int list;
      (** Coded decision prefix ({!Explore.code_of_decision}),
          root-first. *)
  ls_sleep : int list;
      (** The leaf's sleep set with proviso streaks, each packed as
          [(streak lsl 8) lor proc]. *)
}
(** A cut leaf of a depth-bounded fair-cycle search — as
    {!Explore.frontier_seed}, plus the ignoring streaks the liveness
    sleep sets carry. *)

type live_frontier = {
  lf_depth : int;
  lf_max_period : int;
      (** The period bound the stored search ran under.  A resume at
          depth [d] is exact iff this is at least
          [min new_max_period (lf_depth / 2)] — every candidate the
          deeper walk would examine at a node the stored walk visited
          was already examined (and, the verdict being
          [No_fair_cycle], rejected). *)
  lf_pump_ticks : int;
      (** The validation budget of the stored search.  Resume requires
          the {e same} budget: a bigger pump can flip a rejected
          candidate at an already-visited node, which a resumed walk
          would never re-pump ({!Slx_store.Persist} enforces this). *)
  lf_base_runs : int;
  lf_seeds : live_seed list;
}

type ('inv, 'res) result = {
  outcome : ('inv, 'res) outcome;
  stats : Explore_stats.t;
      (** Work counters.  [cycles_examined]/[fair_cycles] count the
          periodic candidates and the fair violating ones;
          [invoke_order_prunes] counts invocations pruned by
          [invoke_order]; [por_prunes]/[race_reversals]/
          [proviso_wakes] count the [dpor] reduction's prunes and
          wakes, except at depth-bound leaves accounted without a
          cursor, whose sleep sets nothing reads and which are not
          settled; [replays_avoided] counts children entered on the
          parent's cursor plus those cursorless leaves; pump steps are
          included in [steps_executed]. *)
  frontier : live_frontier option;
      (** Under [~persist:true] on a [No_fair_cycle] outcome: the cut
          frontier a deeper [~resume] search can start from. *)
}

val search :
  n:int ->
  factory:(unit -> ('inv, 'res) Runner.factory) ->
  invoke:(('inv, 'res) Driver.view -> Proc.t -> 'inv option) ->
  good:('res -> bool) ->
  point:Freedom.t ->
  depth:int ->
  ?max_crashes:int ->
  ?max_period:int ->
  ?pump_ticks:int ->
  ?invoke_order:bool ->
  ?dpor:bool ->
  ?proviso_bound:int ->
  ?obs:Slx_obs.Obs.t ->
  ?sanitize:bool ->
  ?persist:bool ->
  ?resume:live_frontier ->
  ?cancel:(unit -> bool) ->
  unit ->
  ('inv, 'res) result
(** [search ~n ~factory ~invoke ~good ~point ~depth ()] explores every
    decision sequence of at most [depth] ticks (menu and parameters as
    in {!Explore.explore}; [max_crashes] defaults to 0 — pass at least
    [n - 1] to give obstruction-style points their solo windows) and
    returns the first validated fair progress-free lasso, or
    [No_fair_cycle] after exhausting the tree.

    [max_period] (default ceil([depth / 2]), the largest period with
    two full repetitions observable within the depth bound — detection
    at a node of length [len] needs [2 * period <= len]) bounds the
    candidate cycle length in ticks.  [pump_ticks] (default
    [4 * depth]) is the validation budget: every candidate's cycle is
    pumped until at least that many extra ticks are covered before it
    is believed — it must exceed the implementation's longest
    good-response latency or a pre-response phase can masquerade as a
    cycle.  [invoke_order] (default [false]) prunes all but the least
    idle process's invocation at each node (sound for cycles, see
    module doc); [dpor] (default [false]) enables the
    cycle-proviso-guarded DPOR sleep-set reduction (see module doc),
    with [proviso_bound] (default [2]) the bounded-ignoring limit: no
    process sleeps through more than that many consecutive edges.  The
    reduction can miss lassos the unreduced search finds, at every
    bound >= 2 (see module doc; [proviso_bound = 1] prunes nothing);
    larger bounds prune more and miss more.

    [obs] (default {!Slx_obs.Obs.disabled}) attaches the observability
    bundle, as in {!Explore.explore}: node spans, decisions,
    [invoke_order] prunes, one [Cycle_candidate] instant per
    candidate (tagged fair-and-violating or not) and one pump span per
    validation attempt, closed with its verdict on every path.
    Verdicts and counters (other than [elapsed_ns]/[events_dropped])
    are identical with tracing on or off.

    [sanitize] (default [false]) installs a non-raising sanitizer
    shadow on every search cursor (as in {!Explore.explore}):
    footprint mismatches are counted into
    [stats.footprint_violations] without changing any decision or
    verdict.  The count covers the steps the search executes: a
    depth-bound leaf accounted without a cursor executes no step.
    Pump validation runs outside the shadow, whether on a fresh
    instance or continuing from a leaf's cursor, whose monitors it
    drops first.

    [persist]/[resume]/[cancel] behave as in {!Explore.explore}: cut
    leaves become {!live_seed}s, [resume] replays the stored seeds —
    rebuilding their abstract-cell suffixes — and searches only their
    subtrees, and [cancel] is polled per node, aborting with
    {!Explore.Interrupted} carrying partial stats.  A resumed search
    is certificate-identical to a cold one at the same depth provided
    the stored run's [max_period]/[pump_ticks] satisfy the
    compatibility bounds documented on {!live_frontier} — enforced by
    {!Slx_store.Persist}, which also pins the flags, workload and
    instance via the store key.  Liveness frontiers are additionally
    {e per query}: the suffix cells a seed carries are a function of
    the property's [good]/[point], so seeds are never shared across
    properties (doc/model.md §11).
    @raise Explore.Interrupted when [cancel] fired.
    @raise Invalid_argument if [resume.lf_depth >= depth]. *)

val validate_cert_codes :
  n:int ->
  factory:(unit -> ('inv, 'res) Runner.factory) ->
  invoke:(('inv, 'res) Driver.view -> Proc.t -> 'inv option) ->
  good:('res -> bool) ->
  point:Freedom.t ->
  pump_ticks:int ->
  stem:int list ->
  cycle:int list ->
  unit ->
  ('inv, 'res) Lasso.cert option
(** Re-validate a stored lasso witness from its coded stem and cycle
    scripts ({!Explore.code_of_decision}): replay them on a fresh
    instance, rebuild the certificate's abstract cells, and run the
    exact acceptance test of the exhaustive search — pump the cycle
    for [max 2 (ceil (pump_ticks / period))] repetitions, then require
    the starved set to be blocked, the freedom predicate violated, and
    a periodic window present.  [Some cert] is the rebuilt,
    pump-validated certificate; [None] means the stored witness does
    not reproduce (stale codes, changed workload, or a forged store)
    and must not be served — {!Slx_store.Persist} then falls back to a
    cold search. *)

val certify_run :
  n:int ->
  factory:(unit -> ('inv, 'res) Runner.factory) ->
  driver:('inv, 'res) Driver.t ->
  good:('res -> bool) ->
  point:Freedom.t ->
  max_steps:int ->
  ?max_period:int ->
  ?pump_ticks:int ->
  unit ->
  ('inv, 'res) result
(** Cross-validation bridge for instances too deep to search
    exhaustively (a TM transaction cycle spans tens of ticks): play a
    single driver — typically one of the paper's adversaries — for
    [max_steps] ticks, then run the {e same} candidate detection and
    certificate validation on the recorded run's trace suffix.
    [Lasso cert] means the adversary's sampled win has been promoted
    to a replayable, pumpable certificate of the same form the
    exhaustive search emits (with blocked processes conservatively
    assumed absent: every correct process must be granted on the
    cycle).  Defaults: [max_period = max_steps / 4],
    [pump_ticks = max 64 (2 * max_period)]. *)
