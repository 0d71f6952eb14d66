(** Bounded fairness.

    The paper restricts liveness to {e fair} executions: a liveness
    property cannot require progress from processes that never get
    turns from the scheduler.  In the paper's I/O-automata formalism,
    fairness means every process either acts infinitely often or is
    infinitely often at states with nothing (but crash) enabled; since
    invocations are input actions and implementations are
    input-enabled, a fair execution keeps every {e correct} process
    acting forever.

    The bounded counterpart (DESIGN.md §5): a run is bounded-fair iff
    every correct process takes at least one step inside the
    observation window.  Drivers that want a process out of the active
    set must crash it — which is also how the (l,k) experiments select
    “at most k processes take infinitely many steps” scenarios.

    Liveness verdicts are meaningful only on bounded-fair runs; the
    checkers in this library expose the fairness test so callers can
    guard (and the test suites assert their drivers produce fair
    runs). *)

open Slx_sim

val is_bounded_fair : ('inv, 'res) Run_report.t -> bool
(** Every non-crashed process in [1..n] took a step inside the
    window. *)

val starved : ('inv, 'res) Run_report.t -> Slx_history.Proc.Set.t
(** The correct processes with no step in the window — the witnesses of
    unfairness, useful in error messages. *)

val is_bounded_fair_summary : 'res Run_report.window_summary -> bool
(** {!is_bounded_fair} on a run's {!Run_report.summary}. *)
