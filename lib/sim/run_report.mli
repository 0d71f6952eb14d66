(** The outcome of a bounded run: the data liveness checkers consume.

    The paper's liveness properties quantify over infinite fair
    executions.  This repository finitizes them (DESIGN.md, Section 5):
    a bounded run carries an {e observation window} — its final
    segment — and the infinite-execution notions are interpreted as:

    - “takes infinitely many steps”  ⇝  takes a step inside the window;
    - “correct”                      ⇝  not crashed;
    - “makes progress”               ⇝  receives a good response inside
                                         the window.

    A report records the full history, the time of every event, and the
    time of every scheduling grant, so those interpretations (and any
    alternative one) can be evaluated after the fact. *)

open Slx_history

type ('inv, 'res) t = {
  n : int;  (** Number of processes in the system. *)
  history : ('inv, 'res) History.t;  (** The external history. *)
  event_times : int array;
      (** [event_times.(i)] is the time (scheduler tick) at which the
          [i]-th event of [history] occurred. *)
  grants : (int * Proc.t) list;
      (** Each scheduling grant as [(time, process)], in order. *)
  crashed : Proc.Set.t;  (** Processes crashed during the run. *)
  total_time : int;  (** Number of scheduler ticks consumed. *)
  window : int;
      (** Length of the observation window; the window covers times
          [t] with [total_time - window <= t < total_time]. *)
  stopped : [ `Driver_stop | `Max_steps | `Quiescent ];
      (** Why the run ended: the driver said [Stop]; the step budget
          ran out; or no process was runnable and the driver had no
          invocation to issue. *)
}

val window_start : ('inv, 'res) t -> int
(** First time unit inside the window ([max 0 (total_time - window)]). *)

val in_window : ('inv, 'res) t -> int -> bool
(** [in_window r t] iff time [t] lies inside the window. *)

val steps_total : ('inv, 'res) t -> Proc.t -> int
(** Total scheduling grants received by a process. *)

(** {1 The window summary}

    Every window fact the liveness checkers read, computed in one pass
    over the grants and the history.  Checkers that evaluate many
    points or processes on the same run compute it once. *)

type 'res window_summary = {
  active : Proc.Set.t;
      (** Processes taking at least one step inside the window — the
          bounded reading of “processes that take infinitely many
          steps”. *)
  correct : Proc.Set.t;  (** Non-crashed processes, among [1..n]. *)
  window_steps : int Proc.Map.t;
      (** Grants received by each process inside the window; processes
          without one are absent. *)
  window_responses : 'res list Proc.Map.t;
      (** Responses received by each process at times inside the
          window, in order; processes without one are absent. *)
}

val summary : ('inv, 'res) t -> 'res window_summary
(** The window summary of a run, in one pass. *)

val summary_steps : 'res window_summary -> Proc.t -> int
(** Grants received by a process inside the window. *)

val summary_responses : 'res window_summary -> Proc.t -> 'res list
(** Responses received by a process inside the window, in order. *)

val summary_progress :
  good:('res -> bool) -> 'res window_summary -> Proc.t -> bool
(** [summary_progress ~good s p] iff [p] receives at least one response
    satisfying [good] inside the window — the bounded reading of the
    paper's “process [p] makes progress” (Section 5.1). *)

val pp :
  pp_inv:(Format.formatter -> 'inv -> unit) ->
  pp_res:(Format.formatter -> 'res -> unit) ->
  Format.formatter ->
  ('inv, 'res) t ->
  unit
(** A human-readable summary (history, per-process steps, window). *)
