(** The engine-facing observability bundle.

    One [Obs.t] configures one exploration: whether tracing is on
    (and the ring capacity) and which progress reporter to tick.
    Engines call {!sink} once at start — with tracing off this returns
    {!Telemetry.null} and the whole subsystem costs one branch per
    event site — and the CLI / bench harvest the events afterwards
    with {!events} / {!write_trace}.

    A bundle is single-shot: rings registered by one exploration stay
    until the bundle is dropped, so create a fresh bundle per run. *)

type t

val disabled : t
(** No tracing, no progress: the default of every engine. *)

val create :
  ?tracing:bool -> ?ring_capacity:int -> ?progress:Progress.t -> unit -> t
(** [tracing] (default [false]) turns event recording on;
    [ring_capacity] (default [65536]) sizes each ring;
    [progress] (default {!Progress.off}) is the heartbeat reporter. *)

val tracing : t -> bool

val progress : t -> Progress.t

val sink : t -> Telemetry.sink
(** A fresh registered ring sink when tracing, {!Telemetry.null}
    otherwise. *)

val events : t -> Telemetry.event list
(** All recorded events, merged across rings and sorted by timestamp
    (stable, so each ring's emission order is kept). *)

val events_dropped : t -> int
(** Total ring-overflow drops across all rings. *)

val write_trace : t -> string -> unit
(** Export {!events} as Chrome trace-event JSON to the given path. *)

val trace_string : t -> string
