type t = {
  ob_tracing : bool;
  ob_capacity : int;
  mutable ob_rings : Telemetry.ring list;  (* newest first *)
  ob_progress : Progress.t;
}

let create ?(tracing = false) ?(ring_capacity = 65536) ?(progress = Progress.off)
    () =
  {
    ob_tracing = tracing;
    ob_capacity = ring_capacity;
    ob_rings = [];
    ob_progress = progress;
  }

let disabled = create ()

let tracing t = t.ob_tracing
let progress t = t.ob_progress

let sink t =
  if not t.ob_tracing then Telemetry.null
  else begin
    let r = Telemetry.ring ~capacity:t.ob_capacity () in
    t.ob_rings <- r :: t.ob_rings;
    Telemetry.sink_of_ring r
  end

let events t =
  List.rev t.ob_rings
  |> List.concat_map Telemetry.ring_events
  |> List.stable_sort (fun a b -> compare a.Telemetry.ev_ns b.Telemetry.ev_ns)

let events_dropped t =
  List.fold_left (fun acc r -> acc + Telemetry.ring_dropped r) 0 t.ob_rings

let write_trace t path =
  Out_channel.with_open_bin path (fun oc ->
      Trace_export.write oc ~events_dropped:(events_dropped t) (events t))

let trace_string t =
  Trace_export.to_string ~events_dropped:(events_dropped t) (events t)
