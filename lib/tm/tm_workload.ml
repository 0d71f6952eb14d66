open Slx_history
open Slx_sim

let next_invocation view p =
  (* Replay the process's events since its last [start] to find its
     position in the canonical increment transaction. *)
  let rec in_txn last_read = function
    | [] ->
        (* Transaction open: next op per position. *)
        begin
          match last_read with
          | None -> Tm_type.Read 0
          | Some v -> Tm_type.Write (0, v + 1)
        end
    | Event.Response (_, Tm_type.Val v) :: rest -> in_txn (Some v) rest
    | Event.Response (_, Tm_type.Ok) :: rest -> begin
        match last_read with
        | Some _ ->
            (* The write completed; commit next (no further responses
               expected before tryC in this program). *)
            Tm_type.Try_commit
        | None -> in_txn last_read rest
      end
    | Event.Response (_, (Tm_type.Committed | Tm_type.Aborted)) :: _ ->
        (* Closed: [since_start] stops at the closing response. *)
        Tm_type.Start
    | (Event.Invocation _ | Event.Crash _) :: rest -> in_txn last_read rest
  in
  (* Walk back, newest first, to the last [start]; [tail] collects the
     events after it in chronological order.  A commit or abort on the
     way means the last transaction is closed (or there was none). *)
  let rec since_start tail = function
    | [] -> Tm_type.Start
    | Event.Response (_, (Tm_type.Committed | Tm_type.Aborted)) :: _ ->
        Tm_type.Start
    | Event.Invocation (_, Tm_type.Start) :: _ -> in_txn None tail
    | e :: older -> since_start (e :: tail) older
  in
  since_start [] (view.Driver.events p)

let eligible view p =
  match view.Driver.status p with
  | Slx_sim.Runtime.Ready -> Some (Driver.Schedule p)
  | Slx_sim.Runtime.Idle -> Some (Driver.Invoke (p, next_invocation view p))
  | Slx_sim.Runtime.Crashed -> None

let round_robin ?procs () : _ Driver.t =
  let cursor = ref 0 in
  fun view ->
    let procs = Option.value procs ~default:(Proc.all ~n:view.Driver.n) in
    let len = List.length procs in
    let rec try_from k =
      if k >= len then Driver.Stop
      else
        let p = List.nth procs ((!cursor + k) mod len) in
        match eligible view p with
        | Some d ->
            cursor := (!cursor + k + 1) mod len;
            d
        | None -> try_from (k + 1)
    in
    try_from 0

let random ?procs ~seed () : _ Driver.t =
  let rng = Random.State.make [| seed |] in
  fun view ->
    let procs = Option.value procs ~default:(Proc.all ~n:view.Driver.n) in
    let candidates = List.filter_map (eligible view) procs in
    match candidates with
    | [] -> Driver.Stop
    | _ :: _ ->
        List.nth candidates (Random.State.int rng (List.length candidates))
