open Slx_history

(* A log entry: who wants which invocation; [id] makes entries of the
   same process distinct so a process can recognize its own win. *)
type 'inv entry = { owner : Proc.t; id : int; inv : 'inv }

(* Per-process replay cache: how far down the log this process has
   applied, and the object state at that point.  Purely local. *)
type 'st cursor = { mutable index : int; mutable state : 'st; mutable next_id : int }

let factory (type st inv res) ~(tp : (st, inv, res) Object_type.t) ~consensus
    () : (inv, res) Slx_sim.Runner.factory =
  let module Tp = (val tp) in
  let apply st i =
    match Tp.seq i st with
    | (st', res) :: _ -> (st', res)
    | [] -> failwith "Universal: sequential specification is not total"
  in
  fun ~n ->
    (* The log: slot [i] is the [i]-th one-shot consensus object. *)
    let (module C : One_shot_consensus.S) =
      match consensus with
      | `Cas -> (module One_shot_consensus.Cas)
      | `Registers -> (module One_shot_consensus.Registers)
    in
    let log = C.make ~n () in
    let cursors =
      Array.init (n + 1) (fun _ -> { index = 0; state = Tp.initial; next_id = 0 })
    in
    fun ~proc inv ->
      let cur = cursors.(proc) in
      let my = { owner = proc; id = cur.next_id; inv } in
      cur.next_id <- cur.next_id + 1;
      let rec race () =
        let winner = C.propose log ~slot:cur.index ~proc my in
        let state', res = apply cur.state winner.inv in
        cur.index <- cur.index + 1;
        cur.state <- state';
        if Proc.equal winner.owner proc && winner.id = my.id then res
        else race ()
      in
      race ()
