open Slx_base_objects

(* The unbounded sequence of commit-adopt rounds: two pools of
   single-writer registers, cell [r * n + i - 1] belonging to process
   [i] in round [r].  [a] holds phase-1 preferences; [b] holds phase-2
   reports [(commit_candidate, preference)].  Rounds materialise on
   first use, without a step. *)
type rounds = {
  a : int option Register.pool;
  b : (bool * int) option Register.pool;
}

type outcome = Commit of int | Adopt of int

(* The classical two-phase commit-adopt protocol (Gafni 1998):
   CA1  if all participants propose [v], everyone commits [v];
   CA2  if anyone commits [v], everyone commits or adopts [v];
   and it is wait-free. *)
let commit_adopt rounds ~r ~n ~i v =
  let a j = Register.cell rounds.a ((r * n) + j)
  and b j = Register.cell rounds.b ((r * n) + j) in
  Register.write (a (i - 1)) (Some v);
  let seen_a =
    List.filter_map (fun j -> Register.read (a j)) (List.init n (fun j -> j))
  in
  let phase1 =
    if List.for_all (Int.equal v) seen_a then (true, v) else (false, v)
  in
  Register.write (b (i - 1)) (Some phase1);
  let seen_b =
    List.filter_map (fun j -> Register.read (b j)) (List.init n (fun j -> j))
  in
  let trues = List.filter fst seen_b in
  match trues with
  | (_, u) :: _ when List.for_all (fun (f, _) -> f) seen_b -> Commit u
  | (_, u) :: _ -> Adopt u
  | [] -> Adopt v

let factory () : _ Slx_sim.Runner.factory =
 fun ~n ->
  let rounds = { a = Register.pool None; b = Register.pool None } in
  let decision = Register.make None in
  fun ~proc (Consensus_type.Propose v) ->
    let rec go r pref =
      match Register.read decision with
      | Some w -> Consensus_type.Decided w
      | None -> begin
          match commit_adopt rounds ~r ~n ~i:proc pref with
          | Commit u ->
              Register.write decision (Some u);
              Consensus_type.Decided u
          | Adopt u -> go (r + 1) u
        end
    in
    go 0 v
