open Slx_history
open Slx_base_objects

module type S = sig
  type 'a t

  val make : n:int -> unit -> 'a t
  val propose : 'a t -> slot:int -> proc:Proc.t -> 'a -> 'a
end

module Cas = struct
  type 'a t = 'a option Slx_base_objects.Cas.pool

  let make ~n:_ () = Slx_base_objects.Cas.pool None

  let propose t ~slot ~proc:_ v =
    let c = Slx_base_objects.Cas.cell t slot in
    let _won =
      Slx_base_objects.Cas.compare_and_swap c ~expected:None ~desired:(Some v)
    in
    match Slx_base_objects.Cas.read c with
    | Some w -> w
    | None -> assert false
end

module Registers = struct
  (* The commit-adopt cascade of every slot (cf.
     Slx_consensus.Register_consensus, generalized to arbitrary values):
     process [i]'s registers of round [r] of slot [s] are cell
     [pair s r * n + i - 1] of [a] and [b], where [pair] is the Cantor
     pairing, and slot [s]'s decision is cell [s] of [decision]. *)
  type 'a t = {
    n : int;
    a : 'a option Register.pool;
    b : (bool * 'a) option Register.pool;
    decision : 'a option Register.pool;
  }

  let make ~n () =
    {
      n;
      a = Register.pool None;
      b = Register.pool None;
      decision = Register.pool None;
    }

  let pair s r = ((s + r) * (s + r + 1) / 2) + r

  let cells t =
    Slx_sim.Runtime.(pool_size t.a + pool_size t.b + pool_size t.decision)

  type 'a outcome = Commit of 'a | Adopt of 'a

  let commit_adopt t ~slot ~r ~i v =
    let n = t.n in
    let base = pair slot r * n in
    let a j = Register.cell t.a (base + j)
    and b j = Register.cell t.b (base + j) in
    Register.write (a (i - 1)) (Some v);
    let seen_a =
      List.filter_map (fun j -> Register.read (a j)) (List.init n (fun j -> j))
    in
    let phase1 = if List.for_all (fun u -> u = v) seen_a then (true, v) else (false, v) in
    Register.write (b (i - 1)) (Some phase1);
    let seen_b =
      List.filter_map (fun j -> Register.read (b j)) (List.init n (fun j -> j))
    in
    let trues = List.filter fst seen_b in
    match trues with
    | (_, u) :: _ when List.for_all (fun (f, _) -> f) seen_b -> Commit u
    | (_, u) :: _ -> Adopt u
    | [] -> Adopt v

  let propose t ~slot ~proc v =
    let decision = Register.cell t.decision slot in
    let rec go r pref =
      match Register.read decision with
      | Some w -> w
      | None -> begin
          match commit_adopt t ~slot ~r ~i:proc pref with
          | Commit u ->
              Register.write decision (Some u);
              u
          | Adopt u -> go (r + 1) u
        end
    in
    if Proc.is_valid ~n:t.n proc then go 0 v
    else invalid_arg "One_shot_consensus.Registers.propose: bad process"
end
