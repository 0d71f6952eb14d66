(* The serialization search as it was before the incremental engine:
   an O(count) [precedes] scan per readiness test and a memo keyed by
   a polymorphic-hashed [Int_set] tree.  Kept verbatim as the oracle
   the differential tests compare {!Slx_tm.Serialize_engine.search}
   against: both must return the same witness. *)

open Slx_tm

(* The variable store during serialization: a sorted association list,
   so it can be part of a hash-table key for memoization. *)
module Store = struct
  type t = (Tm_type.var * int) list

  let empty : t = []

  let read store x =
    Option.value (List.assoc_opt x store) ~default:Tm_type.initial_value

  let commit store writes =
    List.fold_left
      (fun acc (x, v) ->
        List.merge
          (fun (a, _) (b, _) -> Int.compare a b)
          (List.remove_assoc x acc) [ (x, v) ])
      store writes
end

module Int_set = Set.Make (Int)

(* Can transaction [txn] execute legally against [store]?  Simulates
   its operations: reads see the transaction's own earlier writes,
   otherwise the store. *)
let legal store txn =
  let rec go local = function
    | [] -> true
    | Transaction.Write_op (x, v) :: rest -> go ((x, v) :: local) rest
    | Transaction.Read_op (x, v) :: rest ->
        let expected =
          match List.assoc_opt x local with
          | Some w -> w
          | None -> Store.read store x
        in
        v = expected && go local rest
  in
  go [] txn.Transaction.ops

let search_rev ~precedes txns =
  let txns = Array.of_list txns in
  let count = Array.length txns in
  let visited : (Int_set.t * Store.t, unit) Hashtbl.t = Hashtbl.create 512 in
  let ready placed i =
    (not (Int_set.mem i placed))
    && (let ok = ref true in
        for j = 0 to count - 1 do
          if
            (not (Int_set.mem j placed))
            && j <> i
            && precedes txns.(j) txns.(i)
          then ok := false
        done;
        !ok)
  in
  let rec go placed store acc =
    if Int_set.cardinal placed = count then Some acc
    else if Hashtbl.mem visited (placed, store) then None
    else begin
      Hashtbl.add visited (placed, store) ();
      let try_txn i =
        if not (ready placed i) then None
        else
          let txn = txns.(i) in
          if not (legal store txn) then None
          else
            let placed' = Int_set.add i placed in
            let acc' = txn :: acc in
            (* Enumerate the completion: committed transactions apply
               their writes; commit-pending ones may go either way;
               aborted and live ones never commit. *)
            let as_committed () =
              go placed' (Store.commit store (Transaction.writes txn)) acc'
            in
            let as_aborted () = go placed' store acc' in
            match txn.Transaction.status with
            | Transaction.Committed -> as_committed ()
            | Transaction.Aborted | Transaction.Live -> as_aborted ()
            | Transaction.Commit_pending -> begin
                match as_committed () with
                | Some _ as result -> result
                | None -> as_aborted ()
              end
      in
      List.find_map try_txn (List.init count (fun i -> i))
    end
  in
  go Int_set.empty Store.empty []

let search ~precedes txns =
  Option.map List.rev (search_rev ~precedes txns)
