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
  (* [preds.(i)] counts the unplaced transactions that must precede
     [i], kept current as the search places and unplaces, so readiness
     is [preds.(i) = 0]. *)
  let preds = Array.make count 0 in
  for i = 0 to count - 1 do
    for j = 0 to count - 1 do
      if i <> j && precedes txns.(j) txns.(i) then preds.(i) <- preds.(i) + 1
    done
  done;
  let shift i d =
    for s = 0 to count - 1 do
      if s <> i && precedes txns.(i) txns.(s) then preds.(s) <- preds.(s) + d
    done
  in
  (* The placed set as a bitset; its string copy and the store are the
     exact memo key. *)
  let placed = Bytes.make ((count + 7) / 8) '\000' in
  let is_placed i =
    Char.code (Bytes.get placed (i lsr 3)) land (1 lsl (i land 7)) <> 0
  in
  let flip i =
    let b = Char.code (Bytes.get placed (i lsr 3)) in
    Bytes.set placed (i lsr 3) (Char.chr (b lxor (1 lsl (i land 7))))
  in
  let n_placed = ref 0 in
  let place i =
    flip i;
    incr n_placed;
    shift i (-1)
  in
  let unplace i =
    flip i;
    decr n_placed;
    shift i 1
  in
  let visited : (string * Store.t, unit) Hashtbl.t = Hashtbl.create 512 in
  let rec go store acc =
    if !n_placed = count then Some acc
    else
      let key = (Bytes.to_string placed, store) in
      if Hashtbl.mem visited key then None
      else begin
        Hashtbl.add visited key ();
        let rec try_from i =
          if i = count then None
          else
            match try_txn store acc i with
            | Some _ as result -> result
            | None -> try_from (i + 1)
        in
        try_from 0
      end
  and try_txn store acc i =
    if is_placed i || preds.(i) > 0 then None
    else
      let txn = txns.(i) in
      if not (legal store txn) then None
      else begin
        place i;
        let acc' = txn :: acc in
        (* Enumerate the completion: committed transactions apply
           their writes; commit-pending ones may go either way;
           aborted and live ones never commit. *)
        let as_committed () =
          go (Store.commit store (Transaction.writes txn)) acc'
        in
        let as_aborted () = go store acc' in
        let result =
          match txn.Transaction.status with
          | Transaction.Committed -> as_committed ()
          | Transaction.Aborted | Transaction.Live -> as_aborted ()
          | Transaction.Commit_pending -> begin
              match as_committed () with
              | Some _ as result -> result
              | None -> as_aborted ()
            end
        in
        unplace i;
        result
      end
  in
  go Store.empty []

let search ~precedes txns =
  Option.map List.rev (search_rev ~precedes txns)
