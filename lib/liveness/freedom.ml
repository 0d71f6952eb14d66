open Slx_history
open Slx_sim

type t = { l : int; k : int }

let make ~l ~k =
  if not (1 <= l && l <= k) then
    invalid_arg "Freedom.make: requires 1 <= l <= k";
  { l; k }

let l t = t.l
let k t = t.k

let obstruction_freedom = { l = 1; k = 1 }
let lock_freedom ~n = make ~l:1 ~k:n
let wait_freedom ~n = make ~l:n ~k:n
let l_lock_freedom ~l ~n = make ~l ~k:n
let k_obstruction_freedom ~k = make ~l:k ~k

let equal a b = a.l = b.l && a.k = b.k

let pp fmt t = Format.fprintf fmt "(%d,%d)-freedom" t.l t.k

let explain_summary ~good (s : _ Run_report.window_summary) t =
  if Proc.Set.cardinal s.active > t.k then `Vacuous
  else begin
    let correct = s.correct in
    let progressing =
      Proc.Set.filter (Run_report.summary_progress ~good s) correct
    in
    let ok =
      if Proc.Set.cardinal correct >= t.l then
        Proc.Set.cardinal progressing >= t.l
      else Proc.Set.equal progressing correct
    in
    if ok then `Holds else `Violated (Proc.Set.diff correct progressing)
  end

let explain ~good r t = explain_summary ~good (Run_report.summary r) t

let holds_summary ~good s t =
  match explain_summary ~good s t with
  | `Holds | `Vacuous -> true
  | `Violated _ -> false

let holds ~good r t = holds_summary ~good (Run_report.summary r) t

let violated_on_cycle ~correct ~active ~progressed t =
  Proc.Set.cardinal active <= t.k
  &&
  let progressing = Proc.Set.inter progressed correct in
  let ok =
    if Proc.Set.cardinal correct >= t.l then
      Proc.Set.cardinal progressing >= t.l
    else Proc.Set.equal progressing correct
  in
  not ok

let stronger_equal a b = a.l >= b.l && a.k >= b.k

let comparable a b = stronger_equal a b || stronger_equal b a

let all ~n =
  List.concat_map
    (fun l -> List.filter_map
        (fun k -> if l <= k then Some { l; k } else None)
        (List.init n (fun i -> i + 1)))
    (List.init n (fun i -> i + 1))

let maximal points =
  List.filter
    (fun p ->
      not
        (List.exists
           (fun q -> (not (equal p q)) && stronger_equal q p)
           points))
    points

let minimal points =
  List.filter
    (fun p ->
      not
        (List.exists
           (fun q -> (not (equal p q)) && stronger_equal p q)
           points))
    points

let unique = function [ p ] -> Some p | [] | _ :: _ :: _ -> None
