open Slx_history
open Slx_sim

module Int_set = Set.Make (Int)

module S_freedom = struct
  type t = Int_set.t

  let make = function
    | [] -> invalid_arg "S_freedom.make: empty set"
    | cards ->
        if List.exists (fun c -> c < 1) cards then
          invalid_arg "S_freedom.make: cardinalities must be positive";
        Int_set.of_list cards

  let cardinalities t = Int_set.elements t

  let holds ~good r t =
    let s = Run_report.summary r in
    if
      Proc.Set.subset s.active s.correct
      && Int_set.mem (Proc.Set.cardinal s.active) t
    then Proc.Set.for_all (Run_report.summary_progress ~good s) s.active
    else true

  let stronger_equal a b = Int_set.subset b a

  let comparable a b = stronger_equal a b || stronger_equal b a

  let singletons ~n = List.init n (fun i -> Int_set.singleton (i + 1))

  let pp fmt t =
    Format.fprintf fmt "{%a}-freedom"
      (Format.pp_print_list
         ~pp_sep:(fun fmt () -> Format.pp_print_string fmt ",")
         Format.pp_print_int)
      (Int_set.elements t)
end

module Nx_liveness = struct
  type t = { n : int; x : int }

  let make ~n ~x =
    if not (0 <= x && x <= n) then
      invalid_arg "Nx_liveness.make: requires 0 <= x <= n";
    { n; x }

  let holds ~good r t =
    let s = Run_report.summary r in
    let progress = Run_report.summary_progress ~good s in
    let wait_free_part =
      Proc.Set.for_all
        (fun p -> p > t.x || progress p)
        (Proc.Set.inter s.active s.correct)
    in
    let obstruction_part =
      match Proc.Set.elements s.active with
      | [ p ] when Proc.Set.mem p s.correct -> progress p
      | _ -> true
    in
    wait_free_part && obstruction_part

  let stronger_equal a b = a.n = b.n && a.x >= b.x

  let all ~n = List.init (n + 1) (fun x -> { n; x })

  let pp fmt t = Format.fprintf fmt "(%d,%d)-liveness" t.n t.x
end
