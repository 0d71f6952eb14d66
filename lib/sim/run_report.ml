open Slx_history

type ('inv, 'res) t = {
  n : int;
  history : ('inv, 'res) History.t;
  event_times : int array;
  grants : (int * Proc.t) list;
  crashed : Proc.Set.t;
  total_time : int;
  window : int;
  stopped : [ `Driver_stop | `Max_steps | `Quiescent ];
}

let window_start r = max 0 (r.total_time - r.window)

let in_window r t = t >= window_start r && t < r.total_time

let steps_total r p =
  List.fold_left
    (fun acc (_, q) -> if Proc.equal p q then acc + 1 else acc)
    0 r.grants

type 'res window_summary = {
  active : Proc.Set.t;
  correct : Proc.Set.t;
  window_steps : int Proc.Map.t;
  window_responses : 'res list Proc.Map.t;
}

let summary r =
  let inside = in_window r in
  let active, window_steps =
    List.fold_left
      (fun ((active, steps) as acc) (t, q) ->
        if not (inside t) then acc
        else
          ( Proc.Set.add q active,
            Proc.Map.add q
              (1 + Option.value (Proc.Map.find_opt q steps) ~default:0)
              steps ))
      (Proc.Set.empty, Proc.Map.empty)
      r.grants
  in
  let _, rev_responses =
    List.fold_left
      (fun (i, acc) e ->
        let acc =
          match e with
          | Event.Response (p, res) when inside r.event_times.(i) ->
              Proc.Map.add p
                (res :: Option.value (Proc.Map.find_opt p acc) ~default:[])
                acc
          | Event.Response _ | Event.Invocation _ | Event.Crash _ -> acc
        in
        (i + 1, acc))
      (0, Proc.Map.empty)
      (History.to_list r.history)
  in
  {
    active;
    correct = Proc.Set.diff (Proc.Set.of_list (Proc.all ~n:r.n)) r.crashed;
    window_steps;
    window_responses = Proc.Map.map List.rev rev_responses;
  }

let summary_steps s p =
  Option.value (Proc.Map.find_opt p s.window_steps) ~default:0

let summary_responses s p =
  Option.value (Proc.Map.find_opt p s.window_responses) ~default:[]

let summary_progress ~good s p = List.exists good (summary_responses s p)

let pp ~pp_inv ~pp_res fmt r =
  let s = summary r in
  let pp_steps fmt p =
    Format.fprintf fmt "%a:%d/%d" Proc.pp p (summary_steps s p)
      (steps_total r p)
  in
  Format.fprintf fmt
    "@[<v>history: %a@,steps (window/total): %a@,crashed: %a@,time: %d  \
     window: %d  stopped: %s@]"
    (History.pp ~pp_inv ~pp_res)
    r.history
    (Format.pp_print_list
       ~pp_sep:(fun fmt () -> Format.pp_print_string fmt "  ")
       pp_steps)
    (Proc.all ~n:r.n) Proc.pp_set r.crashed r.total_time r.window
    (match r.stopped with
    | `Driver_stop -> "driver"
    | `Max_steps -> "budget"
    | `Quiescent -> "quiescent")
