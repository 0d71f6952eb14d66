open Slx_history
open Slx_sim

let starved_summary (s : _ Run_report.window_summary) =
  Proc.Set.filter (fun p -> Run_report.summary_steps s p = 0) s.correct

let starved r = starved_summary (Run_report.summary r)

let is_bounded_fair_summary s = Proc.Set.is_empty (starved_summary s)

let is_bounded_fair r = is_bounded_fair_summary (Run_report.summary r)
