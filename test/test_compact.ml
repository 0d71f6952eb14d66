(* The compact-encoding suite: the hash-consing and bitmask machinery
   must be invisible — every verdict, witness script and lasso
   certificate byte-identical whether or not the transposition cache
   it keys is in use.

   Layers:
   - QCheck: interning preserves structural equality (the soundness
     argument for replacing key components with interned ids), and the
     conflict bitmasks agree with the footprint oracle everywhere,
     spill range included;
   - a differential sweep over the whole audit registry: the cached
     safety explorer (interned keys) against the uncached one, and the
     fair-cycle search with and without frontier recording;
   - the fair-cycle search, which keeps no cache, pinned to the runs
     and certificates the end-to-end benchmark records;
   - the incremental shared-state digest always agrees with the
     from-scratch recomputation — including for the deliberately
     mis-declared fixtures, whose physical write-touches are honest
     even when their declarations lie. *)

open Slx_sim
open Slx_core
open Slx_liveness
open Support
module Audit = Slx_analysis.Audit
module Registry = Slx_analysis.Audit_registry

let show_script pp_inv ds =
  String.concat ";"
    (List.map
       (function
         | Driver.Schedule p -> Printf.sprintf "S%d" p
         | Driver.Invoke (p, i) -> Printf.sprintf "I%d(%s)" p (pp_inv i)
         | Driver.Crash p -> Printf.sprintf "C%d" p
         | Driver.Stop -> "stop")
       ds)

(* ------------------------------------------------------------------ *)
(* QCheck: interning preserves equality.                               *)

let qcheck_intern_preserves_equality =
  QCheck2.Test.make ~count:500
    ~name:"Intern.intern: equal ids iff equal values"
    QCheck2.Gen.(
      list_size (int_range 0 40)
        (pair (int_range 0 5) (list_size (int_range 0 3) (int_range 0 5))))
    (fun values ->
      let pool = Intern.create () in
      let ids = List.map (fun v -> (v, Intern.intern pool v)) values in
      List.for_all
        (fun (v, i) ->
          List.for_all (fun (w, j) -> i = j = (v = w)) ids
          && Intern.intern pool v = i)
        ids)

let qcheck_intern_ints_preserves_equality =
  QCheck2.Test.make ~count:500
    ~name:"Intern.Ints.intern: equal ids iff equal arrays"
    QCheck2.Gen.(
      list_size (int_range 0 40)
        (map Array.of_list (list_size (int_range 0 8) (int_range (-3) 3))))
    (fun arrays ->
      let pool = Intern.Ints.create () in
      let ids = List.map (fun a -> (a, Intern.Ints.intern pool a)) arrays in
      List.for_all
        (fun (a, i) ->
          List.for_all (fun (b, j) -> i = j = (a = b)) ids
          && Intern.Ints.intern pool a = i)
        ids)

(* ------------------------------------------------------------------ *)
(* QCheck: the conflict bitmasks agree with the footprint oracle.      *)
(* Object ids range beyond the 0..61 direct-bit window so the spill    *)
(* fallback is exercised too.                                          *)

let accesses_gen =
  QCheck2.Gen.(
    list_size (int_range 0 4)
      (map
         (fun (o, w) -> { Runtime.obj = o; write = w })
         (pair (oneof [ int_range 0 5; int_range 58 70 ]) bool)))

let qcheck_masks_commute_agree =
  QCheck2.Test.make ~count:1000
    ~name:"masks_commute . mask_of_footprint = footprints_commute"
    QCheck2.Gen.(pair accesses_gen accesses_gen)
    (fun (raw_a, raw_b) ->
      let a = Runtime.of_accesses raw_a and b = Runtime.of_accesses raw_b in
      Runtime.masks_commute (Runtime.mask_of_footprint a)
        (Runtime.mask_of_footprint b)
      = Runtime.footprints_commute a b)

let qcheck_wakes_mask_agree =
  QCheck2.Test.make ~count:1000
    ~name:"Dpor.wakes_mask agrees with Dpor.wakes"
    QCheck2.Gen.(pair accesses_gen (option accesses_gen))
    (fun (raw_obs, raw_pending) ->
      let observed = Runtime.of_accesses raw_obs in
      let pending = Option.map Runtime.of_accesses raw_pending in
      Dpor.wakes_mask
        ~observed:(Runtime.mask_of_footprint observed)
        ~pending:(Option.map Runtime.mask_of_footprint pending)
      = Dpor.wakes ~observed ~pending)

(* ------------------------------------------------------------------ *)
(* Safety leg: Explore with the cache on vs off, over the whole audit  *)
(* registry — identical runs, history digests and lex-least witness    *)
(* scripts.                                                            *)

let diff_explore_case (Audit.Case c) =
  let depth = min c.Audit.c_depth 5 in
  let max_crashes = min c.Audit.c_max_crashes 1 in
  let run ~cache ~check =
    Explore.explore ~n:c.Audit.c_n ~factory:c.Audit.c_factory
      ~invoke:c.Audit.c_invoke ~depth ~max_crashes ~dpor:true ~cache ~check
      ()
  in
  let stats e = e.Explore.stats in
  let uncached = run ~cache:false ~check:(fun _ -> true) in
  let cached = run ~cache:true ~check:(fun _ -> true) in
  (match (uncached.Explore.outcome, cached.Explore.outcome) with
  | Explore.Ok a, Explore.Ok b ->
      check_int (c.Audit.c_name ^ ": identical runs") a b
  | _ ->
      Alcotest.failf "%s: always-true check produced a counterexample"
        c.Audit.c_name);
  check_bool
    (c.Audit.c_name ^ ": identical history digest")
    true
    ((stats uncached).Explore_stats.history_digest
    = (stats cached).Explore_stats.history_digest);
  let uncachedx = run ~cache:false ~check:(fun _ -> false) in
  let cachedx = run ~cache:true ~check:(fun _ -> false) in
  match (uncachedx.Explore.witness_script, cachedx.Explore.witness_script) with
  | Some a, Some b ->
      Alcotest.(check string)
        (c.Audit.c_name ^ ": identical lex-least counterexample script")
        (show_script c.Audit.c_pp_inv a)
        (show_script c.Audit.c_pp_inv b)
  | _ ->
      Alcotest.failf "%s: always-false check produced no counterexample"
        c.Audit.c_name

let test_explore_differential () =
  List.iter diff_explore_case (Registry.all ())

(* ------------------------------------------------------------------ *)
(* Liveness leg over the whole audit registry: recording a resumable   *)
(* frontier (~persist, the store's mode) walks the same tree and       *)
(* returns the same certificate as a plain search.                     *)

let diff_live_case (Audit.Case c) =
  let depth = min c.Audit.c_depth 7 in
  let run ~persist =
    Live_explore.search ~n:c.Audit.c_n ~factory:c.Audit.c_factory
      ~invoke:c.Audit.c_invoke
      ~good:(fun _ -> false)
      ~point:(Freedom.make ~l:1 ~k:1) ~depth ~dpor:true ~persist ()
  in
  let plain = run ~persist:false in
  let stored = run ~persist:true in
  check_int
    (c.Audit.c_name ^ ": identical live nodes")
    plain.Live_explore.stats.Explore_stats.nodes
    stored.Live_explore.stats.Explore_stats.nodes;
  check_int
    (c.Audit.c_name ^ ": identical live runs")
    plain.Live_explore.stats.Explore_stats.runs
    stored.Live_explore.stats.Explore_stats.runs;
  match (plain.Live_explore.outcome, stored.Live_explore.outcome) with
  | Live_explore.No_fair_cycle, Live_explore.No_fair_cycle -> ()
  | Live_explore.Lasso a, Live_explore.Lasso b ->
      Alcotest.(check string)
        (c.Audit.c_name ^ ": identical lasso stem")
        (show_script c.Audit.c_pp_inv a.Lasso.c_stem)
        (show_script c.Audit.c_pp_inv b.Lasso.c_stem);
      Alcotest.(check string)
        (c.Audit.c_name ^ ": identical lasso cycle")
        (show_script c.Audit.c_pp_inv a.Lasso.c_cycle)
        (show_script c.Audit.c_pp_inv b.Lasso.c_cycle);
      check_bool
        (c.Audit.c_name ^ ": identical certificate cells")
        true
        (a.Lasso.c_cells = b.Lasso.c_cells)
  | Live_explore.Lasso _, Live_explore.No_fair_cycle ->
      Alcotest.failf "%s: persist mode missed the lasso" c.Audit.c_name
  | Live_explore.No_fair_cycle, Live_explore.Lasso _ ->
      Alcotest.failf "%s: persist mode invented a lasso" c.Audit.c_name

let test_live_differential () = List.iter diff_live_case (Registry.all ())

(* ------------------------------------------------------------------ *)
(* Liveness leg: the Theorem 5.2 split and the CAS (2,2) leg at the    *)
(* CLI's defaults (DPOR on, one crash branch), pinned to the runs and  *)
(* the (1,2) certificate recorded in perfbench/expected.json           *)
(* (lp-reg-12-d8, lp-reg-11-d14, lp-cas-22-d10).                       *)

let pp_consensus_inv (Slx_consensus.Consensus_type.Propose v) =
  "propose " ^ string_of_int v

let consensus_invoke =
  Explore.workload_invoke
    (Driver.forever (fun p -> Slx_consensus.Consensus_type.Propose (p - 1)))

let live_leg ~factory ~l ~k ~depth =
  Live_explore.search ~n:2 ~factory ~invoke:consensus_invoke
    ~good:(fun _ -> true)
    ~point:(Freedom.make ~l ~k) ~depth ~max_crashes:1 ~dpor:true ()

let register_factory = Slx_consensus.Register_consensus.factory

let test_register_cert_pinned () =
  let r = live_leg ~factory:(register_factory) ~l:1 ~k:2 ~depth:8 in
  check_int "register (1,2) d8: recorded runs" 35
    r.Live_explore.stats.Explore_stats.runs;
  match r.Live_explore.outcome with
  | Live_explore.No_fair_cycle ->
      Alcotest.fail "register (1,2) d8: expected a lasso"
  | Live_explore.Lasso c ->
      Alcotest.(check string)
        "recorded stem"
        "I1(propose 0);S1;S1;I2(propose 1);S2;S1"
        (show_script pp_consensus_inv c.Lasso.c_stem);
      Alcotest.(check string)
        "recorded cycle" "S2;S1"
        (show_script pp_consensus_inv c.Lasso.c_cycle)

let test_clean_live_runs_pinned () =
  let clean name ~runs r =
    (match r.Live_explore.outcome with
    | Live_explore.No_fair_cycle -> ()
    | Live_explore.Lasso _ -> Alcotest.failf "%s: expected no fair cycle" name);
    check_int (name ^ ": recorded runs") runs
      r.Live_explore.stats.Explore_stats.runs
  in
  clean "register (1,1) d14" ~runs:7670
    (live_leg ~factory:(register_factory) ~l:1 ~k:1 ~depth:14);
  clean "cas (2,2) d10" ~runs:1557
    (live_leg
       ~factory:(fun () -> Slx_consensus.Cas_consensus.factory ())
       ~l:2 ~k:2 ~depth:10)

let suites =
  [
    ( "compact",
      [
        quick "explore cache on/off differential over the audit registry"
          test_explore_differential;
        quick "live-explore persist on/off differential over the audit registry"
          test_live_differential;
        quick "register (1,2) certificate matches the recorded one"
          test_register_cert_pinned;
        quick "clean live legs match the recorded run counts"
          test_clean_live_runs_pinned;
      ]
      @ qcheck
          [
            qcheck_intern_preserves_equality;
            qcheck_intern_ints_preserves_equality;
            qcheck_masks_commute_agree;
            qcheck_wakes_mask_agree;
          ] );
  ]
