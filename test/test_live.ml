(* The fair-cycle search (Live_explore): Theorem 5.2's split found by
   exhaustive search, certificate pumping, and the cross-validation
   against the adversary-game classification. *)

open Slx_sim
open Slx_liveness
open Slx_core
open Support

let good (_ : Slx_consensus.Consensus_type.response) = true

let invoke =
  Explore.workload_invoke
    (Driver.forever (fun p -> Slx_consensus.Consensus_type.Propose (p - 1)))

let reg_factory = Slx_consensus.Register_consensus.factory

let search_register ?(depth = 10) ?(max_crashes = 0) point =
  Live_explore.search ~n:2
    ~factory:reg_factory
    ~invoke ~good ~point ~depth ~max_crashes ()

let search_cas ?(depth = 9) ?(max_crashes = 1) point =
  Live_explore.search ~n:2
    ~factory:(fun () -> Slx_consensus.Cas_consensus.factory ())
    ~invoke ~good ~point ~depth ~max_crashes ()

let lasso_exn name r =
  match r.Live_explore.outcome with
  | Live_explore.Lasso c -> c
  | Live_explore.No_fair_cycle -> Alcotest.failf "%s: expected a lasso" name

(* ------------------------------------------------------------------ *)
(* The acceptance split (Theorem 5.2 at n = 2).                        *)

let test_register_lasso_for_1_2 () =
  let r = search_register ~depth:8 (Freedom.make ~l:1 ~k:2) in
  let c = lasso_exn "register (1,2)" r in
  check_bool "cycle is non-empty" true (c.Lasso.c_cycle <> []);
  check_bool "some candidate cycles were examined" true
    (r.Live_explore.stats.Explore_stats.cycles_examined > 0);
  check_bool "a fair violating candidate was found" true
    (r.Live_explore.stats.Explore_stats.fair_cycles >= 1);
  (* The emitted certificate replays and pumps through a fresh
     instance. *)
  match Lasso.pump ~factory:(reg_factory ()) ~repetitions:4 c with
  | Error e -> Alcotest.failf "pump failed: %s" e
  | Ok rep ->
      check_bool "pumped report carries the bounded violation" true
        (Lasso.certified_violation ~good rep (Freedom.make ~l:1 ~k:2))

let test_register_no_lasso_for_1_1 () =
  (* Under solo windows (one crash allowed) the register consensus is
     obstruction-free: the search must exhaust the tree and find
     nothing — the positive half of the Theorem 5.2 split. *)
  let r = search_register ~depth:9 ~max_crashes:1 Freedom.obstruction_freedom in
  (match r.Live_explore.outcome with
  | Live_explore.No_fair_cycle -> ()
  | Live_explore.Lasso _ ->
      Alcotest.fail "register consensus is obstruction-free");
  check_bool "candidates were examined and rejected" true
    (r.Live_explore.stats.Explore_stats.cycles_examined > 0)

let test_register_lasso_for_2_2 () =
  let r = search_register ~depth:9 ~max_crashes:1 (Freedom.make ~l:2 ~k:2) in
  ignore (lasso_exn "register (2,2)" r)

let test_cas_no_lasso_anywhere () =
  (* CAS consensus is wait-free: no point of the grid is excluded. *)
  List.iter
    (fun point ->
      match (search_cas point).Live_explore.outcome with
      | Live_explore.No_fair_cycle -> ()
      | Live_explore.Lasso _ ->
          Alcotest.failf "CAS consensus: unexpected lasso for %s"
            (Format.asprintf "%a" Freedom.pp point))
    (Freedom.all ~n:2)

(* ------------------------------------------------------------------ *)
(* Determinism and engine configurations.                              *)

let test_witness_deterministic_across_configs () =
  let point = Freedom.make ~l:1 ~k:2 in
  let base = lasso_exn "base" (search_register ~depth:8 point) in
  let again = lasso_exn "again" (search_register ~depth:8 point) in
  let reduced =
    lasso_exn "dpor"
      (Live_explore.search ~n:2
         ~factory:reg_factory
         ~invoke ~good ~point ~depth:8 ~dpor:true ())
  in
  check_bool "same stem on a re-run" true (base.Lasso.c_stem = again.Lasso.c_stem);
  check_bool "same cycle on a re-run" true
    (base.Lasso.c_cycle = again.Lasso.c_cycle);
  check_bool "dpor does not change the witness" true
    (base.Lasso.c_stem = reduced.Lasso.c_stem
    && base.Lasso.c_cycle = reduced.Lasso.c_cycle)

let test_invoke_order_reduction_sound () =
  let point = Freedom.make ~l:1 ~k:2 in
  let full = search_register ~depth:8 point in
  let reduced =
    Live_explore.search ~n:2
      ~factory:reg_factory
      ~invoke ~good ~point ~depth:8 ~invoke_order:true ()
  in
  let c = lasso_exn "reduced" reduced in
  check_bool "reduction preserves the verdict" true
    (match full.Live_explore.outcome with
    | Live_explore.Lasso _ -> true
    | Live_explore.No_fair_cycle -> false);
  check_bool "reduced witness still pumps" true
    (match Lasso.pump ~factory:(reg_factory ()) c with
    | Ok _ -> true
    | Error _ -> false);
  check_bool "fewer or equal nodes with the reduction" true
    (reduced.Live_explore.stats.Explore_stats.nodes
    <= full.Live_explore.stats.Explore_stats.nodes)

let test_clean_tree_independent_of_max_period () =
  (* The search keeps no suffix cache, so [max_period] only bounds the
     candidate cycles examined: on a leg with no fair cycle every
     setting walks the same tree, node for node. *)
  let walk name search =
    let shape mp =
      let r = search mp in
      (match r.Live_explore.outcome with
      | Live_explore.No_fair_cycle -> ()
      | Live_explore.Lasso _ ->
          Alcotest.failf "%s: expected no fair cycle" name);
      ( r.Live_explore.stats.Explore_stats.runs,
        r.Live_explore.stats.Explore_stats.nodes )
    in
    let runs, nodes = shape None in
    List.iter
      (fun mp ->
        let runs', nodes' = shape (Some mp) in
        check_int (Printf.sprintf "%s: runs at max_period %d" name mp) runs
          runs';
        check_int (Printf.sprintf "%s: nodes at max_period %d" name mp) nodes
          nodes')
      [ 1; 2; 3; 5 ]
  in
  walk "register (1,1) d10" (fun max_period ->
      Live_explore.search ~n:2
        ~factory:reg_factory
        ~invoke ~good ~point:Freedom.obstruction_freedom ~depth:10
        ~max_crashes:1 ?max_period ~dpor:true ());
  walk "cas (2,2) d10" (fun max_period ->
      Live_explore.search ~n:2
        ~factory:(fun () -> Slx_consensus.Cas_consensus.factory ())
        ~invoke ~good ~point:(Freedom.make ~l:2 ~k:2) ~depth:10
        ~max_crashes:1 ?max_period ~dpor:true ())

(* ------------------------------------------------------------------ *)
(* Certificate mechanics.                                              *)

let test_cert_digest_repeats_exactly () =
  (* The satellite check, stated directly: replay the certificate's
     cycle twice more through a fresh cursor and the boundary
     configuration digest (the fingerprint of the quotient that can
     recur) repeats exactly. *)
  let c = lasso_exn "cert" (search_register ~depth:8 (Freedom.make ~l:1 ~k:2)) in
  let cur =
    Runner.Cursor.replay ~n:2 ~factory:(reg_factory ())
      (c.Lasso.c_stem @ c.Lasso.c_cycle)
  in
  let boundary cur =
    (Lasso.cert_of_cursor ~stem:c.Lasso.c_stem ~cycle:c.Lasso.c_cycle
       ~cells:c.Lasso.c_cells cur)
      .Lasso.c_digest
  in
  check_int "digest at the first boundary" c.Lasso.c_digest (boundary cur);
  List.iter (Runner.Cursor.apply cur) c.Lasso.c_cycle;
  check_int "digest after one more repetition" c.Lasso.c_digest (boundary cur);
  List.iter (Runner.Cursor.apply cur) c.Lasso.c_cycle;
  check_int "digest after two more repetitions" c.Lasso.c_digest (boundary cur)

let test_pump_rejects_wrong_instance () =
  (* A certificate recorded against the register consensus does not
     validate against a different implementation. *)
  let c = lasso_exn "cert" (search_register ~depth:8 (Freedom.make ~l:1 ~k:2)) in
  match
    Lasso.pump ~factory:(Slx_consensus.Cas_consensus.factory ()) c
  with
  | Ok _ -> Alcotest.fail "pump should reject a CAS replay"
  | Error _ -> ()

let test_pump_argument_errors () =
  let c = lasso_exn "cert" (search_register ~depth:8 (Freedom.make ~l:1 ~k:2)) in
  (match Lasso.pump ~factory:(reg_factory ()) ~repetitions:1 c with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "repetitions < 2 must be rejected");
  Alcotest.check_raises "empty cycle rejected"
    (Invalid_argument "Lasso.cert_of_cursor: empty cycle") (fun () ->
      let cur = Runner.Cursor.create ~n:2 ~factory:(reg_factory ()) () in
      ignore (Lasso.cert_of_cursor ~stem:[] ~cycle:[] ~cells:[] cur));
  Alcotest.check_raises "cells arity checked"
    (Invalid_argument "Lasso.cert_of_cursor: one cell list per cycle tick")
    (fun () ->
      let cur = Runner.Cursor.create ~n:2 ~factory:(reg_factory ()) () in
      ignore
        (Lasso.cert_of_cursor ~stem:[]
           ~cycle:[ Driver.Schedule 1 ]
           ~cells:[] cur))

let prop_lasso_pumps =
  (* The QCheck satellite: over small depth/point/pump-length choices,
     the emitted certificate pumps — every repetition reproduces the
     abstract cells and the boundary digest — and the pumped window
     still carries the bounded violation. *)
  QCheck2.Test.make ~name:"emitted lasso certificates pump" ~count:12
    QCheck2.Gen.(
      triple (int_range 8 9) (oneofl [ (1, 2); (2, 2) ]) (int_range 2 6))
    (fun (depth, (l, k), repetitions) ->
      let point = Freedom.make ~l ~k in
      match (search_register ~depth point).Live_explore.outcome with
      | Live_explore.No_fair_cycle -> false
      | Live_explore.Lasso c -> (
          match
            Lasso.pump ~factory:(reg_factory ()) ~repetitions c
          with
          | Error _ -> false
          | Ok rep -> Lasso.certified_violation ~good rep point))

let search_cursor ~factory script =
  (* A cursor as the search builds it: shadow and probe installed. *)
  Runner.Cursor.replay ~n:2 ~factory:(factory ())
    ~shadow:(Runtime.make_shadow ~record:false ~raise_on_violation:false ())
    ~probe:(Runtime.make_probe ()) script

let test_pump_continuation_matches_fresh_pump () =
  (* The search pumps a leaf's candidate from the leaf's own cursor;
     that continuation must answer exactly what a fresh replay does —
     the same report, or the same error — on valid and on damaged
     certificates alike. *)
  let c = lasso_exn "cert" (search_register ~depth:8 (Freedom.make ~l:1 ~k:2)) in
  let pumps ~ok name cert repetitions =
    let fresh = Lasso.pump ~factory:(reg_factory ()) ~repetitions cert in
    let cont =
      Lasso.pump_from ~repetitions
        (search_cursor ~factory:reg_factory
           (cert.Lasso.c_stem @ cert.Lasso.c_cycle))
        cert
    in
    check_bool (name ^ ": pump verdict") ok (Result.is_ok fresh);
    check_bool (name ^ ": continuation = fresh pump") true (fresh = cont)
  in
  List.iter (pumps ~ok:true "valid" c) [ 2; 3; 8 ];
  pumps ~ok:false "argument error" c 1;
  pumps ~ok:false "digest damaged"
    { c with Lasso.c_digest = c.Lasso.c_digest + 1 }
    3;
  pumps ~ok:false "cells damaged"
    { c with Lasso.c_cells = List.rev c.Lasso.c_cells }
    3;
  (* Cycle not reapplicable: invoking a process that is already
     running fails on the second repetition, on both paths. *)
  let stem = [ Driver.Invoke (1, Slx_consensus.Consensus_type.Propose 0) ]
  and cycle = [ Driver.Invoke (2, Slx_consensus.Consensus_type.Propose 1) ] in
  let stuck =
    Lasso.cert_of_cursor ~stem ~cycle ~cells:[ [ "p2:inv" ] ]
      (Runner.Cursor.replay ~n:2 ~factory:(reg_factory ()) (stem @ cycle))
  in
  pumps ~ok:false "cycle not reapplicable" stuck 2

(* ------------------------------------------------------------------ *)
(* Identity: the live explorer's outputs on the benchmark legs, pinned *)
(* from the always-replay walk (every child replayed, every pump on a  *)
(* fresh instance).  Stepping fewer configurations must change none of *)
(* them.                                                               *)

let dec_string = function
  | Driver.Schedule p -> Printf.sprintf "S%d" p
  | Driver.Invoke (p, Slx_consensus.Consensus_type.Propose v) ->
      Printf.sprintf "I%d(%d)" p v
  | Driver.Crash p -> Printf.sprintf "C%d" p
  | Driver.Stop -> "stop"

type pinned_cert = {
  stem : string list;
  cycle : string list;
  cells : string list list;
  digest : int;
}

let cert_summary = function
  | Live_explore.No_fair_cycle -> None
  | Live_explore.Lasso c ->
      Some
        {
          stem = List.map dec_string c.Lasso.c_stem;
          cycle = List.map dec_string c.Lasso.c_cycle;
          cells = c.Lasso.c_cells;
          digest = c.Lasso.c_digest;
        }

let reg12_cert =
  Some
    {
      stem = [ "I1(0)"; "S1"; "S1"; "I2(1)"; "S2"; "S1" ];
      cycle = [ "S2"; "S1" ];
      cells = [ [ "p2:step" ]; [ "p1:step" ] ];
      digest = 94456988;
    }

let n3_cert =
  Some
    {
      stem = [ "I1(0)"; "S1"; "I2(1)"; "C3"; "S1"; "S2" ];
      cycle = [ "S1"; "S2" ];
      cells = [ [ "p1:step" ]; [ "p2:step" ] ];
      digest = 154670627;
    }

(* (leg, impl, n, (l, k), depth, crashes, dpor,
    runs, nodes, cycles_examined, fair_cycles, certificate).  The
    [live-explore] legs run as the CLI does (dpor on); the Figure 1
    n = 3 plane as [Figure1.consensus_exhaustive] does (dpor off, n - 1
    crashes). *)
let pinned_legs =
  [
    ("lp-reg-11-d14", `Reg, 2, (1, 1), 14, 1, true, 7670, 19217, 9256, 5438, None);
    ("lp-reg-12-d8", `Reg, 2, (1, 2), 8, 1, true, 35, 76, 25, 7, reg12_cert);
    ("lp-reg-12-d10", `Reg, 2, (1, 2), 10, 1, true, 108, 247, 89, 41, reg12_cert);
    ("lp-reg-12-d12", `Reg, 2, (1, 2), 12, 1, true, 303, 732, 285, 159, reg12_cert);
    ("lp-cas-22-d10", `Cas, 2, (2, 2), 10, 1, true, 1557, 3472, 101, 0, None);
    ("lp-cas-22-d12", `Cas, 2, (2, 2), 12, 1, true, 5127, 11456, 389, 0, None);
    ("fig1-n3-(1,1)", `Reg, 3, (1, 1), 8, 2, false, 43626, 64315, 11652, 2322, None);
  ]
  @ List.map
      (fun (l, k) ->
        ( Printf.sprintf "fig1-n3-(%d,%d)" l k,
          `Reg, 3, (l, k), 8, 2, false, 2797, 3939, 515, 53, n3_cert ))
      [ (1, 2); (1, 3); (2, 2); (2, 3); (3, 3) ]

(* Steps the always-replay walk executed; the new walk must do less. *)
let replay_all_steps = [ ("lp-reg-11-d14", 216528); ("fig1-n3-(1,1)", 384798) ]

let run_leg (impl, n, (l, k), depth, crashes, dpor) =
  let factory () =
    match impl with
    | `Reg -> Slx_consensus.Register_consensus.factory ()
    | `Cas -> Slx_consensus.Cas_consensus.factory ()
  in
  Live_explore.search ~n ~factory ~invoke ~good ~point:(Freedom.make ~l ~k)
    ~depth ~max_crashes:crashes ~dpor ()

let test_pinned_legs () =
  List.iter
    (fun (leg, impl, n, lk, depth, crashes, dpor, runs, nodes, cycles, fair,
          cert) ->
      let r = run_leg (impl, n, lk, depth, crashes, dpor) in
      let st = r.Live_explore.stats in
      check_int (leg ^ ": runs") runs st.Explore_stats.runs;
      check_int (leg ^ ": nodes") nodes st.Explore_stats.nodes;
      check_int (leg ^ ": cycles_examined") cycles
        st.Explore_stats.cycles_examined;
      check_int (leg ^ ": fair_cycles") fair st.Explore_stats.fair_cycles;
      check_bool (leg ^ ": outcome and certificate") true
        (cert_summary r.Live_explore.outcome = cert);
      match List.assoc_opt leg replay_all_steps with
      | None -> ()
      | Some before ->
          check_bool
            (Printf.sprintf "%s: fewer steps than always-replay (%d < %d)" leg
               st.Explore_stats.steps_executed before)
            true
            (st.Explore_stats.steps_executed < before))
    pinned_legs;
  let plane = Figure1.consensus_exhaustive ~n:3 ~depth:8 () in
  check_bool "n = 3 plane: (1,1) not excluded" true
    (Figure1.color_at plane ~l:1 ~k:1 = Some Figure1.Not_excluded);
  check_bool "n = 3 plane: (1,2) excluded" true
    (Figure1.color_at plane ~l:1 ~k:2 = Some Figure1.Excluded)

(* ------------------------------------------------------------------ *)
(* Lassos the default reduction misses.  The unreduced search finds    *)
(* and pump-validates these certificates, while the default            *)
(* cycle-proviso DPOR ([~dpor:true], proviso bound 2) answers          *)
(* No_fair_cycle on every one of them: the proviso does not keep every *)
(* fair periodic run in the reduced tree (ROADMAP item 5).  Pinned so  *)
(* the ground truth stays checked while the reduction is repaired.     *)

let test_unreduced_lassos () =
  let expect name r cert =
    check_bool (name ^ ": unreduced certificate") true
      (Option.map
         (fun c -> (c.stem, c.cycle))
         (cert_summary r.Live_explore.outcome)
      = Some cert)
  in
  let n2 = ([ "I1(0)"; "I2(1)"; "S1"; "S2" ], [ "S1"; "S2" ]) in
  let n2_d7 = ([ "I1(0)"; "S1"; "I2(1)"; "S1"; "S2" ], [ "S1"; "S2" ]) in
  List.iter
    (fun (depth, cert) ->
      List.iter
        (fun (l, k) ->
          List.iter
            (fun crashes ->
              expect
                (Printf.sprintf "register n=2 (%d,%d) d%d crashes %d" l k depth
                   crashes)
                (run_leg (`Reg, 2, (l, k), depth, crashes, false))
                cert)
            [ 0; 1 ])
        [ (1, 2); (2, 2) ])
    [ (6, n2); (7, n2_d7) ];
  let n3 = ([ "I1(0)"; "S1"; "I2(1)"; "C3"; "S1"; "S2" ], [ "S1"; "S2" ]) in
  List.iter
    (fun crashes ->
      List.iter
        (fun (l, k) ->
          expect
            (Printf.sprintf "register n=3 (%d,%d) d8 crashes %d" l k crashes)
            (run_leg (`Reg, 3, (l, k), 8, crashes, false))
            n3)
        [ (1, 2); (1, 3); (2, 2); (2, 3); (3, 3) ])
    [ 1; 2 ]

(* ------------------------------------------------------------------ *)
(* Cross-validation: exhaustive search vs adversary games.             *)

let test_exhaustive_grid_matches_games () =
  let exhaustive = Figure1.consensus_exhaustive ~n:2 ~depth:10 () in
  let games = Figure1.consensus ~n:2 ~max_steps:1200 () in
  List.iter
    (fun (point, color) ->
      let l = Freedom.l point and k = Freedom.k point in
      match Figure1.color_at games ~l ~k with
      | None -> Alcotest.failf "game grid misses (%d,%d)" l k
      | Some game_color ->
          check_bool
            (Printf.sprintf "grids agree at (%d,%d)" l k)
            true
            (color = game_color))
    exhaustive.Figure1.cells;
  (* And the shape is Theorem 5.2's: white exactly at (1,1). *)
  check_bool "white at (1,1)" true
    (Figure1.color_at exhaustive ~l:1 ~k:1 = Some Figure1.Not_excluded);
  check_bool "black at (1,2)" true
    (Figure1.color_at exhaustive ~l:1 ~k:2 = Some Figure1.Excluded);
  check_bool "black at (2,2)" true
    (Figure1.color_at exhaustive ~l:2 ~k:2 = Some Figure1.Excluded)

let test_certify_run_i12_local_progress () =
  (* The I12 leg of E20: the Section 4.1 adversary's sampled win is
     promoted to a pumpable lasso certificate by the same candidate
     detection the exhaustive search uses. *)
  let open Slx_tm in
  let r =
    Live_explore.certify_run ~n:2
      ~factory:(fun () -> I12.factory ~vars:1)
      ~driver:(Tm_adversary.local_progress_adversary ())
      ~good:Tm_type.good
      ~point:(Freedom.wait_freedom ~n:2)
      ~max_steps:400 ()
  in
  match r.Live_explore.outcome with
  | Live_explore.No_fair_cycle ->
      Alcotest.fail "local-progress adversary run should certify"
  | Live_explore.Lasso c ->
      check_bool "non-trivial period" true (List.length c.Lasso.c_cycle >= 2);
      check_bool "certificate re-pumps" true
        (match
           Lasso.pump ~factory:(I12.factory ~vars:1) ~repetitions:3 c
         with
        | Ok _ -> true
        | Error _ -> false)

(* ------------------------------------------------------------------ *)
(* JSON surfaces.                                                      *)

let contains hay needle =
  let lh = String.length hay and ln = String.length needle in
  let rec go i = i + ln <= lh && (String.sub hay i ln = needle || go (i + 1)) in
  go 0

let test_grid_json () =
  let j = Figure1.to_json (Figure1.consensus_exhaustive ~n:2 ~depth:8 ()) in
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "grid JSON contains %s" needle) true
        (contains j needle))
    [
      "\"n\": 2";
      "\"cells\": [";
      "{\"l\": 1, \"k\": 1, \"color\": \"not_excluded\"}";
      "{\"l\": 1, \"k\": 2, \"color\": \"excluded\"}";
    ]

let test_stats_json_has_cycle_counters () =
  let r = search_register ~depth:8 (Freedom.make ~l:1 ~k:2) in
  let j = Explore_stats.to_json r.Live_explore.stats in
  check_bool "cycles_examined serialized" true (contains j "\"cycles_examined\"");
  check_bool "fair_cycles serialized" true (contains j "\"fair_cycles\"");
  let m = Explore_stats.merge r.Live_explore.stats r.Live_explore.stats in
  check_int "merge sums cycle counters"
    (2 * r.Live_explore.stats.Explore_stats.cycles_examined)
    m.Explore_stats.cycles_examined

let suites =
  [
    ( "live-explore: fair-cycle search",
      [
        quick "register: (1,2) lasso at depth 8" test_register_lasso_for_1_2;
        quick "register: no (1,1) lasso under solo windows"
          test_register_no_lasso_for_1_1;
        quick "register: (2,2) lasso" test_register_lasso_for_2_2;
        quick "CAS: no lasso anywhere" test_cas_no_lasso_anywhere;
        quick "witness deterministic across configs"
          test_witness_deterministic_across_configs;
        quick "invoke-order reduction sound" test_invoke_order_reduction_sound;
        quick "clean tree independent of max_period"
          test_clean_tree_independent_of_max_period;
      ] );
    ( "live-explore: certificates",
      [
        quick "boundary digest repeats exactly" test_cert_digest_repeats_exactly;
        quick "pump rejects the wrong instance" test_pump_rejects_wrong_instance;
        quick "pump argument errors" test_pump_argument_errors;
        quick "leaf pump continuation matches a fresh pump"
          test_pump_continuation_matches_fresh_pump;
      ]
      @ qcheck [ prop_lasso_pumps ] );
    ( "live-explore: identity",
      [
        quick "benchmark legs pinned to the always-replay walk"
          test_pinned_legs;
        quick "unreduced search finds the lassos dpor misses"
          test_unreduced_lassos;
      ] );
    ( "live-explore: cross-validation (E20)",
      [
        quick "exhaustive grid matches adversary games"
          test_exhaustive_grid_matches_games;
        quick "I12 local-progress run certifies"
          test_certify_run_i12_local_progress;
        quick "grid JSON" test_grid_json;
        quick "stats JSON cycle counters" test_stats_json_has_cycle_counters;
      ] );
  ]
