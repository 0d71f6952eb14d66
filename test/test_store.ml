(* The persistent verdict store's suite (ISSUE: persistent fingerprint
   store + slx serve).

   Three layers, mirroring the subsystem:
   - the codec: round-trips, and every corruption mode the format
     promises to survive — truncated tails and flipped bytes drop
     frames (counted, never fatal), version/magic mismatches
     invalidate wholesale;
   - the policy ({!Slx_store.Persist}): cold runs record, exact
     re-queries warm-serve (witnesses replayed, lassos re-pumped),
     deeper queries resume from stored frontiers — and a corrupt or
     mismatched store degrades to cold with the identical verdict;
   - the differential contract, on the whole audit registry: with the
     store in any state (off, cold, warm, resumed) the verdict, the
     run count, and the lex-least witness are byte-identical. *)

open Slx_sim
open Slx_core
open Slx_liveness
open Support
module Store = Slx_store.Store
module Persist = Slx_store.Persist
module Audit = Slx_analysis.Audit
module Registry = Slx_analysis.Audit_registry

let temp_store () =
  let path = Filename.temp_file "slx_test" ".store" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

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
(* Codec: round-trip and corruption.                                   *)

let sample_records =
  [
    {
      Store.r_qid = 11;
      r_depth = 5;
      r_max_period = 0;
      r_pump_ticks = 0;
      r_runs = 42;
      r_steps = 420;
      r_verdict = Store.V_ok 42;
      r_frontier =
        Some
          {
            Store.f_base_runs = 40;
            f_base_digest = 123456789;
            f_seeds =
              [
                { Store.sd_script = [ 4; 8; 15 ]; sd_sleep = [ 3 ] };
                (* Empty payloads must survive the line codec. *)
                { Store.sd_script = [ 16 ]; sd_sleep = [] };
              ];
          };
    }
    ;
    {
      Store.r_qid = 11;
      r_depth = 7;
      r_max_period = 0;
      r_pump_ticks = 0;
      r_runs = 0;
      r_steps = 9;
      r_verdict = Store.V_counterexample [ 5; 9; 2 ];
      r_frontier = None;
    }
    ;
    {
      Store.r_qid = 22;
      r_depth = 6;
      r_max_period = 3;
      r_pump_ticks = 24;
      r_runs = 100;
      r_steps = 1000;
      r_verdict = Store.V_no_fair_cycle;
      r_frontier =
        Some
          {
            Store.f_base_runs = 0;
            f_base_digest = 0;
            f_seeds = [ { Store.sd_script = [ 5; 5 ]; sd_sleep = [ 258; 1 ] } ];
          };
    }
    ;
    {
      Store.r_qid = 33;
      r_depth = 8;
      r_max_period = 4;
      r_pump_ticks = 32;
      r_runs = 7;
      r_steps = 77;
      r_verdict = Store.V_lasso { stem = [ 5; 9 ]; cycle = [ 0; 4 ] };
      r_frontier = None;
    }
  ]

let populate path =
  let st = Store.open_ path in
  List.iter (Store.add st) sample_records;
  Store.bump st `Query;
  Store.bump st `Cold;
  Store.bump st `Query;
  Store.bump st (`Warm 420);
  Store.commit st;
  st

let test_round_trip () =
  let path = temp_store () in
  let _ = populate path in
  let st = Store.open_ path in
  let h = Store.health st in
  check_bool "reopen is clean" true
    (h.Store.h_invalidated = None && h.Store.h_records_dropped = 0);
  Alcotest.(check int) "all records survive" 4 (List.length (Store.records st));
  List.iter
    (fun r ->
      match Store.find st ~qid:r.Store.r_qid ~depth:r.Store.r_depth with
      | Some r' -> check_bool "record round-trips" true (r = r')
      | None -> Alcotest.failf "record (%d, %d) lost" r.Store.r_qid r.Store.r_depth)
    sample_records;
  let c = Store.counters st in
  check_bool "counters round-trip" true
    (c.Store.c_queries = 2 && c.Store.c_warm_hits = 1 && c.Store.c_colds = 1
   && c.Store.c_steps_saved = 420)

let file_bytes path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let b = Bytes.create n in
  really_input ic b 0 n;
  close_in ic;
  b

let write_bytes path b =
  let oc = open_out_bin path in
  output_bytes oc b;
  close_out oc

let test_truncated_tail () =
  let path = temp_store () in
  let _ = populate path in
  let b = file_bytes path in
  write_bytes path (Bytes.sub b 0 (Bytes.length b - 3));
  let st = Store.open_ path in
  let h = Store.health st in
  check_bool "not invalidated wholesale" true (h.Store.h_invalidated = None);
  check_bool "the torn tail frame is counted" true
    (h.Store.h_records_dropped >= 1);
  (* Counters are committed right after the header and records
     oldest-first after them, so a torn tail costs exactly the
     newest record: everything before it must survive. *)
  Alcotest.(check int) "earlier frames survive" 3
    (List.length (Store.records st));
  check_bool "counters frame is intact" true
    ((Store.counters st).Store.c_queries = 2)

let test_crc_flip () =
  let path = temp_store () in
  let _ = populate path in
  let b = file_bytes path in
  let off = Bytes.length b - 5 in
  Bytes.set b off (Char.chr (Char.code (Bytes.get b off) lxor 0x5a));
  write_bytes path b;
  let st = Store.open_ path in
  let h = Store.health st in
  check_bool "not invalidated wholesale" true (h.Store.h_invalidated = None);
  check_bool "the corrupt frame is dropped and counted" true
    (h.Store.h_records_dropped >= 1);
  check_bool "other frames survive" true (List.length (Store.records st) >= 3)

let test_bad_magic () =
  let path = temp_store () in
  let _ = populate path in
  let b = file_bytes path in
  Bytes.set b 0 'X';
  write_bytes path b;
  let st = Store.open_ path in
  check_bool "whole file invalidated" true
    ((Store.health st).Store.h_invalidated <> None);
  Alcotest.(check int) "read as empty" 0 (List.length (Store.records st))

let test_engine_mismatch () =
  let path = temp_store () in
  let _ = populate path in
  let st = Store.open_ ~engine_version:"slx-engine-bogus" path in
  check_bool "engine mismatch invalidates" true
    ((Store.health st).Store.h_invalidated <> None);
  Alcotest.(check int) "no stale verdicts cross an engine change" 0
    (List.length (Store.records st));
  (* The next commit under the new engine re-founds the file. *)
  Store.add st (List.hd sample_records);
  Store.commit st;
  let st' = Store.open_ ~engine_version:"slx-engine-bogus" path in
  check_bool "re-founded store is clean" true
    ((Store.health st').Store.h_invalidated = None
    && List.length (Store.records st') = 1)

let test_check_writable () =
  let path = temp_store () in
  Sys.remove path;
  check_bool "a fresh path in a writable directory is usable" true
    (Store.check_writable path = Ok ());
  check_bool "the probe leaves neither the store nor its temp file" false
    (Sys.file_exists path
    || Array.exists
         (fun f ->
           String.starts_with ~prefix:(Filename.basename path ^ ".tmp.") f)
         (Sys.readdir (Filename.dirname path)));
  let rejected p = Result.is_error (Store.check_writable p) in
  check_bool "a missing directory is rejected" true
    (rejected (Filename.concat path "s"));
  check_bool "a directory is rejected" true
    (rejected (Filename.dirname path))

let test_qid_binds_flags () =
  let base ?dpor ?symmetry ?invoke_order ?proviso_bound
      ?(registry_digest = 99) () =
    Persist.query_key ~ident:"cas" ~check:"consensus-safety" ~n:2
      ~registry_digest ?dpor ?symmetry ?invoke_order ?proviso_bound ()
  in
  let q0 = base () in
  List.iteri
    (fun i q ->
      check_bool (Printf.sprintf "flag variant %d lands on a fresh qid" i)
        false (q = q0))
    [
      base ~dpor:true ();
      base ~symmetry:true ();
      base ~invoke_order:true ();
      base ~proviso_bound:3 ();
      base ~registry_digest:100 ();
      Persist.query_key ~ident:"cas" ~check:"live:(1,1)-freedom" ~n:2
        ~registry_digest:99 ();
    ];
  check_bool "the digest is deterministic" true (q0 = base ());
  (* A mismatched qid is a store miss, not a wrong answer. *)
  let path = temp_store () in
  let st = Store.open_ path in
  Store.add st
    { (List.hd sample_records) with Store.r_qid = q0; r_depth = 5 };
  check_bool "exact qid hits" true (Store.find st ~qid:q0 ~depth:5 <> None);
  check_bool "flag-variant qid misses" true
    (Store.find st ~qid:(base ~dpor:true ()) ~depth:5 = None)

let test_supersede_and_resumable () =
  let path = temp_store () in
  let st = Store.open_ path in
  let mk depth verdict frontier =
    {
      Store.r_qid = 7;
      r_depth = depth;
      r_max_period = 0;
      r_pump_ticks = 0;
      r_runs = 1;
      r_steps = 1;
      r_verdict = verdict;
      r_frontier = frontier;
    }
  in
  let fr = Some { Store.f_base_runs = 1; f_base_digest = 2; f_seeds = [] } in
  Store.add st (mk 4 (Store.V_ok 1) fr);
  Store.add st (mk 5 (Store.V_counterexample [ 1 ]) fr);
  Store.add st (mk 6 (Store.V_ok 2) None);
  Store.add st (mk 4 (Store.V_ok 9) fr);
  Store.commit st;
  let st = Store.open_ path in
  (match Store.find st ~qid:7 ~depth:4 with
  | Some { Store.r_verdict = Store.V_ok 9; _ } -> ()
  | _ -> Alcotest.fail "later record must supersede the slot");
  (* depth 6 has no frontier, depth 5 is a counterexample: the deepest
     resumable base below depth 8 is the superseded-in-place depth 4. *)
  match Store.best_resumable st ~qid:7 ~depth:8 with
  | Some { Store.r_depth = 4; r_verdict = Store.V_ok 9; _ } -> ()
  | Some r -> Alcotest.failf "wrong resume base: depth %d" r.Store.r_depth
  | None -> Alcotest.fail "expected a resumable record"

(* ------------------------------------------------------------------ *)
(* Persist policy on the consensus engines.                            *)

let cas_factory () = Slx_consensus.Cas_consensus.factory ()
let selfish_factory () = Slx_consensus.Selfish_consensus.factory ()

let safety_invoke =
  Explore.workload_invoke
    (Driver.n_times 1 (fun p _ -> Slx_consensus.Consensus_type.Propose (p - 1)))

let live_invoke =
  Explore.workload_invoke
    (Driver.forever (fun p -> Slx_consensus.Consensus_type.Propose (p - 1)))

let consensus_check r =
  Slx_consensus.Consensus_safety.check r.Run_report.history

let pp_consensus_inv (Slx_consensus.Consensus_type.Propose v) =
  "propose " ^ string_of_int v

let safety_qid ~ident ~factory =
  Persist.query_key ~ident ~check:"consensus-safety" ~n:2
    ~registry_digest:(Persist.instance_digest ~n:2 ~factory)
    ~dpor:true ~symmetry:true ()

let run_safety ~store ~qid ~factory ~depth () =
  Persist.run_explore ~store ~qid ~n:2 ~factory ~invoke:safety_invoke ~depth
    ~dpor:true ~symmetry:true ~check:consensus_check ()

let test_persist_cold_warm_resume () =
  let path = temp_store () in
  let st = Store.open_ path in
  let qid = safety_qid ~ident:"cas" ~factory:cas_factory in
  let plain depth =
    Explore.explore ~n:2 ~factory:cas_factory ~invoke:safety_invoke ~depth
      ~dpor:true ~symmetry:true ~check:consensus_check ()
  in
  let runs_of e =
    match e.Explore.outcome with
    | Explore.Ok n -> n
    | Explore.Counterexample _ -> Alcotest.fail "cas must be safe"
  in
  let cold, src = run_safety ~store:st ~qid ~factory:cas_factory ~depth:6 () in
  check_bool "first query is cold" true (src = Persist.Cold);
  Alcotest.(check int) "cold = storeless" (runs_of (plain 6)) (runs_of cold);
  let warm, src = run_safety ~store:st ~qid ~factory:cas_factory ~depth:6 () in
  check_bool "identical re-query is warm" true (src = Persist.Warm);
  Alcotest.(check int) "warm restores the verdict" (runs_of cold)
    (runs_of warm);
  check_bool "warm does no engine work" true
    (warm.Explore.stats.Explore_stats.nodes = 0);
  let deep, src = run_safety ~store:st ~qid ~factory:cas_factory ~depth:8 () in
  check_bool "deeper query resumes" true (src = Persist.Resumed 6);
  Alcotest.(check int) "resumed = storeless" (runs_of (plain 8)) (runs_of deep);
  let c = Store.counters st in
  check_bool "counters tell the story" true
    (c.Store.c_queries = 3 && c.Store.c_warm_hits = 1 && c.Store.c_resumes = 1
   && c.Store.c_colds = 1)

let test_persist_witness_warm () =
  let path = temp_store () in
  let st = Store.open_ path in
  let qid = safety_qid ~ident:"selfish" ~factory:selfish_factory in
  let witness e =
    match e.Explore.witness_script with
    | Some ds -> show_script pp_consensus_inv ds
    | None -> Alcotest.fail "selfish must yield a counterexample"
  in
  let cold, src =
    run_safety ~store:st ~qid ~factory:selfish_factory ~depth:6 ()
  in
  check_bool "cold source" true (src = Persist.Cold);
  let warm, src =
    run_safety ~store:st ~qid ~factory:selfish_factory ~depth:6 ()
  in
  check_bool "witness served warm after replay validation" true
    (src = Persist.Warm);
  Alcotest.(check string) "identical lex-least witness" (witness cold)
    (witness warm)

let test_persist_corrupt_fallback () =
  let path = temp_store () in
  let st = Store.open_ path in
  let qid = safety_qid ~ident:"cas" ~factory:cas_factory in
  let first, _ = run_safety ~store:st ~qid ~factory:cas_factory ~depth:6 () in
  (* Trash the committed file wholesale; the re-opened store must read
     as empty and the query must fall back to a cold run with the
     byte-identical verdict. *)
  write_bytes path (Bytes.of_string "SLXSTOR1 this is not a store");
  let st = Store.open_ path in
  check_bool "corruption is surfaced, not fatal" true
    ((Store.health st).Store.h_invalidated <> None
    || (Store.health st).Store.h_records_dropped > 0);
  let again, src = run_safety ~store:st ~qid ~factory:cas_factory ~depth:6 () in
  check_bool "fallback is cold" true (src = Persist.Cold);
  check_bool "verdict identical" true
    (match (first.Explore.outcome, again.Explore.outcome) with
    | Explore.Ok a, Explore.Ok b -> a = b
    | _ -> false)

let test_previous_engine_answers_cold () =
  (* Engine 9 stores predate pooled instances: their register qids
     hashed an eagerly preallocated instance, so no current query can
     address them.  Such a store must be discarded whole and the query
     answered cold, never served warm. *)
  let previous = Printf.sprintf "slx-engine-9+ocaml-%s" Sys.ocaml_version in
  check_bool "the engine tag moved on" true (previous <> Store.engine_version);
  let path = temp_store () in
  let qid = safety_qid ~ident:"cas" ~factory:cas_factory in
  let old = Store.open_ ~engine_version:previous path in
  let _ = run_safety ~store:old ~qid ~factory:cas_factory ~depth:6 () in
  check_bool "the old engine wrote its record" true (Store.records old <> []);
  let st = Store.open_ path in
  check_bool "whole file invalidated" true
    ((Store.health st).Store.h_invalidated <> None);
  Alcotest.(check int) "no record survives" 0 (List.length (Store.records st));
  let _, src = run_safety ~store:st ~qid ~factory:cas_factory ~depth:6 () in
  check_bool "the query answers cold" true (src = Persist.Cold)

(* Liveness: cold/warm/resume with pinned pump budget, and lasso
   re-validation on the Theorem 5.2 register certificate. *)

let register_factory = Slx_consensus.Register_consensus.factory

let live_qid ~ident ~factory ~point =
  Persist.query_key ~ident
    ~check:("live:" ^ Format.asprintf "%a" Freedom.pp point)
    ~n:2
    ~registry_digest:(Persist.instance_digest ~n:2 ~factory)
    ~dpor:true ()

let test_persist_live_cold_warm_resume () =
  let path = temp_store () in
  let st = Store.open_ path in
  let point = Freedom.obstruction_freedom in
  let qid = live_qid ~ident:"selfish" ~factory:selfish_factory ~point in
  let good (_ : Slx_consensus.Consensus_type.response) = true in
  let run depth =
    Persist.run_live ~store:st ~qid ~n:2 ~factory:selfish_factory
      ~invoke:live_invoke ~good ~point ~depth ~pump_ticks:32 ~dpor:true ()
  in
  let plain depth =
    Live_explore.search ~n:2 ~factory:selfish_factory ~invoke:live_invoke
      ~good ~point ~depth ~pump_ticks:32 ~dpor:true ()
  in
  let outcome r =
    match r.Live_explore.outcome with
    | Live_explore.No_fair_cycle -> "no_fair_cycle"
    | Live_explore.Lasso _ -> "lasso"
  in
  let cold, src = run 6 in
  check_bool "live cold" true (src = Persist.Cold);
  Alcotest.(check string) "cold = storeless" (outcome (plain 6)) (outcome cold);
  let warm, src = run 6 in
  check_bool "live warm" true (src = Persist.Warm);
  Alcotest.(check string) "warm verdict identical" (outcome cold)
    (outcome warm);
  let deep, src = run 8 in
  check_bool "live resume (pinned pump)" true (src = Persist.Resumed 6);
  Alcotest.(check string) "resumed = storeless" (outcome (plain 8))
    (outcome deep);
  Alcotest.(check int) "resumed run count = storeless"
    (plain 8).Live_explore.stats.Explore_stats.runs
    deep.Live_explore.stats.Explore_stats.runs

let test_persist_live_small_max_period () =
  (* With a max period below the depth-derived default, a stored and
     resumed live search counts the same unreduced tree as a plain one:
     the CAS (2,2) leg's recorded 1557 runs at depth 10. *)
  let path = temp_store () in
  let st = Store.open_ path in
  let point = Freedom.make ~l:2 ~k:2 in
  let qid = live_qid ~ident:"cas" ~factory:cas_factory ~point in
  let good (_ : Slx_consensus.Consensus_type.response) = true in
  let run depth =
    Persist.run_live ~store:st ~qid ~n:2 ~factory:cas_factory
      ~invoke:live_invoke ~good ~point ~depth ~max_crashes:1 ~max_period:3
      ~pump_ticks:40 ~dpor:true ()
  in
  let plain ?max_period depth =
    Live_explore.search ~n:2 ~factory:cas_factory ~invoke:live_invoke ~good
      ~point ~depth ~max_crashes:1 ?max_period ~pump_ticks:40 ~dpor:true ()
  in
  let runs r = r.Live_explore.stats.Explore_stats.runs in
  let clean name r =
    check_bool (name ^ ": no fair cycle") true
      (r.Live_explore.outcome = Live_explore.No_fair_cycle)
  in
  let _, src = run 8 in
  check_bool "shallow leg is cold" true (src = Persist.Cold);
  let deep, src = run 10 in
  check_bool "deep leg resumes" true (src = Persist.Resumed 8);
  clean "resumed" deep;
  Alcotest.(check int) "resumed runs = storeless at max period 3"
    (runs (plain ~max_period:3 10))
    (runs deep);
  Alcotest.(check int) "resumed runs = storeless at the default period"
    (runs (plain 10)) (runs deep);
  Alcotest.(check int) "resumed runs = recorded" 1557 (runs deep);
  let warm, src = run 10 in
  check_bool "re-query is warm" true (src = Persist.Warm);
  clean "warm" warm

let test_persist_live_register_resume () =
  (* One qid serves every depth of the register (1,1) leg, so a deeper
     query resumes the stored frontier and counts the same tree as a
     plain search. *)
  let path = temp_store () in
  let st = Store.open_ path in
  let point = Freedom.obstruction_freedom in
  let qid = live_qid ~ident:"register" ~factory:register_factory ~point in
  let good (_ : Slx_consensus.Consensus_type.response) = true in
  let run depth =
    Persist.run_live ~store:st ~qid ~n:2 ~factory:register_factory
      ~invoke:live_invoke ~good ~point ~depth ~max_crashes:1 ~max_period:5
      ~pump_ticks:40 ~dpor:true ()
  in
  let runs r = r.Live_explore.stats.Explore_stats.runs in
  let _, src = run 8 in
  check_bool "depth 8 commits cold" true (src = Persist.Cold);
  let deep, src = run 10 in
  check_bool "depth 10 resumes" true (src = Persist.Resumed 8);
  check_bool "resumed: no fair cycle" true
    (deep.Live_explore.outcome = Live_explore.No_fair_cycle);
  Alcotest.(check int) "resumed runs = storeless"
    (runs
       (Live_explore.search ~n:2 ~factory:register_factory ~invoke:live_invoke
          ~good ~point ~depth:10 ~max_crashes:1 ~max_period:5 ~pump_ticks:40
          ~dpor:true ()))
    (runs deep)

let test_persist_lasso_warm () =
  let path = temp_store () in
  let st = Store.open_ path in
  let point = Freedom.make ~l:1 ~k:2 in
  let qid = live_qid ~ident:"register" ~factory:register_factory ~point in
  let good (_ : Slx_consensus.Consensus_type.response) = true in
  let run () =
    Persist.run_live ~store:st ~qid ~n:2 ~factory:register_factory
      ~invoke:live_invoke ~good ~point ~depth:8 ~dpor:true ()
  in
  let cert r =
    match r.Live_explore.outcome with
    | Live_explore.Lasso c -> c
    | Live_explore.No_fair_cycle ->
        Alcotest.fail "register (1,2) at depth 8 must yield a lasso"
  in
  let cold, src = run () in
  check_bool "lasso found cold" true (src = Persist.Cold);
  let warm, src = run () in
  check_bool "lasso re-validated and served warm" true (src = Persist.Warm);
  let b = cert cold and c = cert warm in
  Alcotest.(check string) "identical stem"
    (show_script pp_consensus_inv b.Lasso.c_stem)
    (show_script pp_consensus_inv c.Lasso.c_stem);
  Alcotest.(check string) "identical cycle"
    (show_script pp_consensus_inv b.Lasso.c_cycle)
    (show_script pp_consensus_inv c.Lasso.c_cycle)

(* ------------------------------------------------------------------ *)
(* Differential sweep: every registry case, store off/cold/warm/       *)
(* resumed — identical verdicts, runs, and lex-least witnesses.        *)

let diff_store_case (Audit.Case c) =
  let depth = min c.Audit.c_depth 5 in
  let max_crashes = min c.Audit.c_max_crashes 1 in
  let name = c.Audit.c_name in
  let plain ~depth ~check =
    Explore.explore ~n:c.Audit.c_n ~factory:c.Audit.c_factory
      ~invoke:c.Audit.c_invoke ~depth ~max_crashes ~dpor:true ~check ()
  in
  let stored ~store ~qid ~depth ~check =
    Persist.run_explore ~store ~qid ~n:c.Audit.c_n ~factory:c.Audit.c_factory
      ~invoke:c.Audit.c_invoke ~depth ~max_crashes ~dpor:true ~check ()
  in
  let qid_of ~check_name =
    Persist.query_key ~ident:name ~check:check_name ~n:c.Audit.c_n
      ~registry_digest:
        (Persist.instance_digest ~n:c.Audit.c_n ~factory:c.Audit.c_factory)
      ~max_crashes ~dpor:true ()
  in
  (* Passing leg: run-count identity across store states, including a
     resume from the frontier cut one level shallower. *)
  let st = Store.open_ (temp_store ()) in
  let qid = qid_of ~check_name:"diff-true" in
  let runs e =
    match e.Explore.outcome with
    | Explore.Ok n -> n
    | Explore.Counterexample _ ->
        Alcotest.failf "%s: always-true check failed" name
  in
  let base = runs (plain ~depth ~check:(fun _ -> true)) in
  let shallow, src =
    stored ~store:st ~qid ~depth:(depth - 1) ~check:(fun _ -> true)
  in
  check_bool (name ^ ": shallow leg is cold") true (src = Persist.Cold);
  ignore (runs shallow);
  let resumed, src = stored ~store:st ~qid ~depth ~check:(fun _ -> true) in
  check_bool
    (name ^ ": full-depth leg resumes the shallow frontier")
    true
    (src = Persist.Resumed (depth - 1));
  Alcotest.(check int) (name ^ ": resumed runs = storeless") base
    (runs resumed);
  let warm, src = stored ~store:st ~qid ~depth ~check:(fun _ -> true) in
  check_bool (name ^ ": re-query is warm") true (src = Persist.Warm);
  Alcotest.(check int) (name ^ ": warm runs = storeless") base (runs warm);
  (* Failing leg: lex-least witness identity cold vs warm (the warm
     hit replays the stored script through the real engine). *)
  let qidx = qid_of ~check_name:"diff-false" in
  let witness e =
    match e.Explore.witness_script with
    | Some ds -> show_script c.Audit.c_pp_inv ds
    | None -> Alcotest.failf "%s: always-false check found no witness" name
  in
  let basex = witness (plain ~depth ~check:(fun _ -> false)) in
  let coldx, src =
    stored ~store:st ~qid:qidx ~depth ~check:(fun _ -> false)
  in
  check_bool (name ^ ": failing leg is cold") true (src = Persist.Cold);
  Alcotest.(check string) (name ^ ": cold witness = storeless") basex
    (witness coldx);
  let warmx, src =
    stored ~store:st ~qid:qidx ~depth ~check:(fun _ -> false)
  in
  check_bool (name ^ ": failing leg warm-serves") true (src = Persist.Warm);
  Alcotest.(check string) (name ^ ": warm witness = storeless") basex
    (witness warmx)

let test_store_differential () = List.iter diff_store_case (Registry.all ())

let diff_store_live_case (Audit.Case c) =
  let depth = min c.Audit.c_depth 5 in
  let name = c.Audit.c_name in
  let pump_ticks = 4 * depth in
  let point = Freedom.make ~l:1 ~k:1 in
  let good _ = false in
  let qid =
    Persist.query_key ~ident:name ~check:"live:diff" ~n:c.Audit.c_n
      ~registry_digest:
        (Persist.instance_digest ~n:c.Audit.c_n ~factory:c.Audit.c_factory)
      ~dpor:true ()
  in
  let plain ~depth =
    Live_explore.search ~n:c.Audit.c_n ~factory:c.Audit.c_factory
      ~invoke:c.Audit.c_invoke ~good ~point ~depth ~pump_ticks ~dpor:true ()
  in
  let stored ~store ~depth =
    Persist.run_live ~store ~qid ~n:c.Audit.c_n ~factory:c.Audit.c_factory
      ~invoke:c.Audit.c_invoke ~good ~point ~depth ~pump_ticks ~dpor:true ()
  in
  (* Verdict fingerprint only: a warm hit synthesizes zero-work stats,
     so run counts are compared separately on the legs that really
     explore. *)
  let fingerprint r =
    match r.Live_explore.outcome with
    | Live_explore.No_fair_cycle -> "no_fair_cycle"
    | Live_explore.Lasso l ->
        show_script c.Audit.c_pp_inv l.Lasso.c_stem
        ^ "~" ^ show_script c.Audit.c_pp_inv l.Lasso.c_cycle
  in
  let st = Store.open_ (temp_store ()) in
  let base = fingerprint (plain ~depth) in
  let shallow, src = stored ~store:st ~depth:(depth - 1) in
  check_bool (name ^ ": live shallow leg is cold") true (src = Persist.Cold);
  ignore shallow;
  let resumed, src = stored ~store:st ~depth in
  check_bool (name ^ ": live leg resumes or recomputes soundly") true
    (match src with
    | Persist.Resumed d -> d = depth - 1
    | Persist.Cold -> true (* shallow verdict was a lasso: not resumable *)
    | _ -> false);
  Alcotest.(check string) (name ^ ": live resumed = storeless") base
    (fingerprint resumed);
  Alcotest.(check int) (name ^ ": live resumed runs = storeless")
    (plain ~depth).Live_explore.stats.Explore_stats.runs
    resumed.Live_explore.stats.Explore_stats.runs;
  let warm, src = stored ~store:st ~depth in
  check_bool (name ^ ": live re-query is warm") true (src = Persist.Warm);
  Alcotest.(check string) (name ^ ": live warm = storeless") base
    (fingerprint warm)

let test_store_live_differential () =
  List.iter diff_store_live_case (Registry.all ())

(* ------------------------------------------------------------------ *)

let suites =
  [
    ( "store.codec",
      [
        Alcotest.test_case "round-trip" `Quick test_round_trip;
        Alcotest.test_case "truncated tail" `Quick test_truncated_tail;
        Alcotest.test_case "flipped byte" `Quick test_crc_flip;
        Alcotest.test_case "bad magic" `Quick test_bad_magic;
        Alcotest.test_case "engine version mismatch" `Quick
          test_engine_mismatch;
        Alcotest.test_case "check_writable probes the commit path" `Quick
          test_check_writable;
        Alcotest.test_case "qid binds flags and registry" `Quick
          test_qid_binds_flags;
        Alcotest.test_case "supersede and best_resumable" `Quick
          test_supersede_and_resumable;
      ] );
    ( "store.persist",
      [
        Alcotest.test_case "cold, warm, resume" `Quick
          test_persist_cold_warm_resume;
        Alcotest.test_case "witness warm-served after replay" `Quick
          test_persist_witness_warm;
        Alcotest.test_case "corrupt store falls back cold" `Quick
          test_persist_corrupt_fallback;
        Alcotest.test_case "previous engine version answers cold" `Quick
          test_previous_engine_answers_cold;
        Alcotest.test_case "live cold, warm, resume" `Quick
          test_persist_live_cold_warm_resume;
        Alcotest.test_case "live resume at a small max period" `Quick
          test_persist_live_small_max_period;
        Alcotest.test_case "live register resume across depths" `Quick
          test_persist_live_register_resume;
        Alcotest.test_case "lasso re-validated warm" `Quick
          test_persist_lasso_warm;
      ] );
    ( "store.differential",
      [
        Alcotest.test_case "registry sweep, safety legs" `Slow
          test_store_differential;
        Alcotest.test_case "registry sweep, liveness legs" `Slow
          test_store_live_differential;
      ] );
  ]
