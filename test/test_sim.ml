open Slx_history
open Slx_sim
open Slx_base_objects
open Support

(* A trivial shared counter object: each operation is one atomic
   fetch-and-add. *)
type cinv = Incr
type cres = Got of int

let counter_factory () : (cinv, cres) Runner.factory =
 fun ~n:_ ->
  let c = Fetch_and_add.make 0 in
  fun ~proc:_ Incr -> Got (Fetch_and_add.fetch_and_add c 1)

(* An object whose operation takes [k] register writes. *)
let slow_factory k : (cinv, cres) Runner.factory =
 fun ~n:_ ->
  let r = Register.make 0 in
  fun ~proc:_ Incr ->
    for i = 1 to k do
      Register.write r i
    done;
    Got k

(* An operation that never finishes. *)
let spinner_factory () : (cinv, cres) Runner.factory =
 fun ~n:_ ->
  let r = Register.make 0 in
  fun ~proc:_ Incr ->
    let rec spin () =
      let _ = Register.read r in
      spin ()
    in
    spin ()

let workload : (cinv, cres) Driver.workload = Driver.forever (fun _ -> Incr)

let run_counter ~n ~max_steps driver =
  Runner.run ~n ~factory:(counter_factory ()) ~driver ~max_steps ()

let test_round_robin_completes_ops () =
  let r = run_counter ~n:2 ~max_steps:20 (Driver.round_robin ~workload ()) in
  let responses p = List.length (History.responses_of r.Run_report.history p) in
  (* 20 ticks, alternating invoke/step pairs: each op costs one Invoke
     tick plus one Schedule tick; both processes complete ops. *)
  check_bool "p1 got responses" true (responses 1 > 0);
  check_bool "p2 got responses" true (responses 2 > 0);
  check_bool "history well-formed" true
    (History.is_well_formed r.Run_report.history)

let test_counter_values_unique () =
  let r = run_counter ~n:3 ~max_steps:60 (Driver.round_robin ~workload ()) in
  let values =
    List.concat_map
      (fun p ->
        List.map (fun (Got v) -> v) (History.responses_of r.Run_report.history p))
      (Proc.all ~n:3)
  in
  let sorted = List.sort_uniq Int.compare values in
  check_int "all fetch-and-add results distinct" (List.length values)
    (List.length sorted)

let test_atomic_step_counting () =
  (* One op of slow_factory 5 = 5 atomic steps.  Solo driver: tick 0
     invokes, ticks 1-5 grant. *)
  let r =
    Runner.run ~n:1 ~factory:(slow_factory 5)
      ~driver:(Driver.solo 1 ~workload:(Driver.n_times 1 (fun _ _ -> Incr)))
      ~max_steps:100 ()
  in
  check_int "five grants" 5 (Run_report.steps_total r 1);
  check_int "one invocation + one response" 2
    (History.length r.Run_report.history);
  check_bool "stopped quiescent" true (r.Run_report.stopped = `Quiescent)

let test_zero_step_operation () =
  (* An operation making no atomic step completes at invocation time. *)
  let factory : (cinv, cres) Runner.factory =
   fun ~n:_ ~proc:_ Incr -> Got 42
  in
  let r =
    Runner.run ~n:1 ~factory
      ~driver:(Driver.solo 1 ~workload:(Driver.n_times 1 (fun _ _ -> Incr)))
      ~max_steps:10 ()
  in
  check_int "no grants" 0 (Run_report.steps_total r 1);
  check_bool "response recorded" true
    (History.responses_of r.Run_report.history 1 = [ Got 42 ])

let test_spinner_never_responds () =
  let r =
    Runner.run ~n:1 ~factory:(spinner_factory ())
      ~driver:(Driver.solo 1 ~workload)
      ~max_steps:50 ()
  in
  check_bool "no response" true
    (History.responses_of r.Run_report.history 1 = []);
  check_bool "budget exhausted" true (r.Run_report.stopped = `Max_steps);
  check_int "49 grants after 1 invoke tick" 49 (Run_report.steps_total r 1)

let test_crash_stops_process () =
  let driver =
    Driver.with_crashes [ (6, 1) ] (Driver.round_robin ~workload ())
  in
  let r =
    Runner.run ~n:2 ~factory:(spinner_factory ()) ~driver ~max_steps:40 ()
  in
  check_bool "p1 crashed" true (Proc.Set.mem 1 r.Run_report.crashed);
  check_bool "crash recorded in history" true
    (Proc.Set.mem 1 (History.crashed r.Run_report.history));
  let grants_after_crash =
    List.filter (fun (t, p) -> p = 1 && t > 6) r.Run_report.grants
  in
  check_int "no grants to p1 after crash" 0 (List.length grants_after_crash)

let test_window_accounting () =
  let r = run_counter ~n:2 ~max_steps:40 (Driver.round_robin ~workload ()) in
  check_int "default window is half" 20 r.Run_report.window;
  check_int "window start" 20 (Run_report.window_start r);
  check_bool "both active in window" true
    (Proc.Set.equal (Run_report.summary r).active (Proc.Set.of_list [ 1; 2 ]));
  check_bool "progress in window" true
    (Run_report.summary_progress ~good:(fun _ -> true) (Run_report.summary r) 1)

let test_solo_driver_restricts () =
  let r = run_counter ~n:3 ~max_steps:30 (Driver.solo 2 ~workload) in
  check_int "p1 took no steps" 0 (Run_report.steps_total r 1);
  check_int "p3 took no steps" 0 (Run_report.steps_total r 3);
  check_bool "p2 made progress" true
    (History.responses_of r.Run_report.history 2 <> [])

let test_random_driver_reproducible () =
  let run seed =
    (run_counter ~n:3 ~max_steps:50
       (Driver.random ~seed ~workload ()))
      .Run_report.history
  in
  check_bool "same seed, same history" true
    (History.equal ~inv:( = ) ~res:( = ) (run 7) (run 7));
  (* Different seeds almost surely differ on 50 ticks. *)
  check_bool "different seed, different history" false
    (History.equal ~inv:( = ) ~res:( = ) (run 7) (run 8))

let test_script_driver () =
  let script =
    [
      Driver.Invoke (1, Incr);
      Driver.Schedule 1;
      Driver.Invoke (2, Incr);
      Driver.Schedule 2;
    ]
  in
  let r =
    Runner.run ~n:2 ~factory:(counter_factory ())
      ~driver:(Driver.of_script script) ~max_steps:100 ()
  in
  check_int "script consumed" 4 r.Run_report.total_time;
  check_int "two responses" 2
    (History.count Slx_history.Event.is_response r.Run_report.history)

let test_invalid_schedule_rejected () =
  let driver = Driver.of_script [ Driver.Schedule 1 ] in
  Alcotest.check_raises "scheduling an idle process raises"
    (Invalid_argument "Runtime.grant: process not ready") (fun () ->
      ignore
        (Runner.run ~n:1 ~factory:(counter_factory ()) ~driver ~max_steps:5 ()))

let test_stop_after () =
  let driver = Driver.stop_after 10 (Driver.round_robin ~workload ()) in
  let r = run_counter ~n:2 ~max_steps:100 driver in
  check_int "stopped at 10" 10 r.Run_report.total_time

let test_n_times_workload () =
  let workload = Driver.n_times 3 (fun _ _ -> Incr) in
  let r = run_counter ~n:1 ~max_steps:100 (Driver.round_robin ~workload ()) in
  check_int "exactly three invocations" 3
    (History.count Slx_history.Event.is_invocation r.Run_report.history);
  check_bool "quiescent at end" true (r.Run_report.stopped = `Quiescent)

(* Base objects semantics, via solo deterministic runs. *)

let run_solo_algorithm algorithm =
  (* Run [algorithm] as a single operation of a 1-process system and
     return its response. *)
  let factory : (cinv, cres) Runner.factory =
   fun ~n:_ ~proc:_ Incr -> Got (algorithm ())
  in
  let r =
    Runner.run ~n:1 ~factory
      ~driver:(Driver.solo 1 ~workload:(Driver.n_times 1 (fun _ _ -> Incr)))
      ~max_steps:10_000 ()
  in
  match History.responses_of r.Run_report.history 1 with
  | [ Got v ] -> v
  | _ -> Alcotest.fail "algorithm did not complete"

let test_register_semantics () =
  let v =
    run_solo_algorithm (fun () ->
        let r = Register.make 10 in
        Register.write r 42;
        Register.read r)
  in
  check_int "register read-after-write" 42 v

let test_cas_semantics () =
  let v =
    run_solo_algorithm (fun () ->
        let c = Cas.make 0 in
        let ok1 = Cas.compare_and_swap c ~expected:0 ~desired:5 in
        let ok2 = Cas.compare_and_swap c ~expected:0 ~desired:9 in
        let final = Cas.read c in
        if ok1 && not ok2 then final else -1)
  in
  check_int "cas succeeds once" 5 v

let test_tas_semantics () =
  let v =
    run_solo_algorithm (fun () ->
        let t = Test_and_set.make () in
        let first = Test_and_set.test_and_set t in
        let second = Test_and_set.test_and_set t in
        if first && not second && Test_and_set.read t then 1 else 0)
  in
  check_int "test-and-set wins once" 1 v

let test_faa_semantics () =
  let v =
    run_solo_algorithm (fun () ->
        let c = Fetch_and_add.make 100 in
        let old = Fetch_and_add.fetch_and_add c 5 in
        old + Fetch_and_add.read c)
  in
  check_int "fetch-and-add old + new" 205 v

let test_snapshot_semantics () =
  let v =
    run_solo_algorithm (fun () ->
        let s = Snapshot.make ~n:3 0 in
        Snapshot.update s 1 10;
        Snapshot.update s 3 30;
        let a = Snapshot.scan s in
        a.(0) + a.(1) + a.(2))
  in
  check_int "snapshot scan" 40 v


(* Runtime cell edge cases. *)

let test_runtime_cell_lifecycle () =
  let open Slx_sim.Runtime in
  let cell = make_cell () in
  check_bool "fresh cell is idle" true (status cell = Idle);
  Alcotest.check_raises "grant on idle raises"
    (Invalid_argument "Runtime.grant: process not ready") (fun () ->
      grant cell);
  (* Spawn a computation with two atomic steps. *)
  let trace = ref [] in
  spawn cell (fun () ->
      trace := 1 :: !trace;
      Slx_sim.Runtime.atomic (fun () -> trace := 2 :: !trace);
      Slx_sim.Runtime.atomic (fun () -> trace := 3 :: !trace);
      trace := 4 :: !trace);
  check_bool "suspended at first atomic" true (status cell = Ready);
  check_bool "ran up to the first atomic" true (!trace = [ 1 ]);
  Alcotest.check_raises "spawn on ready raises"
    (Invalid_argument "Runtime.spawn: process not idle") (fun () ->
      spawn cell (fun () -> ()));
  grant cell;
  check_bool "first atomic executed" true (!trace = [ 2; 1 ]);
  grant cell;
  check_bool "computation finished" true (!trace = [ 4; 3; 2; 1 ]);
  check_bool "idle after completion" true (status cell = Idle)

let test_runtime_crash_unwinds () =
  let open Slx_sim.Runtime in
  let cell = make_cell () in
  let cleaned = ref false in
  spawn cell (fun () ->
      Fun.protect
        ~finally:(fun () -> cleaned := true)
        (fun () ->
          Slx_sim.Runtime.atomic (fun () -> ());
          Slx_sim.Runtime.atomic (fun () -> ())));
  crash cell;
  check_bool "crashed" true (status cell = Crashed);
  check_bool "stack unwound (finally ran)" true !cleaned;
  (* Idempotent. *)
  crash cell;
  check_bool "still crashed" true (status cell = Crashed)

let test_runtime_crash_idle () =
  let open Slx_sim.Runtime in
  let cell = make_cell () in
  crash cell;
  check_bool "idle cell crashes directly" true (status cell = Crashed);
  Alcotest.check_raises "spawn on crashed raises"
    (Invalid_argument "Runtime.spawn: process not idle") (fun () ->
      spawn cell (fun () -> ()))

let test_atomic_outside_runner () =
  check_bool "atomic outside a fiber is unhandled" true
    (match Slx_sim.Runtime.atomic (fun () -> 1) with
    | _ -> false
    | exception Effect.Unhandled _ -> true)

(* ------------------------------------------------------------------ *)
(* Object pools: schedule-independent ids, initial cells digest as     *)
(* nothing.                                                            *)

type pinv = Put of int * int  (* cell, value *)
type pres = Id of int  (* the cell's footprint id *)

(* Each operation writes one cell of a register pool and answers the
   cell's footprint id. *)
let pool_factory () : (pinv, pres) Runner.factory =
 fun ~n:_ ->
  let pl = Register.pool 0 in
  fun ~proc:_ (Put (i, v)) ->
    let id, _ = Runtime.pool_cell pl i in
    Register.write (Register.cell pl i) v;
    Id id

let responses c =
  List.filter_map
    (fun e ->
      match Event.response e with
      | Some (Id id) -> Some (Event.proc e, id)
      | None -> None)
    (History.to_list (Runner.Cursor.view c).Driver.history)
  |> List.sort compare

let test_pool_ids_schedule_independent () =
  (* P1 writes cell 12, P2 cell 2; the two schedules materialise them in
     opposite orders and grant the writes in opposite orders. *)
  let play decisions =
    let c = Runner.Cursor.create ~n:2 ~factory:(pool_factory ()) () in
    List.iter (Runner.Cursor.apply c) decisions;
    c
  in
  let p1 = Driver.Invoke (1, Put (12, 1)) and p2 = Driver.Invoke (2, Put (2, 2)) in
  let a = play [ p1; p2; Driver.Schedule 1; Driver.Schedule 2 ]
  and b = play [ p2; p1; Driver.Schedule 2; Driver.Schedule 1 ] in
  let ids = responses a in
  check_int "both operations answered" 2 (List.length ids);
  check_bool "identical cell ids" true (ids = responses b);
  check_bool "distinct cells have distinct ids" true
    (match ids with [ (_, x); (_, y) ] -> x <> y | _ -> false);
  check_int "identical digests for equal states"
    (Runner.Cursor.shared_digest a) (Runner.Cursor.shared_digest b);
  let other = play [ p1; Driver.Schedule 1 ] in
  check_bool "a different state digests differently" true
    (Runner.Cursor.shared_digest other <> Runner.Cursor.shared_digest a)

let test_pool_initial_cells_digest_as_nothing () =
  let digest f =
    let reg = Runtime.fresh_registry () in
    Runtime.with_registry reg (fun () ->
        let pl = Runtime.make_pool None in
        let _decision = Register.make None in
        f pl);
    Runtime.registry_digest reg
  in
  let untouched = digest (fun _ -> ()) in
  check_int "a materialised cell at its initial value adds nothing" untouched
    (digest (fun pl -> ignore (Runtime.pool_cell pl 7)));
  check_int "a cell written back to its initial value adds nothing" untouched
    (digest (fun pl ->
         let _, st = Runtime.pool_cell pl 3 in
         st := Some 1;
         st := None));
  check_bool "a cell away from its initial value counts" true
    (digest (fun pl -> snd (Runtime.pool_cell pl 3) := Some 1) <> untouched)

let test_pool_reserved_and_sparse_cells () =
  let reg = Runtime.fresh_registry () in
  Runtime.with_registry reg (fun () ->
      let pl = Runtime.make_pool 0 in
      let id i = fst (Runtime.pool_cell pl i) in
      let ids = List.map id [ 0; 7; 8; 1_000_000 ] in
      let next = Runtime.register_object (fun () -> 0) in
      check_bool "the first cells take the ids reserved after the pool's"
        true (ids = [ 2; 9; (1 lsl 32) + 8; (1 lsl 32) + 1_000_000 ] && next = 10);
      check_int "only the used cells are stored" 4 (Runtime.pool_size pl))

(* ------------------------------------------------------------------ *)
(* The O(1) per-process view fields agree with a history rescan.       *)

(* [audited d] behaves like [d] but first checks, at every tick, that
   the view's [events] and [invocations] agree with the history; the
   returned flag turns false at the first disagreement. *)
let audited d =
  let ok = ref true in
  let driver view =
    let h = view.Driver.history in
    List.iter
      (fun p ->
        if
          view.Driver.events p <> events_of_history h p
          || view.Driver.invocations p <> invocations_of_history h p
        then ok := false)
      (Proc.all ~n:view.Driver.n);
    d view
  in
  (driver, ok)

let view_consistent ~n ~factory ~max_steps d =
  let driver, ok = audited d in
  let r = Runner.run ~n ~factory ~driver ~max_steps () in
  !ok && History.length r.Run_report.history > 0

let prop_view_fields_consistent =
  QCheck2.Test.make ~name:"view events/invocations match the history"
    ~count:20
    QCheck2.Gen.(pair (int_range 0 10_000) (int_range 2 3))
    (fun (seed, n) ->
      let propose =
        Driver.forever (fun p -> Slx_consensus.Consensus_type.Propose (p - 1))
      in
      let consensus = Slx_consensus.Register_consensus.factory () in
      view_consistent ~n ~factory:consensus ~max_steps:300
        (Driver.random ~seed ~workload:propose ())
      && view_consistent ~n ~factory:consensus ~max_steps:300
           (Chaos.driver ~seed ~crash_probability:0.02 ~workload:propose ())
      && view_consistent ~n ~factory:(Slx_tm.Agp_tm.factory ~vars:1)
           ~max_steps:300
           (Slx_tm.Tm_workload.random ~seed ())
      && view_consistent ~n ~factory:(Slx_objects.Bakery.factory ())
           ~max_steps:300
           (Slx_objects.Mutex.random_workload ~seed ()))

let suites =
  [
    ( "sim",
      [
        quick "round robin completes ops" test_round_robin_completes_ops;
        quick "counter values unique" test_counter_values_unique;
        quick "atomic step counting" test_atomic_step_counting;
        quick "zero-step operation" test_zero_step_operation;
        quick "spinner never responds" test_spinner_never_responds;
        quick "crash stops process" test_crash_stops_process;
        quick "window accounting" test_window_accounting;
        quick "solo driver restricts" test_solo_driver_restricts;
        quick "random driver reproducible" test_random_driver_reproducible;
        quick "script driver" test_script_driver;
        quick "invalid schedule rejected" test_invalid_schedule_rejected;
        quick "stop_after" test_stop_after;
        quick "n_times workload" test_n_times_workload;
        quick "runtime cell lifecycle" test_runtime_cell_lifecycle;
        quick "runtime crash unwinds" test_runtime_crash_unwinds;
        quick "runtime crash idle" test_runtime_crash_idle;
        quick "atomic outside runner" test_atomic_outside_runner;
      ]
      @ qcheck [ prop_view_fields_consistent ] );
    ( "base-objects",
      [
        quick "register" test_register_semantics;
        quick "cas" test_cas_semantics;
        quick "test-and-set" test_tas_semantics;
        quick "fetch-and-add" test_faa_semantics;
        quick "snapshot" test_snapshot_semantics;
      ] );
    ( "pool",
      [
        quick "ids and digests independent of first-touch order"
          test_pool_ids_schedule_independent;
        quick "initial cells digest as nothing, materialised or not"
          test_pool_initial_cells_digest_as_nothing;
        quick "reserved ids for the first cells, sparse storage"
          test_pool_reserved_and_sparse_cells;
      ] );
  ]
