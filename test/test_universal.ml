(* The universal construction: any deterministic object, linearizable
   by construction, with liveness inherited from the consensus
   building block. *)

open Slx_history
open Slx_sim
open Slx_liveness
open Slx_objects
open Support

module Reg_lin = Slx_safety.Linearizability.Make (Register_type)
module Stack_lin = Slx_safety.Linearizability.Make (Stack_type.Self)

let register_tp : _ Object_type.t = (module Register_type)
let stack_tp : _ Object_type.t = (module Stack_type.Self)

let register_workload : (Register_type.invocation, Register_type.response) Driver.workload =
  Driver.n_times 4 (fun p k ->
      if (p + k) mod 2 = 0 then Register_type.Read
      else Register_type.Write ((10 * p) + k))

let stack_workload : (Stack_type.invocation, Stack_type.response) Driver.workload =
  Driver.n_times 4 (fun p k ->
      if k mod 2 = 0 then Stack_type.Push ((100 * p) + k) else Stack_type.Pop)

let run_universal ~tp ~consensus ~workload ~seed ~n ~max_steps =
  Runner.run ~n
    ~factory:(Universal.factory ~tp ~consensus ())
    ~driver:(Driver.random ~seed ~workload ())
    ~max_steps ()

let test_universal_register_cas () =
  List.iter
    (fun seed ->
      let r =
        run_universal ~tp:register_tp ~consensus:`Cas
          ~workload:register_workload ~seed ~n:3 ~max_steps:400
      in
      check_bool
        (Printf.sprintf "linearizable (seed %d)" seed)
        true
        (Reg_lin.check r.Run_report.history);
      check_bool "all operations complete (lock-free log)" true
        (History.pending_procs r.Run_report.history = Proc.Set.empty))
    [ 1; 2; 3; 4 ]

let test_universal_stack_cas () =
  List.iter
    (fun seed ->
      let r =
        run_universal ~tp:stack_tp ~consensus:`Cas ~workload:stack_workload
          ~seed ~n:2 ~max_steps:400
      in
      check_bool
        (Printf.sprintf "stack linearizable (seed %d)" seed)
        true
        (Stack_lin.check r.Run_report.history))
    [ 5; 6; 7 ]

let test_universal_register_from_registers_solo () =
  (* Obstruction-freedom of the register-consensus log: a solo process
     completes operations. *)
  let r =
    Runner.run ~n:2
      ~factory:(Universal.factory ~tp:register_tp ~consensus:`Registers ())
      ~driver:
        (Driver.with_crashes [ (0, 2) ]
           (Driver.solo 1 ~workload:register_workload))
      ~max_steps:600 ()
  in
  check_int "solo process completes its four ops" 4
    (List.length (History.responses_of r.Run_report.history 1));
  check_bool "linearizable" true (Reg_lin.check r.Run_report.history);
  check_bool "(1,1)-freedom" true
    (Freedom.holds
       ~good:(fun (_ : Register_type.response) -> true)
       r Freedom.obstruction_freedom)

let test_universal_from_registers_lockstep_starves () =
  (* The consensus impossibility lifts to EVERY universal object from
     registers: a lockstep schedule ties the first log slot's
     commit-adopt cascade forever, so neither process ever completes
     an operation - yet linearizability is never violated. *)
  let lockstep : (Register_type.invocation, Register_type.response) Driver.t =
   fun view ->
    let next = if view.Driver.steps 1 <= view.Driver.steps 2 then 1 else 2 in
    match view.Driver.status next with
    | Runtime.Ready -> Driver.Schedule next
    | Runtime.Idle ->
        Driver.Invoke
          (next, if next = 1 then Register_type.Write 1 else Register_type.Write 2)
    | Runtime.Crashed -> Driver.Stop
  in
  let r =
    Runner.run ~n:2
      ~factory:(Universal.factory ~tp:register_tp ~consensus:`Registers ())
      ~driver:lockstep ~max_steps:2000 ()
  in
  check_bool "no operation ever completes" true
    (History.count Event.is_response r.Run_report.history = 0);
  check_bool "fair" true (Fairness.is_bounded_fair r);
  check_bool "linearizable (vacuously safe)" true
    (Reg_lin.check r.Run_report.history);
  check_bool "(1,2)-freedom violated for the universal register" false
    (Freedom.holds
       ~good:(fun (_ : Register_type.response) -> true)
       r (Freedom.make ~l:1 ~k:2))

let test_universal_agreement_across_processes () =
  (* All processes replay the same log: cross-process reads see a
     single coherent register. *)
  let r =
    run_universal ~tp:register_tp ~consensus:`Cas ~workload:register_workload
      ~seed:11 ~n:4 ~max_steps:600
  in
  check_bool "well-formed" true (History.is_well_formed r.Run_report.history);
  check_bool "linearizable with four processes" true
    (Reg_lin.check r.Run_report.history)

let prop_universal_linearizable =
  QCheck2.Test.make ~name:"universal objects are linearizable" ~count:10
    QCheck2.Gen.(int_range 0 1000)
    (fun seed ->
      let r =
        run_universal ~tp:stack_tp ~consensus:`Cas ~workload:stack_workload
          ~seed ~n:2 ~max_steps:300
      in
      Stack_lin.check r.Run_report.history)

let test_oneshot_deep_slot_cells () =
  (* Slot 40's round 0 sits at Cantor index 820; a solo proposal there
     materialises only n phase-1, n phase-2 and one decision register. *)
  let made = ref None in
  let factory ~n =
    let t = One_shot_consensus.Registers.make ~n () in
    made := Some t;
    fun ~proc v -> One_shot_consensus.Registers.propose t ~slot:40 ~proc v
  in
  let r =
    Runner.run ~n:2 ~factory
      ~driver:(Driver.solo 1 ~workload:(Driver.n_times 1 (fun _ _ -> 7)))
      ~max_steps:100 ()
  in
  check_bool "decided its value" true
    (List.exists (fun e -> Event.response e = Some 7)
       (History.to_list r.Run_report.history));
  check_int "registers materialised" 5
    (One_shot_consensus.Registers.cells (Option.get !made))

let suites =
  [
    ( "universal",
      [
        quick "register over CAS consensus" test_universal_register_cas;
        quick "stack over CAS consensus" test_universal_stack_cas;
        quick "register-consensus log, solo" test_universal_register_from_registers_solo;
        quick "register-consensus log, lockstep starves"
          test_universal_from_registers_lockstep_starves;
        quick "agreement across processes" test_universal_agreement_across_processes;
        quick "one-shot registers: a deep slot materialises only its cells"
          test_oneshot_deep_slot_cells;
      ]
      @ qcheck [ prop_universal_linearizable ] );
  ]
