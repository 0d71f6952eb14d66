(* The traced run of the slx query benchmark.

   Replays the benchmark's queries in-process through the library calls
   the slx CLI makes, and times each layer from outside: the closures
   every engine takes (the factory's [~n] application, the workload's
   [invoke], the safety check / liveness [good] predicate) are wrapped,
   and the top-level calls (Explore.explore, Live_explore.search, the
   Figure1 panels, Audit.run_cases, the store and serve client calls)
   are bracketed.  Nothing in lib/ is instrumented.

   Protocol: one command per stdin line, tab-separated, answered by one
   JSON line on stdout.

     query    QID  ARGS        the slx argv of one query (space-separated);
                               runs it untraced, then traced
     validate QID  IMPL POINT N DEPTH STEM CYCLE
                               re-validate a lasso certificate
                               (Live_explore.validate_cert_codes)
     post     QID  PORT SPEC   Client.post_query against a running serve
     store    QID  PATH SPEC.. open / warm-read / commit the run's store
     finish                    append every recorded span to SPANS,
                               answer the next free span id, and exit

   Usage: slx_trace WORKDIR SPANS FIRST_SPAN_ID.  Spans carry (id, name,
   start, end, parent, query id); they stay in memory until [finish],
   which appends them to SPANS as JSON lines, so a run can restart the
   tracer between passes and keep one span file with unique ids. *)

open Slx_core
open Slx_liveness
module Json = Slx_obs.Json
module Driver = Slx_sim.Driver
module Runner = Slx_sim.Runner
module Run_report = Slx_sim.Run_report

let now () = Int64.to_int (Monotonic_clock.now ())
let ms ns = float_of_int ns /. 1e6

(* ------------------------------------------------------------------ *)
(* Spans and per-layer totals                                           *)

type span = {
  sid : int;
  name : string;
  qid : string;
  parent : int;
  t0 : int;
  t1 : int;
}

type layer = {
  mutable calls : int;
  mutable total_ns : int;
  mutable self_ns : int;
  mutable bytes : float;
}

type frame = { f_sid : int; mutable f_child_ns : int }

let layers : (string, layer) Hashtbl.t = Hashtbl.create 16
let spans : span list ref = ref []
let next_sid = ref (int_of_string Sys.argv.(3) - 1)
let stack : frame list ref = ref []
let current_qid = ref ""

(* Hot closures (invoke, good) run up to ~10^5 times per query: keep
   the first spans of each query and count the rest only in the layer
   totals, so a long run cannot exhaust memory with span records. *)
let max_spans_per_query = 5_000
let kept_in_query = ref 0
let spans_dropped = ref 0

let layer name =
  match Hashtbl.find_opt layers name with
  | Some l -> l
  | None ->
      let l = { calls = 0; total_ns = 0; self_ns = 0; bytes = 0. } in
      Hashtbl.add layers name l;
      l

let span ?(alloc = false) name f =
  incr next_sid;
  let sid = !next_sid in
  let parent = match !stack with fr :: _ -> fr.f_sid | [] -> 0 in
  let fr = { f_sid = sid; f_child_ns = 0 } in
  stack := fr :: !stack;
  let b0 = if alloc then Gc.allocated_bytes () else 0. in
  let t0 = now () in
  let finish () =
    let t1 = now () in
    let d = t1 - t0 in
    let b1 = if alloc then Gc.allocated_bytes () else 0. in
    stack := List.tl !stack;
    (match !stack with p :: _ -> p.f_child_ns <- p.f_child_ns + d | [] -> ());
    let l = layer name in
    l.calls <- l.calls + 1;
    l.total_ns <- l.total_ns + d;
    l.self_ns <- l.self_ns + d - fr.f_child_ns;
    l.bytes <- l.bytes +. (b1 -. b0);
    if !kept_in_query < max_spans_per_query then begin
      incr kept_in_query;
      spans := { sid; name; qid = !current_qid; parent; t0; t1 } :: !spans
    end
    else incr spans_dropped
  in
  match f () with
  | v ->
      finish ();
      v
  | exception e ->
      finish ();
      raise e

(* The wrappers.  [traced:false] returns the closure untouched, so the
   untraced replica runs exactly the CLI's code. *)
let wrap_factory ~traced factory =
  if not traced then factory
  else fun () ->
    let make = factory () in
    fun ~n -> span ~alloc:true "sim.instance" (fun () -> make ~n)

let wrap_runner_factory ~traced make =
  if not traced then make
  else fun ~n -> span ~alloc:true "sim.instance" (fun () -> make ~n)

let wrap_invoke ~traced invoke =
  if not traced then invoke
  else fun view p -> span "driver.invoke" (fun () -> invoke view p)

let wrap_check ~traced check =
  if not traced then check else fun x -> span "check" (fun () -> check x)

let top ~traced name f = if traced then span name f else f ()

(* ------------------------------------------------------------------ *)
(* JSON output                                                          *)

let json_string s =
  let b = Buffer.create (String.length s + 2) in
  Buffer.add_char b '"';
  String.iter
    (function
      | '"' -> Buffer.add_string b "\\\""
      | '\\' -> Buffer.add_string b "\\\\"
      | '\n' -> Buffer.add_string b "\\n"
      | '\t' -> Buffer.add_string b "\\t"
      | c when Char.code c < 0x20 ->
          Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
      | c -> Buffer.add_char b c)
    s;
  Buffer.add_char b '"';
  Buffer.contents b

let obj fields =
  "{"
  ^ String.concat ", "
      (List.map (fun (k, v) -> Printf.sprintf "%s: %s" (json_string k) v) fields)
  ^ "}"

let num f = Printf.sprintf "%.6f" f
let int = string_of_int

(* ------------------------------------------------------------------ *)
(* Argument parsing for the slx argv subset the benchmark uses          *)

let opt args keys default =
  let rec go = function
    | k :: v :: _ when List.mem k keys -> v
    | _ :: rest -> go rest
    | [] -> default
  in
  go args

let opt_int args keys default = int_of_string (opt args keys (string_of_int default))

let parse_point ~n s =
  match s with
  | "obstruction" -> Freedom.obstruction_freedom
  | "lock" -> Freedom.lock_freedom ~n
  | "wait" -> Freedom.wait_freedom ~n
  | s -> (
      match String.split_on_char ',' s with
      | [ l; k ] -> Freedom.make ~l:(int_of_string l) ~k:(int_of_string k)
      | _ -> failwith ("unknown property " ^ s))

(* ------------------------------------------------------------------ *)
(* Query replicas.  Each mirrors the construction in bin/slx_cli.ml;    *)
(* the benchmark compares the replica's statistics with what the same   *)
(* slx command printed, so a divergence is reported, never timed.      *)

type outcome = {
  verdict : string;
  stats : Explore_stats.t option;
  text : string;  (** The CLI's human output, for figure1 and audit. *)
  extra : (string * string) list;
}

let no_stats verdict text extra = { verdict; stats = None; text; extra }

let consensus_factory impl : unit -> _ Runner.factory =
  let open Slx_consensus in
  match impl with
  | "cas" -> fun () -> Cas_consensus.factory ()
  | "register" -> fun () -> Register_consensus.factory ()
  | "selfish" -> fun () -> Selfish_consensus.factory ()
  | s -> failwith ("unknown implementation " ^ s)

(* live-explore sizes the register factory to the search depth. *)
let live_factory impl ~depth : unit -> _ Runner.factory =
  let open Slx_consensus in
  match impl with
  | "register" -> fun () -> Register_consensus.factory ~max_rounds:(max 8 depth) ()
  | other -> consensus_factory other

let live_invoke =
  Explore.workload_invoke
    (Driver.forever (fun p -> Slx_consensus.Consensus_type.Propose (p - 1)))

let live_good (_ : Slx_consensus.Consensus_type.response) = true

let explore_query ~traced args =
  let impl = opt args [ "-i"; "--impl" ] "cas" in
  let depth = opt_int args [ "--depth" ] 10 in
  let max_crashes = opt_int args [ "--crashes" ] 0 in
  let factory = wrap_factory ~traced (consensus_factory impl) in
  let invoke =
    wrap_invoke ~traced
      (Explore.workload_invoke
         (Driver.n_times 1 (fun p _ -> Slx_consensus.Consensus_type.Propose (p - 1))))
  in
  let check =
    wrap_check ~traced (fun r ->
        Slx_consensus.Consensus_safety.check r.Run_report.history)
  in
  let e =
    top ~traced "explore" (fun () ->
        Explore.explore ~n:2 ~factory ~invoke ~depth ~max_crashes ~dpor:true
          ~symmetry:true ~check ())
  in
  let verdict =
    match e.Explore.outcome with
    | Explore.Ok _ -> "ok"
    | Explore.Counterexample _ -> "counterexample"
  in
  { verdict; stats = Some e.Explore.stats; text = ""; extra = [] }

let live_verdict r =
  match r.Live_explore.outcome with
  | Live_explore.Lasso _ -> "lasso"
  | Live_explore.No_fair_cycle -> "no_fair_cycle"

let live_query ~traced args =
  let impl = opt args [ "-i"; "--impl" ] "register" in
  let n = opt_int args [ "-n"; "--procs" ] 2 in
  let point = parse_point ~n (opt args [ "-p"; "--property" ] "obstruction") in
  let depth = opt_int args [ "--depth" ] 10 in
  let max_crashes = opt_int args [ "--crashes" ] 0 in
  let r =
    top ~traced "live" (fun () ->
        Live_explore.search ~n
          ~factory:(wrap_factory ~traced (live_factory impl ~depth))
          ~invoke:(wrap_invoke ~traced live_invoke)
          ~good:(wrap_check ~traced live_good)
          ~point ~depth ~max_crashes ~dpor:true ())
  in
  { verdict = live_verdict r; stats = Some r.Live_explore.stats; text = ""; extra = [] }

(* What [slx figure1] prints for a grid (human form). *)
let render_grid grid =
  let pp points =
    String.concat ", " (List.map (Format.asprintf "%a" Freedom.pp) points)
  in
  Figure1.render grid
  ^ Printf.sprintf "strongest not excluding: %s\n"
      (pp (Figure1.strongest_not_excluded grid))
  ^ Printf.sprintf "weakest excluding:       %s\n"
      (pp (Figure1.weakest_excluded grid))

(* The panels' run sets, rebuilt from the same seeded drivers
   lib/core/figure1.ml uses: Figure1 takes no closures, so the traced
   run times the panel call and then this replica's simulation and
   checker separately. *)
let crash_others ~n ~active driver =
  let victims =
    List.filter (fun p -> not (List.mem p active)) (Slx_history.Proc.all ~n)
  in
  Driver.with_crashes (List.map (fun p -> (0, p)) victims) driver

let upto m = List.init m (fun i -> i + 1)

let replay_panel ~n ~max_steps ~factory ~adversary ~positive ~check =
  let factory = wrap_runner_factory ~traced:true factory in
  let run (driver, max_steps) =
    span "figure1.sim" (fun () -> Runner.run ~n ~factory ~driver ~max_steps ())
  in
  let adversary = List.map run (adversary max_steps) in
  List.iter (fun d -> ignore (run d)) (positive (max_steps / 2));
  List.iter
    (fun r -> ignore (span "check" (fun () -> check r.Run_report.history)))
    adversary

let replay_figure1 ~obj ~n ~max_steps ~depth =
  match obj with
  | "consensus" ->
      let open Slx_consensus in
      let workload = Driver.forever (fun p -> Consensus_type.Propose (p - 1)) in
      replay_panel ~n ~max_steps ~factory:(Register_consensus.factory ())
        ~adversary:(fun s ->
          [ (crash_others ~n ~active:[ 1; 2 ] (Consensus_adversary.lockstep ()), s) ])
        ~positive:(fun s ->
          List.concat_map
            (fun m ->
              let active = upto m in
              List.map
                (fun seed ->
                  ( crash_others ~n ~active
                      (Driver.random ~procs:active ~seed ~workload ()),
                    s ))
                [ 1; 2; 3 ])
            (upto n))
        ~check:Consensus_safety.check
  | "tm" ->
      let open Slx_tm in
      replay_panel ~n ~max_steps ~factory:(Agp_tm.factory ~vars:1)
        ~adversary:(fun s ->
          [
            ( crash_others ~n ~active:[ 1; 2 ]
                (Tm_adversary.local_progress_adversary ()),
              s );
          ])
        ~positive:(fun s ->
          List.concat_map
            (fun m ->
              let active = upto m in
              List.map
                (fun seed ->
                  (crash_others ~n ~active (Tm_workload.random ~procs:active ~seed ()), s))
                [ 1; 2; 3 ])
            (upto n)
          @
          if n >= 3 then
            [
              ( crash_others ~n ~active:[ 1; 2; 3 ]
                  (Tm_adversary.three_way_adversary ()),
                s );
            ]
          else [])
        ~check:Opacity.check_final
  | "s-prime" ->
      let open Slx_tm in
      replay_panel ~n ~max_steps ~factory:(I12.factory ~vars:1)
        ~adversary:(fun s ->
          ( crash_others ~n ~active:[ 1; 2 ]
              (Tm_adversary.local_progress_adversary ()),
            s )
          ::
          (if n >= 3 then
             [
               ( crash_others ~n ~active:[ 1; 2; 3 ]
                   (Tm_adversary.three_way_adversary ()),
                 s );
             ]
           else []))
        ~positive:(fun s ->
          List.concat_map
            (fun m ->
              let active = upto m in
              List.map
                (fun seed ->
                  (crash_others ~n ~active (Tm_workload.random ~procs:active ~seed ()), s))
                [ 1; 2 ])
            [ 1; 2 ])
        ~check:S_prime.check_final
  | "consensus-exhaustive" ->
      (* The panel's per-point Live_explore.search calls, with the
         panel's flags (library defaults, n-1 crashes). *)
      List.iter
        (fun point ->
          ignore
            (span "live" (fun () ->
                 Live_explore.search ~n
                   ~factory:(wrap_factory ~traced:true (live_factory "register" ~depth))
                   ~invoke:(wrap_invoke ~traced:true live_invoke)
                   ~good:(wrap_check ~traced:true live_good)
                   ~point ~depth ~max_crashes:(n - 1) ())))
        (Freedom.all ~n)
  | other -> failwith ("unknown figure1 object " ^ other)

let figure1_query ~traced args =
  let obj = opt args [ "-o"; "--object" ] "consensus" in
  let n = opt_int args [ "-n"; "--procs" ] 3 in
  let max_steps = opt_int args [ "--steps" ] 900 in
  let depth = opt_int args [ "--depth" ] 10 in
  let grid =
    top ~traced "figure1" (fun () ->
        match obj with
        | "consensus" -> Figure1.consensus ~n ~max_steps ()
        | "consensus-exhaustive" -> Figure1.consensus_exhaustive ~n ~depth ()
        | "tm" -> Figure1.tm ~n ~max_steps ()
        | "s-prime" -> Figure1.s_prime ~n ~max_steps ()
        | other -> failwith ("unknown figure1 object " ^ other))
  in
  if traced then replay_figure1 ~obj ~n ~max_steps ~depth;
  no_stats "grid" (render_grid grid) []

let audit_query ~traced args =
  let module Audit = Slx_analysis.Audit in
  let bound = if List.mem "--ci" args then `Ci else `Runtest in
  let rp =
    top ~traced "audit" (fun () ->
        Audit.run_cases ~bound (Slx_analysis.Audit_registry.all ()))
  in
  let sum f = List.fold_left (fun a r -> a + f r) 0 rp.Audit.rp_results in
  no_stats
    (if Audit.clean rp then "clean" else "dirty")
    (Format.asprintf "%a" Audit.pp_report rp)
    [
      ("audit.runs", int (sum (fun r -> r.Audit.cr_runs)));
      ("audit.hb_edges", int (sum (fun r -> r.Audit.cr_hb_edges)));
    ]

let run_query ~traced args =
  match args with
  | "explore" :: rest -> explore_query ~traced rest
  | "live-explore" :: rest -> live_query ~traced rest
  | "figure1" :: rest -> figure1_query ~traced rest
  | "audit" :: rest -> audit_query ~traced rest
  | _ -> failwith ("unsupported query: " ^ String.concat " " args)

let stats_json (s : Explore_stats.t) =
  obj
    [
      ("runs", int s.runs);
      ("nodes", int s.nodes);
      ("steps_executed", int s.steps_executed);
      ("steps_replayed", int s.steps_replayed);
      ("cache_hits", int s.cache_hits);
      ("symmetry_pruned", int s.symmetry_pruned);
      ("race_reversals", int s.race_reversals);
      ("cycles_examined", int s.cycles_examined);
      ("fair_cycles", int s.fair_cycles);
      ("invoke_order_prunes", int s.invoke_order_prunes);
      ("history_digest", int s.history_digest);
    ]

let layers_json () =
  obj
    (Hashtbl.fold
       (fun name l acc ->
         ( name,
           obj
             [
               ("calls", int l.calls);
               ("ms", num (ms l.total_ns));
               ("self_ms", num (ms l.self_ns));
               ("mwords", num (l.bytes /. 8. /. 1e6));
             ] )
         :: acc)
       layers [])

let timed f =
  let t0 = now () in
  let v = f () in
  (v, ms (now () - t0))

let cmd_query qid args =
  let args = List.filter (fun s -> s <> "") (String.split_on_char ' ' args) in
  (* Both runs start from a compacted heap: earlier queries' garbage
     neither slows the second run nor keeps the process large. *)
  Gc.compact ();
  let plain, plain_ms = timed (fun () -> run_query ~traced:false args) in
  Gc.compact ();
  Hashtbl.reset layers;
  current_qid := qid;
  kept_in_query := 0;
  let g0 = Gc.quick_stat () in
  let traced, traced_ms = timed (fun () -> run_query ~traced:true args) in
  let g1 = Gc.quick_stat () in
  (* The traced counterpart of [plain_ms]: the mirrored top-level call
     alone, without the replica work the traced run adds after it. *)
  let top_name =
    match args with
    | ("figure1" | "audit" | "explore") as cmd :: _ -> cmd
    | _ -> "live"
  in
  let top_ms =
    match Hashtbl.find_opt layers top_name with
    | Some l -> ms l.total_ns
    | None -> 0.
  in
  let word = float_of_int (Sys.word_size / 8) in
  print_endline
    (obj
       ([
          ("qid", json_string qid);
          ("plain_ms", num plain_ms);
          ("traced_ms", num traced_ms);
          ("traced_top_ms", num top_ms);
          ("verdict", json_string traced.verdict);
          ("plain_verdict", json_string plain.verdict);
          ("text", json_string traced.text);
          ("plain_text", json_string plain.text);
          ( "stats",
            match traced.stats with Some s -> stats_json s | None -> "null" );
          ( "plain_stats",
            match plain.stats with Some s -> stats_json s | None -> "null" );
          ("layers", layers_json ());
          ( "gc",
            obj
              [
                ( "minor_mwords",
                  num ((g1.Gc.minor_words -. g0.Gc.minor_words) /. 1e6) );
                ( "major_collections",
                  int (g1.Gc.major_collections - g0.Gc.major_collections) );
                ( "top_heap_mb",
                  num (float_of_int g1.Gc.top_heap_words *. word *. 8. /. 1048576.)
                );
              ] );
        ]
       @ traced.extra))

let codes s =
  List.filter_map int_of_string_opt (String.split_on_char ',' s)

let cmd_validate qid = function
  | [ impl; point; n; depth; stem; cycle ] ->
      let n = int_of_string n and depth = int_of_string depth in
      let cert =
        Live_explore.validate_cert_codes ~n
          ~factory:(live_factory impl ~depth)
          ~invoke:live_invoke ~good:live_good ~point:(parse_point ~n point)
          ~pump_ticks:(4 * depth) ~stem:(codes stem) ~cycle:(codes cycle) ()
      in
      print_endline
        (obj [ ("qid", json_string qid); ("accepted", string_of_bool (cert <> None)) ])
  | _ -> failwith "validate: expected IMPL POINT N DEPTH STEM CYCLE"

let read_file path =
  let ic = open_in_bin path in
  let s = really_input_string ic (in_channel_length ic) in
  close_in ic;
  s

let last_line s =
  match List.rev (List.filter (fun l -> String.trim l <> "") (String.split_on_char '\n' s)) with
  | l :: _ -> l
  | [] -> "null"

let cmd_post qid = function
  | [ port; spec ] ->
      Hashtbl.reset layers;
      current_qid := qid;
      kept_in_query := 0;
      let tmp = Filename.temp_file ~temp_dir:Sys.argv.(1) "post" ".out" in
      let oc = open_out_bin tmp in
      let r, rtt =
        timed (fun () ->
            span "serve.rtt" (fun () ->
                Slx_serve.Client.post_query ~port:(int_of_string port) ~wait:true
                  spec ~out:oc))
      in
      close_out oc;
      let body = read_file tmp in
      Sys.remove tmp;
      let ok, last =
        match r with
        | Ok () -> (true, last_line body)
        | Error _ -> (false, "null")
      in
      (* The final result line must parse, or the benchmark counts a
         failed query. *)
      let last = match Json.parse last with Ok _ -> last | Error _ -> "null" in
      print_endline
        (obj
           [
             ("qid", json_string qid);
             ("ok", string_of_bool ok);
             ("rtt_ms", num rtt);
             ("layers", layers_json ());
             ("result", last);
           ])
  | _ -> failwith "post: expected PORT SPEC"

let cmd_store qid = function
  | path :: specs ->
      let module Store = Slx_store.Store in
      let module Queries = Slx_serve.Queries in
      current_qid := qid;
      kept_in_query := 0;
      let bytes = (Unix.stat path).Unix.st_size in
      let st, open_ms = timed (fun () -> span "store.open" (fun () -> Store.open_ path)) in
      let warm =
        List.map
          (fun spec_json ->
            let spec =
              match Result.bind (Json.parse spec_json) Queries.spec_of_json with
              | Ok sp -> sp
              | Error e -> failwith ("store: bad spec: " ^ e)
            in
            let qid =
              match Queries.qid spec with
              | Ok q -> q
              | Error e -> failwith ("store: " ^ e)
            in
            let served, warm_ms =
              timed (fun () ->
                  span "store.warm" (fun () ->
                      match Store.find st ~qid ~depth:spec.Queries.sp_depth with
                      | Some record -> Queries.warm_result spec record
                      | None -> None))
            in
            obj
              [
                ("ms", num warm_ms);
                ("result", match served with Some line -> line | None -> "null");
              ])
          specs
      in
      let (), commit_ms = timed (fun () -> span "store.commit" (fun () -> Store.commit st)) in
      print_endline
        (obj
           [
             ("qid", json_string qid);
             ("bytes", int bytes);
             ("open_ms", num open_ms);
             ("commit_ms", num commit_ms);
             ("warm", "[" ^ String.concat ", " warm ^ "]");
           ])
  | [] -> failwith "store: expected PATH SPEC..."

let cmd_finish () =
  let oc =
    open_out_gen [ Open_append; Open_creat; Open_binary ] 0o644 Sys.argv.(2)
  in
  List.iter
    (fun s ->
      output_string oc
        (Printf.sprintf
           "{\"id\": %d, \"name\": %s, \"start\": %d, \"end\": %d, \"parent\": %d, \"query\": %s}\n"
           s.sid (json_string s.name) s.t0 s.t1 s.parent (json_string s.qid)))
    (List.rev !spans);
  close_out oc;
  print_endline
    (obj
       [ ("next_span_id", int (!next_sid + 1)); ("spans_dropped", int !spans_dropped) ])

let () =
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> ()
    | line -> (
        match String.split_on_char '\t' line with
        | [ "finish" ] -> cmd_finish ()
        | cmd :: qid :: rest ->
            (match (cmd, rest) with
            | "query", [ args ] -> cmd_query qid args
            | "validate", rest -> cmd_validate qid rest
            | "post", rest -> cmd_post qid rest
            | "store", rest -> cmd_store qid rest
            | _ -> failwith ("unknown command: " ^ line));
            flush stdout;
            loop ()
        | _ -> failwith ("malformed command: " ^ line))
  in
  loop ()
