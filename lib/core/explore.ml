open Slx_history
open Slx_sim
module Telemetry = Slx_obs.Telemetry
module Progress = Slx_obs.Progress
module Obs = Slx_obs.Obs
module Clock = Slx_obs.Clock

type ('inv, 'res) outcome =
  | Ok of int
  | Counterexample of ('inv, 'res) Run_report.t

type frontier_seed = { seed_script : int list; seed_sleep : int }

type frontier = {
  fr_depth : int;
  fr_base_runs : int;
  fr_base_digest : int;
  fr_seeds : frontier_seed list;
}

type ('inv, 'res) exploration = {
  outcome : ('inv, 'res) outcome;
  stats : Explore_stats.t;
  witness_script : ('inv, 'res) Driver.decision list option;
  frontier : frontier option;
}

exception Found_counterexample
exception Interrupted of Explore_stats.t

(* Internal: a [?cancel] poll came back true mid-walk; converted to
   [Interrupted] (with the partial stats attached) at the top level. *)
exception Cancelled

(* ------------------------------------------------------------------ *)
(* Type-agnostic decision coding.                                      *)

(* A decision as a small int — the persistent form frontier seeds and
   stored witness scripts use.  [Invoke] payloads are deliberately not
   encoded: every engine constructs an invocation as [invoke view p],
   so a decoder holding the same [invoke] re-derives the identical
   payload from the view at the point of application.  [Stop] never
   appears in a menu. *)
let code_of_decision = function
  | Driver.Schedule p -> p lsl 2
  | Driver.Invoke (p, _) -> (p lsl 2) lor 1
  | Driver.Crash p -> (p lsl 2) lor 2
  | Driver.Stop -> invalid_arg "Explore.code_of_decision: Stop"

let codes_of_script ds = List.map code_of_decision ds

let decision_of_code ~invoke view code =
  let p = code lsr 2 in
  match code land 3 with
  | 0 -> Driver.Schedule p
  | 2 -> Driver.Crash p
  | 1 -> (
      match invoke view p with
      | Some inv -> Driver.Invoke (p, inv)
      | None ->
          invalid_arg "Explore.decision_of_code: no pending invocation")
  | _ -> invalid_arg "Explore.decision_of_code: bad tag"

(* Decode-and-apply a coded script against a live cursor, returning
   the typed decisions actually applied (root-first). *)
let apply_codes ~invoke cursor codes =
  List.map
    (fun code ->
      let d = decision_of_code ~invoke (Runner.Cursor.view cursor) code in
      Runner.Cursor.apply cursor d;
      d)
    codes

let run_of_codes ~n ~factory ~invoke codes =
  let cursor = Runner.Cursor.create ~n ~factory:(factory ()) () in
  let ds = apply_codes ~invoke cursor codes in
  let len = List.length ds in
  (ds, Runner.Cursor.report cursor ~window:(max len 1) ())

let workload_invoke workload view p = workload p (view.Driver.invocations p)

(* The packed int the [Decision] telemetry event carries. *)
let dec_code = function
  | Driver.Schedule p -> Telemetry.Dec.schedule (Proc.hash p)
  | Driver.Invoke (p, _) -> Telemetry.Dec.invoke (Proc.hash p)
  | Driver.Crash p -> Telemetry.Dec.crash (Proc.hash p)
  | Driver.Stop -> Telemetry.Dec.schedule 0  (* never in a menu *)

(* ------------------------------------------------------------------ *)
(* The decision menu.                                                  *)

(* The decision menu of a configuration, in the canonical order that
   defines "lexicographically least script": for each process 1..n, its
   step or invocation; then, if the crash budget allows, for each
   process 1..n, its crash.

   Under [~symmetry], untouched processes (no event in the history:
   never invoked, never crashed — hence idle with zero steps and
   initial local state) are interchangeable up to renaming, so only the
   least untouched process is offered an invocation (resp. a crash);
   the pruned decisions' subtrees are renamings of the representative's.
   The second component counts the decisions pruned this way. *)
let decision_menu ~n ~invoke ~depth ~max_crashes ~symmetry view len crashes =
  if len >= depth then ([], 0)
  else begin
    let pruned = ref 0 in
    let untouched p = view.Driver.events p = [] in
    let rep_invoke =
      if not symmetry then None
      else
        List.find_opt
          (fun p ->
            view.Driver.status p = Runtime.Idle
            && untouched p
            && invoke view p <> None)
          (Proc.all ~n)
    in
    let rep_crash =
      if not symmetry then None else List.find_opt untouched (Proc.all ~n)
    in
    let steps =
      List.concat_map
        (fun p ->
          match view.Driver.status p with
          | Runtime.Ready -> [ Driver.Schedule p ]
          | Runtime.Idle -> begin
              match invoke view p with
              | Some inv ->
                  if symmetry && untouched p && rep_invoke <> Some p then begin
                    incr pruned;
                    []
                  end
                  else [ Driver.Invoke (p, inv) ]
              | None -> []
            end
          | Runtime.Crashed -> [])
        (Proc.all ~n)
    in
    let crash_branches =
      if crashes < max_crashes then
        List.filter_map
          (fun p ->
            if view.Driver.status p = Runtime.Crashed then None
            else if symmetry && untouched p && rep_crash <> Some p then begin
              incr pruned;
              None
            end
            else Some (Driver.Crash p))
          (Proc.all ~n)
      else []
    in
    (steps @ crash_branches, !pruned)
  end

(* ------------------------------------------------------------------ *)
(* Engine state.                                                       *)

(* Sleep sets as one-word bitsets, the form the transposition key and
   the frontier seeds carry — hence the engine's [n < 62] bound. *)
let sleep_bits sleep = List.fold_left (fun acc p -> acc lor (1 lsl p)) 0 sleep

(* Inverse of [sleep_bits], ascending — the order the engine's
   [sort_uniq]-maintained sleep lists are in. *)
let procs_of_bits bits =
  let rec go p acc =
    if p < 0 then acc
    else go (p - 1) (if bits land (1 lsl p) <> 0 then p :: acc else acc)
  in
  go 61 []

(* Mutable exploration state.  Transposition keys are hash-consed: the
   cursor's [compact_key] array (incrementally interned history id,
   digests, packed per-process state) with the sleep set appended as a
   bitset, interned into a dense id ({!Intern.Ints}), so a cache lookup
   hashes one immediate int instead of a deep term.  The sleep set is
   part of the key because the same configuration reached with
   different sleep sets explores different reduced subtrees. *)
type ('inv, 'res) state = {
  sink : Telemetry.sink;
  progress : Progress.t;
  mutable sample : unit -> Progress.sample;
  mutable nodes : int;
  mutable runs : int;
  mutable checked : int;
  mutable replayed : int;
  mutable avoided : int;
  mutable hits : int;
  mutable sleeps : int;
  mutable reversals : int;
  mutable sym_pruned : int;
  mutable digest : int;
  mutable found :
    (('inv, 'res) Driver.decision list * ('inv, 'res) Run_report.t) option;
      (* The first failing maximal run: its decision script and report. *)
  mutable fr_cuts : int;
      (* Persist mode: cut leaves seen — maximal runs at the depth
         bound whose menu would be nonempty at a greater depth.  Each
         is recorded as a frontier seed, and a transposition entry is
         written only for subtrees containing none of them, so a later
         resumed walk sees every cut leaf exactly once. *)
  mutable fr_cut_digest : int;
  mutable fr_rev_seeds : frontier_seed list;
  ticks : int ref;
  table : (int, entry) Clock_cache.t;
  shadow : Runtime.shadow option;
      (* Sanitizer shadow shared by all cursors: non-raising,
         non-recording — it only counts violations, so a sanitized
         exploration takes exactly the decisions an unsanitized one
         does. *)
  probe : Runtime.probe option;
      (* DPOR observed-access probe, likewise shared by all cursors:
         records what each executed step physically touched, from
         which the dynamic sleep-set filter computes race reversals.
         Recording only — decisions are unchanged. *)
  encode : (int -> ('inv, 'res) Event.t -> int) option;
      (* With the cache on: the hash-consing hook every cursor is
         created with.  It interns each appended event, then the
         (previous history id, event id) pair, so the cursor's
         [hist_id] stands in for its whole history. *)
  keys : Intern.Ints.t;
      (* Interns the flat [compact_key] arrays into the dense ids the
         transposition cache is keyed on. *)
}

and entry = { e_runs : int; e_digest : int }

let zero_sample =
  {
    Progress.s_nodes = 0;
    s_runs = 0;
    s_steps = 0;
    s_cache_entries = 0;
    s_cache_capacity = 0;
    s_cycles = 0;
  }

let new_state ?capacity ~sink ?(progress = Progress.off) ?(sanitize = false)
    ?(dpor = false) ?(cache = false) () =
  let encode =
    if not cache then None
    else begin
      let events = Intern.create () in
      let conses = Intern.create () in
      Some
        (fun parent e ->
          Intern.intern conses (parent, Intern.intern events e))
    end
  in
  {
    sink;
    progress;
    sample = (fun () -> zero_sample);
    nodes = 0;
    runs = 0;
    checked = 0;
    replayed = 0;
    avoided = 0;
    hits = 0;
    sleeps = 0;
    reversals = 0;
    sym_pruned = 0;
    digest = 0;
    found = None;
    fr_cuts = 0;
    fr_cut_digest = 0;
    fr_rev_seeds = [];
    ticks = ref 0;
    table = Clock_cache.create ?capacity ~sink ();
    shadow =
      (if sanitize then
         Some (Runtime.make_shadow ~record:false ~raise_on_violation:false ())
       else None);
    probe = (if dpor then Some (Runtime.make_probe ()) else None);
    encode;
    keys = Intern.Ints.create ();
  }

let stats_of_state ~elapsed_ns ~events_dropped st : Explore_stats.t =
  {
    Explore_stats.zero with
    Explore_stats.nodes = st.nodes;
    runs = st.runs;
    runs_checked = st.checked;
    steps_executed = !(st.ticks);
    steps_replayed = st.replayed;
    replays_avoided = st.avoided;
    cache_hits = st.hits;
    cache_entries = Clock_cache.length st.table;
    cache_evictions = Clock_cache.evictions st.table;
    por_prunes = st.sleeps;
    race_reversals = st.reversals;
    symmetry_pruned = st.sym_pruned;
    footprint_violations =
      (match st.shadow with
      | Some sh -> Runtime.shadow_violation_count sh
      | None -> 0);
    elapsed_ns;
    events_dropped;
    history_digest = st.digest;
  }

(* Install the progress sample: a plain read of the state's counters. *)
let wire_progress st =
  if Progress.enabled st.progress then
    st.sample <-
      (fun () ->
        {
          Progress.s_nodes = st.nodes;
          s_runs = st.runs;
          s_steps = !(st.ticks);
          s_cache_entries = Clock_cache.length st.table;
          s_cache_capacity =
            Option.value ~default:0 (Clock_cache.capacity st.table);
          s_cycles = 0;
        })

(* ------------------------------------------------------------------ *)
(* The incremental reduced engine.                                     *)

let explore ~n ~factory ~invoke ~depth ?(max_crashes = 0) ?(cache = true)
    ?cache_capacity ?(dpor = false) ?(symmetry = false) ?(obs = Obs.disabled)
    ?(sanitize = false) ?(persist = false) ?resume ?cancel ~check () =
  if n >= 62 then
    invalid_arg "Explore.explore: n >= 62 (sleep sets are one-word bitsets)";
  (match resume with
  | Some f when f.fr_depth >= depth ->
      invalid_arg "Explore.explore: resume frontier not shallower"
  | _ -> ());
  let t0 = Clock.now_ns () in
  let cancel = match cancel with Some f -> f | None -> fun () -> false in
  let menu = decision_menu ~n ~invoke ~depth ~max_crashes ~symmetry in
  (* Would the menu be nonempty with the depth guard lifted?  Exactly
     when some process can still step, invoke or crash — neither
     symmetry nor invoke pruning ever empties a nonempty raw menu, so
     this decides whether a maximal node is a {e cut} leaf (interior
     at a greater depth, hence a frontier seed) or terminated (final
     at any depth). *)
  let has_future view crashes =
    List.exists
      (fun p ->
        match view.Driver.status p with
        | Runtime.Ready -> true
        | Runtime.Idle -> invoke view p <> None
        | Runtime.Crashed -> false)
      (Proc.all ~n)
    || crashes < max_crashes
       && List.exists
            (fun p -> view.Driver.status p <> Runtime.Crashed)
            (Proc.all ~n)
  in
  let st =
    new_state ?capacity:cache_capacity ~sink:(Obs.sink obs)
      ~progress:(Obs.progress obs) ~sanitize ~dpor ~cache ()
  in
  wire_progress st;
  let make_cursor () =
    Runner.Cursor.create ~n ~factory:(factory ()) ~ticks:st.ticks
      ?shadow:st.shadow ?probe:st.probe ?encode:st.encode ()
  in
  (* Under DPOR, a child's sleep set is only a {e candidate} until its
     edge executes: the dynamic filter then wakes the sleepers whose
     pending actions raced with the step's observed accesses.  Returns
     the settled sleep set. *)
  let settle_sleep cursor d candidate len =
    if not dpor then candidate
    else begin
      let observed = Dpor.observed_step_mask ~probe:st.probe ~declared:None in
      let keep, woken =
        Dpor.advance_mask ~observed
          ~pending:(fun z -> Runner.Cursor.pending_mask cursor z)
          candidate d
      in
      (match woken with
      | [] -> ()
      | _ -> (
          match d with
          | Driver.Schedule _ ->
              st.reversals <- st.reversals + List.length woken;
              Telemetry.emit st.sink Telemetry.Race_reversal len
                (List.length woken)
          | _ -> ()));
      keep
    end
  in
  (* Walk the subtree rooted at the configuration [cursor] sits on.
     The first child extends the cursor in place (the incremental step
     the naive engine lacks); each later sibling re-establishes the
     configuration by replaying the decision prefix into a fresh
     cursor.  Raises [Found_counterexample] with [st.found] set on the
     first failing maximal run, which under this in-order walk is the
     lexicographically least one.

     [visit] wraps [visit_body] in the telemetry node span; the span
     closes on every exit, [Found_counterexample] unwinds included, so
     traces stay balanced.  With the sink disabled the wrapper costs
     two branches and no [Fun.protect] frame. *)
  let rec visit cursor rev_script len crashes sleep =
    st.nodes <- st.nodes + 1;
    Progress.tick st.progress st.sample;
    if Telemetry.enabled st.sink then begin
      Telemetry.emit st.sink Telemetry.Node_enter len 0;
      Fun.protect
        ~finally:(fun () ->
          Telemetry.emit st.sink Telemetry.Node_leave len 0)
        (fun () -> visit_body cursor rev_script len crashes sleep)
    end
    else visit_body cursor rev_script len crashes sleep
  and visit_body cursor rev_script len crashes sleep =
    if cancel () then raise Cancelled;
    let key =
      if not cache then None
      else
        Some
          (Intern.Ints.intern st.keys
             (Runner.Cursor.compact_key cursor ~extra:[ sleep_bits sleep ]))
    in
    match Option.bind key (Clock_cache.find_opt st.table) with
    | Some e ->
        (* Transposition: an already-explored configuration (with the
           same sleep set).  Its subtree was counterexample-free
           (failing subtrees abort the walk before an entry is
           written), so credit its runs and final-history digest
           without descending. *)
        st.hits <- st.hits + 1;
        st.runs <- st.runs + e.e_runs;
        st.digest <- st.digest + e.e_digest;
        Telemetry.emit st.sink Telemetry.Cache_hit len e.e_runs
    | None -> begin
        let decisions, sym_pruned =
          menu (Runner.Cursor.view cursor) len crashes
        in
        st.sym_pruned <- st.sym_pruned + sym_pruned;
        if sym_pruned > 0 then
          Telemetry.emit st.sink Telemetry.Symmetry_prune len sym_pruned;
        match decisions with
        | [] ->
            (* A maximal run: check it. *)
            let r = Runner.Cursor.report cursor ~window:(max len 1) () in
            st.runs <- st.runs + 1;
            st.checked <- st.checked + 1;
            Telemetry.emit st.sink Telemetry.Run_checked len 0;
            let dh = Runtime.hash_value r.Run_report.history in
            st.digest <- st.digest + dh;
            let cut =
              persist && has_future (Runner.Cursor.view cursor) crashes
            in
            if cut then begin
              (* A cut leaf: maximal only because of the depth bound.
                 Record its coded script + settled sleep set as a
                 frontier seed (in first-visit = lex order) and write
                 no transposition entry, so no later hit can hide an
                 occurrence of this class from the seed log. *)
              st.fr_cuts <- st.fr_cuts + 1;
              st.fr_cut_digest <- st.fr_cut_digest + dh;
              st.fr_rev_seeds <-
                {
                  seed_script = List.rev_map code_of_decision rev_script;
                  seed_sleep = sleep_bits sleep;
                }
                :: st.fr_rev_seeds
            end
            else
              Option.iter
                (fun k ->
                  Clock_cache.replace st.table k { e_runs = 1; e_digest = dh })
                key;
            if not (check r) then begin
              st.found <- Some (List.rev rev_script, r);
              raise Found_counterexample
            end
        | _ -> begin
            (* Sleep-set filter: a slept process's pending step
               commutes with every step taken since it went to sleep,
               so granting it here would reproduce, step-swapped, a run
               already explored from an earlier sibling. *)
            let asleep, active =
              if dpor && sleep <> [] then
                List.partition
                  (fun d ->
                    match d with
                    | Driver.Schedule p -> List.mem p sleep
                    | _ -> false)
                  decisions
              else ([], decisions)
            in
            st.sleeps <- st.sleeps + List.length asleep;
            if asleep <> [] then
              Telemetry.emit st.sink Telemetry.Por_sleep len
                (List.length asleep);
            match active with
            | [] ->
                (* Everything enabled is asleep: every extension is a
                   reordering of an explored run.  Not a maximal run —
                   nothing to check, nothing to credit. *)
                Option.iter
                  (fun k ->
                    Clock_cache.replace st.table k
                      { e_runs = 0; e_digest = 0 })
                  key
            | _ ->
                let runs0 = st.runs and digest0 = st.digest in
                let cuts0 = st.fr_cuts in
                (* Children, each with its candidate sleep set: every
                   explored earlier sibling falls asleep for the later
                   ones, and [settle_sleep] wakes racers from the
                   accesses the child's edge actually performed.
                   Crashes wake everyone — a crash perturbs every
                   process's view of the crashed one. *)
                let children =
                  if not dpor then List.mapi (fun i d -> (i, d, [])) active
                  else
                    List.mapi (fun i d -> (i, d)) active
                    |> List.fold_left
                         (fun (acc, prev) (i, d) ->
                           let child_sleep =
                             match d with Driver.Crash _ -> [] | _ -> prev
                           in
                           let prev' =
                             match d with
                             | Driver.Schedule p ->
                                 List.sort_uniq Proc.compare (p :: prev)
                             | _ -> prev
                           in
                           ((i, d, child_sleep) :: acc, prev'))
                         ([], sleep)
                    |> fst |> List.rev
                in
                List.iter
                  (fun (i, d, child_sleep) ->
                    let crashes' =
                      match d with
                      | Driver.Crash _ -> crashes + 1
                      | _ -> crashes
                    in
                    let child =
                      if i = 0 then begin
                        st.avoided <- st.avoided + 1;
                        cursor
                      end
                      else begin
                        let c = make_cursor () in
                        List.iter (Runner.Cursor.apply c) (List.rev rev_script);
                        st.replayed <- st.replayed + len;
                        c
                      end
                    in
                    Telemetry.emit st.sink Telemetry.Decision (len + 1)
                      (dec_code d);
                    Runner.Cursor.apply child d;
                    visit child (d :: rev_script) (len + 1) crashes'
                      (settle_sleep child d child_sleep (len + 1));
                    (* [child]'s subtree is done; its cursor is used no
                       more. *)
                    Runner.Cursor.release child)
                  children;
                (* Persist mode: never cache a subtree containing cut
                   leaves — a hit on it would credit runs without
                   re-recording the seeds it holds, so the frontier
                   would under-count.  (Verdict-neutral: a hit credits
                   exactly what re-exploration counts.) *)
                if st.fr_cuts = cuts0 || not persist then
                  Option.iter
                    (fun k ->
                      Clock_cache.replace st.table k
                        {
                          e_runs = st.runs - runs0;
                          e_digest = st.digest - digest0;
                        })
                    key
          end
      end
  in
  (* One in-order walk from the root configuration — or, resuming, one
     walk per stored frontier seed, in the stored (first-visit, hence
     lex) order, on top of the stored base counts.  Cut leaves
     terminated at the stored depth stay final at any depth, so the
     seed subtrees are exactly the delta. *)
  let walk () =
    match resume with
    | None -> visit (make_cursor ()) [] 0 0 []
    | Some f ->
        st.runs <- f.fr_base_runs;
        st.digest <- f.fr_base_digest;
        List.iter
          (fun seed ->
            let c = make_cursor () in
            let ds = apply_codes ~invoke c seed.seed_script in
            let len = List.length ds in
            st.replayed <- st.replayed + len;
            let crashes =
              List.fold_left
                (fun a d -> match d with Driver.Crash _ -> a + 1 | _ -> a)
                0 ds
            in
            visit c (List.rev ds) len crashes (procs_of_bits seed.seed_sleep))
          f.fr_seeds
  in
  let stats () =
    stats_of_state
      ~elapsed_ns:(Clock.now_ns () - t0)
      ~events_dropped:(Obs.events_dropped obs)
      st
  in
  match walk () with
  | exception Cancelled -> raise (Interrupted (stats ()))
  | exception Found_counterexample ->
      let script, r = Option.get st.found in
      {
        outcome = Counterexample r;
        stats = stats ();
        witness_script = Some script;
        frontier = None;
      }
  | () ->
      let stats = stats () in
      (* [fr_base_*] = the runs/digest final at this depth: the totals
         minus every cut leaf's contribution.  A deeper resume starts
         from these and explores only the seed subtrees. *)
      let frontier =
        if not persist then None
        else
          Some
            {
              fr_depth = depth;
              fr_base_runs = stats.Explore_stats.runs - st.fr_cuts;
              fr_base_digest =
                stats.Explore_stats.history_digest - st.fr_cut_digest;
              fr_seeds = List.rev st.fr_rev_seeds;
            }
      in
      {
        outcome = Ok stats.Explore_stats.runs;
        stats;
        witness_script = None;
        frontier;
      }

(* ------------------------------------------------------------------ *)
(* The naive reference engine.                                         *)

let explore_naive ~n ~factory ~invoke ~depth ?(max_crashes = 0) ~check () =
  let t0 = Clock.now_ns () in
  let menu =
    decision_menu ~n ~invoke ~depth ~max_crashes ~symmetry:false
  in
  let st = new_state ~sink:Telemetry.null () in
  (* The retained reference engine: re-run the decision prefix from a
     fresh implementation instance at every node of the tree, exactly
     as the original explorer did.  Kept for differential testing and
     as the baseline the incremental/reduced engines' counters are
     measured against. *)
  let replay rev_script =
    let c = Runner.Cursor.create ~n ~factory:(factory ()) ~ticks:st.ticks () in
    List.iter (Runner.Cursor.apply c) (List.rev rev_script);
    c
  in
  let rec walk rev_script len crashes =
    st.nodes <- st.nodes + 1;
    let cursor = replay rev_script in
    st.replayed <- st.replayed + len;
    match fst (menu (Runner.Cursor.view cursor) len crashes) with
    | [] ->
        let r = Runner.Cursor.report cursor ~window:(max len 1) () in
        st.runs <- st.runs + 1;
        st.checked <- st.checked + 1;
        st.digest <- st.digest + Runtime.hash_value r.Run_report.history;
        if not (check r) then begin
          st.found <- Some (List.rev rev_script, r);
          raise Found_counterexample
        end
    | decisions ->
        List.iter
          (fun d ->
            let crashes' =
              match d with Driver.Crash _ -> crashes + 1 | _ -> crashes
            in
            walk (d :: rev_script) (len + 1) crashes')
          decisions
  in
  let witness =
    match walk [] 0 0 with
    | () -> None
    | exception Found_counterexample -> st.found
  in
  let stats =
    stats_of_state ~elapsed_ns:(Clock.now_ns () - t0) ~events_dropped:0 st
  in
  match witness with
  | None ->
      {
        outcome = Ok stats.Explore_stats.runs;
        stats;
        witness_script = None;
        frontier = None;
      }
  | Some (script, r) ->
      {
        outcome = Counterexample r;
        stats;
        witness_script = Some script;
        frontier = None;
      }

let forall_schedules ~n ~factory ~invoke ~depth ?(max_crashes = 0) ~check () =
  (explore ~n ~factory ~invoke ~depth ~max_crashes ~check ()).outcome
