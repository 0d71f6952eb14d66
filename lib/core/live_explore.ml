open Slx_history
open Slx_sim
open Slx_liveness
module Telemetry = Slx_obs.Telemetry
module Progress = Slx_obs.Progress
module Obs = Slx_obs.Obs
module Clock = Slx_obs.Clock

type ('inv, 'res) outcome =
  | Lasso of ('inv, 'res) Lasso.cert
  | No_fair_cycle

type live_seed = { ls_script : int list; ls_sleep : int list }

type live_frontier = {
  lf_depth : int;
  lf_max_period : int;
  lf_pump_ticks : int;
  lf_base_runs : int;
  lf_seeds : live_seed list;
}

type ('inv, 'res) result = {
  outcome : ('inv, 'res) outcome;
  stats : Explore_stats.t;
  frontier : live_frontier option;
}

exception Found_lasso

(* Internal: the [?cancel] poll fired; converted to
   [Explore.Interrupted] at the top level. *)
exception Cancelled

(* Tick cells, interned.  A cell's items (the grant, then each event
   skeleton) are coded [(proc lsl 2) lor kind] — kind 0 grant, 1
   invocation, 2 response, 3 crash — and the item list is interned in
   a structural hash table, so two ticks carry the same id iff their
   {!cell_of} strings are equal.  The strings themselves are built
   once per distinct cell, for certificates. *)
type interner = {
  ids : (int list, int) Hashtbl.t;
  names : (int, string list) Hashtbl.t;  (* id -> cell_of strings *)
}

let new_interner () = { ids = Hashtbl.create 64; names = Hashtbl.create 64 }

let item_code = function
  | Event.Invocation (p, _) -> (p lsl 2) lor 1
  | Event.Response (p, _) -> (p lsl 2) lor 2
  | Event.Crash p -> (p lsl 2) lor 3

type ('inv, 'res) state = {
  sink : Telemetry.sink;
  progress : Progress.t;
  mutable sample : unit -> Progress.sample;
  mutable nodes : int;
  mutable runs : int;
  mutable replayed : int;
  mutable avoided : int;
  mutable invoke_pruned : int;
  mutable por_pruned : int;
  mutable reversals : int;
  mutable proviso : int;
  mutable cycles : int;
  mutable fair : int;
  mutable found : ('inv, 'res) Lasso.cert option;
  cells : interner;
  mutable fr_cuts : int;
      (* Persist mode: cut leaves recorded as frontier seeds. *)
  mutable fr_rev_seeds : live_seed list;
  ticks : int ref;
  shadow : Runtime.shadow option;  (* non-raising: counts only *)
  probe : Runtime.probe option;
      (* DPOR observed-access probe shared by all cursors of this
         search; recording only. *)
}

let zero_sample =
  {
    Progress.s_nodes = 0;
    s_runs = 0;
    s_steps = 0;
    s_cache_entries = 0;
    s_cache_capacity = 0;
    s_cycles = 0;
  }

let new_state ?(sink = Telemetry.null) ?(progress = Progress.off)
    ?(sanitize = false) ?(dpor = false) () =
  {
    sink;
    progress;
    sample = (fun () -> zero_sample);
    nodes = 0;
    runs = 0;
    replayed = 0;
    avoided = 0;
    invoke_pruned = 0;
    por_pruned = 0;
    reversals = 0;
    proviso = 0;
    cycles = 0;
    fair = 0;
    found = None;
    cells = new_interner ();
    fr_cuts = 0;
    fr_rev_seeds = [];
    ticks = ref 0;
    shadow =
      (if sanitize then
         Some (Runtime.make_shadow ~record:false ~raise_on_violation:false ())
       else None);
    probe = (if dpor then Some (Runtime.make_probe ()) else None);
  }

(* Install the progress sample: the live search is sequential, so the
   snapshot is a plain read of the single state's counters. *)
let wire_progress st =
  if Progress.enabled st.progress then
    st.sample <-
      (fun () ->
        {
          Progress.s_nodes = st.nodes;
          s_runs = st.runs;
          s_steps = !(st.ticks);
          s_cache_entries = 0;
          s_cache_capacity = 0;
          s_cycles = st.cycles;
        })

(* The packed int the [Decision] telemetry event carries. *)
let dec_code = function
  | Driver.Schedule p -> Telemetry.Dec.schedule (Proc.hash p)
  | Driver.Invoke (p, _) -> Telemetry.Dec.invoke (Proc.hash p)
  | Driver.Crash p -> Telemetry.Dec.crash (Proc.hash p)
  | Driver.Stop -> Telemetry.Dec.schedule 0  (* never in a menu *)

let stats_of_state ~elapsed_ns ~events_dropped st : Explore_stats.t =
  {
    Explore_stats.zero with
    Explore_stats.nodes = st.nodes;
    runs = st.runs;
    steps_executed = !(st.ticks);
    steps_replayed = st.replayed;
    replays_avoided = st.avoided;
    por_prunes = st.por_pruned;
    race_reversals = st.reversals;
    invoke_order_prunes = st.invoke_pruned;
    proviso_wakes = st.proviso;
    cycles_examined = st.cycles;
    fair_cycles = st.fair;
    footprint_violations =
      (match st.shadow with
      | Some sh -> Runtime.shadow_violation_count sh
      | None -> 0);
    elapsed_ns;
    events_dropped;
  }

let rec take k xs =
  if k <= 0 then []
  else match xs with [] -> [] | x :: tl -> x :: take (k - 1) tl

(* The abstract cell of the tick that applied [d] and appended the
   events [fresh]: exactly what {!Lasso.tick_cells} reports for that
   tick, so certificates built from these cells replay-compare
   directly. *)
let cell_of d fresh =
  (match d with
  | Driver.Schedule p -> [ Printf.sprintf "p%d:step" p ]
  | _ -> [])
  @ List.map Lasso.skeleton fresh

let goods_of ~good fresh =
  List.fold_left
    (fun acc e ->
      match Event.response e with
      | Some res when good res -> Proc.Set.add (Event.proc e) acc
      | _ -> acc)
    Proc.Set.empty fresh

let proc_of = function
  | Driver.Schedule p | Driver.Invoke (p, _) | Driver.Crash p -> p
  | Driver.Stop -> invalid_arg "Live_explore: Stop is not a tick"

(* Apply [d] to [cursor] and return the events the tick appended,
   oldest first.  Every event a tick records belongs to the decision's
   process, so they are the newest entries of its per-process list. *)
let step cursor d =
  let before = History.length (Runner.Cursor.view cursor).Driver.history in
  Runner.Cursor.apply cursor d;
  let view = Runner.Cursor.view cursor in
  List.rev
    (take
       (History.length view.Driver.history - before)
       (view.Driver.events (proc_of d)))

(* The first item of [d]'s cell, known before [d] executes: the grant
   of a schedule, else the invocation or crash event it records. *)
let head_code d =
  (proc_of d lsl 2)
  lor match d with Driver.Schedule _ -> 0 | Driver.Invoke _ -> 1 | _ -> 3

let intern cells d fresh =
  let items = List.map item_code fresh in
  let key =
    match d with Driver.Schedule p -> (p lsl 2) :: items | _ -> items
  in
  match Hashtbl.find_opt cells.ids key with
  | Some id -> id
  | None ->
      let id = Hashtbl.length cells.ids in
      Hashtbl.add cells.ids key id;
      Hashtbl.add cells.names id (cell_of d fresh);
      id

(* The walk's current path, one slot per tick, overwritten in place as
   the depth-first walk backtracks.  [runs] holds, for tick [t] and
   period [p], the number of consecutive ticks ending at [t] whose cell
   equals the cell [p] ticks earlier, so a node of length [len] closes
   a [p]-periodic candidate iff [run (len - 1) p >= p].  A linear walk
   ({!certify_run}) keeps one row and updates it in place. *)
type ('inv, 'res) path = {
  script : ('inv, 'res) Driver.decision array;
  cell : int array;
  head : int array;
  goods : Proc.Set.t array;
  runs : int array array;
  pcap : int;  (* the largest period a row tracks *)
}

let new_path ~size ~max_period ~rows =
  let pcap = min max_period (size / 2) in
  {
    script = Array.make size Driver.Stop;
    cell = Array.make size 0;
    head = Array.make size 0;
    goods = Array.make size Proc.Set.empty;
    runs = Array.init rows (fun _ -> Array.make (pcap + 1) 0);
    pcap;
  }

let row path t = path.runs.(t mod Array.length path.runs)

let push st ~good path t d fresh =
  let id = intern st.cells d fresh in
  path.script.(t) <- d;
  path.cell.(t) <- id;
  path.head.(t) <- head_code d;
  path.goods.(t) <- goods_of ~good fresh;
  let cur = row path t in
  let prev = if t = 0 then cur else row path (t - 1) in
  for p = 1 to path.pcap do
    cur.(p) <- (if p <= t && path.cell.(t - p) = id then prev.(p) + 1 else 0)
  done

let slice a lo hi = List.init (hi - lo) (fun i -> a.(lo + i))

(* Could the child reached by [d] from a node of length [len] close a
   candidate?  Its period-[p] check needs the parent's newest [p - 1]
   cells to repeat [p] back and the new cell to equal the one [p] back,
   whose first item must then be [d]'s head.  [false] decides every
   check of the child without executing [d]. *)
let may_close path len d =
  let pmax = min path.pcap ((len + 1) / 2) in
  pmax >= 1
  &&
  let prev = row path (len - 1) and h = head_code d in
  let rec go p =
    p <= pmax && ((prev.(p) >= p - 1 && path.head.(len - p) = h) || go (p + 1))
  in
  go 1

(* Evaluate every candidate cycle anchored at the node of length [len]:
   for each period [p <= max_period], the suffix of the last [2p] ticks
   whose per-tick cells are [p]-periodic (two full repetitions
   observed).  A candidate is a fair cycle when every correct,
   non-blocked process takes a grant on it; it violates [point] per
   {!Freedom.violated_on_cycle}; and it is accepted only if its
   certificate {e pumps}: continuing stem + cycle for [reps]
   repetitions reproduces the cells and boundary digest on every
   repetition and the pumped window carries the standard bounded
   violation.  At a [leaf] the node's own cursor stands at stem +
   cycle and nothing reads it afterwards, so the first pump continues
   from it; any other pump replays stem + cycle into a fresh cursor.
   Raises {!Found_lasso} with [st.found] set on the first accepted
   candidate (shortest period first). *)
let eval_candidates st ~factory ~good ~point ~pump_ticks
    ~blocked ~leaf cursor path len =
  if len >= 2 then begin
    let runs = row path (len - 1) in
    let pmax = min path.pcap (len / 2) in
    let free = ref leaf in
    (* Read off the node's view before any pump consumes its cursor. *)
    let sets =
      lazy
        (let view = Runner.Cursor.view cursor in
         ( Proc.Set.of_list
             (List.filter
                (fun p -> view.Driver.status p <> Runtime.Crashed)
                (Proc.all ~n:view.Driver.n)),
           blocked view ))
    in
    for p = 1 to pmax do
      if st.found = None && runs.(p) >= p then begin
        let correct, blocked = Lazy.force sets in
        st.cycles <- st.cycles + 1;
        let granted = ref Proc.Set.empty in
        let progressed = ref Proc.Set.empty in
        for t = len - p to len - 1 do
          (match path.script.(t) with
          | Driver.Schedule q -> granted := Proc.Set.add q !granted
          | _ -> ());
          progressed := Proc.Set.union path.goods.(t) !progressed
        done;
        let granted = !granted in
        let fair_cycle =
          Proc.Set.subset (Proc.Set.diff correct blocked) granted
        in
        let fair_violating =
          fair_cycle
          && Freedom.violated_on_cycle ~correct ~active:granted
               ~progressed:!progressed point
        in
        Telemetry.emit st.sink Telemetry.Cycle_candidate p
          (if fair_violating then 1 else 0);
        if fair_violating then begin
          st.fair <- st.fair + 1;
          let stem = slice path.script 0 (len - p) in
          let cycle = slice path.script (len - p) len in
          let reps = max 2 ((pump_ticks + p - 1) / p) in
          (* The pump span closes with its verdict on every path —
             rejected, refuted, or accepted — before [Found_lasso] can
             unwind, so traces stay balanced. *)
          Telemetry.emit st.sink Telemetry.Pump_start p 0;
          let boundary =
            if !free then begin
              free := false;
              cursor
            end
            else
              Runner.Cursor.replay
                ~n:(Runner.Cursor.view cursor).Driver.n
                ~factory:(factory ()) ~ticks:st.ticks (stem @ cycle)
          in
          let cert =
            Lasso.cert_of_cursor ~stem ~cycle
              ~cells:
                (List.map (Hashtbl.find st.cells.names)
                   (slice path.cell (len - p) len))
              boundary
          in
          match Lasso.pump_from ~repetitions:reps boundary cert with
          | Error _ -> Telemetry.emit st.sink Telemetry.Pump_verdict p 0
          | Ok rep ->
              let certified =
                Proc.Set.subset (Fairness.starved rep) blocked
                && (not (Freedom.holds ~good rep point))
                && Option.is_some (Lasso.window_period rep)
              in
              Telemetry.emit st.sink Telemetry.Pump_verdict p
                (if certified then 1 else 0);
              if certified then begin
                st.found <- Some cert;
                raise Found_lasso
              end
        end
      end
    done
  end

let search ~n ~factory ~invoke ~good ~point ~depth ?(max_crashes = 0)
    ?max_period ?pump_ticks ?(invoke_order = false) ?(dpor = false)
    ?proviso_bound ?(obs = Obs.disabled) ?(sanitize = false) ?(persist = false)
    ?resume ?cancel () =
  let t0 = Clock.now_ns () in
  let cancel = match cancel with Some f -> f | None -> fun () -> false in
  (match resume with
  | Some f when f.lf_depth >= depth ->
      invalid_arg "Live_explore.search: resume frontier not shallower"
  | _ -> ());
  (* Default period bound: ceil(depth / 2), the largest period for
     which two full repetitions fit in a depth-bounded suffix at {e
     some} node of the walk (detection at a node of length [len] needs
     [2p <= len]; the deepest nodes have [len = depth]).  A plain
     [depth / 2] floor is equivalent for detection — an odd depth's
     last tick cannot complete a second repetition — but ceil keeps
     the documented bound honest at odd depths and costs nothing. *)
  let max_period = Option.value max_period ~default:(max 1 ((depth + 1) / 2)) in
  let pump_ticks = Option.value pump_ticks ~default:(4 * depth) in
  (* Bounded-ignoring proviso: a process may stay asleep through at
     most this many consecutive edges of the walk before being
     force-woken.  Default 2, the minimal bound that prunes anything.
     It does not make the reduction complete for fair cycles: the
     reduced walk misses lassos the unreduced one finds (see the
     interface), and larger bounds miss more. *)
  let proviso_bound = Option.value proviso_bound ~default:2 in
  let st =
    new_state ~sink:(Obs.sink obs) ~progress:(Obs.progress obs) ~sanitize
      ~dpor ()
  in
  wire_progress st;
  let all_procs = Proc.all ~n in
  (* The decision menu, in the same canonical order as {!Explore}:
     step/invoke process 1..n, then (under the crash budget) crash
     process 1..n — so the emitted certificate is the
     lexicographically least in that order.  [invoke_order] is the one
     reduction sound for cycle detection: when several idle processes
     could be invoked, offer only the least one's invocation
     (invocations commute with everything, and the normalization is
     configuration-local, so it maps periodic runs to periodic runs —
     unlike the safety engine's path-dependent sleep sets). *)
  let menu view len crashes =
    if len >= depth then []
    else begin
      let seen_invoke = ref false in
      let steps =
        List.concat_map
          (fun p ->
            match view.Driver.status p with
            | Runtime.Ready -> [ Driver.Schedule p ]
            | Runtime.Idle -> begin
                match invoke view p with
                | Some inv ->
                    if invoke_order && !seen_invoke then begin
                      st.invoke_pruned <- st.invoke_pruned + 1;
                      Telemetry.emit st.sink Telemetry.Invoke_prune len 1;
                      []
                    end
                    else begin
                      seen_invoke := true;
                      [ Driver.Invoke (p, inv) ]
                    end
                | None -> []
              end
            | Runtime.Crashed -> [])
          all_procs
      in
      let crash_branches =
        if crashes < max_crashes then
          List.filter_map
            (fun p ->
              if view.Driver.status p = Runtime.Crashed then None
              else Some (Driver.Crash p))
            all_procs
        else []
      in
      steps @ crash_branches
    end
  in
  let blocked_at view =
    Proc.Set.of_list
      (List.filter
         (fun p ->
           view.Driver.status p = Runtime.Idle
           && Option.is_none (invoke view p))
         all_procs)
  in
  (* Cut-leaf test, as in {!Explore.explore}: would the menu be
     nonempty with the depth guard lifted?  ([invoke_order] never
     empties a nonempty raw menu — the least invocation survives.) *)
  let has_future view crashes =
    List.exists
      (fun p ->
        match view.Driver.status p with
        | Runtime.Ready -> true
        | Runtime.Idle -> invoke view p <> None
        | Runtime.Crashed -> false)
      all_procs
    || crashes < max_crashes
       && List.exists
            (fun p -> view.Driver.status p <> Runtime.Crashed)
            all_procs
  in
  (* Settle a child's candidate sleep set once its edge [d] has
     executed (DPOR only).  Three filters, in order: (1) race
     reversal — wake every sleeper whose pending footprint conflicts
     with the accesses [d] actually performed; (2) the decision kind —
     crashes wake everyone (handled by the caller passing [] as the
     candidate), invocations are process-local and keep everyone;
     (3) the bounded-ignoring proviso — bump each survivor's streak
     and force-wake those that reach [proviso_bound]. *)
  let settle_sleep child d candidate len =
    let advanced =
      match d with
      | Driver.Schedule _ ->
          let observed =
            Dpor.observed_step_mask ~probe:st.probe ~declared:None
          in
          let keep, woken =
            List.partition
              (fun (z, _) ->
                not
                  (Dpor.wakes_mask ~observed
                     ~pending:(Runner.Cursor.pending_mask child z)))
              candidate
          in
          if woken <> [] then begin
            st.reversals <- st.reversals + List.length woken;
            Telemetry.emit st.sink Telemetry.Race_reversal len
              (List.length woken)
          end;
          keep
      | _ -> candidate
    in
    let kept, expired =
      List.partition (fun (_, streak) -> streak + 1 < proviso_bound) advanced
    in
    if expired <> [] then begin
      st.proviso <- st.proviso + List.length expired;
      Telemetry.emit st.sink Telemetry.Proviso_wake len (List.length expired)
    end;
    List.map (fun (z, streak) -> (z, streak + 1)) kept
  in
  let path = new_path ~size:(max 1 depth) ~max_period ~rows:(max 1 depth) in
  (* As in {!Explore}: [node] wraps a node's body in the node span,
     closed on every exit ([Found_lasso] unwinds included), and polls
     [cancel] inside it.  [visit] is a node with a cursor; [sleep]
     carries each slept process with its ignoring streak ([] with DPOR
     off). *)
  let node len body =
    st.nodes <- st.nodes + 1;
    Progress.tick st.progress st.sample;
    let body () =
      if cancel () then raise Cancelled;
      body ()
    in
    if Telemetry.enabled st.sink then begin
      Telemetry.emit st.sink Telemetry.Node_enter len 0;
      Fun.protect
        ~finally:(fun () -> Telemetry.emit st.sink Telemetry.Node_leave len 0)
        body
    end
    else body ()
  in
  let rec visit cursor len crashes sleep =
    node len (fun () -> visit_body cursor len crashes sleep)
  and visit_body cursor len crashes sleep =
    let view = Runner.Cursor.view cursor in
    (* Leafness and the cut-leaf test ("would the menu be nonempty with
       the depth guard lifted?") read the view before a leaf's pump
       consumes its cursor. *)
    let at_bound = len >= depth in
    let future = ((not at_bound) || persist) && has_future view crashes in
    let leaf = at_bound || not future in
    eval_candidates st ~factory ~good ~point ~pump_ticks
      ~blocked:blocked_at ~leaf cursor path len;
    if leaf then begin
      st.runs <- st.runs + 1;
      if future then begin
        (* A cut leaf (persist mode): record the coded script and the
           sleep set with its proviso streaks (packed as
           [(streak << 8) | proc]) so a deeper resume re-settles
           nothing. *)
        st.fr_cuts <- st.fr_cuts + 1;
        st.fr_rev_seeds <-
          {
            ls_script =
              List.map Explore.code_of_decision (slice path.script 0 len);
            ls_sleep = List.map (fun (z, s) -> (s lsl 8) lor z) sleep;
          }
          :: st.fr_rev_seeds
      end
    end
    else begin
      let decisions = menu view len crashes in
      (* Sleep-set filter, guarded by the cycle proviso.  A slept
         process's step commutes with everything executed since it
         went to sleep, so granting it here only step-swaps a run an
         earlier sibling explores — {e for safety}.  For cycle
         detection two extra wakes limit the ignoring problem: a path
         is never truncated outright (if every enabled decision is
         asleep, all sleepers are force-woken), and no process sleeps
         through more than [proviso_bound] consecutive edges
         ([settle_sleep]).  This does not keep every lasso: see the
         interface. *)
      let asleep, active =
        if dpor && sleep <> [] then
          List.partition
            (fun d ->
              match d with
              | Driver.Schedule p -> List.mem_assoc p sleep
              | _ -> false)
            decisions
        else ([], decisions)
      in
      let asleep, active, sleep =
        if active = [] && asleep <> [] then begin
          st.proviso <- st.proviso + List.length asleep;
          Telemetry.emit st.sink Telemetry.Proviso_wake len
            (List.length asleep);
          ([], decisions, [])
        end
        else (asleep, active, sleep)
      in
      st.por_pruned <- st.por_pruned + List.length asleep;
      if asleep <> [] then
        Telemetry.emit st.sink Telemetry.Por_sleep len (List.length asleep);
      (* Children with their candidate sleep sets: each explored
         sibling falls asleep (streak 0) for the siblings after it;
         crashes wake everyone. *)
      let children =
        if not dpor then List.map (fun d -> (d, [])) active
        else
          List.fold_left
            (fun (acc, prev) d ->
              let child_sleep =
                match d with Driver.Crash _ -> [] | _ -> prev
              in
              let prev' =
                match d with
                | Driver.Schedule p -> (p, 0) :: List.remove_assoc p prev
                | _ -> prev
              in
              ((d, child_sleep) :: acc, prev'))
            ([], sleep) active
          |> fst |> List.rev
      in
      (* A depth-bound child has an empty menu, so its candidate checks
         are all it computes; when [may_close] rules them out it is
         accounted without a cursor.  Persist mode keeps cut leaves'
         cursors: their seeds record sleep sets settled from the
         executed step.  The node's own cursor goes to the first child
         that needs one; later ones replay the prefix. *)
      let cursorless d =
        len + 1 = depth && (not persist) && not (may_close path len d)
      in
      let own = ref (Some cursor) in
      List.iter
        (fun (d, child_sleep) ->
          Telemetry.emit st.sink Telemetry.Decision (len + 1) (dec_code d);
          if cursorless d then begin
            st.avoided <- st.avoided + 1;
            node (len + 1) (fun () -> st.runs <- st.runs + 1)
          end
          else begin
            let child =
              match !own with
              | Some c ->
                  own := None;
                  st.avoided <- st.avoided + 1;
                  c
              | None ->
                  st.replayed <- st.replayed + len;
                  Runner.Cursor.replay ~n ~factory:(factory ())
                    ~ticks:st.ticks ?shadow:st.shadow ?probe:st.probe
                    (slice path.script 0 len)
            in
            let fresh = step child d in
            let settled =
              if dpor then settle_sleep child d child_sleep (len + 1) else []
            in
            push st ~good path len d fresh;
            visit child (len + 1)
              (match d with Driver.Crash _ -> crashes + 1 | _ -> crashes)
              settled;
            (* [child]'s subtree is done; its cursor is used no more. *)
            Runner.Cursor.release child
          end)
        children
    end
  in
  let make_cursor () =
    Runner.Cursor.create ~n ~factory:(factory ()) ~ticks:st.ticks
      ?shadow:st.shadow ?probe:st.probe ()
  in
  (* Resuming: replay each stored seed decision by decision, rebuilding
     the path the walk would have carried (the {!certify_run} pattern),
     then visit only the seed subtrees on top of the stored base run
     count. *)
  let walk () =
    match resume with
    | None ->
        let c = make_cursor () in
        visit c 0 0 [];
        Runner.Cursor.release c
    | Some f ->
        st.runs <- f.lf_base_runs;
        List.iter
          (fun seed ->
            let c = make_cursor () in
            let len, crashes =
              List.fold_left
                (fun (len, crashes) code ->
                  let d =
                    Explore.decision_of_code ~invoke (Runner.Cursor.view c)
                      code
                  in
                  push st ~good path len d (step c d);
                  ( len + 1,
                    match d with Driver.Crash _ -> crashes + 1 | _ -> crashes ))
                (0, 0) seed.ls_script
            in
            st.replayed <- st.replayed + len;
            let sleep =
              List.map (fun c -> (c land 0xff, c asr 8)) seed.ls_sleep
            in
            visit c len crashes sleep;
            Runner.Cursor.release c)
          f.lf_seeds
  in
  let outcome =
    match walk () with
    | () -> No_fair_cycle
    | exception Found_lasso -> Lasso (Option.get st.found)
    | exception Cancelled ->
        raise
          (Explore.Interrupted
             (stats_of_state
                ~elapsed_ns:(Clock.now_ns () - t0)
                ~events_dropped:(Obs.events_dropped obs)
                st))
  in
  let frontier =
    match outcome with
    | No_fair_cycle when persist ->
        Some
          {
            lf_depth = depth;
            lf_max_period = max_period;
            lf_pump_ticks = pump_ticks;
            lf_base_runs = st.runs - st.fr_cuts;
            lf_seeds = List.rev st.fr_rev_seeds;
          }
    | _ -> None
  in
  {
    outcome;
    frontier;
    stats =
      stats_of_state
        ~elapsed_ns:(Clock.now_ns () - t0)
        ~events_dropped:(Obs.events_dropped obs)
        st;
  }

let certify_run ~n ~factory ~driver ~good ~point ~max_steps ?max_period
    ?pump_ticks () =
  let t0 = Clock.now_ns () in
  let max_period = Option.value max_period ~default:(max 1 (max_steps / 4)) in
  let pump_ticks = Option.value pump_ticks ~default:(max 64 (2 * max_period)) in
  let st = new_state () in
  let path = new_path ~size:(max 1 max_steps) ~max_period ~rows:1 in
  let cursor = Runner.Cursor.create ~n ~factory:(factory ()) ~ticks:st.ticks () in
  let rec go len =
    if len >= max_steps then len
    else
      match driver (Runner.Cursor.view cursor) with
      | Driver.Stop -> len
      | d ->
          push st ~good path len d (step cursor d);
          go (len + 1)
  in
  let len = go 0 in
  st.nodes <- len;
  st.runs <- 1;
  let outcome =
    match
      eval_candidates st ~factory ~good ~point ~pump_ticks
        ~blocked:(fun _ -> Proc.Set.empty) ~leaf:true cursor path len
    with
    | () -> No_fair_cycle
    | exception Found_lasso -> Lasso (Option.get st.found)
  in
  {
    outcome;
    frontier = None;
    stats =
      stats_of_state ~elapsed_ns:(Clock.now_ns () - t0) ~events_dropped:0 st;
  }

let validate_cert_codes ~n ~factory ~invoke ~good ~point ~pump_ticks ~stem
    ~cycle () =
  let p = List.length cycle in
  if p = 0 then None
  else
    let cursor = Runner.Cursor.create ~n ~factory:(factory ()) () in
    let apply_codes codes =
      List.map
        (fun code ->
          let d =
            Explore.decision_of_code ~invoke (Runner.Cursor.view cursor) code
          in
          (d, cell_of d (step cursor d)))
        codes
    in
    match
      let stem_ds = apply_codes stem in
      let cycle_ds = apply_codes cycle in
      (stem_ds, cycle_ds)
    with
    | exception _ -> None
    | stem_ds, cycle_ds -> (
        let view = Runner.Cursor.view cursor in
        let blocked =
          Proc.Set.of_list
            (List.filter
               (fun q ->
                 view.Driver.status q = Runtime.Idle
                 && Option.is_none (invoke view q))
               (Proc.all ~n))
        in
        let cert =
          Lasso.cert_of_cursor
            ~stem:(List.map fst stem_ds)
            ~cycle:(List.map fst cycle_ds)
            ~cells:(List.map snd cycle_ds)
            cursor
        in
        let reps = max 2 ((pump_ticks + p - 1) / p) in
        match Lasso.pump_from ~repetitions:reps cursor cert with
        | Error _ -> None
        | Ok rep ->
            if
              Proc.Set.subset (Fairness.starved rep) blocked
              && (not (Freedom.holds ~good rep point))
              && Option.is_some (Lasso.window_period rep)
            then Some cert
            else None)
