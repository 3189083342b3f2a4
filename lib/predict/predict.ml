open! Import

type params =
  { window : int
  ; max_iterations : int
  ; max_extra_per_location : int
  ; deadline : float option
  }

let default_params =
  { window = 256
  ; max_iterations = 20_000
  ; max_extra_per_location = 4
  ; deadline = None
  }

let relaxed_config (cfg : Happens_before.config) =
  { cfg with Happens_before.lock_rule = false; fifo_rule = false }

(* {1 Must-constraints}

   The static rules of Hb_edges.must hold in every admissible schedule,
   so they are hard ordering constraints on any reordering.  Everything
   schedule-dependent — lock acquisition order, queue dispatch order,
   run-to-completion — is instead enforced dynamically by simulating
   candidate orders through Step.apply. *)

let must_successors trace =
  let g = Graph.build ~coalesce:false trace in
  let n = Trace.length trace in
  let succs = Array.make n [] in
  Hb_edges.iter ~config:Hb_edges.must g ~f:(fun ~rule:_ src dst ->
    (* ~coalesce:false: every node is a single position *)
    let i = Graph.first_pos g src and j = Graph.first_pos g dst in
    succs.(i) <- j :: succs.(i));
  Array.map (List.sort_uniq compare) succs

module Solver = struct
  type outcome =
    | Scheduled of int list
    | Cyclic
    | Must_ordered
    | Exhausted
    | Out_of_budget

  let toposort ~n ~succs =
    let indegree = Array.make n 0 in
    Array.iteri
      (fun _ -> List.iter (fun v -> indegree.(v) <- indegree.(v) + 1))
      succs;
    let module S = Set.Make (Int) in
    let ready = ref S.empty in
    for v = n - 1 downto 0 do
      if indegree.(v) = 0 then ready := S.add v !ready
    done;
    let order = ref [] in
    let taken = ref 0 in
    while not (S.is_empty !ready) do
      let v = S.min_elt !ready in
      ready := S.remove v !ready;
      order := v :: !order;
      incr taken;
      List.iter
        (fun w ->
           indegree.(w) <- indegree.(w) - 1;
           if indegree.(w) = 0 then ready := S.add w !ready)
        succs.(v)
    done;
    if !taken = n then Some (List.rev !order) else None

  (* Forward reachability over an adjacency array, as a flag vector. *)
  let reachable adj start =
    let n = Array.length adj in
    let seen = Array.make n false in
    let rec go v =
      if not seen.(v) then begin
        seen.(v) <- true;
        List.iter go adj.(v)
      end
    in
    go start;
    seen

  exception Found of int list
  exception Budget

  let search ~trace ~state0 ~succs ~lo ~first ~second ~max_iterations =
    let m = second - lo + 1 in
    let idx p = p - lo in
    (* Window-local constraint graph.  Predecessors below the window are
       part of the replayed prefix and thus always satisfied; successors
       above it lie past the truncation point and constrain nothing. *)
    let lsuccs = Array.make m [] in
    let lpreds = Array.make m [] in
    for p = lo to second do
      List.iter
        (fun q ->
           if q >= lo && q <= second && q <> p then begin
             lsuccs.(idx p) <- idx q :: lsuccs.(idx p);
             lpreds.(idx q) <- idx p :: lpreds.(idx q)
           end)
        succs.(p)
    done;
    match toposort ~n:m ~succs:lsuccs with
    | None -> (Cyclic, 0)
    | Some _ ->
      let from_first = reachable lsuccs (idx first) in
      if from_first.(idx second) then (Must_ordered, 0)
      else begin
        let anc_second = reachable lpreds (idx second) in
        let anc_first = reachable lpreds (idx first) in
        (* Emission priority: reach the goal fast.  The flipped access
           itself first, then what must precede it, then what must
           precede the observed-first access (needed before the goal
           test can pass), then everything else; ties in trace order. *)
        let priority v =
          if v = idx second then 0
          else if anc_second.(v) then 1
          else if anc_first.(v) then 2
          else 3
        in
        let emitted = Bytes.make m '\000' in
        let is_emitted v = Bytes.get emitted v = '\001' in
        let preds_ok v = List.for_all is_emitted lpreds.(v) in
        (* The scheduler state is not a function of the emitted set
           alone: posts from different threads can enter a queue in
           either order, and dispatch eligibility depends on arrival
           order.  The memo key therefore includes the queue
           contents. *)
        let fingerprint st =
          let buf = Buffer.create (m + 32) in
          Buffer.add_string buf (Bytes.unsafe_to_string emitted);
          List.iter
            (fun (t, q) ->
               Buffer.add_char buf '|';
               Buffer.add_string buf
                 (string_of_int (Ident.Thread_id.to_int t));
               Buffer.add_char buf ':';
               List.iter
                 (fun task ->
                    Buffer.add_string buf (Ident.Task_id.to_string task);
                    Buffer.add_char buf ';')
                 (Queue_model.pending q))
            (State.all_queues st);
          Buffer.contents buf
        in
        let memo = Hashtbl.create 1024 in
        let iterations = ref 0 in
        let first_event = Trace.get trace first in
        let rec dfs st order_rev =
          incr iterations;
          if !iterations > max_iterations then raise Budget;
          if
            is_emitted (idx second)
            && preds_ok (idx first)
            && Result.is_ok (Step.apply st first_event)
          then raise (Found (List.rev (first :: order_rev)));
          let key = fingerprint st in
          if not (Hashtbl.mem memo key) then begin
            Hashtbl.add memo key ();
            let cands = ref [] in
            for v = m - 1 downto 0 do
              let p = lo + v in
              if p <> first && (not (is_emitted v)) && preds_ok v then
                match Step.apply st (Trace.get trace p) with
                | Ok st' -> cands := (priority v, p, st') :: !cands
                | Error _ -> ()
            done;
            let cands =
              List.sort
                (fun (x, p, _) (y, q, _) -> compare (x, p) (y, q))
                !cands
            in
            List.iter
              (fun (_, p, st') ->
                 Bytes.set emitted (idx p) '\001';
                 dfs st' (p :: order_rev);
                 Bytes.set emitted (idx p) '\000')
              cands
          end
        in
        match dfs state0 [] with
        | () -> (Exhausted, !iterations)
        | exception Found order -> (Scheduled order, !iterations)
        | exception Budget -> (Out_of_budget, !iterations)
      end
end

(* {1 Verdicts} *)

type refutation =
  | Cyclic_constraints
  | Must_path
  | Search_exhausted

type unknown_reason =
  | Window_exhausted
  | Budget_exhausted
  | Oracle_rejected of string
  | Input_not_replayable
  | Deadline

let refutation_label = function
  | Cyclic_constraints -> "cyclic-constraints"
  | Must_path -> "must-path"
  | Search_exhausted -> "search-exhausted"

let unknown_label = function
  | Window_exhausted -> "window-exhausted"
  | Budget_exhausted -> "budget-exhausted"
  | Oracle_rejected _ -> "oracle-rejected"
  | Input_not_replayable -> "input-not-replayable"
  | Deadline -> "deadline"

type witness =
  { w_trace : Trace.t
  ; w_first : int
  ; w_second : int
  ; w_flipped : bool
  ; w_wellformed : bool
  ; w_replayed : bool option
  ; w_unordered : bool
  }

type verdict =
  | Feasible of witness
  | Refuted of refutation
  | Unknown of unknown_reason

type pair_result =
  { pr_pair : Race.t
  ; pr_observed : bool
  ; pr_window : (int * int) option
  ; pr_iterations : int
  ; pr_verdict : verdict
  }

type report =
  { trace : Trace.t
  ; candidates : int
  ; dropped : int
  ; observed : int
  ; feasible : int
  ; refuted : int
  ; unknown : int
  ; extra : int
  ; replayable_input : bool
  ; degraded : bool
  ; pairs : pair_result list
  }

(* {1 The oracle}

   Every witness the engine is about to report Feasible is re-checked
   from scratch, by the independent checkers: admissibility
   (Wellformed), the transition system (Step.validate) and dense
   unorderedness of the pair at its new positions.  A bug anywhere in
   the window search can therefore only cost completeness, never
   soundness. *)

let dense_unordered ~config trace i j =
  let hb = Detector.relation ~config trace in
  not (Happens_before.ordered hb i j)

let check_witness ~config ~replay ~first ~second ~flipped trace =
  Obs.with_span "predict.witness" @@ fun () ->
  Obs.add ~n:(Trace.length trace) "predict.witness_events";
  let wellformed = Result.is_ok (Wellformed.check trace) in
  let replayed =
    if replay then Some (Result.is_ok (Step.validate trace)) else None
  in
  let unordered =
    wellformed && dense_unordered ~config trace first second
  in
  { w_trace = trace
  ; w_first = first
  ; w_second = second
  ; w_flipped = flipped
  ; w_wellformed = wellformed
  ; w_replayed = replayed
  ; w_unordered = unordered
  }

let witness_ok w =
  w.w_wellformed && w.w_unordered
  && match w.w_replayed with Some ok -> ok | None -> true

(* {1 The engine} *)

(* The search window for a non-observed candidate: [lo, second], always
   containing both accesses and spanning at most [params.window] events;
   [None] when the accesses lie further apart than the window allows.
   Shared between [solve_pair] and the parallel pre-population of the
   prefix-state cache in [analyze], which must agree on the starts. *)
let window_start ~params ~first ~second =
  if second - first + 1 > params.window then None
  else Some (min first (max 0 (second - params.window + 1)))

let solve_pair ~params ~config ~trace ~state_at ~succs ~replayable
    ~must_ordered (race : Race.t) ~observed =
  Obs.with_span "predict.pair" @@ fun () ->
  let a = race.Race.first.Race.position in
  let b = race.Race.second.Race.position in
  if observed then begin
    (* Already a dense race: the observed trace truncated right after
       the second access is its own witness (prefixes of admissible
       traces are admissible, and every rule instance and closure step
       of the prefix relation is one of the full relation, so the pair
       stays unordered).  The witness is a view of the analysed trace,
       checked like any other. *)
    let w =
      check_witness ~config ~replay:replayable ~first:a ~second:b
        ~flipped:false
        (Trace.prefix trace (b + 1))
    in
    if witness_ok w then begin
      Obs.add "predict.feasible";
      { pr_pair = race
      ; pr_observed = true
      ; pr_window = None
      ; pr_iterations = 0
      ; pr_verdict = Feasible w
      }
    end
    else begin
      Obs.add "predict.oracle_rejects";
      Obs.add "predict.unknown";
      { pr_pair = race
      ; pr_observed = true
      ; pr_window = None
      ; pr_iterations = 0
      ; pr_verdict = Unknown (Oracle_rejected "truncated witness rejected")
      }
    end
  end
  else if must_ordered a b then begin
    (* The must-relation — every rule of the dense relation except LOCK,
       FIFO and NOPRE included — orders the pair.  FIFO and NOPRE
       applied over must-facts derive must-facts (a dispatch order
       forced by must-ordered immediate posts to one queue is forced in
       every admissible schedule), so no reordering can flip the pair.
       This catches, far more cheaply than search exhaustion would, the
       common same-looper case: two tasks whose posts are chained
       through their poster's program order. *)
    Obs.add "predict.refuted";
    { pr_pair = race
    ; pr_observed = false
    ; pr_window = None
    ; pr_iterations = 0
    ; pr_verdict = Refuted Must_path
    }
  end
  else if not replayable then begin
    Obs.add "predict.unknown";
    { pr_pair = race
    ; pr_observed = false
    ; pr_window = None
    ; pr_iterations = 0
    ; pr_verdict = Unknown Input_not_replayable
    }
  end
  else
    match window_start ~params ~first:a ~second:b with
    | None ->
      Obs.add "predict.window_exhausted";
      Obs.add "predict.unknown";
      { pr_pair = race
      ; pr_observed = false
      ; pr_window = None
      ; pr_iterations = 0
      ; pr_verdict = Unknown Window_exhausted
      }
    | Some lo -> begin
    Obs.add "predict.windows";
    let outcome, iterations =
      Solver.search ~trace ~state0:(state_at lo) ~succs ~lo ~first:a
        ~second:b ~max_iterations:params.max_iterations
    in
    Obs.add ~n:iterations "predict.iterations";
    let finish verdict =
      { pr_pair = race
      ; pr_observed = false
      ; pr_window = Some (lo, b)
      ; pr_iterations = iterations
      ; pr_verdict = verdict
      }
    in
    match outcome with
    | Solver.Cyclic ->
      Obs.add "predict.refuted";
      finish (Refuted Cyclic_constraints)
    | Solver.Must_ordered ->
      Obs.add "predict.refuted";
      finish (Refuted Must_path)
    | Solver.Exhausted ->
      Obs.add "predict.refuted";
      finish (Refuted Search_exhausted)
    | Solver.Out_of_budget ->
      Obs.add "predict.unknown";
      finish (Unknown Budget_exhausted)
    | Solver.Scheduled order ->
      (* the replayed prefix [0, lo), then the solver's order *)
      let positions =
        Array.append (Array.init lo Fun.id) (Array.of_list order)
      in
      let pos_in_witness p =
        (* position of trace position [p] in the witness *)
        let rec find i = function
          | [] -> raise Not_found
          | q :: rest -> if q = p then i else find (i + 1) rest
        in
        lo + find 0 order
      in
      let first' = pos_in_witness a and second' = pos_in_witness b in
      let witness =
        match Trace.select trace positions with
        | Ok witness -> witness
        | Error msg -> invalid_arg ("Predict: ill-formed schedule: " ^ msg)
      in
      let w =
        check_witness ~config ~replay:true ~first:first'
          ~second:second' ~flipped:(second' < first') witness
      in
      if witness_ok w && w.w_flipped then begin
        Obs.add "predict.feasible";
        finish (Feasible w)
      end
      else begin
        Obs.add "predict.oracle_rejects";
        Obs.add "predict.unknown";
        finish (Unknown (Oracle_rejected "solver witness rejected"))
      end
  end

let analyze ?(params = default_params) ?(config = Detector.default_config)
    ?(jobs = 1) trace =
  Obs.with_span "predict.analyze" @@ fun () ->
  let trace = Trace.remove_cancelled trace in
  let dense = Detector.relation ~config trace in
  let relaxed_detector =
    { config with Detector.hb = relaxed_config config.Detector.hb }
  in
  let relaxed = Detector.relation ~config:relaxed_detector trace in
  let candidates = Race.detect ~jobs trace ~hb:relaxed in
  (* The must-relation: the dense configuration with only the LOCK rule
     off.  Its orderings hold in every admissible schedule (lock edges
     are the only schedule-dependent base facts; FIFO and NOPRE over
     must-facts are forced), so a candidate it orders is refutable
     without a search. *)
  let must_rel =
    Detector.relation
      ~config:
        { config with
          Detector.hb = { config.Detector.hb with lock_rule = false }
        }
      trace
  in
  let must_ordered i j = Happens_before.hb must_rel i j in
  let observed_race (r : Race.t) =
    not
      (Happens_before.ordered dense r.Race.first.Race.position
         r.Race.second.Race.position)
  in
  (* Cap the reordering candidates per location so one hot location
     cannot starve the rest of the trace; the drop count is reported,
     never silent.  Observed races are all kept. *)
  let seen_extra = Hashtbl.create 16 in
  let dropped = ref 0 in
  let selected =
    List.filter_map
      (fun r ->
         if observed_race r then Some (r, true)
         else if
           must_ordered r.Race.first.Race.position
             r.Race.second.Race.position
         then
           (* Refuted without a search; never charged against the
              per-location cap, so cheap refutations cannot starve a
              feasible pair at the same location. *)
           Some (r, false)
         else begin
           let key = Ident.Location.to_string (Race.location r) in
           let n =
             match Hashtbl.find_opt seen_extra key with
             | Some n -> n
             | None -> 0
           in
           if n >= params.max_extra_per_location then begin
             incr dropped;
             None
           end
           else begin
             Hashtbl.replace seen_extra key (n + 1);
             Some (r, false)
           end
         end)
      candidates
  in
  let replayable = Result.is_ok (Step.validate trace) in
  let succs = lazy (must_successors trace) in
  (* Prefix states are shared across pairs: the cache maps a window
     start [lo] to the state after replaying positions [0 .. lo-1].
     OCaml's Hashtbl is not domain-safe, so only the coordinating
     domain ever mutates the table: sequential runs fill it on demand
     through [state_at], parallel runs pre-populate every window start
     with [warm_state_cache] and hand the workers the read-only
     [state_at_ro]. *)
  let state_cache = Hashtbl.create 16 in
  let compute_state lo =
    let st = ref State.initial in
    for p = 0 to lo - 1 do
      match Step.apply !st (Trace.get trace p) with
      | Ok st' -> st := st'
      | Error _ -> assert false (* input validated replayable *)
    done;
    !st
  in
  let state_at lo =
    match Hashtbl.find_opt state_cache lo with
    | Some st -> st
    | None ->
      let st = compute_state lo in
      Hashtbl.replace state_cache lo st;
      st
  in
  (* Worker-domain view of the cache: never writes.  A miss (possible
     only if [warm_state_cache] ever diverged from [solve_pair]'s
     window choice) recomputes locally instead of touching the shared
     table. *)
  let state_at_ro lo =
    match Hashtbl.find_opt state_cache lo with
    | Some st -> st
    | None -> compute_state lo
  in
  let warm_state_cache () =
    let starts =
      List.filter_map
        (fun (r, observed) ->
           let a = r.Race.first.Race.position
           and b = r.Race.second.Race.position in
           if observed || must_ordered a b then None
           else window_start ~params ~first:a ~second:b)
        selected
      |> List.sort_uniq compare
    in
    (* One incremental replay of the trace covers every start. *)
    let st = ref State.initial in
    let pos = ref 0 in
    List.iter
      (fun lo ->
         while !pos < lo do
           (match Step.apply !st (Trace.get trace !pos) with
            | Ok st' -> st := st'
            | Error _ -> assert false);
           incr pos
         done;
         Hashtbl.replace state_cache lo !st)
      starts
  in
  let past_deadline () =
    match params.deadline with
    | None -> false
    | Some d -> Unix.gettimeofday () > d
  in
  let solve ~state_at (r, observed) =
    if past_deadline () && not observed then begin
      Obs.add "predict.unknown";
      { pr_pair = r
      ; pr_observed = false
      ; pr_window = None
      ; pr_iterations = 0
      ; pr_verdict = Unknown Deadline
      }
    end
    else
      solve_pair ~params ~config ~trace ~state_at ~succs:(Lazy.force succs)
        ~replayable ~must_ordered r ~observed
  in
  let pairs =
    if jobs > 1 then begin
      (* Each pair is a pure function of (trace, pair); force the
         shared caches before fanning out so the worker domains only
         read them. *)
      ignore (Lazy.force succs);
      (if replayable then warm_state_cache ());
      Par_pool.parallel_map ~jobs (solve ~state_at:state_at_ro) selected
    end
    else List.map (solve ~state_at) selected
  in
  let degraded =
    List.exists
      (fun p ->
         match p.pr_verdict with Unknown Deadline -> true | _ -> false)
      pairs
  in
  let count f = List.length (List.filter f pairs) in
  { trace
  ; candidates = List.length candidates
  ; dropped = !dropped
  ; observed = count (fun p -> p.pr_observed)
  ; feasible =
      count (fun p -> match p.pr_verdict with Feasible _ -> true | _ -> false)
  ; refuted =
      count (fun p -> match p.pr_verdict with Refuted _ -> true | _ -> false)
  ; unknown =
      count (fun p -> match p.pr_verdict with Unknown _ -> true | _ -> false)
  ; extra =
      count (fun p ->
        (not p.pr_observed)
        && match p.pr_verdict with Feasible _ -> true | _ -> false)
  ; replayable_input = replayable
  ; degraded
  ; pairs
  }

let locations_where pred report =
  List.filter_map
    (fun p ->
       if pred p then
         Some (Ident.Location.to_string (Race.location p.pr_pair))
       else None)
    report.pairs
  |> List.sort_uniq String.compare

let feasible_locations report =
  locations_where
    (fun p -> match p.pr_verdict with Feasible _ -> true | _ -> false)
    report

let extra_locations report =
  locations_where
    (fun p ->
       (not p.pr_observed)
       && match p.pr_verdict with Feasible _ -> true | _ -> false)
    report

let pp_report ppf report =
  Format.fprintf ppf
    "%d candidate pair(s): %d observed, %d feasible (%d by reordering \
     only), %d refuted, %d unknown%s%s"
    report.candidates report.observed report.feasible report.extra
    report.refuted report.unknown
    (if report.dropped > 0 then
       Printf.sprintf ", %d dropped by the per-location cap" report.dropped
     else "")
    (if report.degraded then " [degraded: deadline]" else "")

(* {1 JSON} *)

let access_json (a : Race.access) =
  Json.Object
    [ ("position", Json.int a.Race.position)
    ; ("kind", Json.String (if a.Race.is_write then "write" else "read"))
    ; ("location", Json.String (Ident.Location.to_string a.Race.location))
    ; ("thread", Json.int (Ident.Thread_id.to_int a.Race.thread))
    ; ( "task"
      , Json.option
          (fun t -> Json.String (Ident.Task_id.to_string t))
          a.Race.task )
    ]

let pair_json ~witness_path ~file p =
  let verdict, reason =
    match p.pr_verdict with
    | Feasible _ -> ("feasible", [])
    | Refuted r -> ("refuted", [ ("reason", Json.String (refutation_label r)) ])
    | Unknown u -> ("unknown", [ ("reason", Json.String (unknown_label u)) ])
  in
  let window =
    match p.pr_window with
    | Some (lo, hi) ->
      [ ("window", Json.Array [ Json.int lo; Json.int hi ])
      ; ("window_events", Json.int (hi - lo + 1))
      ]
    | None -> [ ("window", Json.Null) ]
  in
  let witness =
    match p.pr_verdict with
    | Feasible w ->
      [ ("flipped", Json.Bool w.w_flipped)
      ; ("witness_events", Json.int (Trace.length w.w_trace))
      ; ( "replay"
        , Json.Object
            [ ("wellformed", Json.Bool w.w_wellformed)
            ; ("step", Json.option (fun ok -> Json.Bool ok) w.w_replayed)
            ; ("unordered", Json.Bool w.w_unordered)
            ] )
      ; ("witness", Json.option Json.string (witness_path ~file ~pair:p))
      ]
    | Refuted _ | Unknown _ -> []
  in
  Json.Object
    ([ ("first", access_json p.pr_pair.Race.first)
     ; ("second", access_json p.pr_pair.Race.second)
     ; ("observed", Json.Bool p.pr_observed)
     ; ("verdict", Json.String verdict)
     ]
     @ reason @ window
     @ (("iterations", Json.int p.pr_iterations) :: witness))

let json_string ~params ~witness_path files =
  (* A catalog's document runs to hundreds of megabytes: one pair's
     value at a time. *)
  let add_file b (file, report) =
    Json.add_object_with_items b
      [ ("file", Json.String file)
      ; ("events", Json.int (Trace.length report.trace))
      ; ("replayable", Json.Bool report.replayable_input)
      ; ("degraded", Json.Bool report.degraded)
      ; ( "summary"
        , Json.Object
            [ ("candidates", Json.int report.candidates)
            ; ("observed", Json.int report.observed)
            ; ("feasible", Json.int report.feasible)
            ; ("extra", Json.int report.extra)
            ; ("refuted", Json.int report.refuted)
            ; ("unknown", Json.int report.unknown)
            ; ("dropped", Json.int report.dropped)
            ] )
      ; ("feasible_locations", Json.strings (feasible_locations report))
      ; ("extra_locations", Json.strings (extra_locations report))
      ]
      ~key:"pairs"
      (fun b p -> Json.to_buffer b (pair_json ~witness_path ~file p))
      report.pairs
  in
  let b = Buffer.create 4096 in
  Json.add_object_with_items b
    [ ("schema", Json.String "droidracer-predictions/1")
    ; ("window", Json.int params.window)
    ; ("max_iterations", Json.int params.max_iterations)
    ]
    ~key:"files" add_file files;
  Buffer.add_char b '\n';
  Buffer.contents b
