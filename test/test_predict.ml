open Helpers
module Graph = Droidracer_core.Graph
module Hb = Droidracer_core.Happens_before
module Detector = Droidracer_core.Detector
module Race = Droidracer_core.Race
module Streaming = Droidracer_core.Streaming_engine
module Wellformed = Droidracer_trace.Wellformed
module Longtrace = Droidracer_corpus.Longtrace
module Vargen = Droidracer_corpus.Vargen
module Predict = Droidracer_predict.Predict
module Solver = Droidracer_predict.Predict.Solver
module Obs = Droidracer_obs.Obs

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let dense_races ?(config = Detector.default_config) ?(jobs = 1) t =
  let hb = Detector.relation ~config t in
  Race.detect ~jobs t ~hb

let race_locations races =
  List.map (fun r -> Ident.Location.to_string (Race.location r)) races
  |> List.sort_uniq String.compare

let positions (r : Race.t) =
  (r.Race.first.Race.position, r.Race.second.Race.position)

let verdict_of report (a, b) =
  List.find_map
    (fun (p : Predict.pair_result) ->
       if positions p.Predict.pr_pair = (a, b) then
         Some p.Predict.pr_verdict
       else None)
    report.Predict.pairs

let is_feasible = function Some (Predict.Feasible _) -> true | _ -> false

(* The witness soundness oracle used throughout: a Feasible verdict must
   carry a trace the independent checkers accept, with the racy pair at
   its recorded positions and unordered there. *)
let witness_sound t (p : Predict.pair_result) =
  match p.Predict.pr_verdict with
  | Predict.Refuted _ | Predict.Unknown _ -> true
  | Predict.Feasible w ->
    let wt = w.Predict.w_trace in
    let ops_match =
      Trace.op wt w.Predict.w_first
      = Trace.op t p.Predict.pr_pair.Race.first.Race.position
      && Trace.op wt w.Predict.w_second
         = Trace.op t p.Predict.pr_pair.Race.second.Race.position
    in
    w.Predict.w_wellformed
    && Result.is_ok (Wellformed.check wt)
    && w.Predict.w_replayed = Some (Step.is_valid wt)
    && w.Predict.w_unordered && ops_match
    && (let hb = Detector.relation wt in
        not
          (Hb.ordered hb w.Predict.w_first w.Predict.w_second))

(* {1 Pinned: the paper figures} *)

let test_figure4 () =
  let report = Predict.analyze figure4 in
  let dense = dense_races figure4 in
  check_bool "has candidates" true (report.Predict.candidates > 0);
  List.iter
    (fun r ->
       check_bool "dense race is feasible" true
         (is_feasible (verdict_of report (positions r))))
    dense;
  List.iter
    (fun p -> check_bool "witness sound" true (witness_sound figure4 p))
    report.Predict.pairs

(* {1 Pinned: a minimal lock-masked race}

   The observed schedule orders the two writes only through the LOCK
   edge (write1 ⪯ rel1 ⪯ acq2 ⪯ write2 with restricted transitivity);
   running the second task first is admissible, so the predictive
   engine must find the flip that every batch engine misses. *)

let p1 = task "p1"
let p2 = task "p2"
let masked_trace =
  let g = loc "g" in
  trace
    [ threadinit 0
    ; threadinit 1
    ; attachq 1
    ; looponq 1
    ; threadinit 2
    ; attachq 2
    ; looponq 2
    ; post 0 p1 1
    ; post 0 p2 2
    ; begin_task 1 p1
    ; write 1 g  (* 10 *)
    ; acquire 1 "l"
    ; release 1 "l"
    ; end_task 1 p1
    ; begin_task 2 p2
    ; acquire 2 "l"
    ; release 2 "l"
    ; write 2 g  (* 17 *)
    ; end_task 2 p2
    ]

let test_lock_masked_minimal () =
  (* Not a race of the observed schedule... *)
  check_int "no dense race" 0 (List.length (dense_races masked_trace));
  let streaming_races, _ = Streaming.detect masked_trace in
  check_int "no streaming race" 0 (List.length streaming_races);
  (* ...but feasible by reordering. *)
  let report = Predict.analyze masked_trace in
  check_int "one reordering-only race" 1 report.Predict.extra;
  (match verdict_of report (10, 17) with
   | Some (Predict.Feasible w) ->
     check_bool "flipped" true w.Predict.w_flipped;
     check_bool "second now first" true
       (w.Predict.w_second < w.Predict.w_first);
     check_bool "witness replays" true
       (w.Predict.w_replayed = Some true)
   | _ -> Alcotest.fail "pair (10,17) not feasible");
  List.iter
    (fun p ->
       check_bool "witness sound" true (witness_sound masked_trace p))
    report.Predict.pairs

(* Without the lock there is nothing to mask: the pair is already a
   dense race and must stay feasible (with the trivial witness). *)
let test_unmasked_still_feasible () =
  let g = loc "g" in
  let t =
    trace
      [ threadinit 0
      ; threadinit 1
      ; attachq 1
      ; looponq 1
      ; threadinit 2
      ; attachq 2
      ; looponq 2
      ; post 0 p1 1
      ; post 0 p2 2
      ; begin_task 1 p1
      ; write 1 g  (* 10 *)
      ; end_task 1 p1
      ; begin_task 2 p2
      ; write 2 g  (* 13 *)
      ; end_task 2 p2
      ]
  in
  check_int "dense race" 1 (List.length (dense_races t));
  let report = Predict.analyze t in
  check_int "observed" 1 report.Predict.observed;
  check_bool "feasible" true (is_feasible (verdict_of report (10, 13)))

(* {1 Pinned: FIFO alone refutes}

   Two immediate posts by one poster to one looper: the static must
   edges (program order, post, attach — no lock involved) leave the two
   task bodies unordered, yet FIFO dispatch of the must-ordered posts
   forces them in every admissible schedule.  The pair is a relaxed
   candidate, is not a dense race, and must be Refuted — by the
   must-relation pre-check in the engine, and by queue simulation (not
   a hang) when the window search runs directly. *)

let fifo_trace =
  let g = loc "g" in
  trace
    [ threadinit 0
    ; threadinit 1
    ; attachq 1
    ; looponq 1
    ; post 0 p1 1
    ; post 0 p2 1
    ; begin_task 1 p1
    ; write 1 g  (* 7 *)
    ; end_task 1 p1
    ; begin_task 1 p2
    ; write 1 g  (* 10 *)
    ; end_task 1 p2
    ]

let test_fifo_refutes () =
  (* A relaxed candidate: with FIFO off nothing orders the bodies. *)
  let relaxed =
    { Detector.default_config with
      Detector.hb = Predict.relaxed_config Hb.default
    }
  in
  check_int "relaxed candidate" 1
    (List.length (dense_races ~config:relaxed fifo_trace));
  (* Not a dense race: FIFO (not LOCK) orders it. *)
  check_int "no dense race" 0 (List.length (dense_races fifo_trace));
  let report = Predict.analyze fifo_trace in
  (match verdict_of report (7, 10) with
   | Some (Predict.Refuted Predict.Must_path) -> ()
   | _ -> Alcotest.fail "pair (7,10) not refuted by the must-relation");
  (* The window search reaches the same verdict from the static must
     edges alone: every emission order the dispatch policy admits keeps
     the pair in order, and the search terminates by exhaustion. *)
  let succs = Predict.must_successors fifo_trace in
  let outcome, iterations =
    Solver.search ~trace:fifo_trace ~state0:State.initial ~succs ~lo:0
      ~first:7 ~second:10 ~max_iterations:50_000
  in
  check_bool "search exhausts" true (outcome = Solver.Exhausted);
  check_bool "terminates within budget" true (iterations <= 50_000)

(* {1 Adversarial: the solver always terminates} *)

let test_cyclic_constraints () =
  (* A cycle in the constraint graph (impossible from real traces, but
     the solver must never hang on one). *)
  let succs = Array.make (Trace.length fifo_trace) [] in
  succs.(7) <- [ 10 ];
  succs.(10) <- [ 8; 7 ];
  succs.(8) <- [ 7 ];
  check_bool "toposort reports the cycle" true
    (Solver.toposort ~n:4
       ~succs:[| [ 1 ]; [ 2 ]; [ 0 ]; [] |]
     = None);
  let outcome, iterations =
    Solver.search ~trace:fifo_trace ~state0:State.initial ~succs ~lo:0
      ~first:7 ~second:10 ~max_iterations:1000
  in
  check_bool "cyclic outcome" true (outcome = Solver.Cyclic);
  check_int "no search nodes expanded" 0 iterations

let test_must_path_shortcut () =
  let succs = Array.make (Trace.length fifo_trace) [] in
  succs.(7) <- [ 9 ];
  succs.(9) <- [ 10 ];
  let outcome, _ =
    Solver.search ~trace:fifo_trace ~state0:State.initial ~succs ~lo:0
      ~first:7 ~second:10 ~max_iterations:1000
  in
  check_bool "must-ordered" true (outcome = Solver.Must_ordered)

let test_window_exhaustion () =
  Obs.enable ();
  Obs.reset ();
  let params = { Predict.default_params with Predict.window = 4 } in
  let report = Predict.analyze ~params masked_trace in
  (match verdict_of report (10, 17) with
   | Some (Predict.Unknown Predict.Window_exhausted) -> ()
   | _ -> Alcotest.fail "pair (10,17) should exhaust a 4-event window");
  let counted = Obs.counter_value "predict.window_exhausted" in
  Obs.disable ();
  Obs.reset ();
  check_bool "window_exhausted counter" true (counted >= 1)

let test_budget_exhaustion () =
  Obs.enable ();
  Obs.reset ();
  let params = { Predict.default_params with Predict.max_iterations = 1 } in
  let report = Predict.analyze ~params masked_trace in
  (match verdict_of report (10, 17) with
   | Some (Predict.Unknown Predict.Budget_exhausted) -> ()
   | _ -> Alcotest.fail "pair (10,17) should exhaust a 1-node budget");
  let counted = Obs.counter_value "predict.unknown" in
  Obs.disable ();
  Obs.reset ();
  check_bool "unknown counter" true (counted >= 1)

(* {1 Differential completeness on the planted corpora}

   Lock-masked Longtrace configs plant reordering-only ground truth:
   the masked locations must be invisible to the batch and streaming
   engines and found by the predictive engine, and predictive recall
   must cover everything the streaming engine reports and strictly
   extend it.  Four pinned (seed, shape, size) cases plus a
   Vargen-derived variant. *)

let longtrace_trace config ~events =
  let evs = ref [] in
  let n = Longtrace.generate ~config ~events (fun e -> evs := e :: !evs) in
  check_int "emitted" events n;
  Trace.of_events_exn (List.rev !evs)

let check_masked_case ~seed ~loopers ~masked ~events () =
  let config =
    { Longtrace.default_config with
      Longtrace.planted = 2
    ; masked
    ; loopers
    ; seed
    }
  in
  let t = longtrace_trace config ~events in
  check_bool "step valid" true (Step.is_valid t);
  let dense = dense_races t in
  let dense_locs = race_locations dense in
  let streaming_races, _ = Streaming.detect t in
  let streaming_locs = race_locations streaming_races in
  let report = Predict.analyze t in
  let feasible = Predict.feasible_locations report in
  let extra = Predict.extra_locations report in
  (* The masked pairs are invisible to the dense engine... *)
  List.iter
    (fun m ->
       check_bool ("dense misses " ^ m) false (List.mem m dense_locs);
       check_bool ("streaming misses " ^ m) false (List.mem m streaming_locs);
       (* ...and reachable only by reordering. *)
       check_bool ("predictive finds " ^ m) true (List.mem m extra))
    (Longtrace.masked_locations config);
  (* Predictive recall covers the dense engine (streaming races are a
     subset of dense races, so covering dense covers both). *)
  List.iter
    (fun l ->
       check_bool ("covers dense " ^ l) true (List.mem l feasible))
    dense_locs;
  List.iter
    (fun l ->
       check_bool ("covers streaming " ^ l) true (List.mem l feasible))
    streaming_locs;
  (* Reordering strictly extends the streaming engine's report. *)
  check_bool "more feasible pairs than streaming races" true
    (report.Predict.feasible > List.length streaming_races);
  (* Every dense race pair individually stays feasible. *)
  List.iter
    (fun r ->
       check_bool "dense pair feasible" true
         (is_feasible (verdict_of report (positions r))))
    dense;
  List.iter
    (fun p -> check_bool "witness sound" true (witness_sound t p))
    report.Predict.pairs

let test_vargen_masked_variant () =
  (* Find the first derived variant with masked ground truth and run
     the full pipeline on it — the corpus gate in miniature. *)
  let variants = Vargen.variants ~seed:7 ~events:1500 ~count:20 () in
  let v =
    match List.find_opt (fun v -> v.Vargen.v_masked <> []) variants with
    | Some v -> v
    | None -> Alcotest.fail "no masked variant in the first 20"
  in
  let t = longtrace_trace v.Vargen.v_config ~events:v.Vargen.v_events in
  let report = Predict.analyze t in
  let extra = Predict.extra_locations report in
  List.iter
    (fun m -> check_bool ("finds " ^ m) true (List.mem m extra))
    v.Vargen.v_masked;
  let dense_locs = race_locations (dense_races t) in
  let feasible = Predict.feasible_locations report in
  List.iter
    (fun l -> check_bool ("covers " ^ l) true (List.mem l feasible))
    dense_locs

(* {1 Soundness and completeness properties} *)

(* Every random Step-valid trace: predictive ⊇ dense, all witnesses
   pass the executable oracle, reports identical across jobs. *)
let prop_predictive_covers_dense =
  QCheck2.Test.make ~name:"predictive covers dense with sound witnesses"
    ~count:25
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 5 60))
    (fun (seed, size) ->
       let t = Random_trace.generate ~seed ~size () in
       let t = Trace.remove_cancelled t in
       let report = Predict.analyze t in
       let dense = dense_races t in
       List.for_all
         (fun r -> is_feasible (verdict_of report (positions r)))
         dense
       && List.for_all (witness_sound t) report.Predict.pairs)

let verdict_signature report =
  List.map
    (fun (p : Predict.pair_result) ->
       ( positions p.Predict.pr_pair
       , match p.Predict.pr_verdict with
         | Predict.Feasible w -> "feasible:" ^ string_of_bool w.Predict.w_flipped
         | Predict.Refuted r -> "refuted:" ^ Predict.refutation_label r
         | Predict.Unknown u -> "unknown:" ^ Predict.unknown_label u ))
    report.Predict.pairs

let prop_jobs_invariant =
  QCheck2.Test.make ~name:"report identical for jobs 1 and 4" ~count:15
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 5 50))
    (fun (seed, size) ->
       let t = Random_trace.generate ~seed ~size () in
       let r1 = Predict.analyze ~jobs:1 t in
       let r4 = Predict.analyze ~jobs:4 t in
       verdict_signature r1 = verdict_signature r4)

(* Flipped witnesses really are reorderings: same multiset of events. *)
let prop_witness_is_permutation =
  QCheck2.Test.make ~name:"flipped witness permutes a trace subset"
    ~count:20
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 5 60))
    (fun (seed, size) ->
       let t = Random_trace.generate ~seed ~size () in
       let t = Trace.remove_cancelled t in
       let report = Predict.analyze t in
       List.for_all
         (fun (p : Predict.pair_result) ->
            match p.Predict.pr_verdict with
            | Predict.Feasible w ->
              let sort es = List.sort compare es in
              let sub =
                sort (Trace.events w.Predict.w_trace)
              in
              (* every witness event is an event of the input (with
                 multiplicity) *)
              let rec included = function
                | [], _ -> true
                | _ :: _, [] -> false
                | (x :: xs as l), y :: ys ->
                  if x = y then included (xs, ys)
                  else if compare y x < 0 then included (l, ys)
                  else false
              in
              included (sub, sort (Trace.events t))
            | Predict.Refuted _ | Predict.Unknown _ -> true)
         report.Predict.pairs)

let () =
  Alcotest.run "predict"
    [ ( "pinned"
      , [ Alcotest.test_case "figure 4" `Quick test_figure4
        ; Alcotest.test_case "lock-masked minimal" `Quick
            test_lock_masked_minimal
        ; Alcotest.test_case "unmasked stays feasible" `Quick
            test_unmasked_still_feasible
        ; Alcotest.test_case "FIFO alone refutes" `Quick test_fifo_refutes
        ] )
    ; ( "adversarial"
      , [ Alcotest.test_case "cyclic constraints" `Quick
            test_cyclic_constraints
        ; Alcotest.test_case "must-path shortcut" `Quick
            test_must_path_shortcut
        ; Alcotest.test_case "window exhaustion" `Quick
            test_window_exhaustion
        ; Alcotest.test_case "budget exhaustion" `Quick
            test_budget_exhaustion
        ] )
    ; ( "planted corpora"
      , [ Alcotest.test_case "longtrace masked seed 11" `Quick
            (check_masked_case ~seed:11 ~loopers:3 ~masked:2 ~events:800)
        ; Alcotest.test_case "longtrace masked seed 11, 1600 events" `Quick
            (check_masked_case ~seed:11 ~loopers:3 ~masked:2 ~events:1600)
        ; Alcotest.test_case "longtrace masked seed 42" `Quick
            (check_masked_case ~seed:42 ~loopers:3 ~masked:2 ~events:800)
        ; Alcotest.test_case "longtrace masked seed 7" `Slow
            (check_masked_case ~seed:7 ~loopers:2 ~masked:3 ~events:900)
        ; Alcotest.test_case "vargen masked variant" `Slow
            test_vargen_masked_variant
        ] )
    ; ( "properties"
      , [ QCheck_alcotest.to_alcotest prop_predictive_covers_dense
        ; QCheck_alcotest.to_alcotest prop_jobs_invariant
        ; QCheck_alcotest.to_alcotest prop_witness_is_permutation
        ] )
    ]
