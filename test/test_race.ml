open Helpers
module Graph = Droidracer_core.Graph
module Hb = Droidracer_core.Happens_before
module Race = Droidracer_core.Race
module Classify = Droidracer_core.Classify
module Detector = Droidracer_core.Detector
module Streaming = Droidracer_core.Streaming_engine

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let race_pairs report =
  List.map
    (fun { Detector.race; _ } ->
       (race.Race.first.position, race.Race.second.position))
    report.Detector.all_races

let pair_list = Alcotest.(list (pair int int))

(* {1 The figures} *)

let test_figure3_no_races () =
  let report = Detector.analyze figure3 in
  Alcotest.check pair_list "no races in the PLAY scenario" [] (race_pairs report)

let test_figure4_two_races () =
  let report = Detector.analyze figure4 in
  Alcotest.check pair_list "the two races of Section 2.4"
    [ (fig 12, fig 21); (fig 16, fig 21) ]
    (race_pairs report)

let test_figure4_classification () =
  let report = Detector.analyze figure4 in
  let categories =
    List.map
      (fun { Detector.race; category } ->
         (race.Race.first.position, Classify.category_name category))
      report.Detector.all_races
  in
  Alcotest.(check (list (pair int string)))
    "multithreaded and cross-posted"
    [ (fig 12, "multithreaded"); (fig 16, "cross-posted") ]
    categories

let test_figure4_without_environment_model () =
  (* Stripping the enable modelling produces the false positive between
     operations 7 and 21 (Section 2.4). *)
  let report = Detector.analyze ~config:Detector.no_environment_model figure4 in
  check_bool "(7,21) reported as a race" true
    (List.mem (fig 7, fig 21) (race_pairs report));
  check_int "more races than with the model" 3
    (List.length report.Detector.all_races)

(* {1 Detection basics} *)

let test_read_read_not_a_race () =
  let t =
    trace [ threadinit 0; threadinit 1; read 0 (loc "a"); read 1 (loc "a") ]
  in
  check_int "no race between two reads" 0
    (List.length (Detector.analyze t).Detector.all_races)

let test_unordered_writes_race () =
  let t =
    trace [ threadinit 0; threadinit 1; write 0 (loc "a"); write 1 (loc "a") ]
  in
  let report = Detector.analyze t in
  Alcotest.check pair_list "one race" [ (2, 3) ] (race_pairs report);
  check_bool "multithreaded" true
    (match report.Detector.all_races with
     | [ { category = Classify.Multithreaded; _ } ] -> true
     | _ -> false)

let test_fork_ordering_suppresses_race () =
  let t =
    trace
      [ threadinit 0; write 0 (loc "a"); fork 0 1; threadinit 1
      ; write 1 (loc "a")
      ]
  in
  check_int "no race through fork" 0
    (List.length (Detector.analyze t).Detector.all_races)

let p1 = task ~instance:1 "p"
let p2 = task ~instance:2 "p"

let test_lock_spurious_ordering_not_missed () =
  (* The race that the naïve lock treatment misses (Section 1): two
     same-thread tasks, unordered posts, same lock. *)
  let t =
    trace
      [ threadinit 0
      ; threadinit 1
      ; threadinit 2
      ; attachq 2
      ; looponq 2
      ; post 0 p1 2
      ; post 1 p2 2
      ; begin_task 2 p1
      ; acquire 2 "l"
      ; write 2 (loc "a")  (* 9 *)
      ; release 2 "l"
      ; end_task 2 p1
      ; begin_task 2 p2
      ; acquire 2 "l"
      ; write 2 (loc "a")  (* 14 *)
      ; release 2 "l"
      ; end_task 2 p2
      ]
  in
  let report = Detector.analyze t in
  Alcotest.check pair_list "the single-threaded race is found" [ (9, 14) ]
    (race_pairs report);
  let naive =
    { Detector.default_config with
      hb =
        { Hb.default with lock_same_thread = true; restricted_transitivity = false }
    }
  in
  check_int "the naive combination misses it" 0
    (List.length (Detector.analyze ~config:naive t).Detector.all_races)

(* {1 Classification} *)

let test_co_enabled () =
  (* Two UI-event handlers enabled on the same screen, posted in some
     order by the looper: their enables are unordered w.r.t. each other's
     posts, so the race between them is co-enabled. *)
  let click1 = task "onClick1" and click2 = task "onClick2" in
  let t =
    trace
      [ threadinit 1
      ; attachq 1
      ; looponq 1
      ; enable 1 click1  (* 3 *)
      ; enable 1 click2  (* 4 *)
      ; post 1 click1 1  (* 5 *)
      ; post 1 click2 1  (* 6 *)
      ; begin_task 1 click1
      ; write 1 (loc "a")  (* 8 *)
      ; end_task 1 click1
      ; begin_task 1 click2
      ; write 1 (loc "a")  (* 11 *)
      ; end_task 1 click2
      ]
  in
  (* With both posts performed by the idle looper in sequence, FIFO
     would order them: the posts are in the same (absent) task context —
     two looper posts are unordered only if the looper context is not a
     task.  Here both posts are outside any task on a queue thread after
     loopOnQ, so no program order applies and the tasks race. *)
  let report = Detector.analyze t in
  (match report.Detector.all_races with
   | [ { race; category } ] ->
     check_int "first access" 8 race.Race.first.position;
     check_int "second access" 11 race.Race.second.position;
     check_bool "co-enabled" true
       (Classify.category_equal category Classify.Co_enabled)
   | races -> Alcotest.failf "expected one race, got %d" (List.length races))

let test_delayed_category () =
  let h = task "handler" and d = task "delayedTask" in
  let t =
    trace
      [ threadinit 0
      ; threadinit 1
      ; attachq 1
      ; looponq 1
      ; post ~flavour:(Operation.Delayed 500) 0 d 1
      ; post 0 h 1
      ; begin_task 1 h
      ; write 1 (loc "a")  (* 7 *)
      ; end_task 1 h
      ; begin_task 1 d
      ; write 1 (loc "a")  (* 10 *)
      ; end_task 1 d
      ]
  in
  let report = Detector.analyze t in
  (match report.Detector.all_races with
   | [ { category; _ } ] ->
     check_bool "delayed" true
       (Classify.category_equal category Classify.Delayed_race)
   | races -> Alcotest.failf "expected one race, got %d" (List.length races))

let test_unknown_category () =
  (* Two tasks self-posted by the idle looper of the racing thread, with
     no enables and no delays: none of the criteria discriminates the
     chains, so the race is unclassified.  (The looper's posts happen
     after loopOnQ and outside any task, so program order does not apply
     and FIFO finds no ordering between the posts.) *)
  let a = task "a" and b = task "b" in
  let t =
    trace
      [ threadinit 1
      ; attachq 1
      ; looponq 1
      ; post 1 a 1
      ; post ~flavour:Operation.Front 1 b 1
      ; begin_task 1 b
      ; write 1 (loc "m")  (* 6 *)
      ; end_task 1 b
      ; begin_task 1 a
      ; write 1 (loc "m")  (* 9 *)
      ; end_task 1 a
      ]
  in
  let report = Detector.analyze t in
  (match report.Detector.all_races with
   | [ { category; _ } ] ->
     check_bool "unknown" true (Classify.category_equal category Classify.Unknown)
   | races -> Alcotest.failf "expected one race, got %d" (List.length races))

let test_chain () =
  (* chain(16) in Figure 4 is the single post 13; for nested posts the
     chain lists outermost first. *)
  Alcotest.(check (list int)) "chain of read 16" [ fig 13 ]
    (Classify.chain figure4 (fig 16));
  Alcotest.(check (list int)) "chain of write 21" [ fig 19 ]
    (Classify.chain figure4 (fig 21));
  Alcotest.(check (list int)) "empty chain outside tasks" []
    (Classify.chain figure4 (fig 12))

let test_chain_nested () =
  let a = task "a" and b = task "b" in
  let t =
    trace
      [ threadinit 1
      ; attachq 1
      ; looponq 1
      ; post 1 a 1  (* 3 *)
      ; begin_task 1 a
      ; post 1 b 1  (* 5 *)
      ; end_task 1 a
      ; begin_task 1 b
      ; write 1 (loc "m")  (* 8 *)
      ; end_task 1 b
      ]
  in
  Alcotest.(check (list int)) "outermost first" [ 3; 5 ] (Classify.chain t 8)

(* {1 Deduplication (Table 3 counting)} *)

let test_distinct_races () =
  (* Two races of the same category on the same location count once;
     a race on another object of the same class counts separately. *)
  let m = loc ~obj:0 "f" and m' = loc ~obj:1 "f" in
  let t =
    trace
      [ threadinit 0
      ; threadinit 1
      ; write 0 m
      ; write 0 m
      ; write 0 m'
      ; write 1 m
      ; write 1 m'
      ]
  in
  let report = Detector.analyze t in
  check_int "all races" 3 (List.length report.Detector.all_races);
  check_int "distinct races" 2 (List.length report.Detector.distinct_races)

(* {1 Graph statistics (the Section 6 optimisation)} *)

let test_coalescing_counts () =
  let t =
    trace
      [ threadinit 0  (* anchor *)
      ; write 0 (loc "a")
      ; read 0 (loc "b")
      ; write 0 (loc "c")  (* one block of three accesses *)
      ; acquire 0 "l"  (* anchor *)
      ; read 0 (loc "a")
      ; read 0 (loc "a")  (* second block *)
      ; release 0 "l"  (* anchor *)
      ]
  in
  let g = Graph.build ~coalesce:true t in
  check_int "five nodes" 5 (Graph.node_count g);
  let gu = Graph.build ~coalesce:false t in
  check_int "eight uncoalesced nodes" 8 (Graph.node_count gu)

let test_enable_breaks_blocks () =
  (* An enable between accesses is an anchor: it must break the run
     (the ENABLE rules start edges there). *)
  let t =
    trace
      [ threadinit 0; write 0 (loc "a"); enable 0 (task "p"); read 0 (loc "a") ]
  in
  let g = Graph.build ~coalesce:true t in
  check_int "four nodes" 4 (Graph.node_count g)

(* {1 Properties} *)

let prop_coalescing_preserves_races =
  QCheck2.Test.make ~name:"coalescing does not change the race set" ~count:50
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 5 100))
    (fun (seed, size) ->
       let t = Random_trace.generate ~seed ~size () in
       let races config =
         race_pairs (Detector.analyze ~config t)
       in
       races Detector.default_config
       = races { Detector.default_config with coalesce = false })

let prop_no_race_between_ordered =
  QCheck2.Test.make ~name:"reported races are unordered pairs" ~count:50
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 5 100))
    (fun (seed, size) ->
       let t = Random_trace.generate ~seed ~size () in
       let report = Detector.analyze t in
       let hb = Detector.relation t in
       List.for_all
         (fun { Detector.race; _ } ->
            not
              (Hb.ordered hb race.Race.first.position
                 race.Race.second.position))
         report.Detector.all_races)

(* Detection drops a task cancelled before it began: the race list of a
   trace with a cancelled post is that of the trace without it, and a
   trace without cancels goes to the detector as it is. *)
let test_cancelled_post_leaves_races () =
  let p = task "p" and q = task "q" and f = loc "f" in
  let prefix = [ threadinit 0; threadinit 1; attachq 1; looponq 1 ] in
  let suffix = [ write 0 f; begin_task 1 q; write 1 f; end_task 1 q ] in
  let with_cancel =
    trace (prefix @ [ post 0 p 1; post 0 q 1; cancel 0 p ] @ suffix)
  in
  let without = trace (prefix @ [ post 0 q 1 ] @ suffix) in
  check_bool "cancel-free trace is not rebuilt" true
    (Trace.remove_cancelled without == without);
  Alcotest.check pair_list "the write-write race" [ (5, 7) ]
    (race_pairs (Detector.analyze without));
  Alcotest.check pair_list "cancelled post removed before detection"
    (race_pairs (Detector.analyze without))
    (race_pairs (Detector.analyze with_cancel))

(* The streaming engine without folding or sweeps is the online
   vector-clock engine of the engine ablation table, hence the name. *)
let prop_ablation_engine_subset =
  QCheck2.Test.make
    ~name:"clock-engine races are a subset of graph-engine races" ~count:60
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 5 120))
    (fun (seed, size) ->
       let t = Random_trace.generate ~seed ~size () in
       let t = Trace.remove_cancelled t in
       let graph_races = race_pairs (Detector.analyze t) in
       let clock_races, _ =
         Streaming.detect ~config:Streaming.ablation_config t
       in
       List.for_all
         (fun (r : Race.t) ->
            List.mem (r.first.position, r.second.position) graph_races)
         clock_races)

let prop_multithreaded_iff_threads_differ =
  QCheck2.Test.make
    ~name:"a race is classified multithreaded iff its threads differ" ~count:40
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 5 100))
    (fun (seed, size) ->
       let t = Random_trace.generate ~seed ~size () in
       let report = Detector.analyze t in
       List.for_all
         (fun { Detector.race; category } ->
            Classify.category_equal category Classify.Multithreaded
            = not
                (Ident.Thread_id.equal race.Race.first.thread
                   race.Race.second.thread))
         report.Detector.all_races)

let prop_no_race_within_one_task =
  QCheck2.Test.make ~name:"accesses of one task never race" ~count:40
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 5 100))
    (fun (seed, size) ->
       let t = Random_trace.generate ~seed ~size () in
       let report = Detector.analyze t in
       List.for_all
         (fun { Detector.race; _ } ->
            match race.Race.first.task, race.Race.second.task with
            | Some p, Some q -> not (Ident.Task_id.equal p q)
            | (Some _ | None), _ -> true)
         report.Detector.all_races)

(* {1 The node-pair scan against literal oracles} *)

module Reference_hb = Droidracer_core.Reference_hb
module Obs = Droidracer_obs.Obs

(* Every conflicting access pair, asked of the rule oracle one by one:
   the definition of a race with nothing coalesced or skipped. *)
let reference_races t =
  let reference = Reference_hb.compute t in
  let accs = Array.of_list (Race.accesses t) in
  let out = ref [] in
  Array.iteri
    (fun i (a : Race.access) ->
       for j = i + 1 to Array.length accs - 1 do
         let b = accs.(j) in
         if Ident.Location.equal a.location b.location
            && (a.is_write || b.is_write)
            && not (Reference_hb.ordered reference a.position b.position)
         then out := (a.position, b.position) :: !out
       done)
    accs;
  List.rev !out

let node_pair_races ?jobs ~coalesce t =
  Race.detect ?jobs t ~hb:(Hb.compute (Graph.build ~coalesce t))

let positions races =
  List.map (fun (r : Race.t) -> (r.first.position, r.second.position)) races

let prop_node_pairs_match_reference =
  QCheck2.Test.make
    ~name:"node-pair scan equals the access-pair scan over the rule oracle"
    ~count:100
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 5 150))
    (fun (seed, size) ->
       let t = Random_trace.generate ~seed ~size () in
       let expected = reference_races t in
       positions (node_pair_races ~coalesce:true t) = expected
       && positions (node_pair_races ~coalesce:false t) = expected)

let race_counters f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
       let races = f () in
       (races, Obs.counters_with_prefix "race."))

let prop_jobs_independent =
  QCheck2.Test.make
    ~name:"races and race counters are identical for jobs 1 and 4" ~count:30
    ~print:QCheck2.Print.(triple int int bool)
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 5 400) bool)
    (fun (seed, size, coalesce) ->
       let t = Random_trace.generate ~seed ~size () in
       let hb = Hb.compute (Graph.build ~coalesce t) in
       let run jobs = race_counters (fun () -> Race.detect ~jobs t ~hb) in
       let races1, counters1 = run 1 and races4, counters4 = run 4 in
       (* a reported race proves the counters were recorded *)
       races1 = races4
       && counters1 = counters4
       && (races1 = [] || List.mem_assoc "race.node_pairs_examined" counters1))

let test_rejects_foreign_relation () =
  let hb = Detector.relation figure3 in
  Alcotest.check_raises "relation of another trace"
    (Invalid_argument "Race.detect: the relation was computed on another trace")
    (fun () -> ignore (Race.detect figure4 ~hb))

module Race_coverage = Droidracer_core.Race_coverage
module Minimize = Droidracer_core.Minimize

let test_race_coverage_handoff_pattern () =
  (* main writes x, y then the flag; the other thread reads the flag
     then x, y: the flag race covers both field races *)
  let t =
    trace
      [ threadinit 0
      ; threadinit 1
      ; write 0 (loc "x")  (* 2 *)
      ; write 0 (loc "y")  (* 3 *)
      ; write 0 (loc "flag")  (* 4 *)
      ; read 1 (loc "flag")  (* 5 *)
      ; read 1 (loc "x")  (* 6 *)
      ; read 1 (loc "y")  (* 7 *)
      ]
  in
  let hb = Detector.relation t in
  let races = Race.detect t ~hb in
  check_int "three races" 3 (List.length races);
  let groups = Race_coverage.group ~hb races in
  (match groups with
   | [ g ] ->
     check_int "flag race is the root" 4 g.Race_coverage.root.Race.first.position;
     check_int "covers the two field races" 2 (List.length g.Race_coverage.covered)
   | gs -> Alcotest.failf "expected one group, got %d" (List.length gs));
  check_int "one root to triage" 1 (List.length (Race_coverage.roots ~hb races))

let test_race_coverage_independent_races () =
  (* unrelated races stay separate roots *)
  let t =
    trace
      [ threadinit 0
      ; threadinit 1
      ; threadinit 2
      ; write 0 (loc "x")
      ; read 1 (loc "x")
      ; write 2 (loc "y")
      ; read 0 (loc "y")
      ]
  in
  let hb = Detector.relation t in
  let races = Race.detect t ~hb in
  check_int "two races" 2 (List.length races);
  check_int "two roots" 2 (List.length (Race_coverage.roots ~hb races))

(* {1 Minimization} *)

let test_minimize_figure4 () =
  (* the multithreaded race of Figure 4 survives minimization and the
     unrelated tasks disappear *)
  let report = Detector.analyze figure4 in
  match report.Detector.all_races with
  | { race; _ } :: _ ->
    let small, race' = Minimize.minimize report.Detector.trace race in
    check_bool "trace shrank" true
      (Trace.length small < Trace.length report.Detector.trace);
    check_bool "race persists" true
      (let hb = Detector.relation small in
       not
         (Hb.ordered hb race'.Race.first.position race'.Race.second.position));
    check_bool "same location" true
      (Ident.Location.equal (Race.location race') (Race.location race));
    (* minimizing again is a fixpoint *)
    let again, _ = Minimize.minimize small race' in
    check_int "fixpoint" (Trace.length small) (Trace.length again)
  | [] -> Alcotest.fail "figure 4 must race"

let test_minimize_rejects_non_race () =
  check_bool "ordered pair rejected" true
    (match
       Minimize.minimize figure3
         { Race.first =
             { position = fig 7
             ; location = Helpers.loc ~cls:"DwFileAct" "isActivityDestroyed"
             ; is_write = true
             ; thread = tid 1
             ; task = Trace.enclosing_task figure3 (fig 7)
             }
         ; second =
             { position = fig 12
             ; location = Helpers.loc ~cls:"DwFileAct" "isActivityDestroyed"
             ; is_write = false
             ; thread = tid 2
             ; task = None
             }
         }
     with
     | exception Invalid_argument _ -> true
     | _ -> false)

let prop_minimize_preserves_races =
  QCheck2.Test.make ~name:"minimization preserves every race it is given"
    ~count:25
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 10 80))
    (fun (seed, size) ->
       let t = Trace.remove_cancelled (Random_trace.generate ~seed ~size ()) in
       let report = Detector.analyze t in
       List.for_all
         (fun { Detector.race; _ } ->
            let small, race' = Minimize.minimize report.Detector.trace race in
            let hb = Detector.relation small in
            Trace.length small <= Trace.length report.Detector.trace
            && (not
                  (Hb.ordered hb race'.Race.first.position
                     race'.Race.second.position))
            && Ident.Location.equal (Race.location race') (Race.location race))
         report.Detector.all_races)

let () =
  Alcotest.run "race"
    [ ( "figures"
      , [ Alcotest.test_case "figure 3 has no races" `Quick test_figure3_no_races
        ; Alcotest.test_case "figure 4 has the two races" `Quick
            test_figure4_two_races
        ; Alcotest.test_case "figure 4 classification" `Quick
            test_figure4_classification
        ; Alcotest.test_case "figure 4 without the environment model" `Quick
            test_figure4_without_environment_model
        ] )
    ; ( "detection"
      , [ Alcotest.test_case "read-read" `Quick test_read_read_not_a_race
        ; Alcotest.test_case "unordered writes" `Quick test_unordered_writes_race
        ; Alcotest.test_case "fork ordering" `Quick
            test_fork_ordering_suppresses_race
        ; Alcotest.test_case "naive lock treatment misses a race" `Quick
            test_lock_spurious_ordering_not_missed
        ; Alcotest.test_case "cancelled post" `Quick
            test_cancelled_post_leaves_races
        ] )
    ; ( "classification"
      , [ Alcotest.test_case "co-enabled" `Quick test_co_enabled
        ; Alcotest.test_case "delayed" `Quick test_delayed_category
        ; Alcotest.test_case "unknown" `Quick test_unknown_category
        ; Alcotest.test_case "chains" `Quick test_chain
        ; Alcotest.test_case "nested chains" `Quick test_chain_nested
        ] )
    ; ( "reporting"
      , [ Alcotest.test_case "distinct races" `Quick test_distinct_races
        ; Alcotest.test_case "coalescing counts" `Quick test_coalescing_counts
        ; Alcotest.test_case "enable breaks blocks" `Quick
            test_enable_breaks_blocks
        ] )
    ; ( "minimization"
      , [ Alcotest.test_case "figure 4" `Quick test_minimize_figure4
        ; Alcotest.test_case "rejects ordered pairs" `Quick
            test_minimize_rejects_non_race
        ; QCheck_alcotest.to_alcotest prop_minimize_preserves_races
        ] )
    ; ( "coverage"
      , [ Alcotest.test_case "handoff pattern" `Quick
            test_race_coverage_handoff_pattern
        ; Alcotest.test_case "independent races" `Quick
            test_race_coverage_independent_races
        ] )
    ; ( "properties"
      , [ QCheck_alcotest.to_alcotest prop_multithreaded_iff_threads_differ
        ; QCheck_alcotest.to_alcotest prop_no_race_within_one_task
        ; QCheck_alcotest.to_alcotest prop_coalescing_preserves_races
        ; QCheck_alcotest.to_alcotest prop_no_race_between_ordered
        ; QCheck_alcotest.to_alcotest prop_ablation_engine_subset
        ] )
    ; ( "node pairs"
      , [ QCheck_alcotest.to_alcotest prop_node_pairs_match_reference
        ; QCheck_alcotest.to_alcotest prop_jobs_independent
        ; Alcotest.test_case "relation of another trace" `Quick
            test_rejects_foreign_relation
        ] )
    ]
