(* End-to-end tests: UI exploration -> trace generation -> offline race
   detection -> classification -> verification, plus the experiment
   drivers that regenerate the paper's tables. *)

module Trace = Droidracer_trace.Trace
module Trace_io = Droidracer_trace.Trace_io
module Step = Droidracer_semantics.Step
module Detector = Droidracer_core.Detector
module Classify = Droidracer_core.Classify
module Race = Droidracer_core.Race
module Streaming = Droidracer_core.Streaming_engine
module Hb = Droidracer_core.Happens_before
module Runtime = Droidracer_appmodel.Runtime
module Mp = Droidracer_corpus.Music_player
module Catalog = Droidracer_corpus.Catalog
module Synthetic = Droidracer_corpus.Synthetic
module Experiments = Droidracer_report.Experiments
module Table = Droidracer_report.Table

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

(* {1 The full pipeline on the motivating example} *)

let test_pipeline_via_trace_file () =
  (* generate -> save -> load -> analyze: the offline workflow of the
     real tool (Section 5) *)
  let r = Runtime.run ~options:Mp.options Mp.app Mp.back_scenario in
  let path = Filename.temp_file "droidracer" ".trace" in
  Trace_io.save path r.Runtime.observed;
  (match Trace_io.load path with
   | Error msg -> Alcotest.failf "reload failed: %s" msg
   | Ok trace ->
     let report = Detector.analyze trace in
     check_int "same two races" 2 (List.length report.Detector.all_races));
  Sys.remove path

let test_figure_traces_equal_model_traces () =
  (* the runtime regenerates traces structurally equivalent to the
     hand-written Figure 3/4 encodings: same race verdicts under the
     same analysis *)
  let back = Runtime.run ~options:Mp.options Mp.app Mp.back_scenario in
  let report = Detector.analyze back.Runtime.observed in
  let categories =
    List.map
      (fun { Detector.category; _ } -> Classify.category_name category)
      report.Detector.all_races
  in
  Alcotest.(check (list string))
    "same categories as the hand-written Figure 4"
    [ "multithreaded"; "cross-posted" ] categories

(* {1 Experiment drivers} *)

let aard_run = lazy (Experiments.run_spec (Option.get (Catalog.find "Aard Dictionary")))

let test_table2_aard_exact () =
  let run = Lazy.force aard_run in
  let t = Experiments.table2 [ run ] in
  let rendered = Table.render t in
  (* fields, threads and async tasks are exact for Aard Dictionary *)
  check_bool "fields exact" true
    (Astring_contains.contains rendered "189 / 189");
  check_bool "async exact" true (Astring_contains.contains rendered "58 / 58")

let test_table3_aard_exact () =
  let run = Lazy.force aard_run in
  let t = Experiments.table3 ~verify:true ~attempts:10 [ run ] in
  let rendered = Table.render t in
  check_bool "the verified multithreaded race" true
    (Astring_contains.contains rendered "1(1) / 1(1)")

let test_performance_table () =
  let run = Lazy.force aard_run in
  let t = Experiments.performance_table [ run ] in
  let rendered = Table.render t in
  check_bool "has a coalescing ratio" true
    (Astring_contains.contains rendered "%")

let test_environment_model_table () =
  let t = Experiments.environment_model_table () in
  let rendered = Table.render t in
  (* BACK: 2 races with enables, 3 without *)
  check_bool "figure 4 row" true
    (Astring_contains.contains rendered "BACK (Figure 4) 2 3")

let test_lifecycle_table () =
  let rendered = Table.render (Experiments.lifecycle_table ()) in
  check_bool "stopped row" true
    (Astring_contains.contains rendered "onRestart, onDestroy")

(* {1 The engine ablation} *)

(* One column of a rendered table (title, rule, header, rule, rows), by
   header: cells are padded to their column's width, so every cell
   starts at its header's offset. *)
let column rendered header =
  match String.split_on_char '\n' rendered with
  | _title :: _ :: header_line :: _ :: rows ->
    let n = String.length header in
    let rec offset i =
      if String.sub header_line i n = header then i else offset (i + 1)
    in
    let offset = offset 0 in
    List.filter_map
      (fun l ->
         if String.length l <= offset then None
         else
           let cell = String.sub l offset (String.length l - offset) in
           Some (List.hd (String.split_on_char ' ' cell)))
      rows
  | _ -> Alcotest.fail "not a rendered table"

let catalog_runs = lazy (Experiments.run_catalog ())

let test_clock_subset_on_corpus () =
  (* The clock column runs the streaming engine with folding and sweeps
     off: its races are graph races on every catalog app, and its counts
     are those of the full-access-history vector-clock ablation, pinned
     so the column cannot drift. *)
  let runs = Lazy.force catalog_runs in
  List.iter
    (fun (run : Experiments.app_run) ->
       let graph_races =
         List.map
           (fun { Detector.race; _ } ->
              (race.Race.first.position, race.Race.second.position))
           run.ar_report.Detector.all_races
       in
       let clock_races, _ =
         Streaming.detect ~config:Streaming.ablation_config
           (Trace.remove_cancelled run.ar_result.Runtime.observed)
       in
       check_bool "clock races subset of graph races" true
         (List.for_all
            (fun (r : Race.t) ->
               List.mem (r.first.position, r.second.position) graph_races)
            clock_races))
    runs;
  Alcotest.(check (list string)) "clock races per catalog app"
    [ "1"; "31"; "3"; "17"; "4"; "15"; "64"; "2"; "10"; "24"; "46"; "24"
    ; "98"; "22"; "258" ]
    (column (Table.render (Experiments.engine_table runs)) "Clock races")

let test_graph_race_pairs_on_corpus () =
  (* Table 3 pins distinct races per category; the racing access pairs
     behind them are pinned here, in catalog order, so a change to the
     pair scan that keeps every category count still shows. *)
  Alcotest.(check (list int)) "graph race pairs per catalog app"
    [ 1; 35; 4; 22; 6; 37; 66; 2; 10; 32; 54; 31; 125; 22; 314 ]
    (List.map
       (fun (run : Experiments.app_run) ->
          List.length run.ar_report.Detector.all_races)
       (Lazy.force catalog_runs))

let test_hb_edges_on_corpus () =
  (* The ordered pairs of the relation per catalog app, in catalog
     order, under the paper's relation and the four ablation switches:
     pinned, so a change to the closure shows even where every race
     count survives. *)
  let runs = Lazy.force catalog_runs in
  let edges hb =
    List.map
      (fun (run : Experiments.app_run) ->
         Hb.edge_count
           (Detector.relation ~config:{ Detector.default_config with hb }
              run.ar_result.Runtime.observed))
      runs
  in
  Alcotest.(check (list int)) "default"
    [ 28574; 28584; 212925; 80059; 972770; 123372; 87872; 17283; 3824440
    ; 52220; 250128; 80479; 409291; 4543; 101054 ]
    (List.map
       (fun (run : Experiments.app_run) -> run.ar_report.Detector.hb_edges)
       runs);
  Alcotest.(check (list int)) "restricted_transitivity = false"
    [ 28809; 28831; 213565; 80456; 974167; 123871; 88284; 17465; 3827202
    ; 52545; 250839; 80872; 410197; 4619; 101504 ]
    (edges { Hb.default with restricted_transitivity = false });
  Alcotest.(check (list int)) "front_rule"
    [ 28574; 28593; 212925; 80059; 972770; 123372; 87872; 17283; 3824440
    ; 52220; 250128; 80479; 409300; 4543; 101063 ]
    (edges { Hb.default with front_rule = true });
  Alcotest.(check (list int)) "lock_same_thread"
    [ 28574; 28608; 212949; 80083; 972794; 123396; 87896; 17283; 3824440
    ; 52244; 250152; 80503; 409315; 4543; 101078 ]
    (edges { Hb.default with lock_same_thread = true });
  Alcotest.(check (list int)) "Full_po"
    [ 29217; 35957; 224406; 89682; 995522; 131728; 94493; 18664; 3846570
    ; 57542; 264338; 90130; 433500; 5489; 116528 ]
    (edges { Hb.default with program_order = Hb.Full_po })

(* {1 Semantics of every corpus trace} *)

let test_corpus_traces_valid () =
  List.iter
    (fun name ->
       let spec = Option.get (Catalog.find name) in
       let b = Synthetic.build spec in
       let r =
         Runtime.run ~options:b.Synthetic.b_options b.Synthetic.b_app
           b.Synthetic.b_events
       in
       check_bool (name ^ " semantics") true
         (Step.is_valid (Lazy.force r.Runtime.full));
       check_bool (name ^ " structurally well-formed") true
         (Result.is_ok (Trace.of_events (Trace.events r.Runtime.observed))))
    [ "Aard Dictionary"; "Messenger" ]

let () =
  Alcotest.run "integration"
    [ ( "pipeline"
      , [ Alcotest.test_case "trace file round trip" `Quick
            test_pipeline_via_trace_file
        ; Alcotest.test_case "figure traces" `Quick
            test_figure_traces_equal_model_traces
        ] )
    ; ( "experiments"
      , [ Alcotest.test_case "table 2 (Aard)" `Quick test_table2_aard_exact
        ; Alcotest.test_case "table 3 (Aard)" `Quick test_table3_aard_exact
        ; Alcotest.test_case "performance table" `Quick test_performance_table
        ; Alcotest.test_case "environment model table" `Quick
            test_environment_model_table
        ; Alcotest.test_case "lifecycle table" `Quick test_lifecycle_table
        ] )
    ; ( "engines"
      , [ Alcotest.test_case "clock subset on corpus" `Slow
            test_clock_subset_on_corpus
        ; Alcotest.test_case "graph race pairs on corpus" `Slow
            test_graph_race_pairs_on_corpus
        ; Alcotest.test_case "hb edges on corpus" `Slow test_hb_edges_on_corpus
        ] )
    ; ( "corpus"
      , [ Alcotest.test_case "traces valid" `Quick test_corpus_traces_valid ] )
    ]
