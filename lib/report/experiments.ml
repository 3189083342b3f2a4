open! Import
module Thread_id = Ident.Thread_id

type app_run =
  { ar_built : Synthetic.built
  ; ar_result : Runtime.run_result
  ; ar_report : Detector.report
  ; ar_engine : string
  }

(* The paper's thread counts exclude binder and other system threads. *)
let app_thread_counts run =
  let pool = run.ar_built.Synthetic.b_options.Runtime.binder_pool_size in
  let is_binder tid =
    let n = Thread_id.to_int tid in
    n >= 2 && n < 2 + pool
  in
  let trace = run.ar_result.Runtime.observed in
  let without_q, with_q =
    List.partition
      (fun tid -> not (Trace.has_queue trace tid))
      (List.filter (fun tid -> not (is_binder tid)) (Trace.threads trace))
  in
  (List.length without_q, List.length with_q)

let spec_of run = run.ar_built.Synthetic.b_spec

let pair_cell paper ours = Printf.sprintf "%d / %d" paper ours

let add_section_rows table rows_of runs =
  let open_source, proprietary =
    List.partition (fun r -> not (spec_of r).Synthetic.s_proprietary) runs
  in
  List.iter (fun r -> Table.add_row table (rows_of r)) open_source;
  if proprietary <> [] then begin
    Table.add_separator table;
    List.iter (fun r -> Table.add_row table (rows_of r)) proprietary
  end

let table2 runs =
  let table =
    Table.create
      ~title:
        "Table 2: statistics about applications and traces (paper / measured)"
      ~columns:
        [ "Application (LOC)"
        ; "Trace length"
        ; "Fields"
        ; "Threads (w/o Qs)"
        ; "Threads (w/ Qs)"
        ; "Async. tasks"
        ]
  in
  let row run =
    let s = spec_of run in
    let stats = run.ar_report.Detector.trace_stats in
    let noq, q = app_thread_counts run in
    [ (if s.Synthetic.s_loc > 0 then
         Printf.sprintf "%s (%d)" s.Synthetic.s_name s.Synthetic.s_loc
       else s.Synthetic.s_name)
    ; pair_cell s.Synthetic.s_trace_length stats.Trace.trace_length
    ; pair_cell s.Synthetic.s_fields stats.Trace.fields
    ; pair_cell s.Synthetic.s_threads_without_queue noq
    ; pair_cell s.Synthetic.s_threads_with_queue q
    ; pair_cell s.Synthetic.s_async_tasks stats.Trace.async_tasks
    ]
  in
  add_section_rows table row runs;
  table

(* Measured Table 3 entries: distinct races per category, and — via the
   schedule-perturbation verifier — how many are confirmed true
   positives.  Races are grouped by the plant that owns their location,
   and one representative per plant is verified. *)
let measure_races ?(verify = true) ?(attempts = 8) run =
  let built = run.ar_built in
  let report = run.ar_report in
  let thread_names = run.ar_result.Runtime.thread_names in
  let confirmed_plants = Hashtbl.create 8 in
  let plant_confirmed plant race =
    let key = plant.Synthetic.p_mechanism in
    match Hashtbl.find_opt confirmed_plants key with
    | Some v -> v
    | None ->
      let v =
        Verify.is_confirmed
          (Verify.verify ~attempts ~options:built.Synthetic.b_options
             ~app:built.Synthetic.b_app ~events:built.Synthetic.b_events
             ~trace:report.Detector.trace ~thread_names race)
      in
      Hashtbl.replace confirmed_plants key v;
      v
  in
  List.map
    (fun category ->
       let races =
         List.filter
           (fun { Detector.category = c; _ } ->
              Classify.category_equal c category)
           report.Detector.distinct_races
       in
       let confirmed =
         if not verify then 0
         else
           List.length
             (List.filter
                (fun { Detector.race; _ } ->
                   match
                     Synthetic.plant_of_location built (Race.location race)
                   with
                   | Some plant -> plant_confirmed plant race
                   | None -> false)
                races)
       in
       (category, List.length races, confirmed))
    [ Classify.Multithreaded
    ; Classify.Cross_posted
    ; Classify.Co_enabled
    ; Classify.Delayed_race
    ; Classify.Unknown
    ]

let table3 ?(verify = true) ?(attempts = 8) runs =
  let table =
    Table.create
      ~title:
        "Table 3: data races reported, X(Y) = reports(confirmed true \
         positives), paper / measured"
      ~columns:
        [ "Application"
        ; "Multithreaded"
        ; "Cross-posted"
        ; "Co-enabled"
        ; "Delayed"
        ; "Unknown"
        ]
  in
  let row run =
    let s = spec_of run in
    let proprietary = s.Synthetic.s_proprietary in
    let measured =
      measure_races ~verify:(verify && not proprietary) ~attempts run
    in
    let cell (px, py) category =
      let _, mx, my =
        List.find
          (fun (c, _, _) -> Classify.category_equal c category)
          measured
      in
      if proprietary then Printf.sprintf "%d / %d" px mx
      else Printf.sprintf "%d(%d) / %d(%d)" px py mx my
    in
    [ s.Synthetic.s_name
    ; cell s.Synthetic.s_multithreaded Classify.Multithreaded
    ; cell s.Synthetic.s_cross_posted Classify.Cross_posted
    ; cell s.Synthetic.s_co_enabled Classify.Co_enabled
    ; cell s.Synthetic.s_delayed Classify.Delayed_race
    ; cell s.Synthetic.s_unknown Classify.Unknown
    ]
  in
  add_section_rows table row runs;
  table

let performance_table runs =
  let table =
    Table.create
      ~title:
        "Performance (Section 6): node coalescing and analysis cost \
         (paper: nodes reduced to 1.4-24.8% of trace length, avg 11.1%)"
      ~columns:
        [ "Application"
        ; "Trace ops"
        ; "Graph nodes"
        ; "Nodes/ops"
        ; "HB pairs"
        ; "Passes"
        ; "Analysis time"
        ; "HB time"
        ; "Detect time"
        ]
  in
  let ratios = ref [] in
  let row run =
    let r = run.ar_report in
    let ratio =
      100.0 *. float_of_int r.Detector.nodes
      /. float_of_int (max 1 r.Detector.uncoalesced_nodes)
    in
    ratios := ratio :: !ratios;
    [ (spec_of run).Synthetic.s_name
    ; string_of_int r.Detector.uncoalesced_nodes
    ; string_of_int r.Detector.nodes
    ; Printf.sprintf "%.1f%%" ratio
    ; string_of_int r.Detector.hb_edges
    ; string_of_int r.Detector.fixpoint_passes
    ; Printf.sprintf "%.3fs" r.Detector.elapsed_seconds
    ; Printf.sprintf "%.3fs" (Detector.phase_seconds r "happens_before")
    ; Printf.sprintf "%.3fs" (Detector.phase_seconds r "race_detect")
    ]
  in
  add_section_rows table row runs;
  (match !ratios with
   | [] -> ()
   | rs ->
     let n = float_of_int (List.length rs) in
     let avg = List.fold_left ( +. ) 0.0 rs /. n in
     let mn = List.fold_left min (List.hd rs) rs in
     let mx = List.fold_left max (List.hd rs) rs in
     Table.add_separator table;
     Table.add_row table
       [ "summary"
       ; ""
       ; ""
       ; Printf.sprintf "%.1f-%.1f%% avg %.1f%%" mn mx avg
       ; ""
       ; ""
       ; ""
       ; ""
       ; ""
       ]);
  table

let baseline_table runs =
  let table =
    Table.create
      ~title:
        "Specialization ablation: races vs the DroidRacer relation \
         (missed = false negatives, extra = additional reports)"
      ~columns:[ "Application"; "Baseline"; "Reported"; "Missed"; "Extra" ]
  in
  List.iter
    (fun run ->
       let trace = run.ar_result.Runtime.observed in
       List.iter
         (fun (c : Baseline.comparison) ->
            Table.add_row table
              [ (spec_of run).Synthetic.s_name
              ; Baseline.name c.Baseline.baseline
              ; string_of_int c.Baseline.reported
              ; string_of_int c.Baseline.missed
              ; string_of_int c.Baseline.extra
              ])
         (Baseline.compare_against_droidracer trace))
    runs;
  table

let engine_table runs =
  let table =
    Table.create
      ~title:
        "Engine ablation: precise graph engine vs streaming vector \
         clocks without folding or sweeps (the clock engine \
         under-reports where lock edges shadow same-thread races)"
      ~columns:
        [ "Application"; "Graph races"; "Clock races"; "Graph time"; "Clock time" ]
  in
  List.iter
    (fun run ->
       let trace = Trace.remove_cancelled run.ar_result.Runtime.observed in
       let t0 = Unix.gettimeofday () in
       let clock_races, _ =
         Streaming_engine.detect ~config:Streaming_engine.ablation_config
           trace
       in
       let clock_time = Unix.gettimeofday () -. t0 in
       Table.add_row table
         [ (spec_of run).Synthetic.s_name
         ; string_of_int (List.length run.ar_report.Detector.all_races)
         ; string_of_int (List.length clock_races)
         ; Printf.sprintf "%.3fs" run.ar_report.Detector.elapsed_seconds
         ; Printf.sprintf "%.3fs" clock_time
         ])
    runs;
  table

let coverage_table runs =
  let table =
    Table.create
      ~title:
        "Race coverage (reference [24]): root races left to triage after grouping races that one ordering fix would resolve together"
      ~columns:[ "Application"; "Reported pairs"; "Distinct"; "Roots" ]
  in
  add_section_rows table
    (fun run ->
       let trace = run.ar_report.Detector.trace in
       let hb = Detector.relation trace in
       let races =
         List.map (fun c -> c.Detector.race) run.ar_report.Detector.all_races
       in
       let roots = Droidracer_core.Race_coverage.roots ~hb races in
       [ (spec_of run).Synthetic.s_name
       ; string_of_int (List.length races)
       ; string_of_int (List.length run.ar_report.Detector.distinct_races)
       ; string_of_int (List.length roots)
       ])
    runs;
  table

let front_rule_table runs =
  let table =
    Table.create
      ~title:
        "Extension ablation: the deferred front-of-queue rule orders away the unknown-category races planted through front posts"
      ~columns:[ "Application"; "Unknown races (paper rules)"; "With front rule" ]
  in
  let unknown_count report =
    List.length
      (List.filter
         (fun { Detector.category; _ } ->
            Classify.category_equal category Classify.Unknown)
         report.Detector.distinct_races)
  in
  List.iter
    (fun run ->
       let baseline = unknown_count run.ar_report in
       if baseline > 0 then begin
         let config =
           { Detector.default_config with
             hb = { Happens_before.default with front_rule = true }
           }
         in
         let report =
           Detector.analyze ~config run.ar_result.Runtime.observed
         in
         Table.add_row table
           [ (spec_of run).Synthetic.s_name
           ; string_of_int baseline
           ; string_of_int (unknown_count report)
           ]
       end)
    runs;
  table

let environment_model_table () =
  let table =
    Table.create
      ~title:
        "Environment-model ablation (music player): without enable \
         modelling the write/write pair of Figure 4 becomes a false \
         positive (Section 2.4)"
      ~columns:[ "Scenario"; "With enables"; "Without enables" ]
  in
  let count config scenario =
    let r = Runtime.run ~options:Music_player.options Music_player.app scenario in
    List.length (Detector.analyze ~config r.Runtime.observed).Detector.all_races
  in
  List.iter
    (fun (name, scenario) ->
       Table.add_row table
         [ name
         ; string_of_int (count Detector.default_config scenario)
         ; string_of_int (count Detector.no_environment_model scenario)
         ])
    [ ("PLAY (Figure 3)", Music_player.play_scenario)
    ; ("BACK (Figure 4)", Music_player.back_scenario)
    ];
  table

let lifecycle_table () =
  let table =
    Table.create
      ~title:"Figure 8: activity lifecycle (may-happen-next callbacks per state)"
      ~columns:[ "State"; "May happen next" ]
  in
  List.iter
    (fun state ->
       let nexts =
         Lifecycle.activity_successors state
         |> List.map Lifecycle.activity_callback_name
         |> String.concat ", "
       in
       Table.add_row table
         [ Format.asprintf "%a" Lifecycle.pp_activity_state state
         ; (if nexts = "" then "(terminal)" else nexts)
         ])
    [ Lifecycle.Launched
    ; Lifecycle.Created
    ; Lifecycle.Started
    ; Lifecycle.Running
    ; Lifecycle.Paused
    ; Lifecycle.Stopped
    ; Lifecycle.Destroyed
    ];
  table

let music_player_summary () =
  let table =
    Table.create
      ~title:
        "Motivating example (Figures 1-4): races of the music player per \
         scenario"
      ~columns:[ "Scenario"; "Race"; "Category"; "Verification" ]
  in
  List.iter
    (fun (name, scenario) ->
       let r = Runtime.run ~options:Music_player.options Music_player.app scenario in
       let report = Detector.analyze r.Runtime.observed in
       match report.Detector.all_races with
       | [] -> Table.add_row table [ name; "none"; ""; "" ]
       | races ->
         List.iter
           (fun { Detector.race; category } ->
              let verdict =
                Verify.verify ~options:Music_player.options
                  ~app:Music_player.app ~events:scenario
                  ~trace:report.Detector.trace
                  ~thread_names:r.Runtime.thread_names race
              in
              Table.add_row table
                [ name
                ; Format.asprintf "%a" Race.pp race
                ; Classify.category_name category
                ; (match verdict with
                   | Verify.Confirmed w ->
                     Printf.sprintf "confirmed (seed %d)" w.Verify.w_seed
                   | Verify.Not_flipped n ->
                     Printf.sprintf "not flipped (%d runs)" n)
                ])
           races)
    [ ("PLAY", Music_player.play_scenario); ("BACK", Music_player.back_scenario) ];
  table
