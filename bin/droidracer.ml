(* The droidracer command-line tool.

   Subcommands:
   - [analyze FILE]  offline race detection on a trace file
   - [validate FILE] admissibility-check trace files (streaming)
   - [trace APP]     generate a trace from a modeled application
   - [explore APP]   systematic UI exploration + race detection
   - [verify APP]    detect and verify races via schedule perturbation
   - [corpus]        regenerate Tables 2 and 3 for the paper's corpus,
                     or sweep a directory of trace files (--trace-dir)
   - [synth FILE]    generate an arbitrarily long admissible trace
   - [convert A B]   convert a trace between the text and binary formats
   - [gencorpus DIR] generate a corpus of app variants with planted races
   - [serve]         run droidracerd, the persistent analysis daemon
   - [submit FILE]   submit traces to a running daemon
   - [loadgen]       drive a daemon with concurrent forked clients
   - [lifecycle]     print the Figure 8 activity lifecycle *)

module Trace = Droidracer_trace.Trace
module Trace_io = Droidracer_trace.Trace_io
module Binfmt = Droidracer_trace.Binfmt
module Wellformed = Droidracer_trace.Wellformed
module Step = Droidracer_semantics.Step
module Happens_before = Droidracer_core.Happens_before
module Streaming_engine = Droidracer_core.Streaming_engine
module Detector = Droidracer_core.Detector
module Classify = Droidracer_core.Classify
module Race = Droidracer_core.Race
module Race_coverage = Droidracer_core.Race_coverage
module Program = Droidracer_appmodel.Program
module Runtime = Droidracer_appmodel.Runtime
module Music_player = Droidracer_corpus.Music_player
module Bug_apps = Droidracer_corpus.Bug_apps
module Catalog = Droidracer_corpus.Catalog
module Synthetic = Droidracer_corpus.Synthetic
module Longtrace = Droidracer_corpus.Longtrace
module Vargen = Droidracer_corpus.Vargen
module Explorer = Droidracer_explorer.Explorer
module Verify = Droidracer_explorer.Verify
module Schedule_explorer = Droidracer_explorer.Schedule_explorer
module Predict = Droidracer_predict.Predict
module Experiments = Droidracer_report.Experiments
module Swire = Droidracer_service.Wire
module Server = Droidracer_service.Server
module Client = Droidracer_service.Client
module Loadgen = Droidracer_service.Loadgen
module Supervisor = Droidracer_report.Supervisor
module Proc_pool = Droidracer_report.Proc_pool
module Journal = Droidracer_report.Journal
module Progress = Droidracer_report.Progress
module Table = Droidracer_report.Table
module Obs = Droidracer_obs.Obs
open Cmdliner

(* {1 The application registry} *)

type registered_app =
  { app : Program.app
  ; options : Runtime.options
  ; default_events : Runtime.ui_event list
  ; about : string
  }

let registry () =
  let base =
    [ ( "music-player"
      , { app = Music_player.app
        ; options = Music_player.options
        ; default_events = Music_player.back_scenario
        ; about = "the Figure 1 music player (BACK scenario by default)"
        } )
    ; ( "music-player-play"
      , { app = Music_player.app
        ; options = Music_player.options
        ; default_events = Music_player.play_scenario
        ; about = "the Figure 1 music player, PLAY scenario (Figure 3)"
        } )
    ; ( "aard-service-bug"
      , { app = Bug_apps.Aard_dictionary.app
        ; options = Runtime.default_options
        ; default_events = Bug_apps.Aard_dictionary.scenario
        ; about = "the Aard Dictionary service race (Section 6)"
        } )
    ; ( "messenger-cursor-bug"
      , { app = Bug_apps.Messenger.app
        ; options = Runtime.default_options
        ; default_events = Bug_apps.Messenger.scenario
        ; about = "the Messenger cursor race (Section 6)"
        } )
    ]
  in
  let synthetic spec =
    let slug =
      "corpus-"
      ^ String.map
          (fun c -> if c = ' ' then '-' else Char.lowercase_ascii c)
          spec.Synthetic.s_name
    in
    ( slug
    , lazy
        (let b = Synthetic.build spec in
         { app = b.Synthetic.b_app
         ; options = b.Synthetic.b_options
         ; default_events = b.Synthetic.b_events
         ; about = "synthetic model of " ^ spec.Synthetic.s_name ^ " (Table 2)"
         }) )
  in
  ( List.map (fun (n, a) -> (n, lazy a)) base
  , List.map synthetic Catalog.all )

let all_app_names () =
  let base, synth = registry () in
  List.map fst base @ List.map fst synth

let find_app name =
  let base, synth = registry () in
  match List.assoc_opt name (base @ synth) with
  | Some l -> Ok (Lazy.force l)
  | None ->
    Error
      (Printf.sprintf "unknown application %S; known: %s" name
         (String.concat ", " (all_app_names ())))

(* {1 Common arguments} *)

let app_arg =
  let doc = "Modeled application to run (see $(b,droidracer list))." in
  Arg.(required & pos 0 (some string) None & info [] ~docv:"APP" ~doc)

let seed_arg =
  let doc = "Scheduling seed (deterministic round-robin when omitted)." in
  Arg.(value & opt (some int) None & info [ "seed" ] ~doc)

let jobs_arg =
  let doc =
    "Worker domains for the analysis (defaults to the hardware's \
     recommended domain count).  Reports are bit-identical for every \
     value; only the wall time changes."
  in
  Arg.(
    value
    & opt int (Droidracer_core.Par_pool.default_jobs ())
    & info [ "jobs"; "j" ] ~docv:"N" ~doc)

let hb_engine_arg =
  let doc =
    "Happens-before engine: $(b,dense) computes the exact relation as a \
     reachability matrix over graph nodes, $(b,streaming) detects races \
     in one forward pass over the events \
     with epoch-adaptive vector clocks — memory stays proportional to \
     live entities, not trace length, at the price of a sound \
     under-approximation (never a false race the dense engine would \
     not report; identical races on lock-free traces)."
  in
  Arg.(
    value
    & opt
        (enum [ ("dense", Detector.Dense); ("streaming", Detector.Streaming) ])
        Detector.Dense
    & info [ "hb-engine" ] ~docv:"ENGINE" ~doc)

let detector_config ~engine = { Detector.default_config with engine }

(* {2 Supervision budgets} *)

let budget_term =
  let timeout =
    let doc =
      "Wall-clock budget in seconds per analysis (checked between \
       pipeline phases); over budget the run is reported as timed out \
       instead of blocking the sweep."
    in
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"SECONDS" ~doc)
  in
  let max_events =
    let doc =
      "Event-count budget: traces more than 10x longer than $(docv) \
       degrade from the dense to the bounded-memory streaming engine \
       (sound under-approximation)."
    in
    Arg.(value & opt (some int) None
         & info [ "max-events" ] ~docv:"N" ~doc)
  in
  Term.(
    const (fun timeout_seconds max_events ->
      { Supervisor.timeout_seconds; max_events })
    $ timeout $ max_events)

(* {2 Telemetry}

   Shared by every subcommand that runs the analysis pipeline.  Any of
   the three flags switches the telemetry subsystem on for the whole
   run; with none of them the instrumentation is a no-op and the
   analysis output is bit-identical to an uninstrumented build. *)

type telemetry =
  { trace_out : string option
  ; metrics : bool
  ; metrics_out : string option
  ; series_out : string option
  ; sample_period_ms : float
  }

let telemetry_term =
  let trace_out =
    let doc =
      "Write a Chrome trace_event JSON of the run's spans (one process \
       lane per worker, one track per analysis domain, counter tracks \
       for resource series) to $(docv); load it in chrome://tracing or \
       https://ui.perfetto.dev."
    in
    Arg.(value & opt (some string) None
         & info [ "trace-out" ] ~docv:"FILE" ~doc)
  in
  let metrics =
    let doc =
      "After the run, print the telemetry summary: the span tree with \
       call counts and total times, counters, and histograms."
    in
    Arg.(value & flag & info [ "metrics" ] ~doc)
  in
  let metrics_out =
    let doc = "Write the run's metrics (counters, gauges, histograms \
               with p50/p90/p99, per-domain statistics, merged across \
               worker processes) as JSON to $(docv)." in
    Arg.(value & opt (some string) None
         & info [ "metrics-out" ] ~docv:"FILE" ~doc)
  in
  let series_out =
    let doc =
      "Write the run's resource time-series (RSS, GC major-heap words, \
       streaming live-slot watermarks; schema droidracer-series/1) as \
       JSON to $(docv)."
    in
    Arg.(value & opt (some string) None
         & info [ "series-out" ] ~docv:"FILE" ~doc)
  in
  let sample_period_ms =
    let doc =
      "Minimum milliseconds between resource samples (RSS, GC heap) \
       recorded into the time-series store."
    in
    Arg.(value & opt float 50.0
         & info [ "sample-period-ms" ] ~docv:"MS" ~doc)
  in
  Term.(
    const (fun trace_out metrics metrics_out series_out sample_period_ms ->
      { trace_out; metrics; metrics_out; series_out; sample_period_ms })
    $ trace_out $ metrics $ metrics_out $ series_out $ sample_period_ms)

let with_telemetry t f =
  let active =
    t.trace_out <> None || t.metrics || t.metrics_out <> None
    || t.series_out <> None
  in
  if active then begin
    Obs.enable ();
    Obs.reset ();
    Obs.set_sample_period (t.sample_period_ms /. 1e3);
    (* Anchor every series at t=0 so even a short run exports one
       sample per series. *)
    Obs.sample_resources ()
  end;
  let v = f () in
  if active then begin
    Option.iter
      (fun path ->
         Obs.write_chrome_trace path;
         Printf.eprintf "wrote Chrome trace to %s\n%!" path)
      t.trace_out;
    Option.iter
      (fun path ->
         Obs.write_metrics_json path;
         Printf.eprintf "wrote metrics JSON to %s\n%!" path)
      t.metrics_out;
    Option.iter
      (fun path ->
         Obs.write_series_json path;
         Printf.eprintf "wrote series JSON to %s\n%!" path)
      t.series_out;
    if t.metrics then begin
      print_newline ();
      print_string (Obs.summary_string ())
    end
  end;
  v

let events_arg =
  let doc =
    "UI events to inject, e.g. $(b,click:onPlayClick), $(b,back), \
     $(b,intent:ACTION), $(b,rotate).  Defaults to the application's \
     canonical scenario."
  in
  Arg.(value & opt_all string [] & info [ "event"; "e" ] ~docv:"EVENT" ~doc)

let parse_event s =
  match String.lowercase_ascii s with
  | "back" -> Ok Runtime.Back
  | "rotate" -> Ok Runtime.Rotate
  | _ ->
    (match String.index_opt s ':' with
     | Some i when String.sub s 0 i = "click" ->
       Ok (Runtime.Click (String.sub s (i + 1) (String.length s - i - 1)))
     | Some i when String.sub s 0 i = "intent" ->
       Ok (Runtime.Intent (String.sub s (i + 1) (String.length s - i - 1)))
     | Some _ | None ->
       Error
         (Printf.sprintf
            "cannot parse event %S (use click:NAME, intent:ACTION, back, rotate)"
            s))

let parse_events = function
  | [] -> Ok None
  | events ->
    List.fold_left
      (fun acc s ->
         Result.bind acc (fun es ->
           Result.map (fun e -> e :: es) (parse_event s)))
      (Ok []) events
    |> Result.map (fun es -> Some (List.rev es))

let with_options options seed =
  match seed with
  | Some s -> { options with Runtime.policy = Runtime.Seeded s }
  | None -> options

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("droidracer: " ^ msg);
    exit 1

(* Creates [dir] and any missing parents.  A failed [Sys.mkdir] is only
   an error if the path still is not a directory afterwards, so losing
   a creation race to another process is fine. *)
let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    let parent = Filename.dirname dir in
    if parent <> dir then mkdir_p parent;
    try Sys.mkdir dir 0o755 with
    | Sys_error _ when Sys.file_exists dir && Sys.is_directory dir -> ()
  end

let run_app name seed events =
  let reg = or_die (find_app name) in
  let events =
    match or_die (parse_events events) with
    | Some es -> es
    | None -> reg.default_events
  in
  let options = with_options reg.options seed in
  (reg, options, events, Runtime.run ~options reg.app events)

(* {1 Subcommands} *)

let list_cmd =
  let run () =
    let base, synth = registry () in
    List.iter
      (fun (name, l) ->
         Printf.printf "%-24s %s\n" name (Lazy.force l).about)
      base;
    List.iter
      (fun (name, _) -> Printf.printf "%-24s synthetic corpus model\n" name)
      synth
  in
  Cmd.v (Cmd.info "list" ~doc:"List the modeled applications.")
    Term.(const run $ const ())

let analyze_cmd =
  let file =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"TRACE" ~doc:"Trace file.")
  in
  let no_coalesce =
    Arg.(value & flag & info [ "no-coalesce" ] ~doc:"Disable node coalescing.")
  in
  let no_enables =
    Arg.(value & flag
         & info [ "no-enables" ] ~doc:"Ignore enable operations (ablation).")
  in
  let show_all =
    Arg.(value & flag
         & info [ "all" ] ~doc:"Print every racy pair, not one per location.")
  in
  let coverage =
    Arg.(value & flag
         & info [ "coverage" ]
             ~doc:"Group races by race coverage and print root races only.")
  in
  let streaming_json =
    Arg.(value & opt (some string) None
         & info [ "streaming-json" ] ~docv:"FILE"
             ~doc:
               "With $(b,--hb-engine streaming): write the engine's \
                throughput and memory profile (schema \
                droidracer-streaming/1) to $(docv).")
  in
  (* The predictive engine is not a Detector engine — it layers a
     feasibility search on top of the dense relation — so the choice is
     lifted here at the command level rather than in Detector.engine. *)
  let engine_arg =
    let doc =
      "Happens-before engine: $(b,dense) or $(b,streaming) as \
       elsewhere, or $(b,predictive) — the dense \
       analysis followed by the reordering feasibility search of the \
       $(b,predict) subcommand (candidate pairs the observed schedule \
       ordered only through lock or dispatch accidents are searched \
       for an admissible flipping schedule)."
    in
    Arg.(
      value
      & opt
          (enum
             [ ("dense", `Dense)
             ; ("streaming", `Streaming)
             ; ("predictive", `Predictive)
             ])
          `Dense
      & info [ "hb-engine" ] ~docv:"ENGINE" ~doc)
  in
  (* The streaming engine's whole point is never materialising the
     trace, so its path reads the file twice — a validation pass, then
     the detection pass — instead of loading it once. *)
  let run_streaming file show_all coverage streaming_json =
    if coverage then
      or_die
        (Error
           "--coverage needs a batch engine: the streaming engine never \
            materialises the happens-before relation");
    let started = Unix.gettimeofday () in
    (match Wellformed.check_file file with
     | Ok _stats -> ()
     | Error f ->
       or_die
         (Error (Printf.sprintf "%s: %s" file (Wellformed.failure_message f))));
    match Streaming_engine.detect_file file with
    | Error e ->
      or_die
        (Error (Printf.sprintf "%s: %s" file (Trace_io.read_error_message e)))
    | Ok (races, stats) ->
      let elapsed = Unix.gettimeofday () -. started in
      Printf.printf "%d events, %d race(s) [streaming engine]\n"
        stats.Streaming_engine.events (List.length races);
      Printf.printf
        "peak live slots %d, peak clock entries %d (%d slots retired)\n"
        stats.Streaming_engine.peak_live_slots
        stats.Streaming_engine.peak_clock_entries
        stats.Streaming_engine.slots_retired;
      if show_all then
        List.iter (fun r -> Format.printf "%a@." Race.pp r) races;
      Option.iter
        (fun path ->
           Out_channel.with_open_text path (fun oc ->
             Out_channel.output_string oc
               (Streaming_engine.stats_json_string ~label:file
                  ~elapsed_seconds:elapsed
                  ~peak_rss_kb:(Obs.peak_rss_kb ())
                  stats));
           Printf.eprintf "wrote streaming stats to %s\n%!" path)
        streaming_json
  in
  let run file no_coalesce no_enables show_all coverage jobs engine budget
      streaming_json telemetry =
    with_telemetry telemetry @@ fun () ->
    match engine with
    | `Streaming -> run_streaming file show_all coverage streaming_json
    | (`Dense | `Predictive) as engine ->
    match Trace_io.load file with
    | Error msg -> or_die (Error msg)
    | Ok trace ->
      let config =
        { Detector.default_config with
          coalesce = not no_coalesce
        ; hb = { Happens_before.default with enable_rule = not no_enables }
        }
      in
      let report =
        match Supervisor.analyze ~config ~jobs ~budget ~name:file trace with
        | Ok report -> report
        | Error f ->
          or_die
            (Error
               (Printf.sprintf "%s (%s after %.3fs)"
                  (Supervisor.reason_detail f.Supervisor.f_reason)
                  (Supervisor.reason_label f.Supervisor.f_reason)
                  f.Supervisor.f_elapsed))
      in
      Format.printf "%a@." Detector.pp_report report;
      if show_all then
        List.iter
          (fun { Detector.race; category } ->
             Format.printf "[%a] %a@." Classify.pp_category category Race.pp race)
          report.Detector.all_races;
      if coverage then begin
        let hb = Detector.relation ~config trace in
        let races = List.map (fun c -> c.Detector.race) report.Detector.all_races in
        let groups = Race_coverage.group ~hb races in
        Format.printf "race coverage: %d root(s) for %d race(s)@."
          (List.length groups) (List.length races);
        List.iter (fun g -> Format.printf "%a@." Race_coverage.pp_group g) groups
      end;
      if engine = `Predictive then begin
        let preport = Predict.analyze ~config ~jobs trace in
        Format.printf "predictive: %a@." Predict.pp_report preport;
        List.iter
          (fun loc -> Format.printf "  reordering-only race on %s@." loc)
          (Predict.extra_locations preport)
      end
  in
  Cmd.v
    (Cmd.info "analyze" ~doc:"Detect and classify data races in a trace file.")
    Term.(
      const run $ file $ no_coalesce $ no_enables $ show_all $ coverage
      $ jobs_arg $ engine_arg $ budget_term $ streaming_json
      $ telemetry_term)

let validate_cmd =
  let files =
    Arg.(non_empty & pos_all file []
         & info [] ~docv:"TRACE" ~doc:"Trace files to validate.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json-out" ] ~docv:"FILE"
             ~doc:"Write the per-file validation report as JSON to $(docv).")
  in
  let quiet =
    Arg.(value & flag
         & info [ "quiet"; "q" ] ~doc:"Suppress per-file statistics.")
  in
  let run files json_out quiet =
    let results =
      List.map (fun file -> (file, Wellformed.check_file file)) files
    in
    List.iter
      (fun (file, result) ->
         match result with
         | Ok stats ->
           if not quiet then
             Format.printf "%s: OK (%a)@." file Wellformed.pp_stats stats
           else Format.printf "%s: OK@." file
         | Error failure ->
           Format.printf "%s: REJECTED: %a@." file Wellformed.pp_failure
             failure)
      results;
    Option.iter
      (fun path ->
         let buf = Buffer.create 512 in
         Buffer.add_string buf
           "{\"schema\":\"droidracer-validation/1\",\"files\":[";
         List.iteri
           (fun i (file, result) ->
              if i > 0 then Buffer.add_char buf ',';
              match result with
              | Ok (stats : Wellformed.stats) ->
                Printf.bprintf buf
                  "{\"file\":\"%s\",\"status\":\"ok\",\"events\":%d,\"threads\":%d,\"tasks\":%d,\"locks\":%d}"
                  (Json.escape file) stats.Wellformed.events
                  stats.Wellformed.threads stats.Wellformed.tasks
                  stats.Wellformed.locks
              | Error failure ->
                let rule =
                  match failure with
                  | Wellformed.Violation e ->
                    Printf.sprintf "\"%s\"" (Wellformed.rule_name e.Wellformed.rule)
                  | Wellformed.Syntax _ -> "\"syntax\""
                  | Wellformed.Binary _ -> "\"binary\""
                  | Wellformed.Io _ -> "\"io\""
                in
                Printf.bprintf buf
                  "{\"file\":\"%s\",\"status\":\"rejected\",\"rule\":%s,\"line\":%s,\"message\":\"%s\"}"
                  (Json.escape file) rule
                  (match Wellformed.failure_line failure with
                   | Some l -> string_of_int l
                   | None -> "null")
                  (Json.escape (Wellformed.failure_message failure)))
           results;
         Buffer.add_string buf "]}\n";
         Out_channel.with_open_text path (fun oc ->
           Out_channel.output_string oc (Buffer.contents buf));
         Printf.eprintf "wrote validation report to %s\n%!" path)
      json_out;
    let rejected =
      List.length (List.filter (fun (_, r) -> Result.is_error r) results)
    in
    if rejected > 0 then begin
      Printf.eprintf "droidracer: %d of %d file(s) rejected\n%!" rejected
        (List.length results);
      exit 1
    end
  in
  Cmd.v
    (Cmd.info "validate"
       ~doc:
         "Check trace files against the Figure 5 admissibility rules \
          (streaming, constant memory); exits non-zero if any file is \
          rejected.")
    Term.(const run $ files $ json_out $ quiet)

let trace_cmd =
  let output =
    Arg.(value & opt (some string) None
         & info [ "o"; "output" ] ~docv:"FILE" ~doc:"Write the trace here.")
  in
  let full =
    Arg.(value & flag
         & info [ "full" ]
             ~doc:"Emit the ground-truth trace (including untracked threads).")
  in
  let run name seed events output full =
    let _, _, _, result = run_app name seed events in
    let trace = if full then result.Runtime.full else result.Runtime.observed in
    (match Step.validate result.Runtime.full with
     | Ok _ -> ()
     | Error v ->
       Format.eprintf "warning: ground-truth trace violates the semantics: %a@."
         Step.pp_violation v);
    match output with
    | Some path ->
      Trace_io.save path trace;
      Printf.printf "wrote %d operations to %s\n" (Trace.length trace) path
    | None -> print_string (Trace_io.to_string trace)
  in
  Cmd.v
    (Cmd.info "trace" ~doc:"Run an application and emit its execution trace.")
    Term.(const run $ app_arg $ seed_arg $ events_arg $ output $ full)

let detect_cmd =
  let minimize =
    Arg.(value & flag
         & info [ "minimize" ]
             ~doc:
               "For each distinct race, print a minimal sub-trace that                 still exhibits it (delta debugging).")
  in
  let run name seed events minimize_races jobs engine telemetry =
    with_telemetry telemetry @@ fun () ->
    let _, _, _, result = run_app name seed events in
    let report =
      Detector.analyze ~config:(detector_config ~engine) ~jobs
        result.Runtime.observed
    in
    Format.printf "%a@." Detector.pp_report report;
    if minimize_races then
      List.iter
        (fun { Detector.race; category } ->
           let small, race' =
             Droidracer_core.Minimize.minimize report.Detector.trace race
           in
           Format.printf
             "@.minimal witness for the %a race on %a (%d of %d operations):@.%a"
             Classify.pp_category category Droidracer_trace.Ident.Location.pp
             (Race.location race) (Trace.length small)
             (Trace.length report.Detector.trace) Trace.pp small;
           Format.printf "racy accesses now at %d and %d@."
             race'.Race.first.position race'.Race.second.position)
        report.Detector.distinct_races
  in
  Cmd.v
    (Cmd.info "detect"
       ~doc:"Run an application and report the data races of its trace.")
    Term.(
      const run $ app_arg $ seed_arg $ events_arg $ minimize $ jobs_arg
      $ hb_engine_arg $ telemetry_term)

let explore_cmd =
  let bound =
    Arg.(value & opt int 2
         & info [ "bound"; "k" ] ~doc:"Maximum UI event sequence length.")
  in
  let rotate =
    Arg.(value & flag & info [ "rotate" ] ~doc:"Include screen rotation.")
  in
  let run name seed bound rotate =
    let reg = or_die (find_app name) in
    let options = with_options reg.options seed in
    let exploration =
      Explorer.explore ~options ~bound ~include_rotate:rotate reg.app
    in
    Printf.printf "explored %d event sequences (bound %d)%s\n"
      (List.length exploration.Explorer.cases)
      bound
      (if exploration.Explorer.truncated then " [truncated]" else "");
    let racy = Explorer.racy_cases exploration in
    Printf.printf "%d sequences manifest races:\n" (List.length racy);
    List.iter
      (fun (case, report) ->
         Format.printf "  [%a]: %d races (%s)@."
           (Format.pp_print_list
              ~pp_sep:(fun f () -> Format.fprintf f "; ")
              Runtime.pp_ui_event)
           case.Explorer.events
           (List.length report.Detector.all_races)
           (String.concat ", "
              (List.filter_map
                 (fun (c, n) ->
                    if n > 0 then
                      Some (Printf.sprintf "%s %d" (Classify.category_name c) n)
                    else None)
                 (Detector.count_by_category report.Detector.distinct_races))))
      racy
  in
  Cmd.v
    (Cmd.info "explore"
       ~doc:"Systematically explore UI event sequences and detect races.")
    Term.(const run $ app_arg $ seed_arg $ bound $ rotate)

let verify_cmd =
  let attempts =
    Arg.(value & opt int 12 & info [ "attempts" ] ~doc:"Perturbed runs per race.")
  in
  let exhaustive =
    Arg.(value & flag
         & info [ "exhaustive" ]
             ~doc:
               "Enumerate the schedule tree (bounded by $(b,--attempts) x \
                100 replays) instead of sampling; gives a definite verdict \
                on small applications.")
  in
  let run name seed events attempts exhaustive jobs engine telemetry =
    with_telemetry telemetry @@ fun () ->
    let reg, options, events, result = run_app name seed events in
    let report =
      Detector.analyze ~config:(detector_config ~engine) ~jobs
        result.Runtime.observed
    in
    if report.Detector.all_races = [] then print_endline "no races detected"
    else
      List.iter
        (fun { Detector.race; category } ->
           let verdict =
             if exhaustive then
               match
                 Schedule_explorer.verify_exhaustively
                   ~max_runs:(attempts * 100) ~options ~app:reg.app ~events
                   ~trace:report.Detector.trace
                   ~thread_names:result.Runtime.thread_names race
               with
               | Schedule_explorer.Flipped _ ->
                 "TRUE POSITIVE (a schedule reorders the accesses)"
               | Schedule_explorer.Never_flips n ->
                 Printf.sprintf "FALSE POSITIVE (all %d schedules keep the order)"
                   n
               | Schedule_explorer.Budget_exhausted n ->
                 Printf.sprintf "presumed false positive (%d schedules explored)"
                   n
             else
               match
                 Verify.verify ~attempts ~options ~app:reg.app ~events
                   ~trace:report.Detector.trace
                   ~thread_names:result.Runtime.thread_names race
               with
               | Verify.Confirmed w ->
                 Printf.sprintf "TRUE POSITIVE (flipped with seed %d)"
                   w.Verify.w_seed
               | Verify.Not_flipped n ->
                 Printf.sprintf "presumed false positive (%d perturbed runs)" n
           in
           Format.printf "[%a] %a@.  -> %s@." Classify.pp_category category
             Race.pp race verdict)
        report.Detector.all_races
  in
  Cmd.v
    (Cmd.info "verify"
       ~doc:
         "Detect races, then validate each by searching for an alternate \
          ordering of the racy accesses.")
    Term.(
      const run $ app_arg $ seed_arg $ events_arg $ attempts $ exhaustive
      $ jobs_arg $ hb_engine_arg $ telemetry_term)

let corpus_cmd =
  let verify =
    Arg.(value & flag
         & info [ "verify" ]
             ~doc:"Verify open-source races by schedule perturbation (slower).")
  in
  let only =
    Arg.(value & opt (some string) None
         & info [ "app" ] ~docv:"NAME" ~doc:"Restrict to one application.")
  in
  let inject_faults =
    Arg.(value & opt (some int) None
         & info [ "inject-faults" ] ~docv:"SEED"
             ~doc:
               "Deterministically inject supervisor faults (parse errors, \
                validator rejects, crashes, timeouts) decided by $(docv); \
                affected applications appear as failure rows, healthy ones \
                still complete.")
  in
  let failures_json =
    Arg.(value & opt (some string) None
         & info [ "failures-json" ] ~docv:"FILE"
             ~doc:"Write the failed-application rows as JSON to $(docv).")
  in
  let open_source =
    Arg.(value & flag
         & info [ "open-source" ]
             ~doc:"Restrict to the open-source applications (faster).")
  in
  let fault_classes =
    Arg.(
      value
      & opt
          (enum
             [ ("basic", Supervisor.basic_faults)
             ; ("all", Supervisor.all_faults)
             ])
          Supervisor.basic_faults
      & info [ "fault-classes" ] ~docv:"SET"
          ~doc:
            "Fault classes drawn by $(b,--inject-faults): $(b,basic) \
             (parse, reject, crash, timeout — bit-identical plans to \
             earlier releases) or $(b,all) (adds oom and hang, which \
             misbehave non-cooperatively and are meant for \
             $(b,--isolate)).")
  in
  let isolate =
    Arg.(value & flag
         & info [ "isolate" ]
             ~doc:
               "Run each application in a forked worker process: crashes, \
                allocation storms and non-cooperative hangs cost one \
                failure row (the worker is SIGKILLed after \
                $(b,--timeout)), never the sweep.")
  in
  let max_mem =
    Arg.(value & opt (some int) None
         & info [ "max-mem" ] ~docv:"MIB"
             ~doc:
               "With $(b,--isolate): cap each worker's address space at \
                $(docv) MiB of headroom over the forked image \
                (setrlimit); a worker past the cap dies and is reported \
                as a memory-cap failure row.")
  in
  let journal =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:
               "Append every finished application's outcome to $(docv) \
                (fsync'd JSONL) so an interrupted sweep can be resumed \
                with $(b,--resume).")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:
               "With $(b,--journal): replay outcomes already journalled \
                by an interrupted run instead of recomputing them; the \
                resumed sweep reproduces the uninterrupted tables bit \
                for bit.")
  in
  let max_retries =
    Arg.(value & opt int 1
         & info [ "max-retries" ] ~docv:"N"
             ~doc:
               "Retry crashed or timed-out applications up to $(docv) \
                times (rejections are never retried).")
  in
  let backoff =
    Arg.(value & opt float 0.0
         & info [ "backoff" ] ~docv:"SECONDS"
             ~doc:
               "Base of the deterministic exponential backoff between \
                retries: retry $(i,k) waits $(docv) * 2^($(i,k)-1) \
                seconds.  Jitter-free, so failure rows are \
                reproducible.")
  in
  let progress_out =
    Arg.(value & opt (some string) None
         & info [ "progress-out" ] ~docv:"FILE"
             ~doc:
               "Append live sweep progress as JSONL (schema \
                droidracer-progress/1: a header record, one record per \
                finished application with done/total, events/sec, ETA \
                and per-engine fallback counts, and a final summary \
                record) to $(docv) — suitable for tailing a long \
                sweep.  The per-app heartbeat line is always printed \
                to stderr.")
  in
  let trace_dir =
    Arg.(value & opt (some dir) None
         & info [ "trace-dir" ] ~docv:"DIR"
             ~doc:
               "Sweep the pre-recorded trace files under $(docv) (every \
                $(b,.trace) and $(b,.drt) file, text or binary — the \
                format is sniffed per file) instead of the modeled \
                application catalog, with the same supervision: \
                budgets, retries, $(b,--isolate), $(b,--journal), \
                $(b,--progress-out) and fault injection all apply.  \
                See $(b,gencorpus) for producing such a directory.")
  in
  let races_json =
    Arg.(value & opt (some string) None
         & info [ "races-json" ] ~docv:"FILE"
             ~doc:
               "With $(b,--trace-dir): write the per-file race table \
                (schema droidracer-races/1, race counts and racing \
                locations per trace) as JSON to $(docv).")
  in
  let run verify only open_source jobs engine budget inject_faults
      fault_classes failures_json isolate max_mem journal_path resume
      max_retries backoff progress_out trace_dir races_json telemetry =
    with_telemetry telemetry @@ fun () ->
    if max_mem <> None && not isolate then
      or_die (Error "--max-mem requires --isolate");
    if resume && journal_path = None then
      or_die (Error "--resume requires --journal");
    if races_json <> None && trace_dir = None then
      or_die (Error "--races-json requires --trace-dir");
    if trace_dir <> None && (verify || only <> None || open_source) then
      or_die
        (Error "--trace-dir is incompatible with --verify, --app and \
                --open-source");
    let specs =
      match only with
      | None -> if open_source then Catalog.open_source else Catalog.all
      | Some name ->
        (match Catalog.find name with
         | Some s -> [ s ]
         | None -> or_die (Error (Printf.sprintf "unknown corpus app %S" name)))
    in
    let journal =
      Option.map
        (fun path ->
           let j = or_die (Journal.create ~resume path) in
           let torn = Journal.torn_lines j in
           if torn > 0 then
             Printf.eprintf "droidracer: journal: skipped %d torn line(s)\n%!"
               torn;
           let stale = Journal.stale_records j in
           if stale > 0 then
             Printf.eprintf
               "droidracer: journal: discarded %d record(s) written by a \
                different binary\n%!"
               stale;
           let prior = List.length (Journal.prior j) in
           if prior > 0 then
             Printf.eprintf
               "droidracer: journal: resuming %d already-completed app(s)\n%!"
               prior;
           j)
        journal_path
    in
    let mode =
      if isolate then Supervisor.Isolated { max_mem_mib = max_mem }
      else Supervisor.Cooperative
    in
    let retry = { Proc_pool.max_retries; backoff_base = backoff } in
    let progress_chan = Option.map open_out progress_out in
    let files =
      match trace_dir with
      | None -> []
      | Some dir ->
        let files =
          Sys.readdir dir |> Array.to_list
          |> List.filter (fun f ->
               Filename.check_suffix f ".trace" || Filename.check_suffix f ".drt")
          |> List.sort String.compare
          |> List.map (Filename.concat dir)
        in
        if files = [] then
          or_die
            (Error (Printf.sprintf "no .trace or .drt files under %s" dir));
        files
    in
    let total =
      if trace_dir = None then List.length specs else List.length files
    in
    let progress =
      Progress.create ?out:progress_chan
        ~heartbeat:(fun line -> Printf.eprintf "%s\n%!" line)
        ~mode:(if isolate then "isolated" else "cooperative")
        ~jobs ~total ()
    in
    let config = detector_config ~engine in
    let with_sweep sweep =
      Fun.protect
        ~finally:(fun () ->
          Option.iter Journal.close journal;
          Option.iter close_out progress_chan)
        (fun () ->
           match inject_faults with
           | Some seed ->
             Supervisor.with_faults ~classes:fault_classes ~seed sweep
           | None -> sweep ())
    in
    let report_progress_path () =
      Option.iter
        (fun path -> Printf.eprintf "wrote progress JSONL to %s\n%!" path)
        progress_out
    in
    let write_failures failed =
      Option.iter
        (fun path ->
           Out_channel.with_open_text path (fun oc ->
             Out_channel.output_string oc
               (Supervisor.failures_json_string failed));
           Printf.eprintf "wrote failure report to %s\n%!" path)
        failures_json
    in
    match trace_dir with
    | Some _ ->
      let outcomes =
        with_sweep (fun () ->
          Supervisor.run_files ~jobs ~config ~budget ~retry ~mode ?journal
            ~progress files)
      in
      report_progress_path ();
      let reports = Supervisor.file_completed outcomes in
      let failed = Supervisor.file_failures outcomes in
      if reports <> [] then Table.print (Supervisor.file_table reports);
      if failed <> [] then begin
        if reports <> [] then print_newline ();
        Table.print (Supervisor.failure_table failed)
      end;
      Option.iter
        (fun path ->
           Out_channel.with_open_text path (fun oc ->
             Out_channel.output_string oc
               (Supervisor.files_json_string outcomes));
           Printf.eprintf "wrote race table to %s\n%!" path)
        races_json;
      write_failures failed;
      if failed <> [] then exit 3
    | None ->
      let outcomes =
        with_sweep (fun () ->
          Supervisor.run_catalog ~jobs ~specs ~config ~budget ~retry ~mode
            ?journal ~progress ())
      in
      report_progress_path ();
      let runs = Supervisor.completed outcomes in
      let failed = Supervisor.failures outcomes in
      if runs <> [] then begin
        Table.print (Experiments.table2 runs);
        print_newline ();
        Table.print (Experiments.table3 ~verify runs);
        print_newline ();
        Table.print (Experiments.performance_table runs)
      end;
      if failed <> [] then begin
        if runs <> [] then print_newline ();
        Table.print (Supervisor.failure_table failed)
      end;
      write_failures failed
  in
  Cmd.v
    (Cmd.info "corpus"
       ~doc:
         "Regenerate Tables 2 and 3 over the paper's application corpus \
          (supervised: misbehaving applications become failure rows, not \
          crashes), or — with $(b,--trace-dir) — sweep a directory of \
          pre-recorded trace files under the same supervision.")
    Term.(
      const run $ verify $ only $ open_source $ jobs_arg $ hb_engine_arg
      $ budget_term $ inject_faults $ fault_classes $ failures_json $ isolate
      $ max_mem $ journal $ resume $ max_retries $ backoff $ progress_out
      $ trace_dir $ races_json $ telemetry_term)

let synth_cmd =
  let out =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"FILE" ~doc:"Output trace file.")
  in
  let events =
    Arg.(value & opt int 1_000_000
         & info [ "events"; "n" ] ~docv:"N"
             ~doc:"Number of events to generate.")
  in
  let seed =
    Arg.(value & opt int Longtrace.default_config.Longtrace.seed
         & info [ "seed" ] ~docv:"SEED"
             ~doc:"PRNG seed; the trace is a pure function of the \
                   configuration.")
  in
  let loopers =
    Arg.(value & opt int Longtrace.default_config.Longtrace.loopers
         & info [ "loopers" ] ~docv:"N"
             ~doc:"Looper threads the driver rotates posts over.")
  in
  let locations =
    Arg.(value & opt int Longtrace.default_config.Longtrace.locations
         & info [ "locations" ] ~docv:"N"
             ~doc:"Size of each memory-location pool (private and \
                   shared).")
  in
  let binary =
    Arg.(value & flag
         & info [ "binary" ]
             ~doc:
               "Emit the binary trace format of the codec instead of the \
                text line format (the generator's identifier pools are \
                written as the up-front table).  Every reader sniffs the \
                format, so no flag is needed on the consuming side.")
  in
  let run out events seed loopers locations binary =
    let config =
      { Longtrace.default_config with Longtrace.seed; loopers; locations }
    in
    let n =
      if binary then Longtrace.write_binary ~config ~events out
      else Longtrace.write ~config ~events out
    in
    Printf.printf "wrote %d events to %s (%s)\n" n out
      (if binary then "binary" else "text")
  in
  Cmd.v
    (Cmd.info "synth"
       ~doc:
         "Generate an arbitrarily long admissible trace (streamed to \
          disk, constant memory) — the workload for the streaming \
          engine and the CI memory gate.")
    Term.(const run $ out $ events $ seed $ loopers $ locations $ binary)

let convert_cmd =
  let src =
    Arg.(required & pos 0 (some file) None
         & info [] ~docv:"SRC" ~doc:"Source trace (text or binary).")
  in
  let dst =
    Arg.(required & pos 1 (some string) None
         & info [] ~docv:"DST" ~doc:"Destination trace file.")
  in
  let target =
    Arg.(
      value
      & opt (enum [ ("auto", `Auto); ("text", `Text); ("binary", `Binary) ])
          `Auto
      & info [ "to" ] ~docv:"FORMAT"
          ~doc:
            "Target format: $(b,text), $(b,binary), or $(b,auto) (the \
             opposite of the sniffed source format).")
  in
  let validate =
    Arg.(value & flag
         & info [ "validate" ]
             ~doc:
               "Stream the source through the Figure 5 admissibility \
                checker before converting; on rejection nothing is \
                written and the exit status is 1.")
  in
  let sniff_binary path =
    In_channel.with_open_bin path (fun ic ->
      let len = String.length Binfmt.magic in
      let buf = Bytes.create len in
      let rec fill off =
        if off >= len then len
        else
          match In_channel.input ic buf off (len - off) with
          | 0 -> off
          | n -> fill (off + n)
      in
      fill 0 = len && Binfmt.is_magic (Bytes.to_string buf))
  in
  let remove_partial dst =
    if Sys.file_exists dst then Sys.remove dst
  in
  let run src dst target validate =
    let src_binary = sniff_binary src in
    let to_binary =
      match target with
      | `Binary -> true
      | `Text -> false
      | `Auto -> not src_binary
    in
    if validate then begin
      match Wellformed.check_file src with
      | Ok _ -> ()
      | Error failure ->
        Format.eprintf "droidracer: %s: REJECTED: %a@." src
          Wellformed.pp_failure failure;
        exit 1
    end;
    let result =
      if to_binary then
        Binfmt.write_file dst (fun emit ->
          Trace_io.fold_events src ~init:0 ~f:(fun n ~line:_ event ->
            emit event;
            n + 1))
      else
        Out_channel.with_open_bin dst (fun oc ->
          Trace_io.fold_events src ~init:0 ~f:(fun n ~line:_ event ->
            Out_channel.output_string oc
              (Format.asprintf "%a\n" Trace_io.print_event event);
            n + 1))
    in
    match result with
    | Ok n ->
      Printf.printf "converted %d events: %s (%s) -> %s (%s)\n" n src
        (if src_binary then "binary" else "text")
        dst
        (if to_binary then "binary" else "text")
    | Error e ->
      remove_partial dst;
      Format.eprintf "droidracer: %s: %a@." src Trace_io.pp_read_error e;
      exit 1
  in
  Cmd.v
    (Cmd.info "convert"
       ~doc:
         "Convert a trace between the text line format and the versioned \
          binary format (streaming, constant memory).  The source format \
          is sniffed from its first bytes.")
    Term.(const run $ src $ dst $ target $ validate)

let gencorpus_cmd =
  let dir =
    Arg.(required & pos 0 (some string) None
         & info [] ~docv:"DIR"
             ~doc:"Output directory (created if missing).")
  in
  let count =
    Arg.(value & opt int 200
         & info [ "count" ] ~docv:"N" ~doc:"Number of variants to derive.")
  in
  let seed =
    Arg.(value & opt int 1
         & info [ "seed" ] ~docv:"SEED"
             ~doc:
               "Derivation seed; the whole corpus is a pure function of \
                (seed, count, events) and regenerates bit-identically.")
  in
  let events =
    Arg.(value & opt int 4000
         & info [ "events" ] ~docv:"N"
             ~doc:
               "Target events per variant (each variant draws a length \
                around this midpoint, floored so its full planting \
                window is emitted).")
  in
  let binary =
    Arg.(value & flag
         & info [ "binary" ]
             ~doc:"Write variants in the binary trace format (.drt) \
                   instead of the text format (.trace).")
  in
  let run dir count seed events binary =
    mkdir_p dir;
    let variants = Vargen.variants ~seed ~events ~count () in
    let total =
      List.fold_left
        (fun acc v ->
           ignore (Vargen.write ~dir ~binary v);
           acc + v.Vargen.v_events)
        0 variants
    in
    let manifest = Filename.concat dir "manifest.json" in
    Out_channel.with_open_bin manifest (fun oc ->
      Out_channel.output_string oc
        (Vargen.manifest_json_string ~binary variants));
    Printf.printf "wrote %d variants (%d events, %s) and %s\n" count total
      (if binary then "binary" else "text")
      manifest
  in
  Cmd.v
    (Cmd.info "gencorpus"
       ~doc:
         "Generate a corpus of application-trace variants with planted \
          ground-truth races, plus a manifest.json recall oracle — the \
          input for $(b,corpus --trace-dir) sweeps and the CI corpus \
          gate.")
    Term.(const run $ dir $ count $ seed $ events $ binary)

let predict_cmd =
  let files =
    Arg.(non_empty & pos_all file []
         & info [] ~docv:"TRACE" ~doc:"Trace files to analyse.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json-out" ] ~docv:"FILE"
             ~doc:
               "Write the prediction report (schema \
                droidracer-predictions/1: per-file summaries plus one \
                record per candidate pair with its verdict, window and \
                witness replay results) as JSON to $(docv).")
  in
  let window =
    Arg.(value & opt int Predict.default_params.Predict.window
         & info [ "predict-window" ] ~docv:"N"
             ~doc:
               "Maximum window span: candidate pairs whose accesses lie \
                more than $(docv) events apart are reported unknown \
                (window-exhausted) instead of searched.")
  in
  let max_iterations =
    Arg.(value & opt int Predict.default_params.Predict.max_iterations
         & info [ "max-iterations" ] ~docv:"N"
             ~doc:
               "Search nodes the per-pair solver may expand before the \
                pair is reported unknown (budget-exhausted).")
  in
  let max_extra =
    Arg.(value & opt int
           Predict.default_params.Predict.max_extra_per_location
         & info [ "max-extra" ] ~docv:"N"
             ~doc:
               "Reordering candidates searched per memory location; \
                further ones are counted as dropped in the report \
                (observed races and refutable pairs are never \
                dropped).")
  in
  let timeout =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:
               "Wall-clock budget for the whole run; pairs not solved \
                in time are reported unknown (deadline) and the report \
                is marked degraded, falling back to the observed-only \
                races — the sweep never blocks.  Unlike untimed runs, \
                which set of pairs is cut short depends on timing, so \
                degraded reports are not bit-identical across runs or \
                $(b,--jobs) values.")
  in
  let witness_dir =
    Arg.(value & opt (some string) None
         & info [ "witness-dir" ] ~docv:"DIR"
             ~doc:
               "Write each feasible pair's witness — the complete \
                reordered trace, replayable by $(b,validate) and \
                $(b,analyze) — under $(docv) (created if missing).")
  in
  let binary =
    Arg.(value & flag
         & info [ "binary" ]
             ~doc:"Write witnesses in the binary trace format (.drt).")
  in
  let show_all =
    Arg.(value & flag
         & info [ "all" ] ~doc:"Print every candidate pair's verdict.")
  in
  let run files json_out window max_iterations max_extra timeout witness_dir
      binary show_all jobs telemetry =
    with_telemetry telemetry @@ fun () ->
    let deadline =
      Option.map (fun t -> Unix.gettimeofday () +. t) timeout
    in
    let params =
      { Predict.window
      ; max_iterations
      ; max_extra_per_location = max_extra
      ; deadline
      }
    in
    Option.iter mkdir_p witness_dir;
    let witness_paths = Hashtbl.create 16 in
    let write_witness ~file idx (p : Predict.pair_result) =
      match (p.Predict.pr_verdict, witness_dir) with
      | Predict.Feasible w, Some dir ->
        let base = Filename.remove_extension (Filename.basename file) in
        let path =
          Filename.concat dir
            (Printf.sprintf "%s-pair%03d.%s" base idx
               (if binary then "drt" else "trace"))
        in
        (if binary then
           Binfmt.write_file path (fun emit ->
             List.iter emit (Trace.events w.Predict.w_trace))
         else Trace_io.save path w.Predict.w_trace);
        Hashtbl.replace witness_paths
          ( file
          , p.Predict.pr_pair.Race.first.Race.position
          , p.Predict.pr_pair.Race.second.Race.position )
          path
      | _ -> ()
    in
    let results =
      List.map
        (fun file ->
           match Trace_io.load file with
           | Error msg -> or_die (Error msg)
           | Ok trace ->
             let report = Predict.analyze ~params ~jobs trace in
             List.iteri (fun i p -> write_witness ~file i p)
               report.Predict.pairs;
             Format.printf "%s: %a@." file Predict.pp_report report;
             if show_all then
               List.iter
                 (fun (p : Predict.pair_result) ->
                    let verdict =
                      match p.Predict.pr_verdict with
                      | Predict.Feasible w ->
                        if w.Predict.w_flipped then "FEASIBLE (flipped)"
                        else "FEASIBLE (observed)"
                      | Predict.Refuted r ->
                        "refuted: " ^ Predict.refutation_label r
                      | Predict.Unknown u ->
                        "unknown: " ^ Predict.unknown_label u
                    in
                    Format.printf "  %a@.    -> %s@." Race.pp
                      p.Predict.pr_pair verdict)
                 report.Predict.pairs;
             List.iter
               (fun loc ->
                  Format.printf "  reordering-only race on %s@." loc)
               (Predict.extra_locations report);
             (file, report))
        files
    in
    Option.iter
      (fun path ->
         let witness_path ~file ~pair:(p : Predict.pair_result) =
           Hashtbl.find_opt witness_paths
             ( file
             , p.Predict.pr_pair.Race.first.Race.position
             , p.Predict.pr_pair.Race.second.Race.position )
         in
         Out_channel.with_open_text path (fun oc ->
           Out_channel.output_string oc
             (Predict.json_string ~params ~witness_path results));
         Printf.eprintf "wrote prediction report to %s\n%!" path)
      json_out;
    let degraded =
      List.exists (fun (_, r) -> r.Predict.degraded) results
    in
    if degraded then
      Printf.eprintf
        "droidracer: deadline passed; some pairs were not searched\n%!"
  in
  Cmd.v
    (Cmd.info "predict"
       ~doc:
         "Predict races beyond the observed schedule: for every \
          candidate pair the dense engine orders only through \
          schedule accidents (lock winners, dispatch order), search a \
          bounded window for an admissible reordering that flips the \
          pair, and emit the reordered trace as an executable witness \
          (checked against the admissibility rules, the transition \
          semantics and the dense relation before being reported).")
    Term.(
      const run $ files $ json_out $ window $ max_iterations $ max_extra
      $ timeout $ witness_dir $ binary $ show_all $ jobs_arg
      $ telemetry_term)

(* {1 The serving layer: serve / submit / loadgen} *)

let endpoint_arg =
  let doc =
    "Daemon endpoint: a unix socket path, $(b,unix:)$(i,PATH), \
     $(b,tcp:)$(i,HOST)$(b,:)$(i,PORT) or $(b,tcp:)$(i,PORT) \
     (localhost)."
  in
  Arg.(value & opt string "droidracerd.sock"
       & info [ "socket"; "s" ] ~docv:"ENDPOINT" ~doc)

let parse_endpoint s = or_die (Swire.endpoint_of_string s)

let read_file_bytes path =
  match In_channel.with_open_bin path In_channel.input_all with
  | bytes -> bytes
  | exception Sys_error msg -> or_die (Error msg)

let serve_cmd =
  let workers =
    Arg.(value & opt int 2
         & info [ "workers" ] ~docv:"N"
             ~doc:"Process-isolated analysis workers to fork at startup.")
  in
  let worker_jobs =
    Arg.(value & opt int 1
         & info [ "worker-jobs" ] ~docv:"N"
             ~doc:"Domains each worker spreads one analysis across.")
  in
  let queue =
    Arg.(value & opt int 16
         & info [ "queue" ] ~docv:"N"
             ~doc:
               "Admission queue capacity; past it requests are refused \
                with an explicit $(b,overloaded) response and a \
                retry-after hint.")
  in
  let timeout =
    Arg.(value & opt float 60.0
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:
               "Default per-request analysis budget (0 disables); \
                requests may set their own.  Enforced cooperatively in \
                the worker and by SIGKILL a grace period later.")
  in
  let kill_grace =
    Arg.(value & opt float 2.0
         & info [ "kill-grace" ] ~docv:"SECONDS"
             ~doc:
               "Grace period past the budget before the daemon SIGKILLs \
                a non-cooperating worker.")
  in
  let max_trace_mb =
    Arg.(value & opt int 64
         & info [ "max-trace-mb" ] ~docv:"MIB"
             ~doc:"Largest trace frame accepted from a client.")
  in
  let max_conns =
    Arg.(value & opt int 256
         & info [ "max-conns" ] ~docv:"N"
             ~doc:"Concurrent client connections before shedding.")
  in
  let client_timeout =
    Arg.(value & opt float 30.0
         & info [ "client-timeout" ] ~docv:"SECONDS"
             ~doc:
               "Seconds a connection may sit mid-frame or mid-write \
                before being shed.")
  in
  let spool =
    Arg.(value & opt string "droidracerd.spool"
         & info [ "spool" ] ~docv:"DIR"
             ~doc:
               "Directory accepted traces are spooled to before the \
                accept is acknowledged.")
  in
  let journal_arg =
    Arg.(value & opt (some string) None
         & info [ "journal" ] ~docv:"FILE"
             ~doc:
               "Durability journal (default: $(i,SPOOL)/journal.bin).  \
                Accepted and completed requests are recorded so a \
                crashed daemon restarted with $(b,--resume) replays \
                finished results and re-runs in-flight work.")
  in
  let no_journal =
    Arg.(value & flag
         & info [ "no-journal" ]
             ~doc:"Run without a journal (no crash durability).")
  in
  let resume =
    Arg.(value & flag
         & info [ "resume" ]
             ~doc:
               "Replay the journal left by a previous daemon: finished \
                requests become cached results, accepted-but-unfinished \
                ones are re-enqueued from the spool.")
  in
  let degrade_high =
    Arg.(value & opt float 0.75
         & info [ "degrade-high" ] ~docv:"FRACTION"
             ~doc:
               "Queue fill fraction at which requests degrade to the \
                streaming engine.")
  in
  let progress_out =
    Arg.(value & opt (some string) None
         & info [ "progress-out" ] ~docv:"FILE"
             ~doc:
               "Append one JSON heartbeat per completed request \
                (schema droidracer-progress/1) to $(docv).")
  in
  let verbose =
    Arg.(value & flag
         & info [ "verbose"; "v" ] ~doc:"Log every request and dispatch.")
  in
  let run socket workers worker_jobs queue timeout kill_grace max_trace_mb
      max_conns client_timeout spool journal_arg no_journal resume degrade_high
      progress_out verbose telemetry =
    let endpoint = parse_endpoint socket in
    let journal_path =
      if no_journal then None
      else
        Some
          (Option.value journal_arg
             ~default:(Filename.concat spool "journal.bin"))
    in
    let config =
      { (Server.default_config endpoint) with
        Server.workers = max 1 workers
      ; worker_jobs = max 1 worker_jobs
      ; queue_capacity = max 1 queue
      ; default_timeout = (if timeout <= 0.0 then None else Some timeout)
      ; kill_grace = Float.max 0.1 kill_grace
      ; max_trace_bytes = max 1 max_trace_mb * 1024 * 1024
      ; max_conns = max 1 max_conns
      ; client_timeout = Float.max 1.0 client_timeout
      ; spool_dir = spool
      ; journal_path
      ; resume
      ; degrade_high
      ; verbose
      ; progress_out
      }
    in
    with_telemetry telemetry @@ fun () ->
    match Server.run config with
    | () -> ()
    | exception Failure msg -> or_die (Error msg)
    | exception Unix.Unix_error (e, fn, arg) ->
      or_die
        (Error
           (Printf.sprintf "%s%s: %s" fn
              (if arg = "" then "" else " " ^ arg)
              (Unix.error_message e)))
  in
  Cmd.v
    (Cmd.info "serve"
       ~doc:
         "Run droidracerd: a persistent analysis daemon that accepts \
          trace submissions over a unix or TCP socket, schedules them \
          across forked workers (each free to use a domain pool), and \
          streams droidracer-races/1 results back.  Admission is a \
          bounded queue with explicit overload rejections; accepted \
          work is journalled for crash recovery; queue pressure \
          degrades the engine from dense to streaming; SIGTERM drains \
          gracefully.")
    Term.(
      const run $ endpoint_arg $ workers $ worker_jobs $ queue $ timeout
      $ kill_grace $ max_trace_mb $ max_conns $ client_timeout $ spool
      $ journal_arg $ no_journal $ resume $ degrade_high
      $ progress_out $ verbose $ telemetry_term)

let submit_cmd =
  let files =
    Arg.(value & pos_all file [] & info [] ~docv:"TRACE" ~doc:"Trace files.")
  in
  let engine =
    Arg.(value & opt string "auto"
         & info [ "engine" ] ~docv:"ENGINE"
             ~doc:
               "Requested happens-before engine: $(b,auto), $(b,dense) or \
                $(b,streaming).  Queue pressure may degrade it; the \
                response names the engine that ran.")
  in
  let timeout =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Per-request analysis budget (overrides the daemon's).")
  in
  let sleep =
    Arg.(value & opt float 0.0
         & info [ "sleep" ] ~docv:"SECONDS"
             ~doc:
               "Ask the worker to sleep before analyzing (load and \
                deadline testing).")
  in
  let no_wait =
    Arg.(value & flag
         & info [ "no-wait" ]
             ~doc:
               "Return as soon as the request is accepted instead of \
                waiting for the result; poll later with $(b,--result).")
  in
  let retry_for =
    Arg.(value & opt float 0.0
         & info [ "retry-for" ] ~docv:"SECONDS"
             ~doc:
               "Keep retrying for up to $(docv): reconnect across \
                daemon restarts and back off on $(b,overloaded) \
                responses, resubmitting the same request id (the \
                daemon's journal makes that idempotent).")
  in
  let id_arg =
    Arg.(value & opt (some string) None
         & info [ "id" ] ~docv:"ID"
             ~doc:
               "Request id (with several traces, a $(b,-)$(i,N) suffix \
                is appended).  Defaults to the file's basename plus a \
                content digest, so resubmitting the same trace \
                deduplicates.")
  in
  let result_id =
    Arg.(value & opt (some string) None
         & info [ "result" ] ~docv:"ID"
             ~doc:"Fetch the result of a previously submitted request.")
  in
  let health =
    Arg.(value & flag
         & info [ "health" ]
             ~doc:"Print the daemon's health/readiness report and exit.")
  in
  let stats =
    Arg.(value & flag
         & info [ "stats" ] ~doc:"Alias for $(b,--health).")
  in
  let default_id file bytes =
    let base =
      String.map
        (function
          | ('a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | '-') as c -> c
          | _ -> '_')
        (Filename.basename file)
    in
    let digest = String.sub (Digest.to_hex (Digest.string bytes)) 0 12 in
    let base =
      if String.length base > 100 then String.sub base 0 100 else base
    in
    Printf.sprintf "%s-%s" base digest
  in
  let run socket files engine timeout sleep no_wait retry_for id_arg result_id
      health stats =
    let endpoint = parse_endpoint socket in
    if not (Swire.valid_engine engine) then
      or_die (Error (Printf.sprintf "unknown engine %S" engine));
    let query ?trace request =
      match Client.once endpoint ?trace request with
      | Error e -> or_die (Error e)
      | Ok response ->
        print_endline (Swire.response_json_string response);
        Swire.response_status response
    in
    if health || stats then begin
      let status = query Swire.Health in
      if status <> "ok" && status <> "draining" then exit 1
    end
    else
      match result_id with
      | Some id ->
        let status = query (Swire.Result id) in
        if status <> "completed" then exit 1
      | None ->
        if files = [] then
          or_die
            (Error
               "nothing to do: give trace files, --result ID or --health");
        let failed = ref false in
        List.iteri
          (fun i file ->
             let trace = read_file_bytes file in
             let id =
               match id_arg with
               | Some id when List.length files = 1 -> id
               | Some id -> Printf.sprintf "%s-%d" id i
               | None -> default_id file trace
             in
             let status =
               if retry_for > 0.0 then begin
                 match
                   Client.submit ~endpoint ~deadline_seconds:retry_for ~id
                     ~engine ?timeout ~sleep ~trace ()
                 with
                 | Error e -> or_die (Error e)
                 | Ok outcome ->
                   print_endline
                     (Swire.response_json_string outcome.Client.so_response);
                   Swire.response_status outcome.Client.so_response
               end
               else begin
                 let request =
                   Swire.Analyze
                     { a_id = id
                     ; a_engine = engine
                     ; a_timeout = timeout
                     ; a_sleep = sleep
                     ; a_trace_bytes = String.length trace
                     ; a_wait = not no_wait
                     }
                 in
                 query ~trace request
               end
             in
             (match status with
              | "completed" | "accepted" | "pending" -> ()
              | _ -> failed := true))
          files;
        if !failed then exit 1
  in
  Cmd.v
    (Cmd.info "submit"
       ~doc:
         "Submit trace files to a running droidracerd and print one \
          droidracer-races/1 JSON response per line.  Also queries \
          daemon health ($(b,--health)) and fetches results of earlier \
          asynchronous submissions ($(b,--result)).  Exits non-zero if \
          any request ends in a status other than completed, accepted \
          or pending.")
    Term.(
      const run $ endpoint_arg $ files $ engine $ timeout $ sleep $ no_wait
      $ retry_for $ id_arg $ result_id $ health $ stats)

let loadgen_cmd =
  let trace_dir =
    Arg.(required & opt (some dir) None
         & info [ "trace-dir" ] ~docv:"DIR"
             ~doc:"Directory of trace files to submit (round-robin).")
  in
  let clients =
    Arg.(value & opt int 8
         & info [ "clients" ] ~docv:"N"
             ~doc:"Concurrent client processes to fork.")
  in
  let requests =
    Arg.(value & opt int 10
         & info [ "requests" ] ~docv:"N" ~doc:"Requests per client.")
  in
  let engine =
    Arg.(value & opt string "auto"
         & info [ "engine" ] ~docv:"ENGINE" ~doc:"Requested engine.")
  in
  let timeout =
    Arg.(value & opt (some float) None
         & info [ "timeout" ] ~docv:"SECONDS"
             ~doc:"Per-request analysis budget.")
  in
  let sleep =
    Arg.(value & opt float 0.0
         & info [ "sleep" ] ~docv:"SECONDS"
             ~doc:"Worker sleep per request (contention testing).")
  in
  let deadline =
    Arg.(value & opt float 120.0
         & info [ "deadline" ] ~docv:"SECONDS"
             ~doc:
               "Per-request client deadline; a request with no terminal \
                response by then counts as lost.")
  in
  let tag =
    Arg.(value & opt string "lg"
         & info [ "tag" ] ~docv:"TAG"
             ~doc:
               "Request-id prefix.  Reuse a tag across a daemon \
                restart with $(b,--resume) to observe journal replay.")
  in
  let json_out =
    Arg.(value & opt (some string) None
         & info [ "json-out" ] ~docv:"FILE"
             ~doc:
               "Write the droidracer-service-bench/1 report (p50/p99 \
                latency, traces/sec, status counts) to $(docv).")
  in
  let run socket trace_dir clients requests engine timeout sleep deadline tag
      json_out =
    let endpoint = parse_endpoint socket in
    if not (Swire.valid_engine engine) then
      or_die (Error (Printf.sprintf "unknown engine %S" engine));
    let traces =
      Sys.readdir trace_dir |> Array.to_list |> List.sort String.compare
      |> List.filter_map (fun name ->
        let path = Filename.concat trace_dir name in
        if Sys.is_directory path then None
        else Some (name, read_file_bytes path))
      |> Array.of_list
    in
    if traces = [||] then
      or_die (Error (Printf.sprintf "no trace files in %s" trace_dir));
    let stats =
      Loadgen.run ~endpoint ~clients:(max 1 clients)
        ~requests:(max 1 requests) ~traces ~engine ?timeout ~sleep
        ~deadline_seconds:deadline ~tag ()
    in
    print_endline (Loadgen.human_summary stats);
    Option.iter
      (fun path ->
         Loadgen.write_json path stats;
         Printf.eprintf "wrote service bench to %s\n%!" path)
      json_out;
    if Loadgen.lost stats > 0 then exit 1
  in
  Cmd.v
    (Cmd.info "loadgen"
       ~doc:
         "Drive a running droidracerd with N forked client processes \
          submitting traces concurrently, then report latency \
          percentiles and throughput (schema \
          droidracer-service-bench/1).  Clients ride out restarts and \
          overload rejections by resubmitting the same request id; a \
          request is lost only if it never gets a terminal response \
          before its deadline.  Exits non-zero if any request is lost.")
    Term.(
      const run $ endpoint_arg $ trace_dir $ clients $ requests $ engine
      $ timeout $ sleep $ deadline $ tag $ json_out)

let lifecycle_cmd =
  let run () = Table.print (Experiments.lifecycle_table ()) in
  Cmd.v
    (Cmd.info "lifecycle" ~doc:"Print the Figure 8 activity lifecycle machine.")
    Term.(const run $ const ())

let () =
  let doc =
    "dynamic data-race detection for the Android concurrency model \
     (reproduction of Maiya, Kanade & Majumdar, PLDI 2014)"
  in
  let info = Cmd.info "droidracer" ~version:"1.0.0" ~doc in
  exit
    (Cmd.eval
       (Cmd.group info
          [ list_cmd
          ; analyze_cmd
          ; validate_cmd
          ; trace_cmd
          ; detect_cmd
          ; explore_cmd
          ; verify_cmd
          ; corpus_cmd
          ; synth_cmd
          ; convert_cmd
          ; gencorpus_cmd
          ; predict_cmd
          ; serve_cmd
          ; submit_cmd
          ; loadgen_cmd
          ; lifecycle_cmd
          ]))
