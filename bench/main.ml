(* The evaluation harness: regenerates every table and figure of the
   paper's evaluation (Section 6) — the motivating example, Figure 8,
   Tables 2 and 3, the coalescing and analysis-cost numbers, the
   ablations and the extensions.  Performance is measured by
   perfbench/ (BENCHMARK.json); the wall times printed here only
   annotate the tables.

   Run with [dune exec bench/main.exe].  Flags:
   - [--quick]     restrict the corpus to the open-source applications
                   and skip verification (for CI-style runs);
   - [--jobs N]    analysis domains (default: the hardware's
                   recommended domain count); every table is identical
                   for every N — only the wall times change;
   - [--trace-out PATH]   enable telemetry and write a Chrome
                   trace_event JSON of the whole run (one track per
                   analysis domain; chrome://tracing / Perfetto);
   - [--metrics-out PATH] enable telemetry and write the counters,
                   histograms and per-domain statistics as JSON;
   - [--series-out PATH]  enable telemetry and write the sampled
                   resource series (RSS, heap) as JSON. *)

module Trace = Droidracer_trace.Trace
module Wellformed = Droidracer_trace.Wellformed
module Par_pool = Droidracer_core.Par_pool
module Runtime = Droidracer_appmodel.Runtime
module Catalog = Droidracer_corpus.Catalog
module Synthetic = Droidracer_corpus.Synthetic
module Experiments = Droidracer_report.Experiments
module Supervisor = Droidracer_report.Supervisor
module Proc_pool = Droidracer_report.Proc_pool
module Table = Droidracer_report.Table
module Obs = Droidracer_obs.Obs

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

(* {1 Command line} *)

type options =
  { quick : bool
  ; jobs : int
  ; trace_out : string option
  ; metrics_out : string option
  ; series_out : string option
  }

let usage () =
  prerr_endline
    "usage: bench [--quick] [--jobs N] [--trace-out PATH] [--metrics-out \
     PATH] [--series-out PATH]";
  exit 2

let parse_options () =
  let rec go i acc =
    if i >= Array.length Sys.argv then acc
    else
      match Sys.argv.(i) with
      | "--quick" -> go (i + 1) { acc with quick = true }
      | "--jobs" | "-j" when i + 1 < Array.length Sys.argv ->
        (match int_of_string_opt Sys.argv.(i + 1) with
         | Some jobs when jobs >= 1 -> go (i + 2) { acc with jobs }
         | Some _ | None -> usage ())
      | "--trace-out" when i + 1 < Array.length Sys.argv ->
        go (i + 2) { acc with trace_out = Some Sys.argv.(i + 1) }
      | "--metrics-out" when i + 1 < Array.length Sys.argv ->
        go (i + 2) { acc with metrics_out = Some Sys.argv.(i + 1) }
      | "--series-out" when i + 1 < Array.length Sys.argv ->
        go (i + 2) { acc with series_out = Some Sys.argv.(i + 1) }
      | _ -> usage ()
  in
  go 1
    { quick = false
    ; jobs = Par_pool.default_jobs ()
    ; trace_out = None
    ; metrics_out = None
    ; series_out = None
    }

let () =
  let opts = parse_options () in
  if opts.trace_out <> None || opts.metrics_out <> None
     || opts.series_out <> None
  then begin
    Obs.enable ();
    Obs.reset ();
    Obs.sample_resources ()
  end;
  (* [Sys.time] sums CPU time over every domain, which misreports
     parallel runs; the annotations use the wall clock. *)
  let timed f =
    let t0 = Unix.gettimeofday () in
    let v = f () in
    (v, Unix.gettimeofday () -. t0)
  in
  let quick = opts.quick in
  let specs = if quick then Catalog.open_source else Catalog.all in
  section "DroidRacer reproduction: evaluation harness (PLDI 2014, Section 6)";
  Printf.printf
    "Corpus: %d applications%s; %d analysis domain(s); every table below \
     shows paper / measured.\n"
    (List.length specs)
    (if quick then " (open source only: --quick)" else "")
    opts.jobs;
  section "Motivating example (Figures 1-4)";
  Table.print (Experiments.music_player_summary ());
  section "Figure 8: activity lifecycle";
  Table.print (Experiments.lifecycle_table ());
  section "Running the corpus";
  (* No retry, and any failed app stops the harness: the tables are
     for every app or for none. *)
  let outcomes, corpus_dt =
    timed (fun () ->
      Supervisor.run_catalog ~jobs:opts.jobs ~retry:Proc_pool.no_retry ~specs
        ())
  in
  let runs = Supervisor.completed outcomes in
  (match Supervisor.failures outcomes with
   | [] -> ()
   | fs ->
     Table.print (Supervisor.failure_table fs);
     exit 1);
  Printf.printf "generated and analysed %d traces in %.1fs wall (%d jobs)\n"
    (List.length runs) corpus_dt opts.jobs;
  section "Ingest validation (the admissibility gate)";
  let rejected, validate_dt =
    timed (fun () ->
      List.filter
        (fun run ->
           match Wellformed.check run.Experiments.ar_result.Runtime.observed with
           | Ok _ -> false
           | Error e ->
             Printf.printf "REJECTED %s: %s\n"
               run.Experiments.ar_built.Synthetic.b_spec.Synthetic.s_name
               (Wellformed.error_message e);
             true)
        runs)
  in
  let total_events =
    List.fold_left
      (fun acc r -> acc + Trace.length r.Experiments.ar_result.Runtime.observed)
      0 runs
  in
  Printf.printf
    "validated %d events across %d traces in %.3fs wall (%.1f Mev/s), %d \
     rejected\n"
    total_events (List.length runs) validate_dt
    (float_of_int total_events /. 1e6 /. Float.max 1e-9 validate_dt)
    (List.length rejected);
  section "Table 2";
  Table.print (Experiments.table2 runs);
  section "Table 3";
  let (), verify_dt =
    timed (fun () -> Table.print (Experiments.table3 ~verify:(not quick) runs))
  in
  Printf.printf
    "\n(race verification by schedule perturbation took %.1fs wall)\n"
    verify_dt;
  section "Performance (Section 6): coalescing and analysis cost";
  Table.print (Experiments.performance_table runs);
  section "Ablation: specialized happens-before relations";
  Table.print (Experiments.baseline_table runs);
  section "Ablation: graph engine vs vector-clock engine";
  Table.print (Experiments.engine_table runs);
  section "Ablation: modelling the runtime environment (enables)";
  Table.print (Experiments.environment_model_table ());
  section "Extension: the deferred front-of-queue rule";
  Table.print (Experiments.front_rule_table runs);
  section "Extension: race coverage [24]";
  Table.print (Experiments.coverage_table runs);
  Option.iter
    (fun path ->
       Obs.write_chrome_trace path;
       Printf.printf "wrote %s\n" path)
    opts.trace_out;
  Option.iter
    (fun path ->
       Obs.write_metrics_json path;
       Printf.printf "wrote %s\n" path)
    opts.metrics_out;
  Option.iter
    (fun path ->
       Obs.write_series_json path;
       Printf.printf "wrote %s\n" path)
    opts.series_out
