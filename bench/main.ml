(* The benchmark harness: regenerates every table and figure of the
   paper's evaluation (Section 6) and times the analysis pipeline with
   Bechamel micro-benchmarks — one benchmark per regenerated artefact.

   Run with [dune exec bench/main.exe].  Flags:
   - [--quick]     restrict the corpus to the open-source applications
                   and skip verification (for CI-style runs);
   - [--jobs N]    analysis domains (default: the hardware's
                   recommended domain count); every table is identical
                   for every N — only the wall times change;
   - [--json PATH] also write a machine-readable record of per-stage
                   wall times (the CI smoke job archives it to track
                   the performance trajectory across PRs);
   - [--hb-engines-json PATH] also write the dense-versus-worklist
                   closure-engine comparison (per application and
                   engine: edges, passes, word ORs, wall time);
   - [--streaming-json PATH] also write the streaming engine's
                   throughput and memory profile (schema
                   droidracer-streaming/1; the CI streaming gate
                   archives it);
   - [--corpus-json PATH] also write the codec + corpus-sweep record
                   (schema droidracer-corpus-bench/1: text vs binary
                   sizes and events/sec, race-table equality, apps/hour
                   and peak worker RSS; the CI corpus gate archives it
                   as BENCH_corpus.json);
   - [--predict-json PATH] also write the predictive-engine record
                   (schema droidracer-predict-bench/1: candidate pairs
                   per second, masked-race recall, reordering-only
                   races versus the streaming engine; the CI predict
                   gate archives it as BENCH_predict.json);
   - [--service-json PATH] also write the droidracerd load-generator
                   record (schema droidracer-service-bench/1: p50/p99
                   latency and traces/sec at 8 concurrent clients; the
                   CI service gate archives it as BENCH_service.json);
   - [--trace-out PATH]   enable telemetry and write a Chrome
                   trace_event JSON of the whole run (one track per
                   analysis domain; chrome://tracing / Perfetto);
   - [--metrics-out PATH] enable telemetry and write the counters,
                   histograms and per-domain statistics as JSON. *)

module Trace = Droidracer_trace.Trace
module Trace_io = Droidracer_trace.Trace_io
module Binfmt = Droidracer_trace.Binfmt
module Wellformed = Droidracer_trace.Wellformed
module Graph = Droidracer_core.Graph
module Happens_before = Droidracer_core.Happens_before
module Detector = Droidracer_core.Detector
module Streaming_engine = Droidracer_core.Streaming_engine
module Par_pool = Droidracer_core.Par_pool
module Longtrace = Droidracer_corpus.Longtrace
module Predict = Droidracer_predict.Predict
module Vargen = Droidracer_corpus.Vargen
module Runtime = Droidracer_appmodel.Runtime
module Music_player = Droidracer_corpus.Music_player
module Catalog = Droidracer_corpus.Catalog
module Synthetic = Droidracer_corpus.Synthetic
module Experiments = Droidracer_report.Experiments
module Supervisor = Droidracer_report.Supervisor
module Table = Droidracer_report.Table
module Obs = Droidracer_obs.Obs
module Swire = Droidracer_service.Wire
module Server = Droidracer_service.Server
module Sclient = Droidracer_service.Client
module Loadgen = Droidracer_service.Loadgen

let section title =
  Printf.printf "\n%s\n%s\n\n" title (String.make (String.length title) '=')

(* {1 Command line} *)

type options =
  { quick : bool
  ; jobs : int
  ; json : string option
  ; hb_engines_json : string option
  ; streaming_json : string option
  ; trace_out : string option
  ; metrics_out : string option
  ; series_out : string option
  ; baseline : string option
  ; corpus_json : string option
  ; predict_json : string option
  ; service_json : string option
  }

let usage () =
  prerr_endline
    "usage: bench [--quick] [--jobs N] [--json PATH] [--hb-engines-json PATH] \
     [--streaming-json PATH] [--corpus-json PATH] [--predict-json PATH] \
     [--service-json PATH] [--trace-out PATH] [--metrics-out PATH] \
     [--series-out PATH] [--baseline PATH]";
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
      | "--json" when i + 1 < Array.length Sys.argv ->
        go (i + 2) { acc with json = Some Sys.argv.(i + 1) }
      | "--hb-engines-json" when i + 1 < Array.length Sys.argv ->
        go (i + 2) { acc with hb_engines_json = Some Sys.argv.(i + 1) }
      | "--streaming-json" when i + 1 < Array.length Sys.argv ->
        go (i + 2) { acc with streaming_json = Some Sys.argv.(i + 1) }
      | "--trace-out" when i + 1 < Array.length Sys.argv ->
        go (i + 2) { acc with trace_out = Some Sys.argv.(i + 1) }
      | "--metrics-out" when i + 1 < Array.length Sys.argv ->
        go (i + 2) { acc with metrics_out = Some Sys.argv.(i + 1) }
      | "--series-out" when i + 1 < Array.length Sys.argv ->
        go (i + 2) { acc with series_out = Some Sys.argv.(i + 1) }
      | "--baseline" when i + 1 < Array.length Sys.argv ->
        go (i + 2) { acc with baseline = Some Sys.argv.(i + 1) }
      | "--corpus-json" when i + 1 < Array.length Sys.argv ->
        go (i + 2) { acc with corpus_json = Some Sys.argv.(i + 1) }
      | "--predict-json" when i + 1 < Array.length Sys.argv ->
        go (i + 2) { acc with predict_json = Some Sys.argv.(i + 1) }
      | "--service-json" when i + 1 < Array.length Sys.argv ->
        go (i + 2) { acc with service_json = Some Sys.argv.(i + 1) }
      | _ -> usage ()
  in
  go 1
    { quick = false
    ; jobs = Par_pool.default_jobs ()
    ; json = None
    ; hb_engines_json = None
    ; streaming_json = None
    ; trace_out = None
    ; metrics_out = None
    ; series_out = None
    ; baseline = None
    ; corpus_json = None
    ; predict_json = None
    ; service_json = None
    }

(* {1 Wall-clock stage timings}

   [Sys.time] reports CPU time summed over every domain, which
   misreports (often inverts) parallel speedups; stages are timed with
   the wall clock instead, and recorded for the JSON report. *)

let stages : (string * float) list ref = ref []

let timed name f =
  let t0 = Unix.gettimeofday () in
  let v = f () in
  let dt = Unix.gettimeofday () -. t0 in
  stages := (name, dt) :: !stages;
  (v, dt)

let write_json path opts (runs : Experiments.app_run list) =
  let oc =
    try open_out path
    with Sys_error msg ->
      Printf.eprintf "bench: cannot write --json file: %s\n" msg;
      exit 2
  in
  let out fmt = Printf.fprintf oc fmt in
  (* Self-describing, hostname-free metadata: enough to interpret the
     numbers of any BENCH_*.json in isolation, without identifying the
     machine that produced them. *)
  out "{\n  \"schema\": \"droidracer-bench/2\",\n";
  out "  \"jobs\": %d,\n" opts.jobs;
  out "  \"quick\": %b,\n" opts.quick;
  out "  \"corpus_apps\": %d,\n" (List.length runs);
  out "  \"metadata\": {\n";
  out "    \"ocaml_version\": \"%s\",\n" (Json.escape Sys.ocaml_version);
  out "    \"word_size\": %d,\n" Sys.word_size;
  out "    \"recommended_domains\": %d,\n" (Par_pool.default_jobs ());
  out "    \"telemetry\": %b\n" (Obs.enabled ());
  out "  },\n";
  out "  \"stages\": [\n";
  let stages = List.rev !stages in
  List.iteri
    (fun i (name, dt) ->
       out "    {\"name\": \"%s\", \"wall_seconds\": %.6f}%s\n"
         (Json.escape name) dt
         (if i = List.length stages - 1 then "" else ","))
    stages;
  out "  ],\n";
  out "  \"apps\": [\n";
  List.iteri
    (fun i run ->
       let r = run.Experiments.ar_report in
       let s = run.Experiments.ar_built.Synthetic.b_spec in
       out
         "    {\"name\": \"%s\", \"nodes\": %d, \"hb_edges\": %d, \
          \"passes\": %d, \"races\": %d, \"distinct_races\": %d, \
          \"analysis_wall_seconds\": %.6f, \"hb_wall_seconds\": %.6f, \
          \"detect_wall_seconds\": %.6f}%s\n"
         (Json.escape s.Synthetic.s_name)
         r.Detector.nodes r.Detector.hb_edges r.Detector.fixpoint_passes
         (List.length r.Detector.all_races)
         (List.length r.Detector.distinct_races)
         r.Detector.elapsed_seconds
         (Detector.phase_seconds r "happens_before")
         (Detector.phase_seconds r "race_detect")
         (if i = List.length runs - 1 then "" else ","))
    runs;
  out "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n" path

(* {1 Baseline comparison}

   Compares this run's stage wall times against a committed
   [BENCH_*.json] (schema droidracer-bench/2) and fails — exit 1 — when
   the total over the stages both runs share regresses by more than
   25%.  A baseline with no stages (the committed placeholder that
   starts a trajectory) passes trivially; an unreadable or malformed
   baseline is a usage error (exit 2), not a regression. *)

let regression_threshold = 1.25

(* Parsed before the bench runs, so a bad path fails in milliseconds
   rather than after the full suite. *)
let load_baseline path =
  let fail fmt =
    Printf.ksprintf
      (fun msg ->
         Printf.eprintf "bench: --baseline %s: %s\n" path msg;
         exit 2)
      fmt
  in
  let text =
    try In_channel.with_open_text path In_channel.input_all
    with Sys_error msg -> fail "%s" msg
  in
  let doc =
    match Json_parse.parse text with
    | Ok doc -> doc
    | Error msg -> fail "malformed JSON: %s" msg
  in
  match Option.bind (Json_parse.member "stages" doc) Json_parse.to_list with
  | None -> fail "no \"stages\" array"
  | Some entries ->
    List.filter_map
      (fun entry ->
         match
           ( Option.bind (Json_parse.member "name" entry)
               Json_parse.to_string
           , Option.bind (Json_parse.member "wall_seconds" entry)
               Json_parse.to_number )
         with
         | Some name, Some dt -> Some (name, dt)
         | _ -> fail "stage entry without name/wall_seconds")
      entries

let compare_baseline (path, baseline_stages) =
  section "Baseline comparison";
  if baseline_stages = [] then
    Printf.printf
      "baseline %s has no stages yet: recording the first trajectory point, \
       nothing to compare.\n"
      path
  else begin
    let current = List.rev !stages in
    let shared =
      List.filter_map
        (fun (name, base_dt) ->
           Option.map
             (fun (_, cur_dt) -> (name, base_dt, cur_dt))
             (List.find_opt (fun (n, _) -> n = name) current))
        baseline_stages
    in
    if shared = [] then
      Printf.printf
        "baseline %s shares no stage names with this run: nothing to \
         compare.\n"
        path
    else begin
      (* Cells carry their units ("0.123 s", "1.04x") so bench/scrub.sh
         strips them and the determinism diff survives real baselines. *)
      let table =
        Table.create ~title:"Stage wall times vs baseline"
          ~columns:[ "stage"; "baseline"; "current"; "ratio" ]
      in
      List.iter
        (fun (name, base_dt, cur_dt) ->
           Table.add_row table
             [ name
             ; Printf.sprintf "%.3f s" base_dt
             ; Printf.sprintf "%.3f s" cur_dt
             ; Printf.sprintf "%.2fx" (cur_dt /. Float.max 1e-9 base_dt)
             ])
        shared;
      Table.print table;
      let total (f : string * float * float -> float) =
        List.fold_left (fun acc x -> acc +. f x) 0.0 shared
      in
      let base_total = total (fun (_, b, _) -> b) in
      let cur_total = total (fun (_, _, c) -> c) in
      let ratio = cur_total /. Float.max 1e-9 base_total in
      Printf.printf
        "\ntotal over %d shared stage(s): baseline %.3fs, current %.3fs \
         (%.2fx, threshold %.2fx)\n"
        (List.length shared) base_total cur_total ratio regression_threshold;
      if ratio > regression_threshold then begin
        Printf.eprintf
          "bench: wall-clock regression: %.2fx > %.2fx against %s\n"
          ratio regression_threshold path;
        exit 1
      end
      else Printf.printf "baseline check passed.\n"
    end
  end

(* {1 Closure-engine comparison}

   Re-analyses every corpus trace with each happens-before closure
   engine.  The inner analyses run at jobs=1 — both engines are
   jobs-independent, and sequential timings make the wall-time columns
   comparable — while the (app × engine) grid itself is spread over the
   pool. *)

type engine_run =
  { er_app : string
  ; er_engine : Happens_before.closure_engine
  ; er_report : Detector.report
  }

let engine_comparison ~jobs (runs : Experiments.app_run list) =
  let tasks =
    List.concat_map
      (fun run ->
         List.map
           (fun engine -> (run, engine))
           [ Happens_before.Dense; Happens_before.Worklist ])
      runs
  in
  Par_pool.parallel_map ~jobs
    (fun (run, engine) ->
       let config =
         { Detector.default_config with
           hb = { Detector.default_config.hb with closure = engine }
         }
       in
       { er_app = run.Experiments.ar_built.Synthetic.b_spec.Synthetic.s_name
       ; er_engine = engine
       ; er_report =
           Detector.analyze ~config ~jobs:1
             run.Experiments.ar_result.Runtime.observed
       })
    tasks

let hb_engine_table (eruns : engine_run list) =
  let table =
    Table.create ~title:"Closure engines: dense vs worklist (jobs=1)"
      ~columns:
        [ "application"
        ; "hb pairs"
        ; "passes d/w"
        ; "word ORs dense"
        ; "word ORs worklist"
        ; "hb dense"
        ; "hb worklist"
        ; "speedup"
        ; "races"
        ]
  in
  let rec go = function
    | [] -> ()
    | d :: w :: rest when d.er_app = w.er_app ->
      let rd = d.er_report and rw = w.er_report in
      let hd = Detector.phase_seconds rd "happens_before"
      and hw = Detector.phase_seconds rw "happens_before" in
      let agree =
        rd.Detector.hb_edges = rw.Detector.hb_edges
        && List.length rd.Detector.all_races
           = List.length rw.Detector.all_races
        && List.length rd.Detector.distinct_races
           = List.length rw.Detector.distinct_races
      in
      Table.add_row table
        [ d.er_app
        ; string_of_int rd.Detector.hb_edges
        ; Printf.sprintf "%d/%d" rd.Detector.fixpoint_passes
            rw.Detector.fixpoint_passes
        ; string_of_int rd.Detector.hb_word_ors
        ; string_of_int rw.Detector.hb_word_ors
        ; Printf.sprintf "%.3fs" hd
        ; Printf.sprintf "%.3fs" hw
        ; (if hw > 0. then Printf.sprintf "%.1fx" (hd /. hw) else "n/a")
        ; Printf.sprintf "%d%s"
            (List.length rd.Detector.all_races)
            (if agree then "" else " MISMATCH")
        ];
      go rest
    | _ :: _ ->
      (* engine_comparison emits a dense/worklist pair per application *)
      assert false
  in
  go eruns;
  table

let write_hb_engines_json path (eruns : engine_run list) =
  let oc =
    try open_out path
    with Sys_error msg ->
      Printf.eprintf "bench: cannot write --hb-engines-json file: %s\n" msg;
      exit 2
  in
  let out fmt = Printf.fprintf oc fmt in
  out "{\n  \"schema\": \"droidracer-hb-engines/1\",\n";
  out "  \"apps\": [\n";
  let engine_fields r =
    Printf.sprintf
      "{\"hb_edges\": %d, \"passes\": %d, \"word_ors\": %d, \
       \"rows_requeued\": %d, \"hb_wall_seconds\": %.6f, \"races\": %d, \
       \"distinct_races\": %d}"
      r.Detector.hb_edges r.Detector.fixpoint_passes r.Detector.hb_word_ors
      r.Detector.hb_rows_requeued
      (Detector.phase_seconds r "happens_before")
      (List.length r.Detector.all_races)
      (List.length r.Detector.distinct_races)
  in
  let rec go = function
    | [] -> ()
    | d :: w :: rest when d.er_app = w.er_app ->
      out "    {\"name\": \"%s\",\n" (Json.escape d.er_app);
      out "     \"dense\": %s,\n" (engine_fields d.er_report);
      out "     \"worklist\": %s}%s\n"
        (engine_fields w.er_report)
        (if rest = [] then "" else ",");
      go rest
    | _ :: _ -> assert false
  in
  go eruns;
  out "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n" path

(* {1 Binary codec + corpus sweep}

   Two measurements around the binary trace codec.  Codec: the same
   generated trace written in both formats, then re-read through the
   format-sniffing streaming reader — on-disk size and events/sec, text
   vs binary, plus a race-table equality check (the streaming engine
   over both files must report identical races).  Corpus: a directory
   of generated binary app variants swept by the process-isolated
   supervisor — apps/hour and the peak worker RSS from the [proc]
   histogram.

   Like [supervision_overhead], this stage forks workers, so it must
   run before the process's first domain-parallel computation. *)

type corpus_bench =
  { cb_events : int
  ; cb_text_bytes : int
  ; cb_binary_bytes : int
  ; cb_text_parse_dt : float
  ; cb_binary_decode_dt : float
  ; cb_tables_identical : bool
  ; cb_variants : int
  ; cb_completed : int
  ; cb_failed : int
  ; cb_sweep_dt : float
  ; cb_peak_worker_rss_kb : float
  }

let count_events path =
  match Trace_io.fold_events path ~init:0 ~f:(fun n ~line:_ _ -> n + 1) with
  | Ok n -> n
  | Error e ->
    Printf.eprintf "bench: %s: %s\n" path (Trace_io.read_error_message e);
    exit 1

let races_of_file path =
  match Streaming_engine.detect_file path with
  | Ok (races, _) -> races
  | Error e ->
    Printf.eprintf "bench: %s: %s\n" path (Trace_io.read_error_message e);
    exit 1

let with_temp_dir f =
  let dir = Filename.temp_file "droidracer_bench" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      (try
         Array.iter
           (fun name -> Sys.remove (Filename.concat dir name))
           (Sys.readdir dir);
         Sys.rmdir dir
       with Sys_error _ -> ()))
    (fun () -> f dir)

(* {1 The serving layer: droidracerd under load}

   Forks droidracerd with a fleet of workers and drives it with the
   load generator: 8 forked client processes submitting the catalog's
   traces concurrently over the daemon's unix socket.  The stage fails
   if any request is lost or the daemon does not drain cleanly on
   SIGTERM.  Daemon, workers and clients are all forked processes, so
   this must run before the process's first domain spawn — i.e. first
   of all the stages. *)

let service_stage ~quick ~jobs ~clients =
  with_temp_dir @@ fun dir ->
  let specs = if quick then Catalog.open_source else Catalog.all in
  let traces =
    List.map
      (fun spec ->
         let built = Synthetic.build spec in
         let result =
           Runtime.run ~options:built.Synthetic.b_options
             built.Synthetic.b_app built.Synthetic.b_events
         in
         let path = Filename.concat dir (spec.Synthetic.s_name ^ ".drt") in
         Binfmt.save path result.Runtime.observed;
         (spec.Synthetic.s_name, In_channel.with_open_bin path In_channel.input_all))
      specs
    |> Array.of_list
  in
  let endpoint = Swire.Unix_socket (Filename.concat dir "d.sock") in
  let config =
    { (Server.default_config endpoint) with
      Server.workers = min 4 (max 2 jobs)
    ; queue_capacity = 32
    ; spool_dir = Filename.concat dir "spool"
    ; journal_path = Some (Filename.concat dir "journal.bin")
    }
  in
  let daemon =
    match Unix.fork () with
    | 0 ->
      (try
         let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
         Unix.dup2 devnull Unix.stderr;
         Unix.close devnull
       with Unix.Unix_error _ -> ());
      (try Server.run config with _ -> ());
      Unix._exit 0
    | pid -> pid
  in
  let rec wait_ready deadline =
    match Sclient.once endpoint Swire.Health with
    | Ok json when Swire.response_status json = "ok" -> ()
    | _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.05;
      wait_ready deadline
    | _ ->
      Printf.eprintf "bench: droidracerd never became ready\n";
      exit 1
  in
  wait_ready (Unix.gettimeofday () +. 15.0);
  let requests = if quick then 6 else 12 in
  let stats, _ =
    timed "service_loadgen" (fun () ->
      Loadgen.run ~endpoint ~clients ~requests ~traces
        ~deadline_seconds:120.0 ~tag:"bench" ())
  in
  print_endline (Loadgen.human_summary stats);
  (try Unix.kill daemon Sys.sigterm with Unix.Unix_error _ -> ());
  let drained =
    match Unix.waitpid [] daemon with
    | _, Unix.WEXITED 0 -> true
    | _, _ -> false
  in
  Printf.printf
    "daemon: %d workers over %d traces; drained cleanly on SIGTERM: %b\n"
    config.Server.workers (Array.length traces) drained;
  if (not drained) || Loadgen.lost stats > 0 then begin
    Printf.eprintf "bench: the serving layer lost requests or failed to drain\n";
    exit 1
  end;
  stats

let corpus_codec_stage ~quick ~jobs =
  with_temp_dir @@ fun dir ->
  let events = if quick then 200_000 else 1_000_000 in
  let text_path = Filename.concat dir "big.trace" in
  let bin_path = Filename.concat dir "big.drt" in
  let nt, text_write_dt =
    timed "codec_text_write" (fun () -> Longtrace.write ~events text_path)
  in
  let nb, bin_write_dt =
    timed "codec_binary_write" (fun () ->
      Longtrace.write_binary ~events bin_path)
  in
  assert (nt = events && nb = events);
  let text_bytes = (Unix.stat text_path).Unix.st_size in
  let bin_bytes = (Unix.stat bin_path).Unix.st_size in
  let n_text, text_parse_dt =
    timed "codec_text_parse" (fun () -> count_events text_path)
  in
  let n_bin, bin_decode_dt =
    timed "codec_binary_decode" (fun () -> count_events bin_path)
  in
  assert (n_text = events && n_bin = events);
  let text_races, _ =
    timed "codec_races_text" (fun () -> races_of_file text_path)
  in
  let bin_races, _ =
    timed "codec_races_binary" (fun () -> races_of_file bin_path)
  in
  let identical = text_races = bin_races in
  let mev dt = float_of_int events /. 1e6 /. Float.max 1e-9 dt in
  let table =
    Table.create
      ~title:(Printf.sprintf "Trace codec (%d generated events)" events)
      ~columns:[ "format"; "bytes"; "write"; "read"; "read rate"; "races" ]
  in
  Table.add_row table
    [ "text"
    ; string_of_int text_bytes
    ; Printf.sprintf "%.3fs" text_write_dt
    ; Printf.sprintf "%.3fs" text_parse_dt
    ; Printf.sprintf "%.1f Mev/s" (mev text_parse_dt)
    ; string_of_int (List.length text_races)
    ];
  Table.add_row table
    [ "binary"
    ; string_of_int bin_bytes
    ; Printf.sprintf "%.3fs" bin_write_dt
    ; Printf.sprintf "%.3fs" bin_decode_dt
    ; Printf.sprintf "%.1f Mev/s" (mev bin_decode_dt)
    ; string_of_int (List.length bin_races)
    ];
  Table.print table;
  Printf.printf
    "binary is %.1fx smaller on disk, decodes %.1fx faster; race tables \
     identical: %b\n"
    (float_of_int text_bytes /. Float.max 1.0 (float_of_int bin_bytes))
    (text_parse_dt /. Float.max 1e-9 bin_decode_dt)
    identical;
  if not identical then exit 1;
  (* The corpus sweep: binary variants through the isolated supervisor.
     Telemetry is turned on for the sweep (if it was off) so the worker
     RSS histogram is populated, and restored afterwards. *)
  let n_variants = if quick then 12 else 40 in
  let variants =
    Vargen.variants ~seed:11 ~events:(if quick then 1_200 else 2_500)
      ~count:n_variants ()
  in
  let paths = List.map (Vargen.write ~dir ~binary:true) variants in
  let was_enabled = Obs.enabled () in
  if not was_enabled then Obs.enable ();
  let outcomes, sweep_dt =
    timed "codec_corpus_sweep" (fun () ->
      Supervisor.run_files ~jobs
        ~budget:{ Supervisor.timeout_seconds = Some 120.0; max_events = None }
        ~mode:(Supervisor.Isolated { max_mem_mib = None })
        paths)
  in
  let peak_rss =
    let snap = Obs.snapshot () in
    match List.assoc_opt "proc.worker_rss_peak_kb" snap.Obs.histograms with
    | Some h -> h.Obs.h_max
    | None -> 0.0
  in
  if not was_enabled then Obs.disable ();
  let completed = List.length (Supervisor.file_completed outcomes) in
  let failed = List.length (Supervisor.file_failures outcomes) in
  Printf.printf
    "swept %d binary variants in %.3fs wall (%d jobs): %d completed, %d \
     failed, %.1f apps/hour, peak worker RSS %d KiB\n"
    n_variants sweep_dt jobs completed failed
    (float_of_int completed /. Float.max 1e-9 sweep_dt *. 3600.0)
    (int_of_float peak_rss);
  if failed > 0 then exit 1;
  { cb_events = events
  ; cb_text_bytes = text_bytes
  ; cb_binary_bytes = bin_bytes
  ; cb_text_parse_dt = text_parse_dt
  ; cb_binary_decode_dt = bin_decode_dt
  ; cb_tables_identical = identical
  ; cb_variants = n_variants
  ; cb_completed = completed
  ; cb_failed = failed
  ; cb_sweep_dt = sweep_dt
  ; cb_peak_worker_rss_kb = peak_rss
  }

let write_corpus_json path opts (cb : corpus_bench) =
  let oc = Out_channel.open_text path in
  let out fmt = Printf.fprintf oc fmt in
  let rate dt = float_of_int cb.cb_events /. Float.max 1e-9 dt in
  out "{\n";
  out "  \"schema\": \"droidracer-corpus-bench/1\",\n";
  out "  \"quick\": %b,\n" opts.quick;
  out "  \"jobs\": %d,\n" opts.jobs;
  out "  \"events\": %d,\n" cb.cb_events;
  out "  \"text_bytes\": %d,\n" cb.cb_text_bytes;
  out "  \"binary_bytes\": %d,\n" cb.cb_binary_bytes;
  out "  \"size_ratio\": %.3f,\n"
    (float_of_int cb.cb_text_bytes
     /. Float.max 1.0 (float_of_int cb.cb_binary_bytes));
  out "  \"text_parse_events_per_sec\": %.1f,\n" (rate cb.cb_text_parse_dt);
  out "  \"binary_decode_events_per_sec\": %.1f,\n"
    (rate cb.cb_binary_decode_dt);
  out "  \"decode_speedup\": %.3f,\n"
    (cb.cb_text_parse_dt /. Float.max 1e-9 cb.cb_binary_decode_dt);
  out "  \"race_tables_identical\": %b,\n" cb.cb_tables_identical;
  out "  \"corpus\": {\"variants\": %d, \"completed\": %d, \"failed\": %d, \
       \"wall_seconds\": %.3f, \"apps_per_hour\": %.1f, \
       \"peak_worker_rss_kb\": %.0f},\n"
    cb.cb_variants cb.cb_completed cb.cb_failed cb.cb_sweep_dt
    (float_of_int cb.cb_completed /. Float.max 1e-9 cb.cb_sweep_dt *. 3600.0)
    cb.cb_peak_worker_rss_kb;
  out "  \"stages\": [\n";
  let codec_stages =
    List.filter
      (fun (name, _) -> String.length name >= 6 && String.sub name 0 6 = "codec_")
      (List.rev !stages)
  in
  List.iteri
    (fun i (name, dt) ->
       out "    {\"name\": \"%s\", \"wall_seconds\": %.6f}%s\n"
         (Json.escape name) dt
         (if i = List.length codec_stages - 1 then "" else ","))
    codec_stages;
  out "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n" path

(* {1 Supervision overhead}

   The same two applications swept under process isolation (forked
   workers, Marshal pipes, hard SIGKILL deadlines) and under the
   cooperative supervisor (in-process domains): the difference is the
   price of crash containment.  The two smallest open-source
   applications keep the stage cheap; row counts are deterministic,
   only the wall times vary.

   This stage must run first, and the isolated sweep must run before
   the cooperative one: the OCaml 5 runtime refuses [Unix.fork] once
   any domain has ever been spawned, so process isolation only works
   before the process's first domain-parallel computation. *)

let supervision_overhead ~jobs =
  let specs =
    match Catalog.open_source with
    | a :: b :: _ -> [ a; b ]
    | specs -> specs
  in
  let budget =
    { Supervisor.timeout_seconds = Some 120.0; max_events = None }
  in
  let sweep mode = Supervisor.run_catalog ~jobs ~specs ~budget ~mode () in
  let iso, iso_dt =
    timed "supervised_isolated" (fun () ->
      sweep (Supervisor.Isolated { max_mem_mib = None }))
  in
  let coop, coop_dt =
    timed "supervised_cooperative" (fun () -> sweep Supervisor.Cooperative)
  in
  let table =
    Table.create ~title:"Supervision overhead (two smallest open-source apps)"
      ~columns:[ "mode"; "completed"; "failed"; "wall"; "overhead" ]
  in
  let row name outcomes dt rel =
    Table.add_row table
      [ name
      ; string_of_int (List.length (Supervisor.completed outcomes))
      ; string_of_int (List.length (Supervisor.failures outcomes))
      ; Printf.sprintf "%.3fs" dt
      ; rel
      ]
  in
  row "cooperative (domains)" coop coop_dt "1.0x";
  row "isolated (forked workers)" iso iso_dt
    (if coop_dt > 0. then Printf.sprintf "%.1fx" (iso_dt /. coop_dt)
     else "n/a");
  Table.print table

(* {1 Streaming engine}

   Two measurements.  Agreement-and-cost: the streaming engine against
   the batch worklist engine on a generated trace small enough for both
   to hold (streaming races must be a subset — on this lock-free
   workload, the same races).  Throughput: the streaming engine alone
   over a larger trace streamed from disk, which is the regime the
   batch engines cannot enter; the stats go to BENCH_streaming.json. *)

let streaming_stage ~quick ~streaming_json =
  let small_events = if quick then 10_000 else 20_000 in
  let rev_events = ref [] in
  let n =
    Longtrace.generate ~events:small_events (fun e ->
      rev_events := e :: !rev_events)
  in
  assert (n = small_events);
  let trace = Trace.remove_cancelled (Trace.of_events_exn (List.rev !rev_events)) in
  let worklist_config =
    { Detector.default_config with
      hb = { Happens_before.default with closure = Happens_before.Worklist }
    }
  in
  let batch_report, batch_dt =
    timed "streaming_vs_worklist_batch" (fun () ->
      Detector.analyze ~config:worklist_config trace)
  in
  let (stream_races, _small_stats), stream_dt =
    timed "streaming_vs_worklist_stream" (fun () ->
      Streaming_engine.detect trace)
  in
  let batch_races =
    List.map (fun c -> c.Detector.race) batch_report.Detector.all_races
  in
  let pair (r : Droidracer_core.Race.t) =
    (r.Droidracer_core.Race.first.Droidracer_core.Race.position,
     r.Droidracer_core.Race.second.Droidracer_core.Race.position)
  in
  let batch_pairs = List.map pair batch_races in
  let subset =
    List.for_all (fun r -> List.mem (pair r) batch_pairs) stream_races
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf "Streaming vs worklist (%d generated events)"
           small_events)
      ~columns:[ "engine"; "races"; "wall"; "relative" ]
  in
  Table.add_row table
    [ "worklist (batch)"
    ; string_of_int (List.length batch_races)
    ; Printf.sprintf "%.3fs" batch_dt
    ; "1.0x"
    ];
  Table.add_row table
    [ "streaming (single pass)"
    ; string_of_int (List.length stream_races)
    ; Printf.sprintf "%.3fs" stream_dt
    ; (if batch_dt > 0. then Printf.sprintf "%.1fx" (stream_dt /. batch_dt)
       else "n/a")
    ];
  Table.print table;
  Printf.printf "streaming races are a subset of worklist races: %b\n" subset;
  if not subset then exit 1;
  let big_events = if quick then 50_000 else 200_000 in
  let path = Filename.temp_file "droidracer_bench" ".trace" in
  Fun.protect ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
  @@ fun () ->
  let written = Longtrace.write ~events:big_events path in
  let result, detect_dt =
    timed "streaming_throughput" (fun () -> Streaming_engine.detect_file path)
  in
  match result with
  | Error e ->
    Printf.eprintf "bench: streaming read failed: %s\n"
      (Droidracer_trace.Trace_io.read_error_message e);
    exit 1
  | Ok (races, stats) ->
    Printf.printf
      "streamed %d events in %.3fs wall (%.1f kev/s), %d race(s), peak %d \
       live slots / %d clock entries\n"
      written detect_dt
      (float_of_int written /. 1e3 /. Float.max 1e-9 detect_dt)
      (List.length races) stats.Streaming_engine.peak_live_slots
      stats.Streaming_engine.peak_clock_entries;
    Option.iter
      (fun out ->
         let oc = Out_channel.open_text out in
         Out_channel.output_string oc
           (Streaming_engine.stats_json_string ~label:"longtrace"
              ~elapsed_seconds:detect_dt
              ~peak_rss_kb:(Obs.peak_rss_kb ())
              stats);
         Out_channel.close oc;
         Printf.printf "wrote %s\n" out)
      streaming_json

(* {1 Predictive engine}

   The predictive engine swept over lock-masked Longtrace corpora:
   each config plants [masked] races that the observed schedule hides
   behind a LOCK edge, so the batch and streaming engines report none
   of them and the predictive engine must recover every one by
   reordering.  Reported per size: candidate pairs per second,
   reordering-only races versus the streaming engine's count, and
   masked-race recall (the stage fails if any masked race is missed —
   the same claim the CI predict gate makes on the variant corpus). *)

type predict_row =
  { pb_events : int
  ; pb_candidates : int
  ; pb_feasible : int
  ; pb_extra : int
  ; pb_streaming_races : int
  ; pb_masked : int
  ; pb_masked_found : int
  ; pb_dt : float
  }

let predict_stage ~quick ~jobs =
  let sizes = if quick then [ 800; 1_600 ] else [ 800; 1_600; 3_200 ] in
  let config =
    { Longtrace.default_config with
      planted = 2
    ; masked = 2
    ; loopers = 3
    ; seed = 11
    }
  in
  let masked = Longtrace.masked_locations config in
  let rows =
    List.map
      (fun events ->
         let rev_events = ref [] in
         let n =
           Longtrace.generate ~config ~events (fun e ->
             rev_events := e :: !rev_events)
         in
         assert (n = events);
         let trace =
           Trace.remove_cancelled (Trace.of_events_exn (List.rev !rev_events))
         in
         let stream_races, _ = Streaming_engine.detect trace in
         let report, dt =
           timed (Printf.sprintf "predict_%d" events) (fun () ->
             Predict.analyze ~jobs trace)
         in
         let extras = Predict.extra_locations report in
         let found = List.filter (fun l -> List.mem l extras) masked in
         { pb_events = events
         ; pb_candidates = report.Predict.candidates
         ; pb_feasible = report.Predict.feasible
         ; pb_extra = report.Predict.extra
         ; pb_streaming_races = List.length stream_races
         ; pb_masked = List.length masked
         ; pb_masked_found = List.length found
         ; pb_dt = dt
         })
      sizes
  in
  let table =
    Table.create
      ~title:
        (Printf.sprintf
           "Predictive engine over lock-masked corpora (%d jobs)" jobs)
      ~columns:
        [ "events"
        ; "candidates"
        ; "feasible"
        ; "streaming"
        ; "extra"
        ; "masked recall"
        ; "wall"
        ; "pairs/s"
        ]
  in
  List.iter
    (fun r ->
       Table.add_row table
         [ string_of_int r.pb_events
         ; string_of_int r.pb_candidates
         ; string_of_int r.pb_feasible
         ; string_of_int r.pb_streaming_races
         ; string_of_int r.pb_extra
         ; Printf.sprintf "%d/%d" r.pb_masked_found r.pb_masked
         ; Printf.sprintf "%.3fs" r.pb_dt
         ; Printf.sprintf "%.0f"
             (float_of_int r.pb_candidates /. Float.max 1e-9 r.pb_dt)
         ])
    rows;
  Table.print table;
  let missed =
    List.filter (fun r -> r.pb_masked_found < r.pb_masked) rows
  in
  if missed <> [] then begin
    List.iter
      (fun r ->
         Printf.eprintf
           "bench: predictive engine missed %d/%d masked race(s) at %d \
            events\n"
           (r.pb_masked - r.pb_masked_found) r.pb_masked r.pb_events)
      missed;
    exit 1
  end;
  Printf.printf
    "every masked race invisible to the streaming engine was recovered by \
     reordering\n";
  rows

let write_predict_json path opts rows =
  let oc = Out_channel.open_text path in
  let out fmt = Printf.fprintf oc fmt in
  let candidates = List.fold_left (fun a r -> a + r.pb_candidates) 0 rows in
  let wall = List.fold_left (fun a r -> a +. r.pb_dt) 0.0 rows in
  let masked = List.fold_left (fun a r -> a + r.pb_masked) 0 rows in
  let found = List.fold_left (fun a r -> a + r.pb_masked_found) 0 rows in
  let extra = List.fold_left (fun a r -> a + r.pb_extra) 0 rows in
  out "{\n";
  out "  \"schema\": \"droidracer-predict-bench/1\",\n";
  out "  \"quick\": %b,\n" opts.quick;
  out "  \"jobs\": %d,\n" opts.jobs;
  out "  \"candidate_pairs\": %d,\n" candidates;
  out "  \"pairs_per_sec\": %.1f,\n"
    (float_of_int candidates /. Float.max 1e-9 wall);
  out "  \"extra_races\": %d,\n" extra;
  out "  \"masked_planted\": %d,\n" masked;
  out "  \"masked_found\": %d,\n" found;
  out "  \"masked_recall\": %.3f,\n"
    (float_of_int found /. Float.max 1.0 (float_of_int masked));
  out "  \"rows\": [\n";
  List.iteri
    (fun i r ->
       out
         "    {\"events\": %d, \"candidates\": %d, \"feasible\": %d, \
          \"streaming_races\": %d, \"extra\": %d, \"masked\": %d, \
          \"masked_found\": %d, \"wall_seconds\": %.6f, \
          \"pairs_per_sec\": %.1f}%s\n"
         r.pb_events r.pb_candidates r.pb_feasible r.pb_streaming_races
         r.pb_extra r.pb_masked r.pb_masked_found r.pb_dt
         (float_of_int r.pb_candidates /. Float.max 1e-9 r.pb_dt)
         (if i = List.length rows - 1 then "" else ","))
    rows;
  out "  ]\n}\n";
  close_out oc;
  Printf.printf "wrote %s\n" path

(* {1 Bechamel micro-benchmarks} *)

let microbenchmarks (runs : Experiments.app_run list) =
  let open Bechamel in
  let small =
    match runs with
    | r :: _ -> r.Experiments.ar_result.Runtime.observed
    | [] -> assert false
  in
  let medium =
    match runs with
    | _ :: r :: _ -> r.Experiments.ar_result.Runtime.observed
    | [ r ] -> r.Experiments.ar_result.Runtime.observed
    | [] -> assert false
  in
  let tests =
    [ Test.make ~name:"table2: trace generation (music player, BACK)"
        (Staged.stage (fun () ->
           Runtime.run ~options:Music_player.options Music_player.app
             Music_player.back_scenario))
    ; Test.make ~name:"table3: full race detection (smallest corpus app)"
        (Staged.stage (fun () -> Detector.analyze small))
    ; Test.make ~name:"perf: happens-before, coalesced graph"
        (Staged.stage (fun () ->
           Happens_before.compute (Graph.build ~coalesce:true medium)))
    ; Test.make ~name:"perf: happens-before, uncoalesced graph"
        (Staged.stage (fun () ->
           Happens_before.compute (Graph.build ~coalesce:false small)))
    ; Test.make ~name:"engines: online vector-clock detection (no GC)"
        (Staged.stage (fun () ->
           Streaming_engine.detect ~config:Streaming_engine.ablation_config
             medium))
    ; Test.make ~name:"ingest: wellformed admissibility check"
        (Staged.stage (fun () -> Wellformed.check medium))
    ]
  in
  let codec_events =
    let rev = ref [] in
    ignore (Longtrace.generate ~events:10_000 (fun e -> rev := e :: !rev));
    List.rev !rev
  in
  let encoded = Binfmt.encode_events_to_string codec_events in
  let tests =
    tests
    @ [ Test.make ~name:"codec: binary encode (10k generated events)"
          (Staged.stage (fun () ->
             Binfmt.encode_events_to_string codec_events))
      ; Test.make ~name:"codec: binary decode (10k generated events)"
          (Staged.stage (fun () -> Binfmt.decode_string encoded))
      ]
  in
  let ols =
    Analyze.ols ~r_square:false ~bootstrap:0 ~predictors:[| Measure.run |]
  in
  let instance = Toolkit.Instance.monotonic_clock in
  let cfg = Benchmark.cfg ~limit:60 ~quota:(Time.second 0.6) () in
  let raw =
    Benchmark.all cfg [ instance ] (Test.make_grouped ~name:"droidracer" tests)
  in
  let results = Analyze.all ols instance raw in
  let rows = ref [] in
  Hashtbl.iter
    (fun name est ->
       let ns =
         match Analyze.OLS.estimates est with
         | Some (v :: _) -> v
         | Some [] | None -> nan
       in
       rows := (name, ns) :: !rows)
    results;
  let table =
    Table.create ~title:"Bechamel micro-benchmarks (monotonic clock)"
      ~columns:[ "benchmark"; "time per run" ]
  in
  List.iter
    (fun (name, ns) ->
       let cell =
         if Float.is_nan ns then "n/a"
         else if ns > 1e9 then Printf.sprintf "%.2f s" (ns /. 1e9)
         else if ns > 1e6 then Printf.sprintf "%.2f ms" (ns /. 1e6)
         else Printf.sprintf "%.2f us" (ns /. 1e3)
       in
       Table.add_row table [ name; cell ])
    (List.sort compare !rows);
  Table.print table

let () =
  let opts = parse_options () in
  let baseline =
    Option.map (fun path -> (path, load_baseline path)) opts.baseline
  in
  if opts.trace_out <> None || opts.metrics_out <> None
     || opts.series_out <> None
  then begin
    Obs.enable ();
    Obs.reset ();
    Obs.sample_resources ()
  end;
  let quick = opts.quick in
  let specs = if quick then Catalog.open_source else Catalog.all in
  section "DroidRacer reproduction: evaluation harness (PLDI 2014, Section 6)";
  Printf.printf
    "Corpus: %d applications%s; %d analysis domain(s); every table below \
     shows paper / measured.\n"
    (List.length specs)
    (if quick then " (open source only: --quick)" else "")
    opts.jobs;
  (* The forking stages come first by necessity: forked workers are
     only available before the first domain is spawned (see
     [supervision_overhead]). *)
  section "Serving layer: droidracerd under concurrent load";
  let service_stats = service_stage ~quick ~jobs:opts.jobs ~clients:8 in
  Option.iter
    (fun path ->
       Loadgen.write_json path service_stats;
       Printf.printf "wrote %s\n" path)
    opts.service_json;
  section "Binary trace codec + corpus sweep";
  let corpus_bench = corpus_codec_stage ~quick ~jobs:opts.jobs in
  (* Written as soon as it is measured, so the artefact survives a
     failure in a later stage. *)
  Option.iter
    (fun path -> write_corpus_json path opts corpus_bench)
    opts.corpus_json;
  section "Supervision overhead: isolated vs cooperative workers";
  supervision_overhead ~jobs:opts.jobs;
  section "Motivating example (Figures 1-4)";
  Table.print (Experiments.music_player_summary ());
  section "Figure 8: activity lifecycle";
  Table.print (Experiments.lifecycle_table ());
  section "Running the corpus";
  let runs, corpus_dt =
    timed "corpus_run_and_analysis" (fun () ->
      Experiments.run_catalog ~jobs:opts.jobs ~specs ())
  in
  Printf.printf "generated and analysed %d traces in %.1fs wall (%d jobs)\n"
    (List.length runs) corpus_dt opts.jobs;
  section "Ingest validation (the admissibility gate)";
  let rejected, validate_dt =
    timed "ingest_validation" (fun () ->
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
    timed "table3_verification" (fun () ->
      Table.print (Experiments.table3 ~verify:(not quick) runs))
  in
  Printf.printf
    "\n(race verification by schedule perturbation took %.1fs wall)\n"
    verify_dt;
  section "Performance (Section 6): coalescing and analysis cost";
  Table.print (Experiments.performance_table runs);
  section "Closure engines: dense vs worklist";
  let eruns, _ =
    timed "hb_engine_comparison" (fun () ->
      engine_comparison ~jobs:opts.jobs runs)
  in
  Table.print (hb_engine_table eruns);
  Option.iter (fun path -> write_hb_engines_json path eruns)
    opts.hb_engines_json;
  section "Streaming engine: bounded memory, single pass";
  streaming_stage ~quick ~streaming_json:opts.streaming_json;
  section "Predictive engine: reordering-only races";
  let predict_rows = predict_stage ~quick ~jobs:opts.jobs in
  Option.iter
    (fun path -> write_predict_json path opts predict_rows)
    opts.predict_json;
  section "Ablation: specialized happens-before relations";
  ignore (timed "baseline_ablation" (fun () ->
    Table.print (Experiments.baseline_table runs)));
  section "Ablation: graph engine vs vector-clock engine";
  ignore (timed "engine_ablation" (fun () ->
    Table.print (Experiments.engine_table runs)));
  section "Ablation: modelling the runtime environment (enables)";
  Table.print (Experiments.environment_model_table ());
  section "Extension: the deferred front-of-queue rule";
  Table.print (Experiments.front_rule_table runs);
  section "Extension: race coverage [24]";
  Table.print (Experiments.coverage_table runs);
  section "Micro-benchmarks";
  ignore (timed "microbenchmarks" (fun () -> microbenchmarks runs));
  print_newline ();
  Option.iter (fun path -> write_json path opts runs) opts.json;
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
    opts.series_out;
  Option.iter compare_baseline baseline
