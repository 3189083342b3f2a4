(* The DroidRacer benchmark.

   Usage: bench.exe --workload NAME --seed N --seconds S --trace 0|1
   (normally through perfbench/run.py, which builds it first).

   Each workload generates its inputs from the seed (the set-up, timed
   as [setup_s]), drives the program's public API for about [S] seconds
   (at least one complete unit of work), checks every output against an
   oracle the program does not compute, and prints one JSON result line
   last.  With [--trace 0] that line carries the end-to-end metrics; with
   [--trace 1] it carries the per-layer metrics of a traced run, which
   alternates traced and untraced units of the same work to measure its
   own overhead, and writes its spans to .perfbench/.

   Workloads (see perfbench/workloads.json for why each was chosen and
   which layers it loads):
   - catalog         the paper's 15 app models, load -> validate -> dense
   - synth-stream    one 200k-event generated trace, streaming engine
   - daemon-small    droidracerd under a closed loop of small requests
   - predict-masked  lock-masked traces through the predictive engine *)

module Trace = Droidracer_trace.Trace
module Trace_io = Droidracer_trace.Trace_io
module Wellformed = Droidracer_trace.Wellformed
module Ident = Droidracer_trace.Ident
module Detector = Droidracer_core.Detector
module Race = Droidracer_core.Race
module Streaming_engine = Droidracer_core.Streaming_engine
module Par_pool = Droidracer_core.Par_pool
module Longtrace = Droidracer_corpus.Longtrace
module Predict = Droidracer_predict.Predict
module Supervisor = Droidracer_report.Supervisor
module Journal = Droidracer_report.Journal
module Proc_pool = Droidracer_report.Proc_pool
module Wire = Droidracer_service.Wire
module Server = Droidracer_service.Server
module Client = Droidracer_service.Client
module Obs = Droidracer_obs.Obs
module Inputs = Perfbench.Inputs
module Measure = Perfbench.Measure
module Spans = Perfbench.Spans
module Cpu = Perfbench.Cpu
module Calib = Perfbench.Calib

let die fmt =
  Printf.ksprintf
    (fun s ->
       prerr_endline ("perfbench: " ^ s);
       exit 2)
    fmt

let note fmt = Printf.ksprintf (fun s -> print_endline ("# " ^ s)) fmt

(* {1 Per-layer metrics}

   Times are self seconds per analysed trace (per request on
   daemon-small), counts are per trace too unless they come from the
   daemon's health reply.  A layer a workload does not run reads 0. *)

let per_layer =
  [ ("bench.tracing_overhead_share", "ratio")
  ; ("bench.samples", "count")
  ; ("bench.reference_s", "s")
  ; ("trace.decode_s", "s")
  ; ("trace.validate_s", "s")
  ; ("detector.filter_cancelled_s", "s")
  ; ("detector.graph_build_s", "s")
  ; ("detector.happens_before_s", "s")
  ; ("detector.race_detect_s", "s")
  ; ("detector.classify_s", "s")
  ; ("detector.nodes", "count")
  ; ("detector.hb_edges", "count")
  ; ("detector.hb_passes", "count")
  ; ("detector.hb_word_ors", "count")
  ; ("detector.races", "count")
  ; ("detector.race_detect_to_hb_ratio", "ratio")
  ; ("streaming.feed_s", "s")
  ; ("streaming.finish_s", "s")
  ; ("streaming.peak_clock_entries", "count")
  ; ("streaming.peak_live_slots", "count")
  ; ("streaming.slots_allocated", "count")
  ; ("streaming.fast_path", "count")
  ; ("streaming.comparisons", "count")
  ; ("streaming.promotions", "count")
  ; ("streaming.folded_tasks", "count")
  ; ("streaming.gc_sweeps", "count")
  ; ("streaming.races", "count")
  ; ("streaming.fast_path_share", "ratio")
  ; ("streaming.feed_to_decode_ratio", "ratio")
  ; ("service.queue_s", "s")
  ; ("service.worker_s", "s")
  ; ("service.overhead_s", "s")
  ; ("service.executed", "count")
  ; ("service.worker_deaths", "count")
  ; ("service.max_queue_depth", "count")
  ; ("service.degraded", "count")
  ; ("report.run_file_s", "s")
  ; ("report.journal_append_s", "s")
  ; ("predict.analyze_s", "s")
  ; ("predict.candidates", "count")
  ; ("predict.observed", "count")
  ; ("predict.feasible", "count")
  ; ("predict.refuted", "count")
  ; ("predict.unknown", "count")
  ; ("predict.extra", "count")
  ; ("predict.iterations", "count")
  ; ("predict.precheck_share", "ratio")
  ; ("predict.dense_s", "s")
  ]

(* {1 One run} *)

type ctx =
  { seed : int
  ; seconds : float
  ; traced : bool
  ; work : string  (* scratch directory, removed at exit *)
  ; nproc : int
  }

(* Every analysis runs on one domain, on every machine.  End-to-end times
   are CPU seconds ({!Cpu}) scaled to the machine's nominal speed
   ({!Calib}); a single domain keeps CPU seconds equal to the time the
   analysis takes on an idle machine, and lets run.py pin the whole run
   to one CPU, so the reference runs where the measured work runs. *)
let analysis_jobs = 1

(* Rates are medians over slices of the run (catalog rounds, stream
   passes, blocks of daemon requests, predict cycles), so a transient
   stall on a shared machine moves one slice, not the reported rate.
   In a traced run the first round or cycle is a cold warm-up: the
   later ones alternate untraced and traced, and only they enter the
   tracing-overhead comparison. *)
type slice =
  { s_seconds : float
  ; s_events : int
  ; s_traces : int
  ; s_pairs : int
  }

type run =
  { tally : Measure.tally
  ; mutable spent : float  (* measured (untraced) CPU seconds of the open slice *)
  ; mutable events : int  (* events of its completed analyses *)
  ; mutable traces : int  (* its completed analyses *)
  ; mutable pairs : int  (* pairs given a race verdict in it *)
  ; mutable slices : slice list
  ; mutable setup_times : float list
  ; mutable references : float list  (* CPU seconds of each reference run *)
  ; mutable rss_kb : int
  ; layers : (string, float) Hashtbl.t
  ; overhead : Measure.overhead
  }

let new_run () =
  { tally = Measure.tally ()
  ; spent = 0.0
  ; events = 0
  ; traces = 0
  ; pairs = 0
  ; slices = []
  ; setup_times = []
  ; references = []
  ; rss_kb = 0
  ; layers = Hashtbl.create 64
  ; overhead = Measure.overhead ()
  }

let completed run ~events ~pairs =
  run.events <- run.events + events;
  run.traces <- run.traces + 1;
  run.pairs <- run.pairs + pairs

let close_slice run =
  if run.spent > 0.0 && run.traces > 0 then
    run.slices <-
      { s_seconds = run.spent
      ; s_events = run.events
      ; s_traces = run.traces
      ; s_pairs = run.pairs
      }
      :: run.slices;
  run.spent <- 0.0;
  run.events <- 0;
  run.traces <- 0;
  run.pairs <- 0

let layer run name v = Hashtbl.replace run.layers name v

let add_layer run name v =
  Hashtbl.replace run.layers name
    (v +. Option.value (Hashtbl.find_opt run.layers name) ~default:0.0)

(* Divides every accumulated per-trace layer sum by the traced count. *)
let per_trace run names n =
  List.iter
    (fun name ->
       match Hashtbl.find_opt run.layers name with
       | Some v -> layer run name (Measure.ratio v (float_of_int n))
       | None -> ())
    names

(* The run's length is wall time; what it measures is CPU time. *)
let elapsed_since t0 = Spans.now () -. t0

(* Every timed set-up and analysis starts from a collected heap, as it
   would in a fresh [droidracer analyze] process: garbage one input
   leaves behind must not bill the next, nor lift peak RSS. *)
let collected_heap () = Gc.full_major ()

(* {2 Nominal seconds} *)

let reference run =
  let r = Calib.measure () in
  run.references <- r :: run.references;
  r

let last_reference run =
  match run.references with r :: _ -> r | [] -> reference run

(* [f ()] and its CPU seconds in nominal seconds, scaled by the
   reference runs just before and just after it.  The heap is collected
   before the second, so the reference never pays for [f]'s garbage. *)
let nominal_time run f =
  let before = last_reference run in
  let v, dt = Cpu.time f in
  collected_heap ();
  let after = reference run in
  (v, dt *. Calib.scale ~before ~after)

(* Set-up runs at least three times, and up to nine while the
   repetitions so far took under a second; the last repetition's result
   is the one the run uses, and [release] undoes each earlier one.
   [setup_s] is the median of every repetition, including those of
   {!setup_again}.  A repetition's time is, in nominal seconds, the CPU
   seconds of this process and of the children it reaped, plus
   [extra v]: those of the processes it left running (the daemon). *)
let timed_setup ?(release = ignore) ?(extra = fun _ -> 0.0) run f =
  let cpu () = Cpu.self () +. Cpu.children () in
  let rec go rep spent =
    let more = rep < 3 || (rep < 9 && spent < 1.0) in
    collected_heap ();
    let before = last_reference run in
    let c0 = cpu () in
    let v = f () in
    let dt = cpu () -. c0 +. extra v in
    collected_heap ();
    let dt = dt *. Calib.scale ~before ~after:(reference run) in
    run.setup_times <- dt :: run.setup_times;
    if more then begin
      release v;
      go (rep + 1) (spent +. dt)
    end
    else v
  in
  go 1 0.0

(* A cheap set-up is repeated after the measured loop as well, so
   [setup_s] samples both ends of the run. *)
let setup_again ?(release = ignore) ?extra run f =
  if Measure.median run.setup_times < 1.0 then
    release (timed_setup ~release ?extra run f)

let rec rm_rf path =
  match Unix.lstat path with
  | { Unix.st_kind = Unix.S_DIR; _ } ->
    Array.iter (fun n -> rm_rf (Filename.concat path n)) (Sys.readdir path);
    (try Unix.rmdir path with Unix.Unix_error _ -> ())
  | _ -> ( try Unix.unlink path with Unix.Unix_error _ -> ())
  | exception Unix.Unix_error _ -> ()

let mkdir path = try Unix.mkdir path 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let location_strings races =
  List.sort_uniq String.compare
    (List.map (fun r -> Ident.Location.to_string (Race.location r)) races)

let missing ~expected found =
  List.filter (fun l -> not (List.mem l found)) expected

(* The detector's phase times and work counts, summed into the run's
   layers (divided per trace by the caller). *)
let add_detector run (r : Detector.report) =
  List.iter
    (fun (phase, s) -> add_layer run ("detector." ^ phase ^ "_s") s)
    r.Detector.phase_seconds;
  add_layer run "detector.nodes" (float_of_int r.Detector.nodes);
  add_layer run "detector.hb_edges" (float_of_int r.Detector.hb_edges);
  add_layer run "detector.hb_passes" (float_of_int r.Detector.fixpoint_passes);
  add_layer run "detector.hb_word_ors" (float_of_int r.Detector.hb_word_ors);
  add_layer run "detector.races"
    (float_of_int (List.length r.Detector.all_races))

let detector_layers =
  List.map (fun p -> "detector." ^ p ^ "_s") Detector.phase_names
  @ [ "detector.nodes"; "detector.hb_edges"; "detector.hb_passes"
    ; "detector.hb_word_ors"; "detector.races" ]

let finish_detector run =
  layer run "detector.race_detect_to_hb_ratio"
    (Measure.ratio
       (Option.value (Hashtbl.find_opt run.layers "detector.race_detect_s")
          ~default:0.0)
       (Option.value (Hashtbl.find_opt run.layers "detector.happens_before_s")
          ~default:0.0))

(* {1 catalog} *)

(* Rounds continue past [seconds] until this many latency samples exist,
   so p90 always has ten samples beyond it. *)
let catalog_min_samples = 100

let catalog ctx run =
  let dir = Filename.concat ctx.work "catalog" in
  mkdir dir;
  let manifest = Filename.concat dir "manifest" in
  (* Each set-up runs in a child process, so generating the app models
     never inflates this process's peak RSS; no domain exists yet, so
     fork is still allowed. *)
  let set_up () =
    flush_all ();
    match Unix.fork () with
    | 0 ->
      (try
         let apps = Inputs.catalog ~dir () in
         Out_channel.with_open_bin manifest (fun oc ->
           Marshal.to_channel oc (apps : Inputs.app list) []);
         Unix._exit 0
       with e ->
         prerr_endline ("perfbench: catalog set-up: " ^ Printexc.to_string e);
         Unix._exit 1)
    | pid ->
      (match Unix.waitpid [] pid with
       | _, Unix.WEXITED 0 -> ()
       | _ -> die "catalog set-up failed");
      In_channel.with_open_bin manifest (fun ic ->
        (Marshal.from_channel ic : Inputs.app list))
  in
  let apps = Array.of_list (timed_setup run set_up) in
  let traced_traces = ref 0 in
  let analyse ~traced ~warm_up ~group (a : Inputs.app) =
    collected_heap ();
    let outcome, dt =
      nominal_time run @@ fun () ->
      Spans.with_span ~group "bench.trace" @@ fun () ->
      match Spans.with_span "trace.decode" (fun () -> Trace_io.load a.a_path) with
      | Error e -> Error ("load: " ^ e)
      | Ok t ->
        (match Spans.with_span "trace.validate" (fun () -> Wellformed.check t) with
         | Error e -> Error ("validate: " ^ Wellformed.error_message e)
         | Ok _ ->
           Ok
             ( Trace.length t
             , Spans.with_span "detector.analyze" (fun () ->
                 Detector.analyze ~jobs:analysis_jobs t) ))
    in
    if not warm_up then Measure.overhead_add run.overhead a.a_name ~traced dt;
    if not traced then run.spent <- run.spent +. dt;
    match outcome with
    | Error e -> Measure.record_failed run.tally (a.a_name ^ ": " ^ e)
    | Ok (events, r) ->
      let counts =
        List.map snd (Detector.count_by_category r.Detector.distinct_races)
      in
      if counts <> List.map snd a.a_targets then
        Measure.record_failed run.tally
          (Printf.sprintf "%s: distinct races per category %s, Table 3 says %s"
             a.a_name
             (String.concat "/" (List.map string_of_int counts))
             (String.concat "/" (List.map (fun (_, n) -> string_of_int n) a.a_targets)))
      else begin
        Measure.record_ok run.tally dt;
        if traced then begin
          incr traced_traces;
          add_detector run r
        end
        else completed run ~events ~pairs:(List.length r.Detector.all_races)
      end
  in
  (* Peak RSS comes from a child forked before any measured work, which
     analyses every trace once in catalog order from a collected heap:
     in this process the figure would depend on the seed's order and on
     the reference runs, by up to 10%. *)
  let peak_rss () =
    flush_all ();
    let rd, wr = Unix.pipe () in
    match Unix.fork () with
    | 0 ->
      Unix.close rd;
      Array.iter
        (fun (a : Inputs.app) ->
           collected_heap ();
           match Trace_io.load a.a_path with
           | Ok t ->
             ignore (Wellformed.check t);
             ignore (Detector.analyze ~jobs:analysis_jobs t)
           | Error _ -> ())
        apps;
      let oc = Unix.out_channel_of_descr wr in
      output_string oc (string_of_int (Obs.peak_rss_kb ()));
      close_out oc;
      Unix._exit 0
    | pid ->
      Unix.close wr;
      let ic = Unix.in_channel_of_descr rd in
      let kb = int_of_string_opt (String.trim (In_channel.input_all ic)) in
      close_in ic;
      ignore (Unix.waitpid [] pid);
      (match kb with
       | Some kb when kb > 0 -> run.rss_kb <- kb
       | _ -> Measure.record_failed run.tally "peak RSS child failed")
  in
  if not ctx.traced then peak_rss ();
  let t_start = Spans.now () in
  let round = ref 0 in
  let rounds_done () =
    elapsed_since t_start >= ctx.seconds
    && run.tally.Measure.attempted >= catalog_min_samples
    && ((not ctx.traced) || !round >= 3)
  in
  while not (rounds_done ()) do
    let traced = ctx.traced && !round > 0 && !round mod 2 = 0 in
    Spans.enabled := traced;
    Array.iter
      (fun i -> analyse ~traced ~warm_up:(!round = 0) ~group:((!round * 100) + i) apps.(i))
      (Inputs.permutation ~seed:ctx.seed ~round:!round (Array.length apps));
    Spans.enabled := false;
    close_slice run;
    incr round
  done;
  setup_again run set_up;
  note "catalog: %d rounds of %d apps, %d analysis domain" !round
    (Array.length apps) analysis_jobs;
  if ctx.traced then begin
    let self = Spans.self_by_name (Spans.spans ()) in
    let n = float_of_int !traced_traces in
    layer run "trace.decode_s" (Measure.ratio (Spans.self_total self "trace.decode") n);
    layer run "trace.validate_s"
      (Measure.ratio (Spans.self_total self "trace.validate") n);
    per_trace run detector_layers !traced_traces;
    finish_detector run
  end

(* {1 synth-stream} *)

(* Race counts of the [Inputs.stream_variants] generated traces, pinned
   in perfbench/workloads.json. *)
let pinned_stream_races variant =
  let path = Filename.concat "perfbench" "workloads.json" in
  let json =
    match Json_parse.parse (In_channel.with_open_bin path In_channel.input_all) with
    | Ok j -> j
    | Error e -> die "%s: %s" path e
    | exception Sys_error e -> die "%s" e
  in
  let ( >>= ) = Option.bind in
  match
    Json_parse.member "workloads" json
    >>= Json_parse.member "synth-stream"
    >>= Json_parse.member "pinned_races"
    >>= Json_parse.member (string_of_int variant)
    >>= Json_parse.to_number
  with
  | Some n -> int_of_float n
  | None -> die "%s: no pinned race count for synth-stream variant %d" path variant

(* Events between two reference runs of a stream pass. *)
let stream_segment = 10_000

let stream ctx run =
  let path = Filename.concat ctx.work "stream.drt" in
  let config = Inputs.stream_config ~seed:ctx.seed in
  let variant = Inputs.residue ctx.seed Inputs.stream_variants in
  let set_up () = Inputs.stream ~seed:ctx.seed path in
  let events = timed_setup run set_up in
  let pinned = pinned_stream_races variant in
  let planted = Longtrace.planted_locations config in
  let check (races, (stats : Streaming_engine.stats)) dt =
    let found = location_strings races in
    match missing ~expected:planted found with
    | _ :: _ as m ->
      Measure.record_failed run.tally
        ("planted races not reported: " ^ String.concat ", " m);
      false
    | [] when List.length races <> pinned || stats.Streaming_engine.races <> pinned ->
      Measure.record_failed run.tally
        (Printf.sprintf "%d races, pinned %d (variant %d)" (List.length races)
           pinned variant);
      false
    | [] ->
      Measure.record_ok run.tally dt;
      true
  in
  (* One pass of the streaming engine over the file, made as
     [Streaming_engine.detect_file] makes it (create, feed every event
     [Trace_io.fold_events] decodes, finish) and timed in nominal
     seconds: a reference runs every [stream_segment] events and scales
     the segment it closes.  A traced pass records the calls as spans. *)
  let pass ~traced =
    collected_heap ();
    let engine = Streaming_engine.create () in
    let before = ref (last_reference run) and spent = ref 0.0 in
    let c0 = ref (Cpu.self ()) in
    let segment () =
      let dt = Cpu.self () -. !c0 in
      let after = reference run in
      spent := !spent +. (dt *. Calib.scale ~before:!before ~after);
      before := after;
      c0 := Cpu.self ()
    in
    let feed pos e =
      if traced then
        Spans.accumulate "streaming.feed" (fun () ->
          Streaming_engine.feed engine ~position:pos e)
      else Streaming_engine.feed engine ~position:pos e
    in
    let folded =
      Trace_io.fold_events path ~init:0 ~f:(fun pos ~line:_ e ->
        feed pos e;
        if (pos + 1) mod stream_segment = 0 then segment ();
        pos + 1)
    in
    let result =
      Result.map
        (fun _ ->
           Spans.with_span "streaming.finish" (fun () -> Streaming_engine.finish engine))
        folded
    in
    segment ();
    (result, !spent)
  in
  let untraced_pass () =
    match pass ~traced:false with
    | Ok result, dt ->
      Measure.overhead_add run.overhead "stream" ~traced:false dt;
      run.spent <- run.spent +. dt;
      if check result dt then completed run ~events ~pairs:(List.length (fst result));
      close_slice run
    | Error e, _ ->
      Measure.record_failed run.tally (Trace_io.read_error_message e)
  in
  if not ctx.traced then begin
    let t_start = Spans.now () in
    untraced_pass ();
    while elapsed_since t_start < ctx.seconds do
      untraced_pass ()
    done
  end
  else begin
    untraced_pass ();
    collected_heap ();
    Spans.enabled := true;
    let detected, dt =
      Spans.with_span ~group:1 "bench.trace" (fun () ->
        ignore
          (Spans.with_span "trace.decode" (fun () ->
             Trace_io.fold_events path ~init:0 ~f:(fun n ~line:_ _ -> n + 1)));
        Spans.with_span "streaming.detect" (fun () -> pass ~traced:true))
    in
    Spans.enabled := false;
    Measure.overhead_add run.overhead "stream" ~traced:true dt;
    match detected with
    | Error e -> Measure.record_failed run.tally (Trace_io.read_error_message e)
    | Ok ((_, stats) as result) ->
      ignore (check result dt);
      let self = Spans.self_by_name (Spans.spans ()) in
      let decode = Spans.self_total self "trace.decode"
      and feed = Spans.self_total self "streaming.feed" in
      layer run "trace.decode_s" decode;
      layer run "streaming.feed_s" feed;
      layer run "streaming.finish_s" (Spans.self_total self "streaming.finish");
      layer run "streaming.feed_to_decode_ratio" (Measure.ratio feed decode);
      let count name v = layer run ("streaming." ^ name) (float_of_int v) in
      count "peak_clock_entries" stats.Streaming_engine.peak_clock_entries;
      count "peak_live_slots" stats.Streaming_engine.peak_live_slots;
      count "slots_allocated" stats.Streaming_engine.slots_allocated;
      count "fast_path" stats.Streaming_engine.fast_path;
      count "comparisons" stats.Streaming_engine.comparisons;
      count "promotions" stats.Streaming_engine.promotions;
      count "folded_tasks" stats.Streaming_engine.folded_tasks;
      count "gc_sweeps" stats.Streaming_engine.gc_sweeps;
      count "races" stats.Streaming_engine.races;
      layer run "streaming.fast_path_share"
        (Measure.ratio
           (float_of_int stats.Streaming_engine.fast_path)
           (float_of_int stats.Streaming_engine.events))
  end;
  run.rss_kb <- Obs.peak_rss_kb ();
  setup_again run set_up;
  note "synth-stream: %d events, variant %d, %d planted races, %d pinned" events
    variant (List.length planted) pinned

(* {1 daemon-small} *)

let daemon_variants = 1024

(* One worker and one connection: a single request in flight, so the
   CPU seconds of every process between a request's send and its
   response are that request's, and a 2-core VM keeps a core free. *)
let daemon_workers = 1
let daemon_connections = 1

(* Requests between two reference runs, and untraced requests per rate
   slice. *)
let daemon_block = 50
let daemon_slice = 250

(* Peak RSS (VmHWM) of a process, in kB; 0 once it is gone. *)
let vm_hwm pid =
  match In_channel.with_open_text (Printf.sprintf "/proc/%d/status" pid) In_channel.input_all with
  | status ->
    String.split_on_char '\n' status
    |> List.find_map (fun line ->
      match String.split_on_char ':' line with
      | [ "VmHWM"; v ] ->
        Scanf.sscanf_opt (String.trim v) "%d kB" Fun.id
      | _ -> None)
    |> Option.value ~default:0
  | exception Sys_error _ -> 0

let children_of pid =
  Sys.readdir "/proc" |> Array.to_list
  |> List.filter_map (fun name ->
    match int_of_string_opt name with
    | None -> None
    | Some child ->
      (match
         In_channel.with_open_text (Printf.sprintf "/proc/%d/stat" child)
           In_channel.input_all
       with
       | stat ->
         (* "pid (comm) state ppid ...": comm may hold spaces. *)
         let after = String.rindex stat ')' + 2 in
         (match String.split_on_char ' ' (String.sub stat after (String.length stat - after)) with
          | _ :: ppid :: _ when int_of_string_opt ppid = Some pid -> Some child
          | _ -> None)
       | exception (Sys_error _ | Not_found | Invalid_argument _) -> None))

(* The filesystem type the spool directory lives on (fsync cost
   depends on it), from the longest matching mount point. *)
let filesystem_of dir =
  let path = try Unix.realpath dir with Unix.Unix_error _ -> dir in
  match In_channel.with_open_text "/proc/mounts" In_channel.input_all with
  | mounts ->
    String.split_on_char '\n' mounts
    |> List.fold_left
         (fun (best, len) line ->
            match String.split_on_char ' ' line with
            | _ :: mnt :: fs :: _
              when String.length mnt > len
                   && String.length path >= String.length mnt
                   && String.sub path 0 (String.length mnt) = mnt ->
              (fs, String.length mnt)
            | _ -> (best, len))
         ("unknown", -1)
    |> fst
  | exception Sys_error _ -> "unknown"

let health endpoint =
  match Client.once endpoint Wire.Health with
  | Ok json -> Some json
  | Error _ -> None

let daemon ctx run =
  (* Short relative paths: a unix socket path must fit in 108 bytes. *)
  let dir = Filename.concat ctx.work "d" in
  let tdir = Filename.concat dir "t" and spool = Filename.concat dir "s" in
  let journal = Filename.concat dir "j" in
  let endpoint = Wire.Unix_socket (Filename.concat dir "sock") in
  List.iter mkdir [ dir; tdir ];
  let config =
    { (Server.default_config endpoint) with
      Server.workers = daemon_workers
    ; worker_jobs = 1
    ; spool_dir = spool
    ; journal_path = Some journal
      (* Results are awaited, never re-read: a small cache keeps the
         daemon's memory independent of how many requests a run
         completes. *)
    ; max_cached_results = 256
    }
  in
  let start () =
    flush_all ();
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
  let stop pid =
    (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
    match Unix.waitpid [] pid with
    | _, Unix.WEXITED 0 -> true
    | _ -> false
    | exception Unix.Unix_error _ -> false
  in
  let wait_ready pid =
    let deadline = Spans.now () +. 30.0 in
    let rec go () =
      match health endpoint with
      | Some json when Wire.response_status json = "ok" -> ()
      | _ when Spans.now () < deadline ->
        (match Unix.waitpid [ Unix.WNOHANG ] pid with
         | 0, _ -> Unix.sleepf 0.005; go ()
         | _ -> die "droidracerd exited during start-up")
      | _ ->
        ignore (stop pid);
        die "droidracerd never became ready"
    in
    go ()
  in
  (* CPU seconds of the daemon's processes: droidracerd and the workers
     it forked at start-up. *)
  let tree_cpu pids = List.fold_left (fun a p -> a +. Cpu.of_pid p) 0.0 pids in
  (* Set-up: generate the variants, start the daemon and wait for a
     ready health reply; it costs the CPU seconds of this process and of
     the daemon's processes until then. *)
  let set_up () =
    rm_rf spool;
    rm_rf journal;
    let inputs = Inputs.daemon ~seed:ctx.seed ~count:daemon_variants ~dir:tdir in
    let pid = start () in
    wait_ready pid;
    let pids = pid :: children_of pid in
    (Array.of_list inputs, pid, pids, tree_cpu pids)
  in
  let release (_, pid, _, _) = ignore (stop pid) in
  let daemon_cpu (_, _, _, cpu) = cpu in
  let inputs, pid, pids, _ = timed_setup ~release ~extra:daemon_cpu run set_up in
  let n = Array.length inputs in
  (* A request's cost is the CPU seconds this process and the daemon's
     processes spend between its first byte sent and its response read.
     With one request in flight, all of it is that request's. *)
  let cpu_now () = Cpu.self () +. tree_cpu pids in
  (* The closed loop: one connection, sending its next request the
     moment the previous response arrives. *)
  let request_deadline = 30.0 in
  let slots = Array.make daemon_connections (None, None) in
  let next = ref 0 in
  let lost reason = Measure.record_failed run.tally ("lost: " ^ reason) in
  let queue = ref 0.0 and worker = ref 0.0 and extra = ref 0.0 in
  let traced_requests = ref 0 in
  (* Completed requests wait in [pending] for the reference run that
     closes their block, which scales their CPU seconds. *)
  let pending = ref [] in
  let before = ref 0.0 in
  let flush () =
    if !pending <> [] then begin
      let after = reference run in
      let scale = Calib.scale ~before:!before ~after in
      before := after;
      List.iter
        (fun (k, cost, traced, events, pairs) ->
           let cost = cost *. scale in
           Measure.record_ok run.tally cost;
           Measure.overhead_add run.overhead (string_of_int (k mod n)) ~traced cost;
           if not traced then begin
             run.spent <- run.spent +. cost;
             completed run ~events ~pairs;
             if run.traces = daemon_slice then close_slice run
           end)
        (List.rev !pending);
      pending := []
    end
  in
  let send i =
    match fst slots.(i) with
    | None ->
      (match Client.connect endpoint with
       | Ok c -> slots.(i) <- (Some c, None)
       | Error e ->
         lost ("connect: " ^ e);
         Unix.sleepf 0.01)
    | Some c ->
      let k = !next in
      incr next;
      let inp = inputs.(k mod n) in
      let request =
        Wire.Analyze
          { a_id = Printf.sprintf "s%d-r%d" ctx.seed k
          ; a_engine = "dense"
          ; a_timeout = Some 60.0
          ; a_sleep = 0.0
          ; a_trace_bytes = String.length inp.Inputs.r_bytes
          ; a_wait = true
          }
      in
      let json = Bytes.of_string (Wire.request_json request) in
      let c0 = cpu_now () in
      let t0 = Spans.now () in
      (match
         Proc_pool.write_frame c.Client.fd json;
         Proc_pool.write_frame c.Client.fd (Bytes.unsafe_of_string inp.Inputs.r_bytes)
       with
       | () -> slots.(i) <- (Some c, Some (k, c0, t0, Spans.now ()))
       | exception Unix.Unix_error (e, _, _) ->
         Client.close c;
         slots.(i) <- (None, None);
         lost ("send: " ^ Unix.error_message e))
  in
  let receive i =
    match slots.(i) with
    | Some c, Some (k, c0, t0, t_sent) ->
      let t_ready = Spans.now () in
      let frame = try Proc_pool.read_frame c.Client.fd with Unix.Unix_error _ -> None in
      let t_end = Spans.now () in
      let cost = cpu_now () -. c0 in
      let inp = inputs.(k mod n) in
      (* Alternate requests, and each input's turn flips every pass
         over the inputs, so every input is measured both ways. *)
      let traced = ctx.traced && (k + (k / n)) mod 2 = 1 in
      (match Option.map (fun f -> Wire.parse_response (Bytes.to_string f)) frame with
       | None ->
         Client.close c;
         slots.(i) <- (None, None);
         lost "connection closed without a response"
       | Some (Error e) ->
         slots.(i) <- (Some c, None);
         Measure.record_failed run.tally e
       | Some (Ok json) ->
         slots.(i) <- (Some c, None);
         let wall = t_end -. t0 in
         let num key = Option.value (Wire.response_num key json) ~default:0.0 in
         let str key = Option.value (Wire.response_str key json) ~default:"" in
         let locations =
           Option.bind (Json_parse.member "locations" json) Json_parse.to_list
           |> Option.value ~default:[]
           |> List.filter_map Json_parse.to_string
         in
         let planted = inp.Inputs.r_variant.Droidracer_corpus.Vargen.v_planted in
         if str "status" <> "completed" then
           Measure.record_failed run.tally
             (Printf.sprintf "request %d: status %s %s" k (str "status") (str "reason"))
         else if str "engine" <> "dense" then
           Measure.record_failed run.tally
             (Printf.sprintf "request %d: engine %s" k (str "engine"))
         else if missing ~expected:planted locations <> [] then
           Measure.record_failed run.tally
             (Printf.sprintf "request %d: planted races not reported" k)
         else begin
           pending :=
             (k, cost, traced, int_of_float (num "events"), int_of_float (num "races"))
             :: !pending;
           if List.length !pending = daemon_block then flush ();
           if traced then begin
             incr traced_requests;
             let root = Spans.add ~group:k "bench.request" ~start:t0 ~stop:t_end in
             ignore (Spans.add ~parent:root ~group:k "wire.send" ~start:t0 ~stop:t_sent);
             ignore (Spans.add ~parent:root ~group:k "wire.recv" ~start:t_ready ~stop:t_end);
             queue := !queue +. num "queue_seconds";
             worker := !worker +. num "elapsed_seconds";
             (* The response's queue and worker times are wall
                seconds, so the remainder is taken on the wall too. *)
             extra := !extra +. (wall -. num "queue_seconds" -. num "elapsed_seconds")
           end
         end)
    | _ -> ()
  in
  Spans.enabled := ctx.traced;
  before := last_reference run;
  let t_start = Spans.now () in
  let rec loop () =
    let now = Spans.now () in
    if now -. t_start < ctx.seconds then
      Array.iteri (fun i (_, w) -> if w = None then send i) slots;
    let waiting =
      List.filter_map
        (fun i ->
           match slots.(i) with
           | Some c, Some _ -> Some (c.Client.fd, i)
           | _ -> None)
        (List.init (Array.length slots) Fun.id)
    in
    if waiting <> [] || now -. t_start < ctx.seconds then begin
      let ready, _, _ =
        try Unix.select (List.map fst waiting) [] [] 0.5
        with Unix.Unix_error (Unix.EINTR, _, _) -> ([], [], [])
      in
      List.iter (fun fd -> receive (List.assoc fd waiting)) ready;
      Array.iteri
        (fun i slot ->
           match slot with
           | Some c, Some (k, _, t0, _) when Spans.now () -. t0 > request_deadline ->
             Client.close c;
             slots.(i) <- (None, None);
             lost (Printf.sprintf "request %d: no response in %.0fs" k request_deadline)
           | _ -> ())
        slots;
      loop ()
    end
  in
  loop ();
  flush ();
  Spans.enabled := false;
  (* The last, partial slice only counts if it is the only one. *)
  if run.slices = [] then close_slice run;
  Array.iter (function Some c, _ -> Client.close c | None, _ -> ()) slots;
  let fs = filesystem_of spool in
  (* A closed loop never fills the queue, so the degradation ladder
     must never have fired. *)
  (match health endpoint with
   | None -> Measure.record_failed run.tally "no health reply after the load"
   | Some json ->
     let num key = Option.value (Wire.response_num key json) ~default:0.0 in
     if num "degraded" > 0.0 then
       Measure.record_failed run.tally
         (Printf.sprintf "%.0f requests degraded" (num "degraded"));
     (* A respawned worker's CPU seconds would go uncounted. *)
     if num "worker_deaths" > 0.0 then
       Measure.record_failed run.tally
         (Printf.sprintf "%.0f workers died" (num "worker_deaths"));
     List.iter
       (fun key -> layer run ("service." ^ key) (num key))
       [ "executed"; "worker_deaths"; "max_queue_depth"; "degraded" ]);
  run.rss_kb <- List.fold_left max 0 (List.map vm_hwm (pid :: children_of pid));
  if not (stop pid) then Measure.record_failed run.tally "droidracerd did not drain on SIGTERM";
  note "daemon-small: %d worker x 1 domain, %d connection, closed loop, spool on %s"
    daemon_workers daemon_connections fs;
  if ctx.traced then begin
    let nt = float_of_int !traced_requests in
    layer run "service.queue_s" (Measure.ratio !queue nt);
    layer run "service.worker_s" (Measure.ratio !worker nt);
    layer run "service.overhead_s" (Measure.ratio !extra nt);
    (* Attribution: the same files through the in-process layers the
       daemon's worker runs, and a journal append on the spool's
       filesystem. *)
    mkdir spool;
    let scratch = Filename.concat spool "bench-journal" in
    let j =
      match Journal.create scratch with Ok j -> j | Error e -> die "journal: %s" e
    in
    Spans.enabled := true;
    let passes = 3 in
    for pass = 1 to passes do
      Array.iteri
        (fun i (inp : Inputs.request_input) ->
           Spans.with_span ~group:((pass * n) + i) "bench.trace" @@ fun () ->
           (match Spans.with_span "trace.decode" (fun () -> Trace_io.load inp.r_path) with
            | Ok t ->
              ignore (Spans.with_span "trace.validate" (fun () -> Wellformed.check t));
              let r =
                Spans.with_span "detector.analyze" (fun () -> Detector.analyze ~jobs:1 t)
              in
              add_detector run r
            | Error e -> Measure.record_failed run.tally ("load: " ^ e));
           ignore
             (Spans.with_span "report.run_file" (fun () ->
                Supervisor.run_file ~jobs:1 ~config:(Wire.config_of_engine "dense")
                  ~budget:{ Supervisor.timeout_seconds = Some 60.0; max_events = None }
                  ~retry:Proc_pool.no_retry inp.r_path));
           Spans.with_span "report.journal_append" (fun () ->
             Journal.append j ~app:(string_of_int i)
               ~payload:(Marshal.to_string (inp.r_variant, inp.r_path) [])))
        inputs
    done;
    Spans.enabled := false;
    Journal.close j;
    let self = Spans.self_by_name (Spans.spans ()) in
    let na = float_of_int (passes * n) in
    List.iter
      (fun name -> layer run (name ^ "_s") (Measure.ratio (Spans.self_total self name) na))
      [ "trace.decode"; "trace.validate"; "report.run_file"; "report.journal_append" ];
    per_trace run detector_layers (passes * n);
    finish_detector run
  end;
  setup_again ~release ~extra:daemon_cpu run set_up

(* {1 predict-masked} *)

let predict_traces = 12

let predict ctx run =
  let set_up () = Array.of_list (Inputs.predict ~count:predict_traces ()) in
  let inputs = timed_setup run set_up in
  let traced_traces = ref 0 in
  let analyse ~traced ~warm_up ~group i (m : Inputs.masked_input) =
    collected_heap ();
    Spans.with_span ~group "bench.trace" @@ fun () ->
    let r, dt =
      nominal_time run (fun () ->
        Spans.with_span "predict.analyze" (fun () ->
          Predict.analyze ~jobs:analysis_jobs m.m_trace))
    in
    if not warm_up then Measure.overhead_add run.overhead (string_of_int i) ~traced dt;
    if not traced then run.spent <- run.spent +. dt;
    let masked = Longtrace.masked_locations m.m_config in
    let bad_witness =
      List.exists
        (fun pr ->
           match pr.Predict.pr_verdict with
           | Predict.Feasible w ->
             (not w.Predict.w_wellformed) || w.Predict.w_replayed = Some false
           | Predict.Refuted _ | Predict.Unknown _ -> false)
        r.Predict.pairs
    in
    match missing ~expected:masked (Predict.feasible_locations r) with
    | _ :: _ as m ->
      Measure.record_failed run.tally
        ("masked races not found: " ^ String.concat ", " m)
    | [] when bad_witness ->
      Measure.record_failed run.tally "a Feasible witness failed its own checks"
    | [] ->
      Measure.record_ok run.tally dt;
      if not traced then
        completed run ~events:(Trace.length m.m_trace) ~pairs:r.Predict.candidates
      else begin
        incr traced_traces;
        let count name v = add_layer run ("predict." ^ name) (float_of_int v) in
        count "candidates" r.Predict.candidates;
        count "observed" r.Predict.observed;
        count "feasible" r.Predict.feasible;
        count "refuted" r.Predict.refuted;
        count "unknown" r.Predict.unknown;
        count "extra" r.Predict.extra;
        count "iterations"
          (List.fold_left (fun a pr -> a + pr.Predict.pr_iterations) 0 r.Predict.pairs);
        count "prechecked"
          (List.length
             (List.filter
                (fun pr ->
                   pr.Predict.pr_iterations = 0
                   && match pr.Predict.pr_verdict with
                   | Predict.Refuted _ -> true
                   | _ -> false)
                r.Predict.pairs));
        add_detector run
          (Spans.with_span "predict.dense" (fun () ->
             Detector.analyze ~jobs:analysis_jobs m.m_trace))
      end
  in
  (* Whole cycles over the corpus, each in the seed's order for it, so
     every run analyses the same traces equally often. *)
  let t_start = Spans.now () in
  let cycle = ref 0 in
  while
    !cycle = 0
    || elapsed_since t_start < ctx.seconds
    || (ctx.traced && !cycle < 3)
  do
    let traced = ctx.traced && !cycle > 0 && !cycle mod 2 = 0 in
    Spans.enabled := traced;
    Array.iter
      (fun i ->
         analyse ~traced ~warm_up:(!cycle = 0)
           ~group:((!cycle * predict_traces) + i)
           i inputs.(i))
      (Inputs.permutation ~seed:ctx.seed ~round:!cycle predict_traces);
    Spans.enabled := false;
    close_slice run;
    incr cycle
  done;
  run.rss_kb <- Obs.peak_rss_kb ();
  setup_again run set_up;
  note "predict-masked: %d traces of %d events, %d analysis domain"
    predict_traces Inputs.predict_events analysis_jobs;
  if ctx.traced then begin
    let self = Spans.self_by_name (Spans.spans ()) in
    let n = float_of_int !traced_traces in
    layer run "predict.analyze_s" (Measure.ratio (Spans.self_total self "predict.analyze") n);
    layer run "predict.dense_s" (Measure.ratio (Spans.self_total self "predict.dense") n);
    let get name = Option.value (Hashtbl.find_opt run.layers name) ~default:0.0 in
    layer run "predict.precheck_share"
      (Measure.ratio (get "predict.prechecked") (get "predict.candidates"));
    Hashtbl.remove run.layers "predict.prechecked";
    per_trace run
      (List.map (fun c -> "predict." ^ c)
         [ "candidates"; "observed"; "feasible"; "refuted"; "unknown"; "extra"; "iterations" ]
       @ detector_layers)
      !traced_traces;
    finish_detector run
  end

(* {1 Main} *)

let workloads =
  [ ("catalog", catalog)
  ; ("synth-stream", stream)
  ; ("daemon-small", daemon)
  ; ("predict-masked", predict)
  ]

let end_to_end run =
  let sorted = Measure.sorted_latencies run.tally in
  let pct p = if Array.length sorted = 0 then 0.0 else Measure.clamped_percentile sorted p in
  let rate f =
    match run.slices with
    | [] -> 0.0
    | slices ->
      Measure.median
        (List.map (fun s -> float_of_int (f s) /. s.s_seconds) slices)
  in
  Measure.
    [ metric "setup_s" "s" (Measure.median run.setup_times)
    ; metric "events_per_s" "1/s" (rate (fun s -> s.s_events))
    ; metric "traces_per_s" "1/s" (rate (fun s -> s.s_traces))
    ; metric "trace_p50_s" "s" (pct 50)
    ; metric "trace_p90_s" "s" (pct 90)
    ; metric "trace_p99_s" "s" (pct 99)
    ; metric "pairs_per_s" "1/s" (rate (fun s -> s.s_pairs))
    ; metric "peak_rss_kb" "kB" (float_of_int run.rss_kb)
    ]

let () =
  let workload = ref "" and seed = ref 0 and seconds = ref 10 and trace = ref 0 in
  Arg.parse
    [ ("--workload", Arg.Set_string workload, "NAME workload to run")
    ; ("--seed", Arg.Set_int seed, "N input seed")
    ; ("--seconds", Arg.Set_int seconds, "S seconds to measure")
    ; ("--trace", Arg.Set_int trace, "0|1 traced run (per-layer metrics)")
    ]
    (fun a -> raise (Arg.Bad ("unexpected argument " ^ a)))
    "bench.exe --workload NAME --seed N --seconds S --trace 0|1";
  let body =
    match List.assoc_opt !workload workloads with
    | Some f -> f
    | None ->
      die "unknown workload %S (expected %s)" !workload
        (String.concat ", " (List.map fst workloads))
  in
  if !trace <> 0 && !trace <> 1 then die "--trace takes 0 or 1";
  if not (Sys.file_exists "dune-project" && Sys.file_exists "perfbench") then
    die "run from the root of a droidracer checkout";
  mkdir ".perfbench";
  let ctx =
    { seed = !seed
    ; seconds = float_of_int (max 1 !seconds)
    ; traced = !trace = 1
    ; work = Filename.concat ".perfbench" (Printf.sprintf "run-%d" (Unix.getpid ()))
    ; nproc = Par_pool.default_jobs ()
    }
  in
  mkdir ctx.work;
  (* [die] exits without unwinding, so clean up at exit — in this
     process only, not in the forked set-up children or daemon. *)
  let owner = Unix.getpid () in
  at_exit (fun () -> if Unix.getpid () = owner then rm_rf ctx.work);
  let run = new_run () in
  body ctx run;
  let t = run.tally in
  let samples = t.Measure.attempted in
  note "workload %s, seed %d, trace %d: %d operations, %d failed" !workload
    !seed !trace samples t.Measure.failed;
  note "samples %d; high percentile with ten samples beyond: %s" samples
    (match Measure.high_percentile samples with
     | Some p -> Printf.sprintf "p%d" p
     | None -> "none (fewer than 20 samples)");
  note "machine: nproc %d, OCaml %s" ctx.nproc Sys.ocaml_version;
  if run.references <> [] then
    note "reference: median %.6f s over %d runs, nominal %.6f s (times scaled by %.3f)"
      (Measure.median run.references) (List.length run.references) Calib.nominal
      (Calib.nominal /. Measure.median run.references);
  List.iter (fun r -> note "failure: %s" r) (List.rev t.Measure.reasons);
  let metrics =
    if not ctx.traced then end_to_end run
    else begin
      let path =
        Filename.concat ".perfbench"
          (Printf.sprintf "spans-%s-seed%d.jsonl" !workload !seed)
      in
      Spans.write path (Spans.spans ());
      note "spans: %s" path;
      layer run "bench.tracing_overhead_share" (Measure.overhead_share run.overhead);
      layer run "bench.samples" (float_of_int samples);
      if run.references <> [] then
        layer run "bench.reference_s" (Measure.median run.references);
      List.map
        (fun (name, unit) ->
           Measure.metric name unit
             (Option.value (Hashtbl.find_opt run.layers name) ~default:0.0))
        per_layer
    end
  in
  print_endline
    (Measure.result_line ~correct:(t.Measure.failed = 0) ~attempted:(max 1 samples)
       ~failed:t.Measure.failed metrics)
