(* Pins of every JSON artefact schema.

   Each case builds one instance of a schema from fixed inputs through
   the same entry point its producers use, parses it with [Json_parse],
   and compares the value with the committed expectation under
   [data/json/]: a JSON object mapping case names to expected values.
   Before the comparison, fields that read the clock, a process id or
   the executable's digest are removed, and every number is rounded to
   six decimals (the finest precision any artefact printed with when
   the pins were taken).  Key order is part of the pin.

   To regenerate the expectations after a deliberate schema change:
     JSON_PINS_PROMOTE=$PWD/test/data/json dune test --force
   then review the diff. *)

module Swire = Droidracer_service.Wire
module Server = Droidracer_service.Server
module Client = Droidracer_service.Client
module Loadgen = Droidracer_service.Loadgen
module Proc_pool = Droidracer_report.Proc_pool
module Journal = Droidracer_report.Journal
module Progress = Droidracer_report.Progress
module Supervisor = Droidracer_report.Supervisor
module Predict = Droidracer_predict.Predict
module Streaming_engine = Droidracer_core.Streaming_engine
module Vargen = Droidracer_corpus.Vargen
module Longtrace = Droidracer_corpus.Longtrace
module Runtime = Droidracer_appmodel.Runtime
module Mp = Droidracer_corpus.Music_player
module Obs = Droidracer_obs.Obs
open Helpers

(* {1 Canonical form and comparison} *)

let rec canon ~drop (v : Json_parse.t) : Json_parse.t =
  match v with
  | Json_parse.Number f -> Json_parse.Number (Float.round (f *. 1e6) /. 1e6)
  | Json_parse.Array l -> Json_parse.Array (List.map (canon ~drop) l)
  | Json_parse.Object fields ->
    Json_parse.Object
      (List.filter_map
         (fun (k, v) -> if List.mem k drop then None else Some (k, canon ~drop v))
         fields)
  | Json_parse.Null | Json_parse.Bool _ | Json_parse.String _ -> v

(* A test-local renderer, for writing expectations and showing
   mismatches; the comparison itself is on parsed values. *)
let rec render b (v : Json_parse.t) =
  match v with
  | Json_parse.Null -> Buffer.add_string b "null"
  | Json_parse.Bool x -> Buffer.add_string b (string_of_bool x)
  | Json_parse.Number f ->
    if Float.is_integer f then Printf.bprintf b "%.0f" f
    else Printf.bprintf b "%.6f" f
  | Json_parse.String s ->
    Buffer.add_char b '"';
    String.iter
      (fun c ->
         match c with
         | '"' -> Buffer.add_string b "\\\""
         | '\\' -> Buffer.add_string b "\\\\"
         | c when Char.code c < 0x20 -> Printf.bprintf b "\\u%04x" (Char.code c)
         | c -> Buffer.add_char b c)
      s;
    Buffer.add_char b '"'
  | Json_parse.Array l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i x ->
         if i > 0 then Buffer.add_char b ',';
         render b x)
      l;
    Buffer.add_char b ']'
  | Json_parse.Object fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i (k, x) ->
         if i > 0 then Buffer.add_char b ',';
         render b (Json_parse.String k);
         Buffer.add_char b ':';
         render b x)
      fields;
    Buffer.add_char b '}'

let to_text v =
  let b = Buffer.create 256 in
  render b v;
  Buffer.contents b

let parse what s =
  match Json_parse.parse s with
  | Ok v -> v
  | Error e -> Alcotest.failf "%s is not JSON (%s): %s" what e s

(* [cases] are (name, artefact text, fields to drop). *)
let pin file cases =
  let actual =
    List.map (fun (name, text, drop) -> (name, canon ~drop (parse name text))) cases
  in
  match Sys.getenv_opt "JSON_PINS_PROMOTE" with
  | Some dir ->
    let b = Buffer.create 4096 in
    Buffer.add_string b "{\n";
    List.iteri
      (fun i (name, v) ->
         if i > 0 then Buffer.add_string b ",\n";
         Printf.bprintf b "%s: %s" (to_text (Json_parse.String name)) (to_text v))
      actual;
    Buffer.add_string b "\n}\n";
    Out_channel.with_open_bin (Filename.concat dir file) (fun oc ->
      Out_channel.output_string oc (Buffer.contents b))
  | None ->
    let path = Filename.concat "data/json" file in
    let expected =
      match parse path (In_channel.with_open_bin path In_channel.input_all) with
      | Json_parse.Object fields -> fields
      | _ -> Alcotest.failf "%s is not an object" path
    in
    Alcotest.(check (list string))
      (file ^ " cases") (List.map fst expected) (List.map fst actual);
    List.iter2
      (fun (name, e) (_, a) ->
         let e = canon ~drop:[] e in
         if e <> a then
           Alcotest.failf "%s %s:\nexpected %s\nactual   %s" file name
             (to_text e) (to_text a))
      expected actual

let read_lines path =
  In_channel.with_open_bin path In_channel.input_all
  |> String.split_on_char '\n'
  |> List.filter (fun l -> l <> "")

let fresh_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let mp_trace_bytes =
  lazy
    (let r = Runtime.run ~options:Mp.options Mp.app Mp.back_scenario in
     let path = Filename.temp_file "pin" ".trace" in
     Trace_io.save path r.Runtime.observed;
     let s = In_channel.with_open_bin path In_channel.input_all in
     Sys.remove path;
     s)

(* {1 droidracer-request/1} *)

let test_requests () =
  let analyze ~id ~engine ~timeout ~sleep ~bytes ~wait =
    Swire.request_json
      (Swire.Analyze
         { a_id = id
         ; a_engine = engine
         ; a_timeout = timeout
         ; a_sleep = sleep
         ; a_trace_bytes = bytes
         ; a_wait = wait
         })
  in
  pin "requests.json"
    [ ( "analyze"
      , analyze ~id:"app-01" ~engine:"streaming" ~timeout:(Some 2.5)
          ~sleep:0.25 ~bytes:123 ~wait:false
      , [] )
    ; ( "analyze_escaped"
      , analyze ~id:"q\"\\\n\001" ~engine:"auto" ~timeout:None ~sleep:0.0
          ~bytes:0 ~wait:true
      , [] )
    ; ("result", Swire.request_json (Swire.Result "r-1"), [])
    ; ("health", Swire.request_json Swire.Health, [])
    ; ("stats", Swire.request_json Swire.Stats, [])
    ]

(* {1 droidracer-races/1 responses, droidracer-health/1, journal
   warnings} — through a daemon, the only producer of status
   responses.  The test process never spawns a domain, so forking the
   daemon is legal. *)

let daemon_config dir =
  { (Server.default_config (Swire.Unix_socket (Filename.concat dir "d.sock"))) with
    Server.workers = 1
  ; queue_capacity = 1
  ; degrade_high = 2.0
  ; spool_dir = Filename.concat dir "spool"
  ; journal_path = Some (Filename.concat dir "journal.bin")
  ; default_timeout = Some 30.0
  ; kill_grace = 0.3
  }

let fork_daemon config =
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

let ok = function Ok v -> v | Error e -> Alcotest.failf "request failed: %s" e

let roundtrip t ?trace request = ok (Client.roundtrip t ?trace request)

let query endpoint ?trace request =
  let t = ok (Client.connect endpoint) in
  Client.set_read_timeout t 15.0;
  Fun.protect ~finally:(fun () -> Client.close t) (fun () -> roundtrip t ?trace request)

let response_text v = to_text v

let until what f =
  let deadline = Unix.gettimeofday () +. 15.0 in
  let rec go () =
    if f () then ()
    else if Unix.gettimeofday () < deadline then begin
      Unix.sleepf 0.02;
      go ()
    end
    else Alcotest.failf "timed out waiting for %s" what
  in
  go ()

let health_num endpoint key =
  Option.value (Swire.response_num key (query endpoint Swire.Health)) ~default:(-1.0)

let wait_health endpoint key value =
  until (Printf.sprintf "health %s = %g" key value) (fun () ->
    health_num endpoint key = value)

let wait_ready endpoint =
  until "the daemon" (fun () ->
    match Client.connect endpoint with
    | Error _ -> false
    | Ok t ->
      Client.set_read_timeout t 1.0;
      Fun.protect ~finally:(fun () -> Client.close t) (fun () ->
        match Client.roundtrip t Swire.Health with
        | Ok json -> Swire.response_num "workers_live" json = Some 1.0
        | Error _ -> false))

let wait_exit pid =
  let deadline = Unix.gettimeofday () +. 20.0 in
  let rec go () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.05;
      go ()
    | 0, _ ->
      Unix.kill pid Sys.sigkill;
      ignore (Unix.waitpid [] pid);
      Alcotest.fail "daemon did not exit"
    | _ -> ()
  in
  go ()

let worker_pid daemon =
  let path = Printf.sprintf "/proc/%d/task/%d/children" daemon daemon in
  match
    String.split_on_char ' '
      (String.trim (In_channel.with_open_bin path In_channel.input_all))
  with
  | [ pid ] -> int_of_string pid
  | pids -> Alcotest.failf "expected one worker, found [%s]" (String.concat " " pids)

let analyze ?timeout ?(sleep = 0.0) ?(wait = true) ~trace id =
  Swire.Analyze
    { a_id = id
    ; a_engine = "auto"
    ; a_timeout = timeout
    ; a_sleep = sleep
    ; a_trace_bytes = String.length trace
    ; a_wait = wait
    }

let test_responses () =
  let dir = fresh_dir "pin_daemon" in
  let trace = Lazy.force mp_trace_bytes in
  let config = daemon_config dir in
  let endpoint = config.Server.endpoint in
  let cases = ref [] in
  let record ?(drop = []) name v = cases := (name, response_text v, drop) :: !cases in
  let timing = [ "elapsed_seconds"; "queue_seconds" ] in
  let health_timing = [ "avg_service_seconds"; "uptime_seconds" ] in
  let daemon = fork_daemon config in
  Fun.protect
    ~finally:(fun () ->
      match Unix.waitpid [ Unix.WNOHANG ] daemon with
      | 0, _ ->
        (try Unix.kill daemon Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] daemon)
      | _ | (exception Unix.Unix_error (Unix.ECHILD, _, _)) -> ())
    (fun () ->
       wait_ready endpoint;
       record ~drop:timing "completed" (query endpoint ~trace (analyze ~trace "done-1"));
       record ~drop:timing "completed_resumed"
         (query endpoint ~trace (analyze ~trace "done-1"));
       let junk = "this is not a trace\n" in
       record ~drop:timing "rejected"
         (query endpoint ~trace:junk (analyze ~trace:junk "bad-1"));
       (* a frozen worker is killed at its budget: timeout + kill grace *)
       Unix.kill (worker_pid daemon) Sys.sigstop;
       record ~drop:timing "timeout"
         (query endpoint ~trace (analyze ~trace ~timeout:0.2 "slow-1"));
       wait_health endpoint "workers_live" 1.0;
       record "unknown_no_trace" (query endpoint (analyze ~trace:"" "ghost-1"));
       record "unknown" (query endpoint (Swire.Result "never-1"));
       (let t = ok (Client.connect endpoint) in
        Client.set_read_timeout t 15.0;
        Fun.protect ~finally:(fun () -> Client.close t) (fun () ->
          Proc_pool.write_frame t.Client.fd (Bytes.of_string "this is not json");
          match Proc_pool.read_frame t.Client.fd with
          | Some frame -> record "error" (parse "error" (Bytes.to_string frame))
          | None -> Alcotest.fail "daemon closed without responding"));
       (* a worker killed mid-request *)
       record "accepted"
         (query endpoint ~trace (analyze ~trace ~sleep:2.0 ~wait:false "crash-1"));
       wait_health endpoint "inflight" 1.0;
       Unix.kill (worker_pid daemon) Sys.sigkill;
       until "the crash answer" (fun () ->
         Swire.response_status (query endpoint (Swire.Result "crash-1")) <> "pending");
       record ~drop:timing "crashed" (query endpoint (Swire.Result "crash-1"));
       wait_health endpoint "workers_live" 1.0;
       (* one running, one queued: the queue is full *)
       ignore (query endpoint ~trace (analyze ~trace ~sleep:2.0 ~wait:false "hold-1"));
       wait_health endpoint "inflight" 1.0;
       ignore (query endpoint ~trace (analyze ~trace ~wait:false "hold-2"));
       record "pending" (query endpoint (Swire.Result "hold-2"));
       record ~drop:[ "retry_after_seconds" ] "overloaded"
         (query endpoint ~trace (analyze ~trace ~wait:false "hold-3"));
       record ~drop:health_timing "health" (query endpoint Swire.Health);
       (* a connection open before SIGTERM is answered [draining] *)
       let t = ok (Client.connect endpoint) in
       Client.set_read_timeout t 15.0;
       Fun.protect ~finally:(fun () -> Client.close t) (fun () ->
         ignore (roundtrip t Swire.Health);
         Unix.kill daemon Sys.sigterm;
         Unix.sleepf 0.3;
         record "draining" (roundtrip t ~trace (analyze ~trace "late-1")));
       wait_exit daemon);
  (* Resume on a journal with a foreign header and a torn tail: the
     health response carries both warnings. *)
  let journal = Option.get config.Server.journal_path in
  let text = In_channel.with_open_bin journal In_channel.input_all in
  let key = {|"binary":"|} in
  let at =
    let rec find i =
      if String.sub text i (String.length key) = key then i + String.length key
      else find (i + 1)
    in
    find 0
  in
  let doctored =
    String.sub text 0 at ^ String.make 32 '0'
    ^ String.sub text (at + 32) (String.length text - at - 32)
    ^ {|{"digest":"to|}
  in
  Out_channel.with_open_bin journal (fun oc -> Out_channel.output_string oc doctored);
  let daemon = fork_daemon { config with Server.resume = true } in
  Fun.protect
    ~finally:(fun () ->
      (try Unix.kill daemon Sys.sigterm with Unix.Unix_error _ -> ());
      wait_exit daemon)
    (fun () ->
       wait_ready endpoint;
       record ~drop:health_timing "health_resumed" (query endpoint Swire.Health));
  pin "responses.json" (List.rev !cases)

(* {1 droidracer-metrics/2, droidracer-series/1, Chrome trace} *)

let test_telemetry () =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
       Obs.set_process_label "pin \"lane\"";
       Obs.with_span ~args:[ ("file", "a \"b\"\n") ] "pin.outer" (fun () ->
         Obs.with_span "pin.inner" (fun () -> ()));
       Obs.add ~n:3 "pin.counter";
       Obs.add "pin.other";
       Obs.set_gauge "pin.gauge" 0.25;
       Obs.observe "pin.hist" 0.5;
       Obs.observe "pin.hist" 1.5;
       Obs.record_series "pin.series" 2.5;
       Obs.record_series "pin.series" 3.75;
       pin "telemetry.json"
         [ ("metrics", Obs.metrics_json_string (), [ "pid"; "busy_seconds" ])
         ; ("series", Obs.series_json_string (), [ "pid"; "t_ns" ])
         ; ("chrome", Obs.chrome_trace_string (), [ "pid"; "ts"; "dur" ])
         ])

(* {1 droidracer-streaming/1, droidracer-predictions/1} *)

let masked_trace =
  let g = loc "g" and p1 = task "p1" and p2 = task "p2" in
  trace
    [ threadinit 0; threadinit 1; attachq 1; looponq 1; threadinit 2
    ; attachq 2; looponq 2; post 0 p1 1; post 0 p2 2; begin_task 1 p1
    ; write 1 g; acquire 1 "l"; release 1 "l"; end_task 1 p1
    ; begin_task 2 p2; acquire 2 "l"; release 2 "l"; write 2 g
    ; end_task 2 p2
    ]

let longtrace =
  let config =
    { Longtrace.default_config with
      Longtrace.loopers = 2
    ; planted = 1
    ; masked = 1
    ; seed = 7
    }
  in
  let events = ref [] in
  ignore (Longtrace.generate ~config ~events:240 (fun e -> events := e :: !events));
  trace (List.rev !events)

let test_analysis_reports () =
  let _, stats = Streaming_engine.detect masked_trace in
  let witness_path ~file _ (_ : Predict.pair_result) =
    if file = "masked.trace" then Some "witnesses/masked \"0\".trace" else None
  in
  let predictions =
    let path = Filename.temp_file "predictions" ".json" in
    Out_channel.with_open_text path (fun oc ->
      Predict.output_json ~params:Predict.default_params ~witness_path oc
        [ ("masked.trace", fun () -> Predict.analyze masked_trace)
        ; ("longtrace.trace", fun () -> Predict.analyze longtrace)
        ]);
    let text = In_channel.with_open_text path In_channel.input_all in
    Sys.remove path;
    text
  in
  pin "reports.json"
    [ ( "streaming"
      , Streaming_engine.stats_json_string ~label:"pin \"label\""
          ~elapsed_seconds:0.5 ~peak_rss_kb:1234 stats
      , [] )
    ; ("predictions", predictions, [])
    ]

(* {1 droidracer-races/1, droidracer-failures/1} *)

let test_sweep_tables () =
  let failure app reason elapsed retries backoff =
    { Supervisor.f_app = app
    ; f_reason = reason
    ; f_engine = "dense"
    ; f_elapsed = elapsed
    ; f_retries = retries
    ; f_backoff = backoff
    }
  in
  let failures =
    [ failure "bad \"one\"" (Supervisor.Rejected "line 3: \"x\"\n") 0.25 0 0.0
    ; failure "crash" (Supervisor.Crashed "Failure(\"boom\")") 1.5 1 0.5
    ; failure "slow" (Supervisor.Timed_out 2.0) 4.0 1 0.125
    ]
  in
  let completed =
    Supervisor.Completed
      { Supervisor.fr_file = "corpus/v0 \"q\".drt"
      ; fr_name = "v0 \"q\""
      ; fr_events = 100
      ; fr_races = 3
      ; fr_distinct = 2
      ; fr_engine = "streaming"
      ; fr_elapsed = 0.5
      ; fr_locations = [ "A.f@0"; "B.\"g\"@1" ]
      }
  in
  pin "sweeps.json"
    [ ( "races"
      , Supervisor.files_json_string
          (completed :: List.map (fun f -> Supervisor.Failed f) failures)
      , [] )
    ; ("failures", Supervisor.failures_json_string failures, [])
    ; ("failures_empty", Supervisor.failures_json_string [], [])
    ]

(* {1 droidracer-progress/1, droidracer-journal/1} *)

let test_streams () =
  let dir = fresh_dir "pin_streams" in
  let progress_path = Filename.concat dir "progress.jsonl" in
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
       Obs.add ~n:2 "supervisor.fallbacks.dense_streaming";
       let oc = open_out progress_path in
       let p = Progress.create ~out:oc ~mode:"isolated \"x\"" ~jobs:2 ~total:3 () in
       Progress.app_done p ~app:"App \"one\"" ~outcome:"completed" ~engine:"dense"
         ~events:100 ~elapsed_seconds:0.5 ();
       Progress.app_done p ~app:"two" ~outcome:"crashed" ~engine:"streaming"
         ~events:0 ~elapsed_seconds:1.25 ~resumed:true ();
       Progress.finish p;
       close_out oc);
  let journal_path = Filename.concat dir "journal.jsonl" in
  let j = ok (Journal.create journal_path) in
  Journal.append j ~app:"App \"x\"\n" ~payload:"\000\001payload\255";
  Journal.close j;
  let lines name drops path =
    List.mapi
      (fun i line -> (Printf.sprintf "%s_%d" name i, line, List.nth drops i))
      (read_lines path)
  in
  pin "streams.json"
    (lines "progress"
       [ []
       ; [ "events_per_sec"; "eta_seconds" ]
       ; [ "events_per_sec"; "eta_seconds" ]
       ; [ "elapsed_seconds"; "events_per_sec" ]
       ]
       progress_path
     @ lines "journal" [ [ "binary" ]; [] ] journal_path)

(* {1 droidracer-service-bench/1, droidracer-corpus/1} *)

let test_bench_and_corpus () =
  let result id status engine latency ~resumed ~overloaded =
    { Loadgen.q_id = id
    ; q_status = status
    ; q_engine = engine
    ; q_ladder = "dense"
    ; q_resumed = resumed
    ; q_latency = latency
    ; q_reconnects = (if resumed then 1 else 0)
    ; q_overloaded = overloaded
    }
  in
  let stats =
    { Loadgen.lg_clients = 2
    ; lg_requests_per_client = 2
    ; lg_wall = 2.0
    ; lg_results =
        [ result "a" "completed" "dense" 0.5 ~resumed:false ~overloaded:0
        ; result "b" "completed" "streaming" 0.25 ~resumed:true ~overloaded:2
        ; result "c" "timeout" "dense" 1.0 ~resumed:false ~overloaded:0
        ; result "d" "lost" "" 4.0 ~resumed:false ~overloaded:1
        ]
    }
  in
  pin "bench_corpus.json"
    [ ("service_bench", Loadgen.json_string stats, [])
    ; ( "corpus"
      , Vargen.manifest_json_string ~binary:true
          (Vargen.variants ~seed:3 ~events:500 ~count:2 ())
      , [] )
    ; ("corpus_text", Vargen.manifest_json_string ~binary:false [], [])
    ]

(* {1 droidracer-validation/1} — written only by the CLI. *)

let test_validation () =
  let dir = fresh_dir "pin_validate" in
  Out_channel.with_open_bin (Filename.concat dir "good.trace") (fun oc ->
    Out_channel.output_string oc (Lazy.force mp_trace_bytes));
  let copied =
    List.map
      (fun name ->
         let text =
           In_channel.with_open_bin (Filename.concat "data/malformed" name)
             In_channel.input_all
         in
         Out_channel.with_open_bin (Filename.concat dir name) (fun oc ->
           Out_channel.output_string oc text);
         name)
      [ "double-post.trace"; "syntax-bad-thread.trace"; "binary-junk.trace" ]
  in
  let exe = Filename.concat (Sys.getcwd ()) "../bin/droidracer.exe" in
  let command =
    Printf.sprintf "cd %s && %s validate --quiet --json-out report.json %s > /dev/null 2>&1"
      (Filename.quote dir) (Filename.quote exe)
      (String.concat " " ("good.trace" :: copied))
  in
  ignore (Sys.command command);
  pin "validation.json"
    [ ( "validation"
      , In_channel.with_open_bin (Filename.concat dir "report.json") In_channel.input_all
      , [] )
    ]

let () =
  Alcotest.run "json-schemas"
    [ ( "pins"
      , [ Alcotest.test_case "droidracer-request/1" `Quick test_requests
        ; Alcotest.test_case "responses, health, journal warnings" `Slow
            test_responses
        ; Alcotest.test_case "metrics, series, chrome trace" `Quick test_telemetry
        ; Alcotest.test_case "streaming, predictions" `Quick test_analysis_reports
        ; Alcotest.test_case "races, failures" `Quick test_sweep_tables
        ; Alcotest.test_case "progress, journal" `Quick test_streams
        ; Alcotest.test_case "service-bench, corpus" `Quick test_bench_and_corpus
        ; Alcotest.test_case "validation" `Quick test_validation
        ] )
    ]
