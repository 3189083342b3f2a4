(* droidracerd, the persistent analysis service.

   The contract under test: accepted work survives SIGKILL (journal +
   spool replay on --resume, exactly-once-observable by request id),
   overload is refused deterministically with bounded queueing and a
   retry-after hint, queue pressure degrades the engine down the
   dense -> streaming ladder, malformed frames cost one
   connection and never the daemon, and SIGTERM drains the queue before
   exit.

   Every daemon is a forked child running [Server.run]; the test
   parent NEVER spawns a domain, which is what keeps forking daemons
   legal under the OCaml 5 fork rule throughout the binary.  (Workers
   are forked by the daemon before it would ever spawn domains, so the
   daemon side is safe by construction.) *)

module Swire = Droidracer_service.Wire
module Server = Droidracer_service.Server
module Client = Droidracer_service.Client
module Loadgen = Droidracer_service.Loadgen
module Proc_pool = Droidracer_report.Proc_pool
module Trace_io = Droidracer_trace.Trace_io
module Runtime = Droidracer_appmodel.Runtime
module Mp = Droidracer_corpus.Music_player

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int
let check_string = check Alcotest.string

(* {1 Fixtures} *)

(* The music-player BACK scenario: 31 events, 2 races, analysed in
   well under a millisecond — request latency in these tests is all
   queueing, which the [sleep] request field controls precisely. *)
let trace_bytes =
  lazy
    (let r = Runtime.run ~options:Mp.options Mp.app Mp.back_scenario in
     let path = Filename.temp_file "svc" ".trace" in
     Trace_io.save path r.Runtime.observed;
     let s = In_channel.with_open_bin path In_channel.input_all in
     Sys.remove path;
     s)

let fresh_dir prefix =
  let path = Filename.temp_file prefix "" in
  Sys.remove path;
  Unix.mkdir path 0o700;
  path

let base_config dir =
  let endpoint = Swire.Unix_socket (Filename.concat dir "d.sock") in
  { (Server.default_config endpoint) with
    Server.workers = 1
  ; spool_dir = Filename.concat dir "spool"
  ; journal_path = Some (Filename.concat dir "journal.bin")
  ; default_timeout = Some 30.0
  }

let fork_daemon config =
  match Unix.fork () with
  | 0 ->
    (* The child becomes the daemon.  Silence its log and [_exit] so it
       never runs the test runner's at-exit machinery. *)
    (try
       let devnull = Unix.openfile "/dev/null" [ Unix.O_WRONLY ] 0 in
       Unix.dup2 devnull Unix.stderr;
       Unix.close devnull
     with Unix.Unix_error _ -> ());
    (try Server.run config with _ -> ());
    Unix._exit 0
  | pid -> pid

let query ?(timeout = 15.0) endpoint ?trace request =
  match Client.connect endpoint with
  | Error e -> Error e
  | Ok t ->
    Client.set_read_timeout t timeout;
    Fun.protect
      ~finally:(fun () -> Client.close t)
      (fun () -> Client.roundtrip t ?trace request)

let wait_ready endpoint =
  let deadline = Unix.gettimeofday () +. 15.0 in
  let rec go () =
    match query ~timeout:1.0 endpoint Swire.Health with
    | Ok json when Swire.response_status json = "ok" -> ()
    | _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.05;
      go ()
    | Ok json ->
      Alcotest.failf "daemon never became ready (last status %s)"
        (Swire.response_status json)
    | Error e -> Alcotest.failf "daemon never became ready: %s" e
  in
  go ()

(* SIGTERM, then insist the drain finishes: a daemon alive 15s after
   SIGTERM has broken the drain contract. *)
let stop_daemon pid =
  (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
  let deadline = Unix.gettimeofday () +. 15.0 in
  let rec wait () =
    match Unix.waitpid [ Unix.WNOHANG ] pid with
    | 0, _ ->
      if Unix.gettimeofday () > deadline then begin
        (try Unix.kill pid Sys.sigkill with Unix.Unix_error _ -> ());
        ignore (Unix.waitpid [] pid);
        Alcotest.fail "daemon did not drain within 15s of SIGTERM"
      end
      else begin
        Unix.sleepf 0.05;
        wait ()
      end
    | _, status -> status
  in
  wait ()

let with_daemon config f =
  let pid = fork_daemon config in
  wait_ready config.Server.endpoint;
  Fun.protect
    ~finally:(fun () ->
      match Unix.waitpid [ Unix.WNOHANG ] pid with
      | 0, _ -> ignore (stop_daemon pid)
      | _ -> ())
    (fun () -> f config.Server.endpoint pid)

let analyze ?(engine = "auto") ?timeout ?(sleep = 0.0) ?(wait = true) ~trace id
    =
  Swire.Analyze
    { a_id = id
    ; a_engine = engine
    ; a_timeout = timeout
    ; a_sleep = sleep
    ; a_trace_bytes = String.length trace
    ; a_wait = wait
    }

let ok = function
  | Ok v -> v
  | Error e -> Alcotest.failf "request failed: %s" e

let status json = Swire.response_status json
let str key json = Option.value (Swire.response_str key json) ~default:""

let num key json =
  match Swire.response_num key json with
  | Some f -> f
  | None -> Alcotest.failf "response has no number %S" key

let bool_field key json =
  match Json_parse.member key json with
  | Some (Json_parse.Bool b) -> b
  | _ -> Alcotest.failf "response has no bool %S" key

(* Poll [Result id] until it leaves pending/unknown: how asynchronous
   submitters observe completion. *)
let poll_result endpoint id =
  let deadline = Unix.gettimeofday () +. 30.0 in
  let rec go () =
    match query endpoint (Swire.Result id) with
    | Ok json ->
      (match status json with
       | ("pending" | "unknown") when Unix.gettimeofday () < deadline ->
         Unix.sleepf 0.05;
         go ()
       | _ -> json)
    | Error _ when Unix.gettimeofday () < deadline ->
      Unix.sleepf 0.1;
      go ()
    | Error e -> Alcotest.failf "polling %s failed: %s" id e
  in
  go ()

(* {1 Wire} *)

let test_endpoints () =
  let roundtrip s expect =
    match Swire.endpoint_of_string s with
    | Ok ep -> check_string s expect (Swire.endpoint_to_string ep)
    | Error e -> Alcotest.failf "%s did not parse: %s" s e
  in
  roundtrip "unix:/tmp/x.sock" "unix:/tmp/x.sock";
  roundtrip "/tmp/x.sock" "unix:/tmp/x.sock";
  roundtrip "tcp:9090" "tcp:127.0.0.1:9090";
  roundtrip "tcp:example.net:80" "tcp:example.net:80";
  check_bool "empty rejected" true
    (Result.is_error (Swire.endpoint_of_string ""));
  check_bool "bad port rejected" true
    (Result.is_error (Swire.endpoint_of_string "tcp:host:nope"))

let test_request_roundtrip () =
  let req =
    Swire.Analyze
      { a_id = "app-01"
      ; a_engine = "streaming"
      ; a_timeout = Some 2.5
      ; a_sleep = 0.25
      ; a_trace_bytes = 123
      ; a_wait = false
      }
  in
  (match Swire.parse_request (Swire.request_json req) with
   | Ok (Swire.Analyze a) ->
     check_string "id" "app-01" a.a_id;
     check_string "engine" "streaming" a.a_engine;
     check_bool "timeout" true (a.a_timeout = Some 2.5);
     check_bool "sleep" true (a.a_sleep = 0.25);
     check_int "trace_bytes" 123 a.a_trace_bytes;
     check_bool "wait" false a.a_wait
   | Ok _ -> Alcotest.fail "parsed to the wrong operation"
   | Error e -> Alcotest.failf "did not parse: %s" e);
  (match Swire.parse_request (Swire.request_json (Swire.Result "x-1")) with
   | Ok (Swire.Result id) -> check_string "result id" "x-1" id
   | _ -> Alcotest.fail "result did not round-trip");
  check_bool "garbage rejected" true
    (Result.is_error (Swire.parse_request "not json"));
  check_bool "bad engine rejected" true
    (Result.is_error
       (Swire.parse_request
          {|{"schema":"droidracer-request/1","op":"analyze","id":"a","engine":"quantum"}|}));
  check_bool "bad id rejected" true
    (Result.is_error
       (Swire.parse_request
          {|{"schema":"droidracer-request/1","op":"analyze","id":"../etc"}|}))

let test_decoder_incremental () =
  let frame payload = Proc_pool.frame (Bytes.of_string payload) in
  let d = Swire.create_decoder () in
  let all = Bytes.cat (frame "hello") (frame "world") in
  (* one byte at a time: no frame until the last byte of each *)
  let got = ref [] in
  Bytes.iter
    (fun c ->
       Swire.decoder_feed d (Bytes.make 1 c) 1;
       match Swire.decoder_next d with
       | Ok (Some f) -> got := f :: !got
       | Ok None -> ()
       | Error e -> Alcotest.failf "decoder error: %s" e)
    all;
  check (Alcotest.list Alcotest.string) "both frames, in order"
    [ "hello"; "world" ] (List.rev !got);
  (* an announced length past the limit is an error before any payload
     arrives — a lying client cannot make the daemon buffer it *)
  let d = Swire.create_decoder ~limit:16 () in
  let big = frame (String.make 64 'x') in
  Swire.decoder_feed d big 9;
  (match Swire.decoder_next d with
   | Error _ -> ()
   | Ok _ -> Alcotest.fail "oversized frame was not refused")

let test_response_json_roundtrip () =
  let rs =
    { Swire.rs_id = "weird \"id\""
    ; rs_status = "completed"
    ; rs_reason = ""
    ; rs_engine = "dense"
    ; rs_requested = "auto"
    ; rs_ladder = "dense"
    ; rs_events = 31
    ; rs_races = 2
    ; rs_distinct = 2
    ; rs_locations = [ "A.f@0"; "B.g@1" ]
    ; rs_elapsed = 0.001
    ; rs_queue_seconds = 0.5
    }
  in
  let json = ok (Swire.parse_response (Swire.result_response rs)) in
  (* the CLI re-serializes responses with [Json.to_string]; the
     round-trip must preserve every field *)
  let json' = ok (Swire.parse_response (Json.to_string json)) in
  check_string "id survives" "weird \"id\"" (str "id" json');
  check_bool "races survive" true (num "races" json' = 2.0);
  check_bool "resumed survives" true (not (bool_field "resumed" json'))

(* {1 End to end} *)

let test_e2e_completed_and_dedupe () =
  let dir = fresh_dir "svc_e2e" in
  let trace = Lazy.force trace_bytes in
  with_daemon (base_config dir) @@ fun endpoint _pid ->
  (* fresh submission: analysed for real *)
  let r1 = ok (query endpoint ~trace (analyze ~trace "mp-back")) in
  check_string "completed" "completed" (status r1);
  check_bool "two races" true (num "races" r1 = 2.0);
  check_string "engine" "dense" (str "engine" r1);
  check_bool "fresh" true (not (bool_field "resumed" r1));
  (* same id again: served from the result cache, never re-executed *)
  let r2 = ok (query endpoint ~trace (analyze ~trace "mp-back")) in
  check_string "still completed" "completed" (status r2);
  check_bool "served from cache" true (bool_field "resumed" r2);
  (* an id nobody submitted *)
  let r3 = ok (query endpoint (Swire.Result "never-submitted")) in
  check_string "unknown" "unknown" (status r3);
  (* health: exactly one execution *)
  let h = ok (query endpoint Swire.Health) in
  check_string "healthy" "ok" (status h);
  check_bool "one completed" true (num "completed" h = 1.0);
  check_bool "one accepted" true (num "accepted" h = 1.0);
  check_bool "a live worker" true (num "workers_live" h >= 1.0)

let test_drain_finishes_queue () =
  let dir = fresh_dir "svc_drain" in
  let trace = Lazy.force trace_bytes in
  let config = base_config dir in
  let pid = fork_daemon config in
  wait_ready config.Server.endpoint;
  let endpoint = config.Server.endpoint in
  (* hold the lone worker, then SIGTERM with the request in flight *)
  let held = Client.connect endpoint in
  let a =
    ok (query endpoint ~trace (analyze ~trace ~sleep:1.0 ~wait:false "slow"))
  in
  check_string "accepted" "accepted" (status a);
  Unix.kill pid Sys.sigterm;
  Unix.sleepf 0.5;
  (* a submission on an already-open connection is refused while
     draining, with a retry hint *)
  (match held with
   | Ok t ->
     Client.set_read_timeout t 5.0;
     (match Client.roundtrip t ~trace (analyze ~trace "late") with
      | Ok json ->
        check_string "refused while draining" "draining" (status json);
        check_bool "retry hint" true (num "retry_after_seconds" json > 0.0)
      | Error _ ->
        (* the drain may already have closed the connection; that is a
           refusal too *)
        ());
     Client.close t
   | Error e -> Alcotest.failf "pre-drain connect failed: %s" e);
  (match stop_daemon pid with
   | Unix.WEXITED 0 -> ()
   | Unix.WEXITED c -> Alcotest.failf "drain exited %d" c
   | _ -> Alcotest.fail "drain died by signal");
  (* the queued request was finished, its spool removed, the socket
     unlinked *)
  let spool_traces =
    Sys.readdir config.Server.spool_dir
    |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".trace")
  in
  check (Alcotest.list Alcotest.string) "spool empty after drain" []
    spool_traces;
  (match endpoint with
   | Swire.Unix_socket path ->
     check_bool "socket unlinked" false (Sys.file_exists path)
   | Swire.Tcp _ -> ())

let test_sigkill_resume_exactly_once () =
  let dir = fresh_dir "svc_kill" in
  let trace = Lazy.force trace_bytes in
  let config = base_config dir in
  (* Round 1: complete one request, leave one in flight, SIGKILL. *)
  let pid = fork_daemon config in
  wait_ready config.Server.endpoint;
  let endpoint = config.Server.endpoint in
  let done1 = ok (query endpoint ~trace (analyze ~trace "done-before")) in
  check_string "first completed" "completed" (status done1);
  let acc =
    ok
      (query endpoint ~trace (analyze ~trace ~sleep:5.0 ~wait:false "inflight"))
  in
  check_string "in-flight accepted" "accepted" (status acc);
  Unix.kill pid Sys.sigkill;
  ignore (Unix.waitpid [] pid);
  (* Round 2: same spool and journal, --resume. *)
  with_daemon { config with Server.resume = true } @@ fun endpoint _pid ->
  let h = ok (query endpoint Swire.Health) in
  check_bool "finished result replayed" true (num "resumed_results" h >= 1.0);
  check_bool "in-flight request re-queued" true
    (num "resumed_requeued" h = 1.0);
  (* the in-flight casualty runs to completion (at-least-once)... *)
  let r = poll_result endpoint "inflight" in
  check_string "inflight completed after restart" "completed" (status r);
  check_bool "inflight has the races" true (num "races" r = 2.0);
  (* ...while the finished one is served from the journal, not re-run
     (exactly-once-observable): the only fresh execution is [inflight] *)
  let d = ok (query endpoint ~trace (analyze ~trace "done-before")) in
  check_string "old result intact" "completed" (status d);
  check_bool "old result from cache" true (bool_field "resumed" d);
  let h = ok (query endpoint Swire.Health) in
  check_bool
    (Printf.sprintf "exactly one fresh execution (got %g)" (num "executed" h))
    true
    (num "executed" h = 1.0)

let test_overload_and_ladder () =
  let dir = fresh_dir "svc_load" in
  let trace = Lazy.force trace_bytes in
  let config =
    { (base_config dir) with Server.queue_capacity = 4; workers = 1 }
  in
  with_daemon config @@ fun endpoint _pid ->
  (* r0 occupies the lone worker for 2s; r1..r4 fill the queue to
     capacity; r5 must be refused — deterministically, with a hint. *)
  let a0 =
    ok (query endpoint ~trace (analyze ~trace ~sleep:2.0 ~wait:false "r0"))
  in
  check_string "r0 accepted" "accepted" (status a0);
  (* r0 is dispatched as soon as the daemon's loop turns; give it a
     beat so the queue below is exactly r1..r4 *)
  Unix.sleepf 0.3;
  for i = 1 to 4 do
    let a =
      ok
        (query endpoint ~trace
           (analyze ~trace ~wait:false (Printf.sprintf "r%d" i)))
    in
    check_string (Printf.sprintf "r%d accepted" i) "accepted" (status a)
  done;
  let rejected = ok (query endpoint ~trace (analyze ~trace ~wait:false "r5")) in
  check_string "r5 refused" "overloaded" (status rejected);
  check_bool "retry-after hint" true
    (num "retry_after_seconds" rejected > 0.0);
  check_bool "hint is bounded" true
    (num "retry_after_seconds" rejected <= 60.0);
  check_bool "depth reported" true (num "queue_depth" rejected = 4.0);
  check_bool "capacity reported" true (num "queue_capacity" rejected = 4.0);
  let h = ok (query endpoint Swire.Health) in
  check_string "pressure at the top of the ladder" "streaming"
    (str "pressure" h);
  check_bool "overload counted" true (num "overloaded" h = 1.0);
  check_bool "queue never exceeded capacity" true
    (num "max_queue_depth" h <= 4.0);
  (* The ladder at dispatch (fill = depth after pop / capacity):
     r1 sees 3/4 -> streaming; r2, r3 and r4 are below the high-water
     mark -> dense.  Deterministic because the
     lone worker serializes dispatch and all five were queued before
     r0 finished. *)
  let engine_of id = str "engine" (poll_result endpoint id) in
  check_string "r0 ran undegraded" "dense" (engine_of "r0");
  check_string "r1 degraded to streaming" "streaming" (engine_of "r1");
  check_string "r2 ran dense" "dense" (engine_of "r2");
  check_string "r3 ran dense" "dense" (engine_of "r3");
  check_string "r4 ran dense" "dense" (engine_of "r4");
  (* every response names both the engine that ran and the one asked
     for *)
  let r1 = poll_result endpoint "r1" in
  check_string "requested engine reported" "auto" (str "engine_requested" r1);
  check_string "ladder level reported" "streaming" (str "ladder" r1);
  (* the streaming engine reports one race per racy location, not one
     per pair — degraded runs still surface the bug *)
  check_bool "degraded runs still find the race" true (num "races" r1 >= 1.0);
  let h = ok (query endpoint Swire.Health) in
  check_bool "one degradation counted" true (num "degraded" h = 1.0);
  check_string "pressure back at the bottom of the ladder" "dense"
    (str "pressure" h)

let test_malformed_frames_cost_one_connection () =
  let dir = fresh_dir "svc_mal" in
  let trace = Lazy.force trace_bytes in
  let config = base_config dir in
  with_daemon config @@ fun endpoint _pid ->
  let raw_roundtrip payload =
    let t = ok (Client.connect endpoint) in
    Client.set_read_timeout t 5.0;
    Fun.protect
      ~finally:(fun () -> Client.close t)
      (fun () ->
         Proc_pool.write_frame t.Client.fd (Bytes.of_string payload);
         match Proc_pool.read_frame t.Client.fd with
         | Some frame -> ok (Swire.parse_response (Bytes.to_string frame))
         | None -> Alcotest.fail "daemon closed without responding")
  in
  (* not JSON *)
  let r = raw_roundtrip "this is not json" in
  check_string "garbage -> error" "error" (status r);
  (* a trace announcement over the cap *)
  let r =
    raw_roundtrip
      (Printf.sprintf
         {|{"schema":"droidracer-request/1","op":"analyze","id":"big","trace_bytes":%d}|}
         (config.Server.max_trace_bytes + 1))
  in
  check_string "oversized announcement -> error" "error" (status r);
  (* a trace frame shorter than announced *)
  let t = ok (Client.connect endpoint) in
  Client.set_read_timeout t 5.0;
  Proc_pool.write_frame t.Client.fd
    (Bytes.of_string
       {|{"schema":"droidracer-request/1","op":"analyze","id":"short","trace_bytes":10}|});
  Proc_pool.write_frame t.Client.fd (Bytes.of_string "abc");
  (match Proc_pool.read_frame t.Client.fd with
   | Some frame ->
     let r = ok (Swire.parse_response (Bytes.to_string frame)) in
     check_string "torn trace -> error" "error" (status r)
   | None -> Alcotest.fail "daemon closed without responding");
  Client.close t;
  (* after all that abuse the daemon still serves real work *)
  let r = ok (query endpoint ~trace (analyze ~trace "after-abuse")) in
  check_string "daemon survived" "completed" (status r);
  let h = ok (query endpoint Swire.Health) in
  check_bool "errors counted" true (num "errors" h >= 3.0)

let test_waiter_disconnect_mid_request () =
  let dir = fresh_dir "svc_gone" in
  let trace = Lazy.force trace_bytes in
  with_daemon (base_config dir) @@ fun endpoint _pid ->
  (* a waiting client that vanishes before its result is ready must
     cost nothing: the daemon finishes the work and serves it to the
     next asker (and must not die of SIGPIPE/EPIPE writing to the
     corpse) *)
  let t = ok (Client.connect endpoint) in
  Proc_pool.write_frame t.Client.fd
    (Bytes.of_string
       (Swire.request_json (analyze ~trace ~sleep:0.5 "abandoned")));
  Proc_pool.write_frame t.Client.fd (Bytes.of_string trace);
  Client.close t;
  let r = poll_result endpoint "abandoned" in
  check_string "finished for nobody" "completed" (status r);
  let h = ok (query endpoint Swire.Health) in
  check_string "daemon unharmed" "ok" (status h)

(* The daemon's lone worker, read from the kernel's child list (the
   daemon forks nothing else). *)
let worker_pid daemon =
  let path = Printf.sprintf "/proc/%d/task/%d/children" daemon daemon in
  match
    String.split_on_char ' '
      (String.trim (In_channel.with_open_bin path In_channel.input_all))
  with
  | [ pid ] -> int_of_string pid
  | pids ->
    Alcotest.failf "expected one worker, found [%s]" (String.concat " " pids)

(* Poll health until its number [key] reads [value]. *)
let wait_health endpoint key value =
  let deadline = Unix.gettimeofday () +. 15.0 in
  let rec go () =
    let h = ok (query endpoint Swire.Health) in
    if num key h = value then ()
    else if Unix.gettimeofday () < deadline then begin
      Unix.sleepf 0.02;
      go ()
    end
    else Alcotest.failf "health %s never reached %g" key value
  in
  go ()

let test_worker_deaths_answered () =
  let dir = fresh_dir "svc_death" in
  let trace = Lazy.force trace_bytes in
  let config =
    { (base_config dir) with Server.workers = 1; kill_grace = 0.2 }
  in
  with_daemon config @@ fun endpoint daemon ->
  (* Crash: the worker is SIGKILLed in the middle of a request. *)
  let a =
    ok (query endpoint ~trace (analyze ~trace ~sleep:2.0 ~wait:false "crash"))
  in
  check_string "crash accepted" "accepted" (status a);
  wait_health endpoint "inflight" 1.0;
  Unix.kill (worker_pid daemon) Sys.sigkill;
  let r = poll_result endpoint "crash" in
  check_string "crash answered" "crashed" (status r);
  check_string "crash reason" "worker killed by SIGKILL" (str "reason" r);
  (* Hard deadline: a frozen worker can never answer, so the request is
     killed at its budget: sleep + timeout + kill grace = 1s. *)
  wait_health endpoint "workers_live" 1.0;
  Unix.kill (worker_pid daemon) Sys.sigstop;
  let r =
    ok
      (query endpoint ~trace
         (analyze ~trace ~timeout:0.5 ~sleep:0.3 "frozen"))
  in
  check_string "deadline answered" "timeout" (status r);
  check_string "deadline reason names the budget"
    "wall-clock budget of 1s exceeded" (str "reason" r);
  (* Recovery: the respawned worker serves the next request. *)
  let r = ok (query endpoint ~trace (analyze ~trace "after")) in
  check_string "recovered" "completed" (status r);
  let h = ok (query endpoint Swire.Health) in
  check_bool "two worker deaths" true (num "worker_deaths" h = 2.0);
  check_bool "worker live again" true (num "workers_live" h = 1.0)

let test_loadgen_against_daemon () =
  let dir = fresh_dir "svc_lg" in
  let trace = Lazy.force trace_bytes in
  let config = { (base_config dir) with Server.workers = 2 } in
  with_daemon config @@ fun endpoint _pid ->
  let stats =
    Loadgen.run ~endpoint ~clients:3 ~requests:4
      ~traces:[| ("mp", trace) |]
      ~deadline_seconds:60.0 ~tag:"t" ()
  in
  check_int "nothing lost" 0 (Loadgen.lost stats);
  check_int "everything completed" 12 (Loadgen.completed stats);
  let json = ok (Swire.parse_response (Loadgen.json_string stats)) in
  check_string "bench schema" "droidracer-service-bench/1" (str "schema" json);
  check_bool "throughput positive" true (num "traces_per_sec" json > 0.0);
  check_bool "p99 covers p50" true
    (match Json_parse.member "latency_seconds" json with
     | Some lat -> num "p99" lat >= num "p50" lat
     | None -> Alcotest.fail "no latency_seconds")

let () =
  Alcotest.run "service"
    [ ( "wire"
      , [ Alcotest.test_case "endpoints parse" `Quick test_endpoints
        ; Alcotest.test_case "request round-trip" `Quick
            test_request_roundtrip
        ; Alcotest.test_case "incremental decoder" `Quick
            test_decoder_incremental
        ; Alcotest.test_case "response JSON round-trip" `Quick
            test_response_json_roundtrip
        ] )
    ; ( "daemon"
      , [ Alcotest.test_case "complete, dedupe, unknown" `Slow
            test_e2e_completed_and_dedupe
        ; Alcotest.test_case "SIGTERM drains the queue" `Slow
            test_drain_finishes_queue
        ; Alcotest.test_case "SIGKILL + resume is exactly-once" `Slow
            test_sigkill_resume_exactly_once
        ; Alcotest.test_case "overload refusal and the ladder" `Slow
            test_overload_and_ladder
        ; Alcotest.test_case "malformed frames contained" `Slow
            test_malformed_frames_cost_one_connection
        ; Alcotest.test_case "waiter disconnect survived" `Slow
            test_waiter_disconnect_mid_request
        ; Alcotest.test_case "worker deaths answered" `Slow
            test_worker_deaths_answered
        ; Alcotest.test_case "load generator end to end" `Slow
            test_loadgen_against_daemon
        ] )
    ]
