(* The fault-tolerant analysis supervisor.

   The contract under test: one misbehaving application costs one
   failure row, never the sweep; outcomes are identical across [jobs]
   values; the fault plan of [with_faults] is a pure function of
   (seed, app); budgets degrade gracefully (streaming fallback, timeout
   rows); and the Obs counters account for every degradation.

   The injected-fault expectations below are pinned against the
   deterministic plan (Supervisor.fault_decision, FNV-1a): for the two
   cheapest corpus applications,
     seed 1: Aard Dictionary = transient parse fault, Music Player healthy
     seed 3: Aard = persistent crash, Music Player = transient crash
     seed 6: Aard = transient timeout, Music Player = transient reject
   (a transient reject still fails: rejections are never retried). *)

module Supervisor = Droidracer_report.Supervisor
module Experiments = Droidracer_report.Experiments
module Detector = Droidracer_core.Detector
module Trace = Droidracer_trace.Trace
module Catalog = Droidracer_corpus.Catalog
module Synthetic = Droidracer_corpus.Synthetic
module Vargen = Droidracer_corpus.Vargen
module Obs = Droidracer_obs.Obs
module Progress = Droidracer_report.Progress
open Helpers

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int
let check_string = check Alcotest.string

(* Aard Dictionary (~1.4k events) and Music Player (~5.5k): big enough
   to exercise the full pipeline, cheap enough to run repeatedly. *)
let specs2 =
  match Catalog.all with
  | a :: b :: _ -> [ a; b ]
  | _ -> assert false

let spec_names = List.map (fun s -> s.Synthetic.s_name) specs2

(* The structural shape of an outcome: everything except wall-clock
   elapsed, which legitimately differs between runs. *)
let shape = function
  | Supervisor.Completed run ->
    Printf.sprintf "completed %s races=%d"
      run.Experiments.ar_built.Synthetic.b_spec.Synthetic.s_name
      (List.length run.Experiments.ar_report.Detector.all_races)
  | Supervisor.Failed f ->
    Printf.sprintf "failed %s %s retries=%d reason=%s" f.Supervisor.f_app
      (Supervisor.reason_label f.Supervisor.f_reason)
      f.Supervisor.f_retries
      (Supervisor.reason_detail f.Supervisor.f_reason)

let run_seeded ?(jobs = 1) seed =
  Supervisor.with_faults ~seed (fun () ->
    Supervisor.run_catalog ~jobs ~specs:specs2 ())

(* {1 The fault plan} *)

let test_fault_decision_pure () =
  List.iter
    (fun seed ->
       List.iter
         (fun app ->
            let d1 = Supervisor.fault_decision ~seed ~app () in
            let d2 = Supervisor.fault_decision ~seed ~app () in
            check_bool "same decision twice" true (d1 = d2))
         spec_names)
    [ 1; 2; 3; 4; 5; 6 ];
  (* Every fault class is reachable: over a window of seeds, each class
     hits at least one catalog application. *)
  let seen = Hashtbl.create 4 in
  for seed = 1 to 40 do
    List.iter
      (fun (s : Synthetic.spec) ->
         match
           (Supervisor.fault_decision ~seed ~app:s.Synthetic.s_name ())
             .Supervisor.d_fault
         with
         | Some f -> Hashtbl.replace seen (Supervisor.fault_name f) ()
         | None -> ())
      Catalog.all
  done;
  List.iter
    (fun f ->
       check_bool (Printf.sprintf "class %s reachable" f) true
         (Hashtbl.mem seen f))
    [ "parse"; "reject"; "crash"; "timeout" ]

let test_pinned_plan () =
  let aard = List.nth spec_names 0 and music = List.nth spec_names 1 in
  let decision seed app = Supervisor.fault_decision ~seed ~app () in
  check_bool "seed 1: Aard = transient parse" true
    (decision 1 aard
     = { Supervisor.d_fault = Some Supervisor.Parse_fault; d_transient = true });
  check_bool "seed 1: Music healthy" true
    ((decision 1 music).Supervisor.d_fault = None);
  check_bool "seed 3: Aard = persistent crash" true
    (decision 3 aard
     = { Supervisor.d_fault = Some Supervisor.Crash_fault; d_transient = false });
  check_bool "seed 3: Music = transient crash" true
    (decision 3 music
     = { Supervisor.d_fault = Some Supervisor.Crash_fault; d_transient = true });
  check_bool "seed 6: Aard = transient timeout" true
    (decision 6 aard
     = { Supervisor.d_fault = Some Supervisor.Timeout_fault; d_transient = true });
  check_bool "seed 6: Music = transient reject" true
    (decision 6 music
     = { Supervisor.d_fault = Some Supervisor.Reject_fault; d_transient = true })

(* {1 Seeded fault classes}

   Under every fault class the sweep completes, healthy applications
   still produce reports, and the failed row carries the injected
   reason. *)

let expect_completed name = function
  | Supervisor.Completed run ->
    check_string "completed app" name
      run.Experiments.ar_built.Synthetic.b_spec.Synthetic.s_name;
    check_bool (name ^ " produced a report") true
      (Trace.length run.Experiments.ar_report.Detector.trace > 0)
  | Supervisor.Failed f ->
    Alcotest.failf "%s should have completed, failed: %s" name
      (Supervisor.reason_detail f.Supervisor.f_reason)

let expect_failed name ~label ~retries ~contains = function
  | Supervisor.Completed _ ->
    Alcotest.failf "%s should have failed (%s)" name label
  | Supervisor.Failed f ->
    check_string "failed app" name f.Supervisor.f_app;
    check_string (name ^ " outcome") label
      (Supervisor.reason_label f.Supervisor.f_reason);
    check_int (name ^ " retries") retries f.Supervisor.f_retries;
    check_bool
      (Printf.sprintf "%s reason mentions %S" name contains)
      true
      (Astring_contains.contains
         (Supervisor.reason_detail f.Supervisor.f_reason)
         contains);
    check_bool (name ^ " elapsed is sane") true (f.Supervisor.f_elapsed >= 0.0)

let test_parse_fault () =
  match run_seeded 1 with
  | [ aard; music ] ->
    (* A rejection is a verdict about the input: never retried, even
       though the plan marks this fault transient. *)
    expect_failed (List.nth spec_names 0) ~label:"rejected" ~retries:0
      ~contains:"injected parse fault" aard;
    expect_completed (List.nth spec_names 1) music
  | outcomes -> Alcotest.failf "expected 2 outcomes, got %d" (List.length outcomes)

let test_crash_fault_and_retry () =
  match run_seeded 3 with
  | [ aard; music ] ->
    (* Persistent crash: both attempts fail, the row records the retry. *)
    expect_failed (List.nth spec_names 0) ~label:"crashed" ~retries:1
      ~contains:"injected task exception" aard;
    (* Transient crash: the retry succeeds. *)
    expect_completed (List.nth spec_names 1) music
  | outcomes -> Alcotest.failf "expected 2 outcomes, got %d" (List.length outcomes)

let test_timeout_and_reject_faults () =
  match run_seeded 6 with
  | [ aard; music ] ->
    (* Transient injected timeout: retry-once recovers. *)
    expect_completed (List.nth spec_names 0) aard;
    expect_failed (List.nth spec_names 1) ~label:"rejected" ~retries:0
      ~contains:"injected validator reject" music
  | outcomes -> Alcotest.failf "expected 2 outcomes, got %d" (List.length outcomes)

let test_no_faults_outside_with_faults () =
  (* The plan is uninstalled when with_faults returns: the same seed's
     victims complete normally afterwards. *)
  let outcomes = Supervisor.run_catalog ~specs:[ List.hd specs2 ] () in
  match outcomes with
  | [ outcome ] -> expect_completed (List.nth spec_names 0) outcome
  | _ -> Alcotest.fail "expected one outcome"

(* {1 Determinism across jobs} *)

let test_jobs_determinism () =
  List.iter
    (fun seed ->
       let s1 = List.map shape (run_seeded ~jobs:1 seed) in
       let s4 = List.map shape (run_seeded ~jobs:4 seed) in
       check (Alcotest.list Alcotest.string)
         (Printf.sprintf "seed %d: jobs=1 and jobs=4 agree" seed)
         s1 s4)
    [ 1; 3; 6 ]

(* {1 Budgets} *)

let counter name =
  Option.value (List.assoc_opt name (Obs.snapshot ()).Obs.counters) ~default:0

let with_obs f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect f ~finally:(fun () ->
    Obs.disable ();
    Obs.reset ())

let test_wallclock_timeout () =
  with_obs @@ fun () ->
  let budget =
    { Supervisor.timeout_seconds = Some 0.0; max_events = None }
  in
  (match Supervisor.run_app ~budget (List.hd specs2) with
   | Supervisor.Failed f ->
     check_string "timed out" "timeout"
       (Supervisor.reason_label f.Supervisor.f_reason);
     check_int "retried once" 1 f.Supervisor.f_retries;
     check_bool "reason names the budget" true
       (Astring_contains.contains
          (Supervisor.reason_detail f.Supervisor.f_reason)
          "wall-clock budget")
   | Supervisor.Completed _ ->
     Alcotest.fail "a zero-second budget cannot complete");
  check_int "supervisor.timeouts counts both attempts" 2
    (counter "supervisor.timeouts");
  check_int "supervisor.retries" 1 (counter "supervisor.retries")

let test_event_budget_within_10x () =
  with_obs @@ fun () ->
  (* Over the cap but within 10x of it: the dense engine still runs, so
     nothing degrades. *)
  let budget = { Supervisor.timeout_seconds = None; max_events = Some 1000 } in
  let spec = List.hd specs2 in
  (match Supervisor.run_app ~budget spec with
   | Supervisor.Failed f ->
     Alcotest.failf "over-budget run should degrade, not fail: %s"
       (Supervisor.reason_detail f.Supervisor.f_reason)
   | Supervisor.Completed run ->
     let report = run.Experiments.ar_report in
     Alcotest.(check (list string)) "the dense pipeline ran"
       Detector.phase_names (List.map fst report.Detector.phase_seconds);
     let reference = Experiments.run_spec spec in
     check_int "same races as the unsupervised run"
       (List.length reference.Experiments.ar_report.Detector.all_races)
       (List.length report.Detector.all_races));
  check_int "no streaming fallback" 0
    (counter "supervisor.fallbacks.dense_streaming")

let test_event_budget_streaming_fallback () =
  with_obs @@ fun () ->
  (* A cap more than 10x under the trace length lands on the streaming
     engine. *)
  let budget = { Supervisor.timeout_seconds = None; max_events = Some 2 } in
  let spec = List.hd specs2 in
  (match Supervisor.run_app ~budget spec with
   | Supervisor.Failed f ->
     Alcotest.failf "over-budget run should degrade, not fail: %s"
       (Supervisor.reason_detail f.Supervisor.f_reason)
   | Supervisor.Completed run ->
     (* Streaming under-approximates batch: never more races. *)
     let reference = Experiments.run_spec spec in
     check_bool "streaming finds a subset" true
       (List.length run.Experiments.ar_report.Detector.all_races
        <= List.length reference.Experiments.ar_report.Detector.all_races));
  check_int "supervisor.fallbacks.dense_streaming" 1
    (counter "supervisor.fallbacks.dense_streaming")

let test_ingest_counter () =
  with_obs @@ fun () ->
  (match run_seeded 6 with
   | [ _; _ ] -> ()
   | _ -> Alcotest.fail "expected 2 outcomes");
  (* Music Player's persistent reject is never retried: one rejection. *)
  check_int "ingest.rejected" 1 (counter "ingest.rejected");
  (* Aard's transient timeout: one timeout, one retry. *)
  check_int "supervisor.timeouts" 1 (counter "supervisor.timeouts");
  check_int "supervisor.retries" 1 (counter "supervisor.retries")

(* {1 Supervised single-trace analysis} *)

let test_analyze_valid () =
  match Supervisor.analyze ~name:"figure4" figure4 with
  | Ok report ->
    check_bool "report covers the trace" true
      (Trace.length report.Detector.trace > 0)
  | Error f ->
    Alcotest.failf "figure4 rejected: %s"
      (Supervisor.reason_detail f.Supervisor.f_reason)

let test_analyze_rejects_inadmissible () =
  (* Structurally fine (Trace.of_events accepts it), admissibility-bad:
     a release with no matching acquire. *)
  let bad = trace [ threadinit 1; release 1 "dbLock" ] in
  match Supervisor.analyze ~name:"unbalanced" bad with
  | Ok _ -> Alcotest.fail "inadmissible trace accepted"
  | Error f ->
    check_string "rejected" "rejected"
      (Supervisor.reason_label f.Supervisor.f_reason);
    check_bool "diagnosis names the rule" true
      (Astring_contains.contains
         (Supervisor.reason_detail f.Supervisor.f_reason)
         "unbalanced-release")

(* {1 Reports} *)

let sample_failures =
  [ { Supervisor.f_app = "App \"quoted\""
    ; f_reason = Supervisor.Rejected "line 3: [fifo-violation] out of order"
    ; f_engine = "dense"
    ; f_elapsed = 0.25
    ; f_retries = 0
    ; f_backoff = 0.0
    }
  ; { Supervisor.f_app = "Other"
    ; f_reason = Supervisor.Timed_out 1.5
    ; f_engine = "streaming"
    ; f_elapsed = 3.0
    ; f_retries = 1
    ; f_backoff = 0.5
    }
  ]

let test_failures_json () =
  let json = Supervisor.failures_json_string sample_failures in
  match Json_parse.parse json with
  | Error msg -> Alcotest.failf "invalid JSON: %s\n%s" msg json
  | Ok v ->
    (match Json_parse.member "failures" v with
     | Some (Json_parse.Array [ first; second ]) ->
       check_bool "first app" true
         (Json_parse.member "app" first
          = Some (Json_parse.String "App \"quoted\""));
       check_bool "first outcome" true
         (Json_parse.member "outcome" first
          = Some (Json_parse.String "rejected"));
       check_bool "second outcome" true
         (Json_parse.member "outcome" second
          = Some (Json_parse.String "timeout"));
       check_bool "first engine" true
         (Json_parse.member "engine" first
          = Some (Json_parse.String "dense"));
       check_bool "second engine" true
         (Json_parse.member "engine" second
          = Some (Json_parse.String "streaming"));
       check_bool "second retries" true
         (Json_parse.member "retries" second
          = Some (Json_parse.Number 1.0));
       check_bool "second backoff_seconds" true
         (Json_parse.member "backoff_seconds" second
          = Some (Json_parse.Number 0.5))
     | _ -> Alcotest.fail "failures array missing")

(* {1 Live sweep progress} *)

let test_progress_jsonl () =
  (* Seed 3: Aard = persistent crash (fails), Music = transient crash
     (retries, then completes) — one of each terminal outcome.  Every
     line of the JSONL stream must parse; the header carries the
     schema; the summary must agree with the outcome rows. *)
  with_obs @@ fun () ->
  let path = Filename.temp_file "droidracer-progress-" ".jsonl" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let heartbeats = ref [] in
  let outcomes =
    let out = open_out path in
    Fun.protect ~finally:(fun () -> close_out out) @@ fun () ->
    let progress =
      Progress.create ~out
        ~heartbeat:(fun line -> heartbeats := line :: !heartbeats)
        ~mode:"cooperative" ~jobs:2 ~total:(List.length specs2) ()
    in
    Supervisor.with_faults ~seed:3 (fun () ->
      Supervisor.run_catalog ~jobs:2 ~specs:specs2 ~progress ())
  in
  let completed, failed =
    List.partition (function Supervisor.Completed _ -> true | _ -> false)
      outcomes
  in
  let lines = In_channel.with_open_text path In_channel.input_lines in
  let records =
    List.map
      (fun line ->
         match Json_parse.parse line with
         | Ok v -> v
         | Error msg -> Alcotest.failf "bad JSONL line: %s\n%s" msg line)
      lines
  in
  (* header + one record per app + summary *)
  check_int "record count" (List.length specs2 + 2) (List.length records);
  (match records with
   | header :: rest ->
     check_bool "header schema" true
       (Json_parse.member "schema" header
        = Some (Json_parse.String "droidracer-progress/1"));
     check_bool "header mode" true
       (Json_parse.member "mode" header
        = Some (Json_parse.String "cooperative"));
     check_bool "header total" true
       (Json_parse.member "total" header
        = Some (Json_parse.Number (float_of_int (List.length specs2))));
     let apps, summary =
       match List.rev rest with
       | s :: apps_rev -> (List.rev apps_rev, s)
       | [] -> Alcotest.fail "no records after the header"
     in
     List.iteri
       (fun i app ->
          check_bool "app record type" true
            (Json_parse.member "type" app = Some (Json_parse.String "app"));
          List.iter
            (fun field ->
               check_bool (field ^ " present") true
                 (Json_parse.member field app <> None))
            [ "app"; "outcome"; "engine"; "events"; "elapsed_seconds"
            ; "done"; "total"; "events_per_sec"; "eta_seconds"; "fallbacks"
            ];
          check_bool "done increments" true
            (Json_parse.member "done" app
             = Some (Json_parse.Number (float_of_int (i + 1)))))
       apps;
     check_bool "summary type" true
       (Json_parse.member "type" summary
        = Some (Json_parse.String "summary"));
     let num field v =
       check_bool (Printf.sprintf "summary %s = %d" field v) true
         (Json_parse.member field summary
          = Some (Json_parse.Number (float_of_int v)))
     in
     num "done" (List.length outcomes);
     num "total" (List.length specs2);
     num "completed" (List.length completed);
     num "failed" (List.length failed)
   | [] -> Alcotest.fail "empty progress stream");
  (* heartbeats: one per app plus the final "sweep done" line *)
  check_int "heartbeat count" (List.length specs2 + 1) (List.length !heartbeats);
  check_bool "final heartbeat is the summary" true
    (Astring_contains.contains (List.hd !heartbeats) "sweep done")

(* {1 Trace-file sweeps} *)

(* The same derived variants written in both formats, swept at
   different jobs values: every row completes, the planted races are
   among the reported locations, and the reports agree between the
   binary and text sweeps (the binary-vs-text CI diff in miniature).
   A missing file costs a rejected row, never the sweep. *)
let test_run_files () =
  let dir = Filename.temp_file "droidracer_files" ".d" in
  Sys.remove dir;
  Sys.mkdir dir 0o700;
  Fun.protect
    ~finally:(fun () ->
      Array.iter
        (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ())
        (Sys.readdir dir);
      try Sys.rmdir dir with Sys_error _ -> ())
  @@ fun () ->
  let variants = Vargen.variants ~seed:5 ~events:800 ~count:3 () in
  let bin = List.map (Vargen.write ~dir ~binary:true) variants in
  let txt = List.map (Vargen.write ~dir ~binary:false) variants in
  let from_bin = Supervisor.run_files ~jobs:2 bin in
  let from_txt = Supervisor.run_files ~jobs:1 txt in
  check_int "binary rows complete" 3
    (List.length (Supervisor.file_completed from_bin));
  check_int "no failures" 0 (List.length (Supervisor.file_failures from_bin));
  let key r =
    ( r.Supervisor.fr_name
    , r.Supervisor.fr_events
    , r.Supervisor.fr_races
    , r.Supervisor.fr_distinct
    , r.Supervisor.fr_locations )
  in
  check_bool "binary sweep = text sweep (modulo file and timing)" true
    (List.map key (Supervisor.file_completed from_bin)
     = List.map key (Supervisor.file_completed from_txt));
  List.iter2
    (fun v r ->
       List.iter
         (fun planted ->
            check_bool
              (Printf.sprintf "%s recalls %s" r.Supervisor.fr_name planted)
              true
              (List.mem planted r.Supervisor.fr_locations))
         v.Vargen.v_planted)
    variants
    (Supervisor.file_completed from_bin);
  let json = Supervisor.files_json_string from_bin in
  check_bool "races JSON schema" true
    (Astring_contains.contains json "droidracer-races/1");
  check_bool "races JSON keys rows by extension-free name" true
    (Astring_contains.contains json "\"name\":\"variant-0000\"");
  match Supervisor.run_files [ Filename.concat dir "missing.trace" ] with
  | [ Supervisor.File_failed f ] ->
    check_bool "missing file is a rejected row" true
      (match f.Supervisor.f_reason with
       | Supervisor.Rejected _ -> true
       | _ -> false)
  | _ -> Alcotest.fail "expected exactly one failure row"

let test_failure_table () =
  let rendered =
    Droidracer_report.Table.render (Supervisor.failure_table sample_failures)
  in
  check_bool "row for the rejected app" true
    (Astring_contains.contains rendered "fifo-violation");
  check_bool "row for the timeout" true
    (Astring_contains.contains rendered "wall-clock budget")

let () =
  Alcotest.run "supervisor"
    [ ( "fault plan"
      , [ Alcotest.test_case "pure and class-complete" `Quick
            test_fault_decision_pure
        ; Alcotest.test_case "pinned decisions" `Quick test_pinned_plan
        ] )
    ; ( "fault classes"
      , [ Alcotest.test_case "parse fault" `Slow test_parse_fault
        ; Alcotest.test_case "crash fault + retry" `Slow
            test_crash_fault_and_retry
        ; Alcotest.test_case "timeout + reject faults" `Slow
            test_timeout_and_reject_faults
        ; Alcotest.test_case "plan uninstalled after with_faults" `Slow
            test_no_faults_outside_with_faults
        ] )
    ; ( "determinism"
      , [ Alcotest.test_case "jobs 1 = jobs 4" `Slow test_jobs_determinism ] )
    ; ( "budgets"
      , [ Alcotest.test_case "wall-clock timeout" `Slow test_wallclock_timeout
        ; Alcotest.test_case "event budget within 10x stays dense" `Slow
            test_event_budget_within_10x
        ; Alcotest.test_case "event budget falls back to streaming" `Slow
            test_event_budget_streaming_fallback
        ; Alcotest.test_case "obs counters" `Slow test_ingest_counter
        ] )
    ; ( "progress"
      , [ Alcotest.test_case "JSONL stream well-formed" `Slow
            test_progress_jsonl
        ] )
    ; ( "analyze"
      , [ Alcotest.test_case "valid trace" `Quick test_analyze_valid
        ; Alcotest.test_case "inadmissible trace rejected" `Quick
            test_analyze_rejects_inadmissible
        ] )
    ; ( "file sweeps"
      , [ Alcotest.test_case "binary = text, planted recalled" `Slow
            test_run_files
        ] )
    ; ( "reports"
      , [ Alcotest.test_case "failures JSON" `Quick test_failures_json
        ; Alcotest.test_case "failure table" `Quick test_failure_table
        ] )
    ]
