(* Process isolation (Proc_pool + Supervisor.Isolated).

   The contract under test: a worker that segfaults, exceeds its memory
   cap, or hangs non-cooperatively costs one failure row while its
   siblings complete; hard deadlines are enforced by SIGKILL within the
   budget; retries follow the deterministic jitter-free exponential
   backoff; and rows come back in input order whatever the interleaving
   of worker deaths.

   Fault-plan pins (Supervisor.fault_decision over all_faults, k = 6,
   for the two cheapest corpus applications):
     seed 43: Aard Dictionary = persistent oom, Music Player healthy
     seed 38: Aard healthy, Music Player = transient hang
     seed 3 (basic classes): Aard = persistent crash, Music = transient
       crash — used to check Isolated and Cooperative agree row for
       row on the cooperative fault classes. *)

module Proc_pool = Droidracer_report.Proc_pool
module Supervisor = Droidracer_report.Supervisor
module Experiments = Droidracer_report.Experiments
module Synthetic = Droidracer_corpus.Synthetic
module Catalog = Droidracer_corpus.Catalog
module Detector = Droidracer_core.Detector
module Obs = Droidracer_obs.Obs

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int
let check_string = check Alcotest.string

let counter name =
  Option.value (List.assoc_opt name (Obs.snapshot ()).Obs.counters) ~default:0

let with_obs f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect f ~finally:(fun () ->
    Obs.disable ();
    Obs.reset ())

let specs2 =
  match Catalog.all with
  | a :: b :: _ -> [ a; b ]
  | _ -> assert false

let spec_names = List.map (fun s -> s.Synthetic.s_name) specs2

(* {1 The pool itself} *)

let values rows =
  List.map
    (fun row ->
       match row.Proc_pool.r_result with
       | Proc_pool.Value v -> v
       | Proc_pool.Died d -> Alcotest.failf "unexpected death: %s" (Proc_pool.death_message d))
    rows

let test_map_order () =
  let items = [ 5; 1; 4; 2; 3; 9; 0; 7 ] in
  let rows = Proc_pool.map ~jobs:3 (fun ~attempt:_ x -> x * x) items in
  check (Alcotest.list Alcotest.int) "squares in input order"
    (List.map (fun x -> x * x) items)
    (values rows);
  List.iter
    (fun row ->
       check_int "no retries" 0 row.Proc_pool.r_retries;
       check_bool "no deaths" true (row.Proc_pool.r_deaths = []))
    rows

let test_segfault_contained () =
  with_obs @@ fun () ->
  (* jobs:1 pins the schedule: the lone worker completes item 0, dies
     on item 1 while item 2 is still pending, so a replacement fork is
     mandatory, not a race against an idle sibling stealing the tail. *)
  let rows =
    Proc_pool.map ~jobs:1 ~retry:Proc_pool.no_retry
      (fun ~attempt:_ x ->
         if x = 1 then Unix.kill (Unix.getpid ()) Sys.sigsegv;
         x + 100)
      [ 0; 1; 2 ]
  in
  (match rows with
   | [ a; b; c ] ->
     check_int "sibling before" 100 (List.hd (values [ a ]));
     check_int "sibling after" 102 (List.hd (values [ c ]));
     (match b.Proc_pool.r_result with
      | Proc_pool.Died (Proc_pool.Signaled s) ->
        check_string "signal name" "SIGSEGV" (Proc_pool.signal_name s);
        check_bool "message names the signal" true
          (Astring_contains.contains
             (Proc_pool.death_message (Proc_pool.Signaled s))
             "SIGSEGV")
      | Proc_pool.Died d ->
        Alcotest.failf "expected a SIGSEGV death, got: %s"
          (Proc_pool.death_message d)
      | Proc_pool.Value _ -> Alcotest.fail "the segfaulting task returned")
   | _ -> Alcotest.failf "expected 3 rows, got %d" (List.length rows));
  check_bool "a replacement worker was forked" true (counter "proc.restarts" >= 1)

let test_oom_contained () =
  with_obs @@ fun () ->
  let limits =
    { Proc_pool.deadline_seconds = None; max_mem_mib = Some 128 }
  in
  let rows =
    Proc_pool.map ~jobs:2 ~limits ~retry:Proc_pool.no_retry
      (fun ~attempt:_ x ->
         if x = 0 then begin
           (* Allocate into the child's rlimit: far past 128 MiB. *)
           let hoard = ref [] in
           for _ = 1 to 512 do
             hoard := Bytes.create (16 * 1024 * 1024) :: !hoard
           done;
           ignore (Sys.opaque_identity !hoard)
         end;
         x)
      [ 0; 1 ]
  in
  (match rows with
   | [ oom; healthy ] ->
     (match oom.Proc_pool.r_result with
      | Proc_pool.Died (Proc_pool.Oom_killed mib) ->
        check_int "cap recorded in the death" 128 mib
      | Proc_pool.Died d ->
        Alcotest.failf "expected an OOM death, got: %s"
          (Proc_pool.death_message d)
      | Proc_pool.Value _ -> Alcotest.fail "the allocation storm returned");
     check_int "sibling completed" 1 (List.hd (values [ healthy ]))
   | _ -> Alcotest.failf "expected 2 rows, got %d" (List.length rows));
  check_int "proc.oom" 1 (counter "proc.oom")

let test_hang_killed_on_deadline () =
  with_obs @@ fun () ->
  let limits =
    { Proc_pool.deadline_seconds = Some 1.0; max_mem_mib = None }
  in
  let started = Unix.gettimeofday () in
  let rows =
    Proc_pool.map ~jobs:2 ~limits ~retry:Proc_pool.no_retry
      (fun ~attempt:_ x ->
         if x = 0 then Unix.sleepf 3600.0;
         x)
      [ 0; 1 ]
  in
  let elapsed = Unix.gettimeofday () -. started in
  (match rows with
   | [ hung; healthy ] ->
     (match hung.Proc_pool.r_result with
      | Proc_pool.Died (Proc_pool.Hard_deadline t) ->
        check_bool "deadline recorded" true (t = 1.0)
      | Proc_pool.Died d ->
        Alcotest.failf "expected a hard-deadline death, got: %s"
          (Proc_pool.death_message d)
      | Proc_pool.Value _ -> Alcotest.fail "the hang returned");
     check_int "sibling completed" 1 (List.hd (values [ healthy ]))
   | _ -> Alcotest.failf "expected 2 rows, got %d" (List.length rows));
  check_bool
    (Printf.sprintf "SIGKILL fired within the deadline (took %.2fs)" elapsed)
    true (elapsed < 4.0);
  check_int "proc.kills" 1 (counter "proc.kills")

let test_retry_recovers_with_backoff () =
  with_obs @@ fun () ->
  let retry = { Proc_pool.max_retries = 1; backoff_base = 0.05 } in
  let rows =
    Proc_pool.map ~jobs:1 ~retry
      (fun ~attempt x ->
         if x = 0 && attempt = 0 then Unix.kill (Unix.getpid ()) Sys.sigkill;
         x + 10)
      [ 0; 1 ]
  in
  (match rows with
   | [ flaky; healthy ] ->
     check_int "flaky recovered" 10 (List.hd (values [ flaky ]));
     check_int "one retry" 1 flaky.Proc_pool.r_retries;
     check_bool "backoff recorded" true (flaky.Proc_pool.r_backoff = 0.05);
     (match flaky.Proc_pool.r_deaths with
      | [ Proc_pool.Signaled s ] ->
        check_string "first attempt died by SIGKILL" "SIGKILL"
          (Proc_pool.signal_name s)
      | _ -> Alcotest.fail "expected exactly one recorded death");
     check_int "healthy row" 11 (List.hd (values [ healthy ]));
     check_int "healthy no retries" 0 healthy.Proc_pool.r_retries
   | _ -> Alcotest.failf "expected 2 rows, got %d" (List.length rows));
  check_int "proc.retries" 1 (counter "proc.retries");
  check_bool "worker respawned" true (counter "proc.restarts" >= 1)

let test_backoff_arithmetic () =
  let policy = { Proc_pool.max_retries = 3; backoff_base = 0.1 } in
  let close msg a b = check_bool msg true (Float.abs (a -. b) < 1e-9) in
  close "attempt 0 is free" (Proc_pool.backoff_delay policy ~attempt:0) 0.0;
  close "first retry" (Proc_pool.backoff_delay policy ~attempt:1) 0.1;
  close "second doubles" (Proc_pool.backoff_delay policy ~attempt:2) 0.2;
  close "third doubles again" (Proc_pool.backoff_delay policy ~attempt:3) 0.4;
  close "total over 3 retries" (Proc_pool.total_backoff policy ~retries:3) 0.7;
  close "no-retry policy is flat"
    (Proc_pool.total_backoff Proc_pool.no_retry ~retries:0)
    0.0

(* {1 The isolated supervisor} *)

let run_isolated ?(jobs = 2) ?max_mem_mib ?(retry = Proc_pool.default_retry)
    ?budget ~seed () =
  let budget =
    Option.value budget
      ~default:{ Supervisor.timeout_seconds = Some 60.0; max_events = None }
  in
  Supervisor.with_faults ~classes:Supervisor.all_faults ~seed (fun () ->
    Supervisor.run_catalog ~jobs ~specs:specs2 ~budget ~retry
      ~mode:(Supervisor.Isolated { max_mem_mib }) ())

let test_supervised_oom_row () =
  (* Seed 43: Aard = persistent oom — both attempts die in the rlimit;
     Music is healthy and completes alongside. *)
  with_obs @@ fun () ->
  (match run_isolated ~max_mem_mib:128 ~seed:43 () with
   | [ aard; music ] ->
     (match aard with
      | Supervisor.Failed f ->
        check_string "aard app" (List.nth spec_names 0) f.Supervisor.f_app;
        check_string "aard outcome" "crashed"
          (Supervisor.reason_label f.Supervisor.f_reason);
        check_int "aard retried" 1 f.Supervisor.f_retries;
        check_bool "reason names the memory cap" true
          (Astring_contains.contains
             (Supervisor.reason_detail f.Supervisor.f_reason)
             "memory cap")
      | Supervisor.Completed _ ->
        Alcotest.fail "Aard's allocation storm completed");
     (match music with
      | Supervisor.Completed _ -> ()
      | Supervisor.Failed f ->
        Alcotest.failf "Music Player should have completed: %s"
          (Supervisor.reason_detail f.Supervisor.f_reason))
   | outcomes ->
     Alcotest.failf "expected 2 outcomes, got %d" (List.length outcomes));
  check_int "proc.oom counts both attempts" 2 (counter "proc.oom")

let test_supervised_hang_recovers () =
  (* Seed 38: Music = transient hang — the first attempt is SIGKILLed
     at the hard deadline, the retry is healthy and completes. *)
  with_obs @@ fun () ->
  let budget = { Supervisor.timeout_seconds = Some 1.5; max_events = None } in
  (match run_isolated ~budget ~seed:38 () with
   | [ aard; music ] ->
     (match aard with
      | Supervisor.Completed _ -> ()
      | Supervisor.Failed f ->
        Alcotest.failf "Aard should have completed: %s"
          (Supervisor.reason_detail f.Supervisor.f_reason));
     (match music with
      | Supervisor.Completed _ -> ()
      | Supervisor.Failed f ->
        Alcotest.failf "transient hang should recover on retry: %s"
          (Supervisor.reason_detail f.Supervisor.f_reason))
   | outcomes ->
     Alcotest.failf "expected 2 outcomes, got %d" (List.length outcomes));
  check_int "one hard kill" 1 (counter "proc.kills")

let test_supervised_hang_without_retry_times_out () =
  with_obs @@ fun () ->
  let budget = { Supervisor.timeout_seconds = Some 1.0; max_events = None } in
  let started = Unix.gettimeofday () in
  (match run_isolated ~budget ~retry:Proc_pool.no_retry ~seed:38 () with
   | [ _; music ] ->
     (match music with
      | Supervisor.Failed f ->
        check_string "hang reads as a timeout" "timeout"
          (Supervisor.reason_label f.Supervisor.f_reason);
        check_int "no retries" 0 f.Supervisor.f_retries
      | Supervisor.Completed _ ->
        Alcotest.fail "a persistent-for-one-attempt hang cannot complete \
                       without retry")
   | outcomes ->
     Alcotest.failf "expected 2 outcomes, got %d" (List.length outcomes));
  let elapsed = Unix.gettimeofday () -. started in
  check_bool
    (Printf.sprintf "the kill respected the deadline (took %.2fs)" elapsed)
    true
    (elapsed < 6.0)

(* {1 Cross-process telemetry} *)

let test_sigkill_sidecar_recovery () =
  (* A worker SIGKILLed mid-sweep cannot send its farewell frame; the
     sidecar state file it wrote after its last completed task must
     still deliver its telemetry.  jobs:1 pins both tasks to the same
     worker: task 0 bumps a counter and completes (flushing the
     sidecar), task 1 kills the process. *)
  with_obs @@ fun () ->
  let rows =
    Proc_pool.map ~jobs:1 ~retry:Proc_pool.no_retry
      (fun ~attempt:_ x ->
         Obs.add ~n:100 "sidecar.work";
         if x = 1 then Unix.kill (Unix.getpid ()) Sys.sigkill;
         x)
      [ 0; 1 ]
  in
  (match rows with
   | [ ok; killed ] ->
     check_int "task 0 completed" 0 (List.hd (values [ ok ]));
     (match killed.Proc_pool.r_result with
      | Proc_pool.Died (Proc_pool.Signaled s) ->
        check_string "task 1 died by SIGKILL" "SIGKILL"
          (Proc_pool.signal_name s)
      | _ -> Alcotest.fail "task 1 should have died")
   | _ -> Alcotest.failf "expected 2 rows, got %d" (List.length rows));
  (* Only task 0's bump is recoverable: task 1 bumped before dying, but
     its sidecar was last flushed after task 0. *)
  check_int "counter recovered from the sidecar" 100 (counter "sidecar.work");
  (* the killed worker still contributes an RSS sample *)
  match
    List.assoc_opt "proc.worker_rss_peak_kb" (Obs.snapshot ()).Obs.histograms
  with
  | Some h ->
    check_bool "RSS histogram has the killed worker" true (h.Obs.h_count >= 1);
    check_bool "RSS positive" true (h.Obs.h_min > 0.0)
  | None -> Alcotest.fail "worker RSS histogram missing"

(* A fault-free isolated sweep over the two cheapest corpus apps. *)
let run_isolated_healthy ~jobs =
  Supervisor.run_catalog ~jobs ~specs:specs2
    ~budget:{ Supervisor.timeout_seconds = Some 60.0; max_events = None }
    ~mode:(Supervisor.Isolated { max_mem_mib = None })
    ()

let test_isolated_telemetry_merged () =
  (* A healthy isolated sweep: children analyse, the parent's snapshot
     must contain their spans (pid-qualified), their counters, and one
     RSS sample per worker — and the Chrome exporter must render one
     process lane per pid. *)
  with_obs @@ fun () ->
  let outcomes = run_isolated_healthy ~jobs:2 in
  check_int "both apps have outcomes" 2 (List.length outcomes);
  check_bool "children's analysis counters merged" true
    (counter "hb.passes" > 0);
  let snap = Obs.snapshot () in
  let span_pids =
    List.sort_uniq compare (List.map (fun s -> s.Obs.sp_pid) snap.Obs.spans)
  in
  check_bool
    (Printf.sprintf "spans from parent and workers (%d pids)"
       (List.length span_pids))
    true
    (List.length span_pids >= 3);
  check_bool "parent pid among the spans" true
    (List.mem (Unix.getpid ()) span_pids);
  check_bool "child-side app spans present" true
    (List.exists
       (fun s -> s.Obs.sp_name = "supervisor.app" && s.Obs.sp_pid <> Unix.getpid ())
       snap.Obs.spans);
  check_int "process table covers every span pid"
    (List.length span_pids)
    (List.length
       (List.filter (fun (pid, _) -> List.mem pid span_pids) snap.Obs.processes));
  (match List.assoc_opt "proc.worker_rss_peak_kb" snap.Obs.histograms with
   | Some h ->
     check_bool "one RSS sample per worker" true (h.Obs.h_count >= 2);
     check_bool "worker RSS positive" true (h.Obs.h_min > 0.0)
   | None -> Alcotest.fail "worker RSS histogram missing");
  (* Chrome exporter: every X event carries a real pid, and each pid
     has a process_name metadata record. *)
  let chrome =
    match Json_parse.parse (Obs.chrome_trace_string ()) with
    | Ok v -> v
    | Error msg -> Alcotest.failf "chrome trace is not valid JSON: %s" msg
  in
  let events =
    match
      Option.bind (Json_parse.member "traceEvents" chrome) Json_parse.to_list
    with
    | Some evs -> evs
    | None -> Alcotest.fail "no traceEvents array"
  in
  let pids_of ph =
    List.sort_uniq compare
      (List.filter_map
         (fun e ->
            if Json_parse.member "ph" e = Some (Json_parse.String ph) then
              Option.bind (Json_parse.member "pid" e) Json_parse.to_number
            else None)
         events)
  in
  check_bool "one Chrome lane per process" true
    (List.length (pids_of "X") >= 3);
  let process_names =
    List.filter
      (fun e ->
         Json_parse.member "ph" e = Some (Json_parse.String "M")
         && Json_parse.member "name" e = Some (Json_parse.String "process_name"))
      events
  in
  check_int "every process lane is named"
    (List.length snap.Obs.processes)
    (List.length process_names)

let test_isolated_counters_jobs_deterministic () =
  (* Fleet-wide merged counters must not depend on how tasks landed on
     workers.  "proc.*" bookkeeping (restarts, per-worker RSS) varies
     with the worker count by design and is excluded. *)
  let sweep jobs =
    with_obs @@ fun () ->
    ignore (run_isolated_healthy ~jobs);
    List.filter
      (fun (name, _) -> not (String.starts_with ~prefix:"proc." name))
      (Obs.snapshot ()).Obs.counters
  in
  let c1 = sweep 1 in
  let c2 = sweep 2 in
  check
    (Alcotest.list (Alcotest.pair Alcotest.string Alcotest.int))
    "merged counters identical at jobs 1 and 2" c1 c2

let test_isolated_matches_cooperative () =
  (* On the cooperative fault classes the two modes must agree row for
     row, for catalog apps (seed 3: Aard persistent crash, Music
     transient crash) and for trace files (seed 3: variant-0003
     transient reject, variant-0005 persistent timeout). *)
  let budget = { Supervisor.timeout_seconds = Some 60.0; max_events = None } in
  let files = Helpers.variant_files ~count:6 () in
  let sweep mode =
    Supervisor.with_faults ~seed:3 (fun () ->
      ( List.map Helpers.app_shape
          (Supervisor.run_catalog ~jobs:2 ~specs:specs2 ~budget ~mode ())
      , List.map Helpers.file_shape
          (Supervisor.run_files ~jobs:2 ~budget ~mode files) ))
  in
  (* The isolated sweeps must run first: OCaml 5 refuses [fork] once
     any domain has ever been spawned, and the cooperative sweeps spawn
     pool domains. *)
  let isolated_apps, isolated_files =
    sweep (Supervisor.Isolated { max_mem_mib = None })
  in
  let cooperative_apps, cooperative_files = sweep Supervisor.Cooperative in
  check (Alcotest.list Alcotest.string) "apps: isolated = cooperative"
    cooperative_apps isolated_apps;
  check (Alcotest.list Alcotest.string) "files: isolated = cooperative"
    cooperative_files isolated_files

let () =
  Alcotest.run "proc_isolation"
    [ ( "pool"
      , [ Alcotest.test_case "map preserves order" `Quick test_map_order
        ; Alcotest.test_case "segfault contained" `Quick
            test_segfault_contained
        ; Alcotest.test_case "oom contained by rlimit" `Quick
            test_oom_contained
        ; Alcotest.test_case "hang killed on deadline" `Quick
            test_hang_killed_on_deadline
        ; Alcotest.test_case "retry recovers with backoff" `Quick
            test_retry_recovers_with_backoff
        ; Alcotest.test_case "backoff arithmetic" `Quick
            test_backoff_arithmetic
        ] )
    ; ( "isolated supervisor"
      , [ Alcotest.test_case "oom fault becomes a failure row" `Slow
            test_supervised_oom_row
        ; Alcotest.test_case "transient hang recovers via hard kill" `Slow
            test_supervised_hang_recovers
        ; Alcotest.test_case "persistent hang times out within budget" `Slow
            test_supervised_hang_without_retry_times_out
        ] )
      (* [test_isolated_matches_cooperative] spawns pool domains, after
         which OCaml 5 refuses [fork]: every forking test must run in a
         suite registered before it. *)
    ; ( "cross-process telemetry"
      , [ Alcotest.test_case "SIGKILL sidecar recovery" `Quick
            test_sigkill_sidecar_recovery
        ; Alcotest.test_case "worker telemetry merged" `Slow
            test_isolated_telemetry_merged
        ; Alcotest.test_case "merged counters jobs-deterministic" `Slow
            test_isolated_counters_jobs_deterministic
        ] )
    ; ( "modes"
      , [ Alcotest.test_case "isolated matches cooperative rows" `Slow
            test_isolated_matches_cooperative
        ] )
    ]
