open! Import

(* {1 Budgets} *)

type budget =
  { timeout_seconds : float option
  ; max_events : int option
  }

let no_budget = { timeout_seconds = None; max_events = None }

(* {1 Outcomes} *)

type reason =
  | Rejected of string
  | Crashed of string
  | Timed_out of float

let reason_label = function
  | Rejected _ -> "rejected"
  | Crashed _ -> "crashed"
  | Timed_out _ -> "timeout"

let reason_detail = function
  | Rejected msg | Crashed msg -> msg
  | Timed_out t -> Printf.sprintf "wall-clock budget of %gs exceeded" t

type failure =
  { f_app : string
  ; f_reason : reason
  ; f_engine : string
  ; f_elapsed : float
  ; f_retries : int
  ; f_backoff : float
  }

(* An attempt failure carries the closure engine the attempt ran (or
   would have run) under, so the fallback decision survives the trip
   back from an isolated worker — the row is marshalled, a worker-side
   counter would not. *)
type attempt_error =
  { ae_reason : reason
  ; ae_engine : string
  }

let configured_engine config =
  Happens_before.closure_engine_name
    config.Detector.hb.Happens_before.closure

type outcome =
  | Completed of Experiments.app_run
  | Failed of failure

let completed outcomes =
  List.filter_map
    (function Completed r -> Some r | Failed _ -> None)
    outcomes

let failures outcomes =
  List.filter_map (function Failed f -> Some f | Completed _ -> None) outcomes

let failure_table fs =
  let table =
    Table.create ~title:"Supervisor: applications that did not complete"
      ~columns:
        [ "Application"
        ; "Outcome"
        ; "Reason"
        ; "Engine"
        ; "Elapsed"
        ; "Retries"
        ; "Backoff"
        ]
  in
  List.iter
    (fun f ->
       Table.add_row table
         [ f.f_app
         ; reason_label f.f_reason
         ; reason_detail f.f_reason
         ; f.f_engine
         ; Printf.sprintf "%.3fs" f.f_elapsed
         ; string_of_int f.f_retries
         ; Printf.sprintf "%.3fs" f.f_backoff
         ])
    fs;
  table

let failures_json_string fs =
  let buf = Buffer.create 256 in
  Buffer.add_string buf "{\"schema\":\"droidracer-failures/1\",\"failures\":[";
  List.iteri
    (fun i f ->
       if i > 0 then Buffer.add_char buf ',';
       Printf.bprintf buf
         "{\"app\":\"%s\",\"outcome\":\"%s\",\"reason\":\"%s\",\"engine\":\"%s\",\"elapsed_seconds\":%.6f,\"retries\":%d,\"backoff_seconds\":%.6f}"
         (Json.escape f.f_app)
         (reason_label f.f_reason)
         (Json.escape (reason_detail f.f_reason))
         (Json.escape f.f_engine)
         f.f_elapsed f.f_retries f.f_backoff)
    fs;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf

(* {1 Fault injection}

   The plan must be a pure function of (seed, application name): the
   same rows come out for jobs = 1 and jobs = 4, and a test can predict
   every outcome without running the sweep.  [Hashtbl.hash] is not
   guaranteed stable across compiler versions, so the mix is spelled
   out (FNV-1a). *)

type fault =
  | Parse_fault
  | Reject_fault
  | Crash_fault
  | Timeout_fault
  | Oom_fault
  | Hang_fault

let fault_name = function
  | Parse_fault -> "parse"
  | Reject_fault -> "reject"
  | Crash_fault -> "crash"
  | Timeout_fault -> "timeout"
  | Oom_fault -> "oom"
  | Hang_fault -> "hang"

(* The original four classes, in their original positions: under
   [basic_faults] the plan is bit-identical to the one every pinned seed
   in the tests and CI was computed against. *)
let basic_faults = [ Parse_fault; Reject_fault; Crash_fault; Timeout_fault ]

let all_faults = basic_faults @ [ Oom_fault; Hang_fault ]

type decision =
  { d_fault : fault option
  ; d_transient : bool
  }

let fnv1a seed app =
  let h = ref 0x811c9dc5 in
  let feed byte =
    h := (!h lxor byte) * 0x01000193 land 0x3FFFFFFF
  in
  feed (seed land 0xff);
  feed ((seed asr 8) land 0xff);
  feed ((seed asr 16) land 0xff);
  feed ((seed asr 24) land 0xff);
  String.iter (fun c -> feed (Char.code c)) app;
  !h

let fault_decision ?(classes = basic_faults) ~seed ~app () =
  let h = fnv1a seed app in
  if classes = [] || h mod 3 <> 0 then { d_fault = None; d_transient = false }
  else begin
    let k = List.length classes in
    let fault = List.nth classes (h / 3 mod k) in
    { d_fault = Some fault; d_transient = h / (3 * k) mod 2 = 0 }
  end

(* The installed plan, visible to every worker domain (and, by fork, to
   every isolated worker process). *)
let fault_plan : (int * fault list) option Atomic.t = Atomic.make None

let with_faults ?(classes = basic_faults) ~seed f =
  Atomic.set fault_plan (Some (seed, classes));
  Fun.protect ~finally:(fun () -> Atomic.set fault_plan None) f

(* {1 The supervised pipeline} *)

exception Rejected_exn of string
exception Timed_out_exn of float

let injected cls ~attempt name =
  match Atomic.get fault_plan with
  | None -> false
  | Some (seed, classes) ->
    let d = fault_decision ~classes ~seed ~app:name () in
    (match d.d_fault with
     | Some f when f = cls -> (not d.d_transient) || attempt = 0
     | Some _ | None -> false)

(* Analyses run inside the calling domain, so the wall-clock budget is
   cooperative: the deadline is checked between pipeline phases, never
   preemptively. *)
let checkpoint ~deadline =
  match deadline with
  | Some (d, t) when Unix.gettimeofday () > d -> raise (Timed_out_exn t)
  | Some _ | None -> ()

(* The two non-cooperative fault classes.  Inside an isolated worker
   they misbehave for real — the allocation storm runs into the child's
   rlimit and the hang never reaches a checkpoint, so containment is
   exercised end to end.  In the cooperative (in-process) supervisor
   they stay survivable: the storm is simulated by raising directly
   (genuinely exhausting memory would take the whole sweep down, which
   is the point of --isolate), and the hang polls the cooperative
   deadline. *)

let trigger_oom () =
  if Proc_pool.in_worker () then begin
    let hoard = ref [] in
    (* Bounded so an uncapped worker cannot eat the host; any realistic
       --max-mem trips the rlimit long before 8 GiB. *)
    for _ = 1 to 512 do
      hoard := Bytes.create (16 * 1024 * 1024) :: !hoard
    done;
    ignore (Sys.opaque_identity !hoard)
  end;
  raise Out_of_memory

let hang ~deadline =
  if Proc_pool.in_worker () then
    let rec spin () =
      Unix.sleepf 3600.0;
      spin ()
    in
    spin ()
  else
    let rec spin () =
      checkpoint ~deadline;
      Unix.sleepf 0.05;
      spin ()
    in
    spin ()

(* Over the event budget the analysis degrades instead of refusing.
   Moderately over (events <= 10x the cap) the sparse worklist engine
   computes the identical relation with far less re-scanning; an order
   of magnitude over, even the worklist matrices do not fit, so the
   single-pass streaming engine takes over (a sound under-approximation
   — see Streaming_engine).  Each edge of the chain has its own Obs
   counter so a sweep's report says not just that fallbacks happened
   but which ones. *)
let budgeted_config ~budget ~events config =
  let with_closure closure =
    { config with
      Detector.hb = { config.Detector.hb with Happens_before.closure }
    }
  in
  let fall edge target =
    Obs.add ("supervisor.fallbacks." ^ edge);
    Obs.set_span_arg "closure_fallback"
      (Happens_before.closure_engine_name target);
    with_closure target
  in
  match budget.max_events with
  | Some cap when events > cap -> begin
    let far_over = events > 10 * cap in
    match config.Detector.hb.Happens_before.closure with
    | Happens_before.Dense when far_over ->
      fall "dense_streaming" Happens_before.Streaming
    | Happens_before.Dense -> fall "dense_worklist" Happens_before.Worklist
    | Happens_before.Worklist when far_over ->
      fall "worklist_streaming" Happens_before.Streaming
    | Happens_before.Worklist | Happens_before.Streaming -> config
  end
  | _ -> config

let validate_observed name trace =
  match Obs.with_span "supervisor.validate" (fun () -> Wellformed.check trace) with
  | Ok _stats -> ()
  | Error e ->
    raise
      (Rejected_exn
         (Printf.sprintf "%s: observed trace rejected: %s" name
            (Wellformed.error_message e)))

let attempt_app ~engine ~config ~budget ~attempt spec =
  let name = spec.Synthetic.s_name in
  Obs.with_span "supervisor.app"
    ~args:[ ("app", name); ("attempt", string_of_int attempt) ]
  @@ fun () ->
  let deadline =
    Option.map
      (fun t -> (Unix.gettimeofday () +. t, t))
      budget.timeout_seconds
  in
  if injected Timeout_fault ~attempt name then
    raise
      (Timed_out_exn (Option.value budget.timeout_seconds ~default:0.0));
  if injected Oom_fault ~attempt name then trigger_oom ();
  if injected Hang_fault ~attempt name then hang ~deadline;
  if injected Parse_fault ~attempt name then
    raise
      (Rejected_exn
         (Printf.sprintf "%s: %s" name
            (Trace_io.parse_error_message
               { Trace_io.pe_line = 1
               ; pe_column = 1
               ; pe_token = Some "\xffinjected"
               ; pe_message = "injected parse fault: expected a thread id like t0"
               })));
  let built = Obs.with_span "supervisor.build" (fun () -> Synthetic.build spec) in
  checkpoint ~deadline;
  let result =
    Obs.with_span "supervisor.run" (fun () ->
      Runtime.run ~options:built.Synthetic.b_options built.Synthetic.b_app
        built.Synthetic.b_events)
  in
  checkpoint ~deadline;
  let observed = result.Runtime.observed in
  if injected Reject_fault ~attempt name then
    raise
      (Rejected_exn
         (Printf.sprintf
            "%s: observed trace rejected: line 1: [fifo-violation] injected \
             validator reject"
            name));
  validate_observed name observed;
  checkpoint ~deadline;
  let config = budgeted_config ~budget ~events:(Trace.length observed) config in
  engine := configured_engine config;
  if injected Crash_fault ~attempt name then
    failwith "injected task exception";
  let report =
    Obs.with_span "supervisor.analyze" (fun () ->
      Detector.analyze ~config observed)
  in
  checkpoint ~deadline;
  { Experiments.ar_built = built; ar_result = result; ar_report = report }

(* One attempt, classified.  [Out_of_memory] and [Stack_overflow] are
   deliberately NOT captured here: containment for those belongs to the
   process layer (the isolated child exits with a dedicated status), so
   they must escape the classifier.  The cooperative wrapper in
   {!run_app} catches them one level up instead. *)
let attempt_result ~config ~budget ~attempt spec =
  let engine = ref (configured_engine config) in
  let err reason = Error { ae_reason = reason; ae_engine = !engine } in
  match attempt_app ~engine ~config ~budget ~attempt spec with
  | run -> Ok run
  | exception Rejected_exn msg ->
    Obs.add "ingest.rejected";
    err (Rejected msg)
  | exception Timed_out_exn t ->
    Obs.add "supervisor.timeouts";
    err (Timed_out t)
  | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
  | exception exn -> err (Crashed (Printexc.to_string exn))

let retryable = function
  | Rejected _ ->
    (* Rejection is a verdict about the input, which a retry cannot
       change; crashes and timeouts may be environmental. *)
    false
  | Crashed _ | Timed_out _ -> true

let run_app ?(config = Detector.default_config) ?(budget = no_budget)
    ?(retry = Proc_pool.default_retry) spec =
  let name = spec.Synthetic.s_name in
  let started = Unix.gettimeofday () in
  let once attempt =
    match attempt_result ~config ~budget ~attempt spec with
    | r -> r
    | exception Out_of_memory ->
      Error
        { ae_reason = Crashed "out of memory"
        ; ae_engine = configured_engine config
        }
    | exception Stack_overflow ->
      Error
        { ae_reason = Crashed "stack overflow"
        ; ae_engine = configured_engine config
        }
  in
  let fail ae retries backoff =
    Failed
      { f_app = name
      ; f_reason = ae.ae_reason
      ; f_engine = ae.ae_engine
      ; f_elapsed = Unix.gettimeofday () -. started
      ; f_retries = retries
      ; f_backoff = backoff
      }
  in
  let rec go attempt backoff =
    match once attempt with
    | Ok run -> Completed run
    | Error ae ->
      if retryable ae.ae_reason && attempt < retry.Proc_pool.max_retries
      then begin
        Obs.add "supervisor.retries";
        let delay = Proc_pool.backoff_delay retry ~attempt:(attempt + 1) in
        if delay > 0.0 then Unix.sleepf delay;
        go (attempt + 1) (backoff +. delay)
      end
      else fail ae attempt backoff
  in
  go 0 0.0

(* {1 Catalog sweeps} *)

type mode =
  | Cooperative
  | Isolated of { max_mem_mib : int option }

let reason_of_death death =
  match death with
  | Proc_pool.Hard_deadline t -> Timed_out t
  | d -> Crashed (Proc_pool.death_message d)

let outcome_of_row ~engine spec (row : _ Proc_pool.row) =
  match row.Proc_pool.r_result with
  | Proc_pool.Value (Ok run) -> Completed run
  | Proc_pool.Value (Error ae) ->
    Failed
      { f_app = spec.Synthetic.s_name
      ; f_reason = ae.ae_reason
      ; f_engine = ae.ae_engine
      ; f_elapsed = row.Proc_pool.r_elapsed
      ; f_retries = row.Proc_pool.r_retries
      ; f_backoff = row.Proc_pool.r_backoff
      }
  | Proc_pool.Died death ->
    (* A dead worker reports nothing, so the best attribution is the
       engine the sweep was configured with. *)
    Failed
      { f_app = spec.Synthetic.s_name
      ; f_reason = reason_of_death death
      ; f_engine = engine
      ; f_elapsed = row.Proc_pool.r_elapsed
      ; f_retries = row.Proc_pool.r_retries
      ; f_backoff = row.Proc_pool.r_backoff
      }

let record_outcome journal ~app outcome =
  match journal with
  | None -> ()
  | Some j ->
    Journal.append j ~app
      ~payload:(Marshal.to_string (outcome : outcome) [ Marshal.Closures ])

(* Outcomes already journalled by an interrupted sweep; replayed instead
   of re-run.  The journal layer has already discarded records from a
   different binary, so unmarshalling (closures included) is safe. *)
let journalled_outcomes journal =
  match journal with
  | None -> Hashtbl.create 0
  | Some j ->
    let table = Hashtbl.create 16 in
    List.iter
      (fun (app, payload) ->
         match (Marshal.from_string payload 0 : outcome) with
         | outcome ->
           if not (Hashtbl.mem table app) then Hashtbl.add table app outcome
         | exception _ -> ())
      (Journal.prior j);
    table

(* One progress record per finished app, whatever substrate finished
   it.  Completed rows report the observed event count and the
   analysis wall time; failures report the failure label and the
   engine the attempt was using. *)
let report_progress progress ?(resumed = false) ~engine spec outcome =
  match progress with
  | None -> ()
  | Some p ->
    let app = spec.Synthetic.s_name in
    (match outcome with
     | Completed run ->
       (* Completed runs are attributed to the engine the sweep was
          configured with — the same rule [outcome_of_row] applies to
          dead workers; failures carry their own attribution. *)
       Progress.app_done p ~app ~outcome:"completed" ~engine
         ~events:(Trace.length run.Experiments.ar_result.Runtime.observed)
         ~elapsed_seconds:run.Experiments.ar_report.Detector.elapsed_seconds
         ~resumed ()
     | Failed f ->
       Progress.app_done p ~app ~outcome:(reason_label f.f_reason)
         ~engine:f.f_engine ~events:0 ~elapsed_seconds:f.f_elapsed ~resumed ())

let run_catalog ?(jobs = 1) ?(specs = Catalog.all)
    ?(config = Detector.default_config) ?(budget = no_budget)
    ?(retry = Proc_pool.default_retry) ?(mode = Cooperative) ?journal
    ?progress () =
  Obs.with_span "supervisor.catalog" @@ fun () ->
  let prior = journalled_outcomes journal in
  let resumed name = Hashtbl.find_opt prior name in
  let to_run =
    List.filter
      (fun spec -> resumed spec.Synthetic.s_name = None)
      specs
  in
  let n_resumed = List.length specs - List.length to_run in
  if n_resumed > 0 then Obs.add ~n:n_resumed "journal.resumed";
  let engine = configured_engine config in
  List.iter
    (fun spec ->
       match resumed spec.Synthetic.s_name with
       | Some outcome ->
         report_progress progress ~resumed:true ~engine spec outcome
       | None -> ())
    specs;
  let fresh = Hashtbl.create 16 in
  let record spec outcome =
    record_outcome journal ~app:spec.Synthetic.s_name outcome;
    report_progress progress ~engine spec outcome
  in
  (match mode with
   | Cooperative ->
     (* The journal append is mutex-protected, so recording from worker
        domains as each app finishes is safe — and is what bounds the
        loss of a killed sweep to the apps still in flight. *)
     List.iter2
       (fun spec outcome -> Hashtbl.replace fresh spec.Synthetic.s_name outcome)
       to_run
       (Par_pool.parallel_map ~jobs
          (fun spec ->
             let outcome = run_app ~config ~budget ~retry spec in
             record spec outcome;
             outcome)
          to_run)
   | Isolated { max_mem_mib } ->
     let specs_arr = Array.of_list to_run in
     let limits =
       { Proc_pool.deadline_seconds = budget.timeout_seconds; max_mem_mib }
     in
     let rows =
       Proc_pool.map ~jobs ~limits ~retry
         ~should_retry:(function
           | Ok _ -> false
           | Error ae -> retryable ae.ae_reason)
         ~on_row:(fun idx row ->
           record specs_arr.(idx) (outcome_of_row ~engine specs_arr.(idx) row))
         (fun ~attempt spec -> attempt_result ~config ~budget ~attempt spec)
         to_run
     in
     List.iteri
       (fun idx row ->
          Hashtbl.replace fresh specs_arr.(idx).Synthetic.s_name
            (outcome_of_row ~engine specs_arr.(idx) row))
       rows);
  (* In isolated mode the worker telemetry has been drained by now, so
     the summary record's fallback counts are fleet-wide. *)
  (match progress with Some p -> Progress.finish p | None -> ());
  List.map
    (fun spec ->
       let name = spec.Synthetic.s_name in
       match resumed name with
       | Some outcome -> outcome
       | None ->
         (match Hashtbl.find_opt fresh name with
          | Some outcome -> outcome
          | None -> assert false))
    specs

let analyze ?(config = Detector.default_config) ?(jobs = 1)
    ?(budget = no_budget) ~name trace =
  let started = Unix.gettimeofday () in
  let engine = ref (configured_engine config) in
  let fail reason =
    Error
      { f_app = name
      ; f_reason = reason
      ; f_engine = !engine
      ; f_elapsed = Unix.gettimeofday () -. started
      ; f_retries = 0
      ; f_backoff = 0.0
      }
  in
  match
    Obs.with_span "supervisor.analyze_one" ~args:[ ("name", name) ]
    @@ fun () ->
    let deadline =
      Option.map
        (fun t -> (Unix.gettimeofday () +. t, t))
        budget.timeout_seconds
    in
    validate_observed name trace;
    checkpoint ~deadline;
    let config = budgeted_config ~budget ~events:(Trace.length trace) config in
    engine := configured_engine config;
    let report = Detector.analyze ~config ~jobs trace in
    checkpoint ~deadline;
    report
  with
  | report -> Ok report
  | exception Rejected_exn msg ->
    Obs.add "ingest.rejected";
    fail (Rejected msg)
  | exception Timed_out_exn t ->
    Obs.add "supervisor.timeouts";
    fail (Timed_out t)
  | exception exn -> fail (Crashed (Printexc.to_string exn))

(* {1 Trace-file sweeps} *)

type file_report =
  { fr_file : string
  ; fr_name : string
  ; fr_events : int
  ; fr_races : int
  ; fr_distinct : int
  ; fr_engine : string
  ; fr_elapsed : float
  ; fr_locations : string list
  }

type file_outcome =
  | File_completed of file_report
  | File_failed of failure

(* The sweep key: basename without extension, so a binary sweep of
   variant-0000.drt and a text sweep of variant-0000.trace journal and
   report under the same name — which is what lets a corpus gate diff
   the two race tables row by row. *)
let file_key path = Filename.remove_extension (Filename.basename path)

(* The file analogue of [attempt_app]: load (either trace format — the
   loader sniffs the magic), validate, analyze.  The same injected
   faults apply, keyed by the sweep name, so the degradation paths of a
   file sweep are exactly as testable as a catalog sweep's. *)
let attempt_file ?(jobs = 1) ~engine ~config ~budget ~attempt path =
  let name = file_key path in
  Obs.with_span "supervisor.file"
    ~args:[ ("file", name); ("attempt", string_of_int attempt) ]
  @@ fun () ->
  let deadline =
    Option.map
      (fun t -> (Unix.gettimeofday () +. t, t))
      budget.timeout_seconds
  in
  if injected Timeout_fault ~attempt name then
    raise
      (Timed_out_exn (Option.value budget.timeout_seconds ~default:0.0));
  if injected Oom_fault ~attempt name then trigger_oom ();
  if injected Hang_fault ~attempt name then hang ~deadline;
  if injected Parse_fault ~attempt name then
    raise
      (Rejected_exn
         (Printf.sprintf "%s: %s" name
            (Trace_io.parse_error_message
               { Trace_io.pe_line = 1
               ; pe_column = 1
               ; pe_token = Some "\xffinjected"
               ; pe_message = "injected parse fault: expected a thread id like t0"
               })));
  let trace =
    match Obs.with_span "supervisor.load" (fun () -> Trace_io.load path) with
    | Ok trace -> trace
    | Error msg -> raise (Rejected_exn (Printf.sprintf "%s: %s" name msg))
  in
  checkpoint ~deadline;
  if injected Reject_fault ~attempt name then
    raise
      (Rejected_exn
         (Printf.sprintf
            "%s: observed trace rejected: line 1: [fifo-violation] injected \
             validator reject"
            name));
  validate_observed name trace;
  checkpoint ~deadline;
  let config = budgeted_config ~budget ~events:(Trace.length trace) config in
  engine := configured_engine config;
  if injected Crash_fault ~attempt name then
    failwith "injected task exception";
  let report =
    Obs.with_span "supervisor.analyze" (fun () ->
      Detector.analyze ~config ~jobs trace)
  in
  checkpoint ~deadline;
  let locations =
    List.sort_uniq String.compare
      (List.map
         (fun classified ->
            Ident.Location.to_string (Race.location classified.Detector.race))
         report.Detector.all_races)
  in
  { fr_file = path
  ; fr_name = name
  ; fr_events = Trace.length trace
  ; fr_races = List.length report.Detector.all_races
  ; fr_distinct = List.length report.Detector.distinct_races
  ; fr_engine = !engine
  ; fr_elapsed = report.Detector.elapsed_seconds
  ; fr_locations = locations
  }

let attempt_file_result ?jobs ~config ~budget ~attempt path =
  let engine = ref (configured_engine config) in
  let err reason = Error { ae_reason = reason; ae_engine = !engine } in
  match attempt_file ?jobs ~engine ~config ~budget ~attempt path with
  | report -> Ok report
  | exception Rejected_exn msg ->
    Obs.add "ingest.rejected";
    err (Rejected msg)
  | exception Timed_out_exn t ->
    Obs.add "supervisor.timeouts";
    err (Timed_out t)
  | exception ((Out_of_memory | Stack_overflow) as e) -> raise e
  | exception exn -> err (Crashed (Printexc.to_string exn))

let run_file ?jobs ?(config = Detector.default_config) ?(budget = no_budget)
    ?(retry = Proc_pool.default_retry) path =
  let name = file_key path in
  let started = Unix.gettimeofday () in
  let once attempt =
    match attempt_file_result ?jobs ~config ~budget ~attempt path with
    | r -> r
    | exception Out_of_memory ->
      Error
        { ae_reason = Crashed "out of memory"
        ; ae_engine = configured_engine config
        }
    | exception Stack_overflow ->
      Error
        { ae_reason = Crashed "stack overflow"
        ; ae_engine = configured_engine config
        }
  in
  let fail ae retries backoff =
    File_failed
      { f_app = name
      ; f_reason = ae.ae_reason
      ; f_engine = ae.ae_engine
      ; f_elapsed = Unix.gettimeofday () -. started
      ; f_retries = retries
      ; f_backoff = backoff
      }
  in
  let rec go attempt backoff =
    match once attempt with
    | Ok report -> File_completed report
    | Error ae ->
      if retryable ae.ae_reason && attempt < retry.Proc_pool.max_retries
      then begin
        Obs.add "supervisor.retries";
        let delay = Proc_pool.backoff_delay retry ~attempt:(attempt + 1) in
        if delay > 0.0 then Unix.sleepf delay;
        go (attempt + 1) (backoff +. delay)
      end
      else fail ae attempt backoff
  in
  go 0 0.0

let file_outcome_of_row ~engine path (row : _ Proc_pool.row) =
  match row.Proc_pool.r_result with
  | Proc_pool.Value (Ok report) -> File_completed report
  | Proc_pool.Value (Error ae) ->
    File_failed
      { f_app = file_key path
      ; f_reason = ae.ae_reason
      ; f_engine = ae.ae_engine
      ; f_elapsed = row.Proc_pool.r_elapsed
      ; f_retries = row.Proc_pool.r_retries
      ; f_backoff = row.Proc_pool.r_backoff
      }
  | Proc_pool.Died death ->
    File_failed
      { f_app = file_key path
      ; f_reason = reason_of_death death
      ; f_engine = engine
      ; f_elapsed = row.Proc_pool.r_elapsed
      ; f_retries = row.Proc_pool.r_retries
      ; f_backoff = row.Proc_pool.r_backoff
      }

(* File outcomes are plain data — no closures to marshal, unlike app
   outcomes, whose reports can capture classifier functions. *)
let record_file_outcome journal ~app outcome =
  match journal with
  | None -> ()
  | Some j ->
    Journal.append j ~app
      ~payload:(Marshal.to_string (outcome : file_outcome) [])

let journalled_file_outcomes journal =
  match journal with
  | None -> Hashtbl.create 0
  | Some j ->
    let table = Hashtbl.create 16 in
    List.iter
      (fun (app, payload) ->
         match (Marshal.from_string payload 0 : file_outcome) with
         | outcome ->
           if not (Hashtbl.mem table app) then Hashtbl.add table app outcome
         | exception _ -> ())
      (Journal.prior j);
    table

(* Unlike catalog rows, completed file rows carry their own engine
   attribution ([fr_engine], budget fallbacks applied), so no sweep-wide
   engine is threaded through here. *)
let report_file_progress progress ?(resumed = false) outcome =
  match progress with
  | None -> ()
  | Some p ->
    (match outcome with
     | File_completed r ->
       Progress.app_done p ~app:r.fr_name ~outcome:"completed"
         ~engine:r.fr_engine ~events:r.fr_events
         ~elapsed_seconds:r.fr_elapsed ~resumed ()
     | File_failed f ->
       Progress.app_done p ~app:f.f_app ~outcome:(reason_label f.f_reason)
         ~engine:f.f_engine ~events:0 ~elapsed_seconds:f.f_elapsed ~resumed ())

let run_files ?(jobs = 1) ?(config = Detector.default_config)
    ?(budget = no_budget) ?(retry = Proc_pool.default_retry)
    ?(mode = Cooperative) ?journal ?progress paths =
  Obs.with_span "supervisor.files" @@ fun () ->
  let prior = journalled_file_outcomes journal in
  let resumed path = Hashtbl.find_opt prior (file_key path) in
  let to_run = List.filter (fun path -> resumed path = None) paths in
  let n_resumed = List.length paths - List.length to_run in
  if n_resumed > 0 then Obs.add ~n:n_resumed "journal.resumed";
  let engine = configured_engine config in
  List.iter
    (fun path ->
       match resumed path with
       | Some outcome -> report_file_progress progress ~resumed:true outcome
       | None -> ())
    paths;
  let fresh = Hashtbl.create 16 in
  let record path outcome =
    record_file_outcome journal ~app:(file_key path) outcome;
    report_file_progress progress outcome
  in
  (match mode with
   | Cooperative ->
     List.iter2
       (fun path outcome -> Hashtbl.replace fresh (file_key path) outcome)
       to_run
       (Par_pool.parallel_map ~jobs
          (fun path ->
             let outcome = run_file ~config ~budget ~retry path in
             record path outcome;
             outcome)
          to_run)
   | Isolated { max_mem_mib } ->
     let paths_arr = Array.of_list to_run in
     let limits =
       { Proc_pool.deadline_seconds = budget.timeout_seconds; max_mem_mib }
     in
     let rows =
       Proc_pool.map ~jobs ~limits ~retry
         ~should_retry:(function
           | Ok _ -> false
           | Error ae -> retryable ae.ae_reason)
         ~on_row:(fun idx row ->
           record paths_arr.(idx)
             (file_outcome_of_row ~engine paths_arr.(idx) row))
         (fun ~attempt path -> attempt_file_result ~config ~budget ~attempt path)
         to_run
     in
     List.iteri
       (fun idx row ->
          Hashtbl.replace fresh
            (file_key paths_arr.(idx))
            (file_outcome_of_row ~engine paths_arr.(idx) row))
       rows);
  (match progress with Some p -> Progress.finish p | None -> ());
  List.map
    (fun path ->
       match resumed path with
       | Some outcome -> outcome
       | None ->
         (match Hashtbl.find_opt fresh (file_key path) with
          | Some outcome -> outcome
          | None -> assert false))
    paths

let file_completed outcomes =
  List.filter_map
    (function File_completed r -> Some r | File_failed _ -> None)
    outcomes

let file_failures outcomes =
  List.filter_map
    (function File_failed f -> Some f | File_completed _ -> None)
    outcomes

let file_table reports =
  let table =
    Table.create ~title:"Corpus sweep: trace files"
      ~columns:[ "File"; "Events"; "Races"; "Distinct"; "Engine"; "Elapsed" ]
  in
  List.iter
    (fun r ->
       Table.add_row table
         [ r.fr_name
         ; string_of_int r.fr_events
         ; string_of_int r.fr_races
         ; string_of_int r.fr_distinct
         ; r.fr_engine
         ; Printf.sprintf "%.3fs" r.fr_elapsed
         ])
    reports;
  table

(* The race-table artefact of a file sweep.  [name] deliberately strips
   the extension so a binary sweep and a text sweep of the same corpus
   differ only in [file] (and timings) — the corpus gate's equality
   check relies on that. *)
let files_json_string outcomes =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "{\"schema\":\"droidracer-races/1\",\"files\":[";
  List.iteri
    (fun i outcome ->
       if i > 0 then Buffer.add_char buf ',';
       match outcome with
       | File_completed r ->
         Printf.bprintf buf
           "{\"name\":\"%s\",\"file\":\"%s\",\"status\":\"completed\",\"events\":%d,\"races\":%d,\"distinct_races\":%d,\"engine\":\"%s\",\"elapsed_seconds\":%.6f,\"locations\":["
           (Json.escape r.fr_name) (Json.escape r.fr_file) r.fr_events
           r.fr_races r.fr_distinct (Json.escape r.fr_engine) r.fr_elapsed;
         List.iteri
           (fun j loc ->
              if j > 0 then Buffer.add_char buf ',';
              Printf.bprintf buf "\"%s\"" (Json.escape loc))
           r.fr_locations;
         Buffer.add_string buf "]}"
       | File_failed f ->
         Printf.bprintf buf
           "{\"name\":\"%s\",\"status\":\"%s\",\"reason\":\"%s\",\"engine\":\"%s\",\"elapsed_seconds\":%.6f,\"retries\":%d}"
           (Json.escape f.f_app)
           (reason_label f.f_reason)
           (Json.escape (reason_detail f.f_reason))
           (Json.escape f.f_engine) f.f_elapsed f.f_retries)
    outcomes;
  Buffer.add_string buf "]}\n";
  Buffer.contents buf
