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

(* An attempt failure carries the engine the attempt ran (or would
   have run) under, so the fallback decision survives the trip back
   from an isolated worker — the row is marshalled, a worker-side
   counter would not. *)
type attempt_error =
  { ae_reason : reason
  ; ae_engine : string
  }

let configured_engine config = Detector.engine_name config.Detector.engine

type 'r sweep_outcome =
  | Completed of 'r
  | Failed of failure

type outcome = Experiments.app_run sweep_outcome

let completed outcomes =
  List.filter_map (function Completed r -> Some r | Failed _ -> None) outcomes

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

(* The fields a failure row shares between the failures and race
   tables, after its name. *)
let failure_fields ~outcome_key f =
  [ (outcome_key, Json.String (reason_label f.f_reason))
  ; ("reason", Json.String (reason_detail f.f_reason))
  ; ("engine", Json.String f.f_engine)
  ; ("elapsed_seconds", Json.Number f.f_elapsed)
  ; ("retries", Json.int f.f_retries)
  ]

let failures_json_string fs =
  Json.to_line
    (Json.Object
       [ ("schema", Json.String "droidracer-failures/1")
       ; ( "failures"
         , Json.Array
             (List.map
                (fun f ->
                   Json.Object
                     ((("app", Json.String f.f_app)
                       :: failure_fields ~outcome_key:"outcome" f)
                      @ [ ("backoff_seconds", Json.Number f.f_backoff) ]))
                fs) )
       ])

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
   Within 10x of the cap the dense engine still runs; an order of
   magnitude over, its matrices do not fit, so the single-pass
   streaming engine takes over (a sound under-approximation — see
   Streaming_engine).  The fallback has its own Obs counter, so a
   sweep's report says that it happened. *)
let budgeted_config ~budget ~events config =
  match budget.max_events, config.Detector.engine with
  | Some cap, Detector.Dense when events > 10 * cap ->
    Obs.add "supervisor.fallbacks.dense_streaming";
    Obs.set_span_arg "closure_fallback"
      (Detector.engine_name Detector.Streaming);
    { config with Detector.engine = Detector.Streaming }
  | (Some _ | None), (Detector.Dense | Detector.Streaming) -> config

let validate_observed name trace =
  match Obs.with_span "supervisor.validate" (fun () -> Wellformed.check trace) with
  | Ok _stats -> ()
  | Error e ->
    raise
      (Rejected_exn
         (Printf.sprintf "%s: observed trace rejected: %s" name
            (Wellformed.error_message e)))

(* A job kind: what differs between supervising a catalog app, a trace
   file and a single in-memory trace.  [k_load] produces the trace to
   analyse (raising [Rejected_exn] when there is none) together with
   what to keep of the finished analysis, given the engine that ran;
   [checkpoint] lets a multi-phase load honour the deadline. *)
type ('i, 'r) kind =
  { k_span : string
  ; k_arg : string  (** the span argument naming the item *)
  ; k_name : 'i -> string  (** journal key, fault-plan key, row name *)
  ; k_load :
      'i ->
      checkpoint:(unit -> unit) ->
      Trace.t * (engine:string -> Detector.report -> 'r)
  }

(* One attempt: the injected faults in plan order around load →
   validate → budget → analyze.  [engine] is updated once the budget
   has picked the engine, so a failure after that point is attributed
   to the engine that was about to run. *)
let attempt kind ~jobs ~engine ~config ~budget ~attempt item =
  let name = kind.k_name item in
  Obs.with_span kind.k_span
    ~args:[ (kind.k_arg, name); ("attempt", string_of_int attempt) ]
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
  let trace, keep =
    kind.k_load item ~checkpoint:(fun () -> checkpoint ~deadline)
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
  keep ~engine:!engine report

(* One attempt, classified.  [Out_of_memory] and [Stack_overflow] are
   deliberately NOT captured here: containment for those belongs to the
   process layer (the isolated child exits with a dedicated status), so
   they must escape the classifier.  The cooperative wrapper in {!run}
   catches them one level up instead. *)
let attempt_result kind ~jobs ~config ~budget ~attempt:n item =
  let engine = ref (configured_engine config) in
  let err reason = Error { ae_reason = reason; ae_engine = !engine } in
  match attempt kind ~jobs ~engine ~config ~budget ~attempt:n item with
  | r -> Ok r
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

let failed ~name ae ~elapsed ~retries ~backoff =
  Failed
    { f_app = name
    ; f_reason = ae.ae_reason
    ; f_engine = ae.ae_engine
    ; f_elapsed = elapsed
    ; f_retries = retries
    ; f_backoff = backoff
    }

(* One item in the calling domain, retried under [retry] with
   deterministic backoff. *)
let run kind ?(jobs = 1) ?(config = Detector.default_config)
    ?(budget = no_budget) ?(retry = Proc_pool.default_retry) item =
  let started = Unix.gettimeofday () in
  let once attempt =
    let crashed msg =
      Error { ae_reason = Crashed msg; ae_engine = configured_engine config }
    in
    match attempt_result kind ~jobs ~config ~budget ~attempt item with
    | r -> r
    | exception Out_of_memory -> crashed "out of memory"
    | exception Stack_overflow -> crashed "stack overflow"
  in
  let rec go attempt backoff =
    match once attempt with
    | Ok r -> Completed r
    | Error ae ->
      if retryable ae.ae_reason && attempt < retry.Proc_pool.max_retries
      then begin
        Obs.add "supervisor.retries";
        let delay = Proc_pool.backoff_delay retry ~attempt:(attempt + 1) in
        if delay > 0.0 then Unix.sleepf delay;
        go (attempt + 1) (backoff +. delay)
      end
      else
        failed ~name:(kind.k_name item) ae
          ~elapsed:(Unix.gettimeofday () -. started)
          ~retries:attempt ~backoff
  in
  go 0 0.0

(* {1 Sweeps} *)

type mode =
  | Cooperative
  | Isolated of { max_mem_mib : int option }

let reason_of_death death =
  match death with
  | Proc_pool.Hard_deadline t -> Timed_out t
  | d -> Crashed (Proc_pool.death_message d)

let outcome_of_row ~engine ~name (row : _ Proc_pool.row) =
  let fail ae =
    failed ~name ae ~elapsed:row.Proc_pool.r_elapsed
      ~retries:row.Proc_pool.r_retries ~backoff:row.Proc_pool.r_backoff
  in
  match row.Proc_pool.r_result with
  | Proc_pool.Value (Ok r) -> Completed r
  | Proc_pool.Value (Error ae) -> fail ae
  | Proc_pool.Died death ->
    (* A dead worker reports nothing, so the best attribution is the
       engine the sweep was configured with. *)
    fail { ae_reason = reason_of_death death; ae_engine = engine }

(* Outcomes already journalled by an interrupted sweep; replayed instead
   of re-run.  The journal layer has already discarded records from a
   different binary, so unmarshalling (closures included) is safe. *)
let journalled journal =
  let table = Hashtbl.create 16 in
  Option.iter
    (fun j ->
       List.iter
         (fun (name, payload) ->
            match Marshal.from_string payload 0 with
            | outcome ->
              if not (Hashtbl.mem table name) then Hashtbl.add table name outcome
            | exception _ -> ())
         (Journal.prior j))
    journal;
  table

(* One progress record per finished item, whatever substrate finished
   it.  [summary] reads the engine that ran, the event count and the
   analysis time off a completed result; failures report the failure
   label and the engine the attempt was using. *)
let report_progress progress ~summary ?(resumed = false) ~name outcome =
  Option.iter
    (fun p ->
       match outcome with
       | Completed r ->
         let engine, events, elapsed_seconds = summary r in
         Progress.app_done p ~app:name ~outcome:"completed" ~engine ~events
           ~elapsed_seconds ~resumed ()
       | Failed f ->
         Progress.app_done p ~app:name ~outcome:(reason_label f.f_reason)
           ~engine:f.f_engine ~events:0 ~elapsed_seconds:f.f_elapsed ~resumed
           ())
    progress

let sweep kind ~span ~summary ?(jobs = 1) ?(config = Detector.default_config)
    ?(budget = no_budget) ?(retry = Proc_pool.default_retry)
    ?(mode = Cooperative) ?journal ?progress items =
  Obs.with_span span @@ fun () ->
  let prior = journalled journal in
  let resumed item = Hashtbl.find_opt prior (kind.k_name item) in
  let to_run = List.filter (fun item -> resumed item = None) items in
  let n_resumed = List.length items - List.length to_run in
  if n_resumed > 0 then Obs.add ~n:n_resumed "journal.resumed";
  let report ?resumed item outcome =
    report_progress progress ~summary ?resumed ~name:(kind.k_name item) outcome
  in
  List.iter
    (fun item -> Option.iter (report ~resumed:true item) (resumed item))
    items;
  let record item outcome =
    Option.iter
      (fun j ->
         Journal.append j ~app:(kind.k_name item)
           ~payload:(Marshal.to_string outcome [ Marshal.Closures ]))
      journal;
    report item outcome
  in
  let fresh =
    match mode with
    | Cooperative ->
      (* The journal append is mutex-protected, so recording from worker
         domains as each item finishes is safe — and is what bounds the
         loss of a killed sweep to the items still in flight. *)
      Par_pool.parallel_map ~jobs
        (fun item ->
           let outcome = run kind ~config ~budget ~retry item in
           record item outcome;
           outcome)
        to_run
    | Isolated { max_mem_mib } ->
      let engine = configured_engine config in
      let items_arr = Array.of_list to_run in
      let outcome idx row =
        outcome_of_row ~engine ~name:(kind.k_name items_arr.(idx)) row
      in
      let limits =
        { Proc_pool.deadline_seconds = budget.timeout_seconds; max_mem_mib }
      in
      Proc_pool.map ~jobs ~limits ~retry
        ~should_retry:(function
          | Ok _ -> false
          | Error ae -> retryable ae.ae_reason)
        ~on_row:(fun idx row -> record items_arr.(idx) (outcome idx row))
        (fun ~attempt item ->
           attempt_result kind ~jobs:1 ~config ~budget ~attempt item)
        to_run
      |> List.mapi outcome
  in
  (* In isolated mode the worker telemetry has been drained by now, so
     the summary record's fallback counts are fleet-wide. *)
  Option.iter Progress.finish progress;
  (* [fresh] is in [to_run] order, which is [items] minus the replayed. *)
  let fresh = ref fresh in
  List.map
    (fun item ->
       match resumed item, !fresh with
       | Some outcome, _ -> outcome
       | None, outcome :: rest ->
         fresh := rest;
         outcome
       | None, [] -> assert false)
    items

(* {1 Catalog apps} *)

let app_kind =
  { k_span = "supervisor.app"
  ; k_arg = "app"
  ; k_name = (fun spec -> spec.Synthetic.s_name)
  ; k_load =
      (fun spec ~checkpoint ->
         let built =
           Obs.with_span "supervisor.build" (fun () -> Synthetic.build spec)
         in
         checkpoint ();
         let result =
           Obs.with_span "supervisor.run" (fun () ->
             Runtime.run ~options:built.Synthetic.b_options
               built.Synthetic.b_app built.Synthetic.b_events)
         in
         ( result.Runtime.observed
         , fun ~engine report ->
             { Experiments.ar_built = built
             ; ar_result = result
             ; ar_report = report
             ; ar_engine = engine
             } ))
  }

let run_app ?config ?budget ?retry spec =
  run app_kind ?config ?budget ?retry spec

let run_catalog ?jobs ?(specs = Catalog.all) ?config ?budget ?retry ?mode
    ?journal ?progress () =
  sweep app_kind ~span:"supervisor.catalog"
    ~summary:(fun run ->
      ( run.Experiments.ar_engine
      , Trace.length run.Experiments.ar_result.Runtime.observed
      , run.Experiments.ar_report.Detector.elapsed_seconds ))
    ?jobs ?config ?budget ?retry ?mode ?journal ?progress specs

(* {1 Single traces} *)

let analyze_kind =
  { k_span = "supervisor.analyze_one"
  ; k_arg = "name"
  ; k_name = fst
  ; k_load = (fun (_, trace) ~checkpoint:_ -> (trace, fun ~engine:_ r -> r))
  }

let analyze ?config ?jobs ?budget ~name trace =
  match
    run analyze_kind ?config ?jobs ?budget ~retry:Proc_pool.no_retry
      (name, trace)
  with
  | Completed report -> Ok report
  | Failed f -> Error f

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

type file_outcome = file_report sweep_outcome

(* The sweep key: basename without extension, so a binary sweep of
   variant-0000.drt and a text sweep of variant-0000.trace journal and
   report under the same name — which is what lets a corpus gate diff
   the two race tables row by row. *)
let file_key path = Filename.remove_extension (Filename.basename path)

(* Either trace format: the loader sniffs the magic. *)
let file_kind =
  { k_span = "supervisor.file"
  ; k_arg = "file"
  ; k_name = file_key
  ; k_load =
      (fun path ~checkpoint:_ ->
         let name = file_key path in
         let trace =
           match Obs.with_span "supervisor.load" (fun () -> Trace_io.load path) with
           | Ok trace -> trace
           | Error msg -> raise (Rejected_exn (Printf.sprintf "%s: %s" name msg))
         in
         ( trace
         , fun ~engine report ->
             { fr_file = path
             ; fr_name = name
             ; fr_events = Trace.length trace
             ; fr_races = List.length report.Detector.all_races
             ; fr_distinct = List.length report.Detector.distinct_races
             ; fr_engine = engine
             ; fr_elapsed = report.Detector.elapsed_seconds
             ; fr_locations =
                 List.sort_uniq String.compare
                   (List.map
                      (fun classified ->
                         Ident.Location.to_string
                           (Race.location classified.Detector.race))
                      report.Detector.all_races)
             } ))
  }

let run_file = run file_kind

let run_files =
  sweep file_kind ~span:"supervisor.files" ~summary:(fun r ->
    (r.fr_engine, r.fr_events, r.fr_elapsed))

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
  let row = function
    | Completed r ->
      Json.Object
        [ ("name", Json.String r.fr_name)
        ; ("file", Json.String r.fr_file)
        ; ("status", Json.String "completed")
        ; ("events", Json.int r.fr_events)
        ; ("races", Json.int r.fr_races)
        ; ("distinct_races", Json.int r.fr_distinct)
        ; ("engine", Json.String r.fr_engine)
        ; ("elapsed_seconds", Json.Number r.fr_elapsed)
        ; ("locations", Json.strings r.fr_locations)
        ]
    | Failed f ->
      Json.Object
        (("name", Json.String f.f_app) :: failure_fields ~outcome_key:"status" f)
  in
  Json.to_line
    (Json.Object
       [ ("schema", Json.String "droidracer-races/1")
       ; ("files", Json.Array (List.map row outcomes))
       ])
