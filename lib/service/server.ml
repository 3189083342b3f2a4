open! Import

(* droidracerd: the persistent analysis daemon.

   One single-threaded, domain-free parent runs a [select] event loop
   over the listen socket, every client connection, and the reply pipes
   of a [Proc_pool] fleet of forked analysis workers.  The fleet is
   forked at startup — before any domain is ever spawned, which is what
   keeps respawning dead workers legal under the OCaml 5 fork rule —
   and each worker is free to spread one analysis across [worker_jobs]
   domains, so the daemon schedules across the domain pool {e and}
   process-isolated workers at once.  The fleet owns the worker
   lifecycle (fork, deadlines, reaping, respawn backoff, shutdown);
   this module owns the select loop, admission and dedupe.

   Robustness contract:
   - admission is a bounded queue; past capacity a request is refused
     with an explicit [overloaded] response and a retry-after hint —
     never queued into unbounded memory;
   - accepted requests are spooled to disk and journalled before the
     accept is acknowledged, so a SIGKILLed daemon restarted with
     [resume] re-runs exactly the accepted-but-unfinished work
     (at-least-once), while finished work is replayed from the journal
     and never re-executed (exactly-once-observable by request id);
   - per-request deadlines are enforced twice: cooperatively by the
     supervisor budget inside the worker, and by the fleet's SIGKILL a
     grace period later for workers that stop cooperating;
   - under queue pressure the dense→streaming ladder degrades the
     engine at dispatch time, and every response names the engine that
     actually ran;
   - SIGTERM drains: stop accepting, finish the queue, flush
     telemetry, exit 0. *)

let log fmt = Printf.ksprintf (fun s -> Printf.eprintf "droidracerd: %s\n%!" s) fmt

(* {1 Configuration} *)

type config =
  { endpoint : Wire.endpoint
  ; workers : int
  ; worker_jobs : int  (* domains per worker analysis *)
  ; queue_capacity : int
  ; default_timeout : float option
  ; kill_grace : float  (* seconds past the budget before SIGKILL *)
  ; max_trace_bytes : int
  ; max_conns : int
  ; client_timeout : float  (* stale mid-frame reads / stalled writes *)
  ; spool_dir : string
  ; journal_path : string option
  ; resume : bool
  ; max_cached_results : int
  ; degrade_high : float  (* queue fill fraction: dense -> streaming *)
  ; verbose : bool
  ; progress_out : string option
  }

let default_config endpoint =
  { endpoint
  ; workers = 2
  ; worker_jobs = 1
  ; queue_capacity = 16
  ; default_timeout = Some 60.0
  ; kill_grace = 2.0
  ; max_trace_bytes = Wire.default_max_trace_bytes
  ; max_conns = 256
  ; client_timeout = 30.0
  ; spool_dir = "droidracerd.spool"
  ; journal_path = None
  ; resume = false
  ; max_cached_results = 10_000
  ; degrade_high = 0.75
  ; verbose = false
  ; progress_out = None
  }

(* {1 Worker protocol}

   A fleet worker serves each job with the supervisor's runner for
   trace files ([Supervisor.run_file], without retries); the fleet
   turns whatever escapes it into a worker death.  The parent keeps
   the slot -> request id map. *)

type job =
  { j_path : string
  ; j_engine : string  (* effective engine after the ladder *)
  ; j_timeout : float option
  ; j_sleep : float
  ; j_jobs : int
  }

let serve_job job =
  if job.j_sleep > 0.0 then Unix.sleepf job.j_sleep;
  Supervisor.run_file ~jobs:job.j_jobs
    ~config:(Wire.config_of_engine job.j_engine)
    ~budget:{ Supervisor.timeout_seconds = job.j_timeout; max_events = None }
    ~retry:Proc_pool.no_retry job.j_path

(* {1 Parent-side request state} *)

type pending =
  { p_id : string
  ; p_spool : string
  ; p_engine : string  (* requested *)
  ; p_timeout : float option
  ; p_sleep : float
  ; p_enqueued : float
  }

type entry =
  | Queued of pending
  | Running of
      { r_pending : pending
      ; r_started : float
      ; r_ladder : string  (* pressure level applied at dispatch *)
      ; r_effective : string  (* engine actually handed to the worker *)
      }
  | Finished of Wire.result_summary

type journal_record =
  | J_accepted of pending
  | J_done of Wire.result_summary

(* {1 Connections} *)

type conn_mode =
  | Expect_header
  | Expect_trace of
      { t_id : string
      ; t_engine : string
      ; t_timeout : float option
      ; t_sleep : float
      ; t_bytes : int
      ; t_wait : bool
      }

type conn =
  { c_fd : Unix.file_descr
  ; c_decoder : Wire.decoder
  ; mutable c_mode : conn_mode
  ; mutable c_out : (Bytes.t * int) option  (* frame in flight, offset *)
  ; c_outq : Bytes.t Queue.t
  ; mutable c_waiting : string option  (* request id awaited *)
  ; mutable c_last : float
  ; mutable c_close_after : bool  (* close once the out queue drains *)
  ; mutable c_closed : bool
  }

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

(* {1 The daemon} *)

type stats =
  { mutable s_accepted : int
  ; mutable s_completed : int  (* fresh executions that completed *)
  ; mutable s_failed : int  (* fresh executions that failed *)
  ; mutable s_overloaded : int
  ; mutable s_draining_rejects : int
  ; mutable s_errors : int
  ; mutable s_resumed_results : int  (* served from the journal, not run *)
  ; mutable s_resumed_requeued : int  (* re-run after restart *)
  ; mutable s_degraded : int
  ; mutable s_max_queue_depth : int
  ; mutable s_worker_deaths : int
  ; mutable s_avg_service : float  (* EWMA of service seconds *)
  }

let mkdir_p dir =
  let rec go dir =
    if dir <> "" && dir <> "." && dir <> "/" && not (Sys.file_exists dir)
    then begin
      go (Filename.dirname dir);
      try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()
    end
  in
  go dir

let run config =
  (* Satellite: a client vanishing mid-response must surface as EPIPE on
     the write, never as a fatal SIGPIPE — ignore it process-wide for
     the daemon's whole life (workers inherit the disposition). *)
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  let draining = ref false in
  let on_term _ = draining := true in
  Sys.set_signal Sys.sigterm (Sys.Signal_handle on_term);
  Sys.set_signal Sys.sigint (Sys.Signal_handle on_term);
  mkdir_p config.spool_dir;
  let spool_path id = Filename.concat config.spool_dir (id ^ ".trace") in
  let started = Unix.gettimeofday () in

  (* {2 Tables} *)
  let table : (string, entry) Hashtbl.t = Hashtbl.create 256 in
  let queue : string Queue.t = Queue.create () in
  let waiters : (string, conn list) Hashtbl.t = Hashtbl.create 16 in
  let done_order : string Queue.t = Queue.create () in
  let conns : conn list ref = ref [] in
  let stats =
    { s_accepted = 0
    ; s_completed = 0
    ; s_failed = 0
    ; s_overloaded = 0
    ; s_draining_rejects = 0
    ; s_errors = 0
    ; s_resumed_results = 0
    ; s_resumed_requeued = 0
    ; s_degraded = 0
    ; s_max_queue_depth = 0
    ; s_worker_deaths = 0
    ; s_avg_service = 0.5
    }
  in

  let progress =
    match config.progress_out with
    | None -> None
    | Some path ->
      let oc = open_out path in
      Some
        ( Progress.create ~out:oc ~mode:"service" ~jobs:config.workers
            ~total:0 ()
        , oc )
  in

  (* {2 Journal replay}

     Fold the prior records into a [accepted/done] view per id: done
     ids become cached results (never re-executed); accepted ids with
     no done record are the in-flight casualties of the last crash and
     are re-enqueued from their spool files. *)
  let journal, journal_warnings =
    match config.journal_path with
    | None -> (None, [])
    | Some path ->
      (match Journal.create ~resume:config.resume path with
       | Error msg -> failwith (Printf.sprintf "droidracerd: %s" msg)
       | Ok j ->
         List.iter
           (fun w -> log "journal: %s" (Journal.warning_message w))
           (Journal.warnings j);
         (Some j, Journal.warnings j))
  in
  let journal_append record =
    match journal with
    | None -> ()
    | Some j ->
      let app =
        match record with J_accepted p -> p.p_id | J_done rs -> rs.Wire.rs_id
      in
      Journal.append j ~app ~payload:(Marshal.to_string record [])
  in
  let cache_result rs =
    Hashtbl.replace table rs.Wire.rs_id (Finished rs);
    Queue.push rs.Wire.rs_id done_order;
    while Queue.length done_order > config.max_cached_results do
      let victim = Queue.pop done_order in
      match Hashtbl.find_opt table victim with
      | Some (Finished _) -> Hashtbl.remove table victim
      | Some _ | None -> ()
    done
  in
  (match journal with
   | None -> ()
   | Some j ->
     let seen_accepted : (string, pending) Hashtbl.t = Hashtbl.create 64 in
     let order = ref [] in
     List.iter
       (fun (_, payload) ->
          match (Marshal.from_string payload 0 : journal_record) with
          | J_accepted p ->
            if not (Hashtbl.mem seen_accepted p.p_id) then begin
              Hashtbl.replace seen_accepted p.p_id p;
              order := p.p_id :: !order
            end
          | J_done rs ->
            Hashtbl.remove seen_accepted rs.Wire.rs_id;
            if not (Hashtbl.mem table rs.Wire.rs_id) then begin
              stats.s_resumed_results <- stats.s_resumed_results + 1;
              cache_result rs
            end
          | exception _ -> ())
       (Journal.prior j);
     List.iter
       (fun id ->
          match Hashtbl.find_opt seen_accepted id with
          | None -> ()
          | Some p ->
            if Sys.file_exists p.p_spool then begin
              stats.s_resumed_requeued <- stats.s_resumed_requeued + 1;
              Hashtbl.replace table id (Queued p);
              Queue.push id queue
            end
            else begin
              (* Accepted but the spool vanished: fail it durably rather
                 than losing the id. *)
              let rs =
                { Wire.rs_id = id
                ; rs_status = "crashed"
                ; rs_reason = "spooled trace lost before restart"
                ; rs_engine = p.p_engine
                ; rs_requested = p.p_engine
                ; rs_ladder = "dense"
                ; rs_events = 0
                ; rs_races = 0
                ; rs_distinct = 0
                ; rs_locations = []
                ; rs_elapsed = 0.0
                ; rs_queue_seconds = 0.0
                }
              in
              journal_append (J_done rs);
              stats.s_failed <- stats.s_failed + 1;
              cache_result rs
            end)
       (List.rev !order);
     if stats.s_resumed_results > 0 || stats.s_resumed_requeued > 0 then
       log "resume: %d finished result(s) replayed, %d request(s) re-queued"
         stats.s_resumed_results stats.s_resumed_requeued);

  (* {2 Listen socket} *)
  let listen_fd =
    match config.endpoint with
    | Wire.Unix_socket path ->
      (try Unix.unlink path with Unix.Unix_error _ -> ());
      let fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
      Unix.bind fd (Unix.ADDR_UNIX path);
      Unix.listen fd 64;
      fd
    | Wire.Tcp (_, _) as ep ->
      let fd = Unix.socket Unix.PF_INET Unix.SOCK_STREAM 0 in
      Unix.setsockopt fd Unix.SO_REUSEADDR true;
      Unix.bind fd (Wire.sockaddr_of_endpoint ep);
      Unix.listen fd 64;
      fd
  in
  Unix.set_nonblock listen_fd;

  (* {2 Workers} *)
  (* The request id each slot is serving. *)
  let running = Array.make (max 1 config.workers) None in
  let fleet =
    Proc_pool.fleet
      ~backoff:{ Proc_pool.max_retries = 0; backoff_base = 0.2 }
      ~inherited:(fun () ->
        listen_fd
        :: List.filter_map
             (fun c -> if c.c_closed then None else Some c.c_fd)
             !conns)
      ~slots:(Array.length running) serve_job
  in
  log "listening on %s (%d workers x %d jobs, queue %d%s)"
    (Wire.endpoint_to_string config.endpoint)
    (Array.length running) config.worker_jobs config.queue_capacity
    (match config.journal_path with
     | Some p -> Printf.sprintf ", journal %s" p
     | None -> ", no journal");

  (* {2 Responses} *)
  let send conn json =
    if not conn.c_closed then begin
      Queue.push (Proc_pool.frame (Bytes.of_string json)) conn.c_outq;
      conn.c_last <- Unix.gettimeofday ()
    end
  in
  let retry_after_hint () =
    let depth = Queue.length queue in
    let live = Proc_pool.live_count fleet in
    let per = stats.s_avg_service /. float_of_int (max 1 live) in
    Float.min 60.0 (Float.max 0.05 (float_of_int (depth + 1) *. per))
  in
  let queue_fields () =
    [ ("queue_depth", Json.int (Queue.length queue))
    ; ("queue_capacity", Json.int config.queue_capacity)
    ]
  in
  let health_json () =
    let ready = (not !draining) && Proc_pool.live_count fleet > 0 in
    let pressure =
      let cap = float_of_int (max 1 config.queue_capacity) in
      let fill = float_of_int (Queue.length queue) /. cap in
      if fill >= config.degrade_high then "streaming" else "dense"
    in
    let count (key, n) = (key, Json.int n) in
    Json.to_string
      (Json.Object
         ([ ("schema", Json.String Wire.health_schema)
          ; ("status", Json.String (if !draining then "draining" else "ok"))
          ; ("ready", Json.Bool ready)
          ]
          @ List.map count
              [ ("workers", Array.length running)
              ; ("workers_live", Proc_pool.live_count fleet)
              ; ("worker_deaths", stats.s_worker_deaths)
              ; ("queue_depth", Queue.length queue)
              ; ("queue_capacity", config.queue_capacity)
              ; ("max_queue_depth", stats.s_max_queue_depth)
              ; ("inflight", Proc_pool.busy_count fleet)
              ; ("accepted", stats.s_accepted)
              ; ("completed", stats.s_completed)
              ; ("failed", stats.s_failed)
              ; ("executed", stats.s_completed + stats.s_failed)
              ; ("overloaded", stats.s_overloaded)
              ; ("errors", stats.s_errors)
              ; ("degraded", stats.s_degraded)
              ; ("resumed_results", stats.s_resumed_results)
              ; ("resumed_requeued", stats.s_resumed_requeued)
              ]
          @ [ ( "journal_warnings"
              , Json.Array (List.map Journal.warning_to_json journal_warnings) )
            ; ("avg_service_seconds", Json.Number stats.s_avg_service)
            ; ("pressure", Json.String pressure)
            ; ("uptime_seconds", Json.Number (Unix.gettimeofday () -. started))
            ]))
  in

  (* {2 Completion} *)
  let deliver_result rs ~resumed =
    (match Hashtbl.find_opt waiters rs.Wire.rs_id with
     | None -> ()
     | Some cs ->
       Hashtbl.remove waiters rs.Wire.rs_id;
       List.iter
         (fun conn ->
            if (not conn.c_closed) && conn.c_waiting = Some rs.Wire.rs_id
            then begin
              conn.c_waiting <- None;
              send conn (Wire.result_response ~resumed rs)
            end)
         cs)
  in
  let complete id ~requested ~ladder ~queue_seconds ~service_seconds outcome =
    let rs =
      Wire.summary_of_outcome ~id ~requested ~ladder ~queue_seconds outcome
    in
    journal_append (J_done rs);
    (try Sys.remove (spool_path id) with Sys_error _ -> ());
    if String.equal rs.Wire.rs_status "completed" then begin
      stats.s_completed <- stats.s_completed + 1;
      Obs.add "service.completed"
    end
    else begin
      stats.s_failed <- stats.s_failed + 1;
      Obs.add "service.failed"
    end;
    stats.s_avg_service <-
      (0.8 *. stats.s_avg_service) +. (0.2 *. service_seconds);
    cache_result rs;
    (match progress with
     | None -> ()
     | Some (p, _) ->
       Progress.app_done p ~app:id ~outcome:rs.Wire.rs_status
         ~engine:rs.Wire.rs_engine ~events:rs.Wire.rs_events
         ~elapsed_seconds:rs.Wire.rs_elapsed ());
    if config.verbose then
      log "done %s: %s (%s, %.3fs)" id rs.Wire.rs_status rs.Wire.rs_engine
        rs.Wire.rs_elapsed;
    deliver_result rs ~resumed:false
  in

  (* {2 Dispatch: the degradation ladder is applied here} *)
  let dispatch_one slot =
    match Queue.take_opt queue with
    | None -> ()
    | Some id ->
      (match Hashtbl.find_opt table id with
       | Some (Queued p) ->
         let now = Unix.gettimeofday () in
         let depth = Queue.length queue in
         let cap = float_of_int (max 1 config.queue_capacity) in
         let level =
           let fill = float_of_int depth /. cap in
           if fill >= config.degrade_high then 1 else 0
         in
         let requested_rank = Wire.engine_rank p.p_engine in
         let effective_rank = max requested_rank level in
         let effective =
           if effective_rank > requested_rank then
             Wire.engine_of_rank effective_rank
           else p.p_engine
         in
         let ladder = Wire.engine_of_rank level in
         if effective_rank > requested_rank then begin
           stats.s_degraded <- stats.s_degraded + 1;
           Obs.add (Printf.sprintf "service.degraded.%s" effective)
         end;
         let timeout =
           match p.p_timeout with
           | Some _ as t -> t
           | None -> config.default_timeout
         in
         let job =
           { j_path = p.p_spool
           ; j_engine = effective
           ; j_timeout = timeout
           ; j_sleep = p.p_sleep
           ; j_jobs = config.worker_jobs
           }
         in
         let budget =
           Option.map (fun t -> p.p_sleep +. t +. config.kill_grace) timeout
         in
         if Proc_pool.send fleet slot ~budget job then begin
           Hashtbl.replace table id
             (Running
                { r_pending = p
                ; r_started = now
                ; r_ladder = ladder
                ; r_effective = effective
                });
           running.(slot) <- Some id;
           if config.verbose then
             log "dispatch %s -> slot %d (%s%s)" id slot effective
               (if effective_rank > requested_rank then
                  Printf.sprintf ", degraded from %s" p.p_engine
                else "")
         end
         else begin
           (* The worker died before the job reached it: put the id back
              at the head; the fleet respawns the slot. *)
           let q = Queue.create () in
           Queue.push id q;
           Queue.transfer queue q;
           Queue.transfer q queue
         end
       | Some (Running _ | Finished _) | None -> ())
  in

  (* {2 Worker events} *)
  let finish_slot slot outcome =
    match running.(slot) with
    | None -> ()
    | Some id ->
      running.(slot) <- None;
      (match Hashtbl.find_opt table id with
       | Some (Running r) ->
         let elapsed = Unix.gettimeofday () -. r.r_started in
         complete id ~requested:r.r_pending.p_engine ~ladder:r.r_ladder
           ~queue_seconds:(r.r_started -. r.r_pending.p_enqueued)
           ~service_seconds:elapsed
           (outcome id r.r_effective elapsed)
       | Some _ | None -> ())
  in
  let on_worker_event = function
    | Proc_pool.Reply (slot, outcome) -> finish_slot slot (fun _ _ _ -> outcome)
    | Proc_pool.Death (slot, death) ->
      stats.s_worker_deaths <- stats.s_worker_deaths + 1;
      Obs.add "service.worker_deaths";
      (match death with
       | Proc_pool.Hard_deadline _ -> Obs.add "service.kills"
       | _ -> ());
      finish_slot slot (fun id engine elapsed ->
        Supervisor.Failed
          { f_app = id
          ; f_reason = Supervisor.reason_of_death death
          ; f_engine = engine
          ; f_elapsed = elapsed
          ; f_retries = 0
          ; f_backoff = 0.0
          });
      log "worker in slot %d died (%s)" slot (Proc_pool.death_message death)
  in

  (* {2 Admission} *)
  let spool_trace id bytes =
    let path = spool_path id in
    let fd = Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644 in
    Fun.protect
      ~finally:(fun () -> close_quietly fd)
      (fun () ->
         Proc_pool.write_all fd (Bytes.unsafe_of_string bytes) 0
           (String.length bytes);
         Unix.fsync fd);
    path
  in
  let admit conn ~id ~engine ~timeout ~sleep ~wait ~trace =
    match Hashtbl.find_opt table id with
    | Some (Finished rs) ->
      (* Resubmission of finished work: serve the cached result, never
         re-execute — exactly-once-observable by id. *)
      send conn (Wire.result_response ~resumed:true rs)
    | Some (Queued _ | Running _) ->
      (* Already in flight (probably a client retrying after a lost
         connection): attach, do not duplicate. *)
      if wait then begin
        conn.c_waiting <- Some id;
        let prev = Option.value (Hashtbl.find_opt waiters id) ~default:[] in
        Hashtbl.replace waiters id (conn :: prev)
      end
      else send conn (Wire.status_response ~id "accepted")
    | None ->
      if !draining then begin
        stats.s_draining_rejects <- stats.s_draining_rejects + 1;
        send conn
          (Wire.status_response ~id ~retry_after:1.0 "draining")
      end
      else if trace = "" then begin
        stats.s_errors <- stats.s_errors + 1;
        send conn
          (Wire.status_response ~id
             ~reason:"unknown id and no trace payload" "unknown")
      end
      else if Queue.length queue >= config.queue_capacity then begin
        stats.s_overloaded <- stats.s_overloaded + 1;
        Obs.add "service.overloaded";
        send conn
          (Wire.status_response ~id
             ~retry_after:(retry_after_hint ())
             ~fields:(queue_fields ()) "overloaded")
      end
      else begin
        let p =
          { p_id = id
          ; p_spool = spool_trace id trace
          ; p_engine = engine
          ; p_timeout = timeout
          ; p_sleep = sleep
          ; p_enqueued = Unix.gettimeofday ()
          }
        in
        journal_append (J_accepted p);
        Hashtbl.replace table id (Queued p);
        Queue.push id queue;
        stats.s_accepted <- stats.s_accepted + 1;
        Obs.add "service.accepted";
        stats.s_max_queue_depth <-
          max stats.s_max_queue_depth (Queue.length queue);
        Obs.set_gauge "service.queue_depth"
          (float_of_int (Queue.length queue));
        if config.verbose then
          log "accept %s (%d bytes, engine %s)" id (String.length trace)
            engine;
        if wait then begin
          conn.c_waiting <- Some id;
          let prev = Option.value (Hashtbl.find_opt waiters id) ~default:[] in
          Hashtbl.replace waiters id (conn :: prev)
        end
        else send conn (Wire.status_response ~id "accepted")
      end
  in

  (* {2 Per-connection frame handling} *)
  let protocol_error conn msg =
    stats.s_errors <- stats.s_errors + 1;
    send conn (Wire.status_response ~reason:msg "error");
    conn.c_close_after <- true
  in
  let handle_frame conn frame =
    match conn.c_mode with
    | Expect_trace t ->
      Wire.decoder_set_limit conn.c_decoder Wire.max_header_bytes;
      conn.c_mode <- Expect_header;
      if String.length frame <> t.t_bytes then
        protocol_error conn
          (Printf.sprintf "trace frame of %d bytes, announced %d"
             (String.length frame) t.t_bytes)
      else
        admit conn ~id:t.t_id ~engine:t.t_engine ~timeout:t.t_timeout
          ~sleep:t.t_sleep ~wait:t.t_wait ~trace:frame
    | Expect_header ->
      (match Wire.parse_request frame with
       | Error msg -> protocol_error conn msg
       | Ok Wire.Health | Ok Wire.Stats -> send conn (health_json ())
       | Ok (Wire.Result id) ->
         (match Hashtbl.find_opt table id with
          | Some (Finished rs) -> send conn (Wire.result_response ~resumed:true rs)
          | Some (Queued _ | Running _) ->
            send conn (Wire.status_response ~id "pending")
          | None -> send conn (Wire.status_response ~id "unknown"))
       | Ok (Wire.Analyze a) ->
         if a.a_trace_bytes > config.max_trace_bytes then
           protocol_error conn
             (Printf.sprintf "trace of %d bytes exceeds the %d-byte cap"
                a.a_trace_bytes config.max_trace_bytes)
         else if a.a_trace_bytes = 0 then
           admit conn ~id:a.a_id ~engine:a.a_engine
             ~timeout:a.a_timeout ~sleep:a.a_sleep
             ~wait:a.a_wait ~trace:""
         else begin
           Wire.decoder_set_limit conn.c_decoder a.a_trace_bytes;
           conn.c_mode <-
             Expect_trace
               { t_id = a.a_id
               ; t_engine = a.a_engine
               ; t_timeout = a.a_timeout
               ; t_sleep = a.a_sleep
               ; t_bytes = a.a_trace_bytes
               ; t_wait = a.a_wait
               }
         end)
  in
  let close_conn conn =
    if not conn.c_closed then begin
      conn.c_closed <- true;
      close_quietly conn.c_fd
    end
  in
  let read_buf = Bytes.create 65536 in
  let pump_conn_read conn =
    let rec drain_frames () =
      match Wire.decoder_next conn.c_decoder with
      | Error msg -> protocol_error conn msg
      | Ok None -> ()
      | Ok (Some frame) ->
        handle_frame conn frame;
        if not conn.c_close_after then drain_frames ()
    in
    match Unix.read conn.c_fd read_buf 0 (Bytes.length read_buf) with
    | 0 -> close_conn conn
    | n ->
      conn.c_last <- Unix.gettimeofday ();
      Wire.decoder_feed conn.c_decoder read_buf n;
      drain_frames ()
    | exception Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
      -> ()
    | exception Unix.Unix_error (_, _, _) -> close_conn conn
  in
  let pump_conn_write conn =
    let rec go () =
      (match conn.c_out with
       | None ->
         (match Queue.take_opt conn.c_outq with
          | Some frame -> conn.c_out <- Some (frame, 0)
          | None -> ())
       | Some _ -> ());
      match conn.c_out with
      | None -> if conn.c_close_after then close_conn conn
      | Some (frame, pos) ->
        (match Unix.write conn.c_fd frame pos (Bytes.length frame - pos) with
         | n ->
           conn.c_last <- Unix.gettimeofday ();
           let pos = pos + n in
           if pos >= Bytes.length frame then begin
             conn.c_out <- None;
             go ()
           end
           else conn.c_out <- Some (frame, pos)
         | exception
             Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
           -> ()
         | exception Unix.Unix_error (_, _, _) -> close_conn conn)
    in
    go ()
  in
  let accept_conns () =
    let rec go () =
      match Unix.accept listen_fd with
      | fd, _ ->
        Unix.set_nonblock fd;
        let conn =
          { c_fd = fd
          ; c_decoder = Wire.create_decoder ~limit:Wire.max_header_bytes ()
          ; c_mode = Expect_header
          ; c_out = None
          ; c_outq = Queue.create ()
          ; c_waiting = None
          ; c_last = Unix.gettimeofday ()
          ; c_close_after = false
          ; c_closed = false
          }
        in
        if List.length !conns >= config.max_conns then begin
          stats.s_overloaded <- stats.s_overloaded + 1;
          Obs.add "service.overloaded";
          send conn
            (Wire.status_response
               ~retry_after:(retry_after_hint ())
               ~fields:(queue_fields ()) "overloaded");
          conn.c_close_after <- true
        end;
        conns := conn :: !conns;
        go ()
      | exception
          Unix.Unix_error ((Unix.EAGAIN | Unix.EWOULDBLOCK | Unix.EINTR), _, _)
        -> ()
      | exception Unix.Unix_error (_, _, _) -> ()
    in
    go ()
  in

  (* {2 The event loop} *)
  let finished = ref false in
  while not !finished do
    Obs.maybe_sample ();
    (* While draining, respawn only if queued work still needs a worker —
       finishing the queue is part of the drain contract. *)
    let respawn = (not !draining) || not (Queue.is_empty queue) in
    if respawn then Proc_pool.respawn_due fleet;
    (* Hand queued work to idle workers. *)
    List.iter
      (fun slot -> if not (Queue.is_empty queue) then dispatch_one slot)
      (Proc_pool.idle fleet);
    (* Build the select sets. *)
    conns := List.filter (fun c -> not c.c_closed) !conns;
    let reads =
      (if !draining then [] else [ listen_fd ])
      @ List.filter_map
          (fun c -> if c.c_closed then None else Some c.c_fd)
          !conns
      @ Proc_pool.fds fleet
    in
    let writes =
      List.filter_map
        (fun c ->
           if c.c_closed then None
           else if c.c_out <> None || not (Queue.is_empty c.c_outq) then
             Some c.c_fd
           else None)
        !conns
    in
    let timeout =
      let until_wake = Proc_pool.wake fleet ~respawn -. Unix.gettimeofday () in
      Float.max 0.001 (Float.min 0.25 until_wake)
    in
    let readable, writable =
      match Unix.select reads writes [] timeout with
      | r, w, _ -> (r, w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> ([], [])
    in
    if (not !draining) && List.memq listen_fd readable then accept_conns ();
    (* Worker results and deaths first: they free capacity and answer
       waiters. *)
    List.iter on_worker_event (Proc_pool.step fleet ~readable);
    List.iter
      (fun c -> if (not c.c_closed) && List.memq c.c_fd readable then pump_conn_read c)
      !conns;
    List.iter
      (fun c ->
         if (not c.c_closed)
            && (List.memq c.c_fd writable
                || c.c_out <> None
                || not (Queue.is_empty c.c_outq))
         then pump_conn_write c)
      !conns;
    let now = Unix.gettimeofday () in
    (* Shed connections that stalled mid-frame or mid-response. *)
    List.iter
      (fun c ->
         if (not c.c_closed) && c.c_waiting = None then begin
           let mid_read = Wire.decoder_buffered c.c_decoder > 0 in
           let mid_write = c.c_out <> None || not (Queue.is_empty c.c_outq) in
           if (mid_read || mid_write)
              && now -. c.c_last > config.client_timeout
           then close_conn c
         end)
      !conns;
    (* Drain check: accepted work finished, responses flushed. *)
    if !draining then begin
      let unsent =
        List.exists
          (fun c ->
             (not c.c_closed)
             && (c.c_out <> None || not (Queue.is_empty c.c_outq)))
          !conns
      in
      if Queue.is_empty queue && Proc_pool.busy_count fleet = 0 && not unsent
      then finished := true
    end
  done;

  (* {2 Graceful drain} *)
  log "draining: %d accepted, %d completed, %d failed, %d overloaded"
    stats.s_accepted stats.s_completed stats.s_failed stats.s_overloaded;
  Proc_pool.shutdown fleet;
  (match journal with None -> () | Some j -> Journal.close j);
  (match progress with
   | None -> ()
   | Some (p, oc) ->
     Progress.finish p;
     close_out_noerr oc);
  List.iter close_conn !conns;
  close_quietly listen_fd;
  (match config.endpoint with
   | Wire.Unix_socket path ->
     (try Unix.unlink path with Unix.Unix_error _ -> ())
   | Wire.Tcp _ -> ());
  log "drained; exiting"
