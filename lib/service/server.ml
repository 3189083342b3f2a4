open! Import

(* droidracerd: the persistent analysis daemon.

   One single-threaded, domain-free parent runs a [select] event loop
   over the listen socket, every client connection, and the pipes of a
   fixed fleet of forked analysis workers.  The parent forks the fleet
   at startup — before any domain is ever spawned, which is what keeps
   respawning dead workers legal under the OCaml 5 fork rule — and each
   worker is free to spread one analysis across [worker_jobs] domains,
   so the daemon schedules across the domain pool {e and}
   process-isolated workers at once.

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
     supervisor budget inside the worker, and by parent SIGKILL a grace
     period later for workers that stop cooperating;
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

   Jobs and replies are plain data ([Supervisor.file_outcome] carries
   no closures), so frames marshal without [Closures] and survive
   nothing more exotic than the pipe. *)

type job =
  { j_id : string
  ; j_path : string
  ; j_engine : string  (* effective engine after the ladder *)
  ; j_timeout : float option
  ; j_sleep : float
  ; j_jobs : int
  }

type worker_reply =
  | W_result of string * Supervisor.file_outcome
  | W_telemetry of string

let worker_main rfd wfd =
  Obs.on_fork ();
  Obs.set_process_label
    (Printf.sprintf "droidracerd-worker-%d" (Unix.getpid ()));
  let farewell () =
    if Obs.enabled () then
      (try
         Proc_pool.write_frame wfd
           (Marshal.to_bytes (W_telemetry (Obs.export_state ())) [])
       with _ -> ());
    Unix._exit 0
  in
  let rec loop () =
    match Proc_pool.read_frame rfd with
    | None -> farewell ()
    | Some frame ->
      let job : job = Marshal.from_bytes frame 0 in
      (match
         (if job.j_sleep > 0.0 then Unix.sleepf job.j_sleep;
          let config = Wire.config_of_engine job.j_engine in
          let budget =
            { Supervisor.timeout_seconds = job.j_timeout; max_events = None }
          in
          Supervisor.run_file ~jobs:job.j_jobs ~config ~budget
            ~retry:Proc_pool.no_retry job.j_path)
       with
       | outcome ->
         (try
            Proc_pool.write_frame wfd
              (Marshal.to_bytes (W_result (job.j_id, outcome)) [])
          with _ -> Unix._exit 0);
         Obs.maybe_sample ();
         loop ()
       | exception Out_of_memory -> Unix._exit Proc_pool.oom_exit_status
       | exception Stack_overflow -> Unix._exit Proc_pool.stack_exit_status
       | exception exn ->
         (try
            Printf.eprintf "droidracerd worker: uncaught exception: %s\n%!"
              (Printexc.to_string exn)
          with _ -> ());
         Unix._exit Proc_pool.uncaught_exit_status)
  in
  loop ()

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

(* {1 Workers, parent side} *)

type wstate =
  | W_idle
  | W_busy of { b_id : string; b_started : float; b_deadline : float option }
  | W_dead of { d_until : float }

type worker =
  { mutable w_pid : int
  ; mutable w_wr : Unix.file_descr
  ; mutable w_rd : Unix.file_descr
  ; mutable w_state : wstate
  ; mutable w_deaths : int
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
  let workers = Array.make (max 1 config.workers) None in
  let live_worker_fds () =
    Array.to_list workers
    |> List.concat_map (function
      | Some w ->
        (match w.w_state with W_dead _ -> [] | _ -> [ w.w_wr; w.w_rd ])
      | None -> [])
  in
  let spawn_worker slot =
    let req_r, req_w = Unix.pipe ~cloexec:false () in
    let res_r, res_w = Unix.pipe ~cloexec:false () in
    match Unix.fork () with
    | 0 ->
      (* The child inherits every parent fd; close what it must not
         hold open — most importantly client sockets, whose EOF the
         peer would otherwise never see. *)
      close_quietly listen_fd;
      List.iter (fun c -> close_quietly c.c_fd) !conns;
      List.iter close_quietly (live_worker_fds ());
      close_quietly req_w;
      close_quietly res_r;
      (try worker_main req_r res_w with _ -> ());
      Unix._exit 0
    | pid ->
      close_quietly req_r;
      close_quietly res_w;
      (match workers.(slot) with
       | None ->
         workers.(slot) <-
           Some
             { w_pid = pid
             ; w_wr = req_w
             ; w_rd = res_r
             ; w_state = W_idle
             ; w_deaths = 0
             }
       | Some w ->
         w.w_pid <- pid;
         w.w_wr <- req_w;
         w.w_rd <- res_r;
         w.w_state <- W_idle)
  in
  for slot = 0 to Array.length workers - 1 do
    spawn_worker slot
  done;
  log "listening on %s (%d workers x %d jobs, queue %d%s)"
    (Wire.endpoint_to_string config.endpoint)
    (Array.length workers) config.worker_jobs config.queue_capacity
    (match config.journal_path with
     | Some p -> Printf.sprintf ", journal %s" p
     | None -> ", no journal");

  (* {2 Responses} *)
  let frame_of_string s =
    let payload = Bytes.of_string s in
    let frame = Bytes.create (8 + Bytes.length payload) in
    Bytes.set_int64_be frame 0 (Int64.of_int (Bytes.length payload));
    Bytes.blit payload 0 frame 8 (Bytes.length payload);
    frame
  in
  let send conn json =
    if not conn.c_closed then begin
      Queue.push (frame_of_string json) conn.c_outq;
      conn.c_last <- Unix.gettimeofday ()
    end
  in
  let live_workers () =
    Array.to_list workers
    |> List.filter (function
      | Some { w_state = W_dead _; _ } | None -> false
      | Some _ -> true)
    |> List.length
  in
  let retry_after_hint () =
    let depth = Queue.length queue in
    let per = stats.s_avg_service /. float_of_int (max 1 (live_workers ())) in
    Float.min 60.0 (Float.max 0.05 (float_of_int (depth + 1) *. per))
  in
  let queue_extra () =
    Printf.sprintf {|"queue_depth":%d,"queue_capacity":%d|}
      (Queue.length queue) config.queue_capacity
  in
  let health_json () =
    let ready = (not !draining) && live_workers () > 0 in
    let inflight =
      Array.to_list workers
      |> List.filter (function Some { w_state = W_busy _; _ } -> true | _ -> false)
      |> List.length
    in
    let pressure =
      let cap = float_of_int (max 1 config.queue_capacity) in
      let fill = float_of_int (Queue.length queue) /. cap in
      if fill >= config.degrade_high then "streaming" else "dense"
    in
    let warnings =
      "[" ^ String.concat "," (List.map Journal.warning_json journal_warnings)
      ^ "]"
    in
    Printf.sprintf
      {|{"schema":"%s","status":"%s","ready":%b,"workers":%d,"workers_live":%d,"worker_deaths":%d,"queue_depth":%d,"queue_capacity":%d,"max_queue_depth":%d,"inflight":%d,"accepted":%d,"completed":%d,"failed":%d,"executed":%d,"overloaded":%d,"errors":%d,"degraded":%d,"resumed_results":%d,"resumed_requeued":%d,"journal_warnings":%s,"avg_service_seconds":%.6f,"pressure":"%s","uptime_seconds":%.3f}|}
      Wire.health_schema
      (if !draining then "draining" else "ok")
      ready (Array.length workers) (live_workers ()) stats.s_worker_deaths
      (Queue.length queue) config.queue_capacity stats.s_max_queue_depth
      inflight stats.s_accepted stats.s_completed stats.s_failed
      (stats.s_completed + stats.s_failed)
      stats.s_overloaded stats.s_errors stats.s_degraded
      stats.s_resumed_results stats.s_resumed_requeued warnings
      stats.s_avg_service pressure
      (Unix.gettimeofday () -. started)
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
  let dispatch_one w =
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
           { j_id = id
           ; j_path = p.p_spool
           ; j_engine = effective
           ; j_timeout = timeout
           ; j_sleep = p.p_sleep
           ; j_jobs = config.worker_jobs
           }
         in
         (match Proc_pool.write_frame w.w_wr (Marshal.to_bytes job []) with
          | () ->
            let deadline =
              Option.map
                (fun t -> now +. p.p_sleep +. t +. config.kill_grace)
                timeout
            in
            Hashtbl.replace table id
              (Running
                 { r_pending = p
                 ; r_started = now
                 ; r_ladder = ladder
                 ; r_effective = effective
                 });
            w.w_state <- W_busy { b_id = id; b_started = now; b_deadline = deadline };
            if config.verbose then
              log "dispatch %s -> pid %d (%s%s)" id w.w_pid effective
                (if effective_rank > requested_rank then
                   Printf.sprintf ", degraded from %s" p.p_engine
                 else "")
          | exception Unix.Unix_error _ ->
            (* Worker died before the job reached it: put the id back at
               the head and let the reaper respawn the slot. *)
            let q = Queue.create () in
            Queue.push id q;
            Queue.transfer queue q;
            Queue.transfer q queue)
       | Some (Running _ | Finished _) | None -> ())
  in

  (* {2 Worker lifecycle} *)
  let reap_worker ?forced w =
    close_quietly w.w_wr;
    close_quietly w.w_rd;
    let status =
      match Unix.waitpid [] w.w_pid with
      | _, status -> Some status
      | exception Unix.Unix_error _ -> None
    in
    let death =
      match forced with
      | Some d -> d
      | None ->
        (match status with
         | Some status -> Proc_pool.death_of_status status
         | None -> Proc_pool.Exited 0)
    in
    stats.s_worker_deaths <- stats.s_worker_deaths + 1;
    Obs.add "service.worker_deaths";
    (match w.w_state with
     | W_busy b ->
       (match Hashtbl.find_opt table b.b_id with
        | Some (Running r) ->
          let now = Unix.gettimeofday () in
          let reason =
            match death with
            | Proc_pool.Hard_deadline t -> Supervisor.Timed_out t
            | d -> Supervisor.Crashed (Proc_pool.death_message d)
          in
          complete b.b_id ~requested:r.r_pending.p_engine ~ladder:r.r_ladder
            ~queue_seconds:(b.b_started -. r.r_pending.p_enqueued)
            ~service_seconds:(now -. b.b_started)
            (Supervisor.File_failed
               { f_app = b.b_id
               ; f_reason = reason
               ; f_engine = r.r_effective
               ; f_elapsed = now -. b.b_started
               ; f_retries = 0
               ; f_backoff = 0.0
               })
        | Some _ | None -> ())
     | W_idle | W_dead _ -> ());
    w.w_deaths <- w.w_deaths + 1;
    let penalty = Float.min 5.0 (0.1 *. (2.0 ** float_of_int (min w.w_deaths 6))) in
    w.w_state <- W_dead { d_until = Unix.gettimeofday () +. penalty };
    log "worker pid %d died (%s); respawn in %.1fs" w.w_pid
      (Proc_pool.death_message death)
      penalty
  in
  let handle_worker_frame w =
    match Proc_pool.read_frame w.w_rd with
    | None -> reap_worker w
    | Some frame ->
      (match (Marshal.from_bytes frame 0 : worker_reply) with
       | W_telemetry state -> ignore (Obs.absorb_state state)
       | W_result (id, outcome) ->
         (match w.w_state with
          | W_busy b when String.equal b.b_id id ->
            w.w_deaths <- 0;
            w.w_state <- W_idle;
            let now = Unix.gettimeofday () in
            (match Hashtbl.find_opt table id with
             | Some (Running r) ->
               complete id ~requested:r.r_pending.p_engine ~ladder:r.r_ladder
                 ~queue_seconds:(b.b_started -. r.r_pending.p_enqueued)
                 ~service_seconds:(now -. b.b_started)
                 outcome
             | Some _ | None -> ())
          | W_idle | W_busy _ | W_dead _ -> ())
       | exception _ -> reap_worker w)
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
      else send conn (Wire.status_response ~id ~extra:"" "accepted")
    | None ->
      if !draining then begin
        stats.s_draining_rejects <- stats.s_draining_rejects + 1;
        send conn
          (Wire.status_response ~id ~retry_after:1.0 ~extra:"" "draining")
      end
      else if trace = "" then begin
        stats.s_errors <- stats.s_errors + 1;
        send conn
          (Wire.status_response ~id
             ~reason:"unknown id and no trace payload" ~extra:"" "unknown")
      end
      else if Queue.length queue >= config.queue_capacity then begin
        stats.s_overloaded <- stats.s_overloaded + 1;
        Obs.add "service.overloaded";
        send conn
          (Wire.status_response ~id
             ~retry_after:(retry_after_hint ())
             ~extra:(queue_extra ()) "overloaded")
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
        else send conn (Wire.status_response ~id ~extra:"" "accepted")
      end
  in

  (* {2 Per-connection frame handling} *)
  let protocol_error conn msg =
    stats.s_errors <- stats.s_errors + 1;
    send conn (Wire.status_response ~reason:msg ~extra:"" "error");
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
            send conn (Wire.status_response ~id ~extra:"" "pending")
          | None -> send conn (Wire.status_response ~id ~extra:"" "unknown"))
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
               ~extra:(queue_extra ()) "overloaded");
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
    (* Respawn dead workers whose penalty has elapsed. *)
    let now = Unix.gettimeofday () in
    Array.iteri
      (fun slot w ->
         match w with
         | Some { w_state = W_dead { d_until }; _ }
           when now >= d_until
                && ((not !draining) || not (Queue.is_empty queue)) ->
           (* While draining, respawn only if queued work still needs a
              worker — finishing the queue is part of the drain
              contract. *)
           spawn_worker slot
         | Some _ | None -> ())
      workers;
    (* Hand queued work to idle workers. *)
    Array.iter
      (function
        | Some ({ w_state = W_idle; _ } as w) when not (Queue.is_empty queue)
          -> dispatch_one w
        | Some _ | None -> ())
      workers;
    (* Build the select sets. *)
    conns := List.filter (fun c -> not c.c_closed) !conns;
    let reads =
      (if !draining then [] else [ listen_fd ])
      @ List.filter_map
          (fun c -> if c.c_closed then None else Some c.c_fd)
          !conns
      @ (Array.to_list workers
         |> List.filter_map (function
           | Some w ->
             (match w.w_state with W_dead _ -> None | _ -> Some w.w_rd)
           | None -> None))
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
      let next = ref 0.25 in
      let consider t = if t < !next then next := Float.max 0.001 t in
      let now = Unix.gettimeofday () in
      Array.iter
        (function
          | Some { w_state = W_busy { b_deadline = Some d; _ }; _ } ->
            consider (d -. now)
          | Some { w_state = W_dead { d_until }; _ } -> consider (d_until -. now)
          | Some _ | None -> ())
        workers;
      !next
    in
    let readable, writable =
      match Unix.select reads writes [] timeout with
      | r, w, _ -> (r, w)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> ([], [])
      | exception Unix.Unix_error (Unix.EBADF, _, _) -> ([], [])
    in
    if (not !draining) && List.memq listen_fd readable then accept_conns ();
    (* Worker results first: they free capacity and answer waiters. *)
    Array.iter
      (function
        | Some w
          when (match w.w_state with W_dead _ -> false | _ -> true)
               && List.memq w.w_rd readable -> handle_worker_frame w
        | Some _ | None -> ())
      workers;
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
    (* Enforce hard deadlines. *)
    let now = Unix.gettimeofday () in
    Array.iter
      (function
        | Some ({ w_state = W_busy { b_deadline = Some d; _ }; _ } as w)
          when now >= d ->
          Obs.add "service.kills";
          (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ());
          let budget =
            match w.w_state with
            | W_busy { b_started; _ } -> now -. b_started
            | _ -> 0.0
          in
          reap_worker ~forced:(Proc_pool.Hard_deadline budget) w
        | Some _ | None -> ())
      workers;
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
      let busy =
        Array.exists
          (function Some { w_state = W_busy _; _ } -> true | _ -> false)
          workers
      in
      let unsent =
        List.exists
          (fun c ->
             (not c.c_closed)
             && (c.c_out <> None || not (Queue.is_empty c.c_outq)))
          !conns
      in
      if Queue.is_empty queue && (not busy) && not unsent then finished := true
    end
  done;

  (* {2 Graceful drain} *)
  log "draining: %d accepted, %d completed, %d failed, %d overloaded"
    stats.s_accepted stats.s_completed stats.s_failed stats.s_overloaded;
  (* EOF each worker's request pipe; a graceful worker answers with its
     telemetry farewell. *)
  Array.iter
    (function
      | Some w ->
        (match w.w_state with
         | W_dead _ -> ()
         | W_idle | W_busy _ ->
           close_quietly w.w_wr;
           let deadline = Unix.gettimeofday () +. 5.0 in
           let rec pump () =
             let remaining = deadline -. Unix.gettimeofday () in
             if remaining <= 0.0 then
               (try Unix.kill w.w_pid Sys.sigkill with Unix.Unix_error _ -> ())
             else
               match Unix.select [ w.w_rd ] [] [] remaining with
               | [], _, _ ->
                 (try Unix.kill w.w_pid Sys.sigkill
                  with Unix.Unix_error _ -> ())
               | _ :: _, _, _ ->
                 (match Proc_pool.read_frame w.w_rd with
                  | None -> ()
                  | Some frame ->
                    (match (Marshal.from_bytes frame 0 : worker_reply) with
                     | W_telemetry state ->
                       ignore (Obs.absorb_state state);
                       pump ()
                     | W_result _ -> pump ()
                     | exception _ -> ()))
               | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
           in
           pump ();
           close_quietly w.w_rd;
           (try ignore (Unix.waitpid [] w.w_pid) with Unix.Unix_error _ -> ()))
      | None -> ())
    workers;
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
