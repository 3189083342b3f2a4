open! Import

external set_mem_limit_mib : int -> unit = "droidracer_set_mem_limit_mib"

(* {1 Retry policy} *)

type retry_policy =
  { max_retries : int
  ; backoff_base : float
  }

let no_retry = { max_retries = 0; backoff_base = 0.0 }

let default_retry = { max_retries = 1; backoff_base = 0.0 }

let backoff_delay policy ~attempt =
  if attempt <= 0 || policy.backoff_base <= 0.0 then 0.0
  else policy.backoff_base *. (2.0 ** float_of_int (attempt - 1))

let total_backoff policy ~retries =
  let rec go k acc =
    if k > retries then acc else go (k + 1) (acc +. backoff_delay policy ~attempt:k)
  in
  go 1 0.0

(* {1 Limits} *)

type limits =
  { deadline_seconds : float option
  ; max_mem_mib : int option
  }

let no_limits = { deadline_seconds = None; max_mem_mib = None }

(* {1 Outcomes} *)

type death =
  | Exited of int
  | Signaled of int
  | Oom_killed of int
  | Stack_overflowed
  | Hard_deadline of float

let signal_name s =
  let known =
    [ (Sys.sigabrt, "SIGABRT")
    ; (Sys.sigalrm, "SIGALRM")
    ; (Sys.sigbus, "SIGBUS")
    ; (Sys.sigfpe, "SIGFPE")
    ; (Sys.sighup, "SIGHUP")
    ; (Sys.sigill, "SIGILL")
    ; (Sys.sigint, "SIGINT")
    ; (Sys.sigkill, "SIGKILL")
    ; (Sys.sigpipe, "SIGPIPE")
    ; (Sys.sigquit, "SIGQUIT")
    ; (Sys.sigsegv, "SIGSEGV")
    ; (Sys.sigterm, "SIGTERM")
    ; (Sys.sigxcpu, "SIGXCPU")
    ; (Sys.sigxfsz, "SIGXFSZ")
    ]
  in
  match List.assoc_opt s known with
  | Some name -> name
  | None -> Printf.sprintf "signal %d" s

let death_message = function
  | Exited c -> Printf.sprintf "worker exited with status %d" c
  | Signaled s -> Printf.sprintf "worker killed by %s" (signal_name s)
  | Oom_killed mib ->
    Printf.sprintf "worker exceeded its %d MiB memory cap (rlimit)" mib
  | Stack_overflowed -> "worker stack overflow"
  | Hard_deadline t ->
    Printf.sprintf "hard deadline of %gs exceeded (worker SIGKILLed)" t

type 'b attempt_result =
  | Value of 'b
  | Died of death

type 'b row =
  { r_result : 'b attempt_result
  ; r_retries : int
  ; r_backoff : float
  ; r_elapsed : float
  ; r_deaths : death list
  }

(* {1 Wire framing}

   One length-prefixed Marshal frame per message.  The parent sends one
   request per frame; a worker replies with an ['r reply] marshalled
   with [Closures] — parent and child are the same forked image, so
   closure code pointers round-trip.  A short read means the peer died;
   the length prefix bounds the allocation.

   Besides request values, a worker that sees EOF on its request pipe
   ships one final [Reply_telemetry] frame carrying its whole
   [Obs.export_state] blob, so a graceful worker's spans and counters
   survive the process boundary. *)

type 'r reply =
  | Reply_value of 'r
  | Reply_telemetry of string

let max_frame_bytes = 1 lsl 30

let rec write_all fd buf pos len =
  if len > 0 then
    match Unix.write fd buf pos len with
    | n -> write_all fd buf (pos + n) (len - n)
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> write_all fd buf pos len

let frame payload =
  let len = Bytes.length payload in
  let buf = Bytes.create (8 + len) in
  Bytes.set_int64_be buf 0 (Int64.of_int len);
  Bytes.blit payload 0 buf 8 len;
  buf

let write_frame fd payload =
  let buf = frame payload in
  write_all fd buf 0 (Bytes.length buf)

let read_exact fd len =
  let buf = Bytes.create len in
  let rec go pos =
    if pos = len then Some buf
    else
      match Unix.read fd buf pos (len - pos) with
      | 0 -> None
      | n -> go (pos + n)
      | exception Unix.Unix_error (Unix.EINTR, _, _) -> go pos
      | exception Unix.Unix_error (_, _, _) -> None
  in
  go 0

let read_frame fd =
  match read_exact fd 8 with
  | None -> None
  | Some hdr ->
    let len = Int64.to_int (Bytes.get_int64_be hdr 0) in
    if len < 0 || len > max_frame_bytes then None else read_exact fd len

(* {1 The worker side}

   Workers are forked with the serve function already in memory and
   loop on the request pipe until EOF.  [Out_of_memory] and
   [Stack_overflow] cannot be reported over the pipe reliably (the
   marshaller itself needs memory), so they become dedicated exit
   statuses the parent translates back. *)

let oom_exit_status = 41
let stack_exit_status = 42
let uncaught_exit_status = 40

let death_of_status ?max_mem_mib status =
  match status with
  | Unix.WEXITED c when c = oom_exit_status ->
    Oom_killed (Option.value max_mem_mib ~default:0)
  | Unix.WEXITED c when c = stack_exit_status -> Stack_overflowed
  | Unix.WEXITED c -> Exited c
  | Unix.WSIGNALED s | Unix.WSTOPPED s -> Signaled s

let in_worker_flag = ref false

let in_worker () = !in_worker_flag

let child_main ~max_mem ~sidecar ~serve rfd wfd =
  in_worker_flag := true;
  Obs.on_fork ();
  Obs.set_process_label
    (Printf.sprintf "droidracer-worker-%d" (Unix.getpid ()));
  (match max_mem with
   | Some mib -> (try set_mem_limit_mib mib with _ -> ())
   | None -> ());
  let sidecar_path =
    match sidecar with
    | None -> None
    | Some dir ->
      Some (Filename.concat dir (Printf.sprintf "obs-%d.state" (Unix.getpid ())))
  in
  (* Crash insurance: refresh the sidecar after every request, so a
     SIGKILL (hard deadline, OOM killer) loses at most the request in
     flight.  The write is temp+rename, so the parent never reads a
     torn state. *)
  let write_sidecar () =
    match sidecar_path with
    | Some path when Obs.enabled () ->
      (try Obs.write_state_file path with _ -> ())
    | Some _ | None -> ()
  in
  (* Graceful exit: drop the sidecar (the parent treats surviving
     sidecars as the telemetry of killed workers) and ship the final
     state over the result pipe instead. *)
  let farewell () =
    if Obs.enabled () then begin
      (match sidecar_path with
       | Some path -> (try Sys.remove path with Sys_error _ -> ())
       | None -> ());
      (try
         write_frame wfd
           (Marshal.to_bytes (Reply_telemetry (Obs.export_state ())) [])
       with _ -> ())
    end;
    Unix._exit 0
  in
  write_sidecar ();
  let rec loop () =
    match read_frame rfd with
    | None -> farewell ()
    | Some req ->
      (match serve (Marshal.from_bytes req 0) with
       | v ->
         (try
            write_frame wfd
              (Marshal.to_bytes (Reply_value v) [ Marshal.Closures ])
          with _ -> Unix._exit 0);
         Obs.maybe_sample ();
         write_sidecar ();
         loop ()
       | exception Out_of_memory -> Unix._exit oom_exit_status
       | exception Stack_overflow -> Unix._exit stack_exit_status
       | exception exn ->
         (try
            Printf.eprintf "droidracer worker: uncaught exception: %s\n%!"
              (Printexc.to_string exn)
          with _ -> ());
         Unix._exit uncaught_exit_status)
  in
  loop ()

(* {1 The fleet} *)

type slot = int

type 'r event =
  | Reply of slot * 'r
  | Death of slot * death

type slot_state =
  | Idle
  | Busy of { deadline : float; budget : float }  (* infinite: no budget *)
  | Dead of { ready_at : float }  (* earliest respawn *)

type worker =
  { mutable pid : int
  ; mutable wr : Unix.file_descr  (* parent -> child requests *)
  ; mutable rd : Unix.file_descr  (* child -> parent replies *)
  ; mutable state : slot_state
  ; mutable deaths : int  (* consecutive, drives the respawn backoff *)
  }

type ('q, 'r) fleet =
  { serve : 'q -> 'r
  ; max_mem_mib : int option
  ; sidecar_dir : string option
  ; inherited : unit -> Unix.file_descr list
  ; backoff : retry_policy
  ; workers : worker array
  ; mutable unreported : (slot * death) list
        (* deaths found by [send], newest first; the next [step] reports
           them *)
  }

let close_quietly fd = try Unix.close fd with Unix.Unix_error _ -> ()

let rec waitpid_quietly pid =
  match Unix.waitpid [] pid with
  | _, status -> Some status
  | exception Unix.Unix_error (Unix.EINTR, _, _) -> waitpid_quietly pid
  | exception Unix.Unix_error _ -> None

let live w = match w.state with Dead _ -> false | Idle | Busy _ -> true

let sigkill w = try Unix.kill w.pid Sys.sigkill with Unix.Unix_error _ -> ()

(* A freshly forked child inherits the parent's ends of every sibling
   pipe and every caller descriptor; it must close them, or the parent
   would never see EOF when a sibling dies (nor a client when the
   caller closes its socket). *)
let spawn t slot =
  let req_r, req_w = Unix.pipe ~cloexec:false () in
  let res_r, res_w = Unix.pipe ~cloexec:false () in
  match Unix.fork () with
  | exception Failure _ ->
    (* OCaml 5 refuses [fork] once any domain has ever been spawned,
       even after every domain is joined; quiescing the pool cannot
       lift that.  Re-raise with the actionable constraint. *)
    List.iter close_quietly [ req_r; req_w; res_r; res_w ];
    failwith
      "Proc_pool: Unix.fork is unavailable because this process already \
       spawned domains (the OCaml 5 runtime permits fork only before the \
       first Domain.spawn, even if every domain has since been joined); \
       run the isolated sweep before any domain-parallel computation"
  | 0 ->
    Array.iter
      (fun w -> if live w then List.iter close_quietly [ w.wr; w.rd ])
      t.workers;
    List.iter close_quietly (t.inherited ());
    close_quietly req_w;
    close_quietly res_r;
    (try
       child_main ~max_mem:t.max_mem_mib ~sidecar:t.sidecar_dir ~serve:t.serve
         req_r res_w
     with _ -> ());
    Unix._exit 0
  | pid ->
    close_quietly req_r;
    close_quietly res_w;
    let w = t.workers.(slot) in
    w.pid <- pid;
    w.wr <- req_w;
    w.rd <- res_r;
    w.state <- Idle

(* Close the dead worker's pipes, collect its exit status, and schedule
   the slot's respawn under the consecutive-death backoff. *)
let reap ?forced t w =
  close_quietly w.wr;
  close_quietly w.rd;
  let status = waitpid_quietly w.pid in
  let death =
    match (forced, status) with
    | Some death, _ -> death
    | None, Some status -> death_of_status ?max_mem_mib:t.max_mem_mib status
    | None, None -> Exited 0
  in
  (match death with Oom_killed _ -> Obs.add "proc.oom" | _ -> ());
  w.deaths <- w.deaths + 1;
  (* Cap the exponent: the slot penalty only keeps a poisoned host from
     hot-looping. *)
  let penalty = backoff_delay t.backoff ~attempt:(min w.deaths 6) in
  w.state <- Dead { ready_at = Unix.gettimeofday () +. penalty };
  death

(* Close every request pipe (EOF triggers each graceful worker's
   telemetry farewell), pump the reply pipes for those farewells until
   [grace] runs out, SIGKILL whoever is still alive, then absorb the
   sidecars of every worker that died without a farewell. *)
let shutdown ?(grace = 5.0) t =
  let deadline = Unix.gettimeofday () +. grace in
  Array.iter (fun w -> if live w then close_quietly w.wr) t.workers;
  Array.iter
    (fun w ->
       if live w then begin
         let rec pump () =
           let remaining = deadline -. Unix.gettimeofday () in
           if remaining <= 0.0 then sigkill w
           else
             match Unix.select [ w.rd ] [] [] remaining with
             | [], _, _ -> sigkill w
             | _ :: _, _, _ ->
               (match read_frame w.rd with
                | None -> ()
                | Some frame ->
                  (match (Marshal.from_bytes frame 0 : _ reply) with
                   | Reply_telemetry state -> ignore (Obs.absorb_state state)
                   | Reply_value _ -> ());
                  pump ())
             | exception Unix.Unix_error (Unix.EINTR, _, _) -> pump ()
         in
         pump ();
         close_quietly w.rd;
         ignore (waitpid_quietly w.pid);
         w.state <- Dead { ready_at = Float.infinity }
       end)
    t.workers;
  match t.sidecar_dir with
  | None -> ()
  | Some dir ->
    (match Sys.readdir dir with
     | files ->
       Array.iter
         (fun file ->
            let path = Filename.concat dir file in
            if String.starts_with ~prefix:"obs-" file then
              ignore (Obs.absorb_state_file path);
            try Sys.remove path with Sys_error _ -> ())
         files
     | exception Sys_error _ -> ());
    (try Unix.rmdir dir with Unix.Unix_error _ -> ())

let fleet ?max_mem_mib ?(sidecar = false) ?(inherited = fun () -> [])
    ~backoff ~slots serve =
  (* When telemetry is on, give the workers a private directory for
     their crash sidecars.  Workers that exit gracefully remove their
     file and ship the state over the pipe instead, so whatever remains
     at shutdown is exactly the killed workers' telemetry. *)
  let sidecar_dir =
    if not (sidecar && Obs.enabled ()) then None
    else begin
      let path = Filename.temp_file "droidracer-obs-" ".d" in
      Sys.remove path;
      try
        Unix.mkdir path 0o700;
        Some path
      with Unix.Unix_error _ -> None
    end
  in
  let t =
    { serve
    ; max_mem_mib
    ; sidecar_dir
    ; inherited
    ; backoff
    ; workers =
        Array.init (max 1 slots) (fun _ ->
          { pid = 0
          ; wr = Unix.stdin
          ; rd = Unix.stdin
          ; state = Dead { ready_at = Float.infinity }
          ; deaths = 0
          })
    ; unreported = []
    }
  in
  (try Array.iteri (fun slot _ -> spawn t slot) t.workers
   with exn ->
     shutdown ~grace:0.0 t;
     raise exn);
  t

let idle t =
  List.filter
    (fun slot -> t.workers.(slot).state = Idle)
    (List.init (Array.length t.workers) Fun.id)

let send t slot ~budget request =
  let w = t.workers.(slot) in
  let now = Unix.gettimeofday () in
  match write_frame w.wr (Marshal.to_bytes request [ Marshal.Closures ]) with
  | () ->
    let budget = Option.value budget ~default:Float.infinity in
    w.state <- Busy { deadline = now +. budget; budget };
    true
  | exception Unix.Unix_error _ ->
    t.unreported <- (slot, reap t w) :: t.unreported;
    false

let respawn_due t =
  let now = Unix.gettimeofday () in
  Array.iteri
    (fun slot w ->
       match w.state with
       | Dead { ready_at } when now >= ready_at ->
         Obs.add "proc.restarts";
         spawn t slot
       | Dead _ | Idle | Busy _ -> ())
    t.workers

let fds t =
  Array.fold_right
    (fun w acc -> if live w then w.rd :: acc else acc)
    t.workers []

let wake t ~respawn =
  Array.fold_left
    (fun acc w ->
       match w.state with
       | Busy { deadline; _ } -> Float.min acc deadline
       | Dead { ready_at } when respawn -> Float.min acc ready_at
       | Dead _ | Idle -> acc)
    Float.infinity t.workers

let step t ~readable =
  let events = ref (List.map (fun (slot, d) -> Death (slot, d)) t.unreported) in
  t.unreported <- [];
  Array.iteri
    (fun slot w ->
       if live w && List.memq w.rd readable then
         match read_frame w.rd with
         | None -> events := Death (slot, reap t w) :: !events
         | Some frame ->
           (match ((Marshal.from_bytes frame 0 : _ reply), w.state) with
            | Reply_telemetry state, _ -> ignore (Obs.absorb_state state)
            | Reply_value v, Busy _ ->
              w.deaths <- 0;
              w.state <- Idle;
              events := Reply (slot, v) :: !events
            | Reply_value _, (Idle | Dead _) -> ()))
    t.workers;
  let now = Unix.gettimeofday () in
  Array.iteri
    (fun slot w ->
       match w.state with
       | Busy { deadline; budget } when now >= deadline ->
         Obs.add "proc.kills";
         sigkill w;
         let death = reap ~forced:(Hard_deadline budget) t w in
         events := Death (slot, death) :: !events
       | Busy _ | Idle | Dead _ -> ())
    t.workers;
  List.rev !events

let count t p =
  Array.fold_left (fun n w -> if p w then n + 1 else n) 0 t.workers

let live_count t = count t live

let busy_count t =
  count t (fun w -> match w.state with Busy _ -> true | Idle | Dead _ -> false)

(* {1 The pool} *)

type 'b task =
  { t_idx : int
  ; t_item : 'b
  ; mutable t_attempt : int
  ; mutable t_ready_at : float  (* earliest (re)dispatch time *)
  ; mutable t_backoff : float
  ; mutable t_started : float  (* first dispatch; nan until then *)
  ; mutable t_deaths : death list  (* newest first *)
  }

let map ?(jobs = 1) ?(limits = no_limits) ?(retry = default_retry)
    ?(should_retry = fun _ -> false) ?(on_row = fun _ _ -> ()) f items =
  match items with
  | [] -> []
  | _ ->
    Obs.with_span "proc_pool.map"
      ~args:[ ("items", string_of_int (List.length items)) ]
    @@ fun () ->
    (* Defensive cleanup; it cannot re-enable fork if domains already
       ran (see [spawn]), but it guarantees no worker domain is mid-task
       while we fork. *)
    Par_pool.quiesce ();
    let items_arr = Array.of_list items in
    let n = Array.length items_arr in
    let tasks =
      Array.mapi
        (fun i item ->
           { t_idx = i
           ; t_item = item
           ; t_attempt = 0
           ; t_ready_at = 0.0
           ; t_backoff = 0.0
           ; t_started = Float.nan
           ; t_deaths = []
           })
        items_arr
    in
    let pending = ref (Array.to_list tasks) in
    let rows = Array.make n None in
    let finished = ref 0 in
    let fl =
      fleet ?max_mem_mib:limits.max_mem_mib ~sidecar:true ~backoff:retry
        ~slots:(min jobs n)
        (fun (idx, attempt) -> f ~attempt items_arr.(idx))
    in
    let running = Array.make (Array.length fl.workers) None in
    let prev_sigpipe = Sys.signal Sys.sigpipe Sys.Signal_ignore in
    let finish task result =
      let now = Unix.gettimeofday () in
      let row =
        { r_result = result
        ; r_retries = task.t_attempt
        ; r_backoff = task.t_backoff
        ; r_elapsed =
            (if Float.is_nan task.t_started then 0.0 else now -. task.t_started)
        ; r_deaths = List.rev task.t_deaths
        }
      in
      rows.(task.t_idx) <- Some row;
      incr finished;
      on_row task.t_idx row
    in
    let requeue task =
      task.t_attempt <- task.t_attempt + 1;
      let delay = backoff_delay retry ~attempt:task.t_attempt in
      task.t_backoff <- task.t_backoff +. delay;
      task.t_ready_at <- Unix.gettimeofday () +. delay;
      Obs.add "proc.retries";
      pending := task :: !pending
    in
    let handle_value task v =
      if should_retry v && task.t_attempt < retry.max_retries then requeue task
      else finish task (Value v)
    in
    let handle_death task death =
      task.t_deaths <- death :: task.t_deaths;
      if task.t_attempt < retry.max_retries then requeue task
      else finish task (Died death)
    in
    let dispatch slot task =
      if Float.is_nan task.t_started then
        task.t_started <- Unix.gettimeofday ();
      if
        send fl slot ~budget:limits.deadline_seconds
          (task.t_idx, task.t_attempt)
      then running.(slot) <- Some task
      else
        (* The worker died before the request reached it: the attempt
           never started, so the task is not charged — requeue as-is. *)
        pending := task :: !pending
    in
    (* Pop the ready task with the lowest index (deterministic under a
       deterministic fault plan; n is corpus-sized, so linear scans are
       fine). *)
    let pop_ready now =
      let best =
        List.fold_left
          (fun acc task ->
             if task.t_ready_at > now then acc
             else
               match acc with
               | Some t when t.t_idx < task.t_idx -> acc
               | _ -> Some task)
          None !pending
      in
      match best with
      | None -> None
      | Some task ->
        pending := List.filter (fun t -> t != task) !pending;
        Some task
    in
    let on_event event =
      let slot, handle =
        match event with
        | Reply (slot, v) -> (slot, fun task -> handle_value task v)
        | Death (slot, death) -> (slot, fun task -> handle_death task death)
      in
      let task = running.(slot) in
      running.(slot) <- None;
      Option.iter handle task
    in
    Fun.protect
      ~finally:(fun () ->
        shutdown ~grace:0.0 fl;
        ignore (Sys.signal Sys.sigpipe prev_sigpipe))
      (fun () ->
         while !finished < n do
           Obs.maybe_sample ();
           if !pending <> [] then respawn_due fl;
           let now = Unix.gettimeofday () in
           List.iter
             (fun slot -> Option.iter (dispatch slot) (pop_ready now))
             (idle fl);
           if !finished < n then begin
             (* Earliest future event: a hard deadline, a slot respawn,
                or a backoff expiry. *)
             let wake =
               List.fold_left
                 (fun acc task -> Float.min acc task.t_ready_at)
                 (wake fl ~respawn:(!pending <> []))
                 !pending
             in
             let fds = fds fl in
             if fds = [] && wake = Float.infinity then
               failwith
                 "Proc_pool.map: stalled (no workers, no scheduled work)";
             let timeout =
               if wake = Float.infinity then -1.0 (* until a worker speaks *)
               else Float.max 0.001 (wake -. Unix.gettimeofday ())
             in
             let readable =
               match Unix.select fds [] [] timeout with
               | readable, _, _ -> readable
               | exception Unix.Unix_error (Unix.EINTR, _, _) -> []
             in
             List.iter on_event (step fl ~readable)
           end
         done;
         shutdown fl;
         Array.to_list rows
         |> List.map (function
           | Some row -> row
           | None -> assert false))
