module Obs = Droidracer_obs.Obs

let default_jobs () = Domain.recommended_domain_count ()

(* The process-wide pool.  Workers block on [wake] until a task is
   queued; [stopping] (set by the [at_exit] handler) makes them drain
   the queue and return so the process can terminate cleanly. *)

type pool =
  { mutex : Mutex.t
  ; wake : Condition.t
  ; queue : (unit -> unit) Queue.t
  ; mutable workers : unit Domain.t list
  ; mutable stopping : bool
  }

let pool =
  { mutex = Mutex.create ()
  ; wake = Condition.create ()
  ; queue = Queue.create ()
  ; workers = []
  ; stopping = false
  }

(* OCaml caps live domains at 128; leave headroom for the main domain
   and whatever the embedding application spawns. *)
let max_workers = 120

let rec worker_loop () =
  Mutex.lock pool.mutex;
  let rec next () =
    match Queue.take_opt pool.queue with
    | Some task -> Some task
    | None ->
      if pool.stopping then None
      else begin
        Condition.wait pool.wake pool.mutex;
        next ()
      end
  in
  let task = next () in
  Mutex.unlock pool.mutex;
  match task with
  | None -> ()
  | Some task ->
    (* Tasks trap their own exceptions (see [parallel_map]); a raise
       here would mean a bug in this module, not in user code. *)
    task ();
    worker_loop ()

let shutdown () =
  Mutex.lock pool.mutex;
  pool.stopping <- true;
  Condition.broadcast pool.wake;
  let workers = pool.workers in
  pool.workers <- [];
  Mutex.unlock pool.mutex;
  List.iter Domain.join workers

let quiesce () =
  Mutex.lock pool.mutex;
  pool.stopping <- true;
  Condition.broadcast pool.wake;
  let workers = pool.workers in
  pool.workers <- [];
  Mutex.unlock pool.mutex;
  List.iter Domain.join workers;
  Mutex.lock pool.mutex;
  pool.stopping <- false;
  Mutex.unlock pool.mutex;
  if workers <> [] then Obs.set_gauge "pool.workers" 0.0

let at_exit_registered = ref false

(* Grow the pool to [wanted] workers.  Called with [pool.mutex] held. *)
let ensure_workers wanted =
  let wanted = min wanted max_workers in
  let missing = wanted - List.length pool.workers in
  if missing > 0 && not pool.stopping then begin
    if not !at_exit_registered then begin
      at_exit_registered := true;
      at_exit shutdown
    end;
    for _ = 1 to missing do
      pool.workers <- Domain.spawn worker_loop :: pool.workers
    done;
    Obs.set_gauge "pool.workers" (float_of_int (List.length pool.workers))
  end

let submit_tasks tasks =
  Mutex.lock pool.mutex;
  ensure_workers (List.length tasks);
  List.iter (fun t -> Queue.add t pool.queue) tasks;
  Condition.broadcast pool.wake;
  Mutex.unlock pool.mutex

let parallel_map ~jobs f xs =
  match xs with
  | ([] | [ _ ]) -> List.map f xs
  | _ when jobs <= 1 -> List.map f xs
  | _ ->
    let arr = Array.of_list xs in
    let n = Array.length arr in
    let results = Array.make n None in
    let failures = Array.make n None in
    (* Elements are claimed one by one off a shared counter, so uneven
       per-element costs balance across domains automatically. *)
    let next = Atomic.make 0 in
    let latch = Mutex.create () in
    let all_done = Condition.create () in
    let completed = ref 0 in
    (* Helpers running now, and whether the map has returned: the
       caller waits for every helper that started (it may still be
       recording its telemetry after the last element is done), and a
       helper that starts after the map returned does nothing.  An
       unstarted helper is never waited for — a nested map would
       deadlock on it. *)
    let running = ref 0 and closed = ref false in
    let run_one i =
      (* Piggyback the rate-limited resource sampler on task claims, so
         long cooperative sections grow RSS/heap series for free. *)
      Obs.maybe_sample ();
      (match f arr.(i) with
       | v -> results.(i) <- Some v
       | exception e ->
         failures.(i) <- Some (e, Printexc.get_raw_backtrace ()));
      Mutex.lock latch;
      incr completed;
      if !completed = n then Condition.broadcast all_done;
      Mutex.unlock latch
    in
    let rec drain () =
      let i = Atomic.fetch_and_add next 1 in
      if i < n then begin
        run_one i;
        drain ()
      end
    in
    let helpers = min (jobs - 1) (n - 1) in
    (* Telemetry: one span per submitted pool task (the unit a worker
       domain executes), the submit-to-start latency as a queue-wait
       histogram, and per-domain task/busy counters — each domain
       writes its own buffer, so recording is race-free. *)
    Obs.add "pool.parallel_maps";
    Obs.add ~n:n "pool.items";
    let instrument drain =
      if not (Obs.enabled ()) then drain
      else
        let submitted = Obs.now_ns () in
        fun () ->
          Obs.observe "pool.queue_wait_seconds"
            (Int64.to_float (Int64.sub (Obs.now_ns ()) submitted) /. 1e9);
          Obs.add "pool.tasks";
          Obs.with_span "pool.drain" drain
    in
    let helper =
      let body = instrument drain in
      fun () ->
        Mutex.lock latch;
        let start = not !closed in
        if start then incr running;
        Mutex.unlock latch;
        if start then begin
          body ();
          Mutex.lock latch;
          decr running;
          if !running = 0 then Condition.broadcast all_done;
          Mutex.unlock latch
        end
    in
    submit_tasks (List.init helpers (fun _ -> helper));
    (* The caller participates, so progress never depends on a worker
       being free — a drain task still queued when the counter runs out
       simply becomes a no-op. *)
    if Obs.enabled () then begin
      Obs.add "pool.tasks";
      Obs.with_span "pool.drain" ~args:[ ("caller", "true") ] drain
    end
    else drain ();
    Mutex.lock latch;
    while !completed < n || !running > 0 do
      Condition.wait all_done latch
    done;
    closed := true;
    Mutex.unlock latch;
    let first_failure = ref None in
    for i = n - 1 downto 0 do
      match failures.(i) with
      | Some f -> first_failure := Some f
      | None -> ()
    done;
    (match !first_failure with
     | Some (e, bt) -> Printexc.raise_with_backtrace e bt
     | None -> ());
    List.init n (fun i ->
      match results.(i) with
      | Some v -> v
      | None -> assert false)

let ranges ~chunk n =
  if chunk <= 0 then invalid_arg "Par_pool.ranges: chunk must be positive";
  let rec go lo acc =
    if lo >= n then List.rev acc
    else
      let hi = min n (lo + chunk) in
      go hi ((lo, hi) :: acc)
  in
  go 0 []
