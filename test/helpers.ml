(* Shared builders for the test suites. *)
module Ident = Droidracer_trace.Ident
module Operation = Droidracer_trace.Operation
module Trace = Droidracer_trace.Trace
module Trace_io = Droidracer_trace.Trace_io

let tid = Ident.Thread_id.make
let lock = Ident.Lock_id.make
let task ?(instance = 0) name = Ident.Task_id.make ~name ~instance
let loc ?(cls = "C") ?(obj = 0) field = Ident.Location.make ~cls ~field ~obj
let ev t op = { Trace.thread = tid t; op }
let threadinit t = ev t Operation.Thread_init
let threadexit t = ev t Operation.Thread_exit
let fork t t' = ev t (Operation.Fork (tid t'))
let join t t' = ev t (Operation.Join (tid t'))
let attachq t = ev t Operation.Attach_queue
let looponq t = ev t Operation.Loop_on_queue

let post ?(flavour = Operation.Immediate) t p target =
  ev t (Operation.Post { task = p; target = tid target; flavour })

let begin_task t p = ev t (Operation.Begin_task p)
let end_task t p = ev t (Operation.End_task p)
let acquire t l = ev t (Operation.Acquire (lock l))
let release t l = ev t (Operation.Release (lock l))
let read t m = ev t (Operation.Read m)
let write t m = ev t (Operation.Write m)
let enable t p = ev t (Operation.Enable p)
let cancel t p = ev t (Operation.Cancel p)
let trace events = Trace.of_events_exn events

(* The music-player traces of Figures 3 and 4.  Two binder-pool threads
   (t0, t3) are initialised up front: the figures of the paper draw a
   single binder thread, but an IPC from ActivityManagerService may be
   served by any thread of the pool, and the claim of Section 2.4 — that
   without the [enable] operation the pair (7, 21) of Figure 4 is a false
   positive — relies on the two lifecycle posts being unordered, i.e. on
   distinct binder threads.  The paper's 1-based operation number [p]
   lives at trace index [p + figure_offset]. *)

let figure_offset = 1

let field = loc ~cls:"DwFileAct" "isActivityDestroyed"
let launch = task "LAUNCH_ACTIVITY"
let on_post_execute = task "onPostExecute"
let on_play_click = task "onPlayClick"
let on_pause = task "onPause"
let on_destroy = task "onDestroy"

let figure3_common =
  [ threadinit 0  (* binder thread A *)
  ; threadinit 3  (* binder thread B *)
  ; threadinit 1  (* paper position 1 *)
  ; attachq 1  (* 2 *)
  ; looponq 1  (* 3 *)
  ; enable 1 launch  (* 4 *)
  ; post 0 launch 1  (* 5 *)
  ; begin_task 1 launch  (* 6 *)
  ; write 1 field  (* 7 *)
  ; fork 1 2  (* 8 *)
  ; enable 1 on_destroy  (* 9 *)
  ; end_task 1 launch  (* 10 *)
  ; threadinit 2  (* 11 *)
  ; read 2 field  (* 12 *)
  ; post 2 on_post_execute 1  (* 13 *)
  ; threadexit 2  (* 14 *)
  ; begin_task 1 on_post_execute  (* 15 *)
  ; read 1 field  (* 16 *)
  ; enable 1 on_play_click  (* 17 *)
  ; end_task 1 on_post_execute  (* 18 *)
  ]

(* Figure 3: the user clicks the PLAY button. *)
let figure3 =
  trace
    (figure3_common
     @ [ post 1 on_play_click 1  (* 19 *)
       ; begin_task 1 on_play_click  (* 20 *)
       ; enable 1 on_pause  (* 21 *)
       ; end_task 1 on_play_click  (* 22 *)
       ; post 0 on_pause 1  (* 23 *)
       ])

(* Figure 4: the user presses BACK instead; onDestroy (posted by the
   second binder thread) races with the reads of operations 12 and 16. *)
let figure4 =
  trace
    (figure3_common
     @ [ post 3 on_destroy 1  (* 19 *)
       ; begin_task 1 on_destroy  (* 20 *)
       ; write 1 field  (* 21 *)
       ; end_task 1 on_destroy  (* 22 *)
       ])

(* Trace index of a paper operation number. *)
let fig p = p + figure_offset

module State = Droidracer_semantics.State
module Step = Droidracer_semantics.Step
module Queue_model = Droidracer_semantics.Queue_model

(* Random generation of semantically valid traces: candidate operations
   are drawn from the legal moves of the current state and applied
   through [Step.apply], so every generated trace validates.  Used by
   the differential and property tests. *)
module Random_trace = struct
  type gen_state =
    { mutable sem : State.t
    ; mutable events : Trace.event list  (* reversed *)
    ; mutable threads : int list  (* all allocated ids *)
    ; mutable next_thread : int
    ; mutable next_task : int
    ; mutable pending : (Ident.Task_id.t * int) list  (* task, target *)
    ; mutable executing : (int * Ident.Task_id.t) list  (* thread, task *)
    ; mutable enabled_unposted : Ident.Task_id.t list
    ; mutable held : (int * string) list  (* thread, lock *)
    }

  let locations = [ "a"; "b"; "c"; "d" ]
  let locks = [ "l1"; "l2" ]

  let fresh_task g =
    let t = Ident.Task_id.make ~name:"task" ~instance:g.next_task in
    g.next_task <- g.next_task + 1;
    t

  let running g =
    List.filter (fun t -> State.is_running g.sem (tid t)) g.threads

  let with_queue g = List.filter (fun t -> Option.is_some (State.queue g.sem (tid t)))

  let looping_idle g =
    List.filter
      (fun t ->
         State.is_looping g.sem (tid t)
         && Option.is_none (State.executing g.sem (tid t)))
      (running g)

  (* A thread may run application code if it is not an idle looper. *)
  let active g =
    List.filter
      (fun t ->
         (not (State.is_looping g.sem (tid t)))
         || Option.is_some (State.executing g.sem (tid t)))
      (running g)

  let pick rng l = List.nth l (Random.State.int rng (List.length l))

  let candidates g rng =
    let r = running g in
    let moves = ref [] in
    let add w m = moves := (w, m) :: !moves in
    (* threadinit of created threads *)
    List.iter
      (fun t ->
         match State.phase g.sem (tid t) with
         | Some State.Created -> add 6 (threadinit t)
         | Some (State.Running | State.Finished) | None -> ())
      g.threads;
    (* fork *)
    if List.length g.threads < 6 && r <> [] then begin
      let t = pick rng r in
      add 2 (fork t g.next_thread)
    end;
    (* attachq / looponq *)
    List.iter
      (fun t ->
         match State.queue g.sem (tid t) with
         | None -> add 3 (attachq t)
         | Some _ ->
           if not (State.is_looping g.sem (tid t)) then add 4 (looponq t))
      r;
    (* post, possibly of a previously enabled task, with random flavour *)
    (match r, with_queue g (List.filter (fun t -> State.is_looping g.sem (tid t) || true) r) with
     | _ :: _, (_ :: _ as targets) ->
       let src = pick rng r and target = pick rng targets in
       let p =
         match g.enabled_unposted with
         | p :: _ when Random.State.bool rng -> p
         | _ :: _ | [] -> fresh_task g
       in
       let flavour =
         match Random.State.int rng 10 with
         | 0 -> Operation.Delayed (Random.State.int rng 3 * 100)
         | 1 -> Operation.Front
         | _ -> Operation.Immediate
       in
       add 8 (post ~flavour src p target)
     | _, _ -> ());
    (* enable a fresh task, from any running thread *)
    if r <> [] then begin
      let t = pick rng r in
      add 2 (enable t (fresh_task g))
    end;
    (* begin an eligible task *)
    List.iter
      (fun t ->
         match State.queue g.sem (tid t) with
         | Some q ->
           (match Queue_model.eligible q with
            | [] -> ()
            | eligible -> add 10 (begin_task t (pick rng eligible)))
         | None -> ())
      (looping_idle g);
    (* end the executing task *)
    List.iter (fun (t, p) -> add 6 (end_task t p)) g.executing;
    (* accesses *)
    (match active g with
     | [] -> ()
     | act ->
       let t = pick rng act in
       let m = loc (pick rng locations) in
       add 14 (read t m);
       add 14 (write t m));
    (* locks *)
    (match active g with
     | [] -> ()
     | act ->
       let t = pick rng act in
       let l = pick rng locks in
       (match State.lock_holder g.sem (Ident.Lock_id.make l) with
        | None -> add 5 (acquire t l)
        | Some holder when Ident.Thread_id.equal holder (tid t) ->
          add 5 (release t l)
        | Some _ -> ()));
    (* cancel a pending task *)
    (match g.pending, r with
     | (p, _) :: _, src :: _ when Random.State.int rng 6 = 0 ->
       add 1 (cancel src p)
     | _, _ -> ());
    !moves

  let weighted_pick rng moves =
    let total = List.fold_left (fun acc (w, _) -> acc + w) 0 moves in
    let n = Random.State.int rng total in
    let rec go n = function
      | [] -> assert false
      | (w, m) :: rest -> if n < w then m else go (n - w) rest
    in
    go n moves

  let apply g (e : Trace.event) =
    match Step.apply g.sem e with
    | Error kind ->
      failwith
        (Format.asprintf "random generator produced an illegal move %a: %a"
           Trace.pp_event e Step.pp_violation_kind kind)
    | Ok sem ->
      g.sem <- sem;
      g.events <- e :: g.events;
      (* bookkeeping *)
      (match e.op with
       | Operation.Fork t' ->
         g.threads <- Ident.Thread_id.to_int t' :: g.threads;
         g.next_thread <- g.next_thread + 1
       | Operation.Post { task; target; _ } ->
         g.pending <- (task, Ident.Thread_id.to_int target) :: g.pending;
         g.enabled_unposted <-
           List.filter
             (fun p -> not (Ident.Task_id.equal p task))
             g.enabled_unposted
       | Operation.Begin_task p ->
         g.pending <-
           List.filter (fun (q, _) -> not (Ident.Task_id.equal p q)) g.pending;
         g.executing <-
           (Ident.Thread_id.to_int e.thread, p) :: g.executing
       | Operation.End_task p ->
         g.executing <-
           List.filter (fun (_, q) -> not (Ident.Task_id.equal p q)) g.executing
       | Operation.Enable p -> g.enabled_unposted <- p :: g.enabled_unposted
       | Operation.Cancel p ->
         g.pending <-
           List.filter (fun (q, _) -> not (Ident.Task_id.equal p q)) g.pending
       | Operation.Thread_init | Operation.Thread_exit | Operation.Join _
       | Operation.Attach_queue | Operation.Loop_on_queue
       | Operation.Acquire _ | Operation.Release _ | Operation.Read _
       | Operation.Write _ -> ())

  (* Generates a valid trace of roughly [size] operations from [seed]. *)
  let generate ?(threads = 3) ~seed ~size () =
    let rng = Random.State.make [| seed |] in
    let g =
      { sem = State.initial
      ; events = []
      ; threads = List.init threads (fun i -> i)
      ; next_thread = threads
      ; next_task = 0
      ; pending = []
      ; executing = []
      ; enabled_unposted = []
      ; held = []
      }
    in
    ignore g.held;
    (* Initial threads come into existence via their threadinit. *)
    List.iter (fun t -> apply g (threadinit t)) g.threads;
    let steps = ref 0 in
    while !steps < size do
      incr steps;
      match candidates g rng with
      | [] -> steps := size
      | moves -> apply g (weighted_pick rng moves)
    done;
    trace (List.rev g.events)
end

(* {1 Supervised sweeps} *)

module Supervisor = Droidracer_report.Supervisor
module Experiments = Droidracer_report.Experiments

(* The structural shape of a sweep outcome: everything except wall-clock
   elapsed, which legitimately differs between runs. *)
let shape_of completed = function
  | Supervisor.Completed r -> completed r
  | Supervisor.Failed f ->
    Printf.sprintf "failed %s %s retries=%d backoff=%.6f reason=%s"
      f.Supervisor.f_app
      (Supervisor.reason_label f.Supervisor.f_reason)
      f.Supervisor.f_retries f.Supervisor.f_backoff
      (Supervisor.reason_detail f.Supervisor.f_reason)

let app_shape =
  shape_of (fun (run : Experiments.app_run) ->
    Printf.sprintf "completed %s races=%d engine=%s"
      run.ar_built.Droidracer_corpus.Synthetic.b_spec.s_name
      (List.length run.ar_report.Droidracer_core.Detector.all_races)
      run.ar_engine)

let file_shape =
  shape_of (fun (r : Supervisor.file_report) ->
    Printf.sprintf "completed %s events=%d races=%d engine=%s locations=%s"
      r.fr_name r.fr_events r.fr_races r.fr_engine
      (String.concat "," r.fr_locations))

(* [count] generated variants written as binary trace files into a
   fresh temporary directory, which is removed at exit.  Under the
   basic fault plan, variants 0-5 get: seed 1: 0002 transient crash,
   0005 persistent reject; seed 3: 0003 transient reject, 0005
   persistent timeout; seed 6: 0003 transient crash, 0004 persistent
   reject. *)
let variant_files ?(seed = 5) ?(events = 400) ~count () =
  let dir = Filename.temp_dir "droidracer-variants" "" in
  at_exit (fun () ->
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
    Sys.rmdir dir);
  List.map
    (Droidracer_corpus.Vargen.write ~dir ~binary:true)
    (Droidracer_corpus.Vargen.variants ~seed ~events ~count ())

(* {1 Catalog runs} *)

(* The catalog through the supervised runner, every app required to
   complete on its first attempt: the runs the table drivers take.  No
   retry, so a crash that happens only sometimes still fails the
   test. *)
let catalog_runs ?jobs specs =
  let outcomes =
    Supervisor.run_catalog ?jobs ~retry:Droidracer_report.Proc_pool.no_retry
      ~specs ()
  in
  match Supervisor.failures outcomes with
  | [] -> Supervisor.completed outcomes
  | f :: _ ->
    Alcotest.failf "%s did not complete: %s" f.Supervisor.f_app
      (Supervisor.reason_detail f.Supervisor.f_reason)

(* One catalog app built, run and analysed by the dense detector with
   no supervisor around it: the reference the supervised runs are
   compared with. *)
let unsupervised_report spec =
  let built = Droidracer_corpus.Synthetic.build spec in
  let result =
    Droidracer_appmodel.Runtime.run
      ~options:built.Droidracer_corpus.Synthetic.b_options
      built.Droidracer_corpus.Synthetic.b_app
      built.Droidracer_corpus.Synthetic.b_events
  in
  Droidracer_core.Detector.analyze
    result.Droidracer_appmodel.Runtime.observed
