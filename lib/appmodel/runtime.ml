open! Import
module Thread_id = Ident.Thread_id
module Task_id = Ident.Task_id
module Lock_id = Ident.Lock_id
module Location = Ident.Location

type ui_event =
  | Click of string
  | Back
  | Rotate
  | Intent of string

let pp_ui_event ppf = function
  | Click e -> Format.fprintf ppf "click(%s)" e
  | Back -> Format.pp_print_string ppf "BACK"
  | Rotate -> Format.pp_print_string ppf "rotate"
  | Intent a -> Format.fprintf ppf "intent(%s)" a

type policy =
  | Round_robin
  | Seeded of int
  | Scripted of int list

type options =
  { policy : policy
  ; log_native : bool
  ; compressed_lifecycle : bool
  ; binder_pool_size : int
  ; respect_delays : bool
  ; emit_enables : bool
  ; hold : string list
  ; max_steps : int
  }

let default_options =
  { policy = Round_robin
  ; log_native = false
  ; compressed_lifecycle = false
  ; binder_pool_size = 2
  ; respect_delays = true
  ; emit_enables = true
  ; hold = []
  ; max_steps = 2_000_000
  }

type run_result =
  { observed : Trace.t
  ; full : Trace.t Lazy.t
  ; thread_names : (Thread_id.t * string) list
  ; injected : ui_event list
  ; skipped : ui_event list
  ; enabled_at_end : ui_event list
  ; choice_arities : int list
  ; steps : int
  }

exception Stuck of string

let stuck fmt = Format.kasprintf (fun s -> raise (Stuck s)) fmt

(* Internal instructions: program statements plus runtime-introduced
   continuations. *)
type instr =
  | Prog of Program.stmt
  | Release_monitor of Lock_id.t
  | Async_fork of Program.async_spec
  | Async_finish  (** end of doInBackground: post onPostExecute *)

let instrs stmts = List.map (fun s -> Prog s) stmts

(* An app with the names its statements use resolved once: every run
   of it looks posted procedures and monitors up here instead of
   scanning [app.procs] or re-checking a monitor name per entry. *)
type prepared =
  { p_app : Program.app
  ; p_procs : (string, instr list) Hashtbl.t  (** posted bodies *)
  ; p_monitors : (string, Lock_id.t) Hashtbl.t
  }

let prepare_as caller app =
  (match Program.validate app with
   | Ok () -> ()
   | Error msg -> invalid_arg (caller ^ ": invalid app: " ^ msg));
  let p_procs = Hashtbl.create 64 and p_monitors = Hashtbl.create 8 in
  List.iter
    (fun (name, body) ->
       if not (Hashtbl.mem p_procs name) then
         Hashtbl.add p_procs name (instrs body))
    app.Program.procs;
  let rec stmts body = List.iter stmt body
  and stmt (s : Program.stmt) =
    match s with
    | Synchronized (l, body) ->
      if not (Hashtbl.mem p_monitors l) then
        Hashtbl.add p_monitors l (Lock_id.make l);
      stmts body
    | Fork (_, body) | Fork_native (_, body) -> stmts body
    | Execute_async_task spec ->
      List.iter stmts
        [ spec.pre; spec.background; spec.progress; spec.post_exec ]
    | Read _ | Write _ | Fork_looper _ | Join _ | Post _ | Cancel_last _
    | Publish_progress | Start_activity _ | Finish_activity | Start_service _
    | Stop_service _ | Send_broadcast _ | Enable_ui _ | Disable_ui _
    | Handoff_send _ | Handoff_wait _ -> ()
  in
  List.iter
    (fun (a : Program.activity) ->
       List.iter stmts
         [ a.on_create; a.on_start; a.on_resume; a.on_pause; a.on_stop
         ; a.on_restart; a.on_destroy ];
       List.iter (fun (h : Program.ui_handler) -> stmts h.handler_body) a.ui)
    app.activities;
  List.iter
    (fun (s : Program.service) ->
       List.iter stmts
         [ s.on_create_svc; s.on_start_command; s.on_destroy_svc ])
    app.services;
  List.iter (fun (r : Program.receiver) -> stmts r.on_receive) app.receivers;
  List.iter (fun (_, body) -> stmts body) app.procs;
  { p_app = app; p_procs; p_monitors }

let prepare app = prepare_as "Runtime.prepare" app

type async_ctx =
  { spec : Program.async_spec
  ; origin : Thread_id.t
  ; a_owner : int option  (** activity instance that started the task *)
  ; mutable published : int
  }

(* A blocked thread: [can_proceed] is polled by the scheduler and
   [proceed] performs the delayed action once it holds. *)
type waiting =
  { can_proceed : unit -> bool
  ; proceed : unit -> unit
  }

(* A thread's next unit of work, as the scheduler's last pass saw it. *)
type next =
  | Blocked  (** cannot progress now *)
  | Init  (** threadinit (and the looper set-up of a queue thread) *)
  | Deliver  (** binder thread: forward the oldest transaction to main *)
  | Proceed  (** the condition it waits for holds *)
  | Instr  (** interpret the head of the top non-empty frame *)
  | Finish  (** end the running task *)
  | Dispatch  (** begin one of the dispatchable tasks of its queue *)
  | Exit

type thr =
  { tid : Thread_id.t
  ; thr_name : string
  ; is_native : bool
  ; has_queue : bool
  ; exits_when_done : bool
  ; inbox : (Task_id.t * Operation.post_flavour) Queue.t
      (** binder transactions for this thread; always empty unless it
          belongs to the binder pool *)
  ; mutable inited : bool
  ; mutable exited : bool
  ; mutable frames : instr list list  (** top first; may hold empty frames *)
  ; mutable running : Task_id.t option
  ; mutable waiting : waiting option
  ; mutable actx : async_ctx option
  ; mutable next : next
  ; mutable held : bool
      (** [next] belongs to a stalled context (see [options.hold]) *)
  }

type task_info =
  { t_body : instr list
  ; t_owner : int option
  ; mutable t_hooks_rev : (unit -> unit) list  (** latest first *)
  ; mutable t_posted : bool
  ; mutable t_begun : bool
  ; mutable t_cancelled : bool
  ; mutable t_delay : int option
  ; mutable t_post_step : int
  }

type act_inst =
  { program : Program.activity
  ; obj : int
  ; mutable astate : Lifecycle.activity_state
  ; ui_enabled : (string, Task_id.t) Hashtbl.t
  ; cb_enabled : (string, Task_id.t) Hashtbl.t
  }

type rt =
  { prepared : prepared
  ; opts : options
  ; rng : Random.State.t option
  ; mutable script : int list
  ; mutable arities_rev : int list
  ; mutable rr_counter : int
  ; mutable sem : State.t
  ; mutable full_rev : Trace.event list
  ; mutable obs_rev : Trace.event list
  ; mutable threads : thr array  (** in creation order; main first *)
  ; mutable n_threads : int
  ; by_tid : (int, thr) Hashtbl.t
  ; by_name : (string, thr) Hashtbl.t  (** the first thread of each name *)
  ; mutable next_tid : int
  ; task_instances : (string, int) Hashtbl.t
  ; tasks : task_info Task_id.Table.t
  ; mutable binder : Binder.t
  ; mutable stack : act_inst list  (** top first *)
  ; all_activities : (int, act_inst) Hashtbl.t
  ; mutable next_obj : int
  ; mutable flags : Location.Set.t  (** published handoff flags *)
  ; mutable clock : int
  ; mutable steps : int
  ; services_created : (string, bool) Hashtbl.t
  ; mutable pending_by_proc : (string * Task_id.t) list
  }

let main rt = rt.threads.(0)
let thread_by_tid rt tid = Hashtbl.find rt.by_tid (Thread_id.to_int tid)
let thread_by_name rt name = Hashtbl.find_opt rt.by_name name

let add_thread rt thr =
  let n = rt.n_threads in
  if n = Array.length rt.threads then
    rt.threads <- Array.append rt.threads (Array.make n thr);
  rt.threads.(n) <- thr;
  rt.n_threads <- n + 1;
  Hashtbl.replace rt.by_tid (Thread_id.to_int thr.tid) thr;
  if not (Hashtbl.mem rt.by_name thr.thr_name) then
    Hashtbl.replace rt.by_name thr.thr_name thr

let make_thread ~tid ~name ~native ~queue ~frames ~exits ~actx =
  { tid
  ; thr_name = name
  ; is_native = native
  ; has_queue = queue
  ; exits_when_done = exits
  ; inbox = Queue.create ()
  ; inited = false
  ; exited = false
  ; frames
  ; running = None
  ; waiting = None
  ; actx
  ; next = Blocked
  ; held = false
  }

(* One scheduling decision among [n] alternatives.  Every decision is
   logged so that the schedule explorer can enumerate the tree. *)
let choose rt n =
  if n <= 0 then invalid_arg "Runtime.choose";
  rt.arities_rev <- n :: rt.arities_rev;
  match rt.opts.policy with
  | Seeded _ ->
    (match rt.rng with
     | Some rng -> Random.State.int rng n
     | None -> 0)
  | Round_robin ->
    let i = rt.rr_counter mod n in
    rt.rr_counter <- rt.rr_counter + 1;
    i
  | Scripted _ ->
    (match rt.script with
     | [] -> 0
     | k :: rest ->
       rt.script <- rest;
       ((k mod n) + n) mod n)

(* {1 Emission} *)

let emit rt (thr : thr) op =
  let e = { Trace.thread = thr.tid; op } in
  (match Step.apply rt.sem e with
   | Ok s -> rt.sem <- s
   | Error kind ->
     stuck "interpreter bug: emitted illegal operation %a (%a)" Trace.pp_event e
       Step.pp_violation_kind kind);
  rt.full_rev <- e :: rt.full_rev;
  let observed =
    if thr.is_native && not rt.opts.log_native then
      (* only queue-side instrumentation sees the native thread *)
      (match op with
       | Operation.Post _ -> true
       | _ -> false)
    else
      (match op with
       | Operation.Enable _ -> rt.opts.emit_enables
       | Operation.Fork t' | Operation.Join t' ->
         rt.opts.log_native || not (thread_by_tid rt t').is_native
       | _ -> true)
  in
  if observed then rt.obs_rev <- e :: rt.obs_rev;
  rt.clock <- rt.clock + 1

(* {1 Tasks} *)

let fresh_task rt name =
  let n = Option.value (Hashtbl.find_opt rt.task_instances name) ~default:0 in
  Hashtbl.replace rt.task_instances name (n + 1);
  Task_id.make ~name ~instance:n

let register_task rt id ~body ~owner =
  Task_id.Table.replace rt.tasks id
    { t_body = body
    ; t_owner = owner
    ; t_hooks_rev = []
    ; t_posted = false
    ; t_begun = false
    ; t_cancelled = false
    ; t_delay = None
    ; t_post_step = 0
    }

let task_info rt id =
  match Task_id.Table.find rt.tasks id with
  | info -> info
  | exception Not_found ->
    stuck "interpreter bug: unregistered task %a" Task_id.pp id

let add_hook rt id f =
  let info = task_info rt id in
  info.t_hooks_rev <- f :: info.t_hooks_rev

let do_post rt (thr : thr) id ~target ~flavour =
  let info = task_info rt id in
  info.t_posted <- true;
  info.t_post_step <- rt.clock;
  (info.t_delay <-
     (match flavour with
      | Operation.Delayed d -> Some d
      | Operation.Immediate | Operation.Front -> None));
  Obs.add "runtime.posts";
  emit rt thr (Operation.Post { task = id; target; flavour })

(* {1 Threads} *)

let new_thread rt ~name ~native ~queue ~body ~exits ~actx =
  let tid = Thread_id.make rt.next_tid in
  rt.next_tid <- rt.next_tid + 1;
  let thr =
    make_thread ~tid ~name ~native ~queue
      ~frames:(if queue then [] else [ body ])
      ~exits ~actx
  in
  add_thread rt thr;
  thr

(* {1 Binder transactions} *)

let binder_post rt id flavour =
  let btid, binder = Binder.next rt.binder in
  rt.binder <- binder;
  Queue.add (id, flavour) (thread_by_tid rt btid).inbox

(* {1 Activities and enables} *)

let current_activity rt (thr : thr) =
  let by_obj obj = Hashtbl.find_opt rt.all_activities obj in
  let from_task =
    match thr.running with
    | Some id -> Option.bind (task_info rt id).t_owner by_obj
    | None -> None
  in
  let from_actx =
    match thr.actx with
    | Some a -> Option.bind a.a_owner by_obj
    | None -> None
  in
  match from_task, from_actx, rt.stack with
  | Some a, _, _ -> Some a
  | None, Some a, _ -> Some a
  | None, None, top :: _ -> Some top
  | None, None, [] -> None

let lifecycle_task_name (act : act_inst) cb_name =
  Printf.sprintf "%s_%d.%s" act.program.activity_name act.obj cb_name

(* Allocate, register and enable a lifecycle-callback instance; the
   enable is emitted by [thr] (the thread causally responsible). *)
let enable_cb rt (thr : thr) act cb_name ~body =
  let id = fresh_task rt (lifecycle_task_name act cb_name) in
  register_task rt id ~body ~owner:(Some act.obj);
  emit rt thr (Operation.Enable id);
  Hashtbl.replace act.cb_enabled cb_name id;
  id

let enable_ui_handler rt (thr : thr) act (h : Program.ui_handler) =
  if not (Hashtbl.mem act.ui_enabled h.event) then begin
    let id = fresh_task rt h.event in
    register_task rt id ~body:(instrs h.handler_body) ~owner:(Some act.obj);
    emit rt thr (Operation.Enable id);
    Hashtbl.replace act.ui_enabled h.event id
  end

(* Launch-completion bookkeeping: the activity reaches Running, its
   screen shows (UI handlers become enabled) and the runtime publishes
   the lifecycle callbacks that may now fire: onPause, and — since a
   launched activity "may get destroyed at any time" (Section 2.3,
   operation 9 of Figure 3) — onDestroy. *)
let on_screen_shown rt (thr : thr) act =
  act.astate <- Lifecycle.Running;
  List.iter
    (fun (h : Program.ui_handler) ->
       if h.initially_enabled then enable_ui_handler rt thr act h)
    act.program.ui;
  (* "the activity thus created may get destroyed at any time": the
     enable of operation 9 of Figure 3 *)
  ignore (enable_cb rt thr act "onDestroy" ~body:(instrs act.program.on_destroy))

(* The enabled instance of a callback if the runtime already published
   one, else enable it now from the initiating context — the way
   operation 21 of Figure 3 enables onPause inside the startActivity
   call. *)
let claim_cb rt (thr : thr) act cb_name ~body =
  match Hashtbl.find_opt act.cb_enabled cb_name with
  | Some id ->
    Hashtbl.remove act.cb_enabled cb_name;
    id
  | None ->
    let id = enable_cb rt thr act cb_name ~body in
    Hashtbl.remove act.cb_enabled cb_name;
    id

let new_activity_instance rt name =
  match Program.find_activity rt.prepared.p_app name with
  | None -> stuck "unknown activity %s" name
  | Some program ->
    let obj = rt.next_obj in
    rt.next_obj <- obj + 1;
    let inst =
      { program
      ; obj
      ; astate = Lifecycle.initial_activity_state
      ; ui_enabled = Hashtbl.create 4
      ; cb_enabled = Hashtbl.create 4
      }
    in
    Hashtbl.replace rt.all_activities obj inst;
    inst

(* Launch a fresh instance of an activity: enable + binder-post the
   LAUNCH_ACTIVITY task, whose body runs onCreate/onStart/onResume
   synchronously (Section 2.2, steps 6.1–6.3). *)
let launch_activity rt (thr : thr) name ~after =
  let act = new_activity_instance rt name in
  let body =
    instrs
      (act.program.on_create @ act.program.on_start @ act.program.on_resume)
  in
  let id = fresh_task rt (Printf.sprintf "LAUNCH_%s_%d" name act.obj) in
  register_task rt id ~body ~owner:(Some act.obj);
  emit rt thr (Operation.Enable id);
  rt.stack <- act :: rt.stack;
  add_hook rt id (fun () ->
    on_screen_shown rt (main rt) act;
    after act);
  binder_post rt id Operation.Immediate;
  act

(* Bring a stopped activity back to the foreground:
   onRestart/onStart/onResume as one posted task. *)
let resume_activity rt (thr : thr) act =
  let body =
    instrs
      (act.program.on_restart @ act.program.on_start @ act.program.on_resume)
  in
  let id =
    fresh_task rt
      (Printf.sprintf "RESUME_%s_%d" act.program.activity_name act.obj)
  in
  register_task rt id ~body ~owner:(Some act.obj);
  emit rt thr (Operation.Enable id);
  add_hook rt id (fun () -> on_screen_shown rt (main rt) act);
  binder_post rt id Operation.Immediate

let pop_activity rt act =
  rt.stack <- List.filter (fun a -> a.obj <> act.obj) rt.stack

(* Tear an activity down.  [thr] initiates (a finish() statement or the
   driver injecting BACK/rotate).  In the compressed mode of the paper's
   Figure 4, onDestroy — enabled since the launch completed — is posted
   directly; the full mode runs the onPause/onStop/onDestroy chain, each
   callback enabled when its predecessor completes. *)
let teardown_activity rt (thr : thr) act ~after_destroy =
  let post_destroy from_thr =
    let id =
      claim_cb rt from_thr act "onDestroy" ~body:(instrs act.program.on_destroy)
    in
    add_hook rt id (fun () ->
      act.astate <- Lifecycle.Destroyed;
      pop_activity rt act;
      after_destroy ());
    binder_post rt id Operation.Immediate
  in
  if rt.opts.compressed_lifecycle then post_destroy thr
  else begin
    let pause_id =
      claim_cb rt thr act "onPause" ~body:(instrs act.program.on_pause)
    in
    add_hook rt pause_id (fun () ->
      act.astate <- Lifecycle.Paused;
      let stop_id =
        claim_cb rt (main rt) act "onStop" ~body:(instrs act.program.on_stop)
      in
      add_hook rt stop_id (fun () ->
        act.astate <- Lifecycle.Stopped;
        post_destroy (main rt));
      binder_post rt stop_id Operation.Immediate);
    binder_post rt pause_id Operation.Immediate
  end

(* startActivity(B): enable + post onPause of the current activity (the
   enable inside the calling task is operation 21 of Figure 3), then
   launch B once it completes, then stop the caller. *)
let start_activity_flow rt (thr : thr) from_act b_name =
  match from_act with
  | None ->
    ignore (launch_activity rt thr b_name ~after:(fun _ -> ()))
  | Some a ->
    let pause_id = claim_cb rt thr a "onPause" ~body:(instrs a.program.on_pause) in
    add_hook rt pause_id (fun () ->
      a.astate <- Lifecycle.Paused;
      ignore
        (launch_activity rt (main rt) b_name ~after:(fun _b ->
           let stop_id =
             claim_cb rt (main rt) a "onStop" ~body:(instrs a.program.on_stop)
           in
           add_hook rt stop_id (fun () -> a.astate <- Lifecycle.Stopped);
           binder_post rt stop_id Operation.Immediate)));
    binder_post rt pause_id Operation.Immediate

let back_flow rt (thr : thr) =
  match rt.stack with
  | [] -> ()
  | act :: rest ->
    teardown_activity rt thr act ~after_destroy:(fun () ->
      match rest with
      | prev :: _ -> resume_activity rt (main rt) prev
      | [] -> ())

let rotate_flow rt (thr : thr) =
  match rt.stack with
  | [] -> ()
  | act :: _ ->
    let name = act.program.activity_name in
    teardown_activity rt thr act ~after_destroy:(fun () ->
      ignore (launch_activity rt (main rt) name ~after:(fun _ -> ())))

(* {1 Services and broadcasts} *)

let service_flow rt (thr : thr) name ~start =
  match Program.find_service rt.prepared.p_app name with
  | None -> stuck "unknown service %s" name
  | Some svc ->
    let created =
      Option.value (Hashtbl.find_opt rt.services_created name) ~default:false
    in
    let enable_and_post task_name body hook =
      let id = fresh_task rt task_name in
      register_task rt id ~body:(instrs body) ~owner:None;
      emit rt thr (Operation.Enable id);
      (match hook with
       | Some f -> add_hook rt id f
       | None -> ());
      binder_post rt id Operation.Immediate
    in
    if start then begin
      if created then
        enable_and_post (name ^ ".onStartCommand") svc.on_start_command None
      else begin
        Hashtbl.replace rt.services_created name true;
        enable_and_post (name ^ ".onCreateService") svc.on_create_svc
          (Some
             (fun () ->
                enable_and_post (name ^ ".onStartCommand") svc.on_start_command
                  None))
      end
    end
    else if created then begin
      Hashtbl.replace rt.services_created name false;
      enable_and_post (name ^ ".onDestroyService") svc.on_destroy_svc None
    end

let broadcast_flow rt (thr : thr) action =
  List.iter
    (fun (r : Program.receiver) ->
       if String.equal r.action action then begin
         let id = fresh_task rt (r.receiver_name ^ ".onReceive") in
         register_task rt id ~body:(instrs r.on_receive) ~owner:None;
         emit rt thr (Operation.Enable id);
         binder_post rt id Operation.Immediate
       end)
    rt.prepared.p_app.receivers

(* {1 Statement interpretation} *)

let push_frame (thr : thr) body = thr.frames <- body :: thr.frames

let resolve_target rt = function
  | Program.Main_thread -> Some (main rt)
  | Program.Named_thread n ->
    (match thread_by_name rt n with
     | Some t when t.has_queue -> if t.inited then Some t else None
     | Some _ | None -> None)

let interpret_stmt rt (thr : thr) (s : Program.stmt) =
  match s with
  | Program.Read f -> emit rt thr (Operation.Read f)
  | Program.Write f -> emit rt thr (Operation.Write f)
  | Program.Synchronized (l, body) ->
    let lock = Hashtbl.find rt.prepared.p_monitors l in
    let mine_or_free () =
      match State.lock_holder rt.sem lock with
      | None -> true
      | Some holder -> Thread_id.equal holder thr.tid
    in
    let enter () =
      emit rt thr (Operation.Acquire lock);
      push_frame thr (instrs body @ [ Release_monitor lock ])
    in
    if mine_or_free () then enter ()
    else thr.waiting <- Some { can_proceed = mine_or_free; proceed = enter }
  | Program.Fork (name, body) ->
    let t = new_thread rt ~name ~native:false ~queue:false ~body:(instrs body)
              ~exits:true ~actx:None
    in
    emit rt thr (Operation.Fork t.tid)
  | Program.Fork_native (name, body) ->
    let t = new_thread rt ~name ~native:true ~queue:false ~body:(instrs body)
              ~exits:true ~actx:None
    in
    emit rt thr (Operation.Fork t.tid)
  | Program.Fork_looper name ->
    let t = new_thread rt ~name ~native:false ~queue:true ~body:[] ~exits:false
              ~actx:None
    in
    emit rt thr (Operation.Fork t.tid)
  | Program.Join name ->
    let target () = thread_by_name rt name in
    let ready () =
      match target () with
      | Some t -> t.exited
      | None -> false
    in
    let go () =
      match target () with
      | Some t -> emit rt thr (Operation.Join t.tid)
      | None -> ()
    in
    if ready () then go ()
    else thr.waiting <- Some { can_proceed = ready; proceed = go }
  | Program.Post { proc; target; delay; front } ->
    let body =
      match Hashtbl.find_opt rt.prepared.p_procs proc with
      | Some b -> b
      | None -> stuck "unknown procedure %s" proc
    in
    let flavour =
      match delay, front with
      | Some d, false -> Operation.Delayed d
      | None, true -> Operation.Front
      | None, false -> Operation.Immediate
      | Some _, true -> stuck "post %s is both delayed and front" proc
    in
    let attempt () = Option.is_some (resolve_target rt target) in
    let go () =
      match resolve_target rt target with
      | Some tgt ->
        let owner = Option.map (fun a -> a.obj) (current_activity rt thr) in
        let id = fresh_task rt proc in
        register_task rt id ~body ~owner;
        rt.pending_by_proc <- (proc, id) :: rt.pending_by_proc;
        do_post rt thr id ~target:tgt.tid ~flavour
      | None -> stuck "post target of %s unavailable" proc
    in
    if attempt () then go ()
    else thr.waiting <- Some { can_proceed = attempt; proceed = go }
  | Program.Cancel_last proc ->
    let cancellable (p, id) =
      String.equal p proc
      &&
      let info = task_info rt id in
      info.t_posted && (not info.t_begun) && not info.t_cancelled
    in
    (match List.find_opt cancellable rt.pending_by_proc with
     | Some (_, id) ->
       (task_info rt id).t_cancelled <- true;
       emit rt thr (Operation.Cancel id)
     | None -> ())
  | Program.Execute_async_task spec ->
    push_frame thr (instrs spec.pre @ [ Async_fork spec ])
  | Program.Publish_progress ->
    (match thr.actx with
     | None -> stuck "publishProgress outside an AsyncTask background"
     | Some ctx ->
       let n = ctx.published in
       ctx.published <- n + 1;
       let id = fresh_task rt (ctx.spec.task_name ^ ".onProgressUpdate") in
       register_task rt id ~body:(instrs ctx.spec.progress) ~owner:ctx.a_owner;
       do_post rt thr id ~target:ctx.origin ~flavour:Operation.Immediate)
  | Program.Start_activity name ->
    start_activity_flow rt thr (current_activity rt thr) name
  | Program.Finish_activity ->
    (match current_activity rt thr with
     | Some act ->
       teardown_activity rt thr act ~after_destroy:(fun () ->
         match rt.stack with
         | prev :: _ -> resume_activity rt (main rt) prev
         | [] -> ())
     | None -> ())
  | Program.Start_service name -> service_flow rt thr name ~start:true
  | Program.Stop_service name -> service_flow rt thr name ~start:false
  | Program.Send_broadcast action -> broadcast_flow rt thr action
  | Program.Enable_ui event ->
    (match current_activity rt thr with
     | Some act when Lifecycle.activity_state_equal act.astate Lifecycle.Destroyed
       ->
       (* the screen is gone; setEnabled on its widgets has no effect *)
       ()
     | Some act ->
       (match
          List.find_opt
            (fun (h : Program.ui_handler) -> String.equal h.event event)
            act.program.ui
        with
        | Some h -> enable_ui_handler rt thr act h
        | None -> stuck "activity %s has no handler %s" act.program.activity_name event)
     | None -> stuck "Enable_ui outside any activity")
  | Program.Disable_ui event ->
    (match current_activity rt thr with
     | Some act -> Hashtbl.remove act.ui_enabled event
     | None -> ())
  | Program.Handoff_send f ->
    emit rt thr (Operation.Write f);
    rt.flags <- Location.Set.add f rt.flags
  | Program.Handoff_wait f ->
    let set () = Location.Set.mem f rt.flags in
    let go () = emit rt thr (Operation.Read f) in
    if set () then go ()
    else thr.waiting <- Some { can_proceed = set; proceed = go }

let interpret_instr rt (thr : thr) = function
  | Prog s -> interpret_stmt rt thr s
  | Release_monitor lock -> emit rt thr (Operation.Release lock)
  | Async_fork spec ->
    Obs.add "runtime.async_tasks";
    let owner = Option.map (fun a -> a.obj) (current_activity rt thr) in
    let ctx = { spec; origin = thr.tid; a_owner = owner; published = 0 } in
    let t =
      new_thread rt
        ~name:(Async_task.background_thread_name (Async_task.create ~name:spec.task_name))
        ~native:false ~queue:false
        ~body:(instrs spec.background @ [ Async_finish ])
        ~exits:true ~actx:(Some ctx)
    in
    emit rt thr (Operation.Fork t.tid)
  | Async_finish ->
    (match thr.actx with
     | None -> stuck "Async_finish without an AsyncTask context"
     | Some ctx ->
       let id = fresh_task rt (ctx.spec.task_name ^ ".onPostExecute") in
       register_task rt id ~body:(instrs ctx.spec.post_exec) ~owner:ctx.a_owner;
       do_post rt thr id ~target:ctx.origin ~flavour:Operation.Immediate)

(* {1 Scheduling} *)

(* Drops the empty frames on top of the stack, so that the head of the
   top frame, if any, is the next instruction. *)
let rec drop_empty_frames (thr : thr) =
  match thr.frames with
  | [] :: more ->
    thr.frames <- more;
    drop_empty_frames thr
  | _ -> ()

(* Applies [f] to the pending tasks of a looper thread that the dispatch
   policy and the virtual clock both allow to run now. *)
let iter_dispatchable rt (thr : thr) f =
  match State.queue rt.sem thr.tid with
  | None -> ()
  | Some q ->
    Queue_model.iter_eligible
      (fun id ->
         if not rt.opts.respect_delays then f id
         else
           let info = task_info rt id in
           match info.t_delay with
           | None -> f id
           | Some d -> if rt.clock >= info.t_post_step + d then f id)
      q

(* Completion hooks run while the task is still executing, so that the
   [enable] operations they emit fall inside the task body — as in
   Figure 3, where enable(onDestroy) (operation 9) precedes the end of
   LAUNCH_ACTIVITY (operation 10).  The placement matters: the NOPRE
   rule needs an operation of the completing task to happen before the
   follow-up post. *)
let finish_task rt (thr : thr) id =
  let info = task_info rt id in
  let hooks = List.rev info.t_hooks_rev in
  info.t_hooks_rev <- [];
  List.iter (fun f -> f ()) hooks;
  emit rt thr (Operation.End_task id);
  thr.running <- None

let begin_task rt (thr : thr) id =
  let info = task_info rt id in
  info.t_begun <- true;
  Obs.add "runtime.tasks_dispatched";
  emit rt thr (Operation.Begin_task id);
  thr.running <- Some id;
  push_frame thr info.t_body

(* Is a thread, or a task about to be dispatched, stalled by the
   [hold] option? *)
let held_context rt name = List.mem name rt.opts.hold

let thread_held rt (thr : thr) =
  held_context rt thr.thr_name
  ||
  match thr.running with
  | Some id -> held_context rt (Task_id.name id)
  | None -> false

(* Dispatch candidates of an idle looper thread: [(all, free)] counts
   them and the ones not stalled by [hold]. *)
let dispatch_counts rt (thr : thr) =
  let all = ref 0 and free = ref 0 in
  iter_dispatchable rt thr (fun id ->
    incr all;
    if not (held_context rt (Task_id.name id)) then incr free);
  (!all, !free)

(* Records in [thr.next] and [thr.held] what the thread can do next.
   A stalled context runs only when nothing else can make progress. *)
let classify rt (thr : thr) =
  let set next held =
    thr.next <- next;
    thr.held <- held
  in
  if not (Queue.is_empty thr.inbox) then begin
    if not thr.inited then set Init false
    else
      let id, _ = Queue.peek thr.inbox in
      set Deliver (held_context rt (Task_id.name id))
  end
  else if thr.exited then set Blocked false
  else if not thr.inited then set Init (thread_held rt thr)
  else
    match thr.waiting with
    | Some w ->
      if w.can_proceed () then set Proceed (thread_held rt thr)
      else set Blocked false
    | None ->
      drop_empty_frames thr;
      (match thr.frames, thr.running with
       | _ :: _, _ -> set Instr (thread_held rt thr)
       | [], Some _ -> set Finish (thread_held rt thr)
       | [], None ->
         if thr.has_queue then begin
           match dispatch_counts rt thr with
           | 0, _ -> set Blocked false
           | _, free -> set Dispatch (free = 0)
         end
         else if thr.exits_when_done then set Exit (thread_held rt thr)
         else set Blocked false)

(* Begins one of the dispatchable tasks: a scheduling decision among the
   free candidates, or among all of them when every one is stalled. *)
let dispatch rt (thr : thr) =
  let all, free = dispatch_counts rt thr in
  let only_free = free > 0 in
  let k = ref (choose rt (if only_free then free else all)) in
  let chosen = ref None in
  iter_dispatchable rt thr (fun id ->
    if (not only_free) || not (held_context rt (Task_id.name id)) then begin
      if !k = 0 then chosen := Some id;
      decr k
    end);
  match !chosen with
  | Some id -> begin_task rt thr id
  | None -> assert false

(* Performs the step [classify] recorded. *)
let execute rt (thr : thr) =
  match thr.next with
  | Blocked -> assert false
  | Init ->
    thr.inited <- true;
    emit rt thr Operation.Thread_init;
    if thr.has_queue then begin
      emit rt thr Operation.Attach_queue;
      emit rt thr Operation.Loop_on_queue
    end
  | Deliver ->
    let id, flavour = Queue.pop thr.inbox in
    (* lifecycle, service and receiver tasks all run on main *)
    do_post rt thr id ~target:(main rt).tid ~flavour
  | Proceed ->
    (match thr.waiting with
     | Some w ->
       thr.waiting <- None;
       w.proceed ()
     | None -> assert false)
  | Instr ->
    (match thr.frames with
     | (i :: rest) :: more ->
       thr.frames <- rest :: more;
       interpret_instr rt thr i
     | [] :: _ | [] -> assert false)
  | Finish ->
    (match thr.running with
     | Some id -> finish_task rt thr id
     | None -> assert false)
  | Dispatch -> dispatch rt thr
  | Exit ->
    thr.exited <- true;
    emit rt thr Operation.Thread_exit

(* {1 The driver} *)

let main_quiescent rt =
  let m = main rt in
  (* Stalled tasks do not block quiescence: the "debugger" holds them
     while the driver keeps interacting. *)
  let all_held ids =
    List.for_all (fun id -> held_context rt (Task_id.name id)) ids
  in
  let inbox_held (thr : thr) =
    Queue.fold
      (fun acc (id, _) -> acc && held_context rt (Task_id.name id))
      true thr.inbox
  in
  m.inited
  && m.running = None
  && m.frames = []
  && (match State.queue rt.sem m.tid with
      | Some q -> all_held (Queue_model.pending q)
      | None -> false)
  &&
  let rec inboxes_held i =
    i >= rt.n_threads || (inbox_held rt.threads.(i) && inboxes_held (i + 1))
  in
  inboxes_held 0

let event_available rt = function
  | Click e ->
    (match rt.stack with
     | top :: _ -> Hashtbl.mem top.ui_enabled e
     | [] -> false)
  | Back | Rotate -> rt.stack <> []
  | Intent action ->
    List.exists
      (fun (act : Program.activity) -> List.mem action act.Program.intent_filters)
      rt.prepared.p_app.activities

let inject rt event =
  let m = main rt in
  match event with
  | Click e ->
    (match rt.stack with
     | top :: _ ->
       (match Hashtbl.find_opt top.ui_enabled e with
        | Some id ->
          Hashtbl.remove top.ui_enabled e;
          do_post rt m id ~target:m.tid ~flavour:Operation.Immediate;
          (* the widget stays enabled: publish the next instance *)
          (match
             List.find_opt
               (fun (h : Program.ui_handler) -> String.equal h.event e)
               top.program.ui
           with
           | Some h -> enable_ui_handler rt m top h
           | None -> ())
        | None -> ())
     | [] -> ())
  | Back -> back_flow rt m
  | Rotate -> rotate_flow rt m
  | Intent action ->
    (* deliver an external intent: launch the first matching activity,
       pausing the current foreground activity as startActivity does *)
    (match
       List.find_opt
         (fun (act : Program.activity) ->
            List.mem action act.Program.intent_filters)
         rt.prepared.p_app.activities
     with
     | Some target ->
       (match rt.stack with
        | top :: _ ->
          start_activity_flow rt m (Some top) target.Program.activity_name
        | [] ->
          ignore
            (launch_activity rt m target.Program.activity_name
               ~after:(fun _ -> ())))
     | None -> ())

(* The earliest virtual time at which a pending delayed task expires. *)
let earliest_delay_expiry rt =
  Task_id.Table.fold
    (fun _ (info : task_info) acc ->
       if info.t_posted && (not info.t_begun) && not info.t_cancelled then
         match info.t_delay with
         | Some d ->
           let expiry = info.t_post_step + d in
           if expiry > rt.clock then
             Some
               (match acc with
                | Some e -> min e expiry
                | None -> expiry)
           else acc
         | None -> acc
       else acc)
    rt.tasks None

let run_prepared ?(options = default_options) prepared events =
  Obs.with_span "runtime.run" @@ fun () ->
  let app = prepared.p_app in
  let rng =
    match options.policy with
    | Round_robin | Scripted _ -> None
    | Seeded seed -> Some (Random.State.make [| seed |])
  in
  let script =
    match options.policy with
    | Scripted s -> s
    | Round_robin | Seeded _ -> []
  in
  let m =
    make_thread ~tid:(Thread_id.make 1) ~name:"main" ~native:false ~queue:true
      ~frames:[] ~exits:false ~actx:None
  in
  let rt =
    { prepared
    ; opts = options
    ; rng
    ; script
    ; arities_rev = []
    ; rr_counter = 0
    ; sem = State.initial
    ; full_rev = []
    ; obs_rev = []
    ; threads = [| m |]
    ; n_threads = 0
    ; by_tid = Hashtbl.create 16
    ; by_name = Hashtbl.create 16
    ; next_tid = 2 + options.binder_pool_size
    ; task_instances = Hashtbl.create 64
    ; tasks = Task_id.Table.create 64
    ; binder = Binder.create ~size:options.binder_pool_size ~first_tid:2
    ; stack = []
    ; all_activities = Hashtbl.create 4
    ; next_obj = 0
    ; flags = Location.Set.empty
    ; clock = 0
    ; steps = 0
    ; services_created = Hashtbl.create 4
    ; pending_by_proc = []
    }
  in
  add_thread rt m;
  (* the binder pool *)
  List.iter
    (fun btid ->
       add_thread rt
         (make_thread ~tid:btid
            ~name:("binder" ^ string_of_int (Thread_id.to_int btid))
            ~native:false ~queue:false ~frames:[] ~exits:false ~actx:None))
    (Binder.threads rt.binder);
  (* launch: the main thread initialises and enables the main activity's
     LAUNCH (operations 1–4 of Figure 3), then AMS posts it. *)
  m.inited <- true;
  emit rt m Operation.Thread_init;
  emit rt m Operation.Attach_queue;
  emit rt m Operation.Loop_on_queue;
  ignore (launch_activity rt m app.main_activity ~after:(fun _ -> ()));
  let pending_events = ref events in
  let injected = ref [] in
  let skipped = ref [] in
  (* One scheduling step.  The alternatives are, in order, the pending
     UI event (once the main thread is quiescent and the event is
     enabled) and then every thread that can progress, in creation
     order; stalled contexts count only when nothing else can run. *)
  let rec loop () =
    if rt.steps > options.max_steps then
      stuck "exceeded %d steps (livelock?)" options.max_steps;
    let free = ref 0 and held = ref 0 in
    for i = 0 to rt.n_threads - 1 do
      let thr = rt.threads.(i) in
      classify rt thr;
      match thr.next with
      | Blocked -> ()
      | Init | Deliver | Proceed | Instr | Finish | Dispatch | Exit ->
        if thr.held then incr held else incr free
    done;
    let ui =
      match !pending_events with
      | e :: _ -> main_quiescent rt && event_available rt e
      | [] -> false
    in
    if ui then incr free;
    let only_free = !free > 0 in
    match if only_free then !free else !held with
    | 0 ->
      (match earliest_delay_expiry rt with
       | Some expiry ->
         rt.clock <- expiry;
         loop ()
       | None ->
         (match !pending_events with
          | e :: rest ->
            (* fully quiescent and the event is unavailable: drop it *)
            pending_events := rest;
            skipped := e :: !skipped;
            loop ()
          | [] -> ()))
    | n ->
      rt.steps <- rt.steps + 1;
      let k = choose rt n in
      (if ui && k = 0 then begin
         match !pending_events with
         | e :: rest ->
           pending_events := rest;
           injected := e :: !injected;
           Obs.add "runtime.ui_events_dispatched";
           inject rt e
         | [] -> assert false
       end
       else begin
         let k = ref (if ui then k - 1 else k) and i = ref 0 in
         while !k >= 0 do
           let thr = rt.threads.(!i) in
           (match thr.next with
            | Blocked -> ()
            | Init | Deliver | Proceed | Instr | Finish | Dispatch | Exit ->
              if (not only_free) || not thr.held then begin
                if !k = 0 then execute rt thr;
                decr k
              end);
           incr i
         done
       end);
      loop ()
  in
  loop ();
  let enabled_at_end =
    match rt.stack with
    | [] -> []
    | top :: _ ->
      let clicks =
        Hashtbl.fold (fun e _ acc -> Click e :: acc) top.ui_enabled []
        |> List.sort compare
      in
      clicks @ [ Back; Rotate ]
  in
  let to_trace rev =
    match Trace.of_rev_events rev with
    | Ok t -> t
    | Error msg -> stuck "interpreter bug: ill-formed trace: %s" msg
  in
  Obs.set_span_arg "steps" (string_of_int rt.steps);
  let full_rev = rt.full_rev in
  { observed = to_trace rt.obs_rev
  ; full = lazy (to_trace full_rev)
  ; thread_names =
      List.init rt.n_threads (fun i ->
        let t = rt.threads.(i) in
        (t.tid, t.thr_name))
  ; injected = List.rev !injected
  ; skipped = List.rev !skipped
  ; enabled_at_end
  ; choice_arities = List.rev rt.arities_rev
  ; steps = rt.steps
  }

let run ?options app events =
  run_prepared ?options (prepare_as "Runtime.run" app) events
