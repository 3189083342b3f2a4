module Thread_id = Ident.Thread_id
module Task_id = Ident.Task_id
module Lock_id = Ident.Lock_id

(* {1 Rules} *)

type rule =
  | Thread_reinitialized
  | Late_thread_init
  | Operation_after_exit
  | Fork_existing_thread
  | Join_unfinished_thread
  | Double_attach
  | Loop_without_attach
  | Double_loop
  | Post_without_queue
  | Double_post
  | Begin_without_post
  | Begin_wrong_thread
  | Begin_without_loop
  | Double_begin
  | Nested_begin
  | Fifo_violation
  | End_without_begin
  | Double_enable
  | Cancel_not_pending
  | Unbalanced_release
  | Lock_held_elsewhere

let rule_name = function
  | Thread_reinitialized -> "thread-reinitialized"
  | Late_thread_init -> "late-thread-init"
  | Operation_after_exit -> "operation-after-exit"
  | Fork_existing_thread -> "fork-existing-thread"
  | Join_unfinished_thread -> "join-unfinished-thread"
  | Double_attach -> "double-attach"
  | Loop_without_attach -> "loop-without-attach"
  | Double_loop -> "double-loop"
  | Post_without_queue -> "post-without-queue"
  | Double_post -> "double-post"
  | Begin_without_post -> "begin-without-post"
  | Begin_wrong_thread -> "begin-wrong-thread"
  | Begin_without_loop -> "begin-without-loop"
  | Double_begin -> "double-begin"
  | Nested_begin -> "nested-begin"
  | Fifo_violation -> "fifo-violation"
  | End_without_begin -> "end-without-begin"
  | Double_enable -> "double-enable"
  | Cancel_not_pending -> "cancel-not-pending"
  | Unbalanced_release -> "unbalanced-release"
  | Lock_held_elsewhere -> "lock-held-elsewhere"

let all_rules =
  [ Thread_reinitialized
  ; Late_thread_init
  ; Operation_after_exit
  ; Fork_existing_thread
  ; Join_unfinished_thread
  ; Double_attach
  ; Loop_without_attach
  ; Double_loop
  ; Post_without_queue
  ; Double_post
  ; Begin_without_post
  ; Begin_wrong_thread
  ; Begin_without_loop
  ; Double_begin
  ; Nested_begin
  ; Fifo_violation
  ; End_without_begin
  ; Double_enable
  ; Cancel_not_pending
  ; Unbalanced_release
  ; Lock_held_elsewhere
  ]

(* {1 Errors} *)

type error =
  { line : int
  ; rule : rule
  ; event : Trace.event
  ; related : (int * Trace.event) list
  ; message : string
  }

let pp_error ppf e =
  Format.fprintf ppf "line %d: [%s] %s" e.line (rule_name e.rule) e.message;
  List.iter
    (fun (l, ev) ->
       Format.fprintf ppf "@\n  see line %d: %a %a" l Thread_id.pp
         ev.Trace.thread Operation.pp ev.Trace.op)
    e.related

let error_message e = Format.asprintf "%a" pp_error e

(* {1 Statistics} *)

type stats =
  { events : int
  ; threads : int
  ; queue_threads : int
  ; tasks : int
  ; completed_tasks : int
  ; pending_tasks : int
  ; locks : int
  ; accesses : int
  ; max_queue_depth : int
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "%d events, %d threads (%d with queues), %d tasks (%d completed, %d \
     pending at end), %d locks, %d accesses, max queue depth %d"
    s.events s.threads s.queue_threads s.tasks s.completed_tasks
    s.pending_tasks s.locks s.accesses s.max_queue_depth

(* {1 The single-pass checker}

   State is proportional to the number of live entities — threads,
   locks, and tasks seen — never to the raw event count, so arbitrarily
   long traces stream through.  The queue discipline mirrors
   [Queue_model] of the semantics library exactly (that library sits
   above this one in the dependency order, so the ~20 policy lines are
   restated here; the qcheck suite keeps the two in agreement by
   construction: every interpreter-emitted trace must pass). *)

type pending =
  { pd_task : Task_id.t
  ; pd_flavour : Operation.post_flavour
  ; pd_seq : int
  ; pd_line : int
  ; pd_event : Trace.event
  }

type thread_state =
  { mutable inited : (int * Trace.event) option
  ; mutable exited : (int * Trace.event) option
  ; mutable forked : (int * Trace.event) option
  ; mutable attached : (int * Trace.event) option
  ; mutable looping : (int * Trace.event) option
  ; mutable executing : (Task_id.t * int * Trace.event) option
  ; mutable queue : pending list
        (** the pending tasks, oldest first: [queue], then [arrivals]
            reversed *)
  ; mutable arrivals : pending list  (** newest first *)
  ; mutable queued : int  (** pending tasks *)
  ; mutable fronts : int  (** front posts pending *)
  ; mutable next_seq : int
  ; mutable op_count : int
  }

type task_state =
  { mutable posted : (int * Trace.event * Thread_id.t) option
  ; mutable begun : (int * Trace.event) option
  ; mutable ended : (int * Trace.event) option
  ; mutable enabled : (int * Trace.event) option
  ; mutable cancelled : (int * Trace.event) option
  }

type lock_state =
  { mutable holder : Thread_id.t option
  ; mutable depth : int
  ; mutable last_acquire : (int * Trace.event) option
  }

type state =
  { threads : thread_state Ident.Int_table.t
  ; tasks : task_state Task_id.Table.t
  ; locks : (string, lock_state) Hashtbl.t
  ; mutable n_events : int
  ; mutable n_accesses : int
  ; mutable n_tasks : int
  ; mutable n_completed : int
  ; mutable max_queue_depth : int
  }

let create () =
  { threads = Ident.Int_table.create 16
  ; tasks = Task_id.Table.create 64
  ; locks = Hashtbl.create 8
  ; n_events = 0
  ; n_accesses = 0
  ; n_tasks = 0
  ; n_completed = 0
  ; max_queue_depth = 0
  }

let thread_state st t =
  let key = Thread_id.to_int t in
  match Ident.Int_table.find_opt st.threads key with
  | Some s -> s
  | None ->
    let s =
      { inited = None
      ; exited = None
      ; forked = None
      ; attached = None
      ; looping = None
      ; executing = None
      ; queue = []
      ; arrivals = []
      ; queued = 0
      ; fronts = 0
      ; next_seq = 0
      ; op_count = 0
      }
    in
    Ident.Int_table.add st.threads key s;
    s

let task_state st p =
  match Task_id.Table.find_opt st.tasks p with
  | Some s -> s
  | None ->
    let s =
      { posted = None; begun = None; ended = None; enabled = None
      ; cancelled = None }
    in
    Task_id.Table.add st.tasks p s;
    s

let lock_state st l =
  let key = Lock_id.to_string l in
  match Hashtbl.find_opt st.locks key with
  | Some s -> s
  | None ->
    let s = { holder = None; depth = 0; last_acquire = None } in
    Hashtbl.add st.locks key s;
    s

exception Reject of error

let reject ~line ~rule ~event ?(related = []) fmt =
  Format.kasprintf
    (fun message -> raise (Reject { line; rule; event; related; message }))
    fmt

(* The dispatch policy of [Queue_model], restated over [pending]
   entries: front posts pre-empt everything (most recent first); among
   immediate posts strict FIFO; a delayed post waits for every earlier
   immediate post and every earlier delayed post with a smaller or
   equal timeout.  [blocks entry e]: with no front post pending, [e],
   posted before [entry], must be dispatched first. *)
let blocks (entry : pending) e =
  match entry.pd_flavour, e.pd_flavour with
  | (Operation.Immediate | Operation.Delayed _), Operation.Immediate -> true
  | Operation.Delayed d, Operation.Delayed d' -> d' <= d
  | Operation.Immediate, (Operation.Delayed _ | Operation.Front)
  | Operation.Delayed _, Operation.Front
  | Operation.Front, _ -> false

let dispatch_blockers queue (entry : pending) =
  let fronts =
    List.filter (fun e -> e.pd_flavour = Operation.Front) queue
  in
  match List.rev fronts with
  | top :: _ ->
    if Task_id.equal top.pd_task entry.pd_task then [] else [ top ]
  | [] -> List.filter (fun e -> e.pd_seq < entry.pd_seq && blocks entry e) queue

(* The whole pending queue of a thread, oldest first. *)
let pending_queue ts = ts.queue @ List.rev ts.arrivals

(* Task [p]'s entry in the pending queue, with the entries before it
   (nearest first) and after it; the walk stops at [p], and reads the
   arrivals only when [p] is not among the older entries. *)
let find_pending ts p =
  let rec go before = function
    | [] -> None
    | e :: after ->
      if Task_id.equal e.pd_task p then Some (before, e, after)
      else go (e :: before) after
  in
  match go [] ts.queue with
  | Some _ as found -> found
  | None when ts.arrivals = [] -> None
  | None ->
    ts.queue <- pending_queue ts;
    ts.arrivals <- [];
    go [] ts.queue

let remove_pending ts (before, e, after) =
  ts.queue <- List.rev_append before after;
  ts.queued <- ts.queued - 1;
  if e.pd_flavour = Operation.Front then ts.fronts <- ts.fronts - 1

(* Every operation counts, and a thread performs no operation after
   its threadexit (at line [l], event [ev]). *)
let enter st ts =
  st.n_events <- st.n_events + 1;
  ts.op_count <- ts.op_count + 1

let reject_after_exit ~line ~event (l, ev) =
  reject ~line ~rule:Operation_after_exit ~event ~related:[ (l, ev) ]
    "thread %a executes %a after its threadexit (line %d)" Thread_id.pp
    event.Trace.thread Operation.pp event.Trace.op l

let step_exn st ts ~line event =
  let { Trace.thread = t; op } = event in
  enter st ts;
  (match ts.exited with
   | Some exit -> reject_after_exit ~line ~event exit
   | None -> ());
  match op with
  | Operation.Thread_init ->
    (match ts.inited with
     | Some (l, ev) ->
       reject ~line ~rule:Thread_reinitialized ~event ~related:[ (l, ev) ]
         "thread %a initialised twice (first at line %d)" Thread_id.pp t l
     | None -> ());
    if ts.op_count > 1 then
      reject ~line ~rule:Late_thread_init ~event
        "thread %a initialised after already executing %d operation%s"
        Thread_id.pp t (ts.op_count - 1)
        (if ts.op_count = 2 then "" else "s");
    ts.inited <- Some (line, event)
  | Operation.Thread_exit -> ts.exited <- Some (line, event)
  | Operation.Fork t' ->
    let ts' = thread_state st t' in
    (match ts'.forked, ts'.inited with
     | Some ((l, _) as p), _ | None, Some ((l, _) as p) ->
       reject ~line ~rule:Fork_existing_thread ~event ~related:[ p ]
         "forked thread %a already exists (line %d)" Thread_id.pp t' l
     | None, None ->
       if ts'.op_count > 0 then
         reject ~line ~rule:Fork_existing_thread ~event
           "forked thread %a already executed operations" Thread_id.pp t');
    ts'.forked <- Some (line, event)
  | Operation.Join t' ->
    let ts' = thread_state st t' in
    (match ts'.exited with
     | Some _ -> ()
     | None ->
       reject ~line ~rule:Join_unfinished_thread ~event
         "joined thread %a has no prior threadexit" Thread_id.pp t')
  | Operation.Attach_queue ->
    (match ts.attached with
     | Some (l, ev) ->
       reject ~line ~rule:Double_attach ~event ~related:[ (l, ev) ]
         "thread %a attaches a queue twice (first at line %d)" Thread_id.pp t
         l
     | None -> ts.attached <- Some (line, event))
  | Operation.Loop_on_queue ->
    (match ts.looping, ts.attached with
     | Some (l, ev), _ ->
       reject ~line ~rule:Double_loop ~event ~related:[ (l, ev) ]
         "thread %a loops on its queue twice (first at line %d)" Thread_id.pp
         t l
     | None, None ->
       reject ~line ~rule:Loop_without_attach ~event
         "thread %a loops on a queue it never attached (attachq must \
          precede looponq)"
         Thread_id.pp t
     | None, Some _ -> ts.looping <- Some (line, event))
  | Operation.Post { task = p; target; flavour } ->
    let tgt = thread_state st target in
    (match tgt.attached with
     | None ->
       reject ~line ~rule:Post_without_queue ~event
         "task %a posted to thread %a, which has no task queue (no prior \
          attachq)"
         Task_id.pp p Thread_id.pp target
     | Some _ -> ());
    let info = task_state st p in
    (match info.posted with
     | Some (l, ev, _) ->
       reject ~line ~rule:Double_post ~event ~related:[ (l, ev) ]
         "task %a posted twice (first at line %d); instances must be \
          renamed uniquely"
         Task_id.pp p l
     | None ->
       info.posted <- Some (line, event, target);
       st.n_tasks <- st.n_tasks + 1;
       tgt.arrivals <-
         { pd_task = p
         ; pd_flavour = flavour
         ; pd_seq = tgt.next_seq
         ; pd_line = line
         ; pd_event = event
         }
         :: tgt.arrivals;
       tgt.next_seq <- tgt.next_seq + 1;
       tgt.queued <- tgt.queued + 1;
       if flavour = Operation.Front then tgt.fronts <- tgt.fronts + 1;
       st.max_queue_depth <- max st.max_queue_depth tgt.queued)
  | Operation.Begin_task p ->
    let info = task_state st p in
    (match info.posted with
     | None ->
       reject ~line ~rule:Begin_without_post ~event
         "task %a begins without a prior post" Task_id.pp p
     | Some (l, ev, target) ->
       if not (Thread_id.equal target t) then
         reject ~line ~rule:Begin_wrong_thread ~event ~related:[ (l, ev) ]
           "task %a begins on %a but was posted to %a (line %d)" Task_id.pp p
           Thread_id.pp t Thread_id.pp target l);
    (match info.begun with
     | Some (l, ev) ->
       reject ~line ~rule:Double_begin ~event ~related:[ (l, ev) ]
         "task %a begins twice (first at line %d)" Task_id.pp p l
     | None -> ());
    (match info.cancelled with
     | Some (l, ev) ->
       reject ~line ~rule:Begin_without_post ~event ~related:[ (l, ev) ]
         "task %a begins after being cancelled (line %d)" Task_id.pp p l
     | None -> ());
    if ts.looping = None then
      reject ~line ~rule:Begin_without_loop ~event
        "task %a begins on thread %a, which never executed looponq"
        Task_id.pp p Thread_id.pp t;
    (match ts.executing with
     | Some (q, l, ev) ->
       reject ~line ~rule:Nested_begin ~event ~related:[ (l, ev) ]
         "task %a begins inside task %a on %a (tasks run to completion; \
          begun at line %d)"
         Task_id.pp p Task_id.pp q Thread_id.pp t l
     | None -> ());
    (match find_pending ts p with
     | None ->
       (* posted, not begun, not cancelled, target = t: the entry must be
          pending — this is unreachable, kept as a guard. *)
       reject ~line ~rule:Begin_without_post ~event
         "task %a is not pending on thread %a" Task_id.pp p Thread_id.pp t
     | Some ((before, entry, _) as found) ->
       (* With no front post pending, only the entries before [p] can
          block it; the whole queue is read on the reject path alone. *)
       (if ts.fronts > 0 || List.exists (blocks entry) before then
          match dispatch_blockers (pending_queue ts) entry with
          | [] -> ()
          | blockers ->
            reject ~line ~rule:Fifo_violation ~event
              ~related:(List.map (fun b -> (b.pd_line, b.pd_event)) blockers)
              "task %a dispatched out of order on %a: the queue policy \
               requires %a first"
              Task_id.pp p Thread_id.pp t
              (Format.pp_print_list
                 ~pp_sep:(fun f () -> Format.fprintf f ", ")
                 Task_id.pp)
              (List.map (fun b -> b.pd_task) blockers));
       remove_pending ts found;
       info.begun <- Some (line, event);
       ts.executing <- Some (p, line, event))
  | Operation.End_task p ->
    (match ts.executing with
     | Some (q, _, _) when Task_id.equal p q ->
       ts.executing <- None;
       (task_state st p).ended <- Some (line, event);
       st.n_completed <- st.n_completed + 1
     | Some (q, l, ev) ->
       reject ~line ~rule:End_without_begin ~event ~related:[ (l, ev) ]
         "end of task %a on %a, but %a is executing (begun at line %d)"
         Task_id.pp p Thread_id.pp t Task_id.pp q l
     | None ->
       reject ~line ~rule:End_without_begin ~event
         "end of task %a on %a, which is executing no task" Task_id.pp p
         Thread_id.pp t)
  | Operation.Enable p ->
    let info = task_state st p in
    (match info.enabled with
     | Some (l, ev) ->
       reject ~line ~rule:Double_enable ~event ~related:[ (l, ev) ]
         "task %a enabled twice (first at line %d)" Task_id.pp p l
     | None -> info.enabled <- Some (line, event))
  | Operation.Cancel p ->
    let info = task_state st p in
    (match info.posted with
     | Some (_, _, target) when info.begun = None && info.cancelled = None ->
       info.cancelled <- Some (line, event);
       let tgt = thread_state st target in
       Option.iter (remove_pending tgt) (find_pending tgt p)
     | Some (l, ev, _) ->
       let related, why =
         match info.begun, info.cancelled with
         | Some b, _ -> ([ b ], "it already began")
         | None, Some c -> ([ c ], "it was already cancelled")
         | None, None -> ([ (l, ev) ], "unreachable")
       in
       reject ~line ~rule:Cancel_not_pending ~event ~related
         "cancel of task %a, but %s" Task_id.pp p why
     | None ->
       reject ~line ~rule:Cancel_not_pending ~event
         "cancel of task %a, which was never posted" Task_id.pp p)
  | Operation.Acquire l ->
    let ls = lock_state st l in
    (match ls.holder with
     | Some holder when not (Thread_id.equal holder t) ->
       reject ~line ~rule:Lock_held_elsewhere ~event
         ~related:(Option.to_list ls.last_acquire)
         "thread %a acquires lock %a, held by thread %a" Thread_id.pp t
         Lock_id.pp l Thread_id.pp holder
     | Some _ | None ->
       ls.holder <- Some t;
       ls.depth <- ls.depth + 1;
       ls.last_acquire <- Some (line, event))
  | Operation.Release l ->
    let ls = lock_state st l in
    (match ls.holder with
     | Some holder when Thread_id.equal holder t ->
       ls.depth <- ls.depth - 1;
       if ls.depth = 0 then ls.holder <- None
     | Some holder ->
       reject ~line ~rule:Unbalanced_release ~event
         ~related:(Option.to_list ls.last_acquire)
         "thread %a releases lock %a, held by thread %a" Thread_id.pp t
         Lock_id.pp l Thread_id.pp holder
     | None ->
       reject ~line ~rule:Unbalanced_release ~event
         "thread %a releases lock %a, which is not held" Thread_id.pp t
         Lock_id.pp l)
  | Operation.Read _ | Operation.Write _ ->
    st.n_accesses <- st.n_accesses + 1

let feed_exn st ~line event =
  step_exn st (thread_state st event.Trace.thread) ~line event

let feed st ~line event =
  match feed_exn st ~line event with
  | () -> Ok ()
  | exception Reject e -> Error e

let finish st =
  let queue_threads =
    Ident.Int_table.fold
      (fun _ ts n -> if ts.attached <> None then n + 1 else n)
      st.threads 0
  in
  let pending =
    Ident.Int_table.fold
      (fun _ ts n -> n + ts.queued)
      st.threads 0
  in
  { events = st.n_events
  ; threads = Ident.Int_table.length st.threads
  ; queue_threads
  ; tasks = st.n_tasks
  ; completed_tasks = st.n_completed
  ; pending_tasks = pending
  ; locks = Hashtbl.length st.locks
  ; accesses = st.n_accesses
  ; max_queue_depth = st.max_queue_depth
  }

(* {1 Whole-trace entry points} *)

let check_events events =
  let st = create () in
  let rec go line = function
    | [] -> Ok (finish st)
    | e :: rest ->
      (match feed st ~line e with
       | Ok () -> go (line + 1) rest
       | Error err -> Error err)
  in
  go 1 events

(* Over a trace's columns: the thread states by thread index, and an
   access (the common case) checked without making its event. *)
let check trace =
  let st = create () in
  let states =
    Array.init (Trace.thread_count trace) (fun th ->
      thread_state st (Trace.thread_id trace th))
  in
  match
    for i = 0 to Trace.length trace - 1 do
      let ts = states.(Trace.thread_index trace i) and line = i + 1 in
      if Trace.is_access trace i then begin
        enter st ts;
        (match ts.exited with
         | Some exit -> reject_after_exit ~line ~event:(Trace.get trace i) exit
         | None -> ());
        st.n_accesses <- st.n_accesses + 1
      end
      else step_exn st ts ~line (Trace.get trace i)
    done
  with
  | () -> Ok (finish st)
  | exception Reject err -> Error err

(* {1 Files} *)

type failure =
  | Syntax of Trace_io.parse_error
  | Binary of Binfmt.error
  | Violation of error
  | Io of string

let pp_failure ppf = function
  | Syntax e -> Format.fprintf ppf "syntax error: %a" Trace_io.pp_parse_error e
  | Binary e -> Format.fprintf ppf "binary decode error: %a" Binfmt.pp_error e
  | Violation e -> pp_error ppf e
  | Io msg -> Format.fprintf ppf "%s" msg

let failure_message f = Format.asprintf "%a" pp_failure f

let failure_line = function
  | Syntax e -> Some e.Trace_io.pe_line
  | Binary e -> Some (e.Binfmt.be_index + 1)
  | Violation e -> Some e.line
  | Io _ -> None

let check_channel ic =
  let st = create () in
  match
    Trace_io.fold_channel ic ~init:() ~f:(fun () ~line e ->
      match feed st ~line e with
      | Ok () -> ()
      | Error err -> raise (Reject err))
  with
  | Ok () -> Ok (finish st)
  | Error (Trace_io.Parse e) -> Error (Syntax e)
  | Error (Trace_io.Binary e) -> Error (Binary e)
  | Error (Trace_io.Ill_formed msg) | Error (Trace_io.Io msg) ->
    Error (Io msg)
  | exception Reject err -> Error (Violation err)

let check_file path =
  match In_channel.with_open_bin path check_channel with
  | result -> result
  | exception Sys_error msg -> Error (Io msg)
