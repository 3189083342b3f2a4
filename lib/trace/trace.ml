module Thread_id = Ident.Thread_id
module Task_id = Ident.Task_id
module Location = Ident.Location

type event =
  { thread : Thread_id.t
  ; op : Operation.t
  }

let event_equal a b =
  Thread_id.equal a.thread b.thread && Operation.equal a.op b.op

let pp_event ppf e =
  Format.fprintf ppf "%a: %a" Thread_id.pp e.thread Operation.pp e.op

type task_info =
  { mutable post_at : int option
  ; mutable begin_at : int option
  ; mutable end_at : int option
  ; mutable enable_at : int option
  ; mutable cancel_at : int option
  ; mutable target : Thread_id.t option
  ; mutable flavour : Operation.post_flavour option
  }

type thread_info =
  { mutable attach_at : int option
  ; mutable loop_at : int option
  ; mutable current_task : Task_id.t option
  }

type t =
  { events : event array
  ; enclosing : Task_id.t option array
  ; task_infos : task_info Task_id.Map.t
  ; thread_infos : thread_info Thread_id.Map.t
  ; task_order : Task_id.t list  (** in posting order *)
  ; thread_order : Thread_id.t list  (** in order of first appearance *)
  ; loc_ids : int array  (** per position; -1 off accesses *)
  ; locations : Location.t array  (** by id, in order of first access *)
  }

exception Ill_formed of string

let fail fmt = Format.kasprintf (fun s -> raise (Ill_formed s)) fmt

let fresh_task_info () =
  { post_at = None
  ; begin_at = None
  ; end_at = None
  ; enable_at = None
  ; cancel_at = None
  ; target = None
  ; flavour = None
  }

(* Single left-to-right pass computing all derived structure while
   checking structural well-formedness. *)
let build events =
  let n = Array.length events in
  let enclosing = Array.make n None in
  let task_infos = Task_id.Table.create 64 in
  let thread_infos = Ident.Int_table.create 16 in
  let task_order = ref [] in
  let thread_order = ref [] in
  let loc_ids = Array.make n (-1) in
  let loc_table = Location.Table.create 64 in
  let locations = ref [] in
  let location_id m =
    match Location.Table.find_opt loc_table m with
    | Some id -> id
    | None ->
      let id = Location.Table.length loc_table in
      Location.Table.add loc_table m id;
      locations := m :: !locations;
      id
  in
  let task_info p =
    match Task_id.Table.find_opt task_infos p with
    | Some info -> info
    | None ->
      let info = fresh_task_info () in
      Task_id.Table.add task_infos p info;
      info
  and thread_info t =
    match Ident.Int_table.find_opt thread_infos (Thread_id.to_int t) with
    | Some (_, info) -> info
    | None ->
      let info =
        { attach_at = None; loop_at = None; current_task = None }
      in
      Ident.Int_table.add thread_infos (Thread_id.to_int t) (t, info);
      thread_order := t :: !thread_order;
      info
  in
  for i = 0 to n - 1 do
    let { thread = t; op } = events.(i) in
    let tinfo = thread_info t in
    enclosing.(i) <- tinfo.current_task;
    (match op with
     | Operation.Attach_queue ->
       (match tinfo.attach_at with
        | Some j -> fail "position %d: thread %a attaches a queue twice (first at %d)" i Thread_id.pp t j
        | None -> tinfo.attach_at <- Some i)
     | Operation.Loop_on_queue ->
       (match tinfo.loop_at, tinfo.attach_at with
        | Some j, _ -> fail "position %d: thread %a loops on its queue twice (first at %d)" i Thread_id.pp t j
        | None, None -> fail "position %d: thread %a loops on a queue it never attached" i Thread_id.pp t
        | None, Some _ -> tinfo.loop_at <- Some i)
     | Operation.Post { task = p; target; flavour } ->
       let info = task_info p in
       (match info.post_at with
        | Some j -> fail "position %d: task %a posted twice (first at %d); rename instances uniquely" i Task_id.pp p j
        | None ->
          info.post_at <- Some i;
          info.target <- Some target;
          info.flavour <- Some flavour;
          task_order := p :: !task_order)
     | Operation.Begin_task p ->
       let info = task_info p in
       (match info.begin_at with
        | Some j -> fail "position %d: task %a begins twice (first at %d)" i Task_id.pp p j
        | None -> ());
       (match info.post_at with
        | None -> fail "position %d: task %a begins without a prior post" i Task_id.pp p
        | Some _ -> ());
       (match info.target with
        | Some target when not (Thread_id.equal target t) ->
          fail "position %d: task %a begins on %a but was posted to %a"
            i Task_id.pp p Thread_id.pp t Thread_id.pp target
        | Some _ | None -> ());
       (match tinfo.current_task with
        | Some q -> fail "position %d: task %a begins inside task %a on %a (tasks run to completion)"
                      i Task_id.pp p Task_id.pp q Thread_id.pp t
        | None -> ());
       info.begin_at <- Some i;
       tinfo.current_task <- Some p;
       enclosing.(i) <- Some p
     | Operation.End_task p ->
       let info = task_info p in
       (match tinfo.current_task with
        | Some q when Task_id.equal p q -> ()
        | Some q -> fail "position %d: end of %a while %a is executing" i Task_id.pp p Task_id.pp q
        | None -> fail "position %d: end of %a outside any task" i Task_id.pp p);
       (match info.end_at with
        | Some j -> fail "position %d: task %a ends twice (first at %d)" i Task_id.pp p j
        | None -> ());
       info.end_at <- Some i;
       tinfo.current_task <- None;
       enclosing.(i) <- Some p
     | Operation.Enable p ->
       let info = task_info p in
       (match info.enable_at with
        | Some j -> fail "position %d: task %a enabled twice (first at %d)" i Task_id.pp p j
        | None -> info.enable_at <- Some i)
     | Operation.Cancel p ->
       let info = task_info p in
       (match info.cancel_at with
        | Some j -> fail "position %d: task %a cancelled twice (first at %d)" i Task_id.pp p j
        | None -> info.cancel_at <- Some i)
     | Operation.Read m | Operation.Write m -> loc_ids.(i) <- location_id m
     | Operation.Thread_init | Operation.Thread_exit | Operation.Fork _
     | Operation.Join _ | Operation.Acquire _ | Operation.Release _ -> ())
  done;
  let task_infos =
    Task_id.Table.fold Task_id.Map.add task_infos Task_id.Map.empty
  and thread_infos =
    Ident.Int_table.fold
      (fun _ (t, info) acc -> Thread_id.Map.add t info acc)
      thread_infos Thread_id.Map.empty
  in
  { events
  ; enclosing
  ; task_infos
  ; thread_infos
  ; task_order = List.rev !task_order
  ; thread_order = List.rev !thread_order
  ; loc_ids
  ; locations = Array.of_list (List.rev !locations)
  }

let of_events events =
  match build (Array.of_list events) with
  | trace -> Ok trace
  | exception Ill_formed msg -> Error msg

let of_events_exn events =
  match of_events events with
  | Ok trace -> trace
  | Error msg -> invalid_arg ("Trace.of_events_exn: " ^ msg)

let length t = Array.length t.events

let get t i =
  if i < 0 || i >= length t then
    invalid_arg (Printf.sprintf "Trace.get: index %d out of bounds" i);
  t.events.(i)

let op t i = (get t i).op
let thread t i = (get t i).thread
let events t = Array.to_list t.events
let iteri f t = Array.iteri f t.events

let enclosing_task t i =
  if i < 0 || i >= length t then
    invalid_arg (Printf.sprintf "Trace.enclosing_task: index %d out of bounds" i);
  t.enclosing.(i)

let location_id t i =
  if i < 0 || i >= length t then
    invalid_arg (Printf.sprintf "Trace.location_id: index %d out of bounds" i);
  t.loc_ids.(i)

let locations t = Array.copy t.locations

let threads t = t.thread_order

let thread_info_opt t tid = Thread_id.Map.find_opt tid t.thread_infos

let has_queue t tid =
  match thread_info_opt t tid with
  | Some info -> Option.is_some info.attach_at
  | None -> false

let loop_index t tid =
  match thread_info_opt t tid with
  | Some info -> info.loop_at
  | None -> None

let tasks t = t.task_order
let task_info_opt t p = Task_id.Map.find_opt p t.task_infos
let post_index t p = Option.bind (task_info_opt t p) (fun i -> i.post_at)
let begin_index t p = Option.bind (task_info_opt t p) (fun i -> i.begin_at)
let end_index t p = Option.bind (task_info_opt t p) (fun i -> i.end_at)
let enable_index t p = Option.bind (task_info_opt t p) (fun i -> i.enable_at)
let cancel_index t p = Option.bind (task_info_opt t p) (fun i -> i.cancel_at)
let post_target t p = Option.bind (task_info_opt t p) (fun i -> i.target)
let post_flavour t p = Option.bind (task_info_opt t p) (fun i -> i.flavour)

let remove_cancelled t =
  let cancelled p =
    match cancel_index t p, begin_index t p with
    | Some _, None -> true
    | Some c, Some b -> c < b
    | None, _ -> false
  in
  let keep i e =
    match e.op with
    | Operation.Cancel _ -> false
    | Operation.Post { task = p; _ } -> not (cancelled p)
    | Operation.Thread_init | Operation.Thread_exit | Operation.Fork _
    | Operation.Join _ | Operation.Attach_queue | Operation.Loop_on_queue
    | Operation.Begin_task _ | Operation.End_task _ | Operation.Acquire _
    | Operation.Release _ | Operation.Read _ | Operation.Write _
    | Operation.Enable _ ->
      (match t.enclosing.(i) with
       | Some p -> not (cancelled p)
       | None -> true)
  in
  if Task_id.Map.for_all (fun _ i -> Option.is_none i.cancel_at) t.task_infos
  then t
  else begin
    let kept = ref [] in
    Array.iteri (fun i e -> if keep i e then kept := e :: !kept) t.events;
    build (Array.of_list (List.rev !kept))
  end

type stats =
  { trace_length : int
  ; fields : int
  ; threads_without_queue : int
  ; threads_with_queue : int
  ; async_tasks : int
  }

let stats t =
  let fields = Hashtbl.create 64 in
  Array.iter
    (fun m -> Hashtbl.replace fields (Location.field_key m) ())
    t.locations;
  let with_q, without_q =
    List.partition (fun tid -> has_queue t tid) t.thread_order
  in
  { trace_length = length t
  ; fields = Hashtbl.length fields
  ; threads_without_queue = List.length without_q
  ; threads_with_queue = List.length with_q
  ; async_tasks = List.length t.task_order
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "length=%d fields=%d threads(w/o Q)=%d threads(w/ Q)=%d async tasks=%d"
    s.trace_length s.fields s.threads_without_queue s.threads_with_queue
    s.async_tasks

let pp ppf t =
  iteri
    (fun i e -> Format.fprintf ppf "%4d  %a@." i pp_event e)
    t
