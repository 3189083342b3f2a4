open! Import
module Thread_id = Ident.Thread_id
module Task_id = Ident.Task_id

type node_kind =
  | Anchor of int
  | Access_block

type node =
  { kind : node_kind
  ; node_thread : Thread_id.t
  ; node_task : Task_id.t option
  ; first : int
  ; last : int
  }

type t =
  { trace : Trace.t
  ; nodes : node array
  ; node_of_pos : int array
  ; by_thread : int list Thread_id.Map.t  (** ascending *)
  ; by_task : int list Task_id.Map.t  (** ascending *)
  ; thread_indices : int Thread_id.Map.t
  }

let is_coalescible op =
  match (op : Operation.t) with
  | Read _ | Write _ -> true
  | Thread_init | Thread_exit | Fork _ | Join _ | Attach_queue | Loop_on_queue
  | Post _ | Begin_task _ | End_task _ | Acquire _ | Release _ | Enable _
  | Cancel _ -> false

let build ~coalesce trace =
  let n = Trace.length trace in
  let node_of_pos = Array.make n (-1) in
  let nodes = ref [] in
  let count = ref 0 in
  (* The open access block of each thread, by node id. *)
  let open_blocks : int Ident.Int_table.t = Ident.Int_table.create 16 in
  let add_node kind tid task i =
    let id = !count in
    incr count;
    nodes :=
      { kind; node_thread = tid; node_task = task; first = i; last = i }
      :: !nodes;
    id
  in
  for i = 0 to n - 1 do
    let { Trace.thread = tid; op } = Trace.get trace i in
    let task = Trace.enclosing_task trace i in
    if coalesce && is_coalescible op then begin
      match Ident.Int_table.find_opt open_blocks (Thread_id.to_int tid) with
      | Some id -> node_of_pos.(i) <- id
      | None ->
        let id = add_node Access_block tid task i in
        Ident.Int_table.add open_blocks (Thread_id.to_int tid) id;
        node_of_pos.(i) <- id
    end
    else begin
      Ident.Int_table.remove open_blocks (Thread_id.to_int tid);
      let kind = if is_coalescible op then Access_block else Anchor i in
      node_of_pos.(i) <- add_node kind tid task i
    end
  done;
  let nodes = Array.of_list (List.rev !nodes) in
  (* A block ends at its last access. *)
  let last = Array.make (Array.length nodes) 0 in
  Array.iteri (fun i id -> last.(id) <- i) node_of_pos;
  Array.iteri
    (fun id node ->
       if node.last < last.(id) then
         nodes.(id) <- { node with last = last.(id) })
    nodes;
  let by_thread = ref Thread_id.Map.empty in
  let by_task = ref Task_id.Map.empty in
  Array.iteri
    (fun id node ->
       by_thread :=
         Thread_id.Map.update node.node_thread
           (fun l -> Some (id :: Option.value l ~default:[]))
           !by_thread;
       match node.node_task with
       | Some p ->
         by_task :=
           Task_id.Map.update p
             (fun l -> Some (id :: Option.value l ~default:[]))
             !by_task
       | None -> ())
    nodes;
  let thread_indices =
    List.fold_left
      (fun (i, acc) tid -> (i + 1, Thread_id.Map.add tid i acc))
      (0, Thread_id.Map.empty) (Trace.threads trace)
    |> snd
  in
  { trace
  ; nodes
  ; node_of_pos
  ; by_thread = Thread_id.Map.map List.rev !by_thread
  ; by_task = Task_id.Map.map List.rev !by_task
  ; thread_indices
  }

let trace t = t.trace
let node_count t = Array.length t.nodes
let kind t id = t.nodes.(id).kind

let node_of_pos t pos =
  if pos < 0 || pos >= Array.length t.node_of_pos then
    invalid_arg (Printf.sprintf "Graph.node_of_pos: position %d out of bounds" pos);
  t.node_of_pos.(pos)

let thread_of_node t id = t.nodes.(id).node_thread
let task_of_node t id = t.nodes.(id).node_task
let first_pos t id = t.nodes.(id).first
let last_pos t id = t.nodes.(id).last

let nodes_of_thread t tid =
  Option.value (Thread_id.Map.find_opt tid t.by_thread) ~default:[]

let nodes_of_task t p =
  Option.value (Task_id.Map.find_opt p t.by_task) ~default:[]

let thread_index t tid =
  match Thread_id.Map.find_opt tid t.thread_indices with
  | Some i -> i
  | None -> invalid_arg "Graph.thread_index: unknown thread"

let thread_count t = Thread_id.Map.cardinal t.thread_indices
