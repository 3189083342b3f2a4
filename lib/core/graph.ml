open! Import

(* Nodes are numbered in order of their first position.  Per node: the
   dense thread and enclosing task indices of the trace, and the first
   and last positions. *)
type t =
  { trace : Trace.t
  ; node_thread : int array
  ; node_task : int array
  ; first : int array
  ; last : int array
  ; node_of_pos : int array
  ; by_thread : int list array  (** by thread index, ascending *)
  ; by_task : int list array  (** by task index, ascending *)
  }

let build ~coalesce trace =
  let n = Trace.length trace in
  let node_of_pos = Array.make n (-1) in
  (* the node of each position, and the open access block of each
     thread *)
  let open_block = Array.make (Trace.thread_count trace) (-1) in
  let count = ref 0 in
  for i = 0 to n - 1 do
    let th = Trace.thread_index trace i in
    if coalesce && Trace.is_access trace i then begin
      let id = open_block.(th) in
      if id >= 0 then node_of_pos.(i) <- id
      else begin
        node_of_pos.(i) <- !count;
        open_block.(th) <- !count;
        incr count
      end
    end
    else begin
      open_block.(th) <- -1;
      node_of_pos.(i) <- !count;
      incr count
    end
  done;
  let nodes = !count in
  let node_thread = Array.make nodes 0 in
  let node_task = Array.make nodes (-1) and first = Array.make nodes 0 in
  let last = Array.make nodes 0 in
  let next = ref 0 in
  for i = 0 to n - 1 do
    let id = node_of_pos.(i) in
    if id = !next then begin
      (* a node's first position: ids ascend with it *)
      incr next;
      node_thread.(id) <- Trace.thread_index trace i;
      node_task.(id) <- Trace.enclosing_index trace i;
      first.(id) <- i
    end;
    last.(id) <- i
  done;
  let by_thread = Array.make (Trace.thread_count trace) [] in
  let by_task = Array.make (Trace.task_count trace) [] in
  for id = nodes - 1 downto 0 do
    let th = node_thread.(id) in
    by_thread.(th) <- id :: by_thread.(th);
    let p = node_task.(id) in
    if p >= 0 then by_task.(p) <- id :: by_task.(p)
  done;
  { trace; node_thread; node_task; first; last; node_of_pos; by_thread
  ; by_task }

let trace t = t.trace
let node_count t = Array.length t.first

let node_of_pos t pos =
  if pos < 0 || pos >= Array.length t.node_of_pos then
    invalid_arg (Printf.sprintf "Graph.node_of_pos: position %d out of bounds" pos);
  t.node_of_pos.(pos)

let thread_index_of_node t id = t.node_thread.(id)

let task_index_of_node t id = t.node_task.(id)
let first_pos t id = t.first.(id)
let last_pos t id = t.last.(id)

let nodes_of_thread_index t th = t.by_thread.(th)

let nodes_of_task_index t k = t.by_task.(k)

let thread_index t tid =
  let th = Trace.index_of_thread t.trace tid in
  if th < 0 then invalid_arg "Graph.thread_index: unknown thread";
  th

let thread_count t = Trace.thread_count t.trace
