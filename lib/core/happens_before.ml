open! Import
module Thread_id = Ident.Thread_id
module Task_id = Ident.Task_id
module Lock_id = Ident.Lock_id

type program_order = Hb_edges.program_order = Android_po | Full_po

type config =
  { program_order : program_order
  ; enable_rule : bool
  ; post_rule : bool
  ; attach_rule : bool
  ; fifo_rule : bool
  ; nopre_rule : bool
  ; fork_join_rules : bool
  ; lock_rule : bool
  ; lock_same_thread : bool
  ; front_rule : bool
  ; restricted_transitivity : bool
  }

let default =
  { program_order = Android_po
  ; enable_rule = true
  ; post_rule = true
  ; attach_rule = true
  ; fifo_rule = true
  ; nopre_rule = true
  ; fork_join_rules = true
  ; lock_rule = true
  ; lock_same_thread = false
  ; front_rule = false
  ; restricted_transitivity = true
  }

(* Per-task data consumed by the FIFO and NOPRE rules. *)
type task_entry =
  { task : Task_id.t
  ; post_node : int
  ; begin_info : (int * int) option  (** node, trace position *)
  ; end_info : (int * int) option
  ; flavour : Operation.post_flavour
  ; task_nodes : int list
  }

type t =
  { graph : Graph.t
  ; cfg : config
  ; preds : Bit_matrix.t
        (** row [j] holds the nodes ordered before node [j]: [node_hb t
            i j] is bit [(j, i)] *)
  ; word_ors : int
  }

let graph t = t.graph
let config t = t.cfg

(* The static fragment of a [config], for the shared edge builder. *)
let static_config (cfg : config) : Hb_edges.config =
  { Hb_edges.program_order = cfg.program_order
  ; enable_rule = cfg.enable_rule
  ; post_rule = cfg.post_rule
  ; attach_rule = cfg.attach_rule
  ; fork_join_rules = cfg.fork_join_rules
  ; lock_rule = cfg.lock_rule
  ; lock_same_thread = cfg.lock_same_thread
  }

(* Per node, the tasks whose [begin] it is, each with the position of
   that [begin] and the tasks posted to the same thread: the candidates
   for FIFO, NOPRE and the front rule. *)
let tasks_by_begin g =
  let trace = Graph.trace g in
  let node_of_pos = Graph.node_of_pos g in
  let by_target : (int, task_entry list ref) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun p ->
       match Trace.post_index trace p, Trace.post_target trace p with
       | Some q, Some target ->
         let info idx = Option.map (fun i -> (node_of_pos i, i)) idx in
         let entry =
           { task = p
           ; post_node = node_of_pos q
           ; begin_info = info (Trace.begin_index trace p)
           ; end_info = info (Trace.end_index trace p)
           ; flavour =
               Option.value (Trace.post_flavour trace p)
                 ~default:Operation.Immediate
           ; task_nodes = Graph.nodes_of_task g p
           }
         in
         let key = Thread_id.to_int target in
         (match Hashtbl.find_opt by_target key with
          | Some l -> l := entry :: !l
          | None -> Hashtbl.add by_target key (ref [ entry ]))
       | (Some _ | None), _ -> ())
    (Trace.tasks trace);
  let by_begin = Array.make (Graph.node_count g) [] in
  Hashtbl.iter
    (fun _ entries ->
       List.iter
         (fun p2 ->
            match p2.begin_info with
            | Some (begin_node, begin_pos) ->
              by_begin.(begin_node) <-
                (p2, begin_pos, !entries) :: by_begin.(begin_node)
            | None -> ())
         !entries)
    by_target;
  by_begin

let compute_impl ~config g =
  let cfg = config in
  let n = Graph.node_count g in
  let preds = Bit_matrix.create n in
  let pred_of i j = Bit_matrix.get preds j i in
  (* The closure's column groups: each node's thread, and per thread
     the mask of its nodes.  Without the restriction every row composes
     whole, as if all nodes ran on one thread. *)
  let group, groups =
    if cfg.restricted_transitivity then
      ( Array.init n (fun id ->
          Graph.thread_index g (Graph.thread_of_node g id))
      , Graph.thread_count g )
    else (Array.make n 0, 1)
  in
  let group_masks = Array.init groups (fun _ -> Bit_matrix.Mask.create n) in
  for id = 0 to n - 1 do
    Bit_matrix.Mask.set group_masks.(group.(id)) id
  done;
  (* The static rules (program order, ENABLE, POST, ATTACH-Q, FORK,
     JOIN, LOCK) come from the shared builder — the same edges the
     predictive engine consumes as must-constraints. *)
  Hb_edges.iter ~config:(static_config cfg) g ~f:(fun ~rule:_ src dst ->
    assert (src < dst);
    Bit_matrix.set preds dst src);
  let seeded = if Obs.enabled () then Bit_matrix.count preds else 0 in
  let by_begin = tasks_by_begin g in
  (* FIFO, NOPRE and the front rule: end(p1) ⪯ begin(p2) for a task p1
     posted to the same thread that ended before p2 began.  Called
     while row [begin(p2)] is being built: every premise reads the row
     of a post or of a node of p1, all at lower ids, hence final. *)
  let dynamic_edges begin_node (p2, begin_pos, siblings) =
    List.iter
      (fun p1 ->
         match p1.end_info with
         | Some (end_node, end_pos)
           when (not (Task_id.equal p1.task p2.task))
                && end_pos < begin_pos
                && not (pred_of end_node begin_node) ->
           let fifo =
             cfg.fifo_rule
             && Hb_edges.fifo_flavours_ok p1.flavour p2.flavour
             && pred_of p1.post_node p2.post_node
           in
           (* EXTENSION: a front post pre-empts pending tasks.  Sound
              premise: both posts come from one task executing on the
              target thread itself — the target is busy between the
              two posts in every schedule, so p2 is still pending when
              the front post p1 arrives and p1 always jumps ahead:
              end(p1) ⪯ begin(p2). *)
           let front () =
             cfg.front_rule
             && (match p1.flavour with
                 | Operation.Front -> true
                 | Operation.Immediate | Operation.Delayed _ -> false)
             && pred_of p2.post_node p1.post_node
             && Thread_id.equal
                  (Graph.thread_of_node g p1.post_node)
                  (Graph.thread_of_node g end_node)
             && (match
                   ( Graph.task_of_node g p1.post_node
                   , Graph.task_of_node g p2.post_node )
                 with
                 | Some q1, Some q2 -> Task_id.equal q1 q2
                 | (Some _ | None), _ -> false)
           in
           let nopre () =
             cfg.nopre_rule
             &&
             ((* αk = the post itself: p2 was posted from within p1
                 (⪯st is reflexive) *)
              (match Graph.task_of_node g p2.post_node with
               | Some q -> Task_id.equal q p1.task
               | None -> false)
              || List.exists (fun k -> pred_of k p2.post_node) p1.task_nodes)
           in
           if fifo || front () || nopre () then
             Bit_matrix.set preds begin_node end_node
         | Some _ | None -> ())
      siblings
  in
  (* One forward sweep.  Every edge points to a higher node id: the
     static edges by {!Hb_edges}' invariant, the dynamic ones from an
     [end] to a later [begin], both anchors.  So the predecessors of
     node [j] are all below [j], and once row [j] is closed no later
     node can add to it — one pass over ascending ids computes the
     least fixpoint.  Closing row [j] is the column form of TRANS-ST /
     TRANS-MT: each predecessor [k] contributes row [k] whole when [k]
     runs on [j]'s thread, and otherwise only the nodes of other
     threads — i ⪯ k ⪯ j composes across threads only when
     [thread i ≠ thread j].  {!Bit_matrix.close_lower_row} skips the
     predecessors whose contribution a visited row already made. *)
  let cover = Bit_matrix.Mask.create n in
  let word_ors = ref 0 in
  for j = 0 to n - 1 do
    List.iter (dynamic_edges j) by_begin.(j);
    word_ors :=
      !word_ors
      + Bit_matrix.close_lower_row preds j ~cover ~group ~group_masks
  done;
  Obs.add "hb.passes";
  Obs.add ~n:!word_ors "hb.word_ors";
  if Obs.enabled () then begin
    (* a population count, so only paid for when telemetry is on *)
    let added = Bit_matrix.count preds - seeded in
    Obs.set_span_arg "edges_added" (string_of_int added);
    Obs.add ~n:added "hb.edges_added"
  end;
  { graph = g; cfg; preds; word_ors = !word_ors }

let compute ?(config = default) g =
  Obs.with_span "hb.compute"
    ~args:[ ("nodes", string_of_int (Graph.node_count g)) ]
    (fun () -> compute_impl ~config g)

let node_hb t i j = i <> j && Bit_matrix.get t.preds j i

let hb t i j =
  if i = j then false
  else
    let ni = Graph.node_of_pos t.graph i and nj = Graph.node_of_pos t.graph j in
    if ni = nj then i < j else Bit_matrix.get t.preds nj ni

let hb_or_eq t i j = i = j || hb t i j
let ordered t i j = hb t i j || hb t j i

let same_thread t i j =
  Thread_id.equal
    (Trace.thread (Graph.trace t.graph) i)
    (Trace.thread (Graph.trace t.graph) j)

let node_count t = Graph.node_count t.graph
let edge_count t = Bit_matrix.count t.preds
let passes _ = 1
let word_ors t = t.word_ors
