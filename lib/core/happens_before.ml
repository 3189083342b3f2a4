open! Import
module Thread_id = Ident.Thread_id

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
  { task : int  (** the trace's task index *)
  ; post_node : int
  ; flavour : Operation.post_flavour
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

(* The candidates for FIFO, NOPRE and the front rule, indexed by node:
   the task whose [begin] a node is, with its target thread's index;
   the task whose [end] a node is; and per target thread, the mask of
   the [end] nodes of the tasks posted to it.  A task begins and ends
   on its target thread ({!Trace} rejects anything else), so every
   candidate [end] runs on the [begin]'s thread. *)
type siblings =
  { begin_of : (task_entry * int) option array  (** and the thread index *)
  ; end_of : task_entry option array
  ; ends : Bit_matrix.Mask.t array
  }

let siblings g =
  let trace = Graph.trace g in
  let node_of_pos = Graph.node_of_pos g in
  let n = Graph.node_count g in
  let begin_of = Array.make n None and end_of = Array.make n None in
  let ends = Array.init (Graph.thread_count g) (fun _ -> Bit_matrix.Mask.create n) in
  Trace.iter_posted
    (fun k ->
       let b = Trace.begin_at trace k in
       if b >= 0 then begin
         let entry =
           { task = k
           ; post_node = node_of_pos (Trace.post_at trace k)
           ; flavour = Trace.task_flavour trace k
           }
         in
         (* a task that began did so on its target, so the target has
            an index; one that ended began first *)
         let t = Trace.target_index trace k in
         begin_of.(node_of_pos b) <- Some (entry, t);
         let e = Trace.end_at trace k in
         if e >= 0 then begin
           let end_node = node_of_pos e in
           end_of.(end_node) <- Some entry;
           Bit_matrix.Mask.set ends.(t) end_node
         end
       end)
    trace;
  { begin_of; end_of; ends }

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
      ( Array.init n (Graph.thread_index_of_node g)
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
  let sib = siblings g in
  let checks = ref 0 in
  (* FIFO, NOPRE and the front rule: end(p1) ⪯ begin(p2) for a task p1
     posted to the same thread that ended before p2 began.  Every
     premise reads the row of a post or of a node of p1, all below
     begin(p2), hence final. *)
  let dynamic_edge p2 end_node =
    incr checks;
    let p1 = Option.get sib.end_of.(end_node) in
    let fifo =
      cfg.fifo_rule
      && Hb_edges.fifo_flavours_ok p1.flavour p2.flavour
      && pred_of p1.post_node p2.post_node
    in
    (* EXTENSION: a front post pre-empts pending tasks.  Sound premise:
       both posts come from one task executing on the target thread
       itself — the target is busy between the two posts in every
       schedule, so p2 is still pending when the front post p1 arrives
       and p1 always jumps ahead: end(p1) ⪯ begin(p2). *)
    let front () =
      cfg.front_rule
      && (match p1.flavour with
          | Operation.Front -> true
          | Operation.Immediate | Operation.Delayed _ -> false)
      && pred_of p2.post_node p1.post_node
      && Graph.thread_index_of_node g p1.post_node
         = Graph.thread_index_of_node g end_node
      &&
      let q1 = Graph.task_index_of_node g p1.post_node in
      q1 >= 0 && q1 = Graph.task_index_of_node g p2.post_node
    in
    let nopre () =
      cfg.nopre_rule
      &&
      ((* αk = the post itself: p2 was posted from within p1 (⪯st is
          reflexive) *)
       Graph.task_index_of_node g p2.post_node = p1.task
       || List.exists
            (fun k -> pred_of k p2.post_node)
            (Graph.nodes_of_task_index g p1.task))
    in
    fifo || front () || nopre ()
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
     predecessors whose contribution a visited row already made.

     A [begin] row is closed over its static edges first, then offered
     the [end]s of its thread that it still lacks, latest first
     ({!Bit_matrix.absorb_below}).  An [end] that a rule orders before
     the [begin] brings its whole row at once — exact, since it runs on
     the [begin]'s thread — so the earlier tasks it is ordered after
     (a FIFO chain) are never checked, and the row stays closed: row
     [end] is closed and composes whole, so no second closure is
     needed. *)
  let cover = Bit_matrix.Mask.create n in
  let word_ors = ref 0 in
  for j = 0 to n - 1 do
    word_ors :=
      !word_ors
      + Bit_matrix.close_lower_row preds j ~cover ~group ~group_masks;
    match sib.begin_of.(j) with
    | Some (p2, t) ->
      word_ors :=
        !word_ors
        + Bit_matrix.absorb_below preds j ~among:sib.ends.(t) (dynamic_edge p2)
    | None -> ()
  done;
  Obs.add ~n:!checks "hb.sibling_checks";
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
let preds t = t.preds

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
