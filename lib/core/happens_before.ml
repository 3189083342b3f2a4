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
  ; matrix : Bit_matrix.t
  ; fixpoint_passes : int
  ; word_ors : int
  ; rows_requeued : int
  }

let graph t = t.graph
let config t = t.cfg

(* Rows per closure block.  A constant — never derived from the jobs
   count — so the fixpoint matrix and the pass count are identical for
   every [jobs] value.  Blocks are large because in-block rows are read
   live (Gauss–Seidel): changes cross the matrix in fewer drain rounds
   and stabilised rows stop being re-pulled sooner. *)
let block_rows = 1024

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

let compute_impl ~config ~jobs g =
  let cfg = config in
  let trace = Graph.trace g in
  let n = Graph.node_count g in
  let m = Bit_matrix.create n in
  (* Thread index per node, and per thread the mask of its nodes. *)
  let tidx =
    Array.init n (fun id -> Graph.thread_index g (Graph.thread_of_node g id))
  in
  let thread_masks =
    Array.init (Graph.thread_count g) (fun _ -> Bit_matrix.Mask.create n)
  in
  for id = 0 to n - 1 do
    Bit_matrix.Mask.set thread_masks.(tidx.(id)) id
  done;
  let node_of_pos = Graph.node_of_pos g in
  (* The static rules (program order, ENABLE, POST, ATTACH-Q, FORK,
     JOIN, LOCK) seed the matrix through the shared builder — the same
     edges the predictive engine consumes as must-constraints. *)
  Hb_edges.iter ~config:(static_config cfg) g ~f:(fun ~rule:_ src dst ->
    Bit_matrix.set m src dst);
  (* Tasks grouped by the thread that executes them, for FIFO/NOPRE. *)
  let entries_by_target : (int, task_entry list ref) Hashtbl.t =
    Hashtbl.create 8
  in
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
         (match Hashtbl.find_opt entries_by_target key with
          | Some l -> l := entry :: !l
          | None -> Hashtbl.add entries_by_target key (ref [ entry ]))
       | (Some _ | None), _ -> ())
    (Trace.tasks trace);
  (* The closure is a semi-naïve (delta) worklist fixpoint: it only
     re-propagates what changed.  Row [i] of [delta] holds the bits
     added to row [i] of the matrix since [i] last broadcast them.  A
     row with a non-empty delta is dirty.  Each drain round moves the
     dirty set to D, captures each dirty row's delta as its [news] row,
     and re-propagates into the targets T = D ∪ preds(D), the rows
     that must re-absorb a row of D because it grew (read off the
     matrix rows: no transposed index is kept): target [i] ORs the
     full (snapshotted) rows of its freshly added successors —
     sources it has never absorbed — and only the [news] of its
     long-standing dirty successors, so a source row that keeps growing
     costs its predecessors just the new words, not the whole row
     again.  Source ORs are bounded to the non-empty word extent of the
     source (news rows are localised).  Targets are sharded into fixed
     [block_rows] blocks and drained high-to-low (reverse trace order,
     so forward-pointing HB chains settle in few rounds); D, S, T, the
     news capture and the snapshot are computed sequentially before the
     blocks run, blocks write only their own rows, and cross-block
     fresh reads come from the snapshot — so the fixpoint matrix, the
     pass count and the work counters are independent of [jobs].  Dirty
     marking happens sequentially after the round from the targets'
     delta rows. *)
  let delta = Bit_matrix.copy m in
  let news = Bit_matrix.create n in
  let snap = Bit_matrix.create n in
  let news_lo = Array.make n 0 and news_hi = Array.make n (-1) in
  let snap_lo = Array.make n 0 and snap_hi = Array.make n (-1) in
  let dirty = Bit_matrix.Mask.create n in
  let d_mask = Bit_matrix.Mask.create n in
  let s_mask = Bit_matrix.Mask.create n in
  let t_mask = Bit_matrix.Mask.create n in
  let dirty_count = ref 0 in
  let mark_dirty i =
    if not (Bit_matrix.Mask.mem dirty i) then begin
      Bit_matrix.Mask.set dirty i;
      incr dirty_count
    end
  in
  for i = 0 to n - 1 do
    if not (Bit_matrix.row_is_empty m i) then mark_dirty i
  done;
  (* Dynamic-rule edges arrive between rounds: record the new bit as
     pending news and requeue the row. *)
  let on_set src dst =
    Bit_matrix.set m src dst;
    Bit_matrix.set delta src dst;
    mark_dirty src
  in
  let apply_dynamic () =
    let changed = ref false in
    if cfg.fifo_rule || cfg.nopre_rule then
      Hashtbl.iter
        (fun _ entries ->
           let entries = !entries in
           List.iter
             (fun p1 ->
                match p1.end_info with
                | None -> ()
                | Some (end_node, end_pos) ->
                  List.iter
                    (fun p2 ->
                       match p2.begin_info with
                       | Some (begin_node, begin_pos)
                         when (not (Task_id.equal p1.task p2.task))
                              && end_pos < begin_pos
                              && not (Bit_matrix.get m end_node begin_node) ->
                         let fifo =
                           cfg.fifo_rule
                           && Hb_edges.fifo_flavours_ok p1.flavour p2.flavour
                           && Bit_matrix.get m p1.post_node p2.post_node
                         in
                         (* EXTENSION: a front post pre-empts pending
                            tasks.  Sound premise: both posts come from
                            one task executing on the target thread
                            itself — the target is busy between the two
                            posts in every schedule, so p2 is still
                            pending when the front post p1 arrives and
                            p1 always jumps ahead: end(p1) ⪯ begin(p2). *)
                         let front =
                           cfg.front_rule
                           && (match p1.flavour with
                               | Operation.Front -> true
                               | Operation.Immediate | Operation.Delayed _ ->
                                 false)
                           && Bit_matrix.get m p2.post_node p1.post_node
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
                           ((* αk = the post itself: p2 was posted from
                               within p1 (⪯st is reflexive) *)
                            (match Graph.task_of_node g p2.post_node with
                             | Some q -> Task_id.equal q p1.task
                             | None -> false)
                            || List.exists
                                 (fun k -> Bit_matrix.get m k p2.post_node)
                                 p1.task_nodes)
                         in
                         if fifo || front || nopre () then begin
                           on_set end_node begin_node;
                           changed := true
                         end
                       | Some _ | None -> ())
                    entries)
             entries)
        entries_by_target;
    !changed
  in
  let word_ors = ref 0 and rows_requeued = ref 0 in
  let round () =
    Bit_matrix.Mask.clear d_mask;
    Bit_matrix.Mask.clear s_mask;
    Bit_matrix.Mask.clear t_mask;
    Bit_matrix.Mask.iter dirty (fun i -> Bit_matrix.Mask.set d_mask i);
    Bit_matrix.Mask.clear dirty;
    dirty_count := 0;
    (* News capture: each dirty row broadcasts (and thereby
       consumes) its pending delta.  S = the union of the news — the
       freshly added successors whose full rows targets will pull. *)
    Bit_matrix.Mask.iter d_mask (fun i ->
      Bit_matrix.blit_row ~src:delta ~dst:news i;
      Bit_matrix.clear_row delta i;
      let lo, hi = Bit_matrix.row_word_extent news i in
      news_lo.(i) <- lo;
      news_hi.(i) <- hi;
      Bit_matrix.or_row_into_mask news ~src:i s_mask;
      Bit_matrix.Mask.set t_mask i);
    Bit_matrix.mark_rows_meeting m d_mask t_mask;
    Bit_matrix.Mask.iter s_mask (fun k ->
      Bit_matrix.blit_row ~src:m ~dst:snap k;
      let lo, hi = Bit_matrix.row_word_extent snap k in
      snap_lo.(k) <- lo;
      snap_hi.(k) <- hi);
    (* Shard the targets into fixed [block_rows] blocks, blocks and
       rows both descending. *)
    let blocks = ref [] and cur_b = ref (-1) and cur_rows = ref [] in
    Bit_matrix.Mask.iter t_mask (fun i ->
      let b = i / block_rows in
      if b <> !cur_b then begin
        if !cur_b >= 0 then blocks := (!cur_b, !cur_rows) :: !blocks;
        cur_b := b;
        cur_rows := [ i ]
      end
      else cur_rows := i :: !cur_rows);
    if !cur_b >= 0 then blocks := (!cur_b, !cur_rows) :: !blocks;
    let blocks = !blocks in
    let run_block (b, targets) =
      let lo = b * block_rows in
      let hi = min n (lo + block_rows) in
      let pull = Bit_matrix.row_scratch m in
      let own = Bit_matrix.row_scratch m in
      let ors = ref 0 and rows = ref 0 in
      List.iter
        (fun i ->
           incr rows;
           if Bit_matrix.Mask.mem d_mask i then
             Bit_matrix.copy_row news i pull
           else Bit_matrix.clear_scratch pull;
           Bit_matrix.copy_row m i own;
           let ti = tidx.(i) in
           let or_from read k w_lo w_hi =
             if w_hi >= w_lo then begin
               ors := !ors + (w_hi - w_lo + 1);
               if (not cfg.restricted_transitivity) || tidx.(k) = ti then
                 Bit_matrix.or_row_between_tracked_range ~read ~write:m
                   ~delta ~dst:i ~src:k ~w_lo ~w_hi
               else
                 Bit_matrix.or_row_between_masked_compl_tracked_range ~read
                   ~write:m ~delta ~dst:i ~src:k ~mask:thread_masks.(ti)
                   ~w_lo ~w_hi
             end
           in
           Bit_matrix.iter_sources ~own ~mask:d_mask ~plus:pull
             ~fresh:(fun k ->
               (* a successor [i] has never absorbed: its whole row,
                  live within the block, snapshotted across blocks
                  (the extent always comes from the snapshot, so the
                  words visited are jobs-independent) *)
               if k <> i then
                 or_from
                   (if k >= lo && k < hi then m else snap)
                   k snap_lo.(k) snap_hi.(k))
             ~dirty:(fun k ->
               (* a long-standing successor that grew: only its news *)
               if k <> i then or_from news k news_lo.(k) news_hi.(k)))
        targets;
      (!ors, !rows)
    in
    let results = Par_pool.parallel_map ~jobs run_block blocks in
    List.iter
      (fun (ors, rows) ->
         word_ors := !word_ors + ors;
         rows_requeued := !rows_requeued + rows)
      results;
    (* A target whose delta row is non-empty gained bits this round:
       it is dirty again. *)
    let changed = ref false in
    List.iter
      (fun (_, targets) ->
         List.iter
           (fun i ->
              if not (Bit_matrix.row_is_empty delta i) then begin
                changed := true;
                mark_dirty i
              end)
           targets)
      blocks;
    !changed
  in
  let drain () =
    let changed = ref false in
    while !dirty_count > 0 do
      if round () then changed := true
    done;
    !changed
  in
  let passes = ref 0 in
  (* Alternate draining the worklist with the dynamic rules until
     neither adds an edge.  One span per pass, carrying the number of
     ordering pairs the pass discovered (a population count, so only
     computed when telemetry is on — the fixpoint itself never pays for
     it). *)
  let rec fixpoint () =
    incr passes;
    let continue_ =
      Obs.with_span "hb.pass"
        ~args:[ ("pass", string_of_int !passes) ]
        (fun () ->
           let before = if Obs.enabled () then Bit_matrix.count m else 0 in
           let c1 = Obs.with_span "hb.closure" drain in
           let c2 = Obs.with_span "hb.dynamic_rules" apply_dynamic in
           if Obs.enabled () then begin
             let added = Bit_matrix.count m - before in
             Obs.set_span_arg "edges_added" (string_of_int added);
             Obs.add ~n:added "hb.edges_added"
           end;
           c1 || c2)
    in
    if continue_ then fixpoint ()
  in
  fixpoint ();
  Obs.add ~n:!passes "hb.passes";
  Obs.add ~n:!word_ors "hb.word_ors";
  Obs.add ~n:!rows_requeued "hb.rows_requeued";
  { graph = g
  ; cfg
  ; matrix = m
  ; fixpoint_passes = !passes
  ; word_ors = !word_ors
  ; rows_requeued = !rows_requeued
  }

let compute ?(config = default) ?(jobs = 1) g =
  Obs.with_span "hb.compute"
    ~args:
      [ ("nodes", string_of_int (Graph.node_count g))
      ; ("jobs", string_of_int jobs)
      ]
    (fun () -> compute_impl ~config ~jobs g)

let node_hb t i j = i <> j && Bit_matrix.get t.matrix i j

let hb t i j =
  if i = j then false
  else
    let ni = Graph.node_of_pos t.graph i and nj = Graph.node_of_pos t.graph j in
    if ni = nj then i < j else Bit_matrix.get t.matrix ni nj

let hb_or_eq t i j = i = j || hb t i j
let ordered t i j = hb t i j || hb t j i

let same_thread t i j =
  Thread_id.equal
    (Trace.thread (Graph.trace t.graph) i)
    (Trace.thread (Graph.trace t.graph) j)

let node_count t = Graph.node_count t.graph
let edge_count t = Bit_matrix.count t.matrix
let passes t = t.fixpoint_passes
let word_ors t = t.word_ors
let rows_requeued t = t.rows_requeued
