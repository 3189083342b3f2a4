open! Import
module Thread_id = Ident.Thread_id
module Task_id = Ident.Task_id
module Lock_id = Ident.Lock_id

type program_order = Android_po | Full_po

type rule =
  | Program_order
  | Loop_queue
  | Enable
  | Post
  | Attach
  | Fork
  | Join
  | Lock

let rule_name = function
  | Program_order -> "program-order"
  | Loop_queue -> "loop-queue"
  | Enable -> "enable"
  | Post -> "post"
  | Attach -> "attach"
  | Fork -> "fork"
  | Join -> "join"
  | Lock -> "lock"

type config =
  { program_order : program_order
  ; enable_rule : bool
  ; post_rule : bool
  ; attach_rule : bool
  ; fork_join_rules : bool
  ; lock_rule : bool
  ; lock_same_thread : bool
  }

let all =
  { program_order = Android_po
  ; enable_rule = true
  ; post_rule = true
  ; attach_rule = true
  ; fork_join_rules = true
  ; lock_rule = true
  ; lock_same_thread = false
  }

let must = { all with lock_rule = false }

(* The flavour side condition of the FIFO rule with the delayed-post
   refinement of Section 4.2.  The happens-before treatment of
   front-of-queue posts is deferred by the paper, so they never produce
   FIFO edges. *)
let fifo_flavours_ok f1 f2 =
  match (f1 : Operation.post_flavour), (f2 : Operation.post_flavour) with
  | Immediate, (Immediate | Delayed _) -> true
  | Delayed d1, Delayed d2 -> d1 <= d2
  | Delayed _, Immediate -> false
  | Front, (Immediate | Delayed _ | Front) -> false
  | (Immediate | Delayed _), Front -> false

let iter ~config:cfg g ~f =
  let trace = Graph.trace g in
  let node_of_pos = Graph.node_of_pos g in
  let emit ~rule src dst = if src <> dst then f ~rule src dst in
  (* Base edge between trace positions, guarded by trace order (every
     rule of Figures 6 and 7 assumes i < j). *)
  let emit_pos ~rule i j =
    if i < j then emit ~rule (node_of_pos i) (node_of_pos j)
  in
  (* Program order. *)
  List.iter
    (fun tid ->
       let nodes = Graph.nodes_of_thread g tid in
       let loop_pos = Trace.loop_index trace tid in
       let chain_ok a b =
         match cfg.program_order with
         | Full_po -> true
         | Android_po ->
           (match loop_pos with
            | None -> true
            | Some lp ->
              Graph.last_pos g a <= lp
              ||
              (match Graph.task_of_node g a, Graph.task_of_node g b with
               | Some p, Some q -> Task_id.equal p q
               | Some _, None | None, Some _ | None, None -> false))
       in
       let rec chain = function
         | a :: (b :: _ as rest) ->
           if chain_ok a b then emit ~rule:Program_order a b;
           chain rest
         | [ _ ] | [] -> ()
       in
       chain nodes;
       (* NO-Q-PO with αi = loopOnQ: the loop node precedes every later
          operation of the thread, across all tasks. *)
       (match cfg.program_order, loop_pos with
        | Android_po, Some lp ->
          let loop_node = node_of_pos lp in
          List.iter
            (fun b ->
               if Graph.first_pos g b > lp then emit ~rule:Loop_queue loop_node b)
            nodes
        | Android_po, None | Full_po, _ -> ()))
    (Trace.threads trace);
  (* ENABLE-ST / ENABLE-MT and POST-ST / POST-MT. *)
  List.iter
    (fun p ->
       match Trace.post_index trace p with
       | Some q ->
         if cfg.enable_rule then
           (match Trace.enable_index trace p with
            | Some e -> emit_pos ~rule:Enable e q
            | None -> ());
         if cfg.post_rule then
           (match Trace.begin_index trace p with
            | Some b -> emit_pos ~rule:Post q b
            | None -> ())
       | None -> ())
    (Trace.tasks trace);
  (* ATTACH-Q-MT.  Each thread's attach-queue node is found once up
     front; the per-post scan over [nodes_of_thread] was quadratic in
     the number of cross-thread posts.  Like every other rule it needs
     the attach before the post (both are anchors, so node order is
     trace order). *)
  if cfg.attach_rule then begin
    let attach_node : (int, int) Hashtbl.t = Hashtbl.create 8 in
    List.iter
      (fun tid ->
         match
           List.find_opt
             (fun id ->
                match Graph.kind g id with
                | Graph.Anchor pos ->
                  (match Trace.op trace pos with
                   | Operation.Attach_queue -> true
                   | _ -> false)
                | Graph.Access_block -> false)
             (Graph.nodes_of_thread g tid)
         with
         | Some id -> Hashtbl.add attach_node (Thread_id.to_int tid) id
         | None -> ())
      (Trace.threads trace);
    Trace.iteri
      (fun i (e : Trace.event) ->
         match e.op with
         | Operation.Post { target; _ } when not (Thread_id.equal e.thread target)
           ->
           (match Hashtbl.find_opt attach_node (Thread_id.to_int target) with
            | Some attach_node when attach_node < node_of_pos i ->
              emit ~rule:Attach attach_node (node_of_pos i)
            | Some _ | None -> ())
         | _ -> ())
      trace
  end;
  (* FORK, JOIN, LOCK.  Acquires and releases are bucketed per lock in
     one pass (keyed by [Lock_id.t] directly, no string key), so the
     LOCK rule pairs within a bucket instead of re-walking every
     acquire binding of the hash table per release. *)
  let init_pos = Hashtbl.create 8 and exit_pos = Hashtbl.create 8 in
  let locks :
    ( Lock_id.t
    , (int * Thread_id.t) list ref * (int * Thread_id.t) list ref )
      Hashtbl.t =
    Hashtbl.create 8
  in
  let lock_bucket l =
    match Hashtbl.find_opt locks l with
    | Some b -> b
    | None ->
      let b = (ref [], ref []) in
      Hashtbl.add locks l b;
      b
  in
  Trace.iteri
    (fun i (e : Trace.event) ->
       match e.op with
       | Operation.Thread_init ->
         if not (Hashtbl.mem init_pos (Thread_id.to_int e.thread)) then
           Hashtbl.add init_pos (Thread_id.to_int e.thread) i
       | Operation.Thread_exit ->
         if not (Hashtbl.mem exit_pos (Thread_id.to_int e.thread)) then
           Hashtbl.add exit_pos (Thread_id.to_int e.thread) i
       | Operation.Release l ->
         let _, releases = lock_bucket l in
         releases := (i, e.thread) :: !releases
       | Operation.Acquire l ->
         let acquires, _ = lock_bucket l in
         acquires := (i, e.thread) :: !acquires
       | _ -> ())
    trace;
  if cfg.fork_join_rules then
    Trace.iteri
      (fun i (e : Trace.event) ->
         match e.op with
         | Operation.Fork t' ->
           (match Hashtbl.find_opt init_pos (Thread_id.to_int t') with
            | Some j -> emit_pos ~rule:Fork i j
            | None -> ())
         | Operation.Join t' ->
           (match Hashtbl.find_opt exit_pos (Thread_id.to_int t') with
            | Some j -> emit_pos ~rule:Join j i
            | None -> ())
         | _ -> ())
      trace;
  if cfg.lock_rule then
    Hashtbl.iter
      (fun _ (acquires, releases) ->
         List.iter
           (fun (ri, rt) ->
              List.iter
                (fun (ai, at) ->
                   if
                     ri < ai
                     && (cfg.lock_same_thread || not (Thread_id.equal rt at))
                   then emit_pos ~rule:Lock ri ai)
                !acquires)
           !releases)
      locks
