open! Import
module Thread_id = Ident.Thread_id

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
  for th = 0 to Trace.thread_count trace - 1 do
    let nodes = Graph.nodes_of_thread_index g th in
    let loop_pos = Trace.loop_index trace (Trace.thread_id trace th) in
    let chain_ok a b =
      match cfg.program_order with
      | Full_po -> true
      | Android_po ->
        (match loop_pos with
         | None -> true
         | Some lp ->
           Graph.last_pos g a <= lp
           ||
           let p = Graph.task_index_of_node g a in
           p >= 0 && p = Graph.task_index_of_node g b)
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
    match cfg.program_order, loop_pos with
    | Android_po, Some lp ->
      let loop_node = node_of_pos lp in
      List.iter
        (fun b ->
           if Graph.first_pos g b > lp then emit ~rule:Loop_queue loop_node b)
        nodes
    | Android_po, None | Full_po, _ -> ()
  done;
  (* ENABLE-ST / ENABLE-MT and POST-ST / POST-MT. *)
  Trace.iter_posted
    (fun k ->
       let q = Trace.post_at trace k in
       if cfg.enable_rule then begin
         let e = Trace.enable_at trace k in
         if e >= 0 then emit_pos ~rule:Enable e q
       end;
       if cfg.post_rule then begin
         let b = Trace.begin_at trace k in
         if b >= 0 then emit_pos ~rule:Post q b
       end)
    trace;
  (* One pass over the columns finds each thread's first threadinit,
     threadexit and attachQ, and buckets the acquires and releases by
     lock index, so the LOCK rule pairs within a bucket. *)
  let threads = Trace.thread_count trace in
  let init_pos = Array.make threads (-1) and exit_pos = Array.make threads (-1) in
  let attach_pos = Array.make threads (-1) in
  let acquires = Array.make (Trace.lock_count trace) [] in
  let releases = Array.make (Trace.lock_count trace) [] in
  let first_of at th i = if at.(th) < 0 then at.(th) <- i in
  let n = Trace.length trace in
  for i = 0 to n - 1 do
    match Trace.kind trace i with
    | Thread_init -> first_of init_pos (Trace.thread_index trace i) i
    | Thread_exit -> first_of exit_pos (Trace.thread_index trace i) i
    | Attach_queue -> first_of attach_pos (Trace.thread_index trace i) i
    | Acquire ->
      let l = Trace.operand trace i in
      acquires.(l) <- (i, Trace.thread_index trace i) :: acquires.(l)
    | Release ->
      let l = Trace.operand trace i in
      releases.(l) <- (i, Trace.thread_index trace i) :: releases.(l)
    | Fork | Join | Loop_on_queue | Post | Begin_task | End_task | Read
    | Write | Enable | Cancel -> ()
  done;
  (* ATTACH-Q-MT: like every other rule it needs the attach before the
     post (both are anchors, so node order is trace order).  FORK and
     JOIN go by the target's first threadinit and threadexit. *)
  let target_pos at raw =
    let th = Trace.index_of_thread trace (Thread_id.make raw) in
    if th < 0 then -1 else at.(th)
  in
  if cfg.attach_rule || cfg.fork_join_rules then
    for i = 0 to n - 1 do
      match Trace.kind trace i with
      | Post when cfg.attach_rule ->
        let target = Trace.target_index trace (Trace.operand trace i) in
        if target >= 0 && target <> Trace.thread_index trace i then begin
          let a = attach_pos.(target) in
          if a >= 0 && node_of_pos a < node_of_pos i then
            emit ~rule:Attach (node_of_pos a) (node_of_pos i)
        end
      | Fork when cfg.fork_join_rules ->
        let j = target_pos init_pos (Trace.operand trace i) in
        if j >= 0 then emit_pos ~rule:Fork i j
      | Join when cfg.fork_join_rules ->
        let j = target_pos exit_pos (Trace.operand trace i) in
        if j >= 0 then emit_pos ~rule:Join j i
      | Post | Fork | Join | Thread_init | Thread_exit | Attach_queue
      | Loop_on_queue | Begin_task | End_task | Acquire | Release | Read
      | Write | Enable | Cancel -> ()
    done;
  if cfg.lock_rule then
    Array.iteri
      (fun l releases ->
         List.iter
           (fun (ri, rt) ->
              List.iter
                (fun (ai, at) ->
                   if ri < ai && (cfg.lock_same_thread || rt <> at) then
                     emit_pos ~rule:Lock ri ai)
                acquires.(l))
           releases)
      releases
