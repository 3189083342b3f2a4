open! Import
module Thread_id = Ident.Thread_id
module Task_id = Ident.Task_id

(* The transitive closure of tasks to delete: killing a task kills the
   tasks posted from inside it. *)
let task_closure trace seeds =
  let killed = Hashtbl.create 8 in
  let rec add p =
    let key = Task_id.to_string p in
    if not (Hashtbl.mem killed key) then begin
      Hashtbl.replace killed key ();
      Trace.iteri
        (fun i (e : Trace.event) ->
           match e.op with
           | Operation.Post { task = q; _ } ->
             (match Trace.enclosing_task trace i with
              | Some owner when Task_id.equal owner p -> add q
              | Some _ | None -> ())
           | _ -> ())
        trace
    end
  in
  List.iter add seeds;
  fun p -> Hashtbl.mem killed (Task_id.to_string p)

(* Keep predicate for deleting a set of tasks (and nothing else). *)
let keep_without_tasks trace killed i (e : Trace.event) =
  let task_killed p = killed p in
  (match Trace.enclosing_task trace i with
   | Some p when task_killed p -> false
   | Some _ | None ->
     (match e.op with
      | Operation.Post { task = p; _ }
      | Operation.Enable p
      | Operation.Cancel p -> not (task_killed p)
      | _ -> true))

(* Keep predicate for deleting a whole thread: its operations, the tasks
   it posted, and the tasks that executed on it. *)
let keep_without_thread trace tid i (e : Trace.event) =
  let seeds =
    List.filter
      (fun p ->
         (match Trace.post_target trace p with
          | Some target -> Thread_id.equal target tid
          | None -> false)
         ||
         match Trace.post_index trace p with
         | Some pos -> Thread_id.equal (Trace.thread trace pos) tid
         | None -> false)
      (Trace.tasks trace)
  in
  let killed = task_closure trace seeds in
  (not (Thread_id.equal e.thread tid)) && keep_without_tasks trace killed i e

let remove trace keep =
  let kept = ref [] in
  let remap = Array.make (Trace.length trace) (-1) in
  let n = ref 0 in
  Trace.iteri
    (fun i e ->
       if keep i e then begin
         remap.(i) <- !n;
         incr n;
         kept := e :: !kept
       end)
    trace;
  match Trace.of_rev_events !kept with
  | Ok t -> Some (t, fun pos -> remap.(pos))
  | Error _ -> None

let still_races trace (race : Race.t) remap =
  let p1 = remap race.first.position and p2 = remap race.second.position in
  if p1 < 0 || p2 < 0 then false
  else begin
    let hb = Happens_before.compute (Graph.build ~coalesce:true trace) in
    not (Happens_before.ordered hb p1 p2)
  end

let remap_race trace (race : Race.t) remap =
  let move (a : Race.access) =
    let position = remap a.position in
    { a with Race.position; task = Trace.enclosing_task trace position }
  in
  { Race.first = move race.first; second = move race.second }

let minimize trace (race : Race.t) =
  let initial_hb = Happens_before.compute (Graph.build ~coalesce:true trace) in
  if
    Happens_before.ordered initial_hb race.first.position race.second.position
    || not
         (Operation.conflicts
            (Trace.op trace race.first.position)
            (Trace.op trace race.second.position))
  then invalid_arg "Minimize.minimize: not a race of this trace";
  let protected_task i =
    Trace.enclosing_task trace i
  in
  let rec shrink trace race =
    let racy_tasks =
      List.filter_map Fun.id
        [ protected_task race.Race.first.position
        ; protected_task race.Race.second.position
        ]
    in
    (* protect the racy accesses' tasks and the chains that classify
       them would need? only the accesses themselves must survive; a
       candidate is rejected anyway if it deletes them. *)
    let task_candidates =
      List.filter
        (fun p -> not (List.exists (Task_id.equal p) racy_tasks))
        (Trace.tasks trace)
    in
    let thread_candidates =
      List.filter
        (fun t ->
           (not (Thread_id.equal t race.Race.first.thread))
           && not (Thread_id.equal t race.Race.second.thread))
        (Trace.threads trace)
    in
    let try_candidate keep =
      match remove trace keep with
      | None -> None
      | Some (trace', remap) ->
        if
          Trace.length trace' < Trace.length trace
          && remap race.Race.first.position >= 0
          && remap race.Race.second.position >= 0
          && still_races trace' race remap
        then Some (trace', remap_race trace' race remap)
        else None
    in
    let attempt =
      List.find_map
        (fun p ->
           let killed = task_closure trace [ p ] in
           try_candidate (keep_without_tasks trace killed))
        task_candidates
    in
    let attempt =
      match attempt with
      | Some _ -> attempt
      | None ->
        List.find_map
          (fun t -> try_candidate (keep_without_thread trace t))
          thread_candidates
    in
    match attempt with
    | Some (trace', race') -> shrink trace' race'
    | None -> (trace, race)
  in
  shrink trace race
