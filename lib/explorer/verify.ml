open! Import
module Task_id = Ident.Task_id
module Thread_id = Ident.Thread_id
module Location = Ident.Location

(* Where an access executes: inside an asynchronous task (identified by
   its procedure name, instance stripped) or directly on a named
   thread.  Both are stable across schedules, unlike thread ids. *)
type context =
  | In_task of string
  | On_thread of string

type site =
  { s_location : Location.t
  ; s_is_write : bool
  ; s_context : context
  ; s_ordinal : int
  }

let context_equal a b =
  match a, b with
  | In_task n, In_task n' | On_thread n, On_thread n' -> String.equal n n'
  | (In_task _ | On_thread _), _ -> false

let context_of trace thread_names pos =
  match Trace.enclosing_task trace pos with
  | Some p -> In_task (Task_id.name p)
  | None ->
    let tid = Trace.thread trace pos in
    On_thread
      (match
         List.find_opt (fun (t, _) -> Thread_id.equal t tid) thread_names
       with
       | Some (_, name) -> name
       | None -> Thread_id.to_string tid)

(* Accesses in [trace] matching the site's location, kind and context,
   in trace order. *)
let matching_positions trace thread_names site =
  let out = ref [] in
  Trace.iteri
    (fun i (e : Trace.event) ->
       let matches =
         (match Operation.accessed_location e.op with
          | Some m -> Location.equal m site.s_location
          | None -> false)
         && Operation.is_write e.op = site.s_is_write
         && context_equal (context_of trace thread_names i) site.s_context
       in
       if matches then out := i :: !out)
    trace;
  List.rev !out

let site_of_access ~thread_names trace (a : Race.access) =
  let site =
    { s_location = a.location
    ; s_is_write = a.is_write
    ; s_context = context_of trace thread_names a.position
    ; s_ordinal = 0
    }
  in
  let positions = matching_positions trace thread_names site in
  let ordinal =
    match List.find_index (fun i -> i = a.position) positions with
    | Some n -> n
    | None -> 0
  in
  { site with s_ordinal = ordinal }

let pp_context ppf = function
  | In_task n -> Format.fprintf ppf "task %s" n
  | On_thread n -> Format.fprintf ppf "thread %s" n

let pp_site ppf s =
  Format.fprintf ppf "%s(%a)#%d in %a"
    (if s.s_is_write then "write" else "read")
    Location.pp s.s_location s.s_ordinal pp_context s.s_context

let find_site ~thread_names trace site =
  List.nth_opt (matching_positions trace thread_names site) site.s_ordinal

type witness =
  { w_seed : int
  ; w_events : Runtime.ui_event list
  ; w_first : int
  ; w_second : int
  }

type verdict =
  | Confirmed of witness
  | Not_flipped of int

let is_confirmed = function
  | Confirmed _ -> true
  | Not_flipped _ -> false

(* Candidate event orders: the original, each adjacent transposition,
   and the full reverse — "change the order of triggering events". *)
let event_orders events =
  let swaps =
    List.init
      (max 0 (List.length events - 1))
      (fun i ->
         List.mapi
           (fun j e ->
              if j = i then List.nth events (i + 1)
              else if j = i + 1 then List.nth events i
              else e)
           events)
  in
  let dedup orders =
    List.fold_left
      (fun acc o -> if List.mem o acc then acc else acc @ [ o ])
      [] orders
  in
  dedup ((events :: swaps) @ [ List.rev events ])

let context_name = function
  | In_task n | On_thread n -> n

let verify ?(attempts = 12) ?(options = Runtime.default_options) ~app ~events
    ~trace ~thread_names (race : Race.t) =
  let site1 = site_of_access ~thread_names trace race.first
  and site2 = site_of_access ~thread_names trace race.second in
  let orders = event_orders events in
  (* Stalling the first access's context — or any context along its
     chain of posts, since a FIFO queue cannot reorder tasks that are
     already enqueued — is the model-level version of the paper's
     "stall certain threads using breakpoints". *)
  let chain_contexts =
    List.map
      (fun pos -> context_name (context_of trace thread_names pos))
      (Classify.chain trace race.first.position)
  in
  let holds =
    List.fold_left
      (fun acc h -> if List.mem h acc then acc else acc @ [ h ])
      []
      ([] :: [ context_name site1.s_context ]
       :: List.map (fun c -> [ c ]) chain_contexts)
  in
  let prepared = Runtime.prepare app in
  let tried = ref 0 in
  let result = ref None in
  let try_run seed order hold =
    if Option.is_none !result then begin
      incr tried;
      match
        Runtime.run_prepared
          ~options:{ options with policy = Runtime.Seeded seed; hold }
          prepared order
      with
      | r ->
        let names = r.Runtime.thread_names in
        (match
           ( find_site ~thread_names:names r.Runtime.observed site1
           , find_site ~thread_names:names r.Runtime.observed site2 )
         with
         | Some p1, Some p2 when p2 < p1 ->
           result :=
             Some { w_seed = seed; w_events = order; w_first = p2; w_second = p1 }
         | (Some _ | None), (Some _ | None) -> ())
      | exception Runtime.Stuck _ -> ()
    end
  in
  let variants = List.concat_map (fun o -> List.map (fun h -> (o, h)) holds) orders in
  let per_variant = max 1 (attempts / List.length variants) in
  List.iter
    (fun (order, hold) ->
       for seed = 1 to per_variant do
         try_run seed order hold
       done)
    variants;
  match !result with
  | Some w -> Confirmed w
  | None -> Not_flipped !tried
