open! Import

module Task_id = Ident.Task_id

type entry =
  { task : Task_id.t
  ; flavour : Operation.post_flavour
  }

(* in arrival order *)
type t = entry list

let empty = []
let is_empty q = q = []
let mem q p = List.exists (fun e -> Task_id.equal e.task p) q
let pending q = List.map (fun e -> e.task) q

let post q p flavour =
  if mem q p then
    invalid_arg
      (Format.asprintf "Queue_model.post: task %a already pending" Task_id.pp p);
  q @ [ { task = p; flavour } ]

let cancel q p =
  if mem q p then
    Some (List.filter (fun e -> not (Task_id.equal e.task p)) q)
  else None

(* The dispatch policy; see the interface for the rationale.  One pass
   in arrival order: an immediate post is eligible iff no immediate post
   precedes it, a delayed post iff no immediate post and no delayed post
   with a smaller or equal timeout precedes it. *)
let iter_eligible f q =
  let rec last_front found = function
    | [] -> found
    | e :: rest ->
      last_front (if e.flavour = Operation.Front then Some e else found) rest
  in
  (* [min_delay] is the smallest timeout among the earlier delayed posts,
     if [delayed] *)
  let rec scan ~immediate ~delayed ~min_delay = function
    | [] -> ()
    | e :: rest ->
      (match e.flavour with
       | Operation.Immediate ->
         if not immediate then f e.task;
         scan ~immediate:true ~delayed ~min_delay rest
       | Operation.Delayed d ->
         if (not immediate) && ((not delayed) || min_delay > d) then f e.task;
         scan ~immediate ~delayed:true ~min_delay:(min d min_delay) rest
       | Operation.Front -> scan ~immediate ~delayed ~min_delay rest)
  in
  match last_front None q with
  | Some top -> f top.task
  | None -> scan ~immediate:false ~delayed:false ~min_delay:max_int q

let eligible q =
  let acc = ref [] in
  iter_eligible (fun p -> acc := p :: !acc) q;
  List.rev !acc

let is_eligible q p =
  let found = ref false in
  iter_eligible (fun p' -> if Task_id.equal p p' then found := true) q;
  !found

let dequeue q p =
  if not (mem q p) then
    Error (Format.asprintf "task %a is not pending" Task_id.pp p)
  else if not (is_eligible q p) then
    Error
      (Format.asprintf
         "task %a may not be dispatched yet (eligible: %a)" Task_id.pp p
         (Format.pp_print_list ~pp_sep:Format.pp_print_space Task_id.pp)
         (eligible q))
  else
    Ok (List.filter (fun e -> not (Task_id.equal e.task p)) q)
