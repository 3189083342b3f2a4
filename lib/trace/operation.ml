type post_flavour = Immediate | Delayed of int | Front

type t =
  | Thread_init
  | Thread_exit
  | Fork of Ident.Thread_id.t
  | Join of Ident.Thread_id.t
  | Attach_queue
  | Loop_on_queue
  | Post of
      { task : Ident.Task_id.t
      ; target : Ident.Thread_id.t
      ; flavour : post_flavour
      }
  | Begin_task of Ident.Task_id.t
  | End_task of Ident.Task_id.t
  | Acquire of Ident.Lock_id.t
  | Release of Ident.Lock_id.t
  | Read of Ident.Location.t
  | Write of Ident.Location.t
  | Enable of Ident.Task_id.t
  | Cancel of Ident.Task_id.t

let flavour_rank = function Immediate -> 0 | Delayed _ -> 1 | Front -> 2

let compare_flavour a b =
  match a, b with
  | Immediate, Immediate | Front, Front -> 0
  | Delayed x, Delayed y -> Int.compare x y
  | (Immediate | Delayed _ | Front), (Immediate | Delayed _ | Front) ->
    Int.compare (flavour_rank a) (flavour_rank b)

let rank = function
  | Thread_init -> 0
  | Thread_exit -> 1
  | Fork _ -> 2
  | Join _ -> 3
  | Attach_queue -> 4
  | Loop_on_queue -> 5
  | Post _ -> 6
  | Begin_task _ -> 7
  | End_task _ -> 8
  | Acquire _ -> 9
  | Release _ -> 10
  | Read _ -> 11
  | Write _ -> 12
  | Enable _ -> 13
  | Cancel _ -> 14

let compare a b =
  match a, b with
  | Fork t, Fork t' | Join t, Join t' -> Ident.Thread_id.compare t t'
  | Post p, Post p' ->
    (match Ident.Task_id.compare p.task p'.task with
     | 0 ->
       (match Ident.Thread_id.compare p.target p'.target with
        | 0 -> compare_flavour p.flavour p'.flavour
        | c -> c)
     | c -> c)
  | Begin_task p, Begin_task p'
  | End_task p, End_task p'
  | Enable p, Enable p'
  | Cancel p, Cancel p' -> Ident.Task_id.compare p p'
  | Acquire l, Acquire l' | Release l, Release l' -> Ident.Lock_id.compare l l'
  | Read m, Read m' | Write m, Write m' -> Ident.Location.compare m m'
  | ( ( Thread_init | Thread_exit | Fork _ | Join _ | Attach_queue
      | Loop_on_queue | Post _ | Begin_task _ | End_task _ | Acquire _
      | Release _ | Read _ | Write _ | Enable _ | Cancel _ )
    , _ ) -> Int.compare (rank a) (rank b)

let equal a b = compare a b = 0

let mnemonic = function
  | Thread_init -> "threadinit"
  | Thread_exit -> "threadexit"
  | Fork _ -> "fork"
  | Join _ -> "join"
  | Attach_queue -> "attachq"
  | Loop_on_queue -> "looponq"
  | Post _ -> "post"
  | Begin_task _ -> "begin"
  | End_task _ -> "end"
  | Acquire _ -> "acquire"
  | Release _ -> "release"
  | Read _ -> "read"
  | Write _ -> "write"
  | Enable _ -> "enable"
  | Cancel _ -> "cancel"

let pp ppf op =
  let key = mnemonic op in
  match op with
  | Thread_init | Thread_exit | Attach_queue | Loop_on_queue ->
    Format.pp_print_string ppf key
  | Fork t | Join t -> Format.fprintf ppf "%s %a" key Ident.Thread_id.pp t
  | Post { task; target; flavour } ->
    let pp_flavour ppf = function
      | Immediate -> ()
      | Delayed d -> Format.fprintf ppf " delay=%d" d
      | Front -> Format.fprintf ppf " front"
    in
    Format.fprintf ppf "%s %a %a%a" key Ident.Task_id.pp task
      Ident.Thread_id.pp target pp_flavour flavour
  | Begin_task p | End_task p | Enable p | Cancel p ->
    Format.fprintf ppf "%s %a" key Ident.Task_id.pp p
  | Acquire l | Release l -> Format.fprintf ppf "%s %a" key Ident.Lock_id.pp l
  | Read m | Write m -> Format.fprintf ppf "%s %a" key Ident.Location.pp m

let accessed_location = function
  | Read m | Write m -> Some m
  | Thread_init | Thread_exit | Fork _ | Join _ | Attach_queue | Loop_on_queue
  | Post _ | Begin_task _ | End_task _ | Acquire _ | Release _ | Enable _
  | Cancel _ -> None

let is_write = function
  | Write _ -> true
  | Thread_init | Thread_exit | Fork _ | Join _ | Attach_queue | Loop_on_queue
  | Post _ | Begin_task _ | End_task _ | Acquire _ | Release _ | Read _
  | Enable _ | Cancel _ -> false

let conflicts a b =
  match accessed_location a, accessed_location b with
  | Some m, Some m' ->
    Ident.Location.equal m m' && (is_write a || is_write b)
  | None, _ | _, None -> false

let is_synchronization = function
  | Read _ | Write _ | Enable _ | Cancel _ -> false
  | Thread_init | Thread_exit | Fork _ | Join _ | Attach_queue | Loop_on_queue
  | Post _ | Begin_task _ | End_task _ | Acquire _ | Release _ -> true
