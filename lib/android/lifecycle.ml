type activity_callback =
  | On_create
  | On_start
  | On_resume
  | On_pause
  | On_stop
  | On_restart
  | On_destroy

let activity_callback_name = function
  | On_create -> "onCreate"
  | On_start -> "onStart"
  | On_resume -> "onResume"
  | On_pause -> "onPause"
  | On_stop -> "onStop"
  | On_restart -> "onRestart"
  | On_destroy -> "onDestroy"

let activity_callback_equal a b =
  match a, b with
  | On_create, On_create
  | On_start, On_start
  | On_resume, On_resume
  | On_pause, On_pause
  | On_stop, On_stop
  | On_restart, On_restart
  | On_destroy, On_destroy -> true
  | ( ( On_create | On_start | On_resume | On_pause | On_stop | On_restart
      | On_destroy )
    , _ ) -> false

let pp_activity_callback ppf c =
  Format.pp_print_string ppf (activity_callback_name c)

type activity_state =
  | Launched
  | Created
  | Started
  | Running
  | Paused
  | Stopped
  | Destroyed

let activity_state_equal a b =
  match a, b with
  | Launched, Launched
  | Created, Created
  | Started, Started
  | Running, Running
  | Paused, Paused
  | Stopped, Stopped
  | Destroyed, Destroyed -> true
  | (Launched | Created | Started | Running | Paused | Stopped | Destroyed), _
    -> false

let pp_activity_state ppf s =
  Format.pp_print_string ppf
    (match s with
     | Launched -> "launched"
     | Created -> "created"
     | Started -> "started"
     | Running -> "running"
     | Paused -> "paused"
     | Stopped -> "stopped"
     | Destroyed -> "destroyed")

let initial_activity_state = Launched

(* The may-successor sets of Figure 8, completed with the onPause →
   onResume return edge of the full Android lifecycle. *)
let activity_successors = function
  | Launched -> [ On_create ]
  | Created -> [ On_start ]
  | Started -> [ On_resume; On_stop ]
  | Running -> [ On_pause ]
  | Paused -> [ On_resume; On_stop ]
  | Stopped -> [ On_restart; On_destroy ]
  | Destroyed -> []

let apply_callback = function
  | On_create -> Created
  | On_start -> Started
  | On_resume -> Running
  | On_pause -> Paused
  | On_stop -> Stopped
  | On_restart -> Created  (* onRestart is followed by onStart *)
  | On_destroy -> Destroyed

let activity_step state callback =
  if List.exists (activity_callback_equal callback) (activity_successors state)
  then Ok (apply_callback callback)
  else
    Error
      (Format.asprintf "%a may not follow the %a state" pp_activity_callback
         callback pp_activity_state state)

let launch_sequence = [ On_create; On_start; On_resume ]
let relaunch_sequence = [ On_restart; On_start; On_resume ]
let teardown_sequence = [ On_pause; On_stop; On_destroy ]

type service_callback =
  | Svc_create
  | Svc_start_command
  | Svc_destroy

let service_callback_name = function
  | Svc_create -> "onCreateService"
  | Svc_start_command -> "onStartCommand"
  | Svc_destroy -> "onDestroyService"

type service_state =
  | Svc_new
  | Svc_created
  | Svc_started
  | Svc_destroyed

let initial_service_state = Svc_new

let service_successors = function
  | Svc_new -> [ Svc_create ]
  | Svc_created -> [ Svc_start_command ]
  | Svc_started -> [ Svc_start_command; Svc_destroy ]
  | Svc_destroyed -> []

let service_step state callback =
  let eq a b =
    match a, b with
    | Svc_create, Svc_create
    | Svc_start_command, Svc_start_command
    | Svc_destroy, Svc_destroy -> true
    | (Svc_create | Svc_start_command | Svc_destroy), _ -> false
  in
  if List.exists (eq callback) (service_successors state) then
    Ok
      (match callback with
       | Svc_create -> Svc_created
       | Svc_start_command -> Svc_started
       | Svc_destroy -> Svc_destroyed)
  else
    Error
      (Printf.sprintf "%s is not permitted in the current service state"
         (service_callback_name callback))
