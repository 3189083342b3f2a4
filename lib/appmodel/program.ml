open! Import

type field = Ident.Location.t

let field ?(obj = 0) ~cls name = Ident.Location.make ~cls ~field:name ~obj

type target =
  | Main_thread
  | Named_thread of string

type stmt =
  | Read of field
  | Write of field
  | Synchronized of string * stmt list
  | Fork of string * stmt list
  | Fork_looper of string
  | Join of string
  | Post of post
  | Cancel_last of string
  | Execute_async_task of async_spec
  | Publish_progress
  | Start_activity of string
  | Finish_activity
  | Start_service of string
  | Stop_service of string
  | Send_broadcast of string
  | Enable_ui of string
  | Disable_ui of string
  | Handoff_send of field
  | Handoff_wait of field
  | Fork_native of string * stmt list

and post =
  { proc : string
  ; target : target
  ; delay : int option
  ; front : bool
  }

and async_spec =
  { task_name : string
  ; pre : stmt list
  ; background : stmt list
  ; progress : stmt list
  ; post_exec : stmt list
  }

let post ?delay ?(front = false) ?(target = Main_thread) proc =
  Post { proc; target; delay; front }

type ui_handler =
  { event : string
  ; initially_enabled : bool
  ; handler_body : stmt list
  }

type activity =
  { activity_name : string
  ; on_create : stmt list
  ; on_start : stmt list
  ; on_resume : stmt list
  ; on_pause : stmt list
  ; on_stop : stmt list
  ; on_restart : stmt list
  ; on_destroy : stmt list
  ; ui : ui_handler list
  ; intent_filters : string list
  }

let activity ?(on_create = []) ?(on_start = []) ?(on_resume = [])
    ?(on_pause = []) ?(on_stop = []) ?(on_restart = []) ?(on_destroy = [])
    ?(ui = []) ?(intents = []) activity_name =
  { activity_name
  ; on_create
  ; on_start
  ; on_resume
  ; on_pause
  ; on_stop
  ; on_restart
  ; on_destroy
  ; ui
  ; intent_filters = intents
  }

let handler ?(enabled = true) event handler_body =
  { event; initially_enabled = enabled; handler_body }

type service =
  { service_name : string
  ; on_create_svc : stmt list
  ; on_start_command : stmt list
  ; on_destroy_svc : stmt list
  }

let service ?(on_create = []) ?(on_start_command = []) ?(on_destroy = [])
    service_name =
  { service_name
  ; on_create_svc = on_create
  ; on_start_command
  ; on_destroy_svc = on_destroy
  }

type receiver =
  { receiver_name : string
  ; action : string
  ; on_receive : stmt list
  }

type app =
  { app_name : string
  ; main_activity : string
  ; activities : activity list
  ; services : service list
  ; receivers : receiver list
  ; procs : (string * stmt list) list
  }

let app ?(activities = []) ?(services = []) ?(receivers = []) ?(procs = [])
    ~name ~main () =
  { app_name = name
  ; main_activity = main
  ; activities
  ; services
  ; receivers
  ; procs
  }

let find_activity a name =
  List.find_opt (fun act -> String.equal act.activity_name name) a.activities

let find_service a name =
  List.find_opt (fun s -> String.equal s.service_name name) a.services

let find_proc a name = List.assoc_opt name a.procs

let intent_actions a =
  List.concat_map (fun act -> act.intent_filters) a.activities
  |> List.sort_uniq String.compare

let validate a =
  let error fmt = Format.kasprintf (fun s -> Error s) fmt in
  let ( let* ) = Result.bind in
  (* The first error of [f] over [xs], in order. *)
  let rec all f = function
    | [] -> Ok ()
    | x :: xs ->
      let* () = f x in
      all f xs
  in
  (* The interpreter makes monitors and tasks out of these names, some
     with a suffix such as [".onReceive"]; a name its {!Ident}
     constructor would reject is an error here, not mid-run. *)
  let named what ?(suffix = "") make path name =
    match make (name ^ suffix) with
    | _ -> Ok ()
    | exception Invalid_argument _ ->
      error "%s: invalid %s name %S" path what name
  in
  let lock = named "monitor" Ident.Lock_id.make in
  let task what ?suffix =
    named what ?suffix (fun name -> Ident.Task_id.make ~name ~instance:0)
  in
  let rec check_stmts ~in_background path stmts =
    all (check_stmt ~in_background path) stmts
  and check_stmt ~in_background path s =
    match s with
    | Read _ | Write _ | Handoff_send _ | Handoff_wait _ | Enable_ui _
    | Disable_ui _ | Finish_activity | Cancel_last _ -> Ok ()
    | Synchronized (l, body) ->
      let* () = lock path l in
      check_stmts ~in_background path body
    | Fork (name, body) | Fork_native (name, body) ->
      check_stmts ~in_background (path ^ "/" ^ name) body
    | Fork_looper _ | Join _ -> Ok ()
    | Post { proc; _ } ->
      if Option.is_some (find_proc a proc) then task "procedure" path proc
      else error "%s: posted procedure %S is not defined" path proc
    | Execute_async_task spec ->
      let* () = task "AsyncTask" ~suffix:".onPostExecute" path spec.task_name in
      let* () = check_stmts ~in_background path spec.pre in
      let* () =
        check_stmts ~in_background:true (path ^ "/" ^ spec.task_name)
          spec.background
      in
      check_stmts ~in_background path (spec.progress @ spec.post_exec)
    | Publish_progress ->
      if in_background then Ok ()
      else error "%s: publishProgress outside doInBackground" path
    | Start_activity name ->
      if Option.is_some (find_activity a name) then Ok ()
      else error "%s: activity %S is not defined" path name
    | Start_service name | Stop_service name ->
      if Option.is_some (find_service a name) then Ok ()
      else error "%s: service %S is not defined" path name
    | Send_broadcast _ -> Ok ()
  in
  let callbacks path = all (check_stmts ~in_background:false path) in
  let* () =
    if Option.is_some (find_activity a a.main_activity) then Ok ()
    else error "main activity %S is not defined" a.main_activity
  in
  let* () =
    all
      (fun act ->
         let path = act.activity_name in
         let* () = task "activity" ~suffix:"_0.onDestroy" path path in
         let* () =
           callbacks path
             [ act.on_create; act.on_start; act.on_resume; act.on_pause
             ; act.on_stop; act.on_restart; act.on_destroy ]
         in
         all
           (fun h ->
              let* () = task "handler event" path h.event in
              check_stmts ~in_background:false (path ^ "#" ^ h.event)
                h.handler_body)
           act.ui)
      a.activities
  in
  let* () =
    all
      (fun s ->
         let path = s.service_name in
         let* () = task "service" ~suffix:".onStartCommand" path path in
         callbacks path
           [ s.on_create_svc; s.on_start_command; s.on_destroy_svc ])
      a.services
  in
  let* () =
    all
      (fun r ->
         let path = r.receiver_name in
         let* () = task "receiver" ~suffix:".onReceive" path path in
         check_stmts ~in_background:false path r.on_receive)
      a.receivers
  in
  all (fun (name, body) -> check_stmts ~in_background:false name body) a.procs
