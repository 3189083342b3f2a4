module Lifecycle = Droidracer_android.Lifecycle
module Async_task = Droidracer_android.Async_task
module Binder = Droidracer_android.Binder
module Thread_id = Droidracer_trace.Ident.Thread_id

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

let all_states =
  [ Lifecycle.Launched; Lifecycle.Created; Lifecycle.Started
  ; Lifecycle.Running; Lifecycle.Paused; Lifecycle.Stopped
  ; Lifecycle.Destroyed ]

let all_callbacks =
  [ Lifecycle.On_create; Lifecycle.On_start; Lifecycle.On_resume
  ; Lifecycle.On_pause; Lifecycle.On_stop; Lifecycle.On_restart
  ; Lifecycle.On_destroy ]

let test_launch_walk () =
  (* Launched -onCreate-> Created -onStart-> Started -onResume-> Running *)
  let final =
    List.fold_left
      (fun state cb ->
         match Lifecycle.activity_step state cb with
         | Ok s -> s
         | Error msg -> Alcotest.failf "launch walk rejected: %s" msg)
      Lifecycle.initial_activity_state Lifecycle.launch_sequence
  in
  check_bool "running" true
    (Lifecycle.activity_state_equal final Lifecycle.Running)

let test_full_life () =
  let walk =
    Lifecycle.launch_sequence @ Lifecycle.teardown_sequence
  in
  let final =
    List.fold_left
      (fun state cb -> Result.get_ok (Lifecycle.activity_step state cb))
      Lifecycle.initial_activity_state walk
  in
  check_bool "destroyed" true
    (Lifecycle.activity_state_equal final Lifecycle.Destroyed)

let test_restart_loop () =
  (* Running -> Paused -> Stopped -> (onRestart, onStart, onResume) -> Running *)
  let steps =
    [ Lifecycle.On_pause; Lifecycle.On_stop ] @ Lifecycle.relaunch_sequence
  in
  let final =
    List.fold_left
      (fun state cb -> Result.get_ok (Lifecycle.activity_step state cb))
      Lifecycle.Running steps
  in
  check_bool "running again" true
    (Lifecycle.activity_state_equal final Lifecycle.Running)

let test_pause_resume () =
  (* the onPause -> onResume return edge *)
  let s = Result.get_ok (Lifecycle.activity_step Lifecycle.Running Lifecycle.On_pause) in
  let s = Result.get_ok (Lifecycle.activity_step s Lifecycle.On_resume) in
  check_bool "running" true (Lifecycle.activity_state_equal s Lifecycle.Running)

let test_illegal_transitions_rejected () =
  (* a callback is accepted iff it is a may-successor of the state *)
  List.iter
    (fun state ->
       let successors = Lifecycle.activity_successors state in
       List.iter
         (fun cb ->
            let expected =
              List.exists (Lifecycle.activity_callback_equal cb) successors
            in
            let actual = Result.is_ok (Lifecycle.activity_step state cb) in
            check_bool
              (Format.asprintf "%a in %a" Lifecycle.pp_activity_callback cb
                 Lifecycle.pp_activity_state state)
              expected actual)
         all_callbacks)
    all_states

let test_destroyed_terminal () =
  check_int "no successors" 0
    (List.length (Lifecycle.activity_successors Lifecycle.Destroyed))

let test_service_machine () =
  let s = Lifecycle.initial_service_state in
  let s = Result.get_ok (Lifecycle.service_step s Lifecycle.Svc_create) in
  let s = Result.get_ok (Lifecycle.service_step s Lifecycle.Svc_start_command) in
  (* a started service may receive further start commands *)
  let s = Result.get_ok (Lifecycle.service_step s Lifecycle.Svc_start_command) in
  let s = Result.get_ok (Lifecycle.service_step s Lifecycle.Svc_destroy) in
  check_bool "destroy before create rejected" true
    (Result.is_error (Lifecycle.service_step s Lifecycle.Svc_destroy));
  check_bool "double create rejected" true
    (Result.is_error
       (Lifecycle.service_step Lifecycle.Svc_created Lifecycle.Svc_create))

let test_async_task_protocol () =
  let t = Async_task.create ~name:"FileDwTask" in
  check_bool "starts in pre" true (Async_task.phase t = Async_task.Pre_execute);
  let t = Result.get_ok (Async_task.advance t) in
  check_bool "background" true (Async_task.phase t = Async_task.In_background);
  let t = Result.get_ok (Async_task.advance t) in
  let t = Result.get_ok (Async_task.advance t) in
  check_bool "finished" true (Async_task.phase t = Async_task.Finished);
  check_bool "cannot advance past finished" true
    (Result.is_error (Async_task.advance t));
  Alcotest.check Alcotest.string "progress names"
    "FileDwTask.onProgressUpdate2"
    (Async_task.progress_callback_name t 2);
  Alcotest.check Alcotest.string "post-execute name" "FileDwTask.onPostExecute"
    (Async_task.post_execute_callback_name t)

let test_binder_round_robin () =
  let pool = Binder.create ~size:3 ~first_tid:2 in
  check_int "pool size" 3 (List.length (Binder.threads pool));
  let t1, pool = Binder.next pool in
  let t2, pool = Binder.next pool in
  let t3, pool = Binder.next pool in
  let t4, _ = Binder.next pool in
  check_bool "consecutive transactions on different threads" false
    (Thread_id.equal t1 t2);
  check_bool "all three used" false (Thread_id.equal t2 t3);
  check_bool "wraps around" true (Thread_id.equal t1 t4)

let test_binder_singleton () =
  let pool = Binder.create ~size:1 ~first_tid:5 in
  let t1, pool = Binder.next pool in
  let t2, _ = Binder.next pool in
  check_bool "single thread reused" true (Thread_id.equal t1 t2);
  check_bool "empty pool rejected" true
    (match Binder.create ~size:0 ~first_tid:2 with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* Property: any path following may-successors is accepted by the
   machine; the machine never accepts a non-successor. *)
let prop_random_walks_legal =
  QCheck2.Test.make ~name:"random successor walks are legal" ~count:200
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_bound 1_000_000) (int_range 1 25))
    (fun (seed, len) ->
       let rng = Random.State.make [| seed |] in
       let rec walk state n =
         if n = 0 then true
         else
           match Lifecycle.activity_successors state with
           | [] -> true
           | succs ->
             let cb = List.nth succs (Random.State.int rng (List.length succs)) in
             (match Lifecycle.activity_step state cb with
              | Ok state -> walk state (n - 1)
              | Error _ -> false)
       in
       walk Lifecycle.initial_activity_state len)

let () =
  Alcotest.run "android"
    [ ( "lifecycle"
      , [ Alcotest.test_case "launch walk" `Quick test_launch_walk
        ; Alcotest.test_case "full life" `Quick test_full_life
        ; Alcotest.test_case "restart loop" `Quick test_restart_loop
        ; Alcotest.test_case "pause-resume" `Quick test_pause_resume
        ; Alcotest.test_case "illegal transitions" `Quick
            test_illegal_transitions_rejected
        ; Alcotest.test_case "destroyed is terminal" `Quick test_destroyed_terminal
        ; Alcotest.test_case "service machine" `Quick test_service_machine
        ] )
    ; ( "async task"
      , [ Alcotest.test_case "protocol" `Quick test_async_task_protocol ] )
    ; ( "binder"
      , [ Alcotest.test_case "round robin" `Quick test_binder_round_robin
        ; Alcotest.test_case "singleton pool" `Quick test_binder_singleton
        ] )
    ; ( "properties"
      , [ QCheck_alcotest.to_alcotest prop_random_walks_legal ] )
    ]
