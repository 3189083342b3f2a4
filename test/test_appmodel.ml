(* Tests of the modeled-app language and the instrumented runtime. *)

module Ident = Droidracer_trace.Ident
module Operation = Droidracer_trace.Operation
module Trace = Droidracer_trace.Trace
module Step = Droidracer_semantics.Step
module Program = Droidracer_appmodel.Program
module Runtime = Droidracer_appmodel.Runtime
module Detector = Droidracer_core.Detector
module Mp = Droidracer_corpus.Music_player

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int
let f name = Program.field ~cls:"T" name

let simple_app ?(procs = []) ?(ui = []) ?(on_create = []) () =
  Program.app ~name:"Test" ~main:"Main"
    ~activities:[ Program.activity "Main" ~on_create ~ui ]
    ~procs ()

let run ?options ?(events = []) app = Runtime.run ?options app events

let count_ops trace pred =
  let n = ref 0 in
  Trace.iteri (fun i e -> if pred i e then incr n) trace;
  !n

(* {1 Program validation} *)

let test_validation () =
  let bad_proc = simple_app ~on_create:[ Program.post "nope" ] () in
  check_bool "unknown proc" true (Result.is_error (Program.validate bad_proc));
  let bad_act = simple_app ~on_create:[ Program.Start_activity "Nope" ] () in
  check_bool "unknown activity" true (Result.is_error (Program.validate bad_act));
  let bad_svc = simple_app ~on_create:[ Program.Start_service "Nope" ] () in
  check_bool "unknown service" true (Result.is_error (Program.validate bad_svc));
  let bad_progress = simple_app ~on_create:[ Program.Publish_progress ] () in
  check_bool "publishProgress outside background" true
    (Result.is_error (Program.validate bad_progress));
  let bad_main =
    Program.app ~name:"Test" ~main:"Ghost"
      ~activities:[ Program.activity "Main" ]
      ()
  in
  check_bool "missing main activity" true
    (Result.is_error (Program.validate bad_main));
  check_bool "music player validates" true
    (Result.is_ok (Program.validate Mp.app))

(* {1 Trace generation basics} *)

let test_traces_valid () =
  List.iter
    (fun (events, opts) ->
       let r = Runtime.run ~options:opts Mp.app events in
       check_bool "full trace valid" true (Step.is_valid r.Runtime.full))
    [ (Mp.play_scenario, Mp.options)
    ; (Mp.back_scenario, Mp.options)
    ; (Mp.back_scenario, { Mp.options with compressed_lifecycle = false })
    ]

let test_seed_determinism () =
  let opts = { Mp.options with policy = Runtime.Seeded 42 } in
  let r1 = Runtime.run ~options:opts Mp.app Mp.back_scenario in
  let r2 = Runtime.run ~options:opts Mp.app Mp.back_scenario in
  check_bool "same seed, same trace" true
    (List.for_all2 Trace.event_equal
       (Trace.events r1.Runtime.observed)
       (Trace.events r2.Runtime.observed))

let test_thread_names () =
  let r = Runtime.run ~options:Mp.options Mp.app Mp.back_scenario in
  let names = List.map snd r.Runtime.thread_names in
  check_bool "main named" true (List.mem "main" names);
  check_bool "async bg thread named" true (List.mem "FileDwTask.bg" names)

let test_skipped_events () =
  (* PLAY is enabled only by onPostExecute; a click on a never-enabled
     handler is skipped once the app quiesces. *)
  let app =
    simple_app ~ui:[ Program.handler ~enabled:false "ghost" [] ] ()
  in
  let r = run ~events:[ Runtime.Click "ghost" ] app in
  check_int "skipped" 1 (List.length r.Runtime.skipped);
  check_int "injected" 0 (List.length r.Runtime.injected)

let test_enabled_at_end () =
  let app =
    simple_app
      ~ui:
        [ Program.handler "a" []; Program.handler ~enabled:false "b" [] ]
      ()
  in
  let r = run app in
  check_bool "a available" true
    (List.mem (Runtime.Click "a") r.Runtime.enabled_at_end);
  check_bool "b not available" false
    (List.mem (Runtime.Click "b") r.Runtime.enabled_at_end);
  check_bool "back available" true (List.mem Runtime.Back r.Runtime.enabled_at_end)

(* {1 Concurrency constructs} *)

let test_monitor_exclusion () =
  (* two threads fight over a lock; the trace must interleave the
     critical sections atomically (semantic validity checks this, since
     Acquire of a held lock is a violation) *)
  let app =
    simple_app
      ~on_create:
        [ Program.Fork ("w1", [ Program.Synchronized ("l", [ Program.Write (f "x") ]) ])
        ; Program.Fork ("w2", [ Program.Synchronized ("l", [ Program.Write (f "x") ]) ])
        ]
      ()
  in
  List.iter
    (fun seed ->
       let r =
         run ~options:{ Runtime.default_options with policy = Runtime.Seeded seed } app
       in
       check_bool "valid under contention" true (Step.is_valid r.Runtime.full))
    [ 1; 2; 3; 4; 5 ]

let test_join () =
  let app =
    simple_app
      ~on_create:
        [ Program.Fork ("worker", [ Program.Write (f "x") ])
        ; Program.Fork
            ("waiter", [ Program.Join "worker"; Program.Read (f "x") ])
        ]
      ()
  in
  let r = run app in
  check_bool "valid" true (Step.is_valid r.Runtime.full);
  check_int "no race through join" 0
    (List.length (Detector.analyze r.Runtime.observed).Detector.all_races)

let test_handoff_orders_execution () =
  (* the receiver's read always comes after the sender's write *)
  let app =
    simple_app
      ~on_create:
        [ Program.Fork
            ("recv", [ Program.Handoff_wait (f "flag"); Program.Read (f "x") ])
        ; Program.Fork
            ("send", [ Program.Write (f "x"); Program.Handoff_send (f "flag") ])
        ]
      ()
  in
  List.iter
    (fun seed ->
       let r =
         run ~options:{ Runtime.default_options with policy = Runtime.Seeded seed } app
       in
       let write_pos = ref (-1) and read_pos = ref (-1) in
       Trace.iteri
         (fun i (e : Trace.event) ->
            match e.op with
            | Operation.Write m when Ident.Location.field m = "x" -> write_pos := i
            | Operation.Read m when Ident.Location.field m = "x" -> read_pos := i
            | _ -> ())
         r.Runtime.full;
       check_bool "write before read in every schedule" true
         (!write_pos >= 0 && !read_pos > !write_pos);
       (* ... but the detector reports the race: the handoff is invisible *)
       check_bool "reported as a race regardless" true
         (List.length (Detector.analyze r.Runtime.observed).Detector.all_races >= 1))
    [ 1; 7; 23 ]

let test_native_thread_instrumentation () =
  let app =
    simple_app
      ~procs:[ ("cb", [ Program.Read (f "x") ]) ]
      ~on_create:
        [ Program.Write (f "x")
        ; Program.Fork_native ("nat", [ Program.Write (f "y"); Program.post "cb" ])
        ]
      ()
  in
  let r = run app in
  check_bool "full trace has the native write" true
    (count_ops r.Runtime.full (fun _ e ->
       match e.Trace.op with
       | Operation.Write m -> Ident.Location.field m = "y"
       | _ -> false)
     = 1);
  check_int "observed trace hides the native write" 0
    (count_ops r.Runtime.observed (fun _ e ->
       match e.Trace.op with
       | Operation.Write m -> Ident.Location.field m = "y"
       | _ -> false));
  check_int "but the queue-side post is observed" 1
    (count_ops r.Runtime.observed (fun _ e ->
       match e.Trace.op with Operation.Post _ -> true | _ -> false)
     - 1 (* LAUNCH post *));
  (* with full instrumentation the observed and ground-truth agree *)
  let r2 = run ~options:{ Runtime.default_options with log_native = true } app in
  check_int "log_native shows everything"
    (Trace.length r2.Runtime.full)
    (Trace.length r2.Runtime.observed)

let test_emit_enables_off () =
  let r =
    Runtime.run ~options:{ Mp.options with emit_enables = false } Mp.app
      Mp.back_scenario
  in
  check_int "no enables observed" 0
    (count_ops r.Runtime.observed (fun _ e ->
       match e.Trace.op with Operation.Enable _ -> true | _ -> false));
  check_bool "enables still in the ground truth" true
    (count_ops r.Runtime.full (fun _ e ->
       match e.Trace.op with Operation.Enable _ -> true | _ -> false)
     > 0)

let test_cancel_last () =
  let app =
    simple_app
      ~procs:[ ("job", [ Program.Write (f "x") ]) ]
      ~on_create:[ Program.post "job"; Program.Cancel_last "job" ]
      ()
  in
  let r = run app in
  check_bool "valid" true (Step.is_valid r.Runtime.full);
  check_int "job never begins" 0
    (count_ops r.Runtime.observed (fun _ e ->
       match e.Trace.op with Operation.Begin_task _ -> true | _ -> false)
     - 1 (* LAUNCH *))

let test_delayed_respects_virtual_time () =
  (* with a huge delay, the delayed task always runs after the
     immediate one, in every schedule *)
  let app =
    simple_app
      ~procs:
        [ ("slow", [ Program.Write (f "x") ]); ("fast", [ Program.Write (f "x") ]) ]
      ~on_create:[ Program.post ~delay:50_000 "slow"; Program.post "fast" ]
      ()
  in
  List.iter
    (fun seed ->
       let r =
         run ~options:{ Runtime.default_options with policy = Runtime.Seeded seed } app
       in
       let order = ref [] in
       Trace.iteri
         (fun _ (e : Trace.event) ->
            match e.op with
            | Operation.Begin_task p -> order := Ident.Task_id.name p :: !order
            | _ -> ())
         r.Runtime.observed;
       match List.rev !order with
       | [ _launch; "fast"; "slow" ] -> ()
       | other ->
         Alcotest.failf "unexpected dispatch order: %s" (String.concat "," other))
    [ 1; 2; 3 ]

let test_looper_thread () =
  let app =
    simple_app
      ~procs:[ ("work", [ Program.Write (f "x") ]) ]
      ~on_create:
        [ Program.Fork_looper "ht"
        ; Program.post ~target:(Program.Named_thread "ht") "work"
        ]
      ()
  in
  let r = run app in
  check_bool "valid" true (Step.is_valid r.Runtime.full);
  let work_thread = ref None in
  Trace.iteri
    (fun i (e : Trace.event) ->
       match e.op with
       | Operation.Begin_task p when Ident.Task_id.name p = "work" ->
         work_thread := Some (Trace.thread r.Runtime.observed i)
       | _ -> ())
    r.Runtime.observed;
  (match !work_thread with
   | Some tid ->
     check_bool "work ran on the handler thread" true
       (Trace.has_queue r.Runtime.observed tid
        && Ident.Thread_id.to_int tid > 3)
   | None -> Alcotest.fail "work task never ran")

let test_hold_stalls_context () =
  let app =
    simple_app
      ~on_create:
        [ Program.Fork ("slowpoke", [ Program.Write (f "a") ])
        ; Program.Fork ("other", [ Program.Write (f "b") ])
        ]
      ()
  in
  let r =
    run
      ~options:
        { Runtime.default_options with hold = [ "slowpoke" ]; policy = Runtime.Seeded 1 }
      app
  in
  let pos_of field_name =
    let p = ref (-1) in
    Trace.iteri
      (fun i (e : Trace.event) ->
         match e.op with
         | Operation.Write m when Ident.Location.field m = field_name -> p := i
         | _ -> ())
      r.Runtime.full;
    !p
  in
  check_bool "held thread runs last" true (pos_of "a" > pos_of "b")

let test_intent_delivery () =
  let share_activity =
    Program.activity "Share" ~intents:[ "SEND" ]
      ~on_create:[ Program.Write (f "shared") ]
  in
  let app =
    Program.app ~name:"T" ~main:"Main"
      ~activities:
        [ Program.activity "Main" ~on_pause:[ Program.Read (f "x") ]
        ; share_activity
        ]
      ()
  in
  let r = run ~events:[ Runtime.Intent "SEND" ] app in
  check_int "intent injected" 1 (List.length r.Runtime.injected);
  check_bool "valid" true (Step.is_valid r.Runtime.full);
  (* the filtered activity launched, pausing the main activity first *)
  check_int "share launched" 1
    (count_ops r.Runtime.observed (fun _ e ->
       match e.Trace.op with
       | Operation.Begin_task p ->
         Ident.Task_id.name p = "LAUNCH_Share_1"
       | _ -> false));
  check_int "main paused" 1
    (count_ops r.Runtime.observed (fun _ e ->
       match e.Trace.op with
       | Operation.Begin_task p -> Ident.Task_id.name p = "Main_0.onPause"
       | _ -> false));
  (* an unmatched intent is skipped *)
  let r2 = run ~events:[ Runtime.Intent "NOPE" ] app in
  check_int "unmatched intent skipped" 1 (List.length r2.Runtime.skipped)

let test_rotation_relaunches () =
  let app = simple_app ~on_create:[ Program.Write (f "x") ] () in
  let r = run ~events:[ Runtime.Rotate ] app in
  check_int "two launches" 2
    (count_ops r.Runtime.observed (fun _ e ->
       match e.Trace.op with
       | Operation.Begin_task p ->
         String.length (Ident.Task_id.name p) >= 6
         && String.sub (Ident.Task_id.name p) 0 6 = "LAUNCH"
       | _ -> false))

let test_service_started_once () =
  let svc =
    Program.service "S" ~on_create:[ Program.Write (f "s") ]
      ~on_start_command:[ Program.Read (f "s") ]
  in
  let app =
    Program.app ~name:"T" ~main:"Main"
      ~activities:
        [ Program.activity "Main"
            ~on_create:[ Program.Start_service "S"; Program.Start_service "S" ]
        ]
      ~services:[ svc ] ()
  in
  let r = run app in
  check_int "one onCreateService" 1
    (count_ops r.Runtime.observed (fun _ e ->
       match e.Trace.op with
       | Operation.Begin_task p -> Ident.Task_id.name p = "S.onCreateService"
       | _ -> false));
  check_int "two onStartCommand" 2
    (count_ops r.Runtime.observed (fun _ e ->
       match e.Trace.op with
       | Operation.Begin_task p -> Ident.Task_id.name p = "S.onStartCommand"
       | _ -> false))

let test_broadcast_matching () =
  let receiver action name =
    { Program.receiver_name = name; action; on_receive = [ Program.Read (f "r") ] }
  in
  let app =
    Program.app ~name:"T" ~main:"Main"
      ~activities:
        [ Program.activity "Main" ~on_create:[ Program.Send_broadcast "PING" ] ]
      ~receivers:[ receiver "PING" "yes1"; receiver "PING" "yes2"; receiver "PONG" "no" ]
      ()
  in
  let r = run app in
  check_int "two receivers fire" 2
    (count_ops r.Runtime.observed (fun _ e ->
       match e.Trace.op with
       | Operation.Begin_task p ->
         Filename.check_suffix (Ident.Task_id.name p) ".onReceive"
       | _ -> false))

(* {1 Properties} *)

let prop_music_player_always_valid =
  QCheck2.Test.make ~name:"music player traces valid under any seed" ~count:40
    ~print:QCheck2.Print.int
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
       let opts = { Mp.options with policy = Runtime.Seeded seed } in
       let r = Runtime.run ~options:opts Mp.app Mp.back_scenario in
       Step.is_valid r.Runtime.full)

let prop_back_races_found_under_any_seed =
  QCheck2.Test.make
    ~name:"the two Figure 4 races are found under any schedule" ~count:25
    ~print:QCheck2.Print.int
    QCheck2.Gen.(int_bound 1_000_000)
    (fun seed ->
       let opts = { Mp.options with policy = Runtime.Seeded seed } in
       let r = Runtime.run ~options:opts Mp.app Mp.back_scenario in
       let report = Detector.analyze r.Runtime.observed in
       List.length report.Detector.all_races = 2)

let () =
  Alcotest.run "appmodel"
    [ ( "program"
      , [ Alcotest.test_case "validation" `Quick test_validation ] )
    ; ( "runtime"
      , [ Alcotest.test_case "traces valid" `Quick test_traces_valid
        ; Alcotest.test_case "seed determinism" `Quick test_seed_determinism
        ; Alcotest.test_case "thread names" `Quick test_thread_names
        ; Alcotest.test_case "skipped events" `Quick test_skipped_events
        ; Alcotest.test_case "enabled at end" `Quick test_enabled_at_end
        ] )
    ; ( "concurrency"
      , [ Alcotest.test_case "monitor exclusion" `Quick test_monitor_exclusion
        ; Alcotest.test_case "join" `Quick test_join
        ; Alcotest.test_case "handoff" `Quick test_handoff_orders_execution
        ; Alcotest.test_case "native instrumentation gap" `Quick
            test_native_thread_instrumentation
        ; Alcotest.test_case "enables off" `Quick test_emit_enables_off
        ; Alcotest.test_case "cancel" `Quick test_cancel_last
        ; Alcotest.test_case "delayed virtual time" `Quick
            test_delayed_respects_virtual_time
        ; Alcotest.test_case "looper thread" `Quick test_looper_thread
        ; Alcotest.test_case "hold stalls" `Quick test_hold_stalls_context
        ] )
    ; ( "android glue"
      , [ Alcotest.test_case "intent delivery" `Quick test_intent_delivery
        ; Alcotest.test_case "rotation" `Quick test_rotation_relaunches
        ; Alcotest.test_case "service lifecycle" `Quick test_service_started_once
        ; Alcotest.test_case "broadcast matching" `Quick test_broadcast_matching
        ] )
    ; ( "properties"
      , [ QCheck_alcotest.to_alcotest prop_music_player_always_valid
        ; QCheck_alcotest.to_alcotest prop_back_races_found_under_any_seed
        ] )
    ]
