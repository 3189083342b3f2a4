open Helpers
module State = Droidracer_semantics.State
module Step = Droidracer_semantics.Step
module Queue_model = Droidracer_semantics.Queue_model

let check_bool = Alcotest.check Alcotest.bool

let task_list =
  Alcotest.testable
    (Fmt.Dump.list (fun ppf p -> Ident.Task_id.pp ppf p))
    (List.equal Ident.Task_id.equal)

(* {1 Queue model} *)

let p1 = task ~instance:1 "p"
let p2 = task ~instance:2 "p"
let p3 = task ~instance:3 "p"

let test_queue_fifo () =
  let q = Queue_model.empty in
  let q = Queue_model.post q p1 Operation.Immediate in
  let q = Queue_model.post q p2 Operation.Immediate in
  Alcotest.check task_list "only the oldest immediate is eligible" [ p1 ]
    (Queue_model.eligible q);
  check_bool "dequeue p2 rejected" true
    (Result.is_error (Queue_model.dequeue q p2));
  match Queue_model.dequeue q p1 with
  | Ok q -> Alcotest.check task_list "then p2" [ p2 ] (Queue_model.eligible q)
  | Error e -> Alcotest.fail e

let test_queue_delayed_vs_immediate () =
  (* A delayed task posted before an immediate one must wait for it
     (rule (a)); an immediate task never waits for a delayed one. *)
  let q = Queue_model.empty in
  let q = Queue_model.post q p1 (Operation.Delayed 100) in
  let q = Queue_model.post q p2 Operation.Immediate in
  Alcotest.check task_list "both eligible: timer may or may not have fired"
    [ p1; p2 ] (Queue_model.eligible q);
  let q2 = Queue_model.empty in
  let q2 = Queue_model.post q2 p1 Operation.Immediate in
  let q2 = Queue_model.post q2 p2 (Operation.Delayed 100) in
  Alcotest.check task_list "delayed waits for earlier immediate" [ p1 ]
    (Queue_model.eligible q2)

let test_queue_delayed_ordering () =
  (* Earlier delayed post with smaller-or-equal timeout goes first
     (rule (b)); with a larger timeout, either may fire first. *)
  let q = Queue_model.empty in
  let q = Queue_model.post q p1 (Operation.Delayed 100) in
  let q = Queue_model.post q p2 (Operation.Delayed 200) in
  Alcotest.check task_list "100ms before 200ms" [ p1 ] (Queue_model.eligible q);
  let q2 = Queue_model.empty in
  let q2 = Queue_model.post q2 p1 (Operation.Delayed 200) in
  let q2 = Queue_model.post q2 p2 (Operation.Delayed 100) in
  Alcotest.check task_list "large delay posted first: both eligible" [ p1; p2 ]
    (Queue_model.eligible q2)

let test_queue_front () =
  let q = Queue_model.empty in
  let q = Queue_model.post q p1 Operation.Immediate in
  let q = Queue_model.post q p2 Operation.Front in
  let q = Queue_model.post q p3 Operation.Front in
  Alcotest.check task_list "most recent front post first" [ p3 ]
    (Queue_model.eligible q);
  match Queue_model.dequeue q p3 with
  | Ok q ->
    Alcotest.check task_list "then the older front post" [ p2 ]
      (Queue_model.eligible q)
  | Error e -> Alcotest.fail e

let test_queue_cancel () =
  let q = Queue_model.empty in
  let q = Queue_model.post q p1 Operation.Immediate in
  check_bool "cancel pending" true (Option.is_some (Queue_model.cancel q p1));
  check_bool "cancel absent" true (Option.is_none (Queue_model.cancel q p2));
  match Queue_model.cancel q p1 with
  | Some q -> check_bool "now empty" true (Queue_model.is_empty q)
  | None -> Alcotest.fail "cancel failed"

let test_queue_double_post_rejected () =
  let q = Queue_model.post Queue_model.empty p1 Operation.Immediate in
  check_bool "double post" true
    (match Queue_model.post q p1 Operation.Immediate with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* {1 Transition rules} *)

let expect_violation name events pred =
  match Trace.of_events events with
  | Error msg -> Alcotest.failf "%s: trace ill-formed: %s" name msg
  | Ok t ->
    (match Step.validate t with
     | Ok _ -> Alcotest.failf "%s: expected a violation" name
     | Error v -> check_bool name true (pred v.Step.kind))

let test_violations () =
  let p = task "p" in
  expect_violation "double init"
    [ threadinit 0; threadinit 0 ]
    (function Step.Thread_not_created _ -> true | _ -> false);
  expect_violation "op on unstarted thread"
    [ threadinit 0; read 1 (loc "f") ]
    (function Step.Thread_not_running _ -> true | _ -> false);
  expect_violation "op after exit"
    [ threadinit 0; threadexit 0; read 0 (loc "f") ]
    (function Step.Thread_not_running _ -> true | _ -> false);
  expect_violation "fork of existing thread"
    [ threadinit 0; threadinit 1; fork 0 1 ]
    (function Step.Thread_not_fresh _ -> true | _ -> false);
  expect_violation "join before exit"
    [ threadinit 0; fork 0 1; threadinit 1; join 0 1 ]
    (function Step.Thread_not_finished _ -> true | _ -> false);
  expect_violation "post to queue-less thread"
    [ threadinit 0; threadinit 1; post 0 p 1 ]
    (function Step.Queue_missing _ -> true | _ -> false);
  expect_violation "begin before loopOnQ"
    [ threadinit 0; threadinit 1; attachq 1; post 0 p 1; begin_task 1 p ]
    (function Step.Not_looping _ -> true | _ -> false);
  expect_violation "out-of-order dispatch"
    [ threadinit 0
    ; threadinit 1
    ; attachq 1
    ; looponq 1
    ; post 0 p1 1
    ; post 0 p2 1
    ; begin_task 1 p2
    ]
    (function Step.Bad_dispatch _ -> true | _ -> false);
  expect_violation "acquire of foreign lock"
    [ threadinit 0; threadinit 1; acquire 0 "l"; acquire 1 "l" ]
    (function Step.Lock_held_elsewhere _ -> true | _ -> false);
  expect_violation "release unheld lock"
    [ threadinit 0; release 0 "l" ]
    (function Step.Lock_not_held _ -> true | _ -> false);
  expect_violation "access while looper idle"
    [ threadinit 1; attachq 1; looponq 1; read 1 (loc "f") ]
    (function Step.Thread_idle_action _ -> true | _ -> false);
  expect_violation "cancel of non-pending task"
    [ threadinit 0; cancel 0 p ]
    (function Step.Cancel_not_pending _ -> true | _ -> false)

let test_reentrant_lock () =
  let t =
    trace
      [ threadinit 0
      ; acquire 0 "l"
      ; acquire 0 "l"
      ; release 0 "l"
      ; release 0 "l"
      ]
  in
  check_bool "reentrant acquire valid" true (Step.is_valid t)

let test_figures_validate () =
  check_bool "figure 3 valid" true (Step.is_valid figure3);
  check_bool "figure 4 valid" true (Step.is_valid figure4)

let test_post_while_idle_allowed () =
  (* Operation 19 of Figure 3: the main thread posts a UI handler to
     itself while its looper is idle. *)
  let p = task "h" in
  let t =
    trace
      [ threadinit 1; attachq 1; looponq 1; post 1 p 1; begin_task 1 p
      ; end_task 1 p
      ]
  in
  check_bool "self post while idle" true (Step.is_valid t)

let test_delayed_dispatch_order () =
  (* An immediate post posted before a delayed one must execute first. *)
  let t =
    trace
      [ threadinit 0
      ; threadinit 1
      ; attachq 1
      ; looponq 1
      ; post 0 p1 1
      ; post ~flavour:(Operation.Delayed 100) 0 p2 1
      ; begin_task 1 p2
      ]
  in
  check_bool "delayed before earlier immediate rejected" false (Step.is_valid t);
  let t2 =
    trace
      [ threadinit 0
      ; threadinit 1
      ; attachq 1
      ; looponq 1
      ; post ~flavour:(Operation.Delayed 100) 0 p1 1
      ; post 0 p2 1
      ; begin_task 1 p2
      ; end_task 1 p2
      ; begin_task 1 p1
      ; end_task 1 p1
      ]
  in
  check_bool "immediate may beat earlier delayed" true (Step.is_valid t2)

let test_front_dispatch () =
  let t =
    trace
      [ threadinit 0
      ; threadinit 1
      ; attachq 1
      ; looponq 1
      ; post 0 p1 1
      ; post ~flavour:Operation.Front 0 p2 1
      ; begin_task 1 p2
      ; end_task 1 p2
      ; begin_task 1 p1
      ; end_task 1 p1
      ]
  in
  check_bool "front post jumps the queue" true (Step.is_valid t)

(* {1 Queue-model properties} *)

let queue_ops_gen =
  (* a sequence of post/cancel/dequeue attempts over task ids 0..9 *)
  QCheck2.Gen.(list_size (int_bound 40) (pair (int_bound 2) (int_bound 9)))

let print_queue_ops = QCheck2.Print.(list (pair int int))

let replay_queue ops =
  List.fold_left
    (fun q (kind, n) ->
       let p = task ~instance:n "q" in
       match kind with
       | 0 ->
         (match Queue_model.post q p Operation.Immediate with
          | q -> q
          | exception Invalid_argument _ -> q)
       | 1 -> Option.value (Queue_model.cancel q p) ~default:q
       | _ ->
         (match Queue_model.eligible q with
          | [] -> q
          | first :: _ -> Result.get_ok (Queue_model.dequeue q first)))
    Queue_model.empty ops

let prop_eligible_subset_of_pending =
  QCheck2.Test.make ~name:"eligible tasks are pending" ~count:200
    ~print:print_queue_ops queue_ops_gen
    (fun ops ->
       let q = replay_queue ops in
       List.for_all (fun p -> Queue_model.mem q p) (Queue_model.eligible q))

let prop_nonempty_queue_has_eligible =
  QCheck2.Test.make ~name:"a non-empty queue offers something to dispatch"
    ~count:200 ~print:print_queue_ops queue_ops_gen
    (fun ops ->
       let q = replay_queue ops in
       Queue_model.is_empty q || Queue_model.eligible q <> [])

let prop_dequeue_only_eligible =
  QCheck2.Test.make ~name:"dequeue rejects non-eligible tasks" ~count:200
    ~print:print_queue_ops queue_ops_gen
    (fun ops ->
       let q = replay_queue ops in
       let eligible = Queue_model.eligible q in
       List.for_all
         (fun p ->
            let allowed = List.exists (Ident.Task_id.equal p) eligible in
            allowed = Result.is_ok (Queue_model.dequeue q p))
         (Queue_model.pending q))

(* The dispatch policy stated pairwise, as the interface does: the
   latest front post pre-empts everything; otherwise an entry is
   eligible unless an earlier entry blocks it (any immediate post blocks;
   a delayed post blocks a later delayed one with a larger or equal
   timeout). *)
let eligible_pairwise posted =
  match List.rev (List.filter (fun (_, f) -> f = Operation.Front) posted) with
  | (p, _) :: _ -> [ p ]
  | [] ->
    let rec go before = function
      | [] -> []
      | ((p, f) as e) :: rest ->
        let blocks (_, f') =
          match f, f' with
          | Operation.Front, _ -> true
          | _, Operation.Immediate -> true
          | Operation.Delayed d, Operation.Delayed d' -> d' <= d
          | Operation.Immediate, (Operation.Delayed _ | Operation.Front)
          | Operation.Delayed _, Operation.Front -> false
        in
        let rest' = go (e :: before) rest in
        if List.exists blocks before then rest' else p :: rest'
    in
    go [] posted

let prop_eligible_matches_pairwise_policy =
  let flavour = function
    | 0 -> Operation.Immediate
    | 1 -> Operation.Front
    | k -> Operation.Delayed (k mod 4)
  in
  QCheck2.Test.make ~name:"eligible follows the pairwise policy" ~count:300
    ~print:QCheck2.Print.(list int)
    QCheck2.Gen.(list_size (int_bound 12) (int_bound 7))
    (fun kinds ->
       let posted =
         List.mapi (fun i k -> (task ~instance:i "q", flavour k)) kinds
       in
       let q =
         List.fold_left (fun q (p, f) -> Queue_model.post q p f)
           Queue_model.empty posted
       in
       List.equal Ident.Task_id.equal (eligible_pairwise posted)
         (Queue_model.eligible q))

(* {1 Properties} *)

let prop_generated_traces_validate =
  QCheck2.Test.make ~name:"generated traces satisfy the semantics" ~count:120
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 5 200))
    (fun (seed, size) ->
       Step.is_valid (Random_trace.generate ~seed ~size ()))

let prop_prefix_closed =
  QCheck2.Test.make ~name:"validity is prefix-closed" ~count:40
    ~print:QCheck2.Print.(triple int int int)
    QCheck2.Gen.(triple (int_bound 100_000) (int_range 5 80) (int_range 0 80))
    (fun (seed, size, cut) ->
       let t = Random_trace.generate ~seed ~size () in
       let cut = min cut (Trace.length t) in
       let prefix = List.filteri (fun i _ -> i < cut) (Trace.events t) in
       match Trace.of_events prefix with
       | Ok p -> Step.is_valid p
       | Error _ -> false)

let () =
  Alcotest.run "semantics"
    [ ( "queue"
      , [ Alcotest.test_case "fifo" `Quick test_queue_fifo
        ; Alcotest.test_case "delayed vs immediate" `Quick
            test_queue_delayed_vs_immediate
        ; Alcotest.test_case "delayed ordering" `Quick test_queue_delayed_ordering
        ; Alcotest.test_case "front posts" `Quick test_queue_front
        ; Alcotest.test_case "cancel" `Quick test_queue_cancel
        ; Alcotest.test_case "double post rejected" `Quick
            test_queue_double_post_rejected
        ] )
    ; ( "rules"
      , [ Alcotest.test_case "violations" `Quick test_violations
        ; Alcotest.test_case "reentrant locks" `Quick test_reentrant_lock
        ; Alcotest.test_case "figures validate" `Quick test_figures_validate
        ; Alcotest.test_case "post while idle" `Quick test_post_while_idle_allowed
        ; Alcotest.test_case "delayed dispatch" `Quick test_delayed_dispatch_order
        ; Alcotest.test_case "front dispatch" `Quick test_front_dispatch
        ] )
    ; ( "properties"
      , [ QCheck_alcotest.to_alcotest prop_eligible_subset_of_pending
        ; QCheck_alcotest.to_alcotest prop_nonempty_queue_has_eligible
        ; QCheck_alcotest.to_alcotest prop_dequeue_only_eligible
        ; QCheck_alcotest.to_alcotest prop_eligible_matches_pairwise_policy
        ; QCheck_alcotest.to_alcotest prop_generated_traces_validate
        ; QCheck_alcotest.to_alcotest prop_prefix_closed
        ] )
    ]
