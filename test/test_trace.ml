open Helpers
module Location = Ident.Location
module Task_id = Ident.Task_id
module Thread_id = Ident.Thread_id

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int

(* {1 Identifiers} *)

let test_thread_id_round_trip () =
  List.iter
    (fun n ->
       let t = Thread_id.make n in
       check (Alcotest.option Alcotest.int) "round trip"
         (Some n)
         (Option.map Thread_id.to_int (Thread_id.of_string (Thread_id.to_string t))))
    [ 0; 1; 42; 1000 ]

let test_thread_id_rejects () =
  check_bool "negative" true
    (match Thread_id.make (-1) with
     | exception Invalid_argument _ -> true
     | _ -> false);
  check_bool "garbage" true (Thread_id.of_string "x3" = None);
  check_bool "no prefix" true (Thread_id.of_string "3" = None);
  check_bool "negative string" true (Thread_id.of_string "t-3" = None)

let test_task_id_round_trip () =
  let t = Task_id.make ~name:"onPostExecute" ~instance:7 in
  check Alcotest.string "printed" "onPostExecute#7" (Task_id.to_string t);
  check_bool "parsed" true
    (match Task_id.of_string "onPostExecute#7" with
     | Some t' -> Task_id.equal t t'
     | None -> false)

let test_task_id_rejects () =
  check_bool "hash in name" true
    (match Task_id.make ~name:"a#b" ~instance:0 with
     | exception Invalid_argument _ -> true
     | _ -> false);
  check_bool "no instance" true (Task_id.of_string "justname" = None);
  check_bool "bad instance" true (Task_id.of_string "name#x" = None)

let test_location_round_trip () =
  let m = Location.make ~cls:"DwFileAct" ~field:"isActivityDestroyed" ~obj:3 in
  check Alcotest.string "printed" "DwFileAct.isActivityDestroyed@3"
    (Location.to_string m);
  check_bool "parsed" true
    (match Location.of_string (Location.to_string m) with
     | Some m' -> Location.equal m m'
     | None -> false);
  check Alcotest.string "field key" "DwFileAct.isActivityDestroyed"
    (Location.field_key m)

let test_location_rejects () =
  check_bool "missing obj" true (Location.of_string "C.f" = None);
  check_bool "missing dot" true (Location.of_string "Cf@1" = None);
  check_bool "at before dot" true (Location.of_string "C@1.f" = None)

(* {1 Operations} *)

let test_conflicts () =
  let m = loc "f" and m' = loc "g" in
  check_bool "write-read" true
    (Operation.conflicts (Operation.Write m) (Operation.Read m));
  check_bool "read-read" false
    (Operation.conflicts (Operation.Read m) (Operation.Read m));
  check_bool "write-write" true
    (Operation.conflicts (Operation.Write m) (Operation.Write m));
  check_bool "different locations" false
    (Operation.conflicts (Operation.Write m) (Operation.Write m'));
  check_bool "non-access" false
    (Operation.conflicts Operation.Thread_init (Operation.Write m))

let test_synchronization_classes () =
  check_bool "read is not sync" false
    (Operation.is_synchronization (Operation.Read (loc "f")));
  check_bool "enable is not sync" false
    (Operation.is_synchronization (Operation.Enable (task "p")));
  check_bool "post is sync" true
    (Operation.is_synchronization
       (Operation.Post
          { task = task "p"; target = tid 1; flavour = Operation.Immediate }))

(* {1 Trace structure} *)

let test_enclosing_task () =
  let t = figure3 in
  check_bool "write 7 in LAUNCH_ACTIVITY" true
    (match Trace.enclosing_task t (fig 7) with
     | Some p -> Task_id.equal p launch
     | None -> false);
  check_bool "begin belongs to its task" true
    (match Trace.enclosing_task t (fig 6) with
     | Some p -> Task_id.equal p launch
     | None -> false);
  check_bool "end belongs to its task" true
    (match Trace.enclosing_task t (fig 10) with
     | Some p -> Task_id.equal p launch
     | None -> false);
  check_bool "threadinit outside tasks" true
    (Trace.enclosing_task t (fig 1) = None);
  check_bool "t2 ops outside tasks" true
    (Trace.enclosing_task t (fig 12) = None)

let test_task_indices () =
  let t = figure3 in
  check (Alcotest.option Alcotest.int) "post of launch" (Some (fig 5))
    (Trace.post_index t launch);
  check (Alcotest.option Alcotest.int) "begin of launch" (Some (fig 6))
    (Trace.begin_index t launch);
  check (Alcotest.option Alcotest.int) "end of launch" (Some (fig 10))
    (Trace.end_index t launch);
  check (Alcotest.option Alcotest.int) "enable of launch" (Some (fig 4))
    (Trace.enable_index t launch);
  check_bool "target of onPostExecute" true
    (match Trace.post_target t on_post_execute with
     | Some target -> Thread_id.equal target (tid 1)
     | None -> false)

let test_queue_info () =
  let t = figure3 in
  check_bool "t1 has queue" true (Trace.has_queue t (tid 1));
  check_bool "t2 has no queue" false (Trace.has_queue t (tid 2));
  check (Alcotest.option Alcotest.int) "loop of t1" (Some (fig 3))
    (Trace.loop_index t (tid 1));
  check (Alcotest.option Alcotest.int) "loop of t2" None
    (Trace.loop_index t (tid 2))

let test_stats () =
  let s = Trace.stats figure3 in
  check_int "length" 25 s.Trace.trace_length;
  check_int "fields" 1 s.Trace.fields;
  check_int "threads with queue" 1 s.Trace.threads_with_queue;
  check_int "threads without queue" 3 s.Trace.threads_without_queue;
  check_int "async tasks" 4 s.Trace.async_tasks

let ill_formed events =
  match Trace.of_events events with
  | Ok _ -> false
  | Error _ -> true

let test_ill_formed () =
  let p = task "p" in
  check_bool "double post" true (ill_formed [ post 0 p 1; post 0 p 1 ]);
  check_bool "begin without post" true (ill_formed [ begin_task 1 p ]);
  check_bool "begin on wrong thread" true
    (ill_formed [ post 0 p 1; begin_task 2 p ]);
  check_bool "nested begin" true
    (ill_formed
       [ post 0 p 1
       ; post 0 (task "q") 1
       ; begin_task 1 p
       ; begin_task 1 (task "q")
       ]);
  check_bool "end without begin" true (ill_formed [ post 0 p 1; end_task 1 p ]);
  check_bool "double attach" true (ill_formed [ attachq 1; attachq 1 ]);
  check_bool "loop without attach" true (ill_formed [ looponq 1 ]);
  check_bool "double enable" true (ill_formed [ enable 0 p; enable 0 p ])

let test_remove_cancelled () =
  let p = task "p" and q = task "q" in
  let t =
    trace
      [ threadinit 0
      ; threadinit 1
      ; attachq 1
      ; looponq 1
      ; post 0 p 1
      ; post 0 q 1
      ; cancel 0 p
      ; begin_task 1 q
      ; read 1 (loc "f")
      ; end_task 1 q
      ]
  in
  let t' = Trace.remove_cancelled t in
  check_int "cancelled post removed" (Trace.length t - 2) (Trace.length t');
  check_bool "p gone" true (Trace.post_index t' p = None);
  check_bool "q kept" true (Trace.post_index t' q <> None);
  (* a cancel after the task began removes only the cancel itself *)
  let t2 =
    trace
      [ threadinit 0
      ; threadinit 1
      ; attachq 1
      ; looponq 1
      ; post 0 p 1
      ; begin_task 1 p
      ; end_task 1 p
      ; cancel 0 p
      ]
  in
  let t2' = Trace.remove_cancelled t2 in
  check_int "only the cancel removed" (Trace.length t2 - 1) (Trace.length t2');
  check_bool "executed task kept" true (Trace.begin_index t2' p <> None)

(* {1 Text format} *)

let test_io_round_trip_figures () =
  List.iter
    (fun t ->
       match Trace_io.parse (Trace_io.to_string t) with
       | Ok t' ->
         check_int "same length" (Trace.length t) (Trace.length t');
         Trace.iteri
           (fun i e ->
              check_bool
                (Printf.sprintf "event %d preserved" i)
                true
                (Trace.event_equal e (Trace.get t' i)))
           t
       | Error msg -> Alcotest.failf "re-parse failed: %s" msg)
    [ figure3; figure4 ]

let test_io_comments_and_blanks () =
  let text =
    "# a music player trace\n\nt1 threadinit\nt1 attachq   # trailing comment\n"
  in
  match Trace_io.parse text with
  | Ok t -> check_int "two events" 2 (Trace.length t)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_io_post_flavours () =
  let text =
    "t0 threadinit\nt1 threadinit\nt1 attachq\nt0 post a#0 t1\n\
     t0 post b#0 t1 delay=500\nt0 post c#0 t1 front\n"
  in
  match Trace_io.parse text with
  | Ok t ->
    check_bool "immediate" true
      (Trace.post_flavour t (task "a") = Some Operation.Immediate);
    check_bool "delayed" true
      (Trace.post_flavour t (task "b") = Some (Operation.Delayed 500));
    check_bool "front" true
      (Trace.post_flavour t (task "c") = Some Operation.Front)
  | Error msg -> Alcotest.failf "parse failed: %s" msg

let test_io_errors () =
  let bad = [ "t1 frobnicate"; "t1 read"; "x1 read C.f@0"; "t1 post a#0"; "t1" ] in
  List.iter
    (fun line ->
       check_bool (Printf.sprintf "rejects %S" line) true
         (Result.is_error (Trace_io.parse line)))
    bad

(* Every parse-error branch must report the 1-based column of the
   offending token and quote it: one row per branch of
   Trace_io.parse_op and friends. *)
let test_io_error_context () =
  let cases =
    [ ("x1 read C.f@0", 1, "x1", "expected a thread id")
    ; ("t1 frobnicate", 4, "frobnicate", "unknown operation")
    ; ("t1", 1, "t1", "incomplete line")
    ; ("t1 threadinit extra", 4, "threadinit", "no arguments")
    ; ("t1 fork xyz", 9, "xyz", "expected a thread id")
    ; ("t1 fork", 4, "fork", "one thread id")
    ; ("t1 begin not-a-task", 10, "not-a-task", "expected a task id")
    ; ("t1 begin", 4, "begin", "one task id")
    ; ("t1 acquire", 4, "acquire", "one lock name")
    ; ("t1 read nope", 9, "nope", "expected a memory location")
    ; ("t1 read", 4, "read", "one memory location")
    ; ("t1 post a#0", 4, "post", "a task id and a target thread")
    ; ("t1 post nope t2", 9, "nope", "expected a task id")
    ; ("t1 post a#0 x2", 13, "x2", "expected a thread id")
    ; ("t1 post a#0 t2 delay=-1", 16, "delay=-1", "invalid delay")
    ; ("t1 post a#0 t2 delay=zz", 16, "delay=zz", "invalid delay")
    ; ("t1 post a#0 t2 whenever", 16, "whenever", "unexpected post argument")
    ]
  in
  List.iter
    (fun (line, column, token, needle) ->
       match Trace_io.parse_event_located ~line:7 line with
       | Ok _ -> Alcotest.failf "%S: accepted" line
       | Error e ->
         check_int (Printf.sprintf "%S: line" line) 7 e.Trace_io.pe_line;
         check_int (Printf.sprintf "%S: column" line) column
           e.Trace_io.pe_column;
         check (Alcotest.option Alcotest.string)
           (Printf.sprintf "%S: token" line)
           (Some token) e.Trace_io.pe_token;
         check_bool
           (Printf.sprintf "%S: message mentions %S" line needle)
           true
           (Astring_contains.contains (Trace_io.parse_error_message e) needle);
         (* The string-level API keeps the context too. *)
         (match Trace_io.parse_event line with
          | Ok _ -> Alcotest.failf "%S: parse_event accepted" line
          | Error msg ->
            check_bool
              (Printf.sprintf "%S: parse_event names the column" line)
              true
              (Astring_contains.contains msg
                 (Printf.sprintf "column %d" column))))
    cases;
  (* Whole-text parsing prefixes the 1-based line number. *)
  match Trace_io.parse "t1 threadinit\nt1 oops\n" with
  | Ok _ -> Alcotest.fail "bad text accepted"
  | Error msg ->
    check_bool "parse names the line" true
      (Astring_contains.contains msg "line 2")

(* {1 Properties} *)

let prop_io_round_trip =
  QCheck2.Test.make ~name:"trace text format round-trips" ~count:60
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 10 120))
    (fun (seed, size) ->
       let t = Random_trace.generate ~seed ~size () in
       match Trace_io.parse (Trace_io.to_string t) with
       | Ok t' ->
         Trace.length t = Trace.length t'
         && List.for_all2 Trace.event_equal (Trace.events t) (Trace.events t')
       | Error _ -> false)

let prop_enclosing_task_brackets =
  QCheck2.Test.make ~name:"enclosing task matches begin/end brackets" ~count:60
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 10 120))
    (fun (seed, size) ->
       let t = Random_trace.generate ~seed ~size () in
       let ok = ref true in
       Trace.iteri
         (fun i (_ : Trace.event) ->
            match Trace.enclosing_task t i with
            | Some p ->
              let b = Option.get (Trace.begin_index t p) in
              let e =
                Option.value (Trace.end_index t p) ~default:(Trace.length t)
              in
              if not (b <= i && i <= e) then ok := false
            | None -> ())
         t;
       !ok)

let () =
  Alcotest.run "trace"
    [ ( "ident"
      , [ Alcotest.test_case "thread id round trip" `Quick test_thread_id_round_trip
        ; Alcotest.test_case "thread id rejects" `Quick test_thread_id_rejects
        ; Alcotest.test_case "task id round trip" `Quick test_task_id_round_trip
        ; Alcotest.test_case "task id rejects" `Quick test_task_id_rejects
        ; Alcotest.test_case "location round trip" `Quick test_location_round_trip
        ; Alcotest.test_case "location rejects" `Quick test_location_rejects
        ] )
    ; ( "operation"
      , [ Alcotest.test_case "conflicts" `Quick test_conflicts
        ; Alcotest.test_case "synchronization classes" `Quick
            test_synchronization_classes
        ] )
    ; ( "structure"
      , [ Alcotest.test_case "enclosing task" `Quick test_enclosing_task
        ; Alcotest.test_case "task indices" `Quick test_task_indices
        ; Alcotest.test_case "queue info" `Quick test_queue_info
        ; Alcotest.test_case "stats" `Quick test_stats
        ; Alcotest.test_case "ill-formed traces rejected" `Quick test_ill_formed
        ; Alcotest.test_case "remove cancelled" `Quick test_remove_cancelled
        ] )
    ; ( "io"
      , [ Alcotest.test_case "figures round trip" `Quick test_io_round_trip_figures
        ; Alcotest.test_case "comments and blanks" `Quick
            test_io_comments_and_blanks
        ; Alcotest.test_case "post flavours" `Quick test_io_post_flavours
        ; Alcotest.test_case "parse errors" `Quick test_io_errors
        ; Alcotest.test_case "parse errors carry column and token" `Quick
            test_io_error_context
        ] )
    ; ( "properties"
      , [ QCheck_alcotest.to_alcotest prop_io_round_trip
        ; QCheck_alcotest.to_alcotest prop_enclosing_task_brackets
        ] )
    ]
