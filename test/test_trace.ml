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

(* {1 Dense location ids} *)

module Binfmt = Droidracer_trace.Binfmt
module Catalog = Droidracer_corpus.Catalog
module Longtrace = Droidracer_corpus.Longtrace
module Runtime = Droidracer_appmodel.Runtime
module Synthetic = Droidracer_corpus.Synthetic
module Vargen = Droidracer_corpus.Vargen

(* Observed traces of the open-source catalog apps of at most 20k
   events, built once: the interpreter emits one shared location value
   per field, where the decoders build a fresh one per access. *)
let catalog_traces =
  lazy
    (Catalog.open_source
     |> List.filter_map (fun spec ->
       let b = Synthetic.build spec in
       let t =
         (Runtime.run ~options:b.Synthetic.b_options b.Synthetic.b_app
            b.Synthetic.b_events)
           .Runtime.observed
       in
       if Trace.length t <= 20_000 then Some t else None)
     |> Array.of_list)

let id_trace (source, seed, size) =
  match source with
  | 0 -> Random_trace.generate ~seed ~size ()
  | 1 ->
    let v =
      List.hd (Vargen.variants ~seed ~events:(10 * size) ~count:1 ())
    in
    let evs = ref [] in
    ignore
      (Longtrace.generate ~config:v.Vargen.v_config ~events:v.Vargen.v_events
         (fun e -> evs := e :: !evs));
    Trace.of_events_exn (List.rev !evs)
  | _ ->
    let traces = Lazy.force catalog_traces in
    traces.(seed mod Array.length traces)

let prop_location_ids =
  QCheck2.Test.make ~name:"location ids are dense, exact and stable"
    ~count:60
    ~print:QCheck2.Print.(triple int int int)
    QCheck2.Gen.(triple (int_bound 2) (int_bound 10_000) (int_range 10 120))
    (fun input ->
       let t = id_trace input in
       let locations = Trace.locations t in
       let located i = Operation.accessed_location (Trace.op t i) in
       (* dense, in first-access order, inverted by [locations] *)
       let next = ref 0 in
       for i = 0 to Trace.length t - 1 do
         let id = Trace.location_id t i in
         match located i with
         | None ->
           if id <> -1 then
             QCheck2.Test.fail_reportf "id %d off an access at %d" id i
         | Some m ->
           if id = !next then incr next
           else if id < 0 || id > !next then
             QCheck2.Test.fail_reportf "id %d at %d, next new id %d" id i !next;
           if not (Location.equal locations.(id) m) then
             QCheck2.Test.fail_reportf
               "locations.(%d) is not the location at %d" id i
       done;
       if Array.length locations <> !next then
         QCheck2.Test.fail_reportf "%d locations for %d ids"
           (Array.length locations) !next;
       (* distinct ids name distinct locations, so equal locations share
          an id: with the inversion above, ids agree exactly when the
          locations are equal *)
       let distinct = Location.Set.of_list (Array.to_list locations) in
       if Location.Set.cardinal distinct <> Array.length locations then
         QCheck2.Test.fail_reportf "two ids name one location";
       (* equal locations hash alike, however they were built *)
       let text = Result.get_ok (Trace_io.parse (Trace_io.to_string t)) in
       let binary =
         Binfmt.encode_events_to_string (Trace.events t)
         |> Binfmt.decode_string |> Result.get_ok |> Array.of_list
       in
       for i = 0 to Trace.length t - 1 do
         match located i with
         | None -> ()
         | Some m ->
           let rebuilt =
             [ Location.make ~cls:(Location.cls m) ~field:(Location.field m)
                 ~obj:(Location.obj m)
             ; Option.get (Location.of_string (Location.to_string m))
             ; Option.get (Operation.accessed_location (Trace.op text i))
             ; Option.get (Operation.accessed_location binary.(i).Trace.op)
             ]
           in
           List.iter
             (fun m' ->
                if
                  not
                    (Location.equal m m' && Location.hash m = Location.hash m')
                then
                  QCheck2.Test.fail_reportf "%s rebuilt unequal or hashed apart"
                    (Location.to_string m))
             rebuilt
       done;
       (* the Fields column, restated per event *)
       let fields = Hashtbl.create 16 in
       for i = 0 to Trace.length t - 1 do
         Option.iter
           (fun m -> Hashtbl.replace fields (Location.field_key m) ())
           (located i)
       done;
       (Trace.stats t).Trace.fields = Hashtbl.length fields)

(* {1 One builder behind every reader}

   A trace decoded from binary, parsed from text and built from an
   event list must agree on every accessor: the binary decoder numbers
   identifiers with the codec's own indices, the others intern them
   through hash tables. *)

let with_binary_file events f =
  let path = Filename.temp_file "trace_test" ".drt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
       Out_channel.with_open_bin path (fun oc ->
         Out_channel.output_string oc (Binfmt.encode_events_to_string events));
       f path)

let read_file path = In_channel.with_open_bin path Trace_io.read

(* The first accessor on which two traces differ, if any.  Threads and
   tasks are also looked up by the ids of [universe] (default [a]): a
   view of a longer trace must answer for the longer trace's ids as a
   trace built without them does. *)
let trace_difference ?universe a b =
  let universe = Option.value universe ~default:a in
  let n = Trace.length a in
  let opt_eq eq x y =
    match x, y with
    | Some x, Some y -> eq x y
    | None, None -> true
    | Some _, None | None, Some _ -> false
  in
  let first_position what differs =
    let rec go i =
      if i >= n then None
      else if differs i then Some (Printf.sprintf "%s at position %d" what i)
      else go (i + 1)
    in
    go 0
  in
  let tasks = List.init (Trace.task_count a) (Trace.task_id a) in
  let first_task what differs =
    List.find_map
      (fun p ->
         if differs p then
           Some (Printf.sprintf "%s of task %s" what (Task_id.to_string p))
         else None)
      tasks
  in
  let checks =
    [ (fun () -> if Trace.length b <> n then Some "length" else None)
    ; (fun () ->
        first_position "event" (fun i ->
          not (Trace.event_equal (Trace.get a i) (Trace.get b i))))
    ; (fun () ->
        first_position "kind" (fun i -> Trace.kind a i <> Trace.kind b i))
    ; (fun () ->
        first_position "thread index" (fun i ->
          Trace.thread_index a i <> Trace.thread_index b i))
    ; (fun () ->
        first_position "operand" (fun i ->
          Trace.operand a i <> Trace.operand b i))
    ; (fun () ->
        first_position "enclosing task" (fun i ->
          not
            (opt_eq Task_id.equal (Trace.enclosing_task a i)
               (Trace.enclosing_task b i))
          || Trace.enclosing_index a i <> Trace.enclosing_index b i))
    ; (fun () ->
        first_position "location id" (fun i ->
          Trace.location_id a i <> Trace.location_id b i))
    ; (fun () ->
        let la = Trace.locations a and lb = Trace.locations b in
        if
          Array.length la <> Array.length lb
          || not (Array.for_all2 Location.equal la lb)
          || List.exists
               (fun l -> Trace.location_accesses a l <> Trace.location_accesses b l)
               (List.init (Array.length la) Fun.id)
        then Some "locations"
        else None)
    ; (fun () ->
        if not (List.equal Thread_id.equal (Trace.threads a) (Trace.threads b))
        then Some "threads"
        else None)
    ; (fun () ->
        if not (List.equal Task_id.equal (Trace.tasks a) (Trace.tasks b)) then
          Some "tasks"
        else None)
    ; (fun () ->
        if
          Trace.task_count b <> Trace.task_count a
          || Trace.lock_count b <> Trace.lock_count a
          || List.exists
               (fun k -> not (Ident.Lock_id.equal (Trace.lock_id a k) (Trace.lock_id b k)))
               (List.init (Trace.lock_count a) Fun.id)
        then Some "task or lock tables"
        else None)
    ; (fun () ->
        first_task "index" (fun p ->
          Trace.index_of_task a p <> Trace.index_of_task b p
          || List.exists
               (fun at -> at a p <> at b p)
               [ Trace.post_index; Trace.begin_index; Trace.end_index
               ; Trace.enable_index; Trace.cancel_index ]))
    ; (fun () ->
        first_task "target" (fun p ->
          not (opt_eq Thread_id.equal (Trace.post_target a p) (Trace.post_target b p))))
    ; (fun () ->
        first_task "flavour" (fun p -> Trace.post_flavour a p <> Trace.post_flavour b p))
    ; (fun () -> if Trace.stats a <> Trace.stats b then Some "stats" else None)
    ; (fun () ->
        List.find_map
          (fun th ->
             if
               Trace.index_of_thread a th <> Trace.index_of_thread b th
               || Trace.has_queue a th <> Trace.has_queue b th
               || Trace.loop_index a th <> Trace.loop_index b th
             then Some (Printf.sprintf "index of thread %d" (Thread_id.to_int th))
             else None)
          (Trace.threads universe))
    ; (fun () ->
        List.find_map
          (fun k ->
             if Trace.target_index a k <> Trace.target_index b k then
               Some (Printf.sprintf "target index of task %d" k)
             else None)
          (List.init (Trace.task_count a) Fun.id))
    ; (fun () ->
        List.find_map
          (fun k ->
             let p = Trace.task_id universe k in
             if Trace.index_of_task a p <> Trace.index_of_task b p then
               Some ("index of task " ^ Task_id.to_string p)
             else None)
          (List.init (Trace.task_count universe) Fun.id))
    ]
  in
  List.find_map (fun check -> check ()) checks

let prop_binary_equals_list =
  QCheck2.Test.make ~name:"binary load equals the list build" ~count:60
    ~print:QCheck2.Print.(triple int int int)
    QCheck2.Gen.(triple (int_bound 2) (int_bound 10_000) (int_range 10 120))
    (fun input ->
       let t = id_trace input in
       let events = Trace.events t in
       let listed = Trace.of_events_exn events in
       let text = Result.get_ok (Trace_io.parse (Trace_io.to_string t)) in
       with_binary_file events (fun path ->
         match Trace_io.load path with
         | Error msg -> QCheck2.Test.fail_reportf "load: %s" msg
         | Ok binary ->
           List.iter
             (fun (name, u) ->
                match trace_difference listed u with
                | Some what -> QCheck2.Test.fail_reportf "%s: %s differs" name what
                | None -> ())
             [ ("binary", binary); ("text", text) ];
           true))

(* A prefix view and a selection equal the trace built from their
   events: at the ends and a random point for [prefix] (and for
   [remove_cancelled] of it), and for [select] on random subsequences —
   of all positions, mostly ill-formed, and of the accesses and lock
   operations only, always well-formed. *)
let prop_prefix_select_equal_list =
  QCheck2.Test.make ~name:"prefix and select equal the list build" ~count:60
    ~print:QCheck2.Print.(quad int int int int)
    QCheck2.Gen.(
      quad (int_bound 2) (int_bound 10_000) (int_range 10 120) (int_bound 1_000_000))
    (fun (source, seed, size, r) ->
       let t = id_trace (source, seed, size) in
       let len = Trace.length t in
       let events = Array.of_list (Trace.events t) in
       let differ name listed u =
         match trace_difference ~universe:t listed u with
         | Some what -> QCheck2.Test.fail_reportf "%s: %s differs" name what
         | None -> ()
       in
       List.iter
         (fun n ->
            let listed =
              Trace.of_events_exn (List.init n (fun i -> events.(i)))
            in
            let view = Trace.prefix t n in
            differ (Printf.sprintf "prefix %d" n) listed view;
            differ
              (Printf.sprintf "remove_cancelled of prefix %d" n)
              (Trace.remove_cancelled listed) (Trace.remove_cancelled view))
         [ 0; 1; r mod (len + 1); len ];
       let rng = Random.State.make [| r |] in
       let subsequence keep =
         List.filter keep (List.init len Fun.id) |> Array.of_list
       in
       let dropped_access i =
         match Trace.kind t i with
         | Read | Write | Acquire | Release -> Random.State.bool rng
         | _ -> false
       in
       List.iter
         (fun (name, positions) ->
            match
              ( Trace.of_events (Array.to_list (Array.map (Array.get events) positions))
              , Trace.select t positions )
            with
            | Ok listed, Ok selected -> differ name listed selected
            | Error msg, Error msg' when msg = msg' -> ()
            | Error msg, Error msg' ->
              QCheck2.Test.fail_reportf "%s: %S against %S" name msg msg'
            | Ok _, Error msg | Error msg, Ok _ ->
              QCheck2.Test.fail_reportf "%s: one build accepts, the other: %s" name msg)
         [ ("select all", subsequence (fun _ -> true))
         ; ("select any", subsequence (fun _ -> Random.State.bool rng))
         ; ("select without some accesses",
            subsequence (fun i -> not (dropped_access i)))
         ];
       true)

(* Ill-formedness is reported with one message whichever reader met it:
   valid traces with one event repeated or moved elsewhere. *)
let prop_ill_formed_same_message =
  QCheck2.Test.make ~name:"ill-formed lists give one message, list or binary"
    ~count:100
    ~print:QCheck2.Print.(quad int int int int)
    QCheck2.Gen.(
      quad (int_bound 10_000) (int_range 10 80) (int_bound 1_000) (int_bound 1_000))
    (fun (seed, size, a, b) ->
       let events = Trace.events (Random_trace.generate ~seed ~size ()) in
       let n = List.length events in
       let moved = List.nth events (a mod n) and at = b mod (n + 1) in
       let mutant =
         List.concat
           (List.mapi
              (fun i e ->
                 (if i = at then [ moved ] else [])
                 @ if i = a mod n && seed mod 2 = 0 then [] else [ e ])
              events)
         @ if at = n then [ moved ] else []
       in
       with_binary_file mutant (fun path ->
         match Trace.of_events mutant, Trace_io.load path with
         | Ok listed, Ok binary -> trace_difference listed binary = None
         | Error msg, Error msg' -> msg' = "ill-formed trace: " ^ msg
         | Ok _, Error msg | Error msg, Ok _ ->
           QCheck2.Test.fail_reportf "one reader accepts, the other: %s" msg))

(* Hostile bytes: the builder's decoding and the fold agree on every
   mutated or truncated encoding — the same located error, or the same
   trace from the same events. *)
let prop_hostile_bytes_agree =
  QCheck2.Test.make ~name:"hostile bytes: load and fold agree" ~count:300
    ~print:QCheck2.Print.(pair (pair int int) (list (pair int int)))
    QCheck2.Gen.(
      pair
        (pair (int_bound 10_000) (int_range 5 60))
        (list_size (int_range 0 3) (pair (int_bound 100_000) (int_bound 255))))
    (fun ((seed, size), edits) ->
       let bytes =
         Binfmt.encode_events_to_string
           (Trace.events (Random_trace.generate ~seed ~size ()))
       in
       let n = String.length bytes in
       let mutated = Bytes.of_string bytes in
       List.iter
         (fun (at, byte) -> Bytes.set mutated (5 + (at mod (n - 5))) (Char.chr byte))
         edits;
       let cut = if seed mod 3 = 0 then n - (seed mod 7) else n in
       let mutated = Bytes.sub_string mutated 0 (max 5 cut) in
       let b = Trace.Builder.create () in
       match Binfmt.decode_string mutated, Binfmt.build_string mutated b with
       | Error e, Error e' -> e = e'
       | Ok events, Ok () ->
         (match Trace.of_events events, Trace.Builder.finish b with
          | Ok listed, Ok built -> trace_difference listed built = None
          | Error msg, Error msg' -> msg = msg'
          | Ok _, Error msg | Error msg, Ok _ ->
            QCheck2.Test.fail_reportf "one build accepts, the other: %s" msg)
       | Error e, Ok () | Ok _, Error e ->
         QCheck2.Test.fail_reportf "one decoder accepts, the other: %s"
           (Binfmt.error_message e))

let test_ill_formed_same_message () =
  let p = task "p" and q = task "q" in
  List.iter
    (fun events ->
       match Trace.of_events events with
       | Ok _ -> Alcotest.fail "ill-formed list accepted"
       | Error msg ->
         with_binary_file events (fun path ->
           match read_file path with
           | Error (Trace_io.Ill_formed msg') ->
             Alcotest.(check string) "same message" msg msg'
           | Error e -> Alcotest.failf "binary: %s" (Trace_io.read_error_message e)
           | Ok _ -> Alcotest.fail "ill-formed binary accepted"))
    [ [ post 0 p 1; post 0 p 1 ]
    ; [ begin_task 1 p ]
    ; [ post 0 p 1; begin_task 2 p ]
    ; [ post 0 p 1; post 0 q 1; begin_task 1 p; begin_task 1 q ]
    ; [ post 0 p 1; end_task 1 p ]
    ; [ post 0 p 1; post 0 q 1; begin_task 1 p; end_task 1 q ]
    ; [ post 0 p 1; begin_task 1 p; end_task 1 p; end_task 1 p ]
    ; [ attachq 1; attachq 1 ]
    ; [ looponq 1 ]
    ; [ attachq 1; looponq 1; looponq 1 ]
    ; [ enable 0 p; enable 0 p ]
    ; [ cancel 0 p; cancel 0 p ]
    ; [ post 0 p 1; begin_task 1 p; begin_task 1 p ]
    ]

(* A decode error anywhere wins over an ill-formedness met before it,
   as when the whole input was decoded before the trace was built. *)
let test_decode_error_wins () =
  let events =
    [ threadinit 1; attachq 1; attachq 1; threadinit 2
    ; write 2 (loc ~obj:300 "f") ]
  in
  let bytes = Binfmt.encode_events_to_string events in
  let cut = String.sub bytes 0 (String.length bytes - 1) in
  let path = Filename.temp_file "trace_test" ".drt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
       Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc cut);
       let expected =
         match Binfmt.decode_string cut with
         | Error e -> e
         | Ok _ -> Alcotest.fail "truncated bytes decoded"
       in
       check_int "the decode error is at the last event" 4 expected.Binfmt.be_index;
       match read_file path with
       | Error (Trace_io.Binary e) ->
         Alcotest.(check string) "decode error"
           (Binfmt.error_message expected) (Binfmt.error_message e)
       | Error e ->
         Alcotest.failf "expected the decode error, got %s"
           (Trace_io.read_error_message e)
       | Ok _ -> Alcotest.fail "truncated trace loaded")

(* Identifier strings defined twice, used by both indices: one task,
   one lock, one location, as in the list build of the same events. *)
let test_duplicate_idents () =
  let buf = Buffer.create 64 in
  let byte n = Buffer.add_char buf (Char.chr n) in
  Buffer.add_string buf Binfmt.magic;
  byte Binfmt.version;
  let idents = [ "C"; "f"; "C"; "f"; "job"; "job"; "lk"; "lk" ] in
  byte (List.length idents);
  List.iter
    (fun s ->
       byte (String.length s);
       Buffer.add_string buf s)
    idents;
  (* tag, zigzag thread delta (0: thread t0 throughout), operands *)
  List.iter (List.iter byte)
    [ [ 0x01; 0 ] (* threadinit *)
    ; [ 0x03; 0 ] (* attachq *)
    ; [ 0x04; 0 ] (* looponq *)
    ; [ 0x07; 0; 4; 2; 0 ] (* post job#0 (index 4) t0 *)
    ; [ 0x0a; 0; 5; 2 ] (* begin job#0 (index 5) *)
    ; [ 0x0e; 0; 6 ] (* acquire lk (index 6) *)
    ; [ 0x11; 0; 0; 1; 3 ] (* write C.f@3 (indices 0, 1) *)
    ; [ 0x10; 0; 2; 3; 3 ] (* read C.f@3 (indices 2, 3) *)
    ; [ 0x0f; 0; 7 ] (* release lk (index 7) *)
    ; [ 0x0b; 0; 4; 0 ] (* end job#0 (index 4) *)
    ];
  let bytes = Buffer.contents buf in
  let events =
    match Binfmt.decode_string bytes with
    | Ok events -> events
    | Error e -> Alcotest.failf "decode: %s" (Binfmt.error_message e)
  in
  let b = Trace.Builder.create () in
  (match Binfmt.build_string bytes b with
   | Ok () -> ()
   | Error e -> Alcotest.failf "build: %s" (Binfmt.error_message e));
  match Trace.Builder.finish b with
  | Error msg -> Alcotest.failf "ill-formed: %s" msg
  | Ok binary ->
    check_int "one location" 1 (Trace.location_count binary);
    check_int "one task" 1 (Trace.task_count binary);
    check_int "one lock" 1 (Trace.lock_count binary);
    (match trace_difference (Trace.of_events_exn events) binary with
     | Some what -> Alcotest.failf "%s differs" what
     | None -> ())

(* A negative object fails [Location.make] in both decoders, at the
   same byte and event, even as the first access to its (class,
   field). *)
let test_negative_object () =
  let buf = Buffer.create 64 in
  let byte n = Buffer.add_char buf (Char.chr n) in
  Buffer.add_string buf Binfmt.magic;
  byte Binfmt.version;
  byte 2;
  List.iter
    (fun s ->
       byte (String.length s);
       Buffer.add_string buf s)
    [ "C"; "f" ];
  List.iter byte [ 0x01; 0 ] (* threadinit t0 *);
  (* write C.f@-1: the object is the 63-bit varint of -1 *)
  List.iter byte ([ 0x11; 0; 0; 1 ] @ List.init 8 (fun _ -> 0xff) @ [ 0x7f ]);
  let bytes = Buffer.contents buf in
  let b = Trace.Builder.create () in
  match Binfmt.decode_string bytes, Binfmt.build_string bytes b with
  | Error e, Error e' ->
    Alcotest.(check string) "same error" (Binfmt.error_message e)
      (Binfmt.error_message e');
    check_int "at the write" 1 e'.Binfmt.be_index;
    check_bool "names the object" true
      (String.ends_with ~suffix:"negative object id" e'.Binfmt.be_message)
  | _ -> Alcotest.fail "a negative object decoded"

(* [finish] spends a builder: the trace shares its tables. *)
let test_spent_builder () =
  let b = Trace.Builder.create () in
  Trace.Builder.add b (threadinit 1);
  let trace =
    match Trace.Builder.finish b with
    | Ok trace -> trace
    | Error msg -> Alcotest.failf "ill-formed: %s" msg
  in
  let refused name f =
    check_bool name true
      (match f () with
       | exception Invalid_argument _ -> true
       | _ -> false)
  in
  refused "add" (fun () -> Trace.Builder.add b (threadinit 2));
  refused "push" (fun () -> Trace.Builder.push b Trace.Thread_init 3 (-1));
  refused "post" (fun () ->
    Trace.Builder.post b 1 0 ~target:(Thread_id.make 1) ~flavour:Immediate);
  refused "new_task" (fun () -> ignore (Trace.Builder.new_task b (task "p")));
  refused "finish" (fun () -> ignore (Trace.Builder.finish b));
  check_int "one position" 1 (Trace.length trace);
  check_int "one thread" 1 (Trace.thread_count trace);
  check_int "thread 2 unknown" (-1) (Trace.index_of_thread trace (Thread_id.make 2))

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
    ; ( "builder"
      , [ Alcotest.test_case "ill-formed: one message, list or binary" `Quick
            test_ill_formed_same_message
        ; Alcotest.test_case "a later decode error wins" `Quick
            test_decode_error_wins
        ; Alcotest.test_case "identifiers defined twice" `Quick
            test_duplicate_idents
        ; Alcotest.test_case "a negative object fails in both decoders" `Quick
            test_negative_object
        ; Alcotest.test_case "a spent builder refuses more" `Quick
            test_spent_builder
        ; QCheck_alcotest.to_alcotest prop_binary_equals_list
        ; QCheck_alcotest.to_alcotest prop_ill_formed_same_message
        ; QCheck_alcotest.to_alcotest prop_hostile_bytes_agree
        ; QCheck_alcotest.to_alcotest prop_prefix_select_equal_list
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
        ; QCheck_alcotest.to_alcotest prop_location_ids
        ] )
    ]
