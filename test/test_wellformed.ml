(* The ingest gate: admissibility validation of trace files.

   Three angles:
   - the adversarial corpus under data/malformed/ must each be rejected
     with the exact rule and line number (table-driven, and the table is
     required to cover every file in the directory);
   - valid-by-construction traces — the helpers' figures, random
     semantics-driven traces, and real interpreter runs — must all be
     accepted;
   - the file reader must stay streaming: a million-event trace is
     validated without materialising it. *)

open Helpers
module Wellformed = Droidracer_trace.Wellformed
module Runtime = Droidracer_appmodel.Runtime
module Music_player = Droidracer_corpus.Music_player
module Synthetic = Droidracer_corpus.Synthetic
module Catalog = Droidracer_corpus.Catalog

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int

(* {1 The adversarial corpus} *)

type expected =
  | Syntax of int * int  (* line, column *)
  | Rule of Wellformed.rule * int  (* rule violated, line *)

(* dune runtest executes in the test build directory, dune exec in the
   project root; accept both. *)
let malformed_dir =
  if Sys.file_exists "data/malformed" then "data/malformed"
  else "test/data/malformed"

(* One row per file; the directory sweep below fails if a file is
   missing from this table or vice versa. *)
let corpus_table : (string * expected) list =
  [ ("begin-without-loop.trace", Rule (Wellformed.Begin_without_loop, 4))
  ; ("begin-without-post.trace", Rule (Wellformed.Begin_without_post, 4))
  ; ("begin-wrong-thread.trace", Rule (Wellformed.Begin_wrong_thread, 8))
  ; ("binary-junk.trace", Syntax (1, 1))
  ; ("cancel-not-pending.trace", Rule (Wellformed.Cancel_not_pending, 2))
  ; ("double-attach.trace", Rule (Wellformed.Double_attach, 3))
  ; ("double-begin.trace", Rule (Wellformed.Double_begin, 7))
  ; ("double-enable.trace", Rule (Wellformed.Double_enable, 3))
  ; ("double-loop.trace", Rule (Wellformed.Double_loop, 4))
  ; ("double-post.trace", Rule (Wellformed.Double_post, 5))
  ; ("end-without-begin.trace", Rule (Wellformed.End_without_begin, 5))
  ; ("fifo-violation.trace", Rule (Wellformed.Fifo_violation, 6))
  ; ("fork-existing-thread.trace", Rule (Wellformed.Fork_existing_thread, 2))
  ; ("join-unfinished-thread.trace", Rule (Wellformed.Join_unfinished_thread, 3))
  ; ("late-thread-init.trace", Rule (Wellformed.Late_thread_init, 2))
  ; ("lock-held-elsewhere.trace", Rule (Wellformed.Lock_held_elsewhere, 4))
  ; ("loop-without-attach.trace", Rule (Wellformed.Loop_without_attach, 2))
  ; ("nested-begin.trace", Rule (Wellformed.Nested_begin, 7))
  ; ("operation-after-exit.trace", Rule (Wellformed.Operation_after_exit, 3))
  ; ("post-without-queue.trace", Rule (Wellformed.Post_without_queue, 2))
  ; ("syntax-bad-delay.trace", Syntax (3, 16))
  ; ("syntax-bad-location.trace", Syntax (2, 9))
  ; ("syntax-bad-thread.trace", Syntax (1, 1))
  ; ("syntax-missing-args.trace", Syntax (2, 4))
  ; ("syntax-truncated-line.trace", Syntax (2, 1))
  ; ("syntax-unknown-op.trace", Syntax (3, 4))
  ; ("thread-reinitialized.trace", Rule (Wellformed.Thread_reinitialized, 2))
  ; ("unbalanced-release.trace", Rule (Wellformed.Unbalanced_release, 2))
  ]

let test_malformed_corpus () =
  check_bool "at least 15 adversarial files" true
    (List.length corpus_table >= 15);
  List.iter
    (fun (file, expected) ->
       let path = Filename.concat malformed_dir file in
       match Wellformed.check_file path, expected with
       | Ok _, _ -> Alcotest.failf "%s: accepted, expected a rejection" file
       | Error (Wellformed.Syntax pe), Syntax (line, column) ->
         check_int (file ^ ": syntax line") line pe.Droidracer_trace.Trace_io.pe_line;
         check_int (file ^ ": syntax column") column
           pe.Droidracer_trace.Trace_io.pe_column
       | Error (Wellformed.Violation e), Rule (rule, line) ->
         check Alcotest.string (file ^ ": rule")
           (Wellformed.rule_name rule)
           (Wellformed.rule_name e.Wellformed.rule);
         check_int (file ^ ": line") line e.Wellformed.line
       | Error failure, _ ->
         Alcotest.failf "%s: wrong failure class: %s" file
           (Wellformed.failure_message failure))
    corpus_table

(* Every diagnosis must carry its line number in the rendered message —
   the "structured, line-numbered diagnosis" of the acceptance
   criteria. *)
let test_malformed_messages_carry_lines () =
  List.iter
    (fun (file, expected) ->
       let path = Filename.concat malformed_dir file in
       match Wellformed.check_file path with
       | Ok _ -> Alcotest.failf "%s: accepted" file
       | Error failure ->
         let line =
           match expected with Syntax (l, _) | Rule (_, l) -> l
         in
         check (Alcotest.option Alcotest.int) (file ^ ": failure_line")
           (Some line)
           (Wellformed.failure_line failure);
         check_bool (file ^ ": message names the line") true
           (Astring_contains.contains
              (Wellformed.failure_message failure)
              (Printf.sprintf "line %d" line)))
    corpus_table

(* The table and the directory must agree: a new adversarial file
   without an expectation (or a stale row) is a test bug. *)
let test_corpus_is_exhaustive () =
  let on_disk =
    Sys.readdir malformed_dir |> Array.to_list
    |> List.filter (fun f -> Filename.check_suffix f ".trace")
    |> List.sort String.compare
  in
  let in_table = List.sort String.compare (List.map fst corpus_table) in
  check (Alcotest.list Alcotest.string) "table covers the directory" on_disk
    in_table

(* {1 Acceptance of valid traces} *)

let test_accepts_figures () =
  List.iter
    (fun (name, t) ->
       match Wellformed.check t with
       | Ok _ -> ()
       | Error e ->
         Alcotest.failf "%s rejected: %s" name (Wellformed.error_message e))
    [ ("figure3", figure3); ("figure4", figure4) ]

let test_accepts_interpreter_traces () =
  let runs =
    [ ( "music-player BACK"
      , Runtime.run ~options:Music_player.options Music_player.app
          Music_player.back_scenario )
    ; ( "music-player PLAY"
      , Runtime.run ~options:Music_player.options Music_player.app
          Music_player.play_scenario )
    ]
  in
  let aard =
    let spec = List.hd Catalog.all in
    let b = Synthetic.build spec in
    ( spec.Synthetic.s_name
    , Runtime.run ~options:b.Synthetic.b_options b.Synthetic.b_app
        b.Synthetic.b_events )
  in
  List.iter
    (fun (name, r) ->
       List.iter
         (fun (kind, t) ->
            match Wellformed.check t with
            | Ok stats ->
              check_int
                (Printf.sprintf "%s (%s): stats count the events" name kind)
                (Trace.length t) stats.Wellformed.events
            | Error e ->
              Alcotest.failf "%s (%s) rejected: %s" name kind
                (Wellformed.error_message e))
         [ ("observed", r.Runtime.observed); ("full", r.Runtime.full) ])
    (aard :: runs)

let test_prefixes_accepted () =
  (* Truncation is not an error: crashed recordings stay analysable. *)
  let events = Trace.events figure3 in
  let n = List.length events in
  for k = 0 to n do
    let prefix = List.filteri (fun i _ -> i < k) events in
    match Wellformed.check_events prefix with
    | Ok _ -> ()
    | Error e ->
      Alcotest.failf "prefix of length %d rejected: %s" k
        (Wellformed.error_message e)
  done

let test_stats () =
  let t =
    trace
      [ threadinit 1
      ; attachq 1
      ; looponq 1
      ; post 0 (task "a") 1
      ; post 0 (task "b") 1
      ; begin_task 1 (task "a")
      ; acquire 1 "l"
      ; write 1 (loc "f")
      ; release 1 "l"
      ; end_task 1 (task "a")
      ]
  in
  match Wellformed.check t with
  | Error e -> Alcotest.failf "rejected: %s" (Wellformed.error_message e)
  | Ok s ->
    check_int "events" 10 s.Wellformed.events;
    check_int "threads" 2 s.Wellformed.threads;
    check_int "queue threads" 1 s.Wellformed.queue_threads;
    check_int "tasks" 2 s.Wellformed.tasks;
    check_int "completed" 1 s.Wellformed.completed_tasks;
    check_int "pending" 1 s.Wellformed.pending_tasks;
    check_int "locks" 1 s.Wellformed.locks;
    check_int "accesses" 1 s.Wellformed.accesses;
    check_int "max queue depth" 2 s.Wellformed.max_queue_depth

let test_rule_names_distinct () =
  let names = List.map Wellformed.rule_name Wellformed.all_rules in
  check_int "no duplicate rule names"
    (List.length names)
    (List.length (List.sort_uniq String.compare names))

let test_missing_file () =
  match Wellformed.check_file "data/no-such-file.trace" with
  | Error (Wellformed.Io _) -> ()
  | Error f -> Alcotest.failf "wrong failure: %s" (Wellformed.failure_message f)
  | Ok _ -> Alcotest.fail "accepted a missing file"

(* {1 Streaming}

   A million-event trace must stream through the validator: the state is
   proportional to live entities (here: one looper, one task in flight),
   never to the event count. *)

let test_streaming_million_events () =
  let path = Filename.temp_file "droidracer-large" ".trace" in
  Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
  let events_written =
    Out_channel.with_open_text path (fun oc ->
      Out_channel.output_string oc "t1 threadinit\nt1 attachq\nt1 looponq\n";
      let iterations = 250_000 in
      for i = 0 to iterations - 1 do
        Printf.fprintf oc "t0 post p#%d t1\nt1 begin p#%d\nt1 read C.f@0\nt1 end p#%d\n" i
          i i
      done;
      3 + (4 * iterations))
  in
  check_bool "the file really is a million events" true
    (events_written >= 1_000_000);
  match Wellformed.check_file path with
  | Error f -> Alcotest.failf "rejected: %s" (Wellformed.failure_message f)
  | Ok s ->
    check_int "events" events_written s.Wellformed.events;
    check_int "tasks" 250_000 s.Wellformed.tasks;
    check_int "max queue depth stays constant" 1 s.Wellformed.max_queue_depth

(* {1 Properties} *)

(* Valid-by-construction ⇒ accepted: every trace the semantics-driven
   generator emits satisfies the admissibility rules (the validator is
   weaker than Step.validate by design, never stronger). *)
let prop_random_traces_accepted =
  QCheck2.Test.make ~name:"semantics-valid random traces pass the validator"
    ~count:120
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 10 150))
    (fun (seed, size) ->
       let t = Random_trace.generate ~seed ~size () in
       match Wellformed.check t with
       | Ok stats -> stats.Wellformed.events = Trace.length t
       | Error _ -> false)

(* The streaming file reader and the in-memory parser agree event for
   event. *)
let prop_streaming_load_equals_parse =
  QCheck2.Test.make
    ~name:"streaming load agrees with the in-memory parser" ~count:40
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_bound 10_000) (int_range 10 120))
    (fun (seed, size) ->
       let t = Random_trace.generate ~seed ~size () in
       let text = Trace_io.to_string t in
       let path = Filename.temp_file "droidracer-roundtrip" ".trace" in
       Fun.protect ~finally:(fun () -> Sys.remove path) @@ fun () ->
       Out_channel.with_open_text path (fun oc ->
         Out_channel.output_string oc text);
       match Trace_io.parse text, Trace_io.load path with
       | Ok in_memory, Ok streamed ->
         Trace.length in_memory = Trace.length streamed
         && List.for_all2 Trace.event_equal (Trace.events in_memory)
              (Trace.events streamed)
       | _ -> false)

let () =
  Alcotest.run "wellformed"
    [ ( "malformed corpus"
      , [ Alcotest.test_case "exact rule and line per file" `Quick
            test_malformed_corpus
        ; Alcotest.test_case "messages carry line numbers" `Quick
            test_malformed_messages_carry_lines
        ; Alcotest.test_case "expectation table is exhaustive" `Quick
            test_corpus_is_exhaustive
        ] )
    ; ( "acceptance"
      , [ Alcotest.test_case "figure traces" `Quick test_accepts_figures
        ; Alcotest.test_case "interpreter traces (observed + full)" `Quick
            test_accepts_interpreter_traces
        ; Alcotest.test_case "prefixes stay admissible" `Quick
            test_prefixes_accepted
        ; Alcotest.test_case "stats" `Quick test_stats
        ; Alcotest.test_case "rule names distinct" `Quick
            test_rule_names_distinct
        ; Alcotest.test_case "missing file is Io" `Quick test_missing_file
        ] )
    ; ( "streaming"
      , [ Alcotest.test_case "million-event file" `Slow
            test_streaming_million_events
        ] )
    ; ( "properties"
      , [ QCheck_alcotest.to_alcotest prop_random_traces_accepted
        ; QCheck_alcotest.to_alcotest prop_streaming_load_equals_parse
        ] )
    ]
