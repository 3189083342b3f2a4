(* Binary trace codec (Binfmt):
   - encode ∘ decode is the identity on generated admissible traces
     (property-tested via the semantic random generator);
   - text parsing and binary decoding yield the same event streams
     through the transparent Trace_io dispatch, and the binary file is
     at least three times smaller;
   - race tables are identical across formats and jobs ∈ {1, 4}, and
     the planted ground-truth races are recalled;
   - adversarial inputs (truncated, bit-flipped, stale version, bad
     idents, unknown tags) are rejected with located errors, mirroring
     the text corpus under data/malformed/. *)

open Helpers
module Binfmt = Droidracer_trace.Binfmt
module Wellformed = Droidracer_trace.Wellformed
module Longtrace = Droidracer_corpus.Longtrace
module Detector = Droidracer_core.Detector
module Race = Droidracer_core.Race
module Obs = Droidracer_obs.Obs

let check = Alcotest.check
let check_int = check Alcotest.int
let check_bool = check Alcotest.bool
let check_string = check Alcotest.string

let events_equal a b =
  List.length a = List.length b && List.for_all2 Trace.event_equal a b

let check_events msg expected actual =
  if not (events_equal expected actual) then
    Alcotest.failf "%s: event streams differ (%d vs %d events)" msg
      (List.length expected) (List.length actual)

let decode_ok msg s =
  match Binfmt.decode_string s with
  | Ok events -> events
  | Error e -> Alcotest.failf "%s: decode failed: %s" msg (Binfmt.error_message e)

let decode_err msg s =
  match Binfmt.decode_string s with
  | Ok events ->
    Alcotest.failf "%s: expected a decode error, got %d events" msg
      (List.length events)
  | Error e -> e

(* {1 Roundtrips} *)

let test_roundtrip_empty () =
  let s = Binfmt.encode_events_to_string [] in
  check_bool "magic" true (Binfmt.is_magic s);
  check_events "empty" [] (decode_ok "empty" s)

let test_roundtrip_simple () =
  let events =
    [ threadinit 0
    ; threadinit 1
    ; attachq 1
    ; looponq 1
    ; enable 0 (task "job")
    ; post 0 (task "job") 1
    ; post ~flavour:(Operation.Delayed 500) 0 (task ~instance:1 "job") 1
    ; post ~flavour:Operation.Front 0 (task ~instance:2 "job") 1
    ; begin_task 1 (task "job")
    ; acquire 1 "l1"
    ; read 1 (loc "a")
    ; write 1 (loc ~obj:7 "b")
    ; release 1 "l1"
    ; end_task 1 (task "job")
    ; fork 0 2
    ; threadinit 2
    ; threadexit 2
    ; join 0 2
    ; cancel 0 (task ~instance:1 "job")
    ]
  in
  let s = Binfmt.encode_events_to_string events in
  check_events "simple" events (decode_ok "simple" s)

let test_roundtrip_up_front_idents () =
  let events = [ acquire 0 "l1"; read 0 (loc "a"); release 0 "l1" ] in
  let with_table =
    Binfmt.encode_events_to_string ~idents:[ "l1"; "C"; "a" ] events
  in
  let without = Binfmt.encode_events_to_string events in
  check_events "table" events (decode_ok "table" with_table);
  check_events "defs" events (decode_ok "defs" without)

let test_qcheck_roundtrip () =
  QCheck.Test.check_exn
    (QCheck.Test.make ~count:60 ~name:"binfmt roundtrip"
       QCheck.(pair (int_bound 10_000) (int_range 10 400))
       (fun (seed, size) ->
          let trace = Random_trace.generate ~seed ~size () in
          let events = Trace.events trace in
          let s = Binfmt.encode_events_to_string events in
          events_equal events (decode_ok "qcheck" s)))

(* {1 Text-parse ≡ binary-decode through the Trace_io dispatch} *)

let longtrace_config =
  { Longtrace.default_config with
    loopers = 4
  ; locations = 64
  ; planted = 3
  ; seed = 97
  }

let with_temp_files f =
  let text = Filename.temp_file "binfmt_test" ".trace" in
  let binary = Filename.temp_file "binfmt_test" ".drt" in
  Fun.protect
    ~finally:(fun () ->
      (try Sys.remove text with Sys_error _ -> ());
      (try Sys.remove binary with Sys_error _ -> ()))
    (fun () -> f text binary)

let fold_file_events path =
  match
    Trace_io.fold_events path ~init:[] ~f:(fun acc ~line:_ e -> e :: acc)
  with
  | Ok rev -> List.rev rev
  | Error e ->
    Alcotest.failf "%s: %s" path (Trace_io.read_error_message e)

let test_text_equals_binary_streams () =
  with_temp_files (fun text binary ->
    let events = 4_000 in
    let n_text = Longtrace.write ~config:longtrace_config ~events text in
    let n_bin = Longtrace.write_binary ~config:longtrace_config ~events binary in
    check_int "same count" n_text n_bin;
    let from_text = fold_file_events text in
    let from_binary = fold_file_events binary in
    check_int "stream length" n_text (List.length from_binary);
    check_events "dispatched streams" from_text from_binary;
    (* the binary file must be at least three times smaller *)
    let size path = (Unix.stat path).Unix.st_size in
    check_bool "binary 3x smaller" true (size text >= 3 * size binary))

let test_wellformed_accepts_binary () =
  with_temp_files (fun text binary ->
    let events = 2_000 in
    ignore (Longtrace.write ~config:longtrace_config ~events text);
    ignore (Longtrace.write_binary ~config:longtrace_config ~events binary);
    match Wellformed.check_file text, Wellformed.check_file binary with
    | Ok st, Ok sb ->
      check_int "events" st.Wellformed.events sb.Wellformed.events;
      check_int "threads" st.Wellformed.threads sb.Wellformed.threads;
      check_int "tasks" st.Wellformed.tasks sb.Wellformed.tasks
    | Error f, _ | _, Error f ->
      Alcotest.failf "rejected: %s" (Wellformed.failure_message f))

(* {1 Race tables across formats and jobs} *)

let race_table report =
  List.map
    (fun { Detector.race; _ } ->
       (race.Race.first.Race.position, race.Race.second.Race.position))
    report.Detector.all_races

let test_race_tables_identical () =
  with_temp_files (fun text binary ->
    let events = 3_000 in
    ignore (Longtrace.write ~config:longtrace_config ~events text);
    ignore (Longtrace.write_binary ~config:longtrace_config ~events binary);
    let load path =
      match Trace_io.load path with
      | Ok t -> t
      | Error msg -> Alcotest.failf "%s: %s" path msg
    in
    let t_text = load text and t_bin = load binary in
    let tables =
      List.concat_map
        (fun trace ->
           List.map (fun jobs -> race_table (Detector.analyze ~jobs trace))
             [ 1; 4 ])
        [ t_text; t_bin ]
    in
    (match tables with
     | reference :: rest ->
       check_bool "some races" true (reference <> []);
       List.iteri
         (fun i table ->
            check
              Alcotest.(list (pair int int))
              (Printf.sprintf "table %d" (i + 1))
              reference table)
         rest
     | [] -> assert false);
    (* every planted ground-truth race is recalled *)
    let report = Detector.analyze t_bin in
    let raced =
      List.map
        (fun { Detector.race; _ } -> Ident.Location.to_string (Race.location race))
        report.Detector.all_races
    in
    List.iter
      (fun planted ->
         check_bool (planted ^ " recalled") true (List.mem planted raced))
      (Longtrace.planted_locations longtrace_config))

(* {1 Adversarial corpus: truncation, bit flips, stale versions}

   Mirrors test/data/malformed/: every corrupted input must be rejected
   with a located error (byte offset + event index).  The streams are
   built in-memory so the corruptions are byte-precise. *)

let valid_stream () =
  Binfmt.encode_events_to_string
    [ threadinit 0
    ; threadinit 1
    ; attachq 1
    ; looponq 1
    ; post 0 (task "job") 1
    ; begin_task 1 (task "job")
    ; write 1 (loc "a")
    ; end_task 1 (task "job")
    ]

let varint n =
  let buf = Buffer.create 4 in
  let n = ref n in
  let continue = ref true in
  while !continue do
    let b = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.chr (b lor 0x80))
  done;
  Buffer.contents buf

let header ?(version = Binfmt.version) ?(idents = []) () =
  Binfmt.magic
  ^ String.make 1 (Char.chr version)
  ^ varint (List.length idents)
  ^ String.concat ""
      (List.map (fun s -> varint (String.length s) ^ s) idents)

let contains haystack needle = Astring_contains.contains haystack needle

let test_stale_version_rejected () =
  let s = valid_stream () in
  let stale = Bytes.of_string s in
  Bytes.set stale 4 (Char.chr (Binfmt.version + 1));
  let e = decode_err "stale version" (Bytes.to_string stale) in
  check_int "offset past version byte" 5 e.Binfmt.be_offset;
  check_int "no events decoded" 0 e.Binfmt.be_index;
  check_bool "message names the version" true
    (contains e.Binfmt.be_message "version")

let test_truncations_rejected () =
  let s = valid_stream () in
  (* Cutting the last byte always strands a partial record (every
     record is at least two bytes); cutting inside the header strands
     the ident table. *)
  List.iter
    (fun keep ->
       let e = decode_err (Printf.sprintf "truncated at %d" keep)
           (String.sub s 0 keep)
       in
       check_bool "truncation message" true
         (contains e.Binfmt.be_message "truncated"))
    [ 5; String.length s - 1 ]

let test_truncation_prefix_boundary () =
  (* Truncating at a record boundary is indistinguishable from a short
     stream: the decoder returns the event prefix cleanly.  This is the
     streaming contract, not a corruption case. *)
  let events = [ threadinit 0; threadinit 1 ] in
  let s = Binfmt.encode_events_to_string events in
  let shorter = Binfmt.encode_events_to_string [ threadinit 0 ] in
  check_events "boundary prefix" [ threadinit 0 ]
    (decode_ok "boundary" (String.sub s 0 (String.length shorter)))

let test_bit_flipped_ident_rejected () =
  (* An ident table entry whose bytes were flipped into whitespace can
     no longer name a lock/task/location: rejected at first use. *)
  let s =
    header ~idents:[ "l 1" ] ()
    ^ "\x0e" (* acquire *) ^ varint (2 * 0) (* zigzag dthread 0 *)
    ^ varint 0 (* ident index *)
  in
  let e = decode_err "flipped ident" s in
  check_int "fails at first event" 0 e.Binfmt.be_index;
  check_bool "invalid identifier" true
    (contains e.Binfmt.be_message "invalid identifier")

let test_unknown_tag_rejected () =
  let s = header () ^ "\x7e" in
  let e = decode_err "unknown tag" s in
  check_bool "unknown tag" true (contains e.Binfmt.be_message "unknown record tag")

let test_ident_index_out_of_range () =
  let s = header () ^ "\x0e" ^ varint 0 ^ varint 9 in
  let e = decode_err "bad index" s in
  check_bool "out of range" true
    (contains e.Binfmt.be_message "ident index out of range")

let test_overlong_varint_rejected () =
  let s = header () ^ "\x01" ^ String.make 10 '\xff' in
  let e = decode_err "overlong varint" s in
  check_bool "varint too long" true
    (contains e.Binfmt.be_message "varint too long")

let test_negative_thread_delta_rejected () =
  (* zigzag(-1) = 1: thread 0 - 1 is negative, caught by Thread_id.make *)
  let s = header () ^ "\x01" ^ varint 1 in
  let e = decode_err "negative thread" s in
  check_bool "invalid identifier" true
    (contains e.Binfmt.be_message "invalid identifier")

let test_bad_magic_is_not_binary () =
  match Binfmt.decode_string "DRTX\x01junk" with
  | Ok _ -> Alcotest.fail "accepted a bad magic"
  | Error e ->
    check_bool "bad magic message" true (contains e.Binfmt.be_message "magic")

let test_located_failure_through_wellformed () =
  let path = Filename.temp_file "binfmt_test" ".drt" in
  Fun.protect
    ~finally:(fun () -> try Sys.remove path with Sys_error _ -> ())
    (fun () ->
       let s = valid_stream () in
       Out_channel.with_open_bin path (fun oc ->
         Out_channel.output_string oc
           (String.sub s 0 (String.length s - 1)));
       match Wellformed.check_file path with
       | Ok _ -> Alcotest.fail "accepted a truncated binary file"
       | Error (Wellformed.Binary e) ->
         check_bool "1-based event position" true
           (match Wellformed.failure_line (Wellformed.Binary e) with
            | Some l -> l = e.Binfmt.be_index + 1 && l >= 1
            | None -> false);
         check_bool "message carries the byte offset" true
           (contains
              (Wellformed.failure_message (Wellformed.Binary e))
              "byte")
       | Error f ->
         Alcotest.failf "wrong failure class: %s"
           (Wellformed.failure_message f))

(* {1 Interner and Obs counters} *)

let test_interner () =
  let i = Ident.Interner.create () in
  check_int "first" 0 (Ident.Interner.intern i "a");
  check_int "second" 1 (Ident.Interner.intern i "b");
  check_int "repeat" 0 (Ident.Interner.intern i "a");
  check_int "length" 2 (Ident.Interner.length i);
  check_string "get" "b" (Ident.Interner.get i 1);
  check (Alcotest.option Alcotest.int) "find_opt" (Some 1)
    (Ident.Interner.find_opt i "b");
  check (Alcotest.option Alcotest.int) "find_opt miss" None
    (Ident.Interner.find_opt i "c");
  (* dense growth past the initial capacity *)
  let big = Ident.Interner.create ~size_hint:2 () in
  for k = 0 to 99 do
    check_int "dense" k (Ident.Interner.intern big (string_of_int k))
  done;
  let order = ref [] in
  Ident.Interner.iter i (fun idx s -> order := (idx, s) :: !order);
  check
    Alcotest.(list (pair int string))
    "iter order"
    [ (0, "a"); (1, "b") ]
    (List.rev !order)

let test_obs_counters () =
  Obs.reset ();
  Obs.enable ();
  Fun.protect
    ~finally:(fun () ->
      Obs.disable ();
      Obs.reset ())
    (fun () ->
       let i = Ident.Interner.create () in
       ignore (Ident.Interner.intern i "x");
       ignore (Ident.Interner.intern i "x");
       check_bool "intern_hits counted" true
         (Obs.counter_value "trace.intern_hits" >= 1);
       let s = valid_stream () in
       ignore (decode_ok "counted" s);
       check_bool "decode_bytes counted" true
         (Obs.counter_value "trace.decode_bytes" >= String.length s - 4))

let () =
  Alcotest.run "binfmt"
    [ ( "roundtrip"
      , [ Alcotest.test_case "empty" `Quick test_roundtrip_empty
        ; Alcotest.test_case "all operations" `Quick test_roundtrip_simple
        ; Alcotest.test_case "up-front ident table" `Quick
            test_roundtrip_up_front_idents
        ; Alcotest.test_case "qcheck encode∘decode = id" `Slow
            test_qcheck_roundtrip
        ] )
    ; ( "dispatch"
      , [ Alcotest.test_case "text ≡ binary event streams" `Quick
            test_text_equals_binary_streams
        ; Alcotest.test_case "wellformed accepts binary" `Quick
            test_wellformed_accepts_binary
        ; Alcotest.test_case "race tables: formats × jobs ∈ {1,4}" `Slow
            test_race_tables_identical
        ] )
    ; ( "adversarial"
      , [ Alcotest.test_case "stale version" `Quick test_stale_version_rejected
        ; Alcotest.test_case "truncations" `Quick test_truncations_rejected
        ; Alcotest.test_case "boundary truncation is a clean prefix" `Quick
            test_truncation_prefix_boundary
        ; Alcotest.test_case "bit-flipped ident" `Quick
            test_bit_flipped_ident_rejected
        ; Alcotest.test_case "unknown tag" `Quick test_unknown_tag_rejected
        ; Alcotest.test_case "ident index out of range" `Quick
            test_ident_index_out_of_range
        ; Alcotest.test_case "overlong varint" `Quick
            test_overlong_varint_rejected
        ; Alcotest.test_case "negative thread delta" `Quick
            test_negative_thread_delta_rejected
        ; Alcotest.test_case "bad magic" `Quick test_bad_magic_is_not_binary
        ; Alcotest.test_case "located failure via wellformed" `Quick
            test_located_failure_through_wellformed
        ] )
    ; ( "interning"
      , [ Alcotest.test_case "interner" `Quick test_interner
        ; Alcotest.test_case "obs counters" `Quick test_obs_counters
        ] )
    ]
