(* The crash-safe sweep journal.

   The contract under test: records survive a round trip byte for byte
   (arbitrary app names, binary payloads); a torn final line — the only
   damage a kill -9 mid-write can inflict — is skipped, counted
   (journal.torn) and repaired on resume; a non-journal file is refused;
   and a sweep interrupted after any prefix of apps, then resumed,
   produces outcomes and tables bit-identical to an uninterrupted run,
   for jobs 1 and 4 (the qcheck property). *)

module Journal = Droidracer_report.Journal
module Supervisor = Droidracer_report.Supervisor
module Experiments = Droidracer_report.Experiments
module Table = Droidracer_report.Table
module Synthetic = Droidracer_corpus.Synthetic
module Catalog = Droidracer_corpus.Catalog
module Detector = Droidracer_core.Detector
module Obs = Droidracer_obs.Obs

let check = Alcotest.check
let check_bool = check Alcotest.bool
let check_int = check Alcotest.int

let counter name =
  Option.value (List.assoc_opt name (Obs.snapshot ()).Obs.counters) ~default:0

let with_obs f =
  Obs.enable ();
  Obs.reset ();
  Fun.protect f ~finally:(fun () ->
    Obs.disable ();
    Obs.reset ())

let temp_path () =
  let path = Filename.temp_file "droidracer-journal" ".jsonl" in
  at_exit (fun () -> try Sys.remove path with Sys_error _ -> ());
  path

let or_fail = function
  | Ok v -> v
  | Error msg -> Alcotest.failf "journal error: %s" msg

(* Awkward on purpose: quotes, newlines, NUL and non-ASCII bytes in
   both the app name and the payload. *)
let sample_entries =
  [ ("Aard \"Dictionary\"", "plain payload")
  ; ("Music\nPlayer", String.init 64 (fun i -> Char.chr (i * 4 land 0xff)))
  ; ("K-9 Mail", "\x00\xff\x80 marshalled-ish \x01\x02")
  ]

let write_sample path =
  let j = or_fail (Journal.create path) in
  List.iter (fun (app, payload) -> Journal.append j ~app ~payload) sample_entries;
  Journal.close j;
  j

let test_roundtrip () =
  let path = temp_path () in
  ignore (write_sample path);
  let j = or_fail (Journal.create ~resume:true path) in
  Journal.close j;
  check_int "no torn lines" 0 (Journal.torn_lines j);
  check_int "no stale records" 0 (Journal.stale_records j);
  check_bool "a clean journal carries no warnings" true
    (Journal.warnings j = []);
  check_bool "entries survive byte for byte" true
    (Journal.prior j = sample_entries)

let test_torn_final_line () =
  with_obs @@ fun () ->
  let path = temp_path () in
  ignore (write_sample path);
  (* A kill -9 mid-append leaves a partial final line: chop bytes off
     the tail, cutting the last record's frame in half. *)
  let size = (Unix.stat path).Unix.st_size in
  let fd = Unix.openfile path [ Unix.O_WRONLY ] 0o644 in
  Unix.ftruncate fd (size - 15);
  Unix.close fd;
  let j = or_fail (Journal.create ~resume:true path) in
  check_int "one torn line skipped" 1 (Journal.torn_lines j);
  check_int "journal.torn" 1 (counter "journal.torn");
  (* the tear surfaces as a structured warning the daemon's health
     report can carry verbatim *)
  (match Journal.warnings j with
   | [ Journal.Torn_lines 1 ] -> ()
   | ws -> Alcotest.failf "expected one torn-lines warning, got %d" (List.length ws));
  check_bool "warning message names the tear" true
    (Astring_contains.contains
       (Journal.warning_message (Journal.Torn_lines 1))
       "torn");
  (match Json_parse.parse (Journal.warning_json (Journal.Torn_lines 1)) with
   | Ok json ->
     check_bool "warning JSON kind" true
       (Option.bind (Json_parse.member "kind" json) Json_parse.to_string
        = Some "torn_lines");
     check_bool "warning JSON count" true
       (Option.bind (Json_parse.member "count" json) Json_parse.to_number
        = Some 1.0)
   | Error msg -> Alcotest.failf "warning JSON does not parse: %s" msg);
  check_bool "intact prefix survives" true
    (Journal.prior j = [ List.nth sample_entries 0; List.nth sample_entries 1 ]);
  (* The rewrite repaired the file: appending and resuming again is
     clean. *)
  Journal.append j ~app:"Replayed" ~payload:"after the tear";
  Journal.close j;
  let j2 = or_fail (Journal.create ~resume:true path) in
  Journal.close j2;
  check_int "no torn lines after repair" 0 (Journal.torn_lines j2);
  check_int "three records again" 3 (List.length (Journal.prior j2))

let test_rejects_non_journal () =
  let path = temp_path () in
  Out_channel.with_open_bin path (fun oc ->
    Out_channel.output_string oc "{\"schema\":\"something-else/9\"}\n");
  (match Journal.create ~resume:true path with
   | Ok _ -> Alcotest.fail "resumed from a non-journal file"
   | Error msg ->
     check_bool "error names the schema" true
       (Astring_contains.contains msg "something-else/9"));
  (* Without --resume the file is simply truncated. *)
  let j = or_fail (Journal.create path) in
  Journal.close j

let test_missing_file_resumes_fresh () =
  let path = temp_path () in
  Sys.remove path;
  let j = or_fail (Journal.create ~resume:true path) in
  check_int "nothing to replay" 0 (List.length (Journal.prior j));
  Journal.close j

(* {1 Resume = uninterrupted (qcheck)} *)

let specs2 =
  match Catalog.all with
  | a :: b :: _ -> [ a; b ]
  | _ -> assert false

let shape = function
  | Supervisor.Completed run ->
    Printf.sprintf "completed %s races=%d"
      run.Experiments.ar_built.Synthetic.b_spec.Synthetic.s_name
      (List.length run.Experiments.ar_report.Detector.all_races)
  | Supervisor.Failed f ->
    Printf.sprintf "failed %s %s retries=%d backoff=%.6f reason=%s"
      f.Supervisor.f_app
      (Supervisor.reason_label f.Supervisor.f_reason)
      f.Supervisor.f_retries f.Supervisor.f_backoff
      (Supervisor.reason_detail f.Supervisor.f_reason)

let take n xs = List.filteri (fun i _ -> i < n) xs

let resume_equals_uninterrupted (seed, jobs, prefix) =
  let budget = { Supervisor.timeout_seconds = Some 60.0; max_events = None } in
  let path = temp_path () in
  (* The interrupted run: only the first [prefix] apps got journalled
     before the (simulated) kill. *)
  let j0 = Result.get_ok (Journal.create path) in
  let _ : Supervisor.outcome list =
    Supervisor.with_faults ~seed (fun () ->
      Supervisor.run_catalog ~jobs ~specs:(take prefix specs2) ~budget
        ~journal:j0 ())
  in
  Journal.close j0;
  (* The resumed run over the full spec list. *)
  let j1 = Result.get_ok (Journal.create ~resume:true path) in
  let resumed =
    Supervisor.with_faults ~seed (fun () ->
      Supervisor.run_catalog ~jobs ~specs:specs2 ~budget ~journal:j1 ())
  in
  Journal.close j1;
  (* The uninterrupted reference. *)
  let direct =
    Supervisor.with_faults ~seed (fun () ->
      Supervisor.run_catalog ~jobs ~specs:specs2 ~budget ())
  in
  let table outcomes =
    Table.render (Experiments.table2 (Supervisor.completed outcomes))
  in
  List.map shape resumed = List.map shape direct
  && String.equal (table resumed) (table direct)

let qcheck_resume =
  QCheck2.Test.make ~count:6 ~name:"resume reproduces the uninterrupted sweep"
    ~print:QCheck2.Print.(triple int int int)
    QCheck2.Gen.(
      triple (oneofl [ 1; 3; 6 ]) (oneofl [ 1; 4 ]) (oneofl [ 0; 1; 2 ]))
    resume_equals_uninterrupted

let () =
  Alcotest.run "journal"
    [ ( "records"
      , [ Alcotest.test_case "roundtrip" `Quick test_roundtrip
        ; Alcotest.test_case "torn final line skipped and counted" `Quick
            test_torn_final_line
        ; Alcotest.test_case "non-journal file refused" `Quick
            test_rejects_non_journal
        ; Alcotest.test_case "missing file resumes fresh" `Quick
            test_missing_file_resumes_fresh
        ] )
    ; ( "resume"
      , [ QCheck_alcotest.to_alcotest qcheck_resume ] )
    ]
