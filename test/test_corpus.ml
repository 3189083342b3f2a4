(* Tests of the application corpus: the music player, the synthetic
   generator, the catalog and the bug apps. *)

module Trace = Droidracer_trace.Trace
module Operation = Droidracer_trace.Operation
module Binfmt = Droidracer_trace.Binfmt
module Step = Droidracer_semantics.Step
module Program = Droidracer_appmodel.Program
module Runtime = Droidracer_appmodel.Runtime
module Detector = Droidracer_core.Detector
module Classify = Droidracer_core.Classify
module Race = Droidracer_core.Race
module Verify = Droidracer_explorer.Verify
module Mp = Droidracer_corpus.Music_player
module Synthetic = Droidracer_corpus.Synthetic
module Catalog = Droidracer_corpus.Catalog
module Bug_apps = Droidracer_corpus.Bug_apps

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

(* {1 Catalog} *)

let test_catalog_shape () =
  check_int "ten open-source apps" 10 (List.length Catalog.open_source);
  check_int "five proprietary apps" 5 (List.length Catalog.proprietary);
  check_bool "lookup" true (Option.is_some (Catalog.find "Flipkart"));
  check_bool "missing lookup" true (Option.is_none (Catalog.find "WhatsApp"));
  List.iter
    (fun s ->
       let ok (x, y) = y <= x && x >= 0 in
       check_bool (s.Synthetic.s_name ^ " consistent") true
         (ok s.Synthetic.s_multithreaded && ok s.Synthetic.s_cross_posted
          && ok s.Synthetic.s_co_enabled && ok s.Synthetic.s_delayed
          && ok s.Synthetic.s_unknown))
    Catalog.all

(* {1 Synthetic generation} *)

let run_built b =
  Runtime.run ~options:b.Synthetic.b_options b.Synthetic.b_app
    b.Synthetic.b_events

(* The pinned filler volume of every spec is where the calibration loop
   lands, so [Synthetic.build] without it builds the same application. *)
let test_filler_is_calibrated () =
  List.iter
    (fun s ->
       check_int (s.Synthetic.s_name ^ " filler") s.Synthetic.s_filler
         (Synthetic.calibrate s))
    Catalog.all

(* The representative run of every catalog app, pinned as the MD5 of its
   observed trace's binary encoding, its scheduling steps and its number
   of scheduling decisions.  A change to the interpreter or the
   scheduler that draws a different schedule fails here, even when race
   counts happen to stay the same. *)
let golden_runs =
  [ ("Aard Dictionary", "3f74d3bfd07e400d1effd9816a01317d", 1346, 1404)
  ; ("Music Player", "6d993d5c43e7cf60de1a1ad18031bcd8", 5520, 5582)
  ; ("My Tracks", "d62a969ec35da125411895cedd7c4389", 7376, 7540)
  ; ("Messenger", "fd50dc098ce05daf85f8c451dc04a68c", 10121, 10220)
  ; ("Tomdroid Notes", "66a5aae9c8f9a235eea77708f1c559c8", 9995, 10343)
  ; ("FBReader", "56962f70d671e9398e94f28eab2187c4", 10754, 10873)
  ; ("Browser", "f74fbdd22adfb74c9a3f3b889ee1f9ee", 19107, 19210)
  ; ("OpenSudoku", "7513ac9c7914e7a97ea3a56ec18092c6", 24886, 24931)
  ; ("K-9 Mail", "068030c2c3f4fd9d52dd6c34dd686ec5", 29961, 30650)
  ; ("SGTPuzzles", "ff6f333bd4f502a8968392c0eef21fc7", 39016, 39096)
  ; ("Remind Me", "c0cf6bcf67d5999d08ba4df3d14e93d4", 10290, 10466)
  ; ("Twitter", "adddcdf85f9f2d4be1daa60d56d06455", 17095, 17192)
  ; ("Adobe Reader", "9b2f3e7eb8a29550492250c043af0a8b", 33890, 34116)
  ; ("Facebook", "528496db8ec21cbe8c75d6b4528678e5", 52233, 52249)
  ; ("Flipkart", "f8391378139a2164ce219a23ff1d1273", 157837, 157942)
  ]

let test_golden_schedules () =
  check_int "every catalog app is pinned" (List.length Catalog.all)
    (List.length golden_runs);
  List.iter
    (fun (name, digest, steps, decisions) ->
       let r = run_built (Synthetic.build (Option.get (Catalog.find name))) in
       let bytes =
         Binfmt.encode_events_to_string (Trace.events r.Runtime.observed)
       in
       Alcotest.(check string)
         (name ^ " trace digest") digest
         (Digest.to_hex (Digest.string bytes));
       check_int (name ^ " steps") steps r.Runtime.steps;
       check_int (name ^ " decisions") decisions
         (List.length r.Runtime.choice_arities))
    golden_runs

(* The full (ground-truth) trace of three apps with natively created
   threads, pinned as the MD5 of its binary encoding: forcing the lazy
   [full] builds the same trace as the interpreter always did. *)
let golden_full_runs =
  [ ("Music Player", "7f65e7d9c589550c209372d2bf95953e", 5539)
  ; ("Browser", "9364882966a7be4f1abcf817d1444ef9", 19123)
  ; ("Twitter", "8c898bccb120ac82f19a9407480d8e41", 17121)
  ]

let test_golden_full_traces () =
  List.iter
    (fun (name, digest, length) ->
       let r = run_built (Synthetic.build (Option.get (Catalog.find name))) in
       let full = Lazy.force r.Runtime.full in
       let bytes = Binfmt.encode_events_to_string (Trace.events full) in
       Alcotest.(check string)
         (name ^ " full digest") digest
         (Digest.to_hex (Digest.string bytes));
       check_int (name ^ " full length") length (Trace.length full))
    golden_full_runs

(* Names of the threads an app creates with [Fork_native]. *)
let native_thread_names (app : Program.app) =
  let rec stmt acc = function
    | Program.Fork_native (name, body) -> stmts (name :: acc) body
    | Program.Synchronized (_, body) | Program.Fork (_, body) -> stmts acc body
    | Program.Execute_async_task spec ->
      List.fold_left stmts acc
        [ spec.pre; spec.background; spec.progress; spec.post_exec ]
    | _ -> acc
  and stmts acc body = List.fold_left stmt acc body in
  let bodies =
    List.concat_map
      (fun (a : Program.activity) ->
         [ a.on_create; a.on_start; a.on_resume; a.on_pause; a.on_stop
         ; a.on_restart; a.on_destroy ]
         @ List.map (fun (h : Program.ui_handler) -> h.handler_body) a.ui)
      app.activities
    @ List.concat_map
        (fun (s : Program.service) ->
           [ s.on_create_svc; s.on_start_command; s.on_destroy_svc ])
        app.services
    @ List.map (fun (r : Program.receiver) -> r.on_receive) app.receivers
    @ List.map snd app.procs
  in
  List.fold_left stmts [] bodies

(* The observed trace is the full one filtered by the instrumentation's
   rule: a native thread shows only its posts, forks and joins of native
   threads are invisible, and enables follow [emit_enables]. *)
let test_observed_filters_full () =
  let b = Synthetic.build (Option.get (Catalog.find "Browser")) in
  let r = run_built b in
  let natives = native_thread_names b.Synthetic.b_app in
  let native tid =
    List.exists
      (fun (t, name) ->
         Droidracer_trace.Ident.Thread_id.equal t tid && List.mem name natives)
      r.Runtime.thread_names
  in
  let opts = b.Synthetic.b_options in
  let observed (e : Trace.event) =
    if native e.thread && not opts.Runtime.log_native then
      match e.op with
      | Operation.Post _ -> true
      | _ -> false
    else
      match e.op with
      | Operation.Enable _ -> opts.Runtime.emit_enables
      | Operation.Fork t | Operation.Join t -> not (native t)
      | _ -> true
  in
  let full = Trace.events (Lazy.force r.Runtime.full) in
  check_bool "Browser has a native thread" true
    (List.exists (fun (e : Trace.event) -> native e.thread) full);
  check_bool "observed = filtered full" true
    (List.equal Trace.event_equal (List.filter observed full)
       (Trace.events r.Runtime.observed))

let test_synthetic_matches_table2 () =
  List.iter
    (fun name ->
       let spec = Option.get (Catalog.find name) in
       let b = Synthetic.build spec in
       let r = run_built b in
       check_bool (name ^ " valid") true
         (Step.is_valid (Lazy.force r.Runtime.full));
       let s = Trace.stats r.Runtime.observed in
       let close target actual =
         abs (target - actual) * 20 <= target + 20
       in
       check_bool (name ^ " trace length within 5%") true
         (close spec.Synthetic.s_trace_length s.Trace.trace_length);
       check_int (name ^ " fields exact") spec.Synthetic.s_fields s.Trace.fields;
       check_int (name ^ " async tasks exact") spec.Synthetic.s_async_tasks
         s.Trace.async_tasks)
    [ "Aard Dictionary"; "Music Player"; "Tomdroid Notes" ]

let count_category report cat =
  List.length
    (List.filter
       (fun { Detector.category; _ } -> Classify.category_equal category cat)
       report.Detector.distinct_races)

let test_synthetic_matches_table3 () =
  List.iter
    (fun name ->
       let spec = Option.get (Catalog.find name) in
       let b = Synthetic.build spec in
       let r = run_built b in
       let report = Detector.analyze r.Runtime.observed in
       let expect (x, _) cat =
         check_int
           (Printf.sprintf "%s %s reports" name (Classify.category_name cat))
           x (count_category report cat)
       in
       expect spec.Synthetic.s_multithreaded Classify.Multithreaded;
       expect spec.Synthetic.s_cross_posted Classify.Cross_posted;
       expect spec.Synthetic.s_co_enabled Classify.Co_enabled;
       expect spec.Synthetic.s_delayed Classify.Delayed_race;
       expect spec.Synthetic.s_unknown Classify.Unknown)
    [ "Aard Dictionary"; "Music Player"; "Messenger" ]

let test_plants_cover_races () =
  let spec = Option.get (Catalog.find "Music Player") in
  let b = Synthetic.build spec in
  let r = run_built b in
  let report = Detector.analyze r.Runtime.observed in
  List.iter
    (fun { Detector.race; _ } ->
       check_bool "every distinct race belongs to a plant" true
         (Option.is_some (Synthetic.plant_of_location b (Race.location race))))
    report.Detector.distinct_races

let test_verification_matches_ground_truth () =
  (* for a small app, the verifier's verdicts coincide with the plants'
     intended genuineness *)
  let spec = Option.get (Catalog.find "Aard Dictionary") in
  let b = Synthetic.build spec in
  let r = run_built b in
  let report = Detector.analyze r.Runtime.observed in
  List.iter
    (fun { Detector.race; _ } ->
       match Synthetic.plant_of_location b (Race.location race) with
       | None -> Alcotest.fail "race outside any plant"
       | Some plant ->
         let verdict =
           Verify.verify ~attempts:12 ~options:b.Synthetic.b_options
             ~app:b.Synthetic.b_app ~events:b.Synthetic.b_events
             ~trace:report.Detector.trace
             ~thread_names:r.Runtime.thread_names race
         in
         check_bool
           (Printf.sprintf "verdict matches plant (%s)" plant.Synthetic.p_mechanism)
           plant.Synthetic.p_genuine
           (Verify.is_confirmed verdict))
    report.Detector.distinct_races

(* {1 The music player} *)

let test_music_player_scenarios () =
  let play = Runtime.run ~options:Mp.options Mp.app Mp.play_scenario in
  check_int "PLAY has no races" 0
    (List.length (Detector.analyze play.Runtime.observed).Detector.all_races);
  let back = Runtime.run ~options:Mp.options Mp.app Mp.back_scenario in
  let report = Detector.analyze back.Runtime.observed in
  let categories =
    List.map
      (fun { Detector.category; _ } -> Classify.category_name category)
      report.Detector.all_races
  in
  Alcotest.(check (list string))
    "the two Section 2.4 races" [ "multithreaded"; "cross-posted" ] categories;
  List.iter
    (fun { Detector.race; _ } ->
       check_bool "on isActivityDestroyed" true
         (Droidracer_trace.Ident.Location.field_key (Race.location race)
          = "DwFileAct.isActivityDestroyed"))
    report.Detector.all_races

(* {1 Bug apps} *)

let test_aard_bug () =
  let r =
    Runtime.run Bug_apps.Aard_dictionary.app Bug_apps.Aard_dictionary.scenario
  in
  check_bool "valid" true (Step.is_valid (Lazy.force r.Runtime.full));
  let report = Detector.analyze r.Runtime.observed in
  check_int "two multithreaded races" 2 (List.length report.Detector.all_races);
  List.iter
    (fun { Detector.category; _ } ->
       check_bool "multithreaded" true
         (Classify.category_equal category Classify.Multithreaded))
    report.Detector.all_races;
  check_bool "the service state race is reported" true
    (List.exists
       (fun { Detector.race; _ } ->
          Droidracer_trace.Ident.Location.field_key (Race.location race)
          = "DictionaryService.dictionariesLoaded")
       report.Detector.all_races)

let test_messenger_bug () =
  let r = Runtime.run Bug_apps.Messenger.app Bug_apps.Messenger.scenario in
  let report = Detector.analyze r.Runtime.observed in
  check_int "one race" 1 (List.length report.Detector.all_races);
  match report.Detector.all_races with
  | [ { race; category } ] ->
    check_bool "cross-posted, as in the paper" true
      (Classify.category_equal category Classify.Cross_posted);
    check_bool "on the cursor" true
      (Droidracer_trace.Ident.Location.field_key (Race.location race)
       = "Cursor.rowCount");
    (* the bad behaviour: an alternate ordering exists *)
    check_bool "confirmed" true
      (Verify.is_confirmed
         (Verify.verify ~app:Bug_apps.Messenger.app
            ~events:Bug_apps.Messenger.scenario ~trace:report.Detector.trace
            ~thread_names:r.Runtime.thread_names race))
  | _ -> Alcotest.fail "expected exactly one race"

let test_fbreader_bug () =
  let r = Runtime.run Bug_apps.Fbreader.app Bug_apps.Fbreader.scenario in
  let report = Detector.analyze r.Runtime.observed in
  check_bool "the token race is reported" true
    (List.exists
       (fun { Detector.race; _ } ->
          Droidracer_trace.Ident.Location.field_key (Race.location race)
          = "Window.token")
       report.Detector.all_races);
  (* the crash interleaving is reachable: verification confirms *)
  List.iter
    (fun { Detector.race; _ } ->
       check_bool "confirmed" true
         (Verify.is_confirmed
            (Verify.verify ~app:Bug_apps.Fbreader.app
               ~events:Bug_apps.Fbreader.scenario ~trace:report.Detector.trace
               ~thread_names:r.Runtime.thread_names race)))
    report.Detector.distinct_races

let test_tomdroid_bug () =
  let r = Runtime.run Bug_apps.Tomdroid.app Bug_apps.Tomdroid.scenario in
  let report = Detector.analyze r.Runtime.observed in
  check_bool "the null-list race is reported" true
    (List.exists
       (fun { Detector.race; _ } ->
          Droidracer_trace.Ident.Location.field_key (Race.location race)
          = "NoteManager.notes")
       report.Detector.all_races)

let () =
  Alcotest.run "corpus"
    [ ( "catalog"
      , [ Alcotest.test_case "shape" `Quick test_catalog_shape ] )
    ; ( "synthetic"
      , [ Alcotest.test_case "table 2 targets" `Quick test_synthetic_matches_table2
        ; Alcotest.test_case "table 3 targets" `Quick test_synthetic_matches_table3
        ; Alcotest.test_case "plants cover races" `Quick test_plants_cover_races
        ; Alcotest.test_case "verification vs ground truth" `Quick
            test_verification_matches_ground_truth
        ; Alcotest.test_case "filler is calibrated" `Quick
            test_filler_is_calibrated
        ; Alcotest.test_case "golden schedules" `Quick test_golden_schedules
        ; Alcotest.test_case "golden full traces" `Quick
            test_golden_full_traces
        ; Alcotest.test_case "observed filters full" `Quick
            test_observed_filters_full
        ] )
    ; ( "music player"
      , [ Alcotest.test_case "scenarios" `Quick test_music_player_scenarios ] )
    ; ( "bug apps"
      , [ Alcotest.test_case "aard service race" `Quick test_aard_bug
        ; Alcotest.test_case "messenger cursor race" `Quick test_messenger_bug
        ; Alcotest.test_case "fbreader token race" `Quick test_fbreader_bug
        ; Alcotest.test_case "tomdroid null race" `Quick test_tomdroid_bug
        ] )
    ]
