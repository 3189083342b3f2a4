open Helpers
module Epoch = Droidracer_core.Epoch
module Streaming = Droidracer_core.Streaming_engine
module Detector = Droidracer_core.Detector
module Hb = Droidracer_core.Happens_before
module Race = Droidracer_core.Race
module Longtrace = Droidracer_corpus.Longtrace
module Wellformed = Droidracer_trace.Wellformed

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int
let pair_list = Alcotest.(list (pair int int))

let pairs races =
  List.map
    (fun (r : Race.t) -> (r.first.position, r.second.position))
    races

(* {1 Epoch frontiers} *)

(* A clock lookup that knows slot [s] up to time [t], for each [(s, t)]
   listed; every other slot reads 0. *)
let clock_of assoc slot = Option.value ~default:0 (List.assoc_opt slot assoc)

let test_epoch_fast_path () =
  let t, racing, o1 =
    Epoch.observe ~clock:(clock_of [ (0, 1) ]) ~slot:0 ~time:1 "a"
      Epoch.bottom
  in
  check_int "first entry races with nothing" 0 (List.length racing);
  check_bool "first observe is not the fast path" true (o1 = Epoch.Stayed);
  (* Same slot again: program order, clock irrelevant (even an empty
     clock must not matter — the lookup is skipped entirely). *)
  let t, racing, o2 =
    Epoch.observe ~clock:(clock_of []) ~slot:0 ~time:2 "b" t
  in
  check_bool "same-slot overwrite takes the fast path" true (o2 = Epoch.Fast_path);
  check_int "no race on the fast path" 0 (List.length racing);
  check_int "still one entry" 1 (Epoch.cardinal t);
  match Epoch.entries t with
  | [ e ] ->
    check_int "the newer time" 2 e.Epoch.time;
    Alcotest.(check string) "the newer payload" "b" e.Epoch.payload
  | _ -> Alcotest.fail "expected exactly one entry"

let test_epoch_promotion_and_demotion () =
  let t, _, _ =
    Epoch.observe ~clock:(clock_of [ (0, 1) ]) ~slot:0 ~time:1 "w0"
      Epoch.bottom
  in
  (* Slot 1 has not seen slot 0: unordered, promotes to a read share. *)
  let t, racing, o =
    Epoch.observe ~clock:(clock_of [ (1, 1) ]) ~slot:1 ~time:1 "w1" t
  in
  check_bool "unordered second slot promotes" true (o = Epoch.Promoted);
  Alcotest.(check (list string)) "the racing predecessor" [ "w0" ]
    (List.map (fun e -> e.Epoch.payload) racing);
  check_int "two entries" 2 (Epoch.cardinal t);
  (* A third slot that knows both demotes back to a single epoch. *)
  let t, racing, o =
    Epoch.observe
      ~clock:(clock_of [ (0, 5); (1, 5); (2, 1) ])
      ~slot:2 ~time:1 "w2" t
  in
  check_bool "dominating observer demotes" true (o = Epoch.Demoted);
  check_int "no race when everything is known" 0 (List.length racing);
  check_int "one entry again" 1 (Epoch.cardinal t)

let test_epoch_prune () =
  let t, _, _ =
    Epoch.observe ~clock:(clock_of [ (0, 1) ]) ~slot:0 ~time:1 "r0"
      Epoch.bottom
  in
  let t, _, _ =
    Epoch.observe ~clock:(clock_of [ (1, 1) ]) ~slot:1 ~time:1 "r1" t
  in
  let t, dropped = Epoch.prune ~clock:(clock_of [ (0, 1) ]) t in
  check_int "only the known entry is dropped" 1 dropped;
  Alcotest.(check (list string)) "the unordered read survives" [ "r1" ]
    (List.map (fun e -> e.Epoch.payload) (Epoch.entries t));
  let t, dropped = Epoch.prune ~clock:(clock_of [ (1, 1) ]) t in
  check_int "then the other" 1 dropped;
  check_int "frontier empty" 0 (Epoch.cardinal t)

(* {1 The figures} *)

let test_figures () =
  let races3, _ = Streaming.detect figure3 in
  check_int "figure 3: no races" 0 (List.length races3);
  let races4, stats = Streaming.detect figure4 in
  (* The batch engines report (12,21) and (16,21); the frontier keeps
     only the last ordered representative of the reads — 16 subsumes 12
     — so streaming reports the (16,21) pair, still flagging position
     21 as racy (the coverage contract). *)
  Alcotest.check pair_list "figure 4 via the frontier"
    [ (fig 16, fig 21) ]
    (pairs races4);
  ignore stats;
  (* Consecutive accesses from one task segment hit the O(1) epoch
     overwrite; a concurrent reader still sees the race. *)
  let t =
    trace
      [ threadinit 0
      ; threadinit 1
      ; write 0 (loc "x")
      ; write 0 (loc "x")
      ; write 0 (loc "x")
      ; read 1 (loc "x")
      ]
  in
  let races, stats = Streaming.detect t in
  check_int "same-segment rewrites take the fast path" 2
    stats.Streaming.fast_path;
  Alcotest.check pair_list "the last write races with the read"
    [ (4, 5) ] (pairs races)

(* The documented divergence from the graph relation: lock clocks are
   merged unconditionally, so even with folding and sweeps off the
   engine misses a race that only lock edges between two tasks of one
   thread shadow. *)
let test_lock_divergence () =
  let p1 = task ~instance:1 "p" and p2 = task ~instance:2 "p" in
  let t =
    trace
      [ threadinit 0
      ; threadinit 1
      ; threadinit 2
      ; attachq 2
      ; looponq 2
      ; post 0 p1 2
      ; post 1 p2 2
      ; begin_task 2 p1
      ; acquire 2 "l"
      ; write 2 (loc "a")
      ; release 2 "l"
      ; end_task 2 p1
      ; begin_task 2 p2
      ; acquire 2 "l"
      ; write 2 (loc "a")
      ; release 2 "l"
      ; end_task 2 p2
      ]
  in
  let races, _ = Streaming.detect ~config:Streaming.ablation_config t in
  check_int "streaming misses the lock-shadowed race" 0 (List.length races);
  check_int "graph engine finds it" 1
    (List.length (Detector.analyze t).Detector.all_races)

(* {1 GC} *)

let exercise_config = { Streaming.completed_window = 2; gc_interval = 16 }

let test_gc_retired_tasks () =
  (* Many sequential tasks on one looper: every task is FIFO-ordered
     after the previous, so no races; a window of 2 forces constant
     folding and the sweep retires every finished task's slot. *)
  let events = ref [ looponq 1; attachq 1; threadinit 1; threadinit 0 ] in
  for i = 0 to 39 do
    let p = task ~instance:i "seq" in
    events :=
      end_task 1 p :: write 1 (loc "x") :: begin_task 1 p :: post 0 p 1
      :: !events
  done;
  let t = trace (List.rev !events) in
  let races, stats = Streaming.detect ~config:exercise_config t in
  check_int "sequential tasks never race" 0 (List.length races);
  check_bool "tasks were folded out of the window" true
    (stats.Streaming.folded_tasks > 0);
  check_bool "sweeps ran" true (stats.Streaming.gc_sweeps > 1);
  check_bool "slots were retired" true
    (stats.Streaming.slots_retired > stats.Streaming.live_slots);
  (* 40 tasks × (task slot + idle slot) + thread segments: without GC
     every one stays resident; with it only the window and frontier
     survive. *)
  check_bool "live slots bounded by the window, not the task count" true
    (stats.Streaming.live_slots < 20)

(* Every event of a generated long trace, materialised. *)
let longtrace ?(config = Longtrace.default_config) events =
  let collected = ref [] in
  let _n =
    Longtrace.generate ~config ~events (fun e -> collected := e :: !collected)
  in
  trace (List.rev !collected)

(* Runs [t] with GC off and with a sweep every [interval] events for
   each of [intervals], checks the race sets are equal, and returns the
   swept runs' stats. *)
let check_gc_invisible ~label ~window ~intervals t =
  let detect gc_interval =
    Streaming.detect
      ~config:{ Streaming.completed_window = window; gc_interval } t
  in
  let no_gc = pairs (fst (detect 0)) in
  List.map
    (fun gc_interval ->
       let gc, stats = detect gc_interval in
       Alcotest.check pair_list
         (Printf.sprintf "%s: sweeps every %d do not change the race set"
            label gc_interval)
         no_gc (pairs gc);
       stats)
    intervals

let test_gc_invisible_to_races () =
  (* Slot zeroing and recycling must be invisible; only window folding
     may (soundly) lose races. *)
  for seed = 0 to 9 do
    let t =
      Trace.remove_cancelled (Random_trace.generate ~seed ~size:120 ())
    in
    ignore
      (check_gc_invisible ~label:(Printf.sprintf "seed %d" seed)
         ~window:max_int ~intervals:[ 1 ] t);
    (* A window of 2 retires task slots almost at once, so recycled
       slots are handed out while enable and lock clocks taken before
       the sweep are still waiting to be merged. *)
    let t =
      Trace.remove_cancelled (Random_trace.generate ~seed ~size:400 ())
    in
    ignore
      (check_gc_invisible ~label:(Printf.sprintf "window 2, seed %d" seed)
         ~window:2 ~intervals:[ 1; 7 ] t)
  done;
  (* Long traces with locks, enables, forks, exits and joins: every
     kind of table clock gets retired columns zeroed, and a small
     window retires task slots fast enough that sweeps every 1 or 7
     events hand recycled slots back out mid-run. *)
  List.iter
    (fun seed ->
       let t =
         longtrace
           ~config:
             { Longtrace.default_config with
               seed
             ; locations = 16
             ; fork_every = 7
             }
           3_000
       in
       List.iter
         (fun (stats : Streaming.stats) ->
            check_bool
              (Printf.sprintf "most slots retired and recycled: %d of %d"
                 stats.slots_retired stats.slots_allocated)
              true
              (stats.slots_retired > 4 * stats.live_slots))
         (check_gc_invisible
            ~label:(Printf.sprintf "long trace, seed %d" seed)
            ~window:4 ~intervals:[ 1; 7 ] t))
    [ 1; 3; 5 ]

let test_gc_keeps_in_flight_post () =
  (* The post epoch of a task that has begun but not ended is still a
     comparison key: at [end] it becomes the completed record's FIFO
     epoch.  A sweep inside the task (here at every event) must not
     retire the poster's slot, or the FIFO probe at the next [begin]
     misses the ordering p1 < p2 (p2 is posted by a thread that joined
     the poster of p1) and the two writes appear to race. *)
  let p1 = task "p1" and p2 = task "p2" in
  let x = loc "x" in
  let t =
    trace
      [ threadinit 1; attachq 1; looponq 1; threadinit 0; post 0 p1 1; fork 0 2
      ; threadexit 0; threadinit 2; begin_task 1 p1; write 1 x; join 2 0
      ; post 2 p2 1; end_task 1 p1; begin_task 1 p2; write 1 x; end_task 1 p2
      ]
  in
  let detect gc_interval =
    pairs
      (fst
         (Streaming.detect
            ~config:{ Streaming.default_config with gc_interval } t))
  in
  Alcotest.check pair_list "GC off: FIFO orders the writes" [] (detect 0);
  Alcotest.check pair_list "sweep every event: still ordered" [] (detect 1);
  Alcotest.check pair_list "the dense engine agrees" []
    (List.map
       (fun { Detector.race; _ } ->
          (race.Race.first.position, race.Race.second.position))
       (Detector.analyze t).Detector.all_races)

let test_window_folding_is_sound () =
  for seed = 10 to 19 do
    let t =
      Trace.remove_cancelled (Random_trace.generate ~seed ~size:120 ())
    in
    let full, _ = Streaming.detect ~config:Streaming.ablation_config t in
    let folded, _ = Streaming.detect ~config:exercise_config t in
    List.iter
      (fun p ->
         check_bool
           (Printf.sprintf "folding only adds orderings (seed %d)" seed)
           true
           (List.mem p (pairs full)))
      (pairs folded)
  done

(* {1 Reporting} *)

let test_stats_json_label_round_trips () =
  (* A trace path is the label of [analyze --streaming-json]: non-ASCII
     and control bytes must come out as valid JSON. *)
  let label = "trac\xc3\xa9\x01.trace" in
  let _, stats = Streaming.detect figure4 in
  let json =
    Streaming.stats_json_string ~label ~elapsed_seconds:0.5 ~peak_rss_kb:1
      stats
  in
  match Json_parse.parse json with
  | Error e -> Alcotest.fail e
  | Ok v ->
    Alcotest.(check (option string)) "label parses back" (Some label)
      (Option.bind (Json_parse.member "label" v) Json_parse.to_string)

(* {1 The long-trace regression: peak state is O(live entities)} *)

let run_long_trace events =
  let path = Filename.temp_file "droidracer_long" ".trace" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
       let config =
         { Longtrace.default_config with locations = 64; fork_every = 50 }
       in
       let emitted = Longtrace.write ~config ~events path in
       check_int "the requested length" events emitted;
       (match Wellformed.check_file path with
        | Ok _ -> ()
        | Error f -> Alcotest.fail (Wellformed.failure_message f));
       match Streaming.detect_file path with
       | Error e ->
         Alcotest.fail (Droidracer_trace.Trace_io.read_error_message e)
       | Ok (races, stats) ->
         check_int "every event streamed" events stats.Streaming.events;
         check_bool "the shared locations race" true (List.length races > 0);
         stats)

let test_fold_channel_bounded_state () =
  let short = run_long_trace 20_000 in
  let long = run_long_trace 60_000 in
  check_bool "slots are allocated in O(tasks)" true
    (long.Streaming.slots_allocated > 10_000);
  (* Live state: loopers × (window + frontier share) + pending,
     independent of the slots allocated over the run. *)
  check_bool
    (Printf.sprintf "peak live slots stay O(live entities): %d"
       long.Streaming.peak_live_slots)
    true
    (long.Streaming.peak_live_slots < 1_000);
  (* The real bound: peak resident state plateaus once the completed
     windows fill (~2k events here), so tripling the trace must not
     grow it materially — the batch engines would triple. *)
  check_bool
    (Printf.sprintf "peak resident clock entries plateau: %d -> %d"
       short.Streaming.peak_clock_entries long.Streaming.peak_clock_entries)
    true
    (long.Streaming.peak_clock_entries
     < (short.Streaming.peak_clock_entries * 3 / 2) + 1_000)

(* The clock work per event is O(live slots): joins and copies scan
   arrays as wide as the slots in use, which recycling keeps near the
   live-slot count.  On the default generator config live slots plateau
   near 2.0k (the location pools bound the frontiers), and the measured
   entries per event were 1.27k at 25k events and 2.03k at 100k (2.29k
   at 400k).  Without recycling widths would track every slot ever
   handed out (27k at 100k events). *)
let test_clock_work_per_event_bounded () =
  let per_event events =
    let engine = Streaming.create () in
    let position = ref 0 in
    let _n =
      Longtrace.generate ~events (fun e ->
        Streaming.feed engine ~position:!position e;
        incr position)
    in
    let _, stats = Streaming.finish engine in
    float_of_int stats.Streaming.clock_entries_merged
    /. float_of_int stats.Streaming.events
  in
  List.iter
    (fun events ->
       let v = per_event events in
       check_bool
         (Printf.sprintf "%d events: %.1f clock entries merged per event"
            events v)
         true (v < 2_500.))
    [ 25_000; 100_000 ]

let test_longtrace_prefixes_admissible () =
  List.iter
    (fun events ->
       let collected = ref [] in
       let _n =
         Longtrace.generate ~events (fun e -> collected := e :: !collected)
       in
       match Wellformed.check_events (List.rev !collected) with
       | Ok _ -> ()
       | Error e ->
         Alcotest.fail
           (Printf.sprintf "prefix of %d events rejected: %s" events
              (Wellformed.error_message e)))
    [ 1; 7; 50; 333; 2_000 ]

(* {1 Differential properties against the batch engines} *)

let worklist_config =
  { Detector.default_config with
    hb = { Detector.default_config.hb with closure = Hb.Worklist }
  }

let worklist_pairs ~jobs t =
  List.map
    (fun { Detector.race; _ } ->
       (race.Race.first.position, race.Race.second.position))
    (Detector.analyze ~config:worklist_config ~jobs t).Detector.all_races

let gen = QCheck2.Gen.(pair (int_bound 100_000) (int_range 5 150))

let prop_subset_of_worklist =
  QCheck2.Test.make
    ~name:"streaming races are a subset of the worklist engine's (jobs 1 and 4)"
    ~count:60 gen
    (fun (seed, size) ->
       let t =
         Trace.remove_cancelled (Random_trace.generate ~seed ~size ())
       in
       let w1 = worklist_pairs ~jobs:1 t in
       let w4 = worklist_pairs ~jobs:4 t in
       let subset config =
         List.for_all
           (fun p -> List.mem p w1)
           (pairs (fst (Streaming.detect ~config t)))
       in
       w1 = w4
       && subset Streaming.default_config
       && subset Streaming.ablation_config)

let second_positions_by_location races_with_locations =
  List.sort_uniq compare races_with_locations

let prop_coverage_on_lock_free =
  QCheck2.Test.make
    ~name:
      "on lock-free traces streaming flags the same racy (location, second) \
       set as the worklist engine"
    ~count:60 gen
    (fun (seed, size) ->
       let t = Random_trace.generate ~seed ~size () in
       let lock_free =
         List.for_all
           (fun (e : Trace.event) ->
              match e.op with
              | Operation.Acquire _ | Operation.Release _ -> false
              | _ -> true)
           (Trace.events t)
       in
       QCheck2.assume lock_free;
       let t = Trace.remove_cancelled t in
       let seconds races =
         second_positions_by_location
           (List.map
              (fun (r : Race.t) ->
                 ( Ident.Location.to_string r.second.location
                 , r.second.position ))
              races)
       in
       let streaming = seconds (fst (Streaming.detect t)) in
       let batch =
         seconds
           (List.map
              (fun { Detector.race; _ } -> race)
              (Detector.analyze ~config:worklist_config t).Detector.all_races)
       in
       streaming = batch)

let prop_detector_dispatch_matches_engine =
  QCheck2.Test.make
    ~name:"Detector.analyze with the streaming engine returns the engine's races"
    ~count:30 gen
    (fun (seed, size) ->
       let t = Random_trace.generate ~seed ~size () in
       let config =
         { Detector.default_config with
           hb = { Detector.default_config.hb with closure = Hb.Streaming }
         }
       in
       let report = Detector.analyze ~config t in
       let direct = pairs (fst (Streaming.detect (Trace.remove_cancelled t))) in
       List.map
         (fun { Detector.race; _ } ->
            (race.Race.first.position, race.Race.second.position))
         report.Detector.all_races
       = direct
       && List.map fst report.Detector.phase_seconds
          = Detector.streaming_phase_names)

let prop_deterministic =
  QCheck2.Test.make ~name:"streaming detection is deterministic" ~count:30 gen
    (fun (seed, size) ->
       let t =
         Trace.remove_cancelled (Random_trace.generate ~seed ~size ())
       in
       let r1, s1 = Streaming.detect t in
       let r2, s2 = Streaming.detect t in
       pairs r1 = pairs r2 && s1 = s2)

let () =
  Alcotest.run "streaming"
    [ ( "epoch"
      , [ Alcotest.test_case "same-slot fast path" `Quick test_epoch_fast_path
        ; Alcotest.test_case "promotion and demotion" `Quick
            test_epoch_promotion_and_demotion
        ; Alcotest.test_case "prune" `Quick test_epoch_prune
        ] )
    ; ( "engine"
      , [ Alcotest.test_case "figures" `Quick test_figures
        ; Alcotest.test_case "retired-task GC" `Quick test_gc_retired_tasks
        ; Alcotest.test_case "GC invisible to races" `Quick
            test_gc_invisible_to_races
        ; Alcotest.test_case "GC keeps the in-flight post" `Quick
            test_gc_keeps_in_flight_post
        ; Alcotest.test_case "window folding sound" `Quick
            test_window_folding_is_sound
        ; Alcotest.test_case "lock divergence" `Quick test_lock_divergence
        ; Alcotest.test_case "stats JSON label round-trips" `Quick
            test_stats_json_label_round_trips
        ] )
    ; ( "long-trace"
      , [ Alcotest.test_case "generator prefixes admissible" `Quick
            test_longtrace_prefixes_admissible
        ; Alcotest.test_case "fold_channel bounded state" `Slow
            test_fold_channel_bounded_state
        ; Alcotest.test_case "clock work per event bounded" `Slow
            test_clock_work_per_event_bounded
        ] )
    ; ( "differential"
      , [ QCheck_alcotest.to_alcotest prop_subset_of_worklist
        ; QCheck_alcotest.to_alcotest prop_coverage_on_lock_free
        ; QCheck_alcotest.to_alcotest prop_detector_dispatch_matches_engine
        ; QCheck_alcotest.to_alcotest prop_deterministic
        ] )
    ]
