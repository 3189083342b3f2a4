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
  (* The dense engine reports (12,21) and (16,21); the frontier keeps
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

(* NO-Q-PO orders an out-of-task operation after [loopOnQ] only after
   the loop itself, so two posts an idle looper makes are unordered and
   FIFO does not order their tasks. *)
let test_idle_looper_ops_unordered () =
  let p1 = task ~instance:1 "p" and p2 = task ~instance:2 "p" in
  let t =
    trace
      [ threadinit 0
      ; threadinit 1
      ; attachq 0
      ; looponq 0
      ; attachq 1
      ; looponq 1
      ; post 0 p1 1
      ; post 0 p2 1
      ; begin_task 1 p1
      ; write 1 (loc "a")
      ; end_task 1 p1
      ; begin_task 1 p2
      ; write 1 (loc "a")
      ; end_task 1 p2
      ]
  in
  let dense t =
    List.map
      (fun { Detector.race; _ } ->
         (race.Race.first.position, race.Race.second.position))
      (Detector.analyze t).Detector.all_races
  in
  Alcotest.(check (list (pair int int))) "the tasks' writes race"
    [ (9, 12) ] (dense t);
  Alcotest.(check (list (pair int int))) "streaming agrees" (dense t)
    (pairs (fst (Streaming.detect t)));
  (* The generated trace that exposed the gap: looper t0 posts two
     tasks to t1 between its own tasks. *)
  let t =
    Trace.remove_cancelled (Random_trace.generate ~seed:18966 ~size:52 ())
  in
  let streaming = pairs (fst (Streaming.detect t)) in
  check_bool "dense reports (31, 43)" true (List.mem (31, 43) (dense t));
  check_bool "streaming reports (31, 43)" true (List.mem (31, 43) streaming);
  check_bool "streaming stays a subset" true
    (List.for_all (fun p -> List.mem p (dense t)) streaming)

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

let test_gc_purges_undo_log () =
  (* A task runs on its looper's base and logs the time each slot had
     before the task raised it; [end] restores those times.  A slot
     retired mid-task must have its logged time zeroed too, or [end]
     writes a stale time into a column the slot's next owner uses, and
     later tasks on the looper seem to know that owner's accesses.  The
     generated trace that exposed it. *)
  let t =
    Trace.remove_cancelled
      (Random_trace.generate ~threads:3 ~seed:1470 ~size:380 ())
  in
  ignore
    (check_gc_invisible ~label:"undo log purged" ~window:2 ~intervals:[ 1 ]
       t)

let test_task_logs_each_slot_once () =
  (* The undo log holds each slot a task raises once, so its length (and
     the work of [end]) is set by the slots raised, not by the task's
     events: a task of 2,000 reads costs what a task of 10 does. *)
  let work reads =
    let p = task "p" in
    let body =
      List.init reads (fun i -> read 1 (loc (string_of_int (i mod 8))))
    in
    let t =
      trace
        ([ threadinit 0; threadinit 1; attachq 1; looponq 1; post 0 p 1
         ; begin_task 1 p
         ]
         @ body @ [ end_task 1 p ])
    in
    (snd (Streaming.detect t)).Streaming.clock_entries_merged
  in
  check_int "clock work does not grow with the task's length" (work 10)
    (work 2_000)

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
     grow it materially — the dense engine's would triple. *)
  check_bool
    (Printf.sprintf "peak resident clock entries plateau: %d -> %d"
       short.Streaming.peak_clock_entries long.Streaming.peak_clock_entries)
    true
    (long.Streaming.peak_clock_entries
     < (short.Streaming.peak_clock_entries * 3 / 2) + 1_000)

(* The clock work per event follows the entries that change, not the
   live width: a task runs on its looper's base and [end] takes back
   only the slots it raised; stored clocks are snapshots of their
   non-zero entries, so joining one costs its entries, and a context
   outside a task snapshots from its list of non-zero slots.  On the
   default generator config live slots plateau near 2.0k, and the
   measured entries per event were 116 at 25k events and 140 at 100k
   (145 at 200k).  Storing a task's full end clock instead of what it
   raised gives 608 and 939, and copying and joining whole dense clocks
   over 1,200. *)
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
         true (v < 300.))
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

(* {1 Pinned reports}

   The race list (as an MD5 of one line per race) and every stat that
   does not depend on how clocks are represented, on three families of
   input: the eight synth-stream generator configs at 50k events, the
   catalog traces under both configs, and random traces with locks
   swept at every event.  A change to the engine's clock machinery must
   leave every line as it is. *)

let report_line label ((races : Race.t list), (s : Streaming.stats)) =
  let digest =
    races
    |> List.map (fun (r : Race.t) ->
      Printf.sprintf "%d %d %s\n" r.first.position r.second.position
        (Ident.Location.to_string r.second.location))
    |> String.concat ""
    |> Digest.string
    |> Digest.to_hex
  in
  Printf.sprintf
    "%s %s events=%d allocated=%d live=%d peak_live=%d retired=%d fast=%d \
     promotions=%d demotions=%d comparisons=%d folded=%d sweeps=%d races=%d"
    label digest s.events s.slots_allocated s.live_slots s.peak_live_slots
    s.slots_retired s.fast_path s.promotions s.demotions s.comparisons
    s.folded_tasks s.gc_sweeps s.races

let stream_reports () =
  List.map
    (fun seed ->
       let engine = Streaming.create () in
       let position = ref 0 in
       let _n =
         Longtrace.generate
           ~config:{ Longtrace.default_config with planted = 4; seed }
           ~events:50_000
           (fun e ->
              Streaming.feed engine ~position:!position e;
              incr position)
       in
       report_line (Printf.sprintf "longtrace-%d" seed)
         (Streaming.finish engine))
    [ 1; 3; 5; 7; 9; 11; 13; 15 ]

let catalog_reports () =
  List.concat_map
    (fun (run : Droidracer_report.Experiments.app_run) ->
       let t =
         Trace.remove_cancelled
           run.ar_result.Droidracer_appmodel.Runtime.observed
       in
       let name =
         String.map
           (fun c -> if c = ' ' then '_' else c)
           run.ar_built.b_spec.Droidracer_corpus.Synthetic.s_name
       in
       [ report_line (name ^ "/default") (Streaming.detect t)
       ; report_line (name ^ "/ablation")
           (Streaming.detect ~config:Streaming.ablation_config t)
       ])
    (catalog_runs Droidracer_corpus.Catalog.all)

let random_lock_reports () =
  List.concat_map
    (fun seed ->
       let t =
         Trace.remove_cancelled (Random_trace.generate ~seed ~size:300 ())
       in
       let has_lock =
         List.exists
           (fun (e : Trace.event) ->
              match e.op with Operation.Acquire _ -> true | _ -> false)
           (Trace.events t)
       in
       check_bool (Printf.sprintf "seed %d has locks" seed) true has_lock;
       List.map
         (fun (name, completed_window) ->
            report_line
              (Printf.sprintf "random-%d/%s" seed name)
              (Streaming.detect
                 ~config:{ Streaming.completed_window; gc_interval = 1 } t))
         [ ("window-64", 64); ("window-2", 2) ])
    [ 0; 1; 2; 3; 4; 5; 6; 7 ]

let pinned_stream_reports =
  [ "longtrace-1 5c4af5d5eb7f2265b2743a6579ed451b \
     events=50000 allocated=13470 live=2006 peak_live=2006 retired=11464 \
     fast=34 promotions=443 demotions=254 \
     comparisons=26984 folded=6506 sweeps=13 races=589"
  ; "longtrace-3 51eefb8d163148fcf85ce67b7527a86b \
     events=50000 allocated=13463 live=1980 peak_live=1996 retired=11483 \
     fast=34 promotions=482 demotions=278 \
     comparisons=26887 folded=6503 sweeps=13 races=566"
  ; "longtrace-5 e7fdbe53a0300187bd5e149096478e00 \
     events=50000 allocated=13459 live=2015 peak_live=2015 retired=11444 \
     fast=31 promotions=459 demotions=287 \
     comparisons=26748 folded=6501 sweeps=13 races=599"
  ; "longtrace-7 218e5814b6ac77d7d9515a37157000bd \
     events=50000 allocated=13466 live=1975 peak_live=1977 retired=11491 \
     fast=25 promotions=473 demotions=302 \
     comparisons=26944 folded=6504 sweeps=13 races=618"
  ; "longtrace-9 82440524fa706844380de5ad3b0cc97b \
     events=50000 allocated=13464 live=2007 peak_live=2007 retired=11457 \
     fast=28 promotions=437 demotions=258 \
     comparisons=26814 folded=6503 sweeps=13 races=586"
  ; "longtrace-11 4647ba11dbf0fd97efe59c96942934f2 \
     events=50000 allocated=13476 live=1983 peak_live=1983 retired=11493 \
     fast=30 promotions=510 demotions=304 \
     comparisons=26715 folded=6509 sweeps=13 races=568"
  ; "longtrace-13 84e06daeca6629a677a9a875d9a4f608 \
     events=50000 allocated=13476 live=1971 peak_live=1971 retired=11505 \
     fast=23 promotions=465 demotions=281 \
     comparisons=26835 folded=6509 sweeps=13 races=554"
  ; "longtrace-15 32830ec156bfca601bc70ec94fcc48e3 \
     events=50000 allocated=13460 live=1992 peak_live=1992 retired=11468 \
     fast=25 promotions=487 demotions=289 \
     comparisons=26863 folded=6501 sweeps=13 races=583"
  ]

let pinned_catalog_reports =
  [ "Aard_Dictionary/default 3595792bfd3ca5359fcb555e3aa18135 \
     events=1353 allocated=124 live=64 peak_live=64 retired=60 \
     fast=19 promotions=0 demotions=0 \
     comparisons=527 folded=0 sweeps=1 races=1"
  ; "Aard_Dictionary/ablation 3595792bfd3ca5359fcb555e3aa18135 \
     events=1353 allocated=124 live=64 peak_live=64 retired=60 \
     fast=19 promotions=0 demotions=0 \
     comparisons=527 folded=0 sweeps=1 races=1"
  ; "Music_Player/default bd2c23e2047ce8f9e9f4e888306821a0 \
     events=5535 allocated=146 live=76 peak_live=76 retired=70 \
     fast=212 promotions=18 demotions=0 \
     comparisons=5719 folded=0 sweeps=2 races=31"
  ; "Music_Player/ablation bd2c23e2047ce8f9e9f4e888306821a0 \
     events=5535 allocated=146 live=76 peak_live=76 retired=70 \
     fast=212 promotions=18 demotions=0 \
     comparisons=5719 folded=0 sweeps=1 races=31"
  ; "My_Tracks/default ac5e409ab5bb9a29d26d91b2f9526dc9 \
     events=7393 allocated=359 live=131 peak_live=131 retired=228 \
     fast=720 promotions=2 demotions=0 \
     comparisons=6761 folded=88 sweeps=2 races=3"
  ; "My_Tracks/ablation ac5e409ab5bb9a29d26d91b2f9526dc9 \
     events=7393 allocated=359 live=189 peak_live=189 retired=170 \
     fast=720 promotions=2 demotions=0 \
     comparisons=6761 folded=0 sweeps=1 races=3"
  ; "Messenger/default 9e63bce9405b4d15091820aa5f5e45c6 \
     events=10140 allocated=232 live=95 peak_live=95 retired=137 \
     fast=1246 promotions=7 demotions=0 \
     comparisons=12968 folded=29 sweeps=3 races=17"
  ; "Messenger/ablation 9e63bce9405b4d15091820aa5f5e45c6 \
     events=10140 allocated=232 live=124 peak_live=124 retired=108 \
     fast=1246 promotions=7 demotions=0 \
     comparisons=12968 folded=0 sweeps=1 races=17"
  ; "Tomdroid_Notes/default a18470345acf164ddbc533d3f8e220ba \
     events=10002 allocated=711 live=74 peak_live=74 retired=637 \
     fast=25 promotions=1 demotions=0 \
     comparisons=4314 folded=284 sweeps=3 races=4"
  ; "Tomdroid_Notes/ablation a18470345acf164ddbc533d3f8e220ba \
     events=10002 allocated=711 live=358 peak_live=358 retired=353 \
     fast=25 promotions=1 demotions=0 \
     comparisons=4314 folded=0 sweeps=1 races=4"
  ; "FBReader/default dad76ef6255f477007fbede3c06706fd \
     events=10769 allocated=268 live=87 peak_live=87 retired=181 \
     fast=900 promotions=15 demotions=0 \
     comparisons=6843 folded=55 sweeps=3 races=15"
  ; "FBReader/ablation dad76ef6255f477007fbede3c06706fd \
     events=10769 allocated=268 live=142 peak_live=142 retired=126 \
     fast=900 promotions=15 demotions=0 \
     comparisons=6843 folded=0 sweeps=1 races=15"
  ; "Browser/default 46cba538596a9a716b5ef7809b02e653 \
     events=19119 allocated=234 live=93 peak_live=93 retired=141 \
     fast=2310 promotions=1 demotions=0 \
     comparisons=21344 folded=33 sweeps=5 races=64"
  ; "Browser/ablation 46cba538596a9a716b5ef7809b02e653 \
     events=19119 allocated=234 live=126 peak_live=126 retired=108 \
     fast=2310 promotions=1 demotions=0 \
     comparisons=21344 folded=0 sweeps=1 races=64"
  ; "OpenSudoku/default 0a2879ecb09723bc032f48201632896e \
     events=24889 allocated=103 live=55 peak_live=55 retired=48 \
     fast=1575 promotions=1 demotions=0 \
     comparisons=36428 folded=0 sweeps=7 races=2"
  ; "OpenSudoku/ablation 0a2879ecb09723bc032f48201632896e \
     events=24889 allocated=103 live=55 peak_live=55 retired=48 \
     fast=1575 promotions=1 demotions=0 \
     comparisons=36428 folded=0 sweeps=1 races=2"
  ; "K-9_Mail/default 0201ce7f4fe57db3d57a207985a95078 \
     events=29973 allocated=1398 live=82 peak_live=82 retired=1316 \
     fast=273 promotions=2 demotions=0 \
     comparisons=13842 folded=623 sweeps=8 races=10"
  ; "K-9_Mail/ablation 0201ce7f4fe57db3d57a207985a95078 \
     events=29973 allocated=1398 live=704 peak_live=704 retired=694 \
     fast=273 promotions=2 demotions=0 \
     comparisons=13842 folded=0 sweeps=1 races=10"
  ; "SGTPuzzles/default eb7eaf51448fd63b376df9b44bdecfcc \
     events=39023 allocated=176 live=75 peak_live=75 retired=101 \
     fast=0 promotions=0 demotions=0 \
     comparisons=57001 folded=16 sweeps=10 races=24"
  ; "SGTPuzzles/ablation eb7eaf51448fd63b376df9b44bdecfcc \
     events=39023 allocated=176 live=91 peak_live=91 retired=85 \
     fast=0 promotions=0 demotions=0 \
     comparisons=57001 folded=0 sweeps=1 races=24"
  ; "Remind_Me/default 8ff358d5b68d588a1638945cd3bf7630 \
     events=10301 allocated=371 live=76 peak_live=76 retired=295 \
     fast=56 promotions=33 demotions=0 \
     comparisons=9182 folded=112 sweeps=3 races=46"
  ; "Remind_Me/ablation 8ff358d5b68d588a1638945cd3bf7630 \
     events=10301 allocated=371 live=188 peak_live=188 retired=183 \
     fast=56 promotions=33 demotions=0 \
     comparisons=9182 folded=0 sweeps=1 races=46"
  ; "Twitter/default 860e442852d09a90fcbf4deb32b49df8 \
     events=17117 allocated=239 live=108 peak_live=108 retired=131 \
     fast=3483 promotions=12 demotions=0 \
     comparisons=14685 folded=25 sweeps=5 races=24"
  ; "Twitter/ablation 860e442852d09a90fcbf4deb32b49df8 \
     events=17117 allocated=239 live=133 peak_live=133 retired=106 \
     fast=3483 promotions=12 demotions=0 \
     comparisons=14685 folded=0 sweeps=1 races=24"
  ; "Adobe_Reader/default 954ef01810eccac27cdfcf2ffb48fe90 \
     events=33905 allocated=488 live=105 peak_live=105 retired=383 \
     fast=2448 promotions=10 demotions=0 \
     comparisons=35088 folded=156 sweeps=9 races=89"
  ; "Adobe_Reader/ablation 3c2c91c361d2f4e76cd4f03760544b66 \
     events=33905 allocated=488 live=255 peak_live=255 retired=233 \
     fast=2448 promotions=19 demotions=0 \
     comparisons=35088 folded=0 sweeps=1 races=98"
  ; "Facebook/default 7b9d4d0d475857933661f73449b9ae27 \
     events=52252 allocated=66 live=43 peak_live=43 retired=23 \
     fast=25392 promotions=11 demotions=0 \
     comparisons=71375 folded=0 sweeps=13 races=22"
  ; "Facebook/ablation 7b9d4d0d475857933661f73449b9ae27 \
     events=52252 allocated=66 live=43 peak_live=43 retired=23 \
     fast=25392 promotions=11 demotions=0 \
     comparisons=71375 folded=0 sweeps=1 races=22"
  ; "Flipkart/default bc9a70f58079e47b2036c5931e467a1f \
     events=157858 allocated=272 live=119 peak_live=119 retired=153 \
     fast=36295 promotions=115 demotions=0 \
     comparisons=150447 folded=37 sweeps=39 races=222"
  ; "Flipkart/ablation 985e5c065441d61f809804a0977f5101 \
     events=157858 allocated=272 live=156 peak_live=156 retired=116 \
     fast=36295 promotions=151 demotions=0 \
     comparisons=150447 folded=0 sweeps=1 races=258"
  ]

let pinned_random_lock_reports =
  [ "random-0/window-64 01e60240a372c531e33f82e8ec202026 \
     events=303 allocated=137 live=82 peak_live=82 retired=55 \
     fast=6 promotions=12 demotions=0 \
     comparisons=660 folded=0 sweeps=304 races=555"
  ; "random-0/window-2 22f5d21532b9cd4a7d1e5f18332ca3b4 \
     events=303 allocated=137 live=38 peak_live=38 retired=99 \
     fast=6 promotions=16 demotions=0 \
     comparisons=543 folded=33 sweeps=304 races=421"
  ; "random-1/window-64 261048dbb940b79acc5cf4331ff9c415 \
     events=303 allocated=137 live=85 peak_live=85 retired=52 \
     fast=1 promotions=9 demotions=0 \
     comparisons=817 folded=0 sweeps=304 races=746"
  ; "random-1/window-2 c18e60d8c37ba4e95de277c2f3b3bb79 \
     events=303 allocated=137 live=40 peak_live=44 retired=97 \
     fast=1 promotions=9 demotions=0 \
     comparisons=714 folded=32 sweeps=304 races=620"
  ; "random-2/window-64 53c0dec02b0fa478f455d611779a9ced \
     events=301 allocated=130 live=78 peak_live=78 retired=52 \
     fast=4 promotions=10 demotions=0 \
     comparisons=721 folded=0 sweeps=302 races=624"
  ; "random-2/window-2 b9aedcef7c01b19763db88147e0b116e \
     events=301 allocated=130 live=38 peak_live=38 retired=92 \
     fast=4 promotions=12 demotions=0 \
     comparisons=626 folded=29 sweeps=302 races=521"
  ; "random-3/window-64 ab267c8746dcb1f200f17da9a0947af1 \
     events=299 allocated=109 live=69 peak_live=69 retired=40 \
     fast=10 promotions=20 demotions=3 \
     comparisons=618 folded=0 sweeps=300 races=509"
  ; "random-3/window-2 cb668b741d523eeaf43704b5c6f21eef \
     events=299 allocated=109 live=36 peak_live=40 retired=73 \
     fast=10 promotions=20 demotions=3 \
     comparisons=571 folded=22 sweeps=300 races=453"
  ; "random-4/window-64 c52ac569a533e38e17034e8ea4bf852a \
     events=301 allocated=129 live=78 peak_live=78 retired=51 \
     fast=4 promotions=13 demotions=0 \
     comparisons=802 folded=0 sweeps=302 races=713"
  ; "random-4/window-2 01f6670b761bd35c15e8cfbfd85fd19c \
     events=301 allocated=129 live=37 peak_live=40 retired=92 \
     fast=5 promotions=15 demotions=0 \
     comparisons=617 folded=28 sweeps=302 races=478"
  ; "random-5/window-64 8f93ff9af03d93a509cc6d6dcae9df29 \
     events=303 allocated=135 live=83 peak_live=83 retired=52 \
     fast=1 promotions=15 demotions=2 \
     comparisons=842 folded=0 sweeps=304 races=767"
  ; "random-5/window-2 d257b3a106eb665befb67c37f0f8199c \
     events=303 allocated=135 live=35 peak_live=39 retired=100 \
     fast=1 promotions=16 demotions=2 \
     comparisons=630 folded=31 sweeps=304 races=520"
  ; "random-6/window-64 5259ad40a3486b803307361cb3bc5da6 \
     events=301 allocated=121 live=76 peak_live=76 retired=45 \
     fast=2 promotions=15 demotions=2 \
     comparisons=682 folded=0 sweeps=302 races=592"
  ; "random-6/window-2 97ebe9be5a7158ba48f97c48b39bf599 \
     events=301 allocated=121 live=38 peak_live=40 retired=83 \
     fast=2 promotions=15 demotions=2 \
     comparisons=613 folded=27 sweeps=302 races=499"
  ; "random-7/window-64 f577e77d53e2d8ecd6b2ed7724d1baab \
     events=303 allocated=105 live=67 peak_live=67 retired=38 \
     fast=13 promotions=14 demotions=0 \
     comparisons=661 folded=0 sweeps=304 races=542"
  ; "random-7/window-2 5eb06fe8577cbc35c2132377542f1863 \
     events=303 allocated=105 live=36 peak_live=37 retired=69 \
     fast=15 promotions=17 demotions=0 \
     comparisons=616 folded=24 sweeps=304 races=481"
  ]

let test_reports_stable () =
  let check = Alcotest.(check (list string)) in
  check "synth-stream configs" pinned_stream_reports (stream_reports ());
  check "catalog traces" pinned_catalog_reports (catalog_reports ());
  check "random traces with locks" pinned_random_lock_reports
    (random_lock_reports ())

(* {1 Differential properties against the dense engine} *)

let dense_pairs ~jobs t =
  List.map
    (fun { Detector.race; _ } ->
       (race.Race.first.position, race.Race.second.position))
    (Detector.analyze ~jobs t).Detector.all_races

let gen = QCheck2.Gen.(pair (int_bound 100_000) (int_range 5 150))
let print = QCheck2.Print.(pair int int)

let prop_subset_of_dense =
  QCheck2.Test.make
    ~name:"streaming races are a subset of the dense engine's (jobs 1 and 4)"
    ~count:60 ~print gen
    (fun (seed, size) ->
       let t =
         Trace.remove_cancelled (Random_trace.generate ~seed ~size ())
       in
       let w1 = dense_pairs ~jobs:1 t in
       let w4 = dense_pairs ~jobs:4 t in
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
       set as the dense engine"
    ~count:60 ~print gen
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
              (Detector.analyze t).Detector.all_races)
       in
       streaming = batch)

let prop_detector_dispatch_matches_engine =
  QCheck2.Test.make
    ~name:"Detector.analyze with the streaming engine returns the engine's races"
    ~count:30 ~print gen
    (fun (seed, size) ->
       let t = Random_trace.generate ~seed ~size () in
       let config =
         { Detector.default_config with engine = Detector.Streaming }
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
  QCheck2.Test.make ~name:"streaming detection is deterministic" ~count:30
    ~print gen
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
        ; Alcotest.test_case "GC purges the undo log" `Quick
            test_gc_purges_undo_log
        ; Alcotest.test_case "a task logs each slot once" `Quick
            test_task_logs_each_slot_once
        ; Alcotest.test_case "window folding sound" `Quick
            test_window_folding_is_sound
        ; Alcotest.test_case "lock divergence" `Quick test_lock_divergence
        ; Alcotest.test_case "idle looper ops unordered" `Quick
            test_idle_looper_ops_unordered
        ; Alcotest.test_case "stats JSON label round-trips" `Quick
            test_stats_json_label_round_trips
        ; Alcotest.test_case "streaming reports are stable" `Slow
            test_reports_stable
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
      , [ QCheck_alcotest.to_alcotest prop_subset_of_dense
        ; QCheck_alcotest.to_alcotest prop_coverage_on_lock_free
        ; QCheck_alcotest.to_alcotest prop_detector_dispatch_matches_engine
        ; QCheck_alcotest.to_alcotest prop_deterministic
        ] )
    ]
