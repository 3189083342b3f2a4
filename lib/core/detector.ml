open! Import

type engine = Dense | Streaming

let engine_name = function Dense -> "dense" | Streaming -> "streaming"

type config =
  { coalesce : bool
  ; engine : engine
  ; hb : Happens_before.config
  }

let default_config =
  { coalesce = true; engine = Dense; hb = Happens_before.default }

let no_environment_model =
  { default_config with
    hb = { Happens_before.default with enable_rule = false }
  }

type classified_race =
  { race : Race.t
  ; category : Classify.category
  }

type report =
  { trace : Trace.t
  ; all_races : classified_race list
  ; distinct_races : classified_race list
  ; trace_stats : Trace.stats
  ; nodes : int
  ; uncoalesced_nodes : int
  ; hb_edges : int
  ; fixpoint_passes : int
  ; hb_word_ors : int
  ; elapsed_seconds : float
  ; phase_seconds : (string * float) list
  }

let phase_names =
  [ "filter_cancelled"
  ; "graph_build"
  ; "happens_before"
  ; "race_detect"
  ; "classify"
  ]

let streaming_phase_names = [ "filter_cancelled"; "streaming_detect"; "classify" ]

let phase_seconds report name =
  Option.value (List.assoc_opt name report.phase_seconds) ~default:0.0

let relation ?(config = default_config) trace =
  let trace = Trace.remove_cancelled trace in
  let graph = Graph.build ~coalesce:config.coalesce trace in
  Happens_before.compute ~config:config.hb graph

let dedup_distinct classified =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun { race; category } ->
       let key =
         ( Ident.Location.to_string (Race.location race)
         , Classify.category_name category )
       in
       if Hashtbl.mem seen key then false
       else begin
         Hashtbl.add seen key ();
         true
       end)
    classified

let analyze ?(config = default_config) ?(jobs = 1) trace =
  Obs.with_span "detector.analyze" ~args:[ ("jobs", string_of_int jobs) ]
  @@ fun () ->
  (* Wall-clock, not [Sys.time]: CPU time sums over domains and would
     hide (or invert) any parallel speedup.  Phases are always timed —
     the two [gettimeofday] calls per phase are noise next to the work
     — so [phase_seconds] is populated whether or not telemetry is
     enabled; the spans are recorded only when it is. *)
  let started = Unix.gettimeofday () in
  let phases_rev = ref [] in
  let phase name f =
    let t0 = Unix.gettimeofday () in
    let v = Obs.with_span ("detector." ^ name) f in
    phases_rev := (name, Unix.gettimeofday () -. t0) :: !phases_rev;
    v
  in
  match config.engine with
  | Streaming ->
    (* Streaming pipeline: filter, one engine pass, classify.  Race
       classification needs happens-before answers only for the
       co-enabled refinement; the streaming engine keeps no queryable
       relation, so [hb_or_eq] is the constant over-approximation
       [true] — co-enabled races degrade to the later categories, every
       other class is computed exactly from the trace structure. *)
    let trace =
      phase "filter_cancelled" (fun () -> Trace.remove_cancelled trace)
    in
    let races, stats =
      phase "streaming_detect" (fun () -> Streaming_engine.detect trace)
    in
    let all_races =
      phase "classify" (fun () ->
        List.map
          (fun race ->
             { race
             ; category =
                 Classify.classify trace ~hb_or_eq:(fun _ _ -> true) race
             })
          races)
    in
    { trace
    ; all_races
    ; distinct_races = dedup_distinct all_races
    ; trace_stats = Trace.stats trace
    ; nodes = stats.Streaming_engine.slots_allocated
    ; uncoalesced_nodes = Trace.length trace
    ; hb_edges = 0
    ; fixpoint_passes = 1
    ; hb_word_ors = 0
    ; elapsed_seconds = Unix.gettimeofday () -. started
    ; phase_seconds = List.rev !phases_rev
    }
  | Dense ->
  let trace =
    phase "filter_cancelled" (fun () -> Trace.remove_cancelled trace)
  in
  let graph =
    phase "graph_build" (fun () ->
      Obs.set_span_arg "coalesce" (string_of_bool config.coalesce);
      Graph.build ~coalesce:config.coalesce trace)
  in
  let hb =
    phase "happens_before" (fun () ->
      Happens_before.compute ~config:config.hb graph)
  in
  let races =
    phase "race_detect" (fun () ->
      Race.detect ~jobs trace ~hb)
  in
  let all_races =
    phase "classify" (fun () ->
      List.map
        (fun race ->
           { race
           ; category =
               Classify.classify trace
                 ~hb_or_eq:(Happens_before.hb_or_eq hb)
                 race
           })
        races)
  in
  { trace
  ; all_races
  ; distinct_races = dedup_distinct all_races
  ; trace_stats = Trace.stats trace
  ; nodes = Happens_before.node_count hb
  ; uncoalesced_nodes = Trace.length trace
  ; hb_edges = Happens_before.edge_count hb
  ; fixpoint_passes = Happens_before.passes hb
  ; hb_word_ors = Happens_before.word_ors hb
  ; elapsed_seconds = Unix.gettimeofday () -. started
  ; phase_seconds = List.rev !phases_rev
  }

let category_order =
  [ Classify.Multithreaded
  ; Classify.Cross_posted
  ; Classify.Co_enabled
  ; Classify.Delayed_race
  ; Classify.Unknown
  ]

let count_by_category classified =
  List.map
    (fun cat ->
       ( cat
       , List.length
           (List.filter (fun c -> Classify.category_equal c.category cat)
              classified) ))
    category_order

let pp_report ppf r =
  Format.fprintf ppf "@[<v>trace: %a@," Trace.pp_stats r.trace_stats;
  Format.fprintf ppf "graph: %d nodes (%d uncoalesced), %d hb pairs, %d passes@,"
    r.nodes r.uncoalesced_nodes r.hb_edges r.fixpoint_passes;
  Format.fprintf ppf "races: %d reported, %d distinct@," (List.length r.all_races)
    (List.length r.distinct_races);
  List.iter
    (fun (cat, n) ->
       if n > 0 then
         Format.fprintf ppf "  %a: %d@," Classify.pp_category cat n)
    (count_by_category r.distinct_races);
  List.iter
    (fun { race; category } ->
       Format.fprintf ppf "  [%a] %a@," Classify.pp_category category Race.pp
         race)
    r.distinct_races;
  Format.fprintf ppf "analysis time: %.3fs@]" r.elapsed_seconds
