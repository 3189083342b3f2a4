open! Import

type t =
  | Droidracer
  | Multithreaded_only
  | Event_driven_only
  | Naive_combined

let all = [ Droidracer; Multithreaded_only; Event_driven_only; Naive_combined ]

let name = function
  | Droidracer -> "DroidRacer"
  | Multithreaded_only -> "multithreaded-only HB"
  | Event_driven_only -> "event-driven-only HB"
  | Naive_combined -> "naive combined HB"

let config = function
  | Droidracer -> Happens_before.default
  | Multithreaded_only ->
    { Happens_before.default with
      program_order = Happens_before.Full_po
    ; enable_rule = false
    ; fifo_rule = false
    ; nopre_rule = false
    ; attach_rule = false
    }
  | Event_driven_only ->
    { Happens_before.default with
      fork_join_rules = false
    ; lock_rule = false
    }
  | Naive_combined ->
    { Happens_before.default with
      lock_same_thread = true
    ; restricted_transitivity = false
    }

let detect baseline trace =
  let trace = Trace.remove_cancelled trace in
  let graph = Graph.build ~coalesce:true trace in
  let hb = Happens_before.compute ~config:(config baseline) graph in
  Race.detect trace ~hb

let race_pair (r : Race.t) = (r.first.position, r.second.position)

type comparison =
  { baseline : t
  ; reported : int
  ; missed : int
  ; extra : int
  }

let compare_against_droidracer trace =
  let reference = List.map race_pair (detect Droidracer trace) in
  List.filter_map
    (fun baseline ->
       match baseline with
       | Droidracer -> None
       | Multithreaded_only | Event_driven_only | Naive_combined ->
         let races = List.map race_pair (detect baseline trace) in
         let missed =
           List.length (List.filter (fun r -> not (List.mem r races)) reference)
         and extra =
           List.length
             (List.filter (fun r -> not (List.mem r reference)) races)
         in
         Some { baseline; reported = List.length races; missed; extra })
    all
