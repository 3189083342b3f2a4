open! Import

type variant =
  { v_index : int
  ; v_name : string
  ; v_config : Longtrace.config
  ; v_events : int
  ; v_planted : string list
  ; v_masked : string list
  }

(* Same xorshift family as Longtrace: variants are a pure function of
   (seed, index), never of the stdlib's generator. *)
let next_rand state =
  let x = !state in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  state := x land max_int;
  !state

let derive ~seed ~events index =
  let state =
    ref ((((seed * 0x9e3779b1) lxor (index * 0x85ebca6b)) lor 1) land max_int)
  in
  (* A few warm-up rounds decorrelate nearby (seed, index) pairs. *)
  for _ = 1 to 4 do
    ignore (next_rand state)
  done;
  let rand bound = next_rand state mod bound in
  let loopers = 2 + rand 4 in
  let planted = 1 + rand 4 in
  (* The planted-race guarantee needs the two writers on different
     loopers: planted mod loopers <> 0 (and loopers >= 2). *)
  let planted = if planted mod loopers = 0 then planted + 1 else planted in
  let accesses_per_task = 2 + rand 5 in
  let config =
    { Longtrace.loopers
    ; locations = 16 + rand 240
    ; locks = 1 + rand 6
    ; accesses_per_task
    ; fork_every = (if rand 4 = 0 then 0 else 29 + rand 120)
    ; lock_every = (if rand 5 = 0 then 0 else 5 + rand 18)
    ; planted
    ; masked = 0
    ; seed = 1 + rand 0x3fffffff
    }
  in
  (* Size every variant past its planting window (each iteration emits
     at most accesses + 12 events, the setup prologue 3*loopers + 1),
     then spread lengths around the requested midpoint. *)
  let min_events =
    ((2 * planted) + 1) * (accesses_per_task + 12) + (3 * loopers) + 1
  in
  let v_events = max min_events ((events / 2) + rand (max 1 events)) in
  (* Lock-masked ground truth for the predictive gate.  Drawn after
     every pre-existing draw so that, for a given (seed, index), all of
     the fields above are bit-identical to what earlier corpora
     recorded; like [planted], the two writers must land on distinct
     loopers ([masked mod loopers <> 0]). *)
  let masked = rand 3 in
  let masked =
    if masked > 0 && masked mod loopers = 0 then masked + 1 else masked
  in
  let config = { config with Longtrace.masked } in
  (* Cover the masked window too (it sits after the planted window). *)
  let min_events =
    ((2 * planted) + (2 * masked) + 1) * (accesses_per_task + 12)
    + (3 * loopers) + 1
  in
  let v_events = max min_events v_events in
  { v_index = index
  ; v_name = Printf.sprintf "variant-%04d" index
  ; v_config = config
  ; v_events
  ; v_planted = Longtrace.planted_locations config
  ; v_masked = Longtrace.masked_locations config
  }

let variants ?(seed = 1) ?(events = 4000) ~count () =
  List.init count (derive ~seed ~events)

let filename ~binary v = v.v_name ^ if binary then ".drt" else ".trace"

let write ~dir ~binary v =
  let path = Filename.concat dir (filename ~binary v) in
  let written =
    if binary then
      Longtrace.write_binary ~config:v.v_config ~events:v.v_events path
    else Longtrace.write ~config:v.v_config ~events:v.v_events path
  in
  assert (written = v.v_events);
  path

let manifest_json_string ~binary variants =
  let variant_json v =
    let c = v.v_config in
    Json.Object
      [ ("name", Json.String v.v_name)
      ; ("file", Json.String (filename ~binary v))
      ; ("events", Json.int v.v_events)
      ; ("loopers", Json.int c.Longtrace.loopers)
      ; ("locations", Json.int c.Longtrace.locations)
      ; ("locks", Json.int c.Longtrace.locks)
      ; ("accesses_per_task", Json.int c.Longtrace.accesses_per_task)
      ; ("fork_every", Json.int c.Longtrace.fork_every)
      ; ("lock_every", Json.int c.Longtrace.lock_every)
      ; ("seed", Json.int c.Longtrace.seed)
      ; ("planted", Json.strings v.v_planted)
      ; ("masked", Json.strings v.v_masked)
      ]
  in
  Json.to_line
    (Json.Object
       [ ("schema", Json.String "droidracer-corpus/1")
       ; ("binary", Json.Bool binary)
       ; ("count", Json.int (List.length variants))
       ; ("variants", Json.Array (List.map variant_json variants))
       ])
