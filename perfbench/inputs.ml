(* Seeded input generation for the four workloads.

   The program under test only ever sees what these functions produce;
   their cost is the benchmark's set-up time.  Every function is a pure
   function of its arguments (the generators underneath use their own
   xorshift PRNGs, never [Stdlib.Random]), so one seed gives
   byte-identical inputs on any machine. *)

module Trace = Droidracer_trace.Trace
module Binfmt = Droidracer_trace.Binfmt
module Classify = Droidracer_core.Classify
module Runtime = Droidracer_appmodel.Runtime
module Catalog = Droidracer_corpus.Catalog
module Synthetic = Droidracer_corpus.Synthetic
module Longtrace = Droidracer_corpus.Longtrace
module Vargen = Droidracer_corpus.Vargen

(* {1 A seeded permutation} *)

(* splitmix64, truncated to OCaml's 63-bit ints. *)
let mix x =
  let x = x + 0x1e3779b97f4a7c15 in
  let x = (x lxor (x lsr 30)) * 0x3f58476d1ce4e5b9 in
  let x = (x lxor (x lsr 27)) * 0x14d049bb133111eb in
  (x lxor (x lsr 31)) land max_int

(* The order of round [round] under [seed]: a Fisher-Yates shuffle of
   [0 .. n-1]. *)
let permutation ~seed ~round n =
  let order = Array.init n Fun.id in
  let state = ref (mix (mix seed + round)) in
  for i = n - 1 downto 1 do
    state := mix !state;
    let j = !state mod (i + 1) in
    let t = order.(i) in
    order.(i) <- order.(j);
    order.(j) <- t
  done;
  order

(* Non-negative residue, so negative seeds select variants too. *)
let residue seed m = ((seed mod m) + m) mod m

(* {1 catalog: the paper's 15 application models} *)

type app =
  { a_name : string
  ; a_path : string  (** binary trace of the observed run *)
  ; a_events : int
  ; a_targets : (Classify.category * int) list
        (** Table 3 report counts per category, in
            [Detector.count_by_category] order *)
  }

let file_stem name =
  String.map
    (fun c ->
       match c with
       | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '-' -> c
       | _ -> '_')
    name

let targets (s : Synthetic.spec) =
  [ (Classify.Multithreaded, fst s.Synthetic.s_multithreaded)
  ; (Classify.Cross_posted, fst s.Synthetic.s_cross_posted)
  ; (Classify.Co_enabled, fst s.Synthetic.s_co_enabled)
  ; (Classify.Delayed_race, fst s.Synthetic.s_delayed)
  ; (Classify.Unknown, fst s.Synthetic.s_unknown)
  ]

(* Builds every application model, runs its representative test and
   saves the observed trace.  The catalog itself is fixed; the seed only
   permutes the order each round is analysed in (see {!permutation}). *)
let catalog ?(specs = Catalog.all) ~dir () =
  List.map
    (fun spec ->
       let built = Synthetic.build spec in
       let result =
         Runtime.run ~options:built.Synthetic.b_options built.Synthetic.b_app
           built.Synthetic.b_events
       in
       let path =
         Filename.concat dir (file_stem spec.Synthetic.s_name ^ ".drt")
       in
       Binfmt.save path result.Runtime.observed;
       { a_name = spec.Synthetic.s_name
       ; a_path = path
       ; a_events = Trace.length result.Runtime.observed
       ; a_targets = targets spec
       })
    specs

(* {1 synth-stream: one long generated trace} *)

(* The seed selects one of [stream_variants] generator seeds, so the
   race count of every input the benchmark can produce is pinned (in
   workloads.json).  Longtrace seeds its PRNG with [seed lor 1], so only
   odd seeds are distinct. *)
let stream_variants = 8

let stream_events = 200_000

let stream_config ~seed =
  { Longtrace.default_config with
    Longtrace.planted = 4
  ; seed = (2 * residue seed stream_variants) + 1
  }

let stream ?(events = stream_events) ~seed path =
  Longtrace.write_binary ~config:(stream_config ~seed) ~events path

(* {1 daemon-small: small Vargen variants} *)

let daemon_events = 300

type request_input =
  { r_variant : Vargen.variant
  ; r_path : string
  ; r_bytes : string  (** the binary trace, as sent over the wire *)
  }

let daemon ~seed ~count ~dir =
  Vargen.variants ~seed ~events:daemon_events ~count ()
  |> List.map (fun v ->
    let path = Vargen.write ~dir ~binary:true v in
    { r_variant = v
    ; r_path = path
    ; r_bytes = In_channel.with_open_bin path In_channel.input_all
    })

(* {1 predict-masked: lock-masked traces}

   A fixed corpus, like the catalog: the search cost of a masked trace
   varies several-fold with its generator seed, so corpora drawn from
   the benchmark seed spread the rates 20% and the median latency 31%
   across ten seeds.  The benchmark seed permutes each cycle instead. *)

let predict_events = 1_600

let predict_config index =
  { Longtrace.default_config with
    Longtrace.loopers = 3
  ; planted = 2
  ; masked = 2
  ; seed = 1 + (mix index land 0x3fffffff)
  }

type masked_input =
  { m_config : Longtrace.config
  ; m_trace : Trace.t
  }

let predict ?(events = predict_events) ~count () =
  List.init count (fun index ->
    let config = predict_config index in
    let acc = ref [] in
    ignore (Longtrace.generate ~config ~events (fun e -> acc := e :: !acc));
    { m_config = config; m_trace = Trace.of_events_exn (List.rev !acc) })
