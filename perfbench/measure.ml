(* The benchmark's arithmetic: percentiles, failure accounting and the
   result line.  Pure, so the rules the benchmark reports by are tested
   on their own (test_perfbench.ml). *)

(* {1 Percentiles} *)

(* Nearest-rank: the smallest sample with at least [p] percent of the
   samples at or below it.  [sorted] is ascending and non-empty. *)
let rank n p = max 1 (((p * n) + 99) / 100)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then invalid_arg "Measure.percentile: no samples";
  sorted.(min n (rank n p) - 1)

(* Samples ranked strictly above the [p]-th percentile. *)
let beyond n p = n - min n (rank n p)

(* The high percentile a run may report: the highest of p99, p90 and
   p50 with at least ten samples beyond it ([None] under 20 samples). *)
let high_percentile n = List.find_opt (fun p -> beyond n p >= 10) [ 99; 90; 50 ]

(* Percentile [p], lowered to the run's high percentile when the
   samples cannot support [p] (to the median under 20 samples): a run
   never reports a percentile with fewer than ten samples beyond it. *)
let clamped_percentile sorted p =
  let n = Array.length sorted in
  let supported = Option.value (high_percentile n) ~default:50 in
  percentile sorted (min p supported)

(* {1 Failure accounting} *)

(* One tally per run.  A failed operation — wrong output, refused,
   lost — is attempted, counted as failed, and enters the latency
   samples as [infinity]: it misses every latency limit. *)
type tally =
  { mutable attempted : int
  ; mutable failed : int
  ; mutable latencies : float list
  ; mutable reasons : string list  (* first few failure reasons *)
  }

let tally () = { attempted = 0; failed = 0; latencies = []; reasons = [] }

let record_ok t seconds =
  t.attempted <- t.attempted + 1;
  t.latencies <- seconds :: t.latencies

let record_failed t reason =
  t.attempted <- t.attempted + 1;
  t.failed <- t.failed + 1;
  t.latencies <- infinity :: t.latencies;
  if List.length t.reasons < 5 then t.reasons <- reason :: t.reasons

let sorted_latencies t =
  let a = Array.of_list t.latencies in
  Array.sort Float.compare a;
  a

(* {1 Small statistics} *)

let median = function
  | [] -> invalid_arg "Measure.median: no samples"
  | l ->
    let a = Array.of_list l in
    Array.sort Float.compare a;
    let n = Array.length a in
    if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

let ratio num den = if den = 0.0 then 0.0 else num /. den

(* {1 Tracing overhead}

   The traced run times the same call on the same input with tracing
   on and off; the overhead is the ratio of the summed per-input means,
   over the inputs measured both ways, minus one. *)

type overhead = (string, (float * int) * (float * int)) Hashtbl.t

let overhead () : overhead = Hashtbl.create 16

let overhead_add (t : overhead) key ~traced seconds =
  let (ts, tn), (us, un) =
    Option.value (Hashtbl.find_opt t key) ~default:((0.0, 0), (0.0, 0))
  in
  Hashtbl.replace t key
    (if traced then ((ts +. seconds, tn + 1), (us, un))
     else ((ts, tn), (us +. seconds, un + 1)))

let overhead_share (t : overhead) =
  let traced, untraced =
    Hashtbl.fold
      (fun _ ((ts, tn), (us, un)) (a, b) ->
         if tn > 0 && un > 0 then
           (a +. (ts /. float_of_int tn), b +. (us /. float_of_int un))
         else (a, b))
      t (0.0, 0.0)
  in
  if untraced = 0.0 then 0.0 else (traced /. untraced) -. 1.0

(* {1 The result line} *)

type metric =
  { m_name : string
  ; m_value : float
  ; m_unit : string
  }

let metric m_name m_unit m_value = { m_name; m_value; m_unit }

(* Every digit the float has; a failed run's infinite latency prints as
   the largest finite double so the line stays JSON. *)
let number v =
  if Float.is_integer v && Float.abs v < 1e15 then Printf.sprintf "%.0f" v
  else if Float.is_finite v then Printf.sprintf "%.17g" v
  else if Float.is_nan v then "0"
  else if v > 0.0 then Printf.sprintf "%.17g" Float.max_float
  else Printf.sprintf "%.17g" (-.Float.max_float)

let result_line ~correct ~attempted ~failed metrics =
  let fields =
    List.map
      (fun m ->
         Printf.sprintf {|"%s": {"value": %s, "unit": "%s"}|} m.m_name
           (number m.m_value) m.m_unit)
      metrics
  in
  Printf.sprintf {|{"correct": %b, "attempted": %d, "failed": %d, "metrics": {%s}}|}
    correct attempted failed
    (String.concat ", " fields)
