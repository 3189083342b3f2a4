(* Tests of the Par_pool domain pool and of the determinism invariant
   of the parallel analysis engine: the same report, bit for bit,
   whatever the jobs count. *)

module Par_pool = Droidracer_core.Par_pool
module Detector = Droidracer_core.Detector
module Runtime = Droidracer_appmodel.Runtime
module Synthetic = Droidracer_corpus.Synthetic
module Catalog = Droidracer_corpus.Catalog
module Experiments = Droidracer_report.Experiments

let check_int = Alcotest.check Alcotest.int
let int_list = Alcotest.(list int)

(* {1 parallel_map} *)

let test_order_preserved () =
  let xs = List.init 1000 (fun i -> i) in
  let f x = (x * 7) mod 1001 in
  List.iter
    (fun jobs ->
       Alcotest.check int_list
         (Printf.sprintf "jobs=%d equals List.map" jobs)
         (List.map f xs)
         (Par_pool.parallel_map ~jobs f xs))
    [ 1; 2; 4; 13 ]

let test_uneven_work () =
  (* Per-element costs spanning three orders of magnitude still land in
     input order. *)
  let xs = List.init 60 (fun i -> if i mod 7 = 0 then 40_000 else i) in
  let f n =
    let acc = ref 0 in
    for k = 1 to n do
      acc := (!acc + k) mod 9973
    done;
    !acc
  in
  Alcotest.check int_list "balanced and ordered" (List.map f xs)
    (Par_pool.parallel_map ~jobs:4 f xs)

let test_more_jobs_than_elements () =
  Alcotest.check int_list "jobs > length" [ 2; 4; 6 ]
    (Par_pool.parallel_map ~jobs:32 (fun x -> 2 * x) [ 1; 2; 3 ]);
  Alcotest.check int_list "empty" []
    (Par_pool.parallel_map ~jobs:4 (fun x -> x) [])

exception Boom of int

let test_exception_propagation () =
  (* Every failing element raises, and the lowest-indexed failure wins
     deterministically. *)
  Alcotest.check_raises "first failure by index" (Boom 3) (fun () ->
    ignore
      (Par_pool.parallel_map ~jobs:4
         (fun i -> if i mod 7 = 3 then raise (Boom i) else i)
         (List.init 100 (fun i -> i))));
  (* The pool survives a failed map and runs the next one. *)
  check_int "pool still works" 4950
    (List.fold_left ( + ) 0
       (Par_pool.parallel_map ~jobs:4 (fun i -> i) (List.init 100 (fun i -> i))))

let test_nested_maps () =
  (* A parallel map whose elements themselves map in parallel must not
     deadlock: callers always participate in their own work. *)
  let sums =
    Par_pool.parallel_map ~jobs:4
      (fun base ->
         List.fold_left ( + ) 0
           (Par_pool.parallel_map ~jobs:4
              (fun i -> base + i)
              (List.init 50 (fun i -> i))))
      (List.init 8 (fun b -> 100 * b))
  in
  Alcotest.check int_list "nested sums"
    (List.init 8 (fun b -> (100 * b * 50) + 1225))
    sums

let test_ranges () =
  Alcotest.check
    Alcotest.(list (pair int int))
    "partition" [ (0, 64); (64, 128); (128, 150) ]
    (Par_pool.ranges ~chunk:64 150);
  Alcotest.check Alcotest.(list (pair int int)) "empty" []
    (Par_pool.ranges ~chunk:64 0)

(* {1 Determinism of the analysis pipeline} *)

(* Two corpus applications, analysed sequentially and with four
   domains: the reports must be identical except for the wall-clock
   field.  The rendered report covers races, classification, node and
   edge counts and the pass count, so comparing the rendering compares
   everything observable. *)
let report_fingerprint report =
  Format.asprintf "%a" Detector.pp_report
    { report with Detector.elapsed_seconds = 0. }

let corpus_traces =
  lazy
    (List.map
       (fun spec ->
          let b = Synthetic.build spec in
          let result =
            Runtime.run ~options:b.Synthetic.b_options b.Synthetic.b_app
              b.Synthetic.b_events
          in
          (spec.Synthetic.s_name, result.Runtime.observed))
       [ List.nth Catalog.open_source 0; List.nth Catalog.open_source 3 ])

let test_detector_determinism () =
  List.iter
    (fun (name, trace) ->
       let sequential = Detector.analyze ~jobs:1 trace in
       let parallel = Detector.analyze ~jobs:4 trace in
       Alcotest.check Alcotest.string
         (name ^ ": report identical for jobs=1 and jobs=4")
         (report_fingerprint sequential)
         (report_fingerprint parallel);
       check_int (name ^ ": same pass count") sequential.Detector.fixpoint_passes
         parallel.Detector.fixpoint_passes;
       check_int (name ^ ": same edge count") sequential.Detector.hb_edges
         parallel.Detector.hb_edges)
    (Lazy.force corpus_traces)

let test_run_catalog_determinism () =
  let specs =
    [ List.nth Catalog.open_source 0; List.nth Catalog.open_source 3 ]
  in
  let fingerprints jobs =
    Helpers.catalog_runs ~jobs specs
    |> List.map (fun run -> report_fingerprint run.Experiments.ar_report)
  in
  Alcotest.check
    Alcotest.(list string)
    "catalog runs identical for jobs=1 and jobs=3" (fingerprints 1)
    (fingerprints 3)

let () =
  Alcotest.run "par_pool"
    [ ( "parallel_map"
      , [ Alcotest.test_case "order preserved" `Quick test_order_preserved
        ; Alcotest.test_case "uneven work" `Quick test_uneven_work
        ; Alcotest.test_case "more jobs than elements" `Quick
            test_more_jobs_than_elements
        ; Alcotest.test_case "exception propagation" `Quick
            test_exception_propagation
        ; Alcotest.test_case "nested maps" `Quick test_nested_maps
        ; Alcotest.test_case "ranges" `Quick test_ranges
        ] )
    ; ( "determinism"
      , [ Alcotest.test_case "detector jobs=1 vs jobs=4" `Quick
            test_detector_determinism
        ; Alcotest.test_case "run_catalog jobs=1 vs jobs=3" `Quick
            test_run_catalog_determinism
        ] )
    ]
