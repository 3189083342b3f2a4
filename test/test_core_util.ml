(* Tests of the core utility layers: the bitset matrix behind the
   happens-before relation, and race coverage. *)

open Helpers
module Bit_matrix = Droidracer_core.Bit_matrix
module Race = Droidracer_core.Race
module Race_coverage = Droidracer_core.Race_coverage
module Detector = Droidracer_core.Detector
module Hb = Droidracer_core.Happens_before

let check_bool = Alcotest.check Alcotest.bool
let check_int = Alcotest.check Alcotest.int

(* {1 Bit_matrix} *)

let test_matrix_basics () =
  let m = Bit_matrix.create 70 in
  check_int "empty" 0 (Bit_matrix.count m);
  Bit_matrix.set m 0 69;
  Bit_matrix.set m 69 0;
  Bit_matrix.set m 63 64;
  check_bool "get set" true (Bit_matrix.get m 0 69);
  check_bool "asymmetric" true (Bit_matrix.get m 69 0);
  check_bool "word boundary" true (Bit_matrix.get m 63 64);
  check_bool "unset" false (Bit_matrix.get m 1 1);
  check_int "count" 3 (Bit_matrix.count m);
  check_bool "bounds" true
    (match Bit_matrix.get m 0 70 with
     | exception Invalid_argument _ -> true
     | _ -> false)

(* The closure's row operations on a strictly lower-triangular matrix:
   descending iteration that also visits the columns its callback adds,
   and ORs bounded to the words below the source row. *)
let test_matrix_lower_closure () =
  let m = Bit_matrix.create 130 in
  List.iter (fun j -> Bit_matrix.set m 129 j) [ 128; 70; 5 ];
  let visited = ref [] in
  Bit_matrix.iter_row_down m 129 (fun k ->
    visited := k :: !visited;
    if k = 70 then begin
      Bit_matrix.set m 129 64;
      Bit_matrix.set m 129 3
    end);
  Alcotest.(check (list int)) "descending, added columns included"
    [ 128; 70; 64; 5; 3 ] (List.rev !visited);
  Bit_matrix.set m 100 2;
  Bit_matrix.set m 100 70;
  check_int "words up to the source row" 2
    (Bit_matrix.or_lower_row m ~dst:120 ~src:100);
  check_bool "dst has src bits" true
    (Bit_matrix.get m 120 2 && Bit_matrix.get m 120 70);
  let mask = Bit_matrix.Mask.create 130 in
  Bit_matrix.Mask.set mask 2;
  check_int "masked: same words" 2
    (Bit_matrix.or_lower_row_outside m ~dst:110 ~src:100 ~mask);
  check_bool "masked column dropped" false (Bit_matrix.get m 110 2);
  check_bool "other column kept" true (Bit_matrix.get m 110 70)

let prop_matrix_iter_row =
  QCheck2.Test.make ~name:"iter_row visits exactly the set bits" ~count:100
    ~print:QCheck2.Print.(pair int (list int))
    QCheck2.Gen.(pair (int_range 1 200) (list_size (int_bound 30) (int_bound 10_000)))
    (fun (n, bits) ->
       let m = Bit_matrix.create n in
       let expected =
         List.sort_uniq compare (List.map (fun b -> b mod n) bits)
       in
       List.iter (fun j -> Bit_matrix.set m 0 j) expected;
       let visited = ref [] in
       Bit_matrix.iter_row m 0 (fun j -> visited := j :: !visited);
       List.rev !visited = expected)

(* {1 Race coverage properties} *)

let prop_coverage_partitions =
  QCheck2.Test.make ~name:"coverage groups partition the race set" ~count:40
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 5 100))
    (fun (seed, size) ->
       (* positions must refer to the cancellation-filtered trace the
          relation is computed on *)
       let t = Trace.remove_cancelled (Random_trace.generate ~seed ~size ()) in
       let hb = Detector.relation t in
       let races = Race.detect t ~hb in
       let groups = Race_coverage.group ~hb races in
       let members =
         List.concat_map
           (fun g -> g.Race_coverage.root :: g.Race_coverage.covered)
           groups
       in
       List.length members = List.length races
       && List.for_all (fun r -> List.memq r members) races)

let prop_coverage_roots_cover =
  QCheck2.Test.make ~name:"every covered race is covered by its root" ~count:40
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 5 100))
    (fun (seed, size) ->
       let t = Trace.remove_cancelled (Random_trace.generate ~seed ~size ()) in
       let hb = Detector.relation t in
       let races = Race.detect t ~hb in
       let le i j = Hb.hb_or_eq hb i j in
       List.for_all
         (fun g ->
            let c = g.Race_coverage.root.Race.first.position
            and d = g.Race_coverage.root.Race.second.position in
            List.for_all
              (fun (r : Race.t) ->
                 let a = r.first.position and b = r.second.position in
                 (le a c && le d b) || (le a d && le c b))
              g.Race_coverage.covered)
         (Race_coverage.group ~hb races))

let () =
  Alcotest.run "core_util"
    [ ( "bit matrix"
      , [ Alcotest.test_case "basics" `Quick test_matrix_basics
        ; Alcotest.test_case "lower-triangular closure" `Quick
            test_matrix_lower_closure
        ; QCheck_alcotest.to_alcotest prop_matrix_iter_row
        ] )
    ; ( "race coverage"
      , [ QCheck_alcotest.to_alcotest prop_coverage_partitions
        ; QCheck_alcotest.to_alcotest prop_coverage_roots_cover
        ] )
    ]
