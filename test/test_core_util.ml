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

(* Closes every row of [m] in ascending order with one cover row, as
   the happens-before sweep does; the words ORed per row. *)
let close_all m ~n ~group =
  let groups = Array.fold_left max 0 group + 1 in
  let group_masks = Array.init groups (fun _ -> Bit_matrix.Mask.create n) in
  Array.iteri (fun c g -> Bit_matrix.Mask.set group_masks.(g) c) group;
  let cover = Bit_matrix.Mask.create n in
  Array.init n (fun j ->
    Bit_matrix.close_lower_row m j ~cover ~group ~group_masks)

(* The closure kernel on a strictly lower-triangular matrix, three
   groups.  The word counts pin which rows were visited, each costing
   the words up to its own row: row 128 skips 70 and 2, which row 100
   covered (so the walk went down from 100), but visits 1, whose group
   differs from 64's; row 129 visits 64, which row 128 added mid-walk
   without covering it, and then 3, which only row 64 adds, while row
   64's column 1 is in 129's group and dropped. *)
let test_matrix_lower_closure () =
  let n = 130 in
  let m = Bit_matrix.create n in
  let group = Array.make n 0 in
  group.(128) <- 1;
  group.(3) <- 1;
  group.(64) <- 2;
  List.iter
    (fun (row, cols) -> List.iter (Bit_matrix.set m row) cols)
    [ (64, [ 3; 1 ]); (100, [ 70; 2 ]); (128, [ 100; 64 ]); (129, [ 128; 5 ]) ];
  let words = close_all m ~n ~group in
  Alcotest.(check (list int)) "words ORed per closed row"
    [ 2; 3; 2 + 2 + 1; 3 + 2 + 1 + 1 ]
    [ words.(64); words.(100); words.(128); words.(129) ];
  check_int "rows without columns OR nothing" 0
    (Array.fold_left ( + ) 0 words - (2 + 3 + 5 + 7));
  let row j = List.filter (Bit_matrix.get m j) (List.init n Fun.id) in
  Alcotest.(check (list int)) "row 128: other groups whole, own dropped"
    [ 1; 2; 64; 70; 100 ] (row 128);
  Alcotest.(check (list int)) "row 129: columns added mid-walk visited"
    [ 3; 5; 64; 128 ] (row 129)

(* The restricted closure by definition: each row absorbs, until
   nothing changes, row [k] of every column [k] it holds, whole when
   [k] is in its group and otherwise outside it. *)
let naive_close m ~n ~group =
  for j = 0 to n - 1 do
    let changed = ref true in
    while !changed do
      changed := false;
      for k = 0 to j - 1 do
        if Bit_matrix.get m j k then
          for i = 0 to k - 1 do
            if Bit_matrix.get m k i
               && (group.(k) = group.(j) || group.(i) <> group.(j))
               && not (Bit_matrix.get m j i)
            then begin
              Bit_matrix.set m j i;
              changed := true
            end
          done
      done
    done
  done

let prop_matrix_close_lower_row =
  QCheck2.Test.make ~name:"close_lower_row equals the naive closure"
    ~count:200
    ~print:QCheck2.Print.(quad int int int (list (pair int int)))
    QCheck2.Gen.(
      quad (int_range 1 150) (int_range 1 4) nat
        (list_size (int_bound 300) (pair nat nat)))
    (fun (n, groups, salt, edges) ->
       let group = Array.init n (fun c -> Hashtbl.hash (salt, c) mod groups) in
       let fast = Bit_matrix.create n and slow = Bit_matrix.create n in
       List.iter
         (fun (a, b) ->
            let a = a mod n and b = b mod n in
            if a <> b then
              List.iter
                (fun m -> Bit_matrix.set m (max a b) (min a b))
                [ fast; slow ])
         edges;
       ignore (close_all fast ~n ~group);
       naive_close slow ~n ~group;
       List.for_all
         (fun j ->
            List.for_all
              (fun i -> Bit_matrix.get fast j i = Bit_matrix.get slow j i)
              (List.init n Fun.id))
         (List.init n Fun.id))

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

(* A random row [j] of an [n]-column matrix and a random mask, for the
   row-against-mask kernels.  The row may hold columns at and above
   [j], which both kernels must ignore; [n] up to 200 spans four words,
   so the first and last words read are often different ones. *)
let gen_row_and_mask =
  QCheck2.Gen.(
    int_range 1 200 >>= fun n ->
    quad (return n) (int_bound (n - 1)) (int_bound n)
      (pair
         (list_size (int_bound 120) (int_bound (n - 1)))
         (list_size (int_bound 120) (int_bound (n - 1)))))

let print_row_and_mask =
  QCheck2.Print.(quad int int int (pair (list int) (list int)))

let prop_matrix_iter_absent =
  QCheck2.Test.make ~name:"iter_absent equals the per-bit loop" ~count:300
    ~print:print_row_and_mask gen_row_and_mask
    (fun (n, j, from, (row, among)) ->
       let m = Bit_matrix.create n and mask = Bit_matrix.Mask.create n in
       List.iter (Bit_matrix.set m j) row;
       List.iter (Bit_matrix.Mask.set mask) among;
       let visited = ref [] in
       let words =
         Bit_matrix.iter_absent m j ~among:mask ~from (fun c ->
           visited := c :: !visited)
       in
       let expected =
         List.filter
           (fun c -> List.mem c among && not (Bit_matrix.get m j c))
           (List.init (max 0 (j - from)) (fun k -> from + k))
       in
       List.rev !visited = expected
       && words = if from >= j then 0 else (j / 63) - (from / 63) + 1)

let prop_matrix_absorb_below =
  QCheck2.Test.make ~name:"absorb_below equals the descending per-bit loop"
    ~count:300 ~print:print_row_and_mask gen_row_and_mask
    (fun (n, j, salt, (edges, among)) ->
       (* a lower-triangular matrix: [edges] scattered over the rows *)
       let build () =
         let m = Bit_matrix.create n in
         List.iteri
           (fun k c -> if c > 0 then Bit_matrix.set m c (k * 7 mod c))
           edges;
         m
       in
       let admit c = Hashtbl.hash (salt, c) mod 3 = 0 in
       let fast = build () and slow = build () in
       let mask = Bit_matrix.Mask.create n in
       List.iter (fun c -> if c < j then Bit_matrix.Mask.set mask c) among;
       let offered = ref [] in
       ignore
         (Bit_matrix.absorb_below fast j ~among:mask (fun c ->
            offered := c :: !offered;
            admit c));
       let expected = ref [] in
       for c = j - 1 downto 0 do
         if List.mem c among && not (Bit_matrix.get slow j c) then begin
           expected := c :: !expected;
           if admit c then begin
             Bit_matrix.set slow j c;
             for i = 0 to c - 1 do
               if Bit_matrix.get slow c i then Bit_matrix.set slow j i
             done
           end
         end
       done;
       !offered = !expected
       && List.for_all
            (fun i -> Bit_matrix.get fast j i = Bit_matrix.get slow j i)
            (List.init n Fun.id))

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
        ; QCheck_alcotest.to_alcotest prop_matrix_close_lower_row
        ; QCheck_alcotest.to_alcotest prop_matrix_iter_absent
        ; QCheck_alcotest.to_alcotest prop_matrix_absorb_below
        ] )
    ; ( "race coverage"
      , [ QCheck_alcotest.to_alcotest prop_coverage_partitions
        ; QCheck_alcotest.to_alcotest prop_coverage_roots_cover
        ] )
    ]
