let bits_per_word = 63

type t =
  { n : int
  ; words : int  (** words per row *)
  ; rows : int array array
  }

let create n =
  if n < 0 then invalid_arg "Bit_matrix.create: negative size";
  let words = (n + bits_per_word - 1) / bits_per_word in
  { n; words = max words 1; rows = Array.init n (fun _ -> Array.make (max words 1) 0) }

let check m i j =
  if i < 0 || i >= m.n || j < 0 || j >= m.n then
    invalid_arg (Printf.sprintf "Bit_matrix: index (%d,%d) out of bounds" i j)

let get m i j =
  check m i j;
  let row = m.rows.(i) in
  row.(j / bits_per_word) land (1 lsl (j mod bits_per_word)) <> 0

let set m i j =
  check m i j;
  let row = m.rows.(i) in
  let w = j / bits_per_word in
  row.(w) <- row.(w) lor (1 lsl (j mod bits_per_word))

let popcount x =
  let rec go acc x = if x = 0 then acc else go (acc + 1) (x land (x - 1)) in
  go 0 x

let count m =
  Array.fold_left
    (fun acc row -> Array.fold_left (fun acc w -> acc + popcount w) acc row)
    0 m.rows

(* log2 of a one-bit word, by table: the powers 2^0..2^61 are distinct
   and non-zero modulo 67 (2 is a primitive root of the prime 67), so
   one mod and one load replace a shift loop in the bit-iteration hot
   path.  Bit 62 is [min_int] on a 64-bit host; masking the sign bit
   sends it to the otherwise-unused index 0. *)
let log2_table =
  let t = Array.make 67 62 in
  for k = 0 to 61 do
    t.((1 lsl k) mod 67) <- k
  done;
  t

let[@inline] log2_pow2 b =
  Array.unsafe_get log2_table (b land max_int mod 67)

(* [f (base + b)] for every set bit [b] of [x], ascending. *)
let[@inline] iter_bits x base f =
  let x = ref x in
  while !x <> 0 do
    let bit = !x land - !x in
    f (base + log2_pow2 bit);
    x := !x land lnot bit
  done

module Mask = struct
  type t = { words : int array }

  let create n =
    let words = max ((n + bits_per_word - 1) / bits_per_word) 1 in
    { words = Array.make words 0 }

  let set t j =
    let w = j / bits_per_word in
    t.words.(w) <- t.words.(w) lor (1 lsl (j mod bits_per_word))

  let iter_range t lo hi f =
    if lo <= hi then
      for w = lo / bits_per_word to hi / bits_per_word do
        iter_bits t.words.(w) (w * bits_per_word) f
      done

  let clear_range t lo hi =
    if lo <= hi then
      Array.fill t.words (lo / bits_per_word)
        ((hi / bits_per_word) - (lo / bits_per_word) + 1)
        0
end

let iter_row m i f =
  let row = m.rows.(i) in
  for w = 0 to m.words - 1 do
    let word = ref row.(w) in
    while !word <> 0 do
      let bit = !word land - !word in
      let j = (w * bits_per_word) + log2_pow2 bit in
      if j < m.n then f j;
      word := !word land lnot bit
    done
  done

(* {1 Strictly lower-triangular closure} *)

(* Index of the highest set bit of a non-zero word: smear it into every
   lower bit, keep the top one, and look it up.  [lsr] is logical, so a
   set sign bit (bit 62) smears like any other. *)
let[@inline] top_bit x =
  let x = x lor (x lsr 1) in
  let x = x lor (x lsr 2) in
  let x = x lor (x lsr 4) in
  let x = x lor (x lsr 8) in
  let x = x lor (x lsr 16) in
  let x = x lor (x lsr 32) in
  log2_pow2 (x lxor (x lsr 1))

(* Closing row [j] of a strictly lower-triangular matrix whose rows
   below [j] are closed.  Columns come in groups (the happens-before
   closure's threads) and a row [k] composes into row [j] whole when
   [k] is in [j]'s group, otherwise without [j]'s group:
   contrib(k) = row k, or row k ∖ N(g j), where N(g) is group [g]'s
   columns and [g] maps a column to its group.  Row [j] is closed when
   it holds contrib(k) for every column [k] it holds.

   The walk visits row [j]'s columns in descending order, so a column
   a visited row adds (always a lower one) is still ahead.  It skips a
   column [k] that the cover row holds: after visiting [k'], the cover
   gets all of row [k'] when [k'] is in [j]'s group, and row [k'] ∩
   N(g k') otherwise.  Skipping [k] is exact, since contrib(k) ⊆
   contrib(k') was already ORed in:
   - (A) [g k = g k']: row [k'] is closed and holds [k] of its own
     group, so row [k'] ⊇ row [k]; and [k], [k'] are both in [j]'s
     group or both outside it, so their contributions keep or drop the
     same columns.
   - (B1) [g k' = g j ≠ g k]: row [k'] is closed and holds [k] of
     another group, so row [k'] ⊇ row [k] ∖ N(g k') = contrib(k), and
     row [k'] went into row [j] whole.
   - (B2) [g k ≠ g k'] and [g k' ≠ g j]: row [k'] lacks row [k]'s
     columns in [g k'], which lie outside [j]'s group, so [j] must
     still receive them through [k] (TRANS-MT).  The cover takes none
     of these [k]: they are visited.
   The next column to visit is the top set bit of [row j ∧ ¬cover]
   below the last one visited, found a word at a time.  An OR reads
   only the words that can hold a column below [k']. *)
let close_lower_row m j ~cover ~group ~(group_masks : Mask.t array) =
  let row = m.rows.(j) and cw = cover.Mask.words in
  let gj = group.(j) in
  let outside = group_masks.(gj).Mask.words in
  let words = ref 0 and cover_top = ref (-1) in
  let w = ref (j / bits_per_word) in
  (* the bits of word [!w] still to visit: below the last visited *)
  let below = ref (-1) in
  while !w >= 0 do
    let cur = !w in
    let x =
      Array.unsafe_get row cur land lnot (Array.unsafe_get cw cur) land !below
    in
    if x = 0 then begin
      w := cur - 1;
      below := -1
    end
    else begin
      let b = top_bit x in
      below := (1 lsl b) - 1;
      let k = (cur * bits_per_word) + b in
      let src = m.rows.(k) in
      let hi = k / bits_per_word in
      if !cover_top < 0 then cover_top := hi;
      let gk = group.(k) in
      if gk = gj then
        for v = 0 to hi do
          let s = Array.unsafe_get src v in
          Array.unsafe_set row v (Array.unsafe_get row v lor s);
          Array.unsafe_set cw v (Array.unsafe_get cw v lor s)
        done
      else begin
        let own = group_masks.(gk).Mask.words in
        for v = 0 to hi do
          let s = Array.unsafe_get src v in
          Array.unsafe_set row v
            (Array.unsafe_get row v lor (s land lnot (Array.unsafe_get outside v)));
          Array.unsafe_set cw v
            (Array.unsafe_get cw v lor (s land Array.unsafe_get own v))
        done
      end;
      words := !words + hi + 1
    end
  done;
  (* every visited row lies below the first, so the cover is dirty only
     up to its last word *)
  Array.fill cw 0 (!cover_top + 1) 0;
  !words

(* {1 Reading a row against a mask} *)

(* The columns [from <= c < j] of [among] that row [j] lacks, one
   AND-NOT per word: the first word drops the bits below [from], the
   word of [j] the bits from [j] up (none when [j mod 63 = 0]). *)
let check_mask m (among : Mask.t) =
  if Array.length among.words < m.words then
    invalid_arg "Bit_matrix: mask narrower than the matrix"

let iter_absent m j ~among ~from f =
  check_mask m among;
  if from < 0 then invalid_arg "Bit_matrix.iter_absent: negative column";
  if from >= j then 0
  else begin
    let row = m.rows.(j) and aw = among.Mask.words in
    let lo = from / bits_per_word and hi = j / bits_per_word in
    for w = lo to hi do
      let x = Array.unsafe_get aw w land lnot (Array.unsafe_get row w) in
      let x = if w = lo then x land (-1 lsl (from mod bits_per_word)) else x in
      let x =
        if w = hi then x land ((1 lsl (j mod bits_per_word)) - 1) else x
      in
      iter_bits x (w * bits_per_word) f
    done;
    hi - lo + 1
  end

(* The walk of [close_lower_row] without a cover row: row [j] itself
   is the cover.  An admitted column's row goes in whole, so every
   column it holds is off the walk before the walk reaches it. *)
let absorb_below m j ~among admit =
  check_mask m among;
  let row = m.rows.(j) and aw = among.Mask.words in
  let words = ref 0 in
  let w = ref (j / bits_per_word) in
  (* the bits of word [!w] still to offer: below [j], then below the
     last offered *)
  let below = ref ((1 lsl (j mod bits_per_word)) - 1) in
  while !w >= 0 do
    let cur = !w in
    let x =
      Array.unsafe_get aw cur land lnot (Array.unsafe_get row cur) land !below
    in
    if x = 0 then begin
      w := cur - 1;
      below := -1
    end
    else begin
      let b = top_bit x in
      below := (1 lsl b) - 1;
      let c = (cur * bits_per_word) + b in
      if admit c then begin
        let src = m.rows.(c) in
        let hi = c / bits_per_word in
        for v = 0 to hi do
          Array.unsafe_set row v
            (Array.unsafe_get row v lor Array.unsafe_get src v)
        done;
        Array.unsafe_set row cur (Array.unsafe_get row cur lor (1 lsl b));
        words := !words + hi + 1
      end
    end
  done;
  !words
