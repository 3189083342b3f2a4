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

module Mask = struct
  type t = { words : int array }

  let create n =
    let words = max ((n + bits_per_word - 1) / bits_per_word) 1 in
    { words = Array.make words 0 }

  let set t j =
    let w = j / bits_per_word in
    t.words.(w) <- t.words.(w) lor (1 lsl (j mod bits_per_word))
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

let iter_row_down m i f =
  let row = m.rows.(i) in
  for w = m.words - 1 downto 0 do
    let base = w * bits_per_word in
    let b = ref (bits_per_word - 1) in
    (* The word is re-read at every step, since [f] may set lower bits
       of it; the loop stops as soon as no bit at or below [b] is set. *)
    while
      !b >= 0
      && Array.unsafe_get row w land ((1 lsl !b) lor ((1 lsl !b) - 1)) <> 0
    do
      if Array.unsafe_get row w land (1 lsl !b) <> 0 then f (base + !b);
      decr b
    done
  done

let or_lower_row m ~dst ~src =
  let d = m.rows.(dst) and s = m.rows.(src) in
  let hi = src / bits_per_word in
  for w = 0 to hi do
    Array.unsafe_set d w (Array.unsafe_get d w lor Array.unsafe_get s w)
  done;
  hi + 1

let or_lower_row_outside m ~dst ~src ~(mask : Mask.t) =
  let d = m.rows.(dst) and s = m.rows.(src) in
  let mw = mask.Mask.words in
  let hi = src / bits_per_word in
  for w = 0 to hi do
    Array.unsafe_set d w
      (Array.unsafe_get d w
       lor (Array.unsafe_get s w land lnot (Array.unsafe_get mw w)))
  done;
  hi + 1
