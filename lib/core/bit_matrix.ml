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

let copy m = { m with rows = Array.map Array.copy m.rows }

let blit_row ~src ~dst i =
  if src.n <> dst.n then invalid_arg "Bit_matrix.blit_row: size mismatch";
  Array.blit src.rows.(i) 0 dst.rows.(i) 0 src.words

let clear_row m i = Array.fill m.rows.(i) 0 m.words 0

let row_is_empty m i =
  let row = m.rows.(i) in
  let rec go w = w >= m.words || (row.(w) = 0 && go (w + 1)) in
  go 0

let or_row_between ~read ~write ~dst ~src =
  let d = write.rows.(dst) and s = read.rows.(src) in
  let changed = ref false in
  for w = 0 to write.words - 1 do
    let v = d.(w) lor s.(w) in
    if v <> d.(w) then begin
      d.(w) <- v;
      changed := true
    end
  done;
  !changed

let or_row m ~dst ~src = or_row_between ~read:m ~write:m ~dst ~src

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

(* Iterate the set bits of one word, ascending; [base] is the column of
   the word's bit 0. *)
let iter_word_bits base word f =
  let word = ref word in
  while !word <> 0 do
    let bit = !word land - !word in
    f (base + log2_pow2 bit);
    word := !word land lnot bit
  done

module Mask = struct
  type t = { words : int array }

  let create n =
    let words = max ((n + bits_per_word - 1) / bits_per_word) 1 in
    { words = Array.make words 0 }

  let set t j =
    let w = j / bits_per_word in
    t.words.(w) <- t.words.(w) lor (1 lsl (j mod bits_per_word))

  let mem t j =
    t.words.(j / bits_per_word) land (1 lsl (j mod bits_per_word)) <> 0

  let clear t = Array.fill t.words 0 (Array.length t.words) 0

  let iter t f =
    Array.iteri
      (fun w word -> if word <> 0 then iter_word_bits (w * bits_per_word) word f)
      t.words

  (* Descending iteration, for draining worklist rows in reverse trace
     order. *)
  let iter_down t f =
    for w = Array.length t.words - 1 downto 0 do
      let word = t.words.(w) in
      if word <> 0 then
        for b = bits_per_word - 1 downto 0 do
          if word land (1 lsl b) <> 0 then f ((w * bits_per_word) + b)
        done
    done
end

let or_row_into_mask m ~src (mask : Mask.t) =
  let s = m.rows.(src) in
  let mw = mask.Mask.words in
  for w = 0 to m.words - 1 do
    mw.(w) <- mw.(w) lor s.(w)
  done

let mark_rows_meeting m (mask : Mask.t) (into : Mask.t) =
  let mw = mask.Mask.words in
  let lo = ref 0 and hi = ref (m.words - 1) in
  while !lo < m.words && mw.(!lo) = 0 do
    incr lo
  done;
  while !hi >= !lo && mw.(!hi) = 0 do
    decr hi
  done;
  let lo = !lo and hi = !hi in
  for i = 0 to m.n - 1 do
    let row = m.rows.(i) in
    let rec meets w =
      w <= hi && (Array.unsafe_get row w land Array.unsafe_get mw w <> 0
                  || meets (w + 1))
    in
    if meets lo then Mask.set into i
  done

let or_row_masked m ~dst ~src ~mask =
  let d = m.rows.(dst) and s = m.rows.(src) in
  let mw = mask.Mask.words in
  let changed = ref false in
  for w = 0 to m.words - 1 do
    let v = d.(w) lor (s.(w) land mw.(w)) in
    if v <> d.(w) then begin
      d.(w) <- v;
      changed := true
    end
  done;
  !changed

let or_row_between_masked_compl ~read ~write ~dst ~src ~mask =
  let d = write.rows.(dst) and s = read.rows.(src) in
  let mw = mask.Mask.words in
  let changed = ref false in
  for w = 0 to write.words - 1 do
    let v = d.(w) lor (s.(w) land lnot mw.(w)) in
    if v <> d.(w) then begin
      d.(w) <- v;
      changed := true
    end
  done;
  !changed

let or_row_masked_compl m ~dst ~src ~mask =
  or_row_between_masked_compl ~read:m ~write:m ~dst ~src ~mask

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

(* {1 Change tracking}

   The worklist closure needs to know not just whether a row changed
   but which columns were newly set: new bits are new successors the
   row must later pull from.  The tracked ORs accumulate the newly set bits of [dst] into the same
   row of a [delta] matrix.  They OR only the words [w_lo..w_hi] of the
   source row: the closure broadcasts per-round "news" rows whose set
   bits are localised, so the caller precomputes each source's
   non-empty word extent and skips the all-zero prefix and suffix. *)

let or_row_between_tracked_range ~read ~write ~delta ~dst ~src ~w_lo ~w_hi =
  let d = write.rows.(dst) and s = read.rows.(src) in
  let dl = delta.rows.(dst) in
  for w = w_lo to w_hi do
    let sw = Array.unsafe_get s w in
    if sw <> 0 then begin
      let dw = Array.unsafe_get d w in
      let v = dw lor sw in
      if v <> dw then begin
        Array.unsafe_set dl w (Array.unsafe_get dl w lor (v lxor dw));
        Array.unsafe_set d w v
      end
    end
  done

let or_row_between_masked_compl_tracked_range ~read ~write ~delta ~dst ~src
    ~mask ~w_lo ~w_hi =
  let d = write.rows.(dst) and s = read.rows.(src) in
  let dl = delta.rows.(dst) in
  let mw = mask.Mask.words in
  for w = w_lo to w_hi do
    let sw = Array.unsafe_get s w land lnot (Array.unsafe_get mw w) in
    if sw <> 0 then begin
      let dw = Array.unsafe_get d w in
      let v = dw lor sw in
      if v <> dw then begin
        Array.unsafe_set dl w (Array.unsafe_get dl w lor (v lxor dw));
        Array.unsafe_set d w v
      end
    end
  done

let row_word_extent m i =
  let row = m.rows.(i) in
  let lo = ref 0 and hi = ref (m.words - 1) in
  while !lo < m.words && row.(!lo) = 0 do
    incr lo
  done;
  while !hi >= !lo && row.(!hi) = 0 do
    decr hi
  done;
  (!lo, !hi)

(* {1 Row scratch buffers}

   Per-worker copies of single rows, so a worklist task can capture a
   row's pull set (and its pre-round value) without allocating in the
   inner loop. *)

type row_scratch = int array

let row_scratch m = Array.make m.words 0

let copy_row m i (buf : row_scratch) = Array.blit m.rows.(i) 0 buf 0 m.words

let clear_scratch (buf : row_scratch) = Array.fill buf 0 (Array.length buf) 0

(* Enumerate a worklist target's sources, split by how they must be
   absorbed: [fresh] gets the target's newly added successors (whose
   full rows it has never ORed), [dirty] the rest of its successors
   that changed last round (only their news is needed). *)
let iter_sources ~(own : row_scratch) ~(mask : Mask.t) ~(plus : row_scratch)
    ~fresh ~dirty =
  let mw = mask.Mask.words in
  for w = 0 to Array.length own - 1 do
    let p = plus.(w) in
    if p <> 0 then iter_word_bits (w * bits_per_word) p fresh;
    let o = own.(w) land mw.(w) land lnot p in
    if o <> 0 then iter_word_bits (w * bits_per_word) o dirty
  done
