(** Square boolean matrices with bitset rows.

    The happens-before computation stores the relation ⪯ as an n×n
    matrix and spends its time OR-ing rows into each other, so rows are
    packed 63 bits per word.  Column groups implement the
    thread-sensitive transitivity restriction (Section 4.1). *)

type t

val create : int -> t
(** [create n] is the n×n all-false matrix. *)

val get : t -> int -> int -> bool

val set : t -> int -> int -> unit

val count : t -> int
(** Number of true entries. *)

(** Bit masks over column indices. *)
module Mask : sig
  type t

  val create : int -> t

  val set : t -> int -> unit

  val iter_range : t -> int -> int -> (int -> unit) -> unit
  (** [iter_range t lo hi f] calls [f] on every set bit of the words
      that hold the bits [lo..hi], ascending: the caller keeps the
      bits outside [lo..hi] of those words clear. *)

  val clear_range : t -> int -> int -> unit
  (** [clear_range t lo hi] clears at least the bits [lo..hi]: every
      bit of the words that hold them. *)
end

val iter_row : t -> int -> (int -> unit) -> unit
(** Calls the function on every set column of the row, ascending. *)

(** {1 Strictly lower-triangular closure}

    The happens-before closure keeps, in row [j], the nodes ordered
    before node [j]; every such node has a smaller id, so row [k] has
    no column [≥ k]. *)

val close_lower_row :
  t -> int -> cover:Mask.t -> group:int array -> group_masks:Mask.t array -> int
(** [close_lower_row m j ~cover ~group ~group_masks] closes row [j]
    through the rows of its columns, which must already be closed.
    Column [k] belongs to group [group.(k)], whose columns
    [group_masks.(g)] holds.  Row [k] is ORed into row [j] whole when
    [k] is in [j]'s group, and otherwise without the columns of [j]'s
    group; columns that rows add are composed in turn.  Columns whose
    contribution an already-composed row contains are skipped.

    [cover] is scratch space of the matrix's width; it must be empty on
    entry and is empty again on return, so one serves every row.
    Returns the number of words ORed into row [j]. *)

(** {1 Reading a row against a mask}

    Both kernels read row [j] a word at a time against a mask of
    candidate columns, so their cost is the words between the lowest
    and the highest candidate, not the candidates. *)

val iter_absent : t -> int -> among:Mask.t -> from:int -> (int -> unit) -> int
(** [iter_absent m j ~among ~from f] calls [f c], ascending, on every
    column [c] with [from <= c < j] that [among] holds and row [j]
    lacks.  Returns the words read: one AND-NOT each, from the word of
    [from] to the word of [j]; 0 when [from >= j]. *)

val absorb_below : t -> int -> among:Mask.t -> (int -> bool) -> int
(** [absorb_below m j ~among admit] offers, in descending order, the
    columns [c < j] that [among] holds and row [j] lacks, and reads
    row [j] again after each: when [admit c] holds, [c] is set and
    row [c] is ORed into row [j] whole.  A column that an admitted
    row holds is therefore never offered.  Each admitted row must be
    final and compose whole into row [j]: then a closed row [j] stays
    closed.  Returns the number of words ORed into row [j]. *)
