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
