(** Square boolean matrices with bitset rows.

    The happens-before computation stores the relation ⪯ as an n×n
    matrix and spends its time OR-ing rows into each other, so rows are
    packed 63 bits per word.  A masked OR implements the
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
    no column [≥ k].  These operations rely on that shape. *)

val iter_row_down : t -> int -> (int -> unit) -> unit
(** [iter_row_down m i f] calls [f] on every set column of row [i],
    descending.  [f] may set columns of row [i] below the one it was
    called on: those are visited too. *)

val or_lower_row : t -> dst:int -> src:int -> int
(** [or_lower_row m ~dst ~src] ORs row [src] into row [dst], reading
    only the words that can hold a column below [src].  Returns the
    number of words ORed. *)

val or_lower_row_outside : t -> dst:int -> src:int -> mask:Mask.t -> int
(** {!or_lower_row} restricted to the columns outside [mask]. *)
