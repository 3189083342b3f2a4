(** Square boolean matrices with bitset rows.

    The happens-before computation stores the relation ⪯ as an n×n
    matrix and spends its time OR-ing rows into each other, so rows are
    packed 63 bits per word.  Masked ORs implement the thread-sensitive
    transitivity restriction (Section 4.1). *)

type t

val create : int -> t
(** [create n] is the n×n all-false matrix. *)

val get : t -> int -> int -> bool

val set : t -> int -> int -> unit

val count : t -> int
(** Number of true entries. *)

val copy : t -> t
(** An independent copy. *)

val blit_row : src:t -> dst:t -> int -> unit
(** [blit_row ~src ~dst i] overwrites row [i] of [dst] with row [i] of
    [src] (the sparse per-round snapshot of the worklist closure). *)

val row_is_empty : t -> int -> bool

val clear_row : t -> int -> unit

val or_row : t -> dst:int -> src:int -> bool
(** [or_row m ~dst ~src] ORs row [src] into row [dst]; true iff row
    [dst] changed. *)

val or_row_between : read:t -> write:t -> dst:int -> src:int -> bool
(** [or_row_between ~read ~write ~dst ~src] ORs row [src] of [read]
    into row [dst] of [write]; true iff the destination row changed. *)

(** Bit masks over column indices. *)
module Mask : sig
  type t

  val create : int -> t

  val set : t -> int -> unit

  val mem : t -> int -> bool

  val clear : t -> unit

  val iter : t -> (int -> unit) -> unit
  (** Calls the function on every set index, ascending. *)

  val iter_down : t -> (int -> unit) -> unit
  (** Calls the function on every set index, descending. *)
end

val or_row_into_mask : t -> src:int -> Mask.t -> unit
(** ORs row [src] into the mask (used to accumulate a round's source
    set from its news rows). *)

val mark_rows_meeting : t -> Mask.t -> Mask.t -> unit
(** [mark_rows_meeting m mask into] adds to [into] every row of [m]
    that has a set column in [mask] — the predecessors of the columns
    of [mask], read off the rows instead of a transposed index. *)

val or_row_masked : t -> dst:int -> src:int -> mask:Mask.t -> bool
(** ORs [src ∧ mask] into [dst]; true iff [dst] changed. *)

val or_row_masked_compl : t -> dst:int -> src:int -> mask:Mask.t -> bool
(** ORs [src ∧ ¬mask] into [dst]; true iff [dst] changed. *)

val or_row_between_masked_compl :
  read:t -> write:t -> dst:int -> src:int -> mask:Mask.t -> bool
(** {!or_row_between} restricted to the complement of [mask]. *)

val iter_row : t -> int -> (int -> unit) -> unit
(** Calls the function on every set column of the row, ascending. *)

(** {1 Change tracking}

    The worklist closure must know {e which} columns an OR newly set:
    a new bit in row [i] is a new successor that row [i] still has to
    pull from.  The tracked variants accumulate the newly set bits of
    [dst] into row [dst] of a caller-supplied [delta] matrix of the
    same size. *)

val or_row_between_tracked_range :
  read:t ->
  write:t ->
  delta:t ->
  dst:int ->
  src:int ->
  w_lo:int ->
  w_hi:int ->
  unit
(** {!or_row_between} restricted to source words [w_lo..w_hi]
    (inclusive), that also ORs the newly set bits of the destination
    row into row [dst] of [delta].  The caller obtains the bounds from
    {!row_word_extent}, so the all-zero prefix and suffix of a sparse
    source row cost nothing.  No change flag — the worklist reads the
    delta row instead. *)

val or_row_between_masked_compl_tracked_range :
  read:t ->
  write:t ->
  delta:t ->
  dst:int ->
  src:int ->
  mask:Mask.t ->
  w_lo:int ->
  w_hi:int ->
  unit
(** {!or_row_between_tracked_range} restricted to the complement of
    [mask]. *)

val row_word_extent : t -> int -> int * int
(** [(lo, hi)] such that every non-zero word of row [i] lies in
    [lo..hi]; [lo > hi] iff the row is empty. *)

(** {1 Row scratch buffers} *)

type row_scratch
(** A detached copy of one row, owned by a single worker. *)

val row_scratch : t -> row_scratch
(** A scratch buffer sized for the given matrix, initially empty. *)

val copy_row : t -> int -> row_scratch -> unit
(** Overwrites the scratch with row [i]. *)

val clear_scratch : row_scratch -> unit

val iter_sources :
  own:row_scratch ->
  mask:Mask.t ->
  plus:row_scratch ->
  fresh:(int -> unit) ->
  dirty:(int -> unit) ->
  unit
(** Enumerates a worklist target's source rows, split by how they must
    be absorbed: [fresh k] for every [k] in [plus] (newly added
    successors — their full row has never been ORed in), [dirty k] for
    every [k] in [own ∧ mask ∧ ¬plus] (long-standing successors that
    changed last round — only their news is needed).  Each callback
    runs ascending per word. *)
