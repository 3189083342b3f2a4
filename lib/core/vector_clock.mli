(** Sparse vector clocks, the representation of {!Clock_engine} (the
    ablation reference) and of nothing else: the streaming engine keeps
    its own dense, slot-recycled clocks, and {!Epoch} takes a plain
    lookup function, so neither depends on this module.

    Slots are dense integers handed out by {!Clock_engine}: one per
    asynchronous-task instance and one per thread segment outside any
    task.  Missing entries read as 0. *)

type t

val empty : t

val get : t -> int -> int

val set : t -> int -> int -> t

val tick : t -> int -> t
(** Increments the slot by one. *)

val merge : t -> t -> t
(** Pointwise maximum. *)

val leq : t -> t -> bool
(** Pointwise comparison: [leq a b] iff every slot of [a] is ≤ in [b]. *)

val cardinal : t -> int

val pp : Format.formatter -> t -> unit
