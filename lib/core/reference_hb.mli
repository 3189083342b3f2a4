open! Import

(** Literal, unoptimised implementation of the happens-before rules.

    The relations ⪯st and ⪯mt are kept as two explicit boolean matrices
    over trace positions and every rule of Figures 6 and 7 is applied
    verbatim to every candidate pair until a fixpoint.  This is cubic per
    pass and meant for traces of at most a few hundred operations: it is
    the differential-testing oracle for {!Happens_before} (the optimised
    engine must agree on every pair — a qcheck property) and doubles as
    executable documentation of the rules. *)

type t

val compute : ?config:Happens_before.config -> Trace.t -> t
(** [compute ?config trace] applies the rules to a fixpoint.  Of the
    configuration it honours the switches the ablations and the
    predictive engine's relations exercise: [program_order],
    [restricted_transitivity], [lock_rule], [lock_same_thread],
    [fifo_rule], [nopre_rule] and [front_rule], each as its own literal
    rule instance; every other rule is always on (default
    {!Happens_before.default}). *)

val st : t -> int -> int -> bool
(** The thread-local relation ⪯st (Figure 6). *)

val mt : t -> int -> int -> bool
(** The inter-thread relation ⪯mt (Figure 7). *)

val hb : t -> int -> int -> bool
(** ⪯ = ⪯st ∪ ⪯mt. *)

val hb_or_eq : t -> int -> int -> bool

val ordered : t -> int -> int -> bool
