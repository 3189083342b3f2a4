open! Import

(** Data races (Section 4.3).

    A data race is a pair of conflicting operations — two accesses to
    the same memory location, at least one a write — with no
    happens-before ordering between them. *)

type access =
  { position : int  (** trace position *)
  ; location : Ident.Location.t
  ; is_write : bool
  ; thread : Ident.Thread_id.t
  ; task : Ident.Task_id.t option  (** enclosing asynchronous task *)
  }

type t =
  { first : access  (** the earlier access in the observed trace *)
  ; second : access
  }

val location : t -> Ident.Location.t

val is_multithreaded : t -> bool
(** The two accesses run on different threads. *)

val pp : Format.formatter -> t -> unit

val accesses : Trace.t -> access list
(** All read/write operations of the trace, in trace order. *)

val detect : ?jobs:int -> Trace.t -> hb:Happens_before.t -> t list
(** All conflicting pairs [(i, j)], [i < j], with neither
    [Happens_before.hb hb i j] nor [Happens_before.hb hb j i], in
    lexicographic order of positions.  [trace] must be the trace the
    relation's graph was built on.

    The relation is looked up once per pair of graph nodes, not once
    per pair of accesses.  Two accesses in the same node never race:
    [hb] orders them by position.  Accesses in distinct nodes [m] and
    [n] are ordered exactly when [m] and [n] are, so for each pair of
    nodes that touch a location, at least one of them writing it, one
    {!Happens_before.node_hb} lookup in each direction decides every
    access pair at once.  An unordered node pair contributes its
    write×access and read×write pairs, so emission work is
    proportional to the races reported.  On an uncoalesced graph every
    node is one position and this is the access-pair scan.

    With [jobs > 1] each location's node-pair scan is chunked by
    first-node ranges over a {!Par_pool}; the result list and the
    [race.*] counters are identical for every [jobs] value.
    [race.pairs_examined] counts the access pairs per location (what
    an access-pair scan would examine), [race.node_pairs_examined] the
    node pairs actually looked up.
    @raise Invalid_argument if [trace] and the relation's trace differ
    in length. *)
