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

    The relation is decided once per pair of graph nodes, not once
    per pair of accesses, and a word of node pairs at a time.  Two
    accesses in the same node never race: [hb] orders them by
    position.  Accesses in distinct nodes [m] and [n] are ordered
    exactly when [m] and [n] are, and every edge of the relation
    points to the higher node id.  So for each node [q] touching a
    location, the lower nodes that race with it are the location's
    nodes — only its writers when [q] only reads the location — that
    {!Happens_before.preds}' row [q] lacks: one AND-NOT per word of
    that row ({!Bit_matrix.iter_absent}), never a per-pair
    {!Happens_before.node_hb} lookup.  An unordered node pair
    contributes its write×access and read×write pairs, so emission
    work is proportional to the races reported.  On an uncoalesced
    graph every node is one position and this is the access-pair scan.

    With [jobs > 1] each location's nodes are chunked into ranges over
    a {!Par_pool}, and each run of chunks gets its own scratch masks;
    the result list and the [race.*] counters are identical for every
    [jobs] value.  [race.pairs_examined] counts the access pairs per
    location (what an access-pair scan would examine),
    [race.node_pairs_examined] the node pairs decided (a writing node
    against every lower node of its location, a reading one against
    the lower writers) — both in closed form — [race.words_anded] the
    row words read, and [race.conflicts] the races.
    @raise Invalid_argument if [trace] and the relation's trace differ
    in length, or if it has 2{^31} positions or more. *)
