open! Import

(** The happens-before relation ⪯ for Android execution traces
    (Section 4.1, Figures 6 and 7).

    ⪯ is the union of a thread-local relation ⪯st (NO-Q-PO, ASYNC-PO,
    ENABLE-ST, POST-ST, FIFO, NOPRE, TRANS-ST) and an inter-thread
    relation ⪯mt (ATTACH-Q-MT, ENABLE-MT, POST-MT, FORK, JOIN, LOCK,
    TRANS-MT).  Because ⪯st only relates operations of one thread and
    ⪯mt only relates operations of different threads, a single
    reachability matrix over graph nodes represents both: a same-thread
    entry is an ⪯st fact, a different-thread entry an ⪯mt fact.  The
    paper's transitivity restriction becomes a side condition on row
    composition: [i ⪯ k ∧ k ⪯ j ⇒ i ⪯ j] is admitted iff
    [thread i ≠ thread j] (TRANS-MT) or
    [thread i = thread k = thread j] (TRANS-ST).

    FIFO and NOPRE consume the combined relation in their premises, so
    they are applied during the closure, each as soon as its premises
    are final.  The configuration switches exist for the baselines of
    Section 4.1 ("Specializations") and Section 7, and for the ablation
    experiments; {!default} is the paper's relation. *)

(** How operations of one thread are ordered by program order
    (the type lives in {!Hb_edges}, shared with the static edge
    builder). *)
type program_order = Hb_edges.program_order =
  | Android_po
      (** NO-Q-PO until [loopOnQ], then ASYNC-PO within each task *)
  | Full_po
      (** classic multi-threaded program order across the whole thread,
          regardless of task boundaries (baselines only) *)

type config =
  { program_order : program_order
  ; enable_rule : bool  (** ENABLE-ST and ENABLE-MT *)
  ; post_rule : bool  (** POST-ST and POST-MT *)
  ; attach_rule : bool  (** ATTACH-Q-MT *)
  ; fifo_rule : bool  (** FIFO, with the delayed-post refinement of §4.2 *)
  ; nopre_rule : bool  (** NOPRE *)
  ; fork_join_rules : bool  (** FORK and JOIN *)
  ; lock_rule : bool  (** LOCK between distinct threads *)
  ; lock_same_thread : bool
      (** also order same-thread release/acquire pairs: the naïve
          combination the paper warns against (Section 1) *)
  ; front_rule : bool
      (** EXTENSION (off by default; the paper defers posting-to-the-front
          to future work): derive LIFO orderings for front-of-queue
          posts.  A front-posted task pre-empts every task that is
          already pending when it is posted: if post(p₁) ⪯ post(p₂),
          both target thread t, p₂ is a front post, and p₂ was posted
          before p₁ began (so p₁ was still pending), then
          end(p₂) ⪯st begin(p₁). *)
  ; restricted_transitivity : bool
      (** [false] closes transitively without the thread side condition
          (naïve combination) *)
  }

val default : config
(** The paper's relation: Android program order, every rule on,
    [lock_same_thread = false], restricted transitivity. *)

type t

val compute : ?config:config -> Graph.t -> t
(** [compute ?config g] computes ⪯ over the graph nodes in one forward
    sweep.  Every rule orders a node before a node of higher id, so the
    sweep builds, for each node in ascending id order, the row of nodes
    ordered before it: the static edges of {!Hb_edges}, then the
    restricted transitive closure of the row through the final rows of
    its predecessors, then, at a task's [begin], the dynamic rules
    FIFO, NOPRE and the front-of-queue extension (whose premises read
    only rows already final).  In the closure a predecessor whose
    contribution the row of a later predecessor already carried is
    skipped, so the cost is one masked row OR per predecessor that no
    other predecessor covers.  The dynamic rules are checked for the
    [end]s of the tasks posted to the [begin]'s thread that the row
    still lacks, latest first; an ordered [end] brings its whole row at
    once, so the earlier tasks it is already ordered after are never
    checked ([hb.sibling_checks] counts the checks). *)

val graph : t -> Graph.t

val config : t -> config

(** {1 Queries over trace positions} *)

val hb : t -> int -> int -> bool
(** [hb r i j] is [αᵢ ⪯ αⱼ] for trace positions [i ≠ j].  Positions
    inside the same coalesced node are ordered by their program order. *)

val hb_or_eq : t -> int -> int -> bool

val ordered : t -> int -> int -> bool
(** [hb r i j || hb r j i]. *)

val same_thread : t -> int -> int -> bool

(** {1 Queries over graph nodes} *)

val node_hb : t -> int -> int -> bool

val preds : t -> Bit_matrix.t
(** The relation as a matrix over nodes: row [j] holds the nodes
    ordered before node [j], all of them below [j].  [node_hb t i j]
    is bit [(j, i)].  Shared, not copied: read it, never write it. *)

(** {1 Statistics} *)

val node_count : t -> int

val edge_count : t -> int
(** Number of ordered pairs in the computed relation. *)

val passes : t -> int
(** Passes over the nodes: always 1 ([hb.passes]). *)

val word_ors : t -> int
(** Machine-word OR operations the closure performed, the dynamic
    rules' row ORs included — its work metric ([hb.word_ors]).
    Deterministic for a given trace and config. *)
