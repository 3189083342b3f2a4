open! Import

(** The static happens-before edges of Figures 6 and 7 — the rules whose
    premises mention only the structure of the trace, not the relation
    being computed.

    {!Happens_before.compute} seeds its closure with exactly these
    edges (the dynamic rules FIFO, NOPRE and the front-of-queue
    extension consume the relation in their premises and are applied
    during the closure); the predictive engine ({!Droidracer_predict.Predict})
    reuses the same builder with {!must} to obtain the constraints that
    hold in {e every} admissible schedule.  One builder, two consumers —
    the edge sets cannot drift apart.

    Edges are emitted at graph-node granularity: an edge [src → dst]
    means every trace position of node [src] is ordered before every
    position of node [dst].  With a graph built [~coalesce:false] the
    nodes are single positions and the edges are exactly the
    position-level rule instances.

    Every edge points forward: [src < dst].  Each rule instance relates
    positions [i < j], node ids follow first positions, and an edge
    into a coalesced access block comes only from its own thread's
    program order, so {!Happens_before.compute} can close the relation
    in one pass over ascending node ids. *)

(** How operations of one thread are ordered by program order
    (re-exported as {!Happens_before.program_order}). *)
type program_order =
  | Android_po
      (** NO-Q-PO until [loopOnQ], then ASYNC-PO within each task *)
  | Full_po
      (** classic program order across the whole thread (baselines) *)

(** The rule that produced an edge. *)
type rule =
  | Program_order  (** NO-Q-PO / ASYNC-PO chains along one thread *)
  | Loop_queue  (** NO-Q-PO: the [loopOnQ] node precedes all later ops *)
  | Enable  (** ENABLE-ST / ENABLE-MT: enable(p) ⪯ post(p) *)
  | Post  (** POST-ST / POST-MT: post(p) ⪯ begin(p) *)
  | Attach  (** ATTACH-Q-MT: attachQ(t) ⪯ cross-thread post to t *)
  | Fork  (** FORK: fork(t) ⪯ threadinit(t) *)
  | Join  (** JOIN: threadexit(t) ⪯ join(t) *)
  | Lock  (** LOCK: release ⪯ later acquire of the same lock *)

val rule_name : rule -> string

(** Which static rules to emit — the static fragment of
    {!Happens_before.config}. *)
type config =
  { program_order : program_order
  ; enable_rule : bool
  ; post_rule : bool
  ; attach_rule : bool
  ; fork_join_rules : bool
  ; lock_rule : bool
  ; lock_same_thread : bool
        (** also order same-thread release/acquire pairs *)
  }

val all : config
(** Every static rule of the paper's relation: Android program order,
    [lock_same_thread = false]. *)

val must : config
(** [all] without the LOCK rule.  A lock edge records which thread won
    the lock {e in the observed schedule} — another admissible schedule
    may acquire in the opposite order — so it is not a constraint on
    reorderings.  Everything else is: program order and task bodies
    cannot be permuted, a task cannot begin before it is posted, a post
    cannot precede its enable or its target's [attachQ], forked threads
    start after the fork, joins complete after the exit. *)

val iter : config:config -> Graph.t -> f:(rule:rule -> int -> int -> unit) -> unit
(** [iter ~config g ~f] calls [f ~rule src dst] once per static rule
    instance, with [src] and [dst] graph nodes, [src <> dst], and every
    underlying position pair in trace order.  Emission order is
    deterministic but unspecified; consumers must treat the calls as a
    set. *)

val fifo_flavours_ok : Operation.post_flavour -> Operation.post_flavour -> bool
(** The flavour side condition of the FIFO rule with the delayed-post
    refinement of Section 4.2: may a task posted with the first flavour
    be FIFO-ordered before one posted with the second?  Immediate
    before immediate or delayed, delayed before delayed with no smaller
    delay; front-of-queue posts never take part (the paper defers
    them).  A dynamic rule, so {!iter} never applies it: both
    {!Happens_before} and {!Streaming_engine} consult it. *)
