open! Import

(** Model of a task queue attached to a thread.

    Figure 5 of the paper equips queue objects with plain FIFO enqueue
    (⊕) and dequeue (⊖); Section 4.2 refines the picture with delayed
    posts, cancellation and posts to the front of the queue.  This module
    implements the refined queue and, crucially, the {e dispatch policy}:
    which pending tasks may legitimately be dequeued next.

    The policy mirrors the happens-before treatment of Section 4.2 so
    that scheduler (trace generation) and validator (trace acceptance)
    agree with the detector:

    - among immediate (ordinary) posts, strict FIFO;
    - a delayed post may run only after every immediate post that
      arrived before it (rule (a)) and after every earlier delayed post
      with a smaller or equal timeout (rule (b)); otherwise its firing
      time relative to other entries is non-deterministic;
    - front posts pre-empt everything else; multiple pending front posts
      dispatch most-recent-first (Android's [postAtFrontOfQueue]);
    - a cancelled entry simply disappears. *)

type t

val empty : t

val is_empty : t -> bool

val mem : t -> Ident.Task_id.t -> bool

val pending : t -> Ident.Task_id.t list
(** All pending tasks, in arrival order. *)

val post : t -> Ident.Task_id.t -> Operation.post_flavour -> t
(** @raise Invalid_argument if the task is already pending (task
    identifiers are unique). *)

val cancel : t -> Ident.Task_id.t -> t option
(** [None] when the task is not pending. *)

val eligible : t -> Ident.Task_id.t list
(** The tasks the dispatch policy allows to run next, in arrival order.
    Empty iff the queue is empty. *)

val iter_eligible : (Ident.Task_id.t -> unit) -> t -> unit
(** [iter_eligible f q] applies [f] to the tasks of {!eligible}, in the
    same order, without building the list: one pass over the queue. *)

val dequeue : t -> Ident.Task_id.t -> (t, string) result
(** Removes the task if {!eligible} permits it; the error message
    explains which policy clause was violated. *)
