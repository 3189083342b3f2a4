open! Import

(** Application states of the transition system (Section 3).

    A state σ = (C, R, F, B, E, Q, L) records the created, running and
    finished threads, the threads that began processing their queues, the
    task executing on each thread, the task queues and the locks held.
    States are immutable; {!Step.apply} produces new ones. *)

type thread_phase =
  | Created  (** in C: created (or initial) but not yet scheduled *)
  | Running  (** in R *)
  | Finished  (** in F *)

type t

val initial : t
(** The empty initial state.  Initial threads of the application (the
    paper's [Threads] set) are registered on demand: a [threadinit] of a
    thread never forked is treated as an initial thread (the validator
    cannot know [Threads] for an arbitrary trace). *)

val phase : t -> Ident.Thread_id.t -> thread_phase option

val is_running : t -> Ident.Thread_id.t -> bool

val is_looping : t -> Ident.Thread_id.t -> bool
(** Whether the thread is in B, i.e. executed [loopOnQ]. *)

val queue : t -> Ident.Thread_id.t -> Queue_model.t option
(** [None] models the zero-capacity queue ε (no queue attached). *)

val executing : t -> Ident.Thread_id.t -> Ident.Task_id.t option
(** E(t): the asynchronous task currently running on [t], or [None] for
    ⊥ (idle, or a thread without a queue). *)

val all_queues : t -> (Ident.Thread_id.t * Queue_model.t) list
(** Every attached queue with its owning thread. *)

val lock_holder : t -> Ident.Lock_id.t -> Ident.Thread_id.t option

(** {1 Updates (used by {!Step})} *)

val register_initial : t -> Ident.Thread_id.t -> t

val add_created : t -> Ident.Thread_id.t -> t

val set_running : t -> Ident.Thread_id.t -> t

val set_finished : t -> Ident.Thread_id.t -> t

val attach_queue : t -> Ident.Thread_id.t -> t

val set_looping : t -> Ident.Thread_id.t -> t

val update_queue : t -> Ident.Thread_id.t -> Queue_model.t -> t

val set_executing : t -> Ident.Thread_id.t -> Ident.Task_id.t option -> t

val acquire_lock : t -> Ident.Thread_id.t -> Ident.Lock_id.t -> t
(** Re-entrant: acquiring a lock already held by the same thread
    increments a hold count. *)

val release_lock : t -> Ident.Thread_id.t -> Ident.Lock_id.t -> t option
(** [None] when the thread does not hold the lock. *)

val add_enabled : t -> Ident.Task_id.t -> t
