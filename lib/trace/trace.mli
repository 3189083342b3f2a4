(** Execution traces.

    A trace is the sequence [α₁ … αₙ] of operations observed during one
    run of an application (Section 2.3).  Positions are 0-based indices
    into the trace.  Besides the raw events, a trace precomputes the
    derived information the happens-before rules consume: the enclosing
    asynchronous task of every operation (the paper's [task] helper), the
    executing thread (the [thread] helper), queue attachment, and the
    positions of the [post]/[begin]/[end]/[enable] operations of every
    task. *)

type event =
  { thread : Ident.Thread_id.t  (** the executing thread *)
  ; op : Operation.t
  }

type t

val event_equal : event -> event -> bool

val pp_event : Format.formatter -> event -> unit

(** {1 Construction} *)

val of_events : event list -> (t, string) result
(** Builds a trace, checking structural well-formedness: every task is
    posted, begun, ended and enabled at most once ("unique renaming",
    Section 4.1); [begin]/[end] pairs are properly bracketed on their
    thread and never nested; a task [begin]s only on the thread it was
    posted to and only after the post; [attachQ] and [loopOnQ] appear at
    most once per thread, in that order.  Deeper semantic validity (the
    transition system of Figure 5) is checked by
    {!Droidracer_semantics.Step.validate}. *)

val of_events_exn : event list -> t
(** @raise Invalid_argument when {!of_events} would return [Error]. *)

(** {1 Basic accessors} *)

val length : t -> int

val get : t -> int -> event
(** @raise Invalid_argument if the index is out of bounds. *)

val op : t -> int -> Operation.t

val thread : t -> int -> Ident.Thread_id.t
(** The paper's [thread(αᵢ)]. *)

val events : t -> event list

val iteri : (int -> event -> unit) -> t -> unit

(** {1 Derived structure} *)

val enclosing_task : t -> int -> Ident.Task_id.t option
(** The paper's [task(αᵢ)]: the asynchronous task whose execution
    contains position [i] ([begin] and [end] included), or [None] when
    the operation runs outside any task. *)

val location_id : t -> int -> int
(** The dense id of the location accessed at a position, [-1] when the
    operation there is not a [read] or [write].  Ids are numbered
    [0, 1, ...] in order of first access, once, when the trace is
    built; two accesses get the same id exactly when their locations
    are {!Ident.Location.equal}.
    @raise Invalid_argument if the index is out of bounds. *)

val locations : t -> Ident.Location.t array
(** The accessed locations indexed by {!location_id}: a fresh array of
    one entry per distinct location. *)

val threads : t -> Ident.Thread_id.t list
(** All threads executing at least one operation, in order of first
    appearance. *)

val has_queue : t -> Ident.Thread_id.t -> bool
(** Whether the thread executes [attachQ] in this trace. *)

val loop_index : t -> Ident.Thread_id.t -> int option
(** Position of the thread's [loopOnQ], if any. *)

val tasks : t -> Ident.Task_id.t list
(** All tasks posted in the trace, in posting order. *)

val post_index : t -> Ident.Task_id.t -> int option

val begin_index : t -> Ident.Task_id.t -> int option

val end_index : t -> Ident.Task_id.t -> int option

val enable_index : t -> Ident.Task_id.t -> int option

val cancel_index : t -> Ident.Task_id.t -> int option

val post_target : t -> Ident.Task_id.t -> Ident.Thread_id.t option
(** The thread a task was posted to. *)

val post_flavour : t -> Ident.Task_id.t -> Operation.post_flavour option

(** {1 Transformations} *)

val remove_cancelled : t -> t
(** Deletes, for every task whose [cancel] precedes its [begin] (or that
    never began), the task's [post], the [cancel] itself and any
    operations of the task body; this is how Section 4.2 handles
    cancellation before happens-before analysis.  [cancel] operations for
    tasks that already began are deleted but the executed task is kept.
    A trace without [cancel] operations is returned as it is. *)

(** {1 Statistics (Table 2)} *)

type stats =
  { trace_length : int
  ; fields : int  (** distinct [class.field] pairs accessed *)
  ; threads_without_queue : int
  ; threads_with_queue : int
  ; async_tasks : int  (** number of asynchronous posts *)
  }

val stats : t -> stats

val pp_stats : Format.formatter -> stats -> unit

val pp : Format.formatter -> t -> unit
(** Prints the trace one numbered operation per line, in the style of
    Figure 3. *)
