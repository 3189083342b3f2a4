(** Execution traces.

    A trace is the sequence [α₁ … αₙ] of operations observed during one
    run of an application (Section 2.3).  Positions are 0-based indices
    into the trace.  Besides the raw events, a trace precomputes the
    derived information the happens-before rules consume: the enclosing
    asynchronous task of every operation (the paper's [task] helper), the
    executing thread (the [thread] helper), queue attachment, and the
    positions of the [post]/[begin]/[end]/[enable] operations of every
    task.

    {b Representation.}  A trace is columnar: per position it keeps ints
    only — an operation {!kind} (one byte), the dense index of the
    executing thread, one operand (the location id of an access, the
    task index of a task operation, the lock index of an [acquire] or
    [release], the raw target thread of a [fork] or [join]) and the
    index of the enclosing task.  Beside the columns sit small dense
    tables: threads in order of first execution, tasks in order of first
    mention (with their post/begin/end/enable/cancel positions, target
    and flavour), locks in order of first use and locations in order of
    first access, plus a {!Ident.Task_id.t} to index table.  No event
    record is stored: {!get}, {!op}, {!iteri} and {!events} rebuild
    events from operations memoised once per identifier, so {!get}
    allocates the 3-word event record and nothing else, and bumps the
    [trace.events_built] counter.  Hot consumers read the columns
    through the unboxed accessors of {!section:columns} instead. *)

type event =
  { thread : Ident.Thread_id.t  (** the executing thread *)
  ; op : Operation.t
  }

type t

val event_equal : event -> event -> bool

val pp_event : Format.formatter -> event -> unit

(** The operation of a position without its operands: one constructor
    per constructor of {!Operation.t}. *)
type kind =
  | Thread_init
  | Thread_exit
  | Fork
  | Join
  | Attach_queue
  | Loop_on_queue
  | Post
  | Begin_task
  | End_task
  | Acquire
  | Release
  | Read
  | Write
  | Enable
  | Cancel

(** {1 Construction}

    Every trace is made by one {!Builder}: {!of_events},
    {!of_rev_events}, {!Trace_io}'s text and binary readers, {!select}
    and {!remove_cancelled} all feed it, and it checks structural
    well-formedness in position order, as each operation arrives.  A
    {!prefix} is a view of a built trace, sharing its storage. *)

module Builder : sig
  type trace := t

  type t

  val create : ?capacity:int -> unit -> t
  (** A builder whose columns start with room for [capacity] positions
      (default 1024); they double when full. *)

  val add : t -> event -> unit
  (** Appends one event, interning its identifiers through hash
      tables.  The text and list readers use this. *)

  (** {2 Pre-numbered operations}

      A producer that numbers identifiers itself (the binary decoder)
      registers each identifier once and then pushes ints, without
      hashing a task or a location per event. *)

  val new_task : t -> Ident.Task_id.t -> int
  (** Registers a task not registered before and returns its index. *)

  val new_lock : t -> Ident.Lock_id.t -> int
  (** Registers a lock not registered before and returns its index. *)

  val new_location : t -> Ident.Location.t -> int
  (** Registers a location not registered before and returns its id.
      Ids must be registered in order of first access for
      {!location_id}'s numbering to hold. *)

  val push : t -> kind -> int -> int -> unit
  (** [push b kind thread operand] appends a non-[Post] operation of
      the thread with that id ({!Ident.Thread_id.to_int}, validated by
      the caller).  The operand is as in {!operand}: [-1] for
      operations without one.
      @raise Invalid_argument for [Post]. *)

  val post :
    t -> int -> int -> target:Ident.Thread_id.t ->
    flavour:Operation.post_flavour -> unit
  (** [post b thread task ~target ~flavour] appends a [post] of the
      task with that index by the thread with that id. *)

  val finish : t -> (trace, string) result
  (** The trace, or the message of the first well-formedness
      violation.  Operations after a violation are ignored, but
      identifiers can still be registered: a reader keeps reading, so
      that a later parse or decode error takes precedence.  Columns more than half
      empty are trimmed to the trace's length.  The trace shares the
      builder's identifier tables, so the builder is spent: any later
      call on it raises [Invalid_argument]. *)
end

val of_events : event list -> (t, string) result
(** Builds a trace, checking structural well-formedness: every task is
    posted, begun, ended and enabled at most once ("unique renaming",
    Section 4.1); [begin]/[end] pairs are properly bracketed on their
    thread and never nested; a task [begin]s only on the thread it was
    posted to and only after the post; [attachQ] and [loopOnQ] appear at
    most once per thread, in that order.  Deeper semantic validity (the
    transition system of Figure 5) is checked by
    {!Droidracer_semantics.Step.validate}. *)

val of_rev_events : event list -> (t, string) result
(** [of_rev_events (List.rev events)] is [of_events events], without
    the intermediate list: for readers that collect events by
    prepending. *)

val of_events_exn : event list -> t
(** @raise Invalid_argument when {!of_events} would return [Error]. *)

(** {1 Basic accessors} *)

val length : t -> int

val get : t -> int -> event
(** The event at a position, rebuilt from the columns: allocates the
    event record only.
    @raise Invalid_argument if the index is out of bounds. *)

val op : t -> int -> Operation.t
(** Allocates nothing. *)

val thread : t -> int -> Ident.Thread_id.t
(** The paper's [thread(αᵢ)]. *)

val events : t -> event list

val iteri : (int -> event -> unit) -> t -> unit

(** {1:columns Columns}

    Unboxed per-position reads for the hot consumers (graph, edges,
    pair scan, validation).  Each raises [Invalid_argument] if the
    position is out of bounds, and allocates nothing. *)

val kind : t -> int -> kind

val thread_index : t -> int -> int
(** The dense index of the executing thread: {!thread_id} inverts it. *)

val operand : t -> int -> int
(** The location id of a [read]/[write], the task index of a
    [post]/[begin]/[end]/[enable]/[cancel], the lock index of an
    [acquire]/[release], the raw target thread of a [fork]/[join], and
    [-1] for the others. *)

val enclosing_index : t -> int -> int
(** The index of {!enclosing_task}, or [-1]. *)

val is_access : t -> int -> bool

val is_write : t -> int -> bool

val access_code : t -> int -> int
(** [2 * location_id + 1] at a [write], [2 * location_id] at a
    [read], [-1] elsewhere: the pair scan's one read per position. *)

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

val location_count : t -> int

val location : t -> int -> Ident.Location.t
(** The location with an id. *)

val location_accesses : t -> int -> int
(** The number of accesses to the location with an id, counted when
    the trace was built. *)

val threads : t -> Ident.Thread_id.t list
(** All threads executing at least one operation, in order of first
    appearance: thread index order. *)

val thread_count : t -> int

val thread_id : t -> int -> Ident.Thread_id.t
(** The thread with a dense index. *)

val index_of_thread : t -> Ident.Thread_id.t -> int
(** The dense index of a thread, [-1] when it executes nothing. *)

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

(** {2 Tasks and locks by index}

    Tasks are indexed in order of first mention, in any role.  The
    position accessors return [-1] where the task has no such
    operation. *)

val task_count : t -> int

val task_id : t -> int -> Ident.Task_id.t

val index_of_task : t -> Ident.Task_id.t -> int
(** [-1] for a task the trace never mentions. *)

val iter_posted : (int -> unit) -> t -> unit
(** The indices of the posted tasks, in posting order. *)

val post_at : t -> int -> int

val begin_at : t -> int -> int

val end_at : t -> int -> int

val enable_at : t -> int -> int

val target_index : t -> int -> int
(** The dense index of a posted task's target thread, [-1] when the
    task was never posted or its target executes nothing. *)

val task_flavour : t -> int -> Operation.post_flavour
(** @raise Invalid_argument when the task was never posted. *)

val lock_count : t -> int

val lock_id : t -> int -> Ident.Lock_id.t

(** {1 Transformations} *)

val prefix : t -> int -> t
(** [prefix t n] is positions [[0, n)] of [t], equal on every accessor
    to the trace {!of_events} builds from those events, but a view: it
    shares [t]'s columns, its memoised operations and its identifier
    tables, and copies only the dense per-identifier tables, cut to the
    prefix.  Threads, tasks, locks and locations are numbered in order
    of first use, so the prefix uses exactly the ids below one bound per
    table; one pass over the [n] positions finds the bounds and
    recounts {!location_accesses}.  Positions at or past [n] are no
    positions of the view: {!post_at}, {!begin_at} and the other
    position tables read [-1] for them, and {!index_of_thread} and
    {!index_of_task} answer [-1] for a thread or task [t] numbers at or
    past the bound.  [prefix t (length t)] is [t].
    @raise Invalid_argument unless [0 <= n <= length t]. *)

val select : t -> int array -> (t, string) result
(** [select t positions] is the trace of the events at [positions], in
    that order, as {!of_events} would build it: a fresh trace through
    one {!Builder}, with identifiers renumbered in order of first use
    and without rebuilding an event.  The positions may be any
    reordering of any subset of [t]'s; [Error] carries the first
    well-formedness violation of the selection.
    @raise Invalid_argument if a position is out of bounds. *)

val remove_cancelled : t -> t
(** Deletes, for every task whose [cancel] precedes its [begin] (or that
    never began), the task's [post], the [cancel] itself and any
    operations of the task body; this is how Section 4.2 handles
    cancellation before happens-before analysis.  [cancel] operations for
    tasks that already began are deleted but the executed task is kept.
    The kept positions go through {!select}; a trace without [cancel]
    operations is returned as it is. *)

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
