(** Streaming admissibility validation for trace files.

    The Trace Generator and the Race Detector of the real DroidRacer are
    separate processes coupled only by a logged trace file (Section 5),
    and the analysis engines downstream {e assume} their input is a
    plausible execution: {!Droidracer_core} replays queues and locks
    without re-checking them.  This module is the gate between ingestion
    and analysis — a single forward pass over the events enforcing the
    admissibility rules implied by the transition system of Figure 5:

    - [attachq] / [looponq] at most once per thread and in that order;
    - [begin] / [end] properly nested per thread (tasks run to
      completion), each [begin] on the thread its task was posted to,
      dispatched FIFO-consistently against the recorded posts (the
      refined policy of Section 4.2: strict FIFO among immediate posts,
      delay and front-of-queue refinements as in
      {!Droidracer_semantics.Queue_model});
    - posts target threads that have attached a queue, and task
      identifiers are uniquely renamed (one post/begin/end/enable per
      task, Section 4.1);
    - [acquire] / [release] balanced per lock, with no acquisition of a
      lock held by another thread;
    - [fork] / [join] / [threadinit] sanity: forked threads are fresh,
      joined threads have exited, no thread acts after its exit.

    The checker is {e deliberately weaker} than the full semantics
    ({!Droidracer_semantics.Step.validate}): instrumentation only
    observes part of a real execution (operations of native threads are
    logged only at the queue boundary), so rules that would reject
    legitimately partial logs — thread-running preconditions, idle-looper
    restrictions, end-of-trace balance — are not enforced.  Every trace
    the interpreter emits (observed or full) passes; every prefix of a
    passing trace passes (truncation is not an error, so crashed runs
    remain analysable).

    Memory is proportional to the number of live entities (threads,
    locks, tasks), never to the event count: {!check_file} streams
    arbitrarily large traces through {!Trace_io.fold_channel} without
    materialising them. *)

(** Admissibility rules, one per reject reason.  {!rule_name} gives the
    stable kebab-case identifier used by reports and tests. *)
type rule =
  | Thread_reinitialized  (** second [threadinit] of a thread *)
  | Late_thread_init  (** [threadinit] after the thread already ran *)
  | Operation_after_exit  (** any operation after the thread's exit *)
  | Fork_existing_thread  (** forked thread already exists *)
  | Join_unfinished_thread  (** joined thread has no prior exit *)
  | Double_attach  (** second [attachq] on a thread *)
  | Loop_without_attach  (** [looponq] before [attachq] *)
  | Double_loop  (** second [looponq] on a thread *)
  | Post_without_queue  (** post target never attached a queue *)
  | Double_post  (** unique renaming violated *)
  | Begin_without_post  (** also: begin of a cancelled task *)
  | Begin_wrong_thread  (** begun off the thread it was posted to *)
  | Begin_without_loop  (** begin on a thread that never loops *)
  | Double_begin
  | Nested_begin  (** begin while another task is executing *)
  | Fifo_violation  (** dispatch violates the queue policy *)
  | End_without_begin  (** end of a task that is not executing here *)
  | Double_enable
  | Cancel_not_pending  (** cancel of a non-pending task *)
  | Unbalanced_release  (** release without a matching acquire *)
  | Lock_held_elsewhere  (** acquire of another thread's lock *)

val rule_name : rule -> string

val rule_equal : rule -> rule -> bool

val all_rules : rule list

(** A structured rejection: the offending line (1-based; for in-memory
    traces, the 1-based event position), the rule violated, the
    offending event, and the earlier events implicated (e.g. the first
    of two posts, or the pending entries a dispatch overtook). *)
type error =
  { line : int
  ; rule : rule
  ; event : Trace.event
  ; related : (int * Trace.event) list
  ; message : string
  }

val pp_error : Format.formatter -> error -> unit

val error_message : error -> string

(** Summary of an accepted trace. *)
type stats =
  { events : int
  ; threads : int
  ; queue_threads : int  (** threads that executed [attachq] *)
  ; tasks : int  (** posts *)
  ; completed_tasks : int  (** tasks whose [end] was seen *)
  ; pending_tasks : int  (** still queued when the trace ends *)
  ; locks : int
  ; accesses : int  (** reads + writes *)
  ; max_queue_depth : int
  }

val pp_stats : Format.formatter -> stats -> unit

(** {1 Incremental checking}

    One validator [state] consumes events in trace order.  A [post]
    is O(1); a [begin] walks its thread's queue only up to the task it
    dispatches (the whole queue while a front post is pending, or to
    name the blockers of a rejected dispatch); nothing is allocated on
    the accept path beyond entity bookkeeping and the walked prefix. *)

type state

val create : unit -> state

val feed : state -> line:int -> Trace.event -> (unit, error) result
(** Feeds the next event.  After an [Error] the state is poisoned only
    for the rejected fact; callers are expected to stop at the first
    error (the CLI and the supervisor do). *)

val finish : state -> stats
(** End of input.  Truncation is never an error: any prefix of an
    admissible trace is admissible. *)

(** {1 Whole-trace entry points} *)

val check_events : Trace.event list -> (stats, error) result

val check : Trace.t -> (stats, error) result
(** [error.line] is the 1-based event position (= the line the event
    occupies in {!Trace_io.to_string} output).  Reads the trace's
    columns: thread states are found by thread index, and an access is
    checked without rebuilding its event. *)

(** {1 Files} *)

(** Why a file was rejected: a syntax error from the streaming text
    parser, a located binary decode error, a rule violation, or an I/O
    failure. *)
type failure =
  | Syntax of Trace_io.parse_error
  | Binary of Binfmt.error
  | Violation of error
  | Io of string

val pp_failure : Format.formatter -> failure -> unit

val failure_message : failure -> string

val failure_line : failure -> int option
(** The 1-based line (text) or event position (binary/violation) of the
    failure, when it has one. *)

val check_channel : In_channel.t -> (stats, failure) result

val check_file : string -> (stats, failure) result
(** Streams the named file through the validator in constant memory
    (no whole-file string, no event list). *)
