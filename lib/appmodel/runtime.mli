open! Import

(** The instrumented Android runtime model: executes a modeled
    application under a chosen schedule and produces execution traces.

    This module plays three roles of the real tool chain at once
    (Section 5): the Dalvik VM and Android libraries (loopers, message
    queues, AsyncTask, binder threads, ActivityManagerService and the
    component lifecycles), the Trace Generator (every concurrency
    operation is logged in the core language), and the test driver that
    feeds UI events.

    Two traces are produced.  The {e full} trace records everything that
    happened and always satisfies the semantics of Figure 5 (each
    emitted operation is pushed through {!Step.apply}; a violation is a
    bug in this interpreter, not in the application).  The {e observed}
    trace is what the instrumentation of the paper would log: operations
    of natively created threads are missing — except their posts, which
    the queue-side instrumentation sees — which reproduces the
    false-positive sources of Section 6. *)

(** UI events the driver can inject (Section 5, "UI Explorer").
    [Intent] is an extension: the paper's tool generates UI events only,
    leaving intents to future work (Section 8). *)
type ui_event =
  | Click of string  (** fire the named handler of the top activity *)
  | Back
  | Rotate
  | Intent of string
      (** deliver an external intent: launches an activity whose filter
          matches the action, pausing the current top activity *)

val pp_ui_event : Format.formatter -> ui_event -> unit

(** Scheduling policies. *)
type policy =
  | Round_robin  (** deterministic: always the first available choice *)
  | Seeded of int  (** uniform choice from a seeded generator *)
  | Scripted of int list
      (** replay: the n-th scheduling decision takes the n-th script
          entry (modulo the arity at that point); decisions beyond the
          script take the first choice.  The arity of every decision is
          reported in {!run_result.choice_arities}, which is what the
          exhaustive schedule explorer enumerates. *)

type options =
  { policy : policy
  ; log_native : bool
      (** instrument natively created threads too (ground truth mode) *)
  ; compressed_lifecycle : bool
      (** teardown posts [onDestroy] directly, as the paper's Figure 4
          compresses it; the default runs the full
          onPause/onStop/onDestroy chain *)
  ; binder_pool_size : int
  ; respect_delays : bool
      (** dispatch a delayed post only once its (virtual) timeout
          expired; disabled by the race verifier to "alter the delay
          associated with asynchronous posts" (Section 6) *)
  ; emit_enables : bool
      (** model the runtime environment with [enable] operations;
          disabled for the false-positive ablation *)
  ; hold : string list
      (** stalled contexts (thread names and task names): the scheduler
          runs them only when nothing else can make progress — the
          model-level analogue of stalling threads with debugger
          breakpoints, which is how the paper validates races
          (Section 6) *)
  ; max_steps : int
  }

val default_options : options

type run_result =
  { observed : Trace.t
  ; full : Trace.t Lazy.t
      (** built on first force, with the same {!Trace.of_events} check
          as [observed] (a failure raises {!Stuck}); callers that only
          analyse [observed] never pay for it *)
  ; thread_names : (Ident.Thread_id.t * string) list
      (** stable, program-defined names of the dynamic threads *)
  ; injected : ui_event list  (** events delivered, in order *)
  ; skipped : ui_event list  (** events never enabled, dropped *)
  ; enabled_at_end : ui_event list
      (** events available on the final screen (drives the UI
          explorer's depth-first search) *)
  ; choice_arities : int list
      (** the number of alternatives at every scheduling decision of the
          run, in order (1 = forced); drives exhaustive schedule
          exploration *)
  ; steps : int
  }

exception Stuck of string
(** Raised when the application deadlocks (e.g. a join on a thread that
    never exits) or exceeds [max_steps]. *)

val run : ?options:options -> Program.app -> ui_event list -> run_result
(** Executes the application from launch, injecting the given UI events
    one by one (each once the previous one has been consumed and its
    triggering conditions hold).  [run ?options app events] is
    [run_prepared ?options (prepare app) events].

    @raise Stuck on deadlock.
    @raise Invalid_argument when {!Program.validate} rejects the app. *)

type prepared
(** An app validated once, with its posted procedures and monitors
    resolved: replaying one app many times (schedule exploration, race
    verification) validates and resolves it once.  Immutable, so one
    value may serve any number of runs. *)

val prepare : Program.app -> prepared
(** @raise Invalid_argument when {!Program.validate} rejects the app. *)

val run_prepared :
  ?options:options -> prepared -> ui_event list -> run_result
(** {!run} on a prepared app. *)
