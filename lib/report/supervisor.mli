open! Import

(** Fault-tolerant supervision of corpus sweeps and single analyses.

    An unsupervised sweep aborts when any one application misbehaves;
    at the production scale the ROADMAP aims for that is unacceptable —
    one bad input must cost one row, not the fleet.  This module runs every input through {e one} supervised
    job runner — load, ingest, analyze — over three job kinds that
    differ only in the load: a {e catalog app} ({!run_app},
    {!run_catalog}) builds and runs its model; a {e trace file}
    ({!run_file}, {!run_files}, the daemon's worker) is read by
    {!Trace_io.load}; a {e single trace} ({!analyze}) is given.  Around
    the load the runner adds:

    - an {e ingest gate}: the trace is validated by
      {!Wellformed.check} before any analysis sees it (counter
      [ingest.rejected] on refusal);
    - a {e wall-clock budget}: cooperative deadline checks between
      pipeline phases (analyses are single-process domains, so the
      check is at phase granularity, not preemptive) — counter
      [supervisor.timeouts];
    - an {e event-count budget} with graceful degradation: over budget
      the detector walks down the engine ladder instead of refusing the
      trace.  Up to 10x the cap the dense engine still runs; beyond
      10x it falls back to the bounded-memory streaming engine (a sound
      under-approximation — see {!Streaming_engine}), counted by
      [supervisor.fallbacks.dense_streaming];
    - {e exception capture}: any exception becomes a {!failure} row
      carrying the item, reason and elapsed time;
    - {e retries with deterministic backoff}: crashes and timeouts are
      retried under a {!Proc_pool.retry_policy} (default: retry-once,
      no delay; counter [supervisor.retries]); rejected input is
      deterministic, so rejections are never retried.

    All of the above is {e cooperative}: a task that never reaches a
    deadline checkpoint, overflows the native stack, or genuinely
    exhausts memory still takes the sweep down.  A sweep in
    {!Isolated} mode closes that gap by running each attempt in a
    forked {!Proc_pool} worker, which adds hard SIGKILL deadlines,
    rlimit memory caps, and crash containment — and, combined with a
    {!Journal}, makes a sweep resumable after [kill -9].

    Outcomes are deterministic across [jobs] values and across modes:
    {!Par_pool} and {!Proc_pool} preserve order, and the fault plan of
    {!with_faults} is a pure function of the seed and the item name,
    independent of scheduling. *)

(** {1 Budgets} *)

type budget =
  { timeout_seconds : float option
        (** wall-clock budget per attempt; checked between phases *)
  ; max_events : int option
        (** event budget: an observed trace more than 10x longer
            degrades from the dense to the streaming engine *)
  }

val no_budget : budget

(** {1 Outcomes} *)

type reason =
  | Rejected of string
      (** the ingest gate refused the trace (validator diagnosis) *)
  | Crashed of string  (** exception captured ([Printexc.to_string]) *)
  | Timed_out of float  (** the wall-clock budget that was exceeded *)

val reason_label : reason -> string
(** Stable identifiers: ["rejected"], ["crashed"], ["timeout"]. *)

val reason_detail : reason -> string

type failure =
  { f_app : string
  ; f_reason : reason
  ; f_engine : string
        (** the engine the failing attempt ran (or would have run)
            under, budget fallbacks applied — {!Detector.engine_name}.  When a worker dies
            before reporting, the sweep's configured engine. *)
  ; f_elapsed : float  (** wall-clock across all attempts *)
  ; f_retries : int  (** attempts beyond the first *)
  ; f_backoff : float  (** total seconds spent in retry backoff delays *)
  }

type 'r sweep_outcome =
  | Completed of 'r
  | Failed of failure  (** [f_app] is the item's name *)

type outcome = Experiments.app_run sweep_outcome

val completed : 'r sweep_outcome list -> 'r list

val failures : _ sweep_outcome list -> failure list

val failure_table : failure list -> Table.t

val failures_json_string : failure list -> string
(** Schema [droidracer-failures/1]: one object per failed application
    with [app], [outcome] ({!reason_label}), [reason], [engine],
    [elapsed_seconds], [retries] and [backoff_seconds] — the artefact
    CI archives. *)

(** {1 Fault injection}

    Degradation paths must themselves be testable, so the supervisor can
    deterministically inject each failure class.  The plan is a pure
    function of the seed and the application name — independent of
    [jobs], scheduling, and which other applications run — so tests and
    CI can predict every row. *)

type fault =
  | Parse_fault  (** ingestion fails with a syntax diagnosis *)
  | Reject_fault  (** the validator refuses the trace *)
  | Crash_fault  (** the analysis task raises *)
  | Timeout_fault  (** the wall-clock budget fires *)
  | Oom_fault
      (** inside an isolated worker: a genuine allocation storm into the
          child's rlimit; cooperatively: [Out_of_memory] raised directly
          (an in-process storm would kill the sweep) *)
  | Hang_fault
      (** inside an isolated worker: a genuine non-cooperative hang,
          ended only by the parent's SIGKILL; cooperatively: a loop that
          polls the deadline (and so hangs forever if there is no
          wall-clock budget — Hang is meant for [--isolate]) *)

val fault_name : fault -> string

val basic_faults : fault list
(** The original four classes, in their original positions — the
    default, under which the plan for every seed is bit-identical to
    what it was before {!Oom_fault} and {!Hang_fault} existed. *)

val all_faults : fault list
(** [basic_faults] plus [Oom_fault] and [Hang_fault]. *)

type decision =
  { d_fault : fault option
  ; d_transient : bool
        (** a transient fault hits only the first attempt, so retry-once
            recovers; a persistent one hits both attempts *)
  }

val fault_decision :
  ?classes:fault list -> seed:int -> app:string -> unit -> decision
(** The plan for one application under one seed, drawn from [classes]
    (default {!basic_faults}). *)

val with_faults : ?classes:fault list -> seed:int -> (unit -> 'a) -> 'a
(** [with_faults ~seed f] runs [f] with the fault plan for [seed] over
    [classes] (default {!basic_faults}) installed (an atomic, so worker
    domains — and forked workers, by inheritance — see it too); the
    plan is removed when [f] returns or raises. *)

(** {1 Supervised drivers} *)

val run_app :
  ?config:Detector.config ->
  ?budget:budget ->
  ?retry:Proc_pool.retry_policy ->
  Synthetic.spec ->
  outcome
(** One application through the supervised pipeline (build, run,
    validate, analyze), retried under [retry] (default
    {!Proc_pool.default_retry}: once, no delay) with deterministic
    exponential backoff between attempts. *)

type mode =
  | Cooperative  (** in-process, on {!Par_pool} domains *)
  | Isolated of { max_mem_mib : int option }
      (** each attempt in a forked {!Proc_pool} worker: hard SIGKILL
          deadlines (from [budget.timeout_seconds]), an optional
          address-space cap, crash containment.  Worker telemetry
          (spans, counters, histograms, series) is shipped back over
          the result pipe at graceful exit — or recovered from the
          crash sidecar of a killed worker — and merged into the
          parent's [Obs] view (see {!Proc_pool}), alongside the
          parent-side [proc.*] counters.  Must run before the
          process's first domain-parallel computation — OCaml 5 refuses
          [fork] once any domain has ever been spawned (see
          {!Proc_pool}) — which the [--isolate] CLI path guarantees by
          making the sweep the first parallel work of the process. *)

val reason_of_death : Proc_pool.death -> reason
(** How a worker death reads as a failure row: a hard-deadline kill is
    a {!Timed_out}; everything else is a {!Crashed} carrying
    {!Proc_pool.death_message}. *)

val run_catalog :
  ?jobs:int ->
  ?specs:Synthetic.spec list ->
  ?config:Detector.config ->
  ?budget:budget ->
  ?retry:Proc_pool.retry_policy ->
  ?mode:mode ->
  ?journal:Journal.t ->
  ?progress:Progress.t ->
  unit ->
  outcome list
(** The catalog sweep, the one path from an application spec to an
    {!Experiments.app_run}: all fifteen applications by default, in
    spec order, on a {!Par_pool} of [jobs] domains (one per
    application) in {!Cooperative} mode, identical (modulo wall-clock
    timings) for every [jobs] value.  Misbehaving applications yield
    {!Failed} rows instead of aborting the sweep; {!completed} keeps
    the runs the table drivers take.

    With [~progress], every finished item is reported to the tracker
    the moment its outcome is known (journal-replayed outcomes are
    reported upfront with [resumed = true]), naming the engine that
    actually ran, and the summary record is written before this
    function returns — in isolated mode that is after the worker
    telemetry has been drained, so the final fallback counts are
    fleet-wide.

    With [~journal], every finished outcome is durably appended the
    moment it is known (from whichever domain or [on_row] callback saw
    it), and outcomes already present in the journal — a resumed run —
    are replayed instead of re-run (counter [journal.resumed]).
    Because the fault plan, the analysis, and the retry backoff are all
    deterministic, an interrupted-and-resumed sweep reproduces the
    uninterrupted tables bit for bit, whatever [jobs] is. *)

val analyze :
  ?config:Detector.config ->
  ?jobs:int ->
  ?budget:budget ->
  name:string ->
  Trace.t ->
  (Detector.report, failure) result
(** Supervised single-trace analysis: the runner of {!run_app} on the
    given trace (no retry — a single analysis is deterministic). *)

(** {1 Trace-file sweeps}

    The trace-file job kind: a generated corpus
    ({!Droidracer_corpus.Vargen}), a capture archive, a daemon request.
    Files may be in either format; {!Trace_io.load} sniffs the magic. *)

type file_report =
  { fr_file : string  (** the path as given *)
  ; fr_name : string  (** basename without extension — the sweep key *)
  ; fr_events : int
  ; fr_races : int  (** access-pair races ({!Detector.report} [all_races]) *)
  ; fr_distinct : int  (** distinct racing locations *)
  ; fr_engine : string  (** engine run, budget fallbacks applied *)
  ; fr_elapsed : float  (** analysis seconds ({!Detector.report}) *)
  ; fr_locations : string list
        (** sorted, de-duplicated {!Ident.Location.to_string} forms of
            every racing location — the recall oracle's input *)
  }

type file_outcome = file_report sweep_outcome

val run_file :
  ?jobs:int ->
  ?config:Detector.config ->
  ?budget:budget ->
  ?retry:Proc_pool.retry_policy ->
  string ->
  file_outcome
(** One trace file through the supervised load → validate → analyze
    pipeline, retried like {!run_app}.  [jobs] (default 1) is the
    domain-pool width handed to {!Detector.analyze} — the serving
    layer's workers use it to spread one analysis over several domains
    inside an isolated process. *)

val run_files :
  ?jobs:int ->
  ?config:Detector.config ->
  ?budget:budget ->
  ?retry:Proc_pool.retry_policy ->
  ?mode:mode ->
  ?journal:Journal.t ->
  ?progress:Progress.t ->
  string list ->
  file_outcome list
(** {!run_catalog}'s sweep over trace files.  Outcomes are keyed by
    basename-without-extension, so a resumed sweep must not mix files
    that collide on that key (a corpus directory never does).  Because
    the key also ignores the format extension, sweeping a binary corpus
    and its text twin yields race tables that differ only in [fr_file]
    and timings — the corpus gate's equality check. *)

val file_table : file_report list -> Table.t

val files_json_string : file_outcome list -> string
(** Schema [droidracer-races/1]: one object per file — completed rows
    carry [name], [file], [events], [races], [distinct_races],
    [engine], [elapsed_seconds] and the sorted [locations] array;
    failed rows carry [name], [status], [reason], [engine],
    [elapsed_seconds], [retries].  Stripping [file] and
    [elapsed_seconds] makes binary and text sweeps of the same corpus
    bit-comparable. *)
