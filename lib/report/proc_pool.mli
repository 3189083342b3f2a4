open! Import

(** Out-of-process workers: the fourth execution substrate, after
    sequential code, {!Par_pool} domains and cooperative supervision.

    {!Supervisor} isolates failures only {e cooperatively}: a tight loop
    that never reaches a deadline checkpoint, a native stack overflow,
    or an allocation storm still takes the whole sweep down with it.
    This module runs work in forked children instead, so the parent
    can enforce what no in-process layer can:

    - {e hard deadlines}: a worker past its per-request wall budget is
      SIGKILLed (counter [proc.kills]) — even a non-cooperative infinite
      loop dies on schedule;
    - {e memory containment}: each worker caps its own address space
      with [setrlimit(RLIMIT_AS)] ([max_mem_mib] of headroom over the
      inherited image); an allocation past the cap raises
      [Out_of_memory] in the child, which exits with a dedicated status
      the parent reports as an {!Oom_killed} death (counter [proc.oom]);
    - {e crash containment}: a worker that dies of a signal (segfault,
      kill) or a nonzero exit costs one failed request, never the
      caller;
    - {e deterministic restarts}: a dead worker's slot is re-forked
      (counter [proc.restarts]) under a seeded, jitter-free exponential
      backoff of consecutive deaths.

    One {!fleet} owns that lifecycle, and both runners are built on it:
    {!map}, the batch pool behind [corpus --isolate], adds per-task
    retries (counter [proc.retries]) and rows; the droidracerd daemon
    adds admission, dedupe and its client sockets.  Requests and
    replies cross a length-prefixed pipe as [Marshal] frames (with
    [Marshal.Closures]; parent and child are the same image, so
    closures round-trip).  Workers inherit the serve function by fork,
    so only the request value travels down and one reply frame travels
    back per request.

    {b Telemetry crosses the process boundary.}  When {!Obs.enabled},
    each worker calls [Obs.on_fork] at birth; on the graceful EOF
    shutdown it ships a final telemetry frame up the reply pipe, and
    with [~sidecar] it also refreshes a crash-safe sidecar file with
    its whole [Obs] state after every request, which {!shutdown}
    absorbs for workers that were SIGKILLed.  [Obs.snapshot] in the
    parent then sees every worker's spans, counters, histograms,
    series, and one [proc.worker_rss_peak_kb] histogram sample per
    worker process.

    {b Fork before domains.}  The OCaml 5 runtime refuses [Unix.fork]
    once any domain has ever been spawned — joining them does not lift
    the restriction — so a fleet must be created (and its workers
    respawned) before the process's first domain-parallel computation.
    ({!Par_pool.quiesce} is still called defensively by {!map}; a
    too-late fork fails fast with a diagnostic naming this
    constraint.)  The [corpus --isolate] sweep satisfies the rule by
    construction: process isolation replaces the domain pool rather
    than nesting inside it; the daemon's parent never spawns a domain.
    Callers must ignore SIGPIPE while a fleet is alive, so a request
    written to a dead worker surfaces as [EPIPE]. *)

(** {1 Retry policy}

    Shared by this pool and the cooperative {!Supervisor}: the delay
    before retry [k] (1-based) is [backoff_base * 2^(k-1)] seconds —
    deterministic and jitter-free, so failure rows and timings are
    reproducible. *)

type retry_policy =
  { max_retries : int  (** additional attempts after the first *)
  ; backoff_base : float  (** seconds before the first retry *)
  }

val no_retry : retry_policy
(** [{ max_retries = 0; backoff_base = 0.0 }]. *)

val default_retry : retry_policy
(** [{ max_retries = 1; backoff_base = 0.0 }] — the retry-once of the
    original supervisor. *)

val backoff_delay : retry_policy -> attempt:int -> float
(** Delay before the given attempt (attempt 0 is free; attempt [k >= 1]
    waits [backoff_base * 2^(k-1)]). *)

val total_backoff : retry_policy -> retries:int -> float
(** Sum of {!backoff_delay} over attempts [1..retries]. *)

(** {1 Limits} *)

type limits =
  { deadline_seconds : float option
        (** hard per-attempt wall budget, enforced by parent SIGKILL *)
  ; max_mem_mib : int option
        (** child address-space headroom, enforced by [setrlimit] *)
  }

val no_limits : limits

(** {1 Outcomes} *)

type death =
  | Exited of int  (** child exited with this nonzero status *)
  | Signaled of int  (** child killed by this signal (OCaml numbering) *)
  | Oom_killed of int  (** allocation past the MiB cap *)
  | Stack_overflowed  (** native stack exhausted in the child *)
  | Hard_deadline of float  (** parent SIGKILL after the wall budget *)

val signal_name : int -> string
(** ["SIGSEGV"], ["SIGKILL"], … or ["signal N"] for exotic ones. *)

val death_message : death -> string

val death_of_status : ?max_mem_mib:int -> Unix.process_status -> death
(** Classify a [waitpid] status using the pool's reserved exit statuses
    ({!oom_exit_status} → [Oom_killed max_mem_mib], {!stack_exit_status}
    → [Stack_overflowed]). *)

(** {1 Reserved worker exit statuses}

    [Out_of_memory] and [Stack_overflow] cannot be reported over a pipe
    reliably (the marshaller itself needs memory), so they become
    dedicated exit statuses; {!death_of_status} translates them back. *)

val oom_exit_status : int  (** 41 — allocation past the rlimit cap *)

val stack_exit_status : int  (** 42 — native stack exhausted *)

val uncaught_exit_status : int  (** 40 — uncaught exception in a worker *)

(** {1 Wire framing}

    One length-prefixed frame per message: an 8-byte big-endian length
    header followed by the payload.  Reads and writes retry [EINTR] and
    resume across partial transfers, so a signal landing mid-frame (the
    daemon's whole life) never tears a message.  These primitives are
    shared with {!module:Droidracer_service}, which speaks the same
    framing over its client sockets. *)

val max_frame_bytes : int
(** Upper bound (1 GiB) on a frame's payload length; a header past it is
    treated as a protocol error ({!read_frame} returns [None]). *)

val write_all : Unix.file_descr -> Bytes.t -> int -> int -> unit
(** [write_all fd buf pos len] writes exactly [len] bytes, retrying
    partial writes and [EINTR].  Raises [Unix_error] on a dead peer
    ([EPIPE] arrives as the error, not the signal, wherever SIGPIPE is
    ignored). *)

val frame : Bytes.t -> Bytes.t
(** Length header + payload, as one buffer. *)

val write_frame : Unix.file_descr -> Bytes.t -> unit
(** {!frame} via {!write_all}. *)

val read_exact : Unix.file_descr -> int -> Bytes.t option
(** [read_exact fd len] reads exactly [len] bytes, retrying [EINTR];
    [None] on EOF or error (a short read means the peer died). *)

val read_frame : Unix.file_descr -> Bytes.t option
(** One whole frame, or [None] on EOF, error, or an implausible length. *)

type 'b attempt_result =
  | Value of 'b  (** the worker returned normally *)
  | Died of death  (** every attempt ended in a worker death *)

type 'b row =
  { r_result : 'b attempt_result  (** the final attempt's outcome *)
  ; r_retries : int  (** attempts beyond the first *)
  ; r_backoff : float  (** total seconds spent in backoff delays *)
  ; r_elapsed : float  (** first dispatch to final outcome, wall *)
  ; r_deaths : death list  (** all worker deaths, oldest first *)
  }

val in_worker : unit -> bool
(** True inside a forked worker — lets task code pick a
    child-appropriate strategy (e.g. genuinely allocating into the
    rlimit rather than raising [Out_of_memory] directly). *)

(** {1 The fleet}

    A fixed set of slots, each holding one forked worker that serves
    requests with the function given to {!fleet}.  The caller owns the
    event loop: it {!send}s requests to {!idle} slots, [select]s on
    {!fds} (plus its own descriptors) until {!wake}, hands the readable
    set to {!step}, and calls {!respawn_due} while it has work for the
    slots.  A slot serves one request at a time; the caller keeps the
    slot → request map.

    A worker loops on its request pipe until EOF.  Each request's value
    goes back as one reply frame; [Out_of_memory] and [Stack_overflow]
    escaping the serve function become {!oom_exit_status} and
    {!stack_exit_status}, any other exception {!uncaught_exit_status}.
    [serve] should confine its own failures to its return value. *)

type ('q, 'r) fleet

type slot = int

type 'r event =
  | Reply of slot * 'r  (** the slot's request was answered; it is idle *)
  | Death of slot * death
      (** the slot's worker died and was reaped; if it was busy, its
          request is lost.  The slot respawns after the backoff. *)

val fleet :
  ?max_mem_mib:int ->
  ?sidecar:bool ->
  ?inherited:(unit -> Unix.file_descr list) ->
  backoff:retry_policy ->
  slots:int ->
  ('q -> 'r) ->
  ('q, 'r) fleet
(** Fork [slots] (at least 1) workers serving [serve].  Each child
    closes its siblings' pipes and the descriptors [inherited ()]
    returns at its fork (default none) — a caller's sockets, whose EOF
    a peer would otherwise never see.  [max_mem_mib] is the
    address-space headroom of every worker.  With [sidecar] (default
    false) and {!Obs.enabled}, workers keep crash sidecars (see the
    module header).  After the [k]-th consecutive death a slot waits
    [backoff_delay backoff ~attempt:(min k 6)] before {!respawn_due}
    re-forks it; a reply resets the count. *)

val idle : ('q, 'r) fleet -> slot list
(** Live slots with no request in flight, ascending. *)

val send : ('q, 'r) fleet -> slot -> budget:float option -> 'q -> bool
(** Hand a request to an {!idle} slot.  With [budget], {!step} SIGKILLs
    the worker once [budget] seconds have passed and reports
    [Death (slot, Hard_deadline budget)].  [false] means the worker was
    already dead: the request never reached it, and the next {!step}
    reports the death. *)

val respawn_due : ('q, 'r) fleet -> unit
(** Re-fork every dead slot whose backoff has elapsed. *)

val fds : ('q, 'r) fleet -> Unix.file_descr list
(** The reply pipes of the live workers, for the caller's [select]. *)

val wake : ('q, 'r) fleet -> respawn:bool -> float
(** The earliest time {!step} or {!respawn_due} has work: a request
    deadline or, with [respawn], a slot's respawn time.  [infinity]
    when there is none. *)

val step : ('q, 'r) fleet -> readable:Unix.file_descr list -> 'r event list
(** Read the reply pipes in [readable] (absorbing telemetry frames),
    reap the workers that closed theirs, and SIGKILL the workers past
    their deadline.  Events come in slot order, deadline kills last. *)

val live_count : ('q, 'r) fleet -> int

val busy_count : ('q, 'r) fleet -> int

val shutdown : ?grace:float -> ('q, 'r) fleet -> unit
(** Close every request pipe, wait up to [grace] seconds (default 5)
    for the workers' telemetry farewells and exits, SIGKILL and reap
    the rest, then absorb and remove the crash sidecars.  Idempotent. *)

(** {1 The pool} *)

val map :
  ?jobs:int ->
  ?limits:limits ->
  ?retry:retry_policy ->
  ?should_retry:('b -> bool) ->
  ?on_row:(int -> 'b row -> unit) ->
  (attempt:int -> 'a -> 'b) ->
  'a list ->
  'b row list
(** [map f items] runs [f ~attempt item] for each item on a {!fleet}
    of [jobs] workers (default 1; capped at the item count) and
    returns one row per item, in input order.  The workers keep crash
    sidecars, and [limits.deadline_seconds] is each attempt's budget.

    Worker deaths are always eligible for retry; a normally returned
    value is retried when [should_retry] accepts it (default: never).
    Either way the attempt budget and backoff come from [retry]
    (default {!default_retry}).  [on_row] fires in the parent the
    moment a row is final — the journal layer appends its record there,
    which is what makes a SIGKILLed sweep resumable.

    [f] should confine its own failures to its return value; an
    uncaught exception costs the worker its life ([Exited] death).
    [Out_of_memory] and [Stack_overflow] escaping [f] are translated to
    the dedicated exit statuses behind {!Oom_killed} and
    {!Stack_overflowed}.  Dead slots respawn under the [retry]
    backoff. *)
