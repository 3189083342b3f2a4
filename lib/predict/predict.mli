open! Import

(** Predictive race detection with an executable feasibility oracle.

    The dense engine reports the races of the {e observed} schedule: a
    candidate pair ordered only by a LOCK edge (the lock winner of this
    particular run) or by FIFO dispatch of posts that nothing forces
    into that order is silently missed.  This engine asks the converse
    question — {e could an admissible reordering of the observed trace
    make the pair race?} — and answers it constructively: a [Feasible]
    verdict always carries a complete reordered trace that
    {!Wellformed.check} accepts, {!Step.validate} replays, and in which
    the dense happens-before relation leaves the pair unordered.

    {2 Pipeline}

    - Candidates are the races of the {e relaxed} relation — the
      paper's relation with [lock_rule = false] and [fifo_rule = false]
      ({!relaxed_config}).  Both dropped rules only record which way a
      schedule-dependent conflict went in the observed run, so every
      pair that races in {e some} admissible reordering is a candidate;
      monotonicity of the rule system makes the dense races a subset.
    - A candidate that already races under the dense relation is
      {e observed}: its witness is the observed trace truncated right
      after the second access (admissible prefixes stay admissible, and
      the relation of a prefix is the restriction of the full one).
      The truncation is a {!Trace.prefix} view sharing the analysed
      trace's storage, not a copy; the oracle checks it like any other
      witness.
    - Candidates ordered by the {e must}-relation — the dense
      configuration with only the LOCK rule off, whose orderings hold
      in every admissible schedule (FIFO and NOPRE over must-facts are
      forced) — are [Refuted] outright: this settles the common
      same-looper case, where the two tasks' posts are chained through
      their poster's program order and dispatch is forced.
    - For the rest, a bounded window of the trace ending at the second
      access is searched for a reordering that runs the observed-second
      access {e before} the observed-first one ("flips" the pair).  The
      prefix before the window is replayed verbatim; the window events
      are permuted by a depth-first search over the transition system of
      {!Step} (so queue dispatch, run-to-completion, lock exclusion and
      thread lifecycle are enforced by construction), pruned by the
      {e must-happen-before} constraints of {!Hb_edges.must} — the
      static rules that hold in every admissible schedule.
      A found schedule's witness is {!Trace.select} of the prefix
      positions and the search's order: a fresh trace, built without an
      event list.
    - Every witness is re-checked from scratch by the oracle
      ({!Wellformed.check}, {!Step.validate}, dense unorderedness at the
      new positions), prefix views included, with nothing reused across
      pairs; an engine bug can therefore produce [Unknown], never an
      unsound [Feasible].  The checks run under the [predict.witness]
      span, and the [predict.witness_events] counter sums the witnesses'
      lengths.

    {2 Verdicts}

    [Refuted] is relative to the window discipline: the pair cannot flip
    by any reordering that keeps the pre-window prefix fixed.  With a
    window covering the whole trace it is absolute.  [Unknown] reports
    an exhausted budget (window span, solver iterations, wall-clock
    deadline), an input the checker cannot replay, or an
    oracle-rejected witness — never a claim about the program. *)

(** {1 Parameters} *)

type params =
  { window : int
        (** maximum window span (second − first access, inclusive);
            pairs further apart are [Unknown] with
            {!Window_exhausted} *)
  ; max_iterations : int
        (** solver search-node budget per pair; past it the pair is
            [Unknown] with {!Budget_exhausted} *)
  ; max_extra_per_location : int
        (** non-observed candidates solved per location; the rest are
            counted in {!report.dropped} (observed races are never
            dropped) *)
  ; deadline : float option
        (** absolute [Unix.gettimeofday] deadline; pairs not yet solved
            when it passes are [Unknown] with {!Deadline} and the
            report is marked {!report.degraded} *)
  }

val default_params : params
(** window 256, 20_000 iterations, 4 extras per location, no
    deadline. *)

val relaxed_config : Happens_before.config -> Happens_before.config
(** The candidate-generation relation: the given configuration with
    [lock_rule] and [fifo_rule] switched off. *)

(** {1 The constraint solver} *)

module Solver : sig
  (** The window search, exposed for the adversarial tests.  Positions
      refer to the trace; the window is [\[lo, second\]] and the search
      looks for an admissible emission order of a subset of the window
      that ends [second] before [first]. *)

  type outcome =
    | Scheduled of int list
        (** feasible: the window positions in emission order, ending
            with [first] (its predecessor is the flipped [second]) *)
    | Cyclic  (** the constraint graph has a cycle inside the window *)
    | Must_ordered
        (** a must-constraint path orders [first] before [second] *)
    | Exhausted
        (** the search space was covered without finding a flip *)
    | Out_of_budget  (** [max_iterations] search nodes were expanded *)

  val toposort : n:int -> succs:int list array -> int list option
  (** Kahn's algorithm over nodes [0 .. n-1]; [None] on a cycle.
      Deterministic: ready nodes are taken in ascending index order. *)

  val search :
    trace:Trace.t ->
    state0:State.t ->
    succs:int list array ->
    lo:int ->
    first:int ->
    second:int ->
    max_iterations:int ->
    outcome * int
  (** [search ~trace ~state0 ~succs ~lo ~first ~second ~max_iterations]
      explores emission orders of window positions [lo .. second]
      starting from [state0] (the state after replaying positions
      [0 .. lo-1]).  [succs.(p)] lists the must-successors of position
      [p]; edges leaving the window are ignored.  Returns the outcome
      and the number of search nodes expanded.  Memoised on
      (emitted-set, queue contents), so revisited scheduler states are
      never re-expanded; with the iteration budget this bounds the
      search on any input, cyclic constraint graphs included. *)
end

val must_successors : Trace.t -> int list array
(** [succs.(p)] = positions that must execute after [p] in every
    admissible schedule: the {!Hb_edges.must} rule instances over the
    uncoalesced graph of the trace. *)

(** {1 Verdicts} *)

type refutation =
  | Cyclic_constraints
  | Must_path
  | Search_exhausted

type unknown_reason =
  | Window_exhausted  (** pair further apart than [params.window] *)
  | Budget_exhausted  (** solver ran out of iterations *)
  | Oracle_rejected of string
        (** the engine produced a witness the oracle did not accept —
            counted in [predict.oracle_rejects], never reported
            [Feasible] *)
  | Input_not_replayable
        (** {!Step.validate} rejects the input trace, so no prefix
            state exists to search from *)
  | Deadline  (** the wall-clock budget passed before this pair ran *)

val refutation_label : refutation -> string

val unknown_label : unknown_reason -> string

type witness =
  { w_trace : Trace.t
        (** the complete reordered trace, or the truncated one: a
            {!Trace.prefix} view of the analysed trace *)
  ; w_first : int  (** position of the observed-first access in it *)
  ; w_second : int  (** position of the observed-second access in it *)
  ; w_flipped : bool
        (** the observed-second access now runs first (always true for
            solver witnesses, false for truncated observed ones) *)
  ; w_wellformed : bool  (** {!Wellformed.check} accepts the witness *)
  ; w_replayed : bool option
        (** [Some] result of {!Step.validate}; [None] for a truncated
            witness of an input that itself does not replay *)
  ; w_unordered : bool
        (** the dense relation of the witness leaves the pair
            unordered *)
  }

type verdict =
  | Feasible of witness
  | Refuted of refutation
  | Unknown of unknown_reason

type pair_result =
  { pr_pair : Race.t  (** positions refer to the analysed trace *)
  ; pr_observed : bool  (** already a race of the dense relation *)
  ; pr_window : (int * int) option
        (** the [\[lo, hi\]] window searched ([None] when no search
            ran) *)
  ; pr_iterations : int  (** solver search nodes expanded *)
  ; pr_verdict : verdict
  }

type report =
  { trace : Trace.t  (** the analysed trace (cancelled tasks removed) *)
  ; candidates : int  (** relaxed-relation races considered *)
  ; dropped : int
        (** non-observed candidates skipped by
            [max_extra_per_location] *)
  ; observed : int  (** candidates that are dense races *)
  ; feasible : int
  ; refuted : int
  ; unknown : int
  ; extra : int  (** feasible but not observed: reordering-only races *)
  ; replayable_input : bool  (** {!Step.validate} accepts the input *)
  ; degraded : bool  (** a deadline cut the analysis short *)
  ; pairs : pair_result list  (** in candidate (position) order *)
  }

val analyze :
  ?params:params ->
  ?config:Detector.config ->
  ?jobs:int ->
  Trace.t ->
  report
(** Runs the full pipeline.  [config] is the {e dense} configuration
    (default {!Detector.default_config}); the relaxed candidate
    relation is derived from it.  With [jobs > 1] the per-pair searches
    run on a {!Par_pool}; each search is a pure function of the trace
    and the pair, so the report is identical for every [jobs] value
    (except under a [deadline], where the set of pairs cut short may
    differ).  Emits [predict.*] counters and spans when {!Obs} is
    enabled. *)

val feasible_locations : report -> string list
(** Sorted, de-duplicated {!Ident.Location.to_string} forms of the
    locations with at least one [Feasible] pair — the recall oracle
    interface used by the corpus gates. *)

val extra_locations : report -> string list
(** Like {!feasible_locations}, restricted to reordering-only
    ([Feasible] and not observed) pairs. *)

(** {1 Reports} *)

val pp_report : Format.formatter -> report -> unit

val json_string :
  params:params ->
  witness_path:(file:string -> pair:pair_result -> string option) ->
  (string * report) list ->
  string
(** The [droidracer-predictions/1] document for a list of
    [(file, report)] results.  [witness_path] names the file a feasible
    pair's witness was written to (or [None] when witnesses are not
    materialised); writing the witness files is the caller's
    business. *)
