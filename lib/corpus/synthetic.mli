open! Import

(** Synthetic application generator.

    The paper evaluates DroidRacer on 15 real applications; a sealed
    OCaml container has neither their binaries nor a Dalvik VM, so each
    application is replaced by a synthetic model tuned to the paper's
    per-application measurements: the Table 2 workload shape (trace
    length, distinct fields, thread and async-task counts) and the
    Table 3 race population (count per category, with the intended
    true/false-positive split realised by concrete mechanisms:
    unsynchronised sharing for true races; ad-hoc flag handoffs,
    untracked native posts, disabled widgets, large timeouts and
    front-of-queue posts for false positives).

    Generation is deterministic.  Each spec carries its filler volume
    ([s_filler]) as a constant, so {!build} runs no interpreter;
    {!calibrate} is the loop that finds the volume for a new spec, sizing
    the filler workload until the observed trace length lands within a
    few percent of the Table 2 target. *)

(** How a planted race is realised, and whether an alternate order of
    its accesses is actually reachable (the ground truth the verifier
    should rediscover). *)
type plant =
  { p_category : Classify.category
  ; p_genuine : bool
  ; p_mechanism : string  (** human-readable description *)
  ; p_locations : Ident.Location.t list
      (** racy locations contributed; one distinct race each *)
  }

(** Per-application targets, transcribed from Tables 2 and 3.  Race
    targets are [(reports, true_positives)]; for proprietary apps the
    paper could not determine true positives, so the split is a
    plausible default. *)
type spec =
  { s_name : string
  ; s_loc : int  (** lines of code reported by the paper (metadata) *)
  ; s_proprietary : bool
  ; s_trace_length : int
  ; s_fields : int
  ; s_threads_without_queue : int
  ; s_threads_with_queue : int
  ; s_async_tasks : int
  ; s_multithreaded : int * int
  ; s_cross_posted : int * int
  ; s_co_enabled : int * int
  ; s_delayed : int * int
  ; s_unknown : int * int
  ; s_event_bound : int  (** length of UI sequences the paper used *)
  ; s_seed : int
  ; s_filler : int
      (** filler accesses spread over the filler contexts: the value
          {!calibrate} converges to for this spec *)
  }

type built =
  { b_spec : spec
  ; b_app : Program.app
  ; b_events : Runtime.ui_event list
      (** the representative test of Table 2/3 *)
  ; b_options : Runtime.options
  ; b_plants : plant list
  }

val build : spec -> built
(** Deterministically builds the application with [s_filler] filler
    accesses.  The interpreter does not run.
    @raise Invalid_argument when the spec is inconsistent (e.g. fewer
    fields than planted races need). *)

val calibrate : spec -> int
(** The filler volume that brings the observed trace of the
    representative test within 2% of [s_trace_length]: multiplicative
    updates from [s_trace_length - 200], at most seven interpreter runs.
    [s_filler] of the spec is ignored.  Run it once for a new spec and
    store the result in [s_filler]. *)

val plant_of_location : built -> Ident.Location.t -> plant option
(** The plant that owns a racy location, for grouping verification. *)
