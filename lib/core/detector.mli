open! Import

(** The Race Detector (Section 5): trace in, classified races out.

    [analyze] removes cancelled posts (Section 4.2), builds the
    (optionally coalesced) trace graph, computes the happens-before
    relation, reports every pair of conflicting unordered accesses, and
    classifies each race.  The configuration switches drive the
    ablation experiments; defaults reproduce the paper's tool.

    The online vector-clock engine lives in {!Streaming_engine}; it
    trades the precision of the graph relation for a single forward
    pass, is selected here by [engine = Streaming], and is compared
    against this detector by the engine ablation. *)

(** Which engine decides the races. *)
type engine =
  | Dense
      (** the exact relation: {!Happens_before.compute}'s reachability
          matrix over graph nodes, then the node-pair scan of
          {!Race.detect} *)
  | Streaming
      (** one {!Streaming_engine} pass over the events, never
          materialising the matrix; its clock relation over-approximates
          ⪯, so its races are a subset of [Dense]'s *)

val engine_name : engine -> string
(** ["dense"] or ["streaming"]: the name the CLI, the wire protocol,
    responses, the journal and telemetry use. *)

type config =
  { coalesce : bool  (** merge contiguous access runs (Section 6) *)
  ; engine : engine
  ; hb : Happens_before.config
        (** the rule switches of the relation ([Dense] only) *)
  }

val default_config : config

val no_environment_model : config
(** The paper's tool without [enable] modelling: demonstrates the false
    positives that the environment model eliminates (Section 2.4,
    "Modeling the runtime environment"). *)

type classified_race =
  { race : Race.t
  ; category : Classify.category
  }

type report =
  { trace : Trace.t
      (** the analysed trace (cancelled posts removed); race positions
          refer to it *)
  ; all_races : classified_race list
      (** every conflicting unordered pair *)
  ; distinct_races : classified_race list
      (** one representative per memory location and category — the
          counts Table 3 reports *)
  ; trace_stats : Trace.stats
  ; nodes : int  (** graph nodes after coalescing *)
  ; uncoalesced_nodes : int  (** = trace length *)
  ; hb_edges : int
  ; fixpoint_passes : int
      (** passes over the nodes: 1 under both engines, whose relation is
          one forward sweep *)
  ; hb_word_ors : int
      (** closure work metric, see {!Happens_before.word_ors} *)
  ; elapsed_seconds : float  (** wall-clock (monotonic across domains) *)
  ; phase_seconds : (string * float) list
      (** wall-clock breakdown of {!elapsed_seconds} by pipeline phase,
          in execution order (see {!phase_names}); always populated,
          telemetry enabled or not *)
  }

val phase_names : string list
(** The phases of [analyze], in order: ["filter_cancelled"],
    ["graph_build"], ["happens_before"], ["race_detect"],
    ["classify"]. *)

val streaming_phase_names : string list
(** The phases of [analyze] under the streaming engine:
    ["filter_cancelled"], ["streaming_detect"], ["classify"]. *)

val phase_seconds : report -> string -> float
(** [phase_seconds report name] is the wall time of the named phase
    (0.0 for an unknown name). *)

val analyze : ?config:config -> ?jobs:int -> Trace.t -> report
(** With [jobs > 1] (default 1) the conflicting-pair scan runs on a
    {!Par_pool} of domains.  Except for [elapsed_seconds], the report is
    bit-identical for every [jobs] value — determinism is an invariant
    of the parallel scan, not best-effort (see {!Race.detect}).

    When [config.engine] is [Streaming] the batch
    pipeline is replaced by one {!Streaming_engine} pass (phases
    {!streaming_phase_names}; single-pass, so [jobs] is irrelevant and
    the report is identical for every value): [nodes] counts clock
    slots, the matrix statistics are 0, races are a subset of the batch
    engines' (see {!Streaming_engine}), and co-enabled classification
    degrades to the later categories.  Callers with traces too large to
    materialise should stream via {!Streaming_engine.detect_file}
    instead — this entry point still holds the whole trace. *)

val relation : ?config:config -> Trace.t -> Happens_before.t
(** Just the happens-before relation of the (cancellation-filtered)
    trace, for callers that want to query orderings directly. *)

val count_by_category : classified_race list -> (Classify.category * int) list
(** Counts per category, in the fixed order multithreaded, cross-posted,
    co-enabled, delayed, unknown (the column order of Table 3). *)

val pp_report : Format.formatter -> report -> unit
