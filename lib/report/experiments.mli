open! Import

(** Drivers that regenerate every table and figure of the paper's
    evaluation (Section 6), in the shape of {!Table} values.  The bench
    executable and the [droidracer] CLI print them; EXPERIMENTS.md
    records paper-versus-measured for a reference run. *)

(** One application of the corpus, executed and analysed — a completed
    row of [Supervisor.run_catalog]. *)
type app_run =
  { ar_built : Synthetic.built
  ; ar_result : Runtime.run_result
  ; ar_report : Detector.report
  ; ar_engine : string
        (** the engine that ran ({!Detector.engine_name}), budget
            fallbacks applied *)
  }

val table2 : app_run list -> Table.t
(** Table 2: per-application trace statistics, paper vs measured.
    Binder threads are excluded from the thread counts, as in the
    paper. *)

val table3 : ?verify:bool -> ?attempts:int -> app_run list -> Table.t
(** Table 3: data races per category, paper vs measured.  With [verify]
    (default true) each open-source plant is re-scheduled by
    {!Verify.verify} and the measured true-positive counts come from the
    confirmed plants; proprietary rows show report counts only, as in
    the paper. *)

val performance_table : app_run list -> Table.t
(** The Section 6 "Performance" summary: graph nodes before and after
    coalescing (the paper reports 1.4–24.8 %, average 11.1 %),
    happens-before pairs, fixpoint passes and analysis time. *)

val baseline_table : app_run list -> Table.t
(** The specialization ablation: multithreaded-only, event-driven-only
    and naïve-combined happens-before versus the paper's relation
    (missed races = false negatives, extra = additional reports). *)

val engine_table : app_run list -> Table.t
(** Precise graph engine versus the online vector-clock engine
    ({!Streaming_engine} under [ablation_config]): race counts and
    analysis times. *)

val coverage_table : app_run list -> Table.t
(** Race coverage (reference [24]): how many root races remain after
    grouping, per application — the triage reduction Section 6 suggests
    for ad-hoc-synchronization false positives. *)

val front_rule_table : app_run list -> Table.t
(** The front-of-queue extension (deferred by the paper to future work):
    with the LIFO pre-emption rule enabled, the unknown-category races —
    which this corpus plants through front posts — are ordered away. *)

val environment_model_table : unit -> Table.t
(** The enable-modelling ablation on the music player: without the
    environment model, the Figure 4 false positive appears
    (Section 2.4). *)

val lifecycle_table : unit -> Table.t
(** Figure 8: the activity lifecycle machine as a state/successor
    table. *)

val music_player_summary : unit -> Table.t
(** The motivating example: races of the PLAY and BACK scenarios with
    classification and verification verdicts. *)
