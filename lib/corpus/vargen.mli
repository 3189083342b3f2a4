open! Import

(** Corpus-scale variant generation.

    Derives thousands of distinct {!Longtrace} app variants from one
    (seed, index) pair: randomized lifecycle/thread/queue mixes (looper
    counts, location/lock pool sizes, fork and lock cadences) with
    planted ground-truth races, each sized so the full planting window
    is always emitted.  Variants are pure functions of the derivation
    inputs, so a corpus can be regenerated bit-identically anywhere —
    in text or binary — and swept by the sharded, journaled,
    process-isolated workers of {!Droidracer_report.Supervisor}. *)

type variant =
  { v_index : int
  ; v_name : string  (** ["variant-<index>"], zero-padded *)
  ; v_config : Longtrace.config
  ; v_events : int  (** events to emit for this variant *)
  ; v_planted : string list
        (** {!Longtrace.planted_locations} of the config — the recall
            oracle *)
  ; v_masked : string list
        (** {!Longtrace.masked_locations} of the config — the
            reordering-only recall oracle for the predictive gate
            (possibly empty; the dense engine never reports these) *)
  }

val variants : ?seed:int -> ?events:int -> count:int -> unit -> variant list
(** [variants ~count ()] derives [count] variants.  [events] (default
    4000) scales the per-variant trace length (each variant draws a
    length around it).  Every derived config satisfies the
    planted-race guarantee of {!Longtrace}: [loopers >= 2] and
    [planted mod loopers <> 0]. *)

val filename : binary:bool -> variant -> string
(** ["<name>.drt"] (binary) or ["<name>.trace"] (text). *)

val write : dir:string -> binary:bool -> variant -> string
(** Writes the variant's trace under [dir] and returns the file path. *)

val manifest_json_string : binary:bool -> variant list -> string
(** The corpus manifest ([droidracer-corpus/1]): one record per variant
    with its file name, event count, shape parameters and planted race
    locations — what a corpus gate needs to check recall without
    re-deriving the configs. *)
