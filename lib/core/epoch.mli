(** Adaptive epoch ⊕ vector-clock access frontiers.

    FastTrack's key observation (Flanagan & Freund, PLDI'09) is that
    the last accesses to a memory location are almost always totally
    ordered, so a full vector of access times per location is wasted
    space: a single {e epoch} — one (clock slot, local time) pair —
    suffices until two genuinely concurrent accesses are seen.  This
    module is that representation, generalised over the payload carried
    with each access (the streaming engine stores a {!Race.access}):

    - {!Bottom}: no access recorded yet;
    - {!One}: a single epoch — the common case, updated in O(1) when
      the next access comes from the same slot (the same thread segment
      or task instance, hence program-ordered);
    - {!Many}: a read-share — a set of pairwise-unordered epochs keyed
      by slot, the vector-clock fallback.

    {!observe} maintains the {e frontier invariant}: the entries are
    pairwise unordered under the engine's clock relation, at most one
    per slot.  Entries ordered before the observing access are dropped
    — any later access unordered with a dropped entry is also unordered
    with whichever surviving entry subsumed it (clock knowledge is
    transitive: knowing an epoch means knowing the whole clock at that
    time), so per-location race {e coverage} is preserved even though
    the dropped pair itself is not reported. *)

module Int_map : Map.S with type key = int

type 'a entry =
  { slot : int  (** clock slot of the accessing segment *)
  ; time : int  (** the slot's local time at the access *)
  ; payload : 'a
  }

type 'a t =
  | Bottom
  | One of 'a entry
  | Many of 'a entry Int_map.t  (** keyed by slot; ≥ 2 entries *)

val bottom : 'a t

val cardinal : 'a t -> int

val entries : 'a t -> 'a entry list

val fold : ('a entry -> 'b -> 'b) -> 'a t -> 'b -> 'b

(** What {!observe} did, for the engine's telemetry. *)
type outcome =
  | Fast_path  (** same-slot O(1) epoch overwrite, clock never consulted *)
  | Promoted  (** an unordered entry forced {!One} → {!Many} *)
  | Demoted  (** dropping ordered entries collapsed {!Many} → {!One} *)
  | Stayed

val observe :
  clock:(int -> int) -> slot:int -> time:int -> 'a -> 'a t ->
  'a t * 'a entry list * outcome
(** [observe ~clock ~slot ~time payload t] records a new access whose
    segment clock is [clock] (a lookup: the local time the clock knows
    for a slot, 0 if none).  Returns the new frontier, plus the
    entries that were {e unordered} with the access (they remain in the
    frontier beside it — these are the racing predecessors the caller
    reports).  Entries the clock knows are dropped. *)

val unknown : clock:(int -> int) -> 'a t -> 'a entry list
(** The entries not known by [clock] — read-only race check, for
    accesses that must not enter this frontier (a read probing the
    write frontier). *)

val prune : clock:(int -> int) -> 'a t -> 'a t * int
(** Drops every entry [clock] knows without inserting anything (a write
    clearing the reads it is ordered after); returns the count
    dropped. *)
