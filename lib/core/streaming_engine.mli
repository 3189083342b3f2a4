open! Import

(** Bounded-memory streaming race detection with vector clocks.

    A single forward pass that consumes events as they arrive — from an
    in-memory trace, a channel, or a file via {!Trace_io.fold_channel}
    — and never materialises the trace.

    {2 Transition system}

    Every asynchronous-task instance and every thread segment outside a
    task owns a clock slot, and every event ticks the executing slot.
    The edges of the happens-before relation become clock merges:

    - fork/join, post→begin, enable→post, attachQ→post and
      loopOnQ→begin merge the stored source clock into the destination
      context;
    - FIFO: at [begin p₂], the end clock of every earlier task [p₁] on
      the thread is merged in when [p₂]'s post knows [p₁]'s post and
      the post flavours are compatible (Section 4.2's refined rule);
    - NOPRE: likewise when [p₂]'s post already knows any operation of
      [p₁];
    - release→acquire merges the lock's clock {e unconditionally}.  A
      vector clock cannot express the paper's restriction that lock
      edges order only operations of different threads, so the engine
      over-approximates ⪯ exactly in the way Section 1 warns about, and
      consequently {e under}-reports races on traces with locks.

    An access races with every conflicting frontier entry of its
    location (below) whose epoch the accessing clock does not know.

    {2 Bounded memory}

    Four choices bound resident memory by the number of {e live}
    entities instead of the event count and make an event cost
    O(live slots), not O(history):

    - clocks are dense [int array]s indexed by slot: a tick is one
      store, a join an in-place pointwise-max loop.  Only the executing
      context's clock is ever mutated; every clock stored in a table is
      a copy of it (at [end] and [exit] the context's clock is handed
      over instead);
    - per-location access history is an adaptive {!Epoch} frontier
      (last-write / last-read epochs, vector fallback on read shares)
      instead of the full access list;
    - the FIFO premise compares post {e epochs} instead of whole
      clocks, so no comparison ever scans a clock — which is what makes
      slot retirement sound;
    - incremental GC: consumed synchronization clocks are dropped at
      their single use, completed tasks beyond a window are folded into
      one per-thread clock, exited threads release their contexts, and
      a periodic sweep zeroes the column of every retired slot in every
      resident clock and puts the slot on a free list for reuse, so
      array widths track the slots in use, not the slots ever handed
      out (and shrinks a clock whose non-zero prefix is under half its
      width: exit clocks outlive their threads).

    The recycling invariant: a slot is reused only after its column is
    zeroed in every resident clock, so a reused slot reads 0 everywhere
    just as a fresh one would; and a slot is retired only when nothing
    can ask about it again — no frontier entry, completed record,
    pending post or context holds it, and the in-flight post of a
    running task (which becomes a completed record's FIFO epoch at
    [end]) counts as live.

    {2 Correctness contract}

    Every mechanism above moves in one direction only: folding and the
    unconditional lock merge {e add} orderings (losing races), frontier
    and slot GC drop only state that provably cannot change a future
    answer.  Hence (property-tested, jobs ∈ {1, 4}, under both
    {!default_config} and {!ablation_config}):

    - {e soundness of reports}: every race this engine reports is also
      reported by the worklist (and dense) batch engine;
    - {e coverage on lock-free traces}: for every location, the set of
      trace positions this engine reports as the {e second} access of a
      race equals the batch engine's — each racy access is flagged when
      it happens, though the racing {e partner} may be a later,
      subsuming access rather than every historical one (the frontier
      keeps pairwise-unordered representatives, not the full history).

    On traces with locks the engine under-reports relative to the graph
    relation, by the lock over-approximation above; window folding can
    under-report further on long looper histories, which
    {!ablation_config} turns off. *)

type config =
  { completed_window : int
        (** completed-task records kept per thread for exact FIFO/NOPRE
            before folding (default 64) *)
  ; gc_interval : int
        (** events between retired-slot sweeps; 0 disables sweeping
            (default 4096) *)
  }

val default_config : config

val ablation_config : config
(** [{ completed_window = max_int; gc_interval = 0 }]: no window
    folding and no sweeps, so the lock merges are the only orderings
    the engine adds to the graph relation.  The engine ablation table
    ([Experiments.engine_table]) runs under it; memory then grows with
    the number of tasks and slots ever seen. *)

type stats =
  { events : int
  ; slots_allocated : int  (** clock slots handed out over the run *)
  ; live_slots : int  (** slots still referenced at the end *)
  ; peak_live_slots : int  (** max live slots seen at any sweep *)
  ; slots_retired : int  (** allocated minus live *)
  ; resident_clock_entries : int
        (** total non-zero entries across all resident clocks after
            the final sweep *)
  ; peak_clock_entries : int  (** max resident entries at any sweep *)
  ; fast_path : int  (** same-slot O(1) epoch overwrites *)
  ; promotions : int  (** epoch → vector (read share) *)
  ; demotions : int  (** vector → epoch *)
  ; comparisons : int  (** frontier entries examined by access checks *)
  ; folded_tasks : int  (** completed records evicted into the fold *)
  ; gc_sweeps : int
  ; clock_entries_merged : int
        (** clock entries scanned by joins and copies: the engine's
            clock work, O(live slots) per event *)
  ; races : int
  }

(** {1 Incremental feeding} *)

type t

val create : ?config:config -> unit -> t

val feed : t -> position:int -> Trace.event -> unit
(** Consumes the next event.  [position] is the 0-based index the
    event would have in the materialised trace; reported races carry
    these positions. *)

val races : t -> Race.t list
(** Races seen so far, in lexicographic position order. *)

val stats : t -> stats
(** Runs a sweep (so the gauges are current) and reports. *)

val finish : t -> Race.t list * stats
(** Final sweep, [Obs] counter flush, and results. *)

(** {1 Whole-input drivers} *)

val detect : ?config:config -> Trace.t -> Race.t list * stats
(** In-memory trace; positions are trace indices.  Unlike
    {!Detector.analyze} this does {e not} filter cancelled posts —
    feed it a {!Trace.remove_cancelled}'d trace to compare positions
    with the batch engines. *)

val detect_channel :
  ?config:config -> In_channel.t ->
  (Race.t list * stats, Trace_io.read_error) result

val detect_file :
  ?config:config -> string -> (Race.t list * stats, Trace_io.read_error) result
(** Streams the named file; memory stays proportional to live entities
    whatever the event count. *)

(** {1 Reporting} *)

val stats_json_string :
  ?label:string -> elapsed_seconds:float -> peak_rss_kb:int -> stats -> string
(** Schema [droidracer-streaming/1]: throughput (events, elapsed,
    events/sec), the race count, and the memory profile (peak live
    slots, retired slots, peak resident clock entries, peak RSS —
    callers read the latter from {!Obs.peak_rss_kb}).

    When telemetry is enabled, every GC sweep also appends
    [streaming.live_slots] and [streaming.resident_clock_entries]
    samples to the {!Obs} time-series store, so the engine's memory
    frontier is observable over time, not just as a final gauge. *)
