(** A fixed-size pool of OCaml 5 domains for the analysis hot paths.

    The pool is a process-wide set of worker domains (at most
    [jobs - 1] of them; the calling domain always participates) fed by
    a shared task queue.  Workers are spawned lazily on the first
    parallel call, reused by every subsequent call, and joined by an
    [at_exit] handler, so client code never manages domain lifetimes.

    Determinism is part of the contract: {!parallel_map} returns
    results in input order and raises the exception of the
    lowest-indexed failing element, whatever interleaving the domains
    actually ran.  Callers are responsible for handing it functions
    whose per-element work is independent (the pair scan hands it
    disjoint node ranges for exactly this reason). *)

val default_jobs : unit -> int
(** [Domain.recommended_domain_count ()]: the default for every
    [--jobs] flag. *)

val parallel_map : jobs:int -> ('a -> 'b) -> 'a list -> 'b list
(** [parallel_map ~jobs f xs] is [List.map f xs] computed by up to
    [jobs] domains (the caller plus at most [jobs - 1] pool workers).

    - Results preserve input order.
    - If one or more applications raise, the exception of the
      lowest-indexed failing element is re-raised (with its backtrace)
      after every element has finished, so no work is left running.
    - It returns only after every pool worker that started on this map
      has finished, its telemetry included; a worker that picks the map
      up after it returned does nothing.
    - [jobs <= 1], the empty list and singleton lists take the
      sequential path and never touch the pool. *)

val quiesce : unit -> unit
(** Join every worker domain and return the pool to its initial (empty,
    restartable) state.  The next {!parallel_map} re-spawns workers as
    usual.  Call from the main domain with no parallel call in flight.

    Quiescing is {e not} enough to make [Unix.fork] legal again: the
    OCaml 5 runtime refuses [fork] once any domain has ever been
    spawned, even after every domain is joined.  Process isolation must
    therefore fork its workers before the first domain-parallel
    computation of the process; the quiesce before forking is a
    defensive cleanup, not a license. *)

val ranges : chunk:int -> int -> (int * int) list
(** [ranges ~chunk n] splits [0..n-1] into half-open [(lo, hi)]
    intervals of [chunk] indices (the last may be shorter).  The
    partition depends only on [chunk] and [n]. *)
