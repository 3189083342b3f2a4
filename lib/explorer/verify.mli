open! Import

(** Race verification by schedule perturbation.

    The paper validates reported races with the DDMS debugger: a race is
    a true positive when an {e alternate ordering of the racey memory
    accesses} can be produced — by stalling threads, changing the order
    of triggering events, or altering delays (Section 6).  This module
    applies the same criterion mechanically: re-execute the application
    under many seeded schedules (and, for co-enabled races, permuted
    event orders) and look for a run in which the two accesses appear in
    the opposite order.

    Orderings enforced by mechanisms the detector cannot see — ad-hoc
    flag synchronization, natively synchronised handoffs, large timeouts,
    widgets disabled by the other handler — survive every perturbation,
    so those races never flip: they are the false positives. *)

(** A schedule-independent description of one racey access: the
    location, the kind of access, the context — the enclosing
    asynchronous task (instance stripped) or the program-defined name of
    the executing thread — and the ordinal of the access among the
    context's accesses to that location. *)
type site

val site_of_access :
  thread_names:(Ident.Thread_id.t * string) list ->
  Trace.t ->
  Race.access ->
  site

val find_site :
  thread_names:(Ident.Thread_id.t * string) list ->
  Trace.t ->
  site ->
  int option
(** Position of the site's access in another trace of the same
    application, or [None] when the access did not occur there. *)

type witness =
  { w_seed : int
  ; w_events : Runtime.ui_event list
  ; w_first : int  (** position of the originally-second access *)
  ; w_second : int  (** position of the originally-first access *)
  }

type verdict =
  | Confirmed of witness  (** an alternate ordering was produced *)
  | Not_flipped of int  (** number of perturbed runs tried *)

val is_confirmed : verdict -> bool

val verify :
  ?attempts:int ->
  ?options:Runtime.options ->
  app:Program.app ->
  events:Runtime.ui_event list ->
  trace:Trace.t ->
  thread_names:(Ident.Thread_id.t * string) list ->
  Race.t ->
  verdict
(** [verify ~app ~events ~trace ~thread_names race] re-executes [app]
    under [attempts] (default 12) perturbed schedules: seeded
    interleavings, permuted event orders ("change the order of
    triggering events") and runs with the first access's context
    stalled ("stall certain threads using breakpoints") — searching for
    a run where the two access sites of [race] (located in [trace])
    occur in the reverse order. *)
