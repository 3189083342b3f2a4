(** Component lifecycle state machines (Section 4.2, Figure 8).

    The runtime environment drives each component of an application
    through a fixed sequence of callbacks.  Solid edges of Figure 8 are
    {e must} happen-after constraints, dashed edges {e may} happen-after:
    after a callback completes, exactly its may-successors become
    eligible — these are the points where the instrumented runtime emits
    [enable] operations.

    Besides activities, the paper's implementation handles Services and
    Broadcast Receivers; their (simpler) machines are here too. *)

(** Activity lifecycle callbacks. *)
type activity_callback =
  | On_create
  | On_start
  | On_resume
  | On_pause
  | On_stop
  | On_restart
  | On_destroy

val activity_callback_name : activity_callback -> string

val activity_callback_equal : activity_callback -> activity_callback -> bool

val pp_activity_callback : Format.formatter -> activity_callback -> unit

(** States of an activity (the grey nodes of Figure 8). *)
type activity_state =
  | Launched
  | Created  (** after onCreate *)
  | Started  (** after onStart, not in the foreground yet *)
  | Running  (** after onResume *)
  | Paused
  | Stopped
  | Destroyed

val activity_state_equal : activity_state -> activity_state -> bool

val pp_activity_state : Format.formatter -> activity_state -> unit

val initial_activity_state : activity_state

val activity_step :
  activity_state -> activity_callback -> (activity_state, string) result
(** Applies a callback to the machine; [Error] explains why the callback
    is not permitted in the state (a must/may-happen-after violation). *)

val activity_successors : activity_state -> activity_callback list
(** The callbacks that may happen next from a state: the [enable] set the
    runtime publishes after reaching it. *)

val launch_sequence : activity_callback list
(** The callbacks run synchronously by the LAUNCH_ACTIVITY handler:
    onCreate, onStart, onResume (Section 2.2). *)

val relaunch_sequence : activity_callback list
(** Return to the foreground from [Stopped]: onRestart, onStart,
    onResume. *)

val teardown_sequence : activity_callback list
(** Leaving the screen for good: onPause, onStop, onDestroy. *)

(** {1 Services} *)

type service_callback =
  | Svc_create
  | Svc_start_command
  | Svc_destroy

val service_callback_name : service_callback -> string

type service_state =
  | Svc_new
  | Svc_created
  | Svc_started
  | Svc_destroyed

val initial_service_state : service_state

val service_step :
  service_state -> service_callback -> (service_state, string) result

val service_successors : service_state -> service_callback list
