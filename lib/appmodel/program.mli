open! Import

(** The modeled-application language.

    Real DroidRacer instruments the Dalvik interpreter and runs
    unmodified application binaries; in this reproduction, applications
    are written in this small language and executed by {!Runtime}, which
    plays the roles of the Dalvik VM, the Android libraries and the
    Trace Generator at once.  The language covers the concurrency
    surface the paper analyses — field accesses, monitors, threads with
    and without loopers, asynchronous posts with delays / front posting
    / cancellation, AsyncTask, activity lifecycles, services, broadcast
    receivers — plus the untracked mechanisms (natively created threads,
    ad-hoc flag synchronization) responsible for the false positives and
    negatives discussed in Section 6.  A run builds its full
    (ground-truth) trace lazily, only when {!Runtime.run_result} [full]
    is forced. *)

(** A field of an object, the unit of race detection: the location that
    the interpreter's [read] and [write] operations carry as is. *)
type field = Ident.Location.t

val field : ?obj:int -> cls:string -> string -> field
(** [field ~cls name] is field [name] of object [obj] (default [0]) of
    class [cls], validated eagerly, once, by {!Ident.Location.make}.
    @raise Invalid_argument on an invalid class or field name or a
    negative [obj]. *)

(** Where a post is directed. *)
type target =
  | Main_thread
  | Named_thread of string  (** a looper thread created by {!Fork_looper} *)

type stmt =
  | Read of field
  | Write of field
  | Synchronized of string * stmt list  (** Java monitor *)
  | Fork of string * stmt list
      (** plain background thread; exits after its body *)
  | Fork_looper of string
      (** a HandlerThread: attaches a queue and serves posts *)
  | Join of string
  | Post of post
  | Cancel_last of string
      (** revoke the most recent pending post of the named procedure *)
  | Execute_async_task of async_spec
  | Publish_progress
      (** legal only inside [background] of an AsyncTask *)
  | Start_activity of string
  | Finish_activity  (** finish() on the current activity *)
  | Start_service of string
  | Stop_service of string
  | Send_broadcast of string  (** delivered to every matching receiver *)
  | Enable_ui of string
      (** enable a UI handler of the current activity, as
          [setEnabled(true)] does for the PLAY button of Figure 1 *)
  | Disable_ui of string
      (** disable a UI handler: the event can no longer fire.  Emits no
          trace operation — the source of co-enabled false positives
          where the two events cannot actually happen in parallel *)
  | Handoff_send of field
      (** ad-hoc synchronization: publish a flag.  Ordered at runtime,
          invisible to happens-before reasoning — a false-positive
          source (Section 6). *)
  | Handoff_wait of field
      (** block until the flag is published, then read it *)
  | Fork_native of string * stmt list
      (** a natively created thread: the Trace Generator logs only Java
          code, so nothing this thread does is instrumented — except
          posts, which the queue-side instrumentation sees (the Browser
          false positives of Section 6) *)

and post =
  { proc : string
  ; target : target
  ; delay : int option  (** virtual milliseconds *)
  ; front : bool
  }

and async_spec =
  { task_name : string
  ; pre : stmt list  (** onPreExecute, synchronous on the caller *)
  ; background : stmt list  (** doInBackground, on a fresh thread *)
  ; progress : stmt list  (** onProgressUpdate, posted to the caller *)
  ; post_exec : stmt list  (** onPostExecute, posted to the caller *)
  }

val post :
  ?delay:int -> ?front:bool -> ?target:target -> string -> stmt
(** [post "proc"] is an ordinary FIFO post of procedure [proc] to the
    main thread. *)

(** A UI event handler attached to an activity's screen. *)
type ui_handler =
  { event : string
  ; initially_enabled : bool
      (** enabled as soon as the screen shows; otherwise the activity
          must run {!Enable_ui} first *)
  ; handler_body : stmt list
  }

type activity =
  { activity_name : string
  ; on_create : stmt list
  ; on_start : stmt list
  ; on_resume : stmt list
  ; on_pause : stmt list
  ; on_stop : stmt list
  ; on_restart : stmt list
  ; on_destroy : stmt list
  ; ui : ui_handler list
  ; intent_filters : string list
      (** EXTENSION: intent actions this activity responds to.  The
          paper's tool "only generates UI events but not intents"
          (Section 8); the explorer here can also deliver intents to
          filtered activities. *)
  }

val activity :
  ?on_create:stmt list ->
  ?on_start:stmt list ->
  ?on_resume:stmt list ->
  ?on_pause:stmt list ->
  ?on_stop:stmt list ->
  ?on_restart:stmt list ->
  ?on_destroy:stmt list ->
  ?ui:ui_handler list ->
  ?intents:string list ->
  string ->
  activity

val handler : ?enabled:bool -> string -> stmt list -> ui_handler

type service =
  { service_name : string
  ; on_create_svc : stmt list
  ; on_start_command : stmt list
  ; on_destroy_svc : stmt list
  }

val service :
  ?on_create:stmt list ->
  ?on_start_command:stmt list ->
  ?on_destroy:stmt list ->
  string ->
  service

type receiver =
  { receiver_name : string
  ; action : string  (** the broadcast action it is registered for *)
  ; on_receive : stmt list
  }

type app =
  { app_name : string
  ; main_activity : string
  ; activities : activity list
  ; services : service list
  ; receivers : receiver list
  ; procs : (string * stmt list) list
      (** bodies of procedures referenced by {!Post} *)
  }

val app :
  ?activities:activity list ->
  ?services:service list ->
  ?receivers:receiver list ->
  ?procs:(string * stmt list) list ->
  name:string ->
  main:string ->
  unit ->
  app

val find_activity : app -> string -> activity option

val find_service : app -> string -> service option

val find_proc : app -> string -> stmt list option

val intent_actions : app -> string list
(** All distinct intent actions filtered by some activity (extension;
    see {!type:activity}). *)

val validate : app -> (unit, string) result
(** Checks that every name referenced by a statement (posted procedure,
    activity, service) is defined, that [Publish_progress] appears only
    inside AsyncTask backgrounds, that the main activity exists, and that
    every name the interpreter makes a monitor or a task of (monitors,
    procedures, handler events, activities, services, receivers,
    AsyncTasks) passes {!Ident.Lock_id.make} or {!Ident.Task_id.make}.
    The error names the path of the first violation. *)
