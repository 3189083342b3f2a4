(** The AsyncTask protocol (Section 2, Figure 2).

    [execute] runs [onPreExecute] synchronously on the calling thread,
    forks a background thread for [doInBackground], turns every
    [publishProgress] into an [onProgressUpdate] task posted back to the
    caller's thread, and finally posts [onPostExecute] there.  The
    phases below let the interpreter track where an AsyncTask instance
    stands and which posts remain to be issued. *)

type phase =
  | Pre_execute  (** onPreExecute running synchronously on the caller *)
  | In_background  (** doInBackground running on the forked thread *)
  | Awaiting_post_execute  (** background done; onPostExecute pending *)
  | Finished

val phase_name : phase -> string

type t

val create : name:string -> t
(** A fresh instance; task and callback names derive from [name]. *)

val name : t -> string

val phase : t -> phase

val advance : t -> (t, string) result
(** Moves to the next phase in protocol order; [Error] from
    [Finished]. *)

val progress_callback_name : t -> int -> string
(** Name of the [n]-th onProgressUpdate callback of this instance. *)

val post_execute_callback_name : t -> string

val background_thread_name : t -> string
