(** Operations of the core concurrency language (Table 1 of the paper).

    Every operation is executed by a thread; the executing thread lives in
    the enclosing {!Event.t}, not here.  Besides the operations of
    Table 1, this module models the two task-management refinements of
    Section 4.2: delayed posts and posts to the front of the queue are
    flavours of {!constructor:Post}, and task cancellation is the
    explicit {!constructor:Cancel} operation (the paper handles
    cancellation by deleting the corresponding post from the trace, which
    {!Trace.remove_cancelled} implements). *)

(** How a task was enqueued. *)
type post_flavour =
  | Immediate  (** ordinary FIFO post *)
  | Delayed of int
      (** post with a timeout in milliseconds; executed when the timeout
          expires (Section 4.2, case 1) *)
  | Front
      (** post to the front of the queue, overriding FIFO (Section 4.2,
          case 3; the paper defers its happens-before treatment to future
          work, so the detector derives no FIFO edges for it) *)

type t =
  | Thread_init  (** start executing the current thread *)
  | Thread_exit  (** complete executing the current thread *)
  | Fork of Ident.Thread_id.t  (** create a thread *)
  | Join of Ident.Thread_id.t  (** consume a completed thread *)
  | Attach_queue  (** attach a task queue to the current thread *)
  | Loop_on_queue  (** begin executing procedures in the queue *)
  | Post of
      { task : Ident.Task_id.t
      ; target : Ident.Thread_id.t
      ; flavour : post_flavour
      }  (** post [task] asynchronously to thread [target] *)
  | Begin_task of Ident.Task_id.t  (** start executing a posted task *)
  | End_task of Ident.Task_id.t  (** finish executing a posted task *)
  | Acquire of Ident.Lock_id.t
  | Release of Ident.Lock_id.t
  | Read of Ident.Location.t
  | Write of Ident.Location.t
  | Enable of Ident.Task_id.t
      (** the environment may now trigger the event handled by the task *)
  | Cancel of Ident.Task_id.t
      (** revoke a previously posted task (Section 4.2, case 2) *)

val equal : t -> t -> bool

val compare : t -> t -> int

val pp : Format.formatter -> t -> unit

val mnemonic : t -> string
(** The keyword used by the textual trace format, e.g. ["post"]. *)

val accessed_location : t -> Ident.Location.t option
(** The memory location read or written, if any. *)

val is_write : t -> bool

val conflicts : t -> t -> bool
(** Two operations conflict if they access the same memory location and
    at least one is a write (Section 2.4). *)

val is_synchronization : t -> bool
(** Everything except reads, writes, enables and cancels.  Runs of
    non-synchronization access operations are coalesced into single graph
    nodes by the detector's optimisation (Section 6, "Performance"). *)
