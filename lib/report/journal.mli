(** Append-only sweep journal: the crash-safety substrate under
    [Supervisor.run_catalog].

    A journal is a JSONL file (schema [droidracer-journal/1]).  Line 1
    is a header carrying the schema tag and an MD5 of the running
    executable; every further line is one finished app outcome:

    {v
    {"digest":"<md5>","app":"<name>","payload":"<base64>"}
    v}

    The payload is an opaque string (in practice a [Marshal]led
    supervisor outcome — which is why the binary digest matters: closure
    frames only round-trip through the image that wrote them).  The
    [digest] field seals [app] and the encoded payload together, so a
    record is either replayed exactly as written or not at all.

    Records are written with a single [write] followed by [Unix.fsync]:
    a sweep killed at any instant leaves at most one torn final line.
    Replay reads each line with [Json_parse] and tolerates torn or
    corrupt lines by skipping and counting them (counter
    [journal.torn]): a record is exactly one flat object of the three
    string fields above, in that order, and any other line — valid
    JSON or not — counts as torn; a header whose binary digest no longer
    matches discards every record as stale (counter [journal.stale])
    rather than feeding another binary's closures to [Marshal]. *)

type t

val schema : string
(** ["droidracer-journal/1"]. *)

val create : ?resume:bool -> string -> (t, string) result
(** [create path] starts a fresh journal, truncating whatever was at
    [path].  With [~resume:true] it first replays the existing file
    (missing file = fresh start), keeps every intact record, rewrites
    the file without the torn tail, and appends from there.  [Error]
    means the file exists but is not a journal this build can resume
    (bad header, wrong schema). *)

val prior : t -> (string * string) list
(** Intact [(app, payload)] records replayed by [~resume:true], in file
    order; empty for a fresh journal. *)

val torn_lines : t -> int
(** Corrupt or torn lines skipped during replay. *)

val stale_records : t -> int
(** Records discarded because the journal was written by a different
    executable image. *)

(** {1 Resume warnings}

    What replay silently repaired, as data: a torn final line (the
    expected scar of a SIGKILL mid-append) or a stale-binary discard.
    Callers surface these structurally — the daemon's health response
    carries them, the CLI prints {!warning_message} — and the same
    counts feed the [journal.torn] / [journal.stale] counters in
    [droidracer-metrics]. *)

type warning =
  | Torn_lines of int  (** corrupt/torn lines skipped on resume *)
  | Stale_records of int  (** intact records from a different binary *)

val warnings : t -> warning list
(** Nonempty iff replay repaired something; empty for a fresh journal. *)

val warning_message : warning -> string
(** Human-readable one-liner. *)

val warning_to_json : warning -> Json.t
(** One JSON object: [{"kind":…,"count":…,"message":…}]. *)

val warning_json : warning -> string
(** {!warning_to_json}, printed. *)

val append : t -> app:string -> payload:string -> unit
(** Durably append one record (single write + fsync).  Thread-safe. *)

val close : t -> unit
(** Close the underlying descriptor; further [append]s raise. *)
