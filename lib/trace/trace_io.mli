(** Trace input/output.

    The Trace Generator of the real DroidRacer logs operations to a file
    that the Race Detector analyses offline (Section 5); this module is
    the corresponding on-disk format.  One operation per line:

    {v
    # comment
    t1 threadinit
    t1 attachq
    t1 looponq
    t0 post LAUNCH_ACTIVITY#0 t1
    t0 post REFRESH#0 t1 delay=500
    t1 begin LAUNCH_ACTIVITY#0
    t1 write DwFileAct.isActivityDestroyed@1
    t1 acquire dbLock
    t1 enable onDestroy#0
    v}

    Blank lines and [#] comments are ignored.  [print] then [parse] is
    the identity on traces (property-tested).

    Files are consumed by a {e streaming} reader: {!load},
    {!fold_events} and {!read} parse one line at a time and never
    materialise the whole file as a string, so multi-million-event
    traces stream through in constant memory (plus, for the readers
    that build a {!Trace.t}, the events themselves).

    Every streaming reader also accepts the {e binary} trace format of
    {!Binfmt} transparently: the first four bytes of the input are
    sniffed and, when they match {!Binfmt.magic}, the stream is handed
    to the binary decoder.  (No valid text trace can collide with the
    magic: text lines start with [t<n>], [#] or whitespace.)  For binary
    inputs the [line] passed to the fold callbacks is the 1-based event
    ordinal, and errors are located by byte offset and event index
    ({!constructor:Binary}) instead of line/column. *)

val print_event : Format.formatter -> Trace.event -> unit
(** One event in the line format (no trailing newline);
    {!parse_event} inverts it.  For writers that emit events as they
    are generated instead of materialising a {!Trace.t}. *)

val print : Format.formatter -> Trace.t -> unit
(** One {!print_event} line per position, read from the trace's columns
    and memoised operations ({!Trace.thread}, {!Trace.op}): no event is
    rebuilt. *)

val to_string : Trace.t -> string

(** {1 Structured parse errors} *)

type parse_error =
  { pe_line : int  (** 1-based; 0 when parsing a bare line *)
  ; pe_column : int  (** 1-based byte column of the offending token *)
  ; pe_token : string option  (** the offending token, verbatim *)
  ; pe_message : string  (** what was expected *)
  }

val pp_parse_error : Format.formatter -> parse_error -> unit
(** ["line L, column C: message (at "token")"]. *)

val parse_error_message : parse_error -> string

type read_error =
  | Parse of parse_error
  | Binary of Binfmt.error  (** located binary decode error *)
  | Ill_formed of string  (** structurally invalid ({!Trace.of_events}) *)
  | Io of string  (** file system errors *)

val pp_read_error : Format.formatter -> read_error -> unit

val read_error_message : read_error -> string

(** {1 Parsing} *)

val parse_event_located :
  ?line:int -> string -> (Trace.event option, parse_error) result
(** Parses one line; [Ok None] for blank/comment lines.  Every error
    carries the column and token that failed (and [line], default 0,
    as [pe_line]). *)

val parse_event : string -> (Trace.event option, string) result
(** {!parse_event_located} with the error rendered as a string (column
    and token context included, no line prefix). *)

val parse : string -> (Trace.t, string) result
(** Parses a whole trace from an in-memory string.  Errors are prefixed
    with the 1-based line number and include the column and offending
    token. *)

(** {1 Streaming input} *)

val fold_channel :
  In_channel.t ->
  init:'a ->
  f:('a -> line:int -> Trace.event -> 'a) ->
  ('a, read_error) result
(** Folds [f] over the events of a channel, dispatching on the sniffed
    format.  Text inputs are consumed one line at a time (blank and
    comment lines are skipped; [line] is the 1-based line number);
    binary inputs are decoded record by record ([line] is the 1-based
    event ordinal).  Constant memory beyond the accumulator.  Never
    returns [Ill_formed] or [Io]. *)

val fold_events :
  string ->
  init:'a ->
  f:('a -> line:int -> Trace.event -> 'a) ->
  ('a, read_error) result
(** {!fold_channel} on the named file ([Io] on open/read failure). *)

val read : In_channel.t -> (Trace.t, read_error) result
(** Reads a whole trace from a channel via the streaming reader. *)

val load : string -> (Trace.t, string) result
(** Reads a trace from the named file (streaming; the file is never
    held in memory as one string). *)

val save : string -> Trace.t -> unit
(** Writes a trace to the named file. *)
