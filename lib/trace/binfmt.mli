(** Versioned binary trace codec.

    The textual format of {!Trace_io} is convenient to write by hand but
    expensive to parse: every event costs a line split, several substring
    allocations and an [of_string] per identifier.  This module defines a
    compact binary encoding of the same event streams, built for
    corpus-scale ingestion:

    - a 4-byte magic ({!magic}) plus a version byte pin the schema, the
      same header discipline as the supervision journal;
    - an interned identifier table up front, extensible mid-stream via
      [DEF] records, so identifier strings are written once;
    - one tag byte per event followed by LEB128 varints, with
      delta-encoded thread ids and per-name delta-encoded task instances,
      so the common "post/begin/end on nearby threads" patterns cost a
      handful of bytes.

    The decoder reads through a reusable buffer and memoises decoded
    identifiers, so steady-state decoding allocates no per-event strings.
    Decode errors carry the absolute byte offset and the 0-based index of
    the event being decoded instead of the line/column of text parses.

    The byte-level layout is specified in DESIGN.md ("Binary trace
    format"). *)

val magic : string
(** ["DRTB"] — the first four bytes of every binary trace. *)

val version : int
(** Current format version, stored in the byte after the magic.
    Decoders reject any other value. *)

val is_magic : string -> bool
(** Whether a byte string begins with {!magic} (used by {!Trace_io} to
    sniff the format). *)

(** {1 Errors} *)

type error =
  { be_offset : int  (** absolute byte offset where decoding failed *)
  ; be_index : int  (** 0-based index of the event being decoded *)
  ; be_message : string
  }

val pp_error : Format.formatter -> error -> unit

val error_message : error -> string

(** {1 Encoding} *)

type encoder
(** A streaming encoder.  Events are buffered and flushed to the
    underlying sink in large chunks. *)

val encoder : ?idents:string list -> (string -> unit) -> encoder
(** [encoder ?idents out] writes the header through [out].  [idents] is
    an optional up-front identifier universe (duplicates are dropped);
    identifiers encountered later are defined mid-stream via [DEF]
    records, so the list is a size optimisation, never a correctness
    requirement. *)

val encode : encoder -> Trace.event -> unit

val flush : encoder -> unit
(** Flushes buffered bytes to the sink.  Must be called after the last
    {!encode}; the [with_]/[write_] wrappers below do it for you. *)

val encoded : encoder -> int
(** Number of events encoded so far. *)

val with_channel_encoder :
  ?idents:string list -> Out_channel.t -> (encoder -> 'a) -> 'a
(** Runs the callback with an encoder over the channel and flushes
    (but does not close) on the way out, including on exceptions. *)

val write_file :
  ?idents:string list -> string -> ((Trace.event -> unit) -> 'a) -> 'a
(** [write_file path f] opens [path], hands [f] an emit function and
    closes the file when [f] returns. *)

val save : ?idents:string list -> string -> Trace.t -> unit
(** Encodes a trace to the named file, reading its columns and memoised
    operations ({!Trace.thread}, {!Trace.op}): no event is rebuilt. *)

val encode_events_to_string :
  ?idents:string list -> Trace.event list -> string
(** In-memory encoding (tests and benchmarks). *)

(** {1 Decoding}

    All folds pass [f] the 0-based event index.  A [clean] end of input
    is only recognised at a record boundary; anything else — truncation,
    unknown tags, out-of-range identifier indices, malformed identifier
    strings, a stale version byte — yields a located [error]. *)

val fold_after_magic :
  ?base_offset:int ->
  In_channel.t ->
  init:'a ->
  f:('a -> index:int -> Trace.event -> 'a) ->
  ('a, error) result
(** Decode a channel positioned just past the magic bytes (the caller
    sniffed them).  [base_offset] (default [4]) is the number of bytes
    already consumed, so reported offsets stay absolute. *)

val fold_channel :
  In_channel.t ->
  init:'a ->
  f:('a -> index:int -> Trace.event -> 'a) ->
  ('a, error) result
(** Like {!fold_after_magic} but checks the magic itself. *)

val fold_string :
  string ->
  init:'a ->
  f:('a -> index:int -> Trace.event -> 'a) ->
  ('a, error) result
(** Decode a complete in-memory byte string, magic included. *)

val decode_string : string -> (Trace.event list, error) result

(** {1 Decoding into a trace}

    The same record reader feeds a {!Trace.Builder} directly: no event
    is made.  The codec's identifier indices number the trace's
    identifiers — a location by its memoised [(class, field, object)],
    a task by its name's instance memo, a lock by its index — so no
    task or location is hashed per event.  An index remap maps every
    identifier index to the first index defining the same string, so a
    string defined twice still names one identifier.  Identifiers are
    validated on their first use in each role, at the same event and
    with the same message as the folds.  A structural violation does
    not stop decoding (the builder keeps the first one, see
    {!Trace.Builder.finish}), so a later decode error still takes
    precedence. *)

val build_after_magic :
  ?base_offset:int -> In_channel.t -> Trace.Builder.t -> (unit, error) result
(** Decodes a channel positioned just past the magic bytes into the
    builder. *)

val build_string : string -> Trace.Builder.t -> (unit, error) result
(** Decodes a complete in-memory byte string, magic included, into the
    builder. *)
