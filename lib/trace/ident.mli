(** Identifiers appearing in execution traces.

    The core language of the paper (Table 1) refers to threads, locks,
    asynchronously posted procedures (tasks) and heap memory locations.
    Each identifier kind gets its own module so that the type checker
    keeps them apart. *)

(** Thread identifiers.  The paper writes [t0], [t1], ... *)
module Thread_id : sig
  type t

  val make : int -> t
  (** [make n] is the thread identifier printed as [t<n>].
      @raise Invalid_argument if [n < 0]. *)

  val to_int : t -> int

  val equal : t -> t -> bool

  val compare : t -> t -> int

  val pp : Format.formatter -> t -> unit

  val to_string : t -> string

  val of_string : string -> t option
  (** Parses the [t<n>] form printed by {!pp}. *)

  module Set : Set.S with type elt = t

  module Map : Map.S with type key = t
end

(** Lock identifiers. *)
module Lock_id : sig
  type t

  val make : string -> t
  (** [make name] is the lock named [name].  Names must be non-empty and
      free of whitespace.
      @raise Invalid_argument otherwise. *)

  val name : t -> string

  val equal : t -> t -> bool

  val compare : t -> t -> int

  val pp : Format.formatter -> t -> unit

  val to_string : t -> string

  val of_string : string -> t option

  module Set : Set.S with type elt = t

  module Map : Map.S with type key = t

  module Table : Hashtbl.S with type key = t
  (** Keyed by {!equal}. *)
end

(** Identifiers of asynchronously posted tasks.

    Section 4.1 assumes every procedure occurs at most once in a trace,
    "met by uniquely renaming distinct occurrences of a procedure name".
    A task identifier is therefore a procedure name plus an instance
    number; two executions of [onProgressUpdate] become
    [onProgressUpdate#0] and [onProgressUpdate#1]. *)
module Task_id : sig
  type t

  val make : name:string -> instance:int -> t
  (** @raise Invalid_argument if the name is empty, contains whitespace
      or ['#'], or if [instance < 0]. *)

  val name : t -> string

  val instance : t -> int

  val equal : t -> t -> bool

  val compare : t -> t -> int

  val pp : Format.formatter -> t -> unit

  val to_string : t -> string

  val of_string : string -> t option
  (** Parses the [name#instance] form printed by {!pp}. *)

  module Set : Set.S with type elt = t

  module Map : Map.S with type key = t

  module Table : Hashtbl.S with type key = t
  (** Keyed by {!equal}: no string is built to look a task up. *)
end

(** A shared string-interning table.

    The binary trace codec ({!Binfmt}), which the corpus generator
    also writes through, needs a stable [string -> small int] mapping
    for identifier names.  Hoisting the table here keeps the numbering
    consistent between producers and consumers.  Indices are dense and
    assigned in first-seen order, so an interner doubles as an ordered
    ident table.  Repeated lookups bump the [trace.intern_hits]
    observability counter (a no-op unless telemetry is enabled). *)
module Interner : sig
  type t

  val create : ?size_hint:int -> unit -> t

  val intern : t -> string -> int
  (** [intern t s] is the index of [s], assigning the next dense index
      on first sight. *)

  val find_opt : t -> string -> int option
  (** Lookup without inserting. *)

  val get : t -> int -> string
  (** Inverse of {!intern}.
      @raise Invalid_argument if the index was never assigned. *)

  val length : t -> int
  (** Number of distinct strings interned so far. *)

  val iter : t -> (int -> string -> unit) -> unit
  (** [iter t f] applies [f idx name] in increasing index order. *)
end

(** Heap memory locations.

    A location is a field of an object: the evaluation counts distinct
    [class.field] pairs (the "Fields" column of Table 2) while races on
    different objects of the same class are considered separately
    (Section 6), so the object identity is part of the location. *)
module Location : sig
  type t

  val make : cls:string -> field:string -> obj:int -> t
  (** @raise Invalid_argument if [cls] or [field] is empty or contains
      whitespace, ['.'] or ['@'], or if [obj < 0]. *)

  val cls : t -> string

  val field : t -> string

  val obj : t -> int

  val hash : t -> int
  (** A hash of the class, field and object, computed once when the
      location is built: [equal a b] implies [hash a = hash b]. *)

  val field_key : t -> string
  (** [field_key l] is ["cls.field"], the key under which Table 2 counts
      distinct fields. *)

  val equal : t -> t -> bool
  (** Same class, field and object.  Physically equal locations are
      equal without a look at their strings. *)

  val compare : t -> t -> int

  val pp : Format.formatter -> t -> unit
  (** Prints [cls.field\@obj]. *)

  val to_string : t -> string

  val of_string : string -> t option

  module Set : Set.S with type elt = t

  module Map : Map.S with type key = t

  module Table : Hashtbl.S with type key = t
  (** Keyed by {!equal}, hashed by the stored {!hash}. *)
end

(** Hash tables keyed by integers (thread numbers, identifier indices)
    without polymorphic hashing or comparison. *)
module Int_table : Hashtbl.S with type key = int
