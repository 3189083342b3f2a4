let no_whitespace s = not (String.exists (fun c -> c = ' ' || c = '\t' || c = '\n') s)

module Thread_id = struct
  type t = int

  let make n =
    if n < 0 then invalid_arg "Thread_id.make: negative id";
    n

  let to_int t = t
  let equal = Int.equal
  let compare = Int.compare
  let pp ppf t = Format.fprintf ppf "t%d" t
  let to_string t = "t" ^ string_of_int t

  let of_string s =
    if String.length s >= 2 && s.[0] = 't' then
      int_of_string_opt (String.sub s 1 (String.length s - 1))
      |> Option.map (fun n -> if n < 0 then None else Some n)
      |> Option.join
    else None

  module Set = Set.Make (Int)
  module Map = Map.Make (Int)
end

module Lock_id = struct
  type t = string

  let make name =
    if name = "" || not (no_whitespace name) then
      invalid_arg "Lock_id.make: empty name or whitespace";
    name

  let name t = t
  let equal = String.equal
  let compare = String.compare
  let pp ppf t = Format.pp_print_string ppf t
  let to_string t = t
  let of_string s = if s = "" || not (no_whitespace s) then None else Some s

  module Set = Set.Make (String)
  module Map = Map.Make (String)
end

module Task_id = struct
  type t = { name : string; instance : int }

  let make ~name ~instance =
    if name = "" || not (no_whitespace name) || String.contains name '#' then
      invalid_arg "Task_id.make: invalid name";
    if instance < 0 then invalid_arg "Task_id.make: negative instance";
    { name; instance }

  let name t = t.name
  let instance t = t.instance
  let equal a b = Int.equal a.instance b.instance && String.equal a.name b.name

  let compare a b =
    match String.compare a.name b.name with
    | 0 -> Int.compare a.instance b.instance
    | c -> c

  let pp ppf t = Format.fprintf ppf "%s#%d" t.name t.instance
  let to_string t = t.name ^ "#" ^ string_of_int t.instance

  let of_string s =
    match String.index_opt s '#' with
    | None -> None
    | Some i ->
      let name = String.sub s 0 i in
      let rest = String.sub s (i + 1) (String.length s - i - 1) in
      (match int_of_string_opt rest with
       | Some instance when instance >= 0 && name <> "" && no_whitespace name ->
         Some { name; instance }
       | Some _ | None -> None)

  module Ord = struct
    type nonrec t = t

    let compare = compare
  end

  module Set = Set.Make (Ord)
  module Map = Map.Make (Ord)

  module Table = Hashtbl.Make (struct
      type nonrec t = t

      let equal = equal
      let hash = Hashtbl.hash
    end)
end

module Interner = struct
  type t =
    { table : (string, int) Hashtbl.t
    ; mutable names : string array
    ; mutable count : int
    }

  let create ?(size_hint = 64) () =
    { table = Hashtbl.create size_hint
    ; names = Array.make (max 1 size_hint) ""
    ; count = 0
    }

  let length t = t.count

  let grow t =
    let names = Array.make (2 * Array.length t.names) "" in
    Array.blit t.names 0 names 0 t.count;
    t.names <- names

  let intern t s =
    match Hashtbl.find_opt t.table s with
    | Some idx ->
      Droidracer_obs.Obs.add "trace.intern_hits";
      idx
    | None ->
      let idx = t.count in
      if idx >= Array.length t.names then grow t;
      t.names.(idx) <- s;
      t.count <- idx + 1;
      Hashtbl.add t.table s idx;
      idx

  let find_opt t s = Hashtbl.find_opt t.table s

  let get t idx =
    if idx < 0 || idx >= t.count then
      invalid_arg (Printf.sprintf "Interner.get: index %d out of bounds" idx);
    t.names.(idx)

  let iter t f =
    for idx = 0 to t.count - 1 do
      f idx t.names.(idx)
    done
end

module Location = struct
  (* [hash] is a function of the other three fields, computed once at
     construction so that hash tables keyed on locations never rehash
     the strings. *)
  type t = { cls : string; field : string; obj : int; hash : int }

  let valid_part s =
    let rec ok i =
      i = String.length s
      ||
      match String.unsafe_get s i with
      | ' ' | '\t' | '\n' | '.' | '@' -> false
      | _ -> ok (i + 1)
    in
    s <> "" && ok 0

  let build cls field obj =
    let hash =
      (((Hashtbl.hash cls * 31) + Hashtbl.hash field) * 31) + obj
    in
    { cls; field; obj; hash = hash land max_int }

  let make ~cls ~field ~obj =
    if not (valid_part cls) then invalid_arg "Location.make: invalid class";
    if not (valid_part field) then invalid_arg "Location.make: invalid field";
    if obj < 0 then invalid_arg "Location.make: negative object id";
    build cls field obj

  let cls t = t.cls
  let field t = t.field
  let obj t = t.obj
  let hash t = t.hash
  let field_key t = t.cls ^ "." ^ t.field

  let equal a b =
    a == b
    || Int.equal a.hash b.hash && Int.equal a.obj b.obj
       && String.equal a.field b.field && String.equal a.cls b.cls

  let compare a b =
    match String.compare a.cls b.cls with
    | 0 ->
      (match String.compare a.field b.field with
       | 0 -> Int.compare a.obj b.obj
       | c -> c)
    | c -> c

  let pp ppf t = Format.fprintf ppf "%s.%s@%d" t.cls t.field t.obj
  let to_string t = t.cls ^ "." ^ t.field ^ "@" ^ string_of_int t.obj

  let of_string s =
    match String.index_opt s '.', String.index_opt s '@' with
    | Some i, Some j when i < j ->
      let cls = String.sub s 0 i in
      let field = String.sub s (i + 1) (j - i - 1) in
      let rest = String.sub s (j + 1) (String.length s - j - 1) in
      (match int_of_string_opt rest with
       | Some obj when obj >= 0 && valid_part cls && valid_part field ->
         Some (build cls field obj)
       | Some _ | None -> None)
    | Some _, (Some _ | None) | None, (Some _ | None) -> None

  module Ord = struct
    type nonrec t = t

    let compare = compare
  end

  module Set = Set.Make (Ord)
  module Map = Map.Make (Ord)

  module Table = Hashtbl.Make (struct
      type nonrec t = t

      let equal = equal
      let hash = hash
    end)
end

(* The hash folds the high bits onto the low ones, which pick the
   bucket: Binfmt's location memo packs two identifier indices in a
   key. *)
module Int_table = Hashtbl.Make (struct
    type t = int

    let equal = Int.equal
    let hash x = (x lxor (x lsr 21)) land max_int
  end)
