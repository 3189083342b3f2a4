open! Import

let schema = "droidracer-journal/1"

(* {1 Base64}

   Inline RFC 4648 alphabet with padding; the toolchain ships no base64
   and the journal must not grow a dependency for one. *)

let b64_alphabet =
  "ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/"

let b64_encode s =
  let n = String.length s in
  let buf = Buffer.create ((n + 2) / 3 * 4) in
  let byte i = Char.code s.[i] in
  let emit i = Buffer.add_char buf b64_alphabet.[i] in
  let i = ref 0 in
  while !i + 2 < n do
    let w = (byte !i lsl 16) lor (byte (!i + 1) lsl 8) lor byte (!i + 2) in
    emit (w lsr 18);
    emit ((w lsr 12) land 63);
    emit ((w lsr 6) land 63);
    emit (w land 63);
    i := !i + 3
  done;
  (match n - !i with
   | 1 ->
     let w = byte !i lsl 16 in
     emit (w lsr 18);
     emit ((w lsr 12) land 63);
     Buffer.add_string buf "=="
   | 2 ->
     let w = (byte !i lsl 16) lor (byte (!i + 1) lsl 8) in
     emit (w lsr 18);
     emit ((w lsr 12) land 63);
     emit ((w lsr 6) land 63);
     Buffer.add_char buf '='
   | _ -> ());
  Buffer.contents buf

let b64_value c =
  match c with
  | 'A' .. 'Z' -> Some (Char.code c - Char.code 'A')
  | 'a' .. 'z' -> Some (Char.code c - Char.code 'a' + 26)
  | '0' .. '9' -> Some (Char.code c - Char.code '0' + 52)
  | '+' -> Some 62
  | '/' -> Some 63
  | _ -> None

let b64_decode s =
  let s =
    if String.length s >= 2 && String.sub s (String.length s - 2) 2 = "==" then
      String.sub s 0 (String.length s - 2)
    else if String.length s >= 1 && s.[String.length s - 1] = '=' then
      String.sub s 0 (String.length s - 1)
    else s
  in
  let n = String.length s in
  let buf = Buffer.create (n * 3 / 4) in
  let acc = ref 0 and bits = ref 0 and ok = ref true in
  String.iter
    (fun c ->
       match b64_value c with
       | None -> ok := false
       | Some v ->
         acc := (!acc lsl 6) lor v;
         bits := !bits + 6;
         if !bits >= 8 then begin
           bits := !bits - 8;
           Buffer.add_char buf (Char.chr ((!acc lsr !bits) land 0xff))
         end)
    s;
  if !ok then Some (Buffer.contents buf) else None

(* {1 Lines} *)

(* The fields of a line that is exactly the shape this module writes:
   one flat object of string values.  Anything else — not JSON, a
   number, a nested value — is [None], a torn line. *)
let string_fields line =
  match Json_parse.parse line with
  | Ok (Json.Object fields) ->
    let strings =
      List.filter_map
        (function k, Json.String v -> Some (k, v) | _ -> None)
        fields
    in
    if List.compare_lengths strings fields = 0 then Some strings else None
  | Ok _ | Error _ -> None

let line fields =
  Json.to_line (Json.Object (List.map (fun (k, v) -> (k, Json.String v)) fields))

(* {1 Records} *)

let record_digest ~app ~encoded = Digest.to_hex (Digest.string (app ^ "\x00" ^ encoded))

let record_line ~app ~payload =
  let encoded = b64_encode payload in
  line
    [ ("digest", record_digest ~app ~encoded); ("app", app); ("payload", encoded) ]

let parse_record line =
  match string_fields line with
  | Some [ ("digest", digest); ("app", app); ("payload", encoded) ]
    when String.equal digest (record_digest ~app ~encoded) ->
    Option.map (fun payload -> (app, payload)) (b64_decode encoded)
  | Some _ | None -> None

let binary_digest =
  lazy
    (try Digest.to_hex (Digest.file Sys.executable_name)
     with Sys_error _ -> "unknown")

let header_line () =
  line [ ("schema", schema); ("binary", Lazy.force binary_digest) ]

(* {1 The journal} *)

type t =
  { mutable fd : Unix.file_descr option
  ; mutex : Mutex.t
  ; prior : (string * string) list
  ; torn : int
  ; stale : int
  }

let prior t = t.prior

let torn_lines t = t.torn

let stale_records t = t.stale

(* {1 Resume warnings}

   Structured records of what replay silently repaired, so callers
   (CLI, daemon health endpoint) can surface them as data rather than
   re-deriving prose from counters. *)

type warning =
  | Torn_lines of int
  | Stale_records of int

let warnings t =
  (if t.torn > 0 then [ Torn_lines t.torn ] else [])
  @ if t.stale > 0 then [ Stale_records t.stale ] else []

let warning_message = function
  | Torn_lines n ->
    Printf.sprintf
      "%d torn journal line%s skipped on resume (interrupted final write)" n
      (if n = 1 then "" else "s")
  | Stale_records n ->
    Printf.sprintf
      "%d journal record%s discarded: written by a different executable image"
      n
      (if n = 1 then "" else "s")

let warning_to_json w =
  let kind, count =
    match w with
    | Torn_lines n -> ("torn_lines", n)
    | Stale_records n -> ("stale_records", n)
  in
  Json.Object
    [ ("kind", Json.String kind)
    ; ("count", Json.int count)
    ; ("message", Json.String (warning_message w))
    ]

let warning_json w = Json.to_string (warning_to_json w)

let read_lines path =
  let ic = In_channel.open_bin path in
  Fun.protect
    ~finally:(fun () -> In_channel.close ic)
    (fun () ->
       In_channel.input_all ic |> String.split_on_char '\n'
       |> List.filter (fun l -> l <> ""))

let replay path =
  match read_lines path with
  | exception Sys_error _ -> Ok ([], 0, 0)
  | [] -> Ok ([], 0, 0)
  | header :: records ->
    (match string_fields header with
     | Some (("schema", s) :: rest) when String.equal s schema ->
       let same_binary =
         match List.assoc_opt "binary" rest with
         | Some d -> String.equal d (Lazy.force binary_digest)
         | None -> false
       in
       let good, torn =
         List.fold_left
           (fun (good, torn) line ->
              match parse_record line with
              | Some entry -> (entry :: good, torn)
              | None -> (good, torn + 1))
           ([], 0) records
       in
       let good = List.rev good in
       if same_binary then Ok (good, torn, 0)
       else Ok ([], torn, List.length good)
     | Some (("schema", s) :: _) ->
       Error
         (Printf.sprintf "journal %s has schema %S, expected %S" path s schema)
     | Some _ | None ->
       Error (Printf.sprintf "journal %s has no valid header line" path))

let fsync_write fd line =
  let bytes = Bytes.unsafe_of_string line in
  Proc_pool.write_all fd bytes 0 (Bytes.length bytes);
  Unix.fsync fd

let create ?(resume = false) path =
  let replayed = if resume then replay path else Ok ([], 0, 0) in
  match replayed with
  | Error _ as e -> e
  | Ok (entries, torn, stale) ->
    if torn > 0 then Obs.add ~n:torn "journal.torn";
    if stale > 0 then Obs.add ~n:stale "journal.stale";
    let fd =
      Unix.openfile path [ Unix.O_WRONLY; Unix.O_CREAT; Unix.O_TRUNC ] 0o644
    in
    (* Rewrite header + intact records so the file never carries a torn
       line forward; every subsequent append lands after them. *)
    fsync_write fd (header_line ());
    List.iter
      (fun (app, payload) -> fsync_write fd (record_line ~app ~payload))
      entries;
    Ok { fd = Some fd; mutex = Mutex.create (); prior = entries; torn; stale }

let append t ~app ~payload =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
       match t.fd with
       | None -> invalid_arg "Journal.append: journal is closed"
       | Some fd -> fsync_write fd (record_line ~app ~payload))

let close t =
  Mutex.lock t.mutex;
  Fun.protect
    ~finally:(fun () -> Mutex.unlock t.mutex)
    (fun () ->
       match t.fd with
       | None -> ()
       | Some fd ->
         t.fd <- None;
         Unix.close fd)
