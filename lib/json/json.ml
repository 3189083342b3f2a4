(* The one JSON value type and its one printer.  Every artefact the
   project writes (wire frames, journal lines, tables, predictions,
   progress records, telemetry) is built as a [t] — which is
   [Json_parse.t], so what is printed parses back to the value — and
   printed here: compact, on one line, with string escaping done
   nowhere else. *)

type t = Json_parse.t =
  | Null
  | Bool of bool
  | Number of float
  | String of string
  | Array of t list
  | Object of (string * t) list

let int n = Number (float_of_int n)
let float f = Number f
let string s = String s
let strings l = Array (List.map string l)
let option f = function Some x -> f x | None -> Null

let needs_escape c = c = '"' || c = '\\' || Char.code c < 0x20

(* Bytes >= 0x80 pass through, so a UTF-8 input stays UTF-8; control
   bytes become the escapes JSON allows (OCaml's [%S] would write
   [\195] or [\001], which no JSON parser accepts). *)
let add_string b s =
  Buffer.add_char b '"';
  if not (String.exists needs_escape s) then Buffer.add_string b s
  else
    String.iter
      (fun c ->
         match c with
         | '"' -> Buffer.add_string b "\\\""
         | '\\' -> Buffer.add_string b "\\\\"
         | '\n' -> Buffer.add_string b "\\n"
         | '\r' -> Buffer.add_string b "\\r"
         | '\t' -> Buffer.add_string b "\\t"
         | c when Char.code c < 0x20 ->
           Buffer.add_string b (Printf.sprintf "\\u%04x" (Char.code c))
         | c -> Buffer.add_char b c)
      s;
  Buffer.add_char b '"'

(* Integral values below 2^53, which convert to [int] exactly, print
   as integers, so counts, ids and nanosecond clocks read as such; any
   other finite float prints with the shorter of [%.15g] and [%.17g]
   that parses back equal; JSON has no spelling for a non-finite float,
   so those print as [null]. *)
let add_number b f =
  if Float.is_integer f && Float.abs f < 0x1p53 then
    Buffer.add_string b (string_of_int (Float.to_int f))
  else if Float.is_finite f then begin
    let short = Printf.sprintf "%.15g" f in
    Buffer.add_string b
      (if Float.equal (float_of_string short) f then short
       else Printf.sprintf "%.17g" f)
  end
  else Buffer.add_string b "null"

let rec to_buffer b = function
  | Null -> Buffer.add_string b "null"
  | Bool x -> Buffer.add_string b (if x then "true" else "false")
  | Number f -> add_number b f
  | String s -> add_string b s
  | Array l ->
    Buffer.add_char b '[';
    List.iteri
      (fun i v ->
         if i > 0 then Buffer.add_char b ',';
         to_buffer b v)
      l;
    Buffer.add_char b ']'
  | Object fields ->
    Buffer.add_char b '{';
    List.iteri
      (fun i field ->
         if i > 0 then Buffer.add_char b ',';
         add_member b field)
      fields;
    Buffer.add_char b '}'

and add_member b (k, v) =
  add_string b k;
  Buffer.add_char b ':';
  to_buffer b v

let to_string v =
  let b = Buffer.create 256 in
  to_buffer b v;
  Buffer.contents b

(* The value and a newline: the whole of a one-value artefact file. *)
let to_line v =
  let b = Buffer.create 4096 in
  to_buffer b v;
  Buffer.add_char b '\n';
  Buffer.contents b

(* [to_buffer b (Object (fields @ [ (key, Array items') ]))], where
   [add_item b x] prints each of [items'] from the matching one of
   [items] as it comes: for artefacts with many large items, so that
   no item's value outlives its printing. *)
let add_object_with_items b fields ~key add_item items =
  Buffer.add_char b '{';
  List.iter
    (fun field ->
       add_member b field;
       Buffer.add_char b ',')
    fields;
  add_string b key;
  Buffer.add_string b ":[";
  List.iteri
    (fun i x ->
       if i > 0 then Buffer.add_char b ',';
       add_item b x)
    items;
  Buffer.add_string b "]}"
