(* The one JSON string escaper shared by every emitter: the body of a
   string literal, without the surrounding quotes.  Bytes >= 0x80 pass
   through, so a UTF-8 input stays UTF-8; control bytes become the
   escapes JSON allows (OCaml's [%S] would write [\195] or [\001],
   which no JSON parser accepts). *)

let escape s =
  let b = Buffer.create (String.length s + 8) in
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
  Buffer.contents b
