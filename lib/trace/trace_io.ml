module Thread_id = Ident.Thread_id
module Task_id = Ident.Task_id
module Lock_id = Ident.Lock_id
module Location = Ident.Location

let print_event ppf (e : Trace.event) =
  (* One line of the on-disk format; [parse_event] inverts it. *)
  Format.fprintf ppf "%a %a" Thread_id.pp e.thread Operation.pp e.op

let print ppf trace =
  Trace.iteri (fun _ e -> Format.fprintf ppf "%a@\n" print_event e) trace

let to_string trace = Format.asprintf "%a" print trace

(* {1 Structured parse errors} *)

type parse_error =
  { pe_line : int
  ; pe_column : int
  ; pe_token : string option
  ; pe_message : string
  }

let pp_parse_error ppf e =
  if e.pe_line > 0 then Format.fprintf ppf "line %d" e.pe_line
  else Format.fprintf ppf "input";
  if e.pe_column > 0 then Format.fprintf ppf ", column %d" e.pe_column;
  Format.fprintf ppf ": %s" e.pe_message;
  match e.pe_token with
  | Some tok -> Format.fprintf ppf " (at %S)" tok
  | None -> ()

let parse_error_message e = Format.asprintf "%a" pp_parse_error e

(* Words with their 1-based starting columns; splitting on spaces and
   tabs, exactly as {!split_words} did, but keeping positions so every
   error can point at the offending token. *)
let split_words_located line =
  let n = String.length line in
  let words = ref [] in
  let i = ref 0 in
  while !i < n do
    while !i < n && (line.[!i] = ' ' || line.[!i] = '\t') do
      incr i
    done;
    if !i < n then begin
      let start = !i in
      while !i < n && line.[!i] <> ' ' && line.[!i] <> '\t' do
        incr i
      done;
      words := (start + 1, String.sub line start (!i - start)) :: !words
    end
  done;
  List.rev !words

let err ~col ~token fmt =
  Format.kasprintf
    (fun msg ->
       Error
         { pe_line = 0; pe_column = col; pe_token = Some token; pe_message = msg })
    fmt

let parse_thread (col, w) =
  match Thread_id.of_string w with
  | Some t -> Ok t
  | None -> err ~col ~token:w "expected a thread id like t0"

let parse_task (col, w) =
  match Task_id.of_string w with
  | Some p -> Ok p
  | None -> err ~col ~token:w "expected a task id (name#instance)"

let parse_lock (col, w) =
  match Lock_id.of_string w with
  | Some l -> Ok l
  | None -> err ~col ~token:w "expected a lock name"

let parse_location (col, w) =
  match Location.of_string w with
  | Some m -> Ok m
  | None -> err ~col ~token:w "expected a memory location (cls.field@obj)"

let ( let* ) = Result.bind

let parse_post_flavour words =
  match words with
  | [] -> Ok Operation.Immediate
  | [ (_, "front") ] -> Ok Operation.Front
  | [ (col, w) ] when String.length w > 6 && String.sub w 0 6 = "delay=" ->
    (match int_of_string_opt (String.sub w 6 (String.length w - 6)) with
     | Some d when d >= 0 -> Ok (Operation.Delayed d)
     | Some _ | None ->
       err ~col ~token:w "invalid delay (expected delay=<non-negative ms>)")
  | (col, w) :: _ ->
    err ~col ~token:w "unexpected post argument (expected front or delay=N)"

let parse_op (mcol, mnemonic) args =
  let arity_error expected =
    err ~col:mcol ~token:mnemonic
      "%s expects %s, got %d argument%s" mnemonic expected (List.length args)
      (if List.length args = 1 then "" else "s")
  in
  match mnemonic, args with
  | "threadinit", [] -> Ok Operation.Thread_init
  | "threadexit", [] -> Ok Operation.Thread_exit
  | "attachq", [] -> Ok Operation.Attach_queue
  | "looponq", [] -> Ok Operation.Loop_on_queue
  | "fork", [ w ] ->
    let* t = parse_thread w in
    Ok (Operation.Fork t)
  | "join", [ w ] ->
    let* t = parse_thread w in
    Ok (Operation.Join t)
  | "post", task_w :: target_w :: rest ->
    let* task = parse_task task_w in
    let* target = parse_thread target_w in
    let* flavour = parse_post_flavour rest in
    Ok (Operation.Post { task; target; flavour })
  | "begin", [ w ] ->
    let* p = parse_task w in
    Ok (Operation.Begin_task p)
  | "end", [ w ] ->
    let* p = parse_task w in
    Ok (Operation.End_task p)
  | "enable", [ w ] ->
    let* p = parse_task w in
    Ok (Operation.Enable p)
  | "cancel", [ w ] ->
    let* p = parse_task w in
    Ok (Operation.Cancel p)
  | "acquire", [ w ] ->
    let* l = parse_lock w in
    Ok (Operation.Acquire l)
  | "release", [ w ] ->
    let* l = parse_lock w in
    Ok (Operation.Release l)
  | "read", [ w ] ->
    let* m = parse_location w in
    Ok (Operation.Read m)
  | "write", [ w ] ->
    let* m = parse_location w in
    Ok (Operation.Write m)
  | ("threadinit" | "threadexit" | "attachq" | "looponq"), _ ->
    arity_error "no arguments"
  | ("fork" | "join"), _ -> arity_error "one thread id"
  | ("begin" | "end" | "enable" | "cancel"), _ -> arity_error "one task id"
  | ("acquire" | "release"), _ -> arity_error "one lock name"
  | ("read" | "write"), _ -> arity_error "one memory location"
  | "post", _ -> arity_error "a task id and a target thread"
  | other, _ ->
    err ~col:mcol ~token:other
      "unknown operation (expected threadinit, threadexit, fork, join, \
       attachq, looponq, post, begin, end, enable, cancel, acquire, release, \
       read or write)"

let strip_comment line =
  match String.index_opt line '#' with
  | Some i
    when
      (* '#' also occurs inside task ids; a comment is a '#' preceded by
         whitespace or starting the line. *)
      i = 0 || line.[i - 1] = ' ' || line.[i - 1] = '\t' ->
    String.sub line 0 i
  | Some _ | None -> line

let parse_event_located ?(line = 0) text =
  let result =
    match split_words_located (strip_comment text) with
    | [] -> Ok None
    | thread_w :: mnemonic :: args ->
      let* thread = parse_thread thread_w in
      let* op = parse_op mnemonic args in
      Ok (Some { Trace.thread; op })
    | [ (col, w) ] ->
      err ~col ~token:w
        "incomplete line: expected `<thread> <operation> [args]`"
  in
  Result.map_error (fun e -> { e with pe_line = line }) result

let parse_event text =
  Result.map_error
    (fun e ->
       (* Keep the historical no-line-prefix shape: [parse] and [load]
          re-add the line number themselves. *)
       Format.asprintf "%a" pp_parse_error { e with pe_line = 0 })
    (parse_event_located text)

(* {1 Streaming reader}

   Multi-million-event traces must never be materialised as one string:
   the readers below consume a line at a time and keep only the
   caller's accumulator (plus, for [read], the event list being
   built). *)

type read_error =
  | Parse of parse_error
  | Binary of Binfmt.error
  | Ill_formed of string
  | Io of string

let pp_read_error ppf = function
  | Parse e -> pp_parse_error ppf e
  | Binary e -> Binfmt.pp_error ppf e
  | Ill_formed msg -> Format.fprintf ppf "ill-formed trace: %s" msg
  | Io msg -> Format.fprintf ppf "%s" msg

let read_error_message e = Format.asprintf "%a" pp_read_error e

(* Reads up to [n] bytes from [ic] (fewer only at end of input), looping
   over short reads. *)
let input_prefix ic n =
  let b = Bytes.create n in
  let rec go k =
    if k >= n then k
    else
      match In_channel.input ic b k (n - k) with
      | 0 -> k
      | r -> go (k + r)
  in
  Bytes.sub_string b 0 (go 0)

(* A line-at-a-time reader over [ic] that first re-serves [prefix], the
   raw bytes the format sniffer already consumed.  The prefix may end in
   the middle of a line; that fragment is joined with the next line read
   from the channel. *)
let line_reader_with_prefix prefix ic =
  let rec split_last acc = function
    | [] -> (List.rev acc, "")
    | [ last ] -> (List.rev acc, last)
    | x :: rest -> split_last (x :: acc) rest
  in
  let complete, fragment = split_last [] (String.split_on_char '\n' prefix) in
  let queued = ref complete in
  let fragment = ref (Some fragment) in
  fun () ->
    match !queued with
    | line :: rest ->
      queued := rest;
      Some line
    | [] ->
      (match !fragment with
       | Some frag ->
         fragment := None;
         (match In_channel.input_line ic with
          | Some rest -> Some (frag ^ rest)
          | None -> if frag = "" then None else Some frag)
       | None -> In_channel.input_line ic)

let fold_text_lines next_line ~init ~f =
  let rec go lineno acc =
    match next_line () with
    | None -> Ok acc
    | Some line ->
      (match parse_event_located ~line:lineno line with
       | Ok (Some e) -> go (lineno + 1) (f acc ~line:lineno e)
       | Ok None -> go (lineno + 1) acc
       | Error e -> Error (Parse e))
  in
  go 1 init

let fold_channel ic ~init ~f =
  let prefix = input_prefix ic 4 in
  if Binfmt.is_magic prefix then
    match
      Binfmt.fold_after_magic ~base_offset:4 ic ~init
        ~f:(fun acc ~index e -> f acc ~line:(index + 1) e)
    with
    | Ok acc -> Ok acc
    | Error e -> Error (Binary e)
  else fold_text_lines (line_reader_with_prefix prefix ic) ~init ~f

let fold_events path ~init ~f =
  match In_channel.with_open_bin path (fun ic -> fold_channel ic ~init ~f) with
  | result -> result
  | exception Sys_error msg -> Error (Io msg)

let events_of_rev rev_events =
  match Trace.of_rev_events rev_events with
  | Ok trace -> Ok trace
  | Error msg -> Error (Ill_formed msg)

let read ic =
  let* rev =
    fold_channel ic ~init:[] ~f:(fun acc ~line:_ e -> e :: acc)
  in
  events_of_rev rev

let parse text =
  let lines = String.split_on_char '\n' text in
  let rec go lineno acc = function
    | [] ->
      (match events_of_rev acc with
       | Ok trace -> Ok trace
       | Error e -> Error (read_error_message e))
    | line :: rest ->
      (match parse_event_located ~line:lineno line with
       | Ok (Some e) -> go (lineno + 1) (e :: acc) rest
       | Ok None -> go (lineno + 1) acc rest
       | Error e -> Error (parse_error_message e))
  in
  go 1 [] lines

let load path =
  match In_channel.with_open_bin path read with
  | Ok trace -> Ok trace
  | Error e -> Error (read_error_message e)
  | exception Sys_error msg -> Error msg

let save path trace =
  Out_channel.with_open_text path (fun oc ->
    Out_channel.output_string oc (to_string trace))
