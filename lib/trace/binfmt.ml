module Obs = Droidracer_obs.Obs
module Thread_id = Ident.Thread_id
module Lock_id = Ident.Lock_id
module Task_id = Ident.Task_id
module Location = Ident.Location

let magic = "DRTB"
let version = 1

let is_magic s =
  String.length s >= 4 && String.sub s 0 4 = magic

(* Hard caps keep a corrupted header from driving huge allocations. *)
let max_ident_len = 65_535
let max_ident_count = 1 lsl 24

type error =
  { be_offset : int
  ; be_index : int
  ; be_message : string
  }

let pp_error ppf e =
  Format.fprintf ppf "byte %d (event %d): %s" e.be_offset e.be_index
    e.be_message

let error_message e = Format.asprintf "%a" pp_error e

(* Record tags.  0x00 defines the next identifier index; every other tag
   is one event, followed by zigzag(thread - previous thread) and the
   operands listed in DESIGN.md. *)
let tag_def = 0x00
let tag_thread_init = 0x01
let tag_thread_exit = 0x02
let tag_attach_queue = 0x03
let tag_loop_on_queue = 0x04
let tag_fork = 0x05
let tag_join = 0x06
let tag_post_immediate = 0x07
let tag_post_front = 0x08
let tag_post_delayed = 0x09
let tag_begin = 0x0a
let tag_end = 0x0b
let tag_enable = 0x0c
let tag_cancel = 0x0d
let tag_acquire = 0x0e
let tag_release = 0x0f
let tag_read = 0x10
let tag_write = 0x11
let max_tag = 0x11

let zigzag n = (n lsl 1) lxor (n asr 62)
let unzigzag z = (z lsr 1) lxor (- (z land 1))

let add_varint buf n =
  let n = ref n in
  let continue = ref true in
  while !continue do
    let b = !n land 0x7f in
    n := !n lsr 7;
    if !n = 0 then begin
      Buffer.add_char buf (Char.unsafe_chr b);
      continue := false
    end
    else Buffer.add_char buf (Char.unsafe_chr (b lor 0x80))
  done

let add_signed buf n = add_varint buf (zigzag n)

let add_ident_string buf s =
  add_varint buf (String.length s);
  Buffer.add_string buf s

(* {2 Encoding} *)

type encoder =
  { out : string -> unit
  ; buf : Buffer.t
  ; interner : Ident.Interner.t
  ; mutable defined : int  (* idents already written (table or DEF) *)
  ; mutable prev_thread : int
  ; last_instance : (int, int) Hashtbl.t  (* name idx -> last instance *)
  ; mutable encoded : int
  }

let flush enc =
  if Buffer.length enc.buf > 0 then begin
    enc.out (Buffer.contents enc.buf);
    Buffer.clear enc.buf
  end

let maybe_flush enc = if Buffer.length enc.buf >= 61_440 then flush enc

let encoder ?(idents = []) out =
  let interner = Ident.Interner.create () in
  List.iter
    (fun s ->
      if String.length s > max_ident_len then
        invalid_arg "Binfmt.encoder: oversized ident";
      ignore (Ident.Interner.intern interner s))
    idents;
  let buf = Buffer.create 65_536 in
  Buffer.add_string buf magic;
  Buffer.add_char buf (Char.chr version);
  let n = Ident.Interner.length interner in
  add_varint buf n;
  Ident.Interner.iter interner (fun _ s -> add_ident_string buf s);
  { out
  ; buf
  ; interner
  ; defined = n
  ; prev_thread = 0
  ; last_instance = Hashtbl.create 64
  ; encoded = 0
  }

let encoded enc = enc.encoded

(* Interning an unseen string emits a DEF record, so operand indices are
   resolved (and their DEFs written) before the event's tag byte. *)
let ident_idx enc s =
  let idx = Ident.Interner.intern enc.interner s in
  if idx >= enc.defined then begin
    if String.length s > max_ident_len then
      invalid_arg "Binfmt.encode: oversized ident";
    Buffer.add_char enc.buf (Char.unsafe_chr tag_def);
    add_ident_string enc.buf s;
    enc.defined <- idx + 1
  end;
  idx

let add_task enc name_idx instance =
  add_varint enc.buf name_idx;
  let last =
    match Hashtbl.find_opt enc.last_instance name_idx with
    | Some v -> v
    | None -> -1
  in
  add_signed enc.buf (instance - last);
  if last <> instance then Hashtbl.replace enc.last_instance name_idx instance

let encode enc (e : Trace.event) =
  let t = Thread_id.to_int e.thread in
  let dthread = t - enc.prev_thread in
  enc.prev_thread <- t;
  let buf = enc.buf in
  let simple tag =
    Buffer.add_char buf (Char.unsafe_chr tag);
    add_signed buf dthread
  in
  (match e.op with
   | Operation.Thread_init -> simple tag_thread_init
   | Operation.Thread_exit -> simple tag_thread_exit
   | Operation.Attach_queue -> simple tag_attach_queue
   | Operation.Loop_on_queue -> simple tag_loop_on_queue
   | Operation.Fork target ->
     simple tag_fork;
     add_signed buf (Thread_id.to_int target - t)
   | Operation.Join target ->
     simple tag_join;
     add_signed buf (Thread_id.to_int target - t)
   | Operation.Post { task; target; flavour } ->
     let name_idx = ident_idx enc (Task_id.name task) in
     let tag =
       match flavour with
       | Operation.Immediate -> tag_post_immediate
       | Operation.Front -> tag_post_front
       | Operation.Delayed _ -> tag_post_delayed
     in
     simple tag;
     add_task enc name_idx (Task_id.instance task);
     add_signed buf (Thread_id.to_int target - t);
     (match flavour with
      | Operation.Delayed delay -> add_signed buf delay
      | Operation.Immediate | Operation.Front -> ())
   | Operation.Begin_task task ->
     let name_idx = ident_idx enc (Task_id.name task) in
     simple tag_begin;
     add_task enc name_idx (Task_id.instance task)
   | Operation.End_task task ->
     let name_idx = ident_idx enc (Task_id.name task) in
     simple tag_end;
     add_task enc name_idx (Task_id.instance task)
   | Operation.Enable task ->
     let name_idx = ident_idx enc (Task_id.name task) in
     simple tag_enable;
     add_task enc name_idx (Task_id.instance task)
   | Operation.Cancel task ->
     let name_idx = ident_idx enc (Task_id.name task) in
     simple tag_cancel;
     add_task enc name_idx (Task_id.instance task)
   | Operation.Acquire lock ->
     let idx = ident_idx enc (Lock_id.name lock) in
     simple tag_acquire;
     add_varint buf idx
   | Operation.Release lock ->
     let idx = ident_idx enc (Lock_id.name lock) in
     simple tag_release;
     add_varint buf idx
   | Operation.Read location ->
     let cls_idx = ident_idx enc (Location.cls location) in
     let field_idx = ident_idx enc (Location.field location) in
     simple tag_read;
     add_varint buf cls_idx;
     add_varint buf field_idx;
     add_varint buf (Location.obj location)
   | Operation.Write location ->
     let cls_idx = ident_idx enc (Location.cls location) in
     let field_idx = ident_idx enc (Location.field location) in
     simple tag_write;
     add_varint buf cls_idx;
     add_varint buf field_idx;
     add_varint buf (Location.obj location));
  enc.encoded <- enc.encoded + 1;
  maybe_flush enc

let with_channel_encoder ?idents oc f =
  let enc = encoder ?idents (Out_channel.output_string oc) in
  Fun.protect ~finally:(fun () -> flush enc) (fun () -> f enc)

let write_file ?idents path f =
  Out_channel.with_open_bin path (fun oc ->
    with_channel_encoder ?idents oc (fun enc -> f (encode enc)))

let save ?idents path trace =
  write_file ?idents path (fun emit -> Trace.iteri (fun _ e -> emit e) trace)

let encode_events_to_string ?idents events =
  let collect = Buffer.create 4096 in
  let enc = encoder ?idents (Buffer.add_string collect) in
  List.iter (encode enc) events;
  flush enc;
  Buffer.contents collect

(* {2 Decoding} *)

exception Fail of int * string

type loc_memo =
  { mutable m_obj : int
  ; mutable m_read : Operation.t
  ; mutable m_write : Operation.t
  }

type decoder =
  { fill : Bytes.t -> int -> int -> int
  ; dbuf : Bytes.t
  ; mutable pos : int  (* next unread byte of [dbuf] *)
  ; mutable len : int  (* valid bytes in [dbuf] *)
  ; mutable base : int  (* stream offset of [dbuf.(0)] *)
  ; mutable idents : string array
  ; mutable nidents : int
  ; mutable last_inst : int array  (* per name idx; -1 = unseen *)
  ; mutable last_task : Task_id.t option array
  ; mutable lock_memo : Lock_id.t option array
  ; loc_memo : loc_memo Ident.Int_table.t  (* cls_idx<<21 | field_idx *)
  ; mutable prev_thread : int
  ; mutable decoded : int
  }

let offset d = d.base + d.pos

let fail d msg = raise (Fail (offset d, msg))

let refill d =
  d.base <- d.base + d.len;
  d.pos <- 0;
  d.len <- d.fill d.dbuf 0 (Bytes.length d.dbuf);
  Obs.add ~n:d.len "trace.decode_bytes";
  d.len > 0

let read_byte d =
  if d.pos >= d.len && not (refill d) then fail d "truncated input";
  let c = Bytes.unsafe_get d.dbuf d.pos in
  d.pos <- d.pos + 1;
  Char.code c

let read_varint d =
  let rec go acc shift =
    let b = read_byte d in
    let acc = acc lor ((b land 0x7f) lsl shift) in
    if b land 0x80 = 0 then acc
    else if shift >= 56 then fail d "varint too long"
    else go acc (shift + 7)
  in
  go 0 0

let read_signed d = unzigzag (read_varint d)

let read_string d len =
  if len < 0 || len > max_ident_len then fail d "unreasonable ident length";
  let s = Bytes.create len in
  let k = ref 0 in
  while !k < len do
    if d.pos >= d.len && not (refill d) then fail d "truncated ident";
    let n = min (len - !k) (d.len - d.pos) in
    Bytes.blit d.dbuf d.pos s !k n;
    d.pos <- d.pos + n;
    k := !k + n
  done;
  Bytes.unsafe_to_string s

let grow_ident_tables d needed =
  let cap = max needed (2 * Array.length d.idents) in
  let idents = Array.make cap "" in
  Array.blit d.idents 0 idents 0 d.nidents;
  d.idents <- idents;
  let last_inst = Array.make cap (-1) in
  Array.blit d.last_inst 0 last_inst 0 d.nidents;
  d.last_inst <- last_inst;
  let last_task = Array.make cap None in
  Array.blit d.last_task 0 last_task 0 d.nidents;
  d.last_task <- last_task;
  let lock_memo = Array.make cap None in
  Array.blit d.lock_memo 0 lock_memo 0 d.nidents;
  d.lock_memo <- lock_memo

let define_ident d s =
  if d.nidents >= max_ident_count then fail d "too many idents";
  if d.nidents >= Array.length d.idents then grow_ident_tables d (d.nidents + 1);
  d.idents.(d.nidents) <- s;
  d.nidents <- d.nidents + 1

let make_decoder ~base_offset fill =
  { fill
  ; dbuf = Bytes.create 65_536
  ; pos = 0
  ; len = 0
  ; base = base_offset
  ; idents = Array.make 64 ""
  ; nidents = 0
  ; last_inst = Array.make 64 (-1)
  ; last_task = Array.make 64 None
  ; lock_memo = Array.make 64 None
  ; loc_memo = Ident.Int_table.create 256
  ; prev_thread = 0
  ; decoded = 0
  }

let read_header d =
  let v = read_byte d in
  if v <> version then
    fail d (Printf.sprintf "unsupported format version %d (expected %d)" v
              version);
  let count = read_varint d in
  if count < 0 || count > max_ident_count then fail d "unreasonable ident count";
  if count > Array.length d.idents then grow_ident_tables d count;
  for _ = 1 to count do
    let len = read_varint d in
    define_ident d (read_string d len)
  done

let ident_of_idx d idx =
  if idx < 0 || idx >= d.nidents then fail d "ident index out of range";
  Array.unsafe_get d.idents idx

let read_task d =
  let name_idx = read_varint d in
  let name = ident_of_idx d name_idx in
  let delta = read_signed d in
  let last = Array.unsafe_get d.last_inst name_idx in
  if delta = 0 then
    match Array.unsafe_get d.last_task name_idx with
    | Some task -> task
    | None -> fail d "task instance delta against unseen task"
  else begin
    let instance = last + delta in
    let task = Task_id.make ~name ~instance in
    d.last_inst.(name_idx) <- instance;
    d.last_task.(name_idx) <- Some task;
    task
  end

let read_lock d =
  let idx = read_varint d in
  if idx < 0 || idx >= d.nidents then fail d "ident index out of range";
  match Array.unsafe_get d.lock_memo idx with
  | Some lock -> lock
  | None ->
    let lock = Lock_id.make (Array.unsafe_get d.idents idx) in
    d.lock_memo.(idx) <- Some lock;
    lock

let read_access d ~write =
  let cls_idx = read_varint d in
  let field_idx = read_varint d in
  let obj = read_varint d in
  if
    cls_idx >= 0 && cls_idx < 0x200000 && field_idx >= 0
    && field_idx < 0x200000
  then begin
    let key = (cls_idx lsl 21) lor field_idx in
    match Ident.Int_table.find_opt d.loc_memo key with
    | Some m when m.m_obj = obj -> if write then m.m_write else m.m_read
    | found ->
      let cls = ident_of_idx d cls_idx in
      let field = ident_of_idx d field_idx in
      let location = Location.make ~cls ~field ~obj in
      let m_read = Operation.Read location in
      let m_write = Operation.Write location in
      (match found with
       | Some m ->
         m.m_obj <- obj;
         m.m_read <- m_read;
         m.m_write <- m_write
       | None ->
         Ident.Int_table.replace d.loc_memo key
           { m_obj = obj; m_read; m_write });
      if write then m_write else m_read
  end
  else begin
    let cls = ident_of_idx d cls_idx in
    let field = ident_of_idx d field_idx in
    let location = Location.make ~cls ~field ~obj in
    if write then Operation.Write location else Operation.Read location
  end

let rec next_event d =
  if d.pos >= d.len && not (refill d) then None
  else begin
    let tag = read_byte d in
    if tag = tag_def then begin
      let len = read_varint d in
      define_ident d (read_string d len);
      next_event d
    end
    else if tag > max_tag then fail d "unknown record tag"
    else begin
      let thread_int = d.prev_thread + read_signed d in
      d.prev_thread <- thread_int;
      let thread = Thread_id.make thread_int in
      let op =
        if tag = tag_thread_init then Operation.Thread_init
        else if tag = tag_thread_exit then Operation.Thread_exit
        else if tag = tag_attach_queue then Operation.Attach_queue
        else if tag = tag_loop_on_queue then Operation.Loop_on_queue
        else if tag = tag_fork then
          Operation.Fork (Thread_id.make (thread_int + read_signed d))
        else if tag = tag_join then
          Operation.Join (Thread_id.make (thread_int + read_signed d))
        else if tag = tag_post_immediate then begin
          let task = read_task d in
          let target = Thread_id.make (thread_int + read_signed d) in
          Operation.Post { task; target; flavour = Operation.Immediate }
        end
        else if tag = tag_post_front then begin
          let task = read_task d in
          let target = Thread_id.make (thread_int + read_signed d) in
          Operation.Post { task; target; flavour = Operation.Front }
        end
        else if tag = tag_post_delayed then begin
          let task = read_task d in
          let target = Thread_id.make (thread_int + read_signed d) in
          let delay = read_signed d in
          Operation.Post { task; target; flavour = Operation.Delayed delay }
        end
        else if tag = tag_begin then Operation.Begin_task (read_task d)
        else if tag = tag_end then Operation.End_task (read_task d)
        else if tag = tag_enable then Operation.Enable (read_task d)
        else if tag = tag_cancel then Operation.Cancel (read_task d)
        else if tag = tag_acquire then Operation.Acquire (read_lock d)
        else if tag = tag_release then Operation.Release (read_lock d)
        else if tag = tag_read then read_access d ~write:false
        else read_access d ~write:true
      in
      Some { Trace.thread; op }
    end
  end

let fold_decoder d ~init ~f =
  match
    read_header d;
    let rec go acc =
      match next_event d with
      | None -> Ok acc
      | Some e ->
        let index = d.decoded in
        d.decoded <- index + 1;
        go (f acc ~index e)
    in
    go init
  with
  | result -> result
  | exception Fail (off, msg) ->
    Error { be_offset = off; be_index = d.decoded; be_message = msg }
  | exception Invalid_argument msg ->
    Error
      { be_offset = offset d
      ; be_index = d.decoded
      ; be_message = "invalid identifier: " ^ msg
      }

let fold_after_magic ?(base_offset = 4) ic ~init ~f =
  let d = make_decoder ~base_offset (In_channel.input ic) in
  fold_decoder d ~init ~f

let check_magic read_prefix =
  let got = read_prefix 4 in
  if got <> magic then
    Error
      { be_offset = 0
      ; be_index = 0
      ; be_message = "bad magic: not a binary trace"
      }
  else Ok ()

let fold_channel ic ~init ~f =
  let read_prefix n =
    let b = Bytes.create n in
    let rec go k =
      if k >= n then k
      else
        match In_channel.input ic b k (n - k) with
        | 0 -> k
        | r -> go (k + r)
    in
    Bytes.sub_string b 0 (go 0)
  in
  match check_magic read_prefix with
  | Error e -> Error e
  | Ok () -> fold_after_magic ~base_offset:4 ic ~init ~f

let fold_file path ~init ~f =
  In_channel.with_open_bin path (fun ic -> fold_channel ic ~init ~f)

let fold_string s ~init ~f =
  let cursor = ref 0 in
  let fill buf pos len =
    let n = min len (String.length s - !cursor) in
    Bytes.blit_string s !cursor buf pos n;
    cursor := !cursor + n;
    n
  in
  let read_prefix n =
    let k = min n (String.length s - !cursor) in
    let got = String.sub s !cursor k in
    cursor := !cursor + k;
    got
  in
  match check_magic read_prefix with
  | Error e -> Error e
  | Ok () -> fold_decoder (make_decoder ~base_offset:4 fill) ~init ~f

let decode_string s =
  match
    fold_string s ~init:[] ~f:(fun acc ~index:_ e -> e :: acc)
  with
  | Ok acc -> Ok (List.rev acc)
  | Error e -> Error e
