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

let encode_op enc thread (op : Operation.t) =
  let t = Thread_id.to_int thread in
  let dthread = t - enc.prev_thread in
  enc.prev_thread <- t;
  let buf = enc.buf in
  let simple tag =
    Buffer.add_char buf (Char.unsafe_chr tag);
    add_signed buf dthread
  in
  (match op with
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

let encode enc (e : Trace.event) = encode_op enc e.thread e.op

let with_channel_encoder ?idents oc f =
  let enc = encoder ?idents (Out_channel.output_string oc) in
  Fun.protect ~finally:(fun () -> flush enc) (fun () -> f enc)

let write_file ?idents path f =
  Out_channel.with_open_bin path (fun oc ->
    with_channel_encoder ?idents oc (fun enc -> f (encode enc)))

let save ?idents path trace =
  Out_channel.with_open_bin path (fun oc ->
    with_channel_encoder ?idents oc (fun enc ->
      for i = 0 to Trace.length trace - 1 do
        encode_op enc (Trace.thread trace i) (Trace.op trace i)
      done))

let encode_events_to_string ?idents events =
  let collect = Buffer.create 4096 in
  let enc = encoder ?idents (Buffer.add_string collect) in
  List.iter (encode enc) events;
  flush enc;
  Buffer.contents collect

(* {2 Decoding}

   One record reader, [next_record], decodes each event record into the
   decoder's registers: the tag and its operation kind, the thread, a
   target thread and up to three int operands, with identifier indices
   canonical (see [define_ident]).  A
   sink then turns the registers into an event ([event_of_record], for
   the folds) or pushes them into a trace builder ([push_record], for
   {!build_after_magic}). *)

exception Fail of int * string

type sink =
  | Events
  | Columns of Trace.Builder.t

(* One (cls, field): the last object accessed on it, with its
   operations (events) or its location id (columns). *)
type loc_memo =
  { mutable m_obj : int
  ; mutable m_read : Operation.t
  ; mutable m_write : Operation.t
  ; mutable m_id : int
  }

type decoder =
  { fill : Bytes.t -> int -> int -> int
  ; dbuf : Bytes.t
  ; mutable pos : int  (* next unread byte of [dbuf] *)
  ; mutable len : int  (* valid bytes in [dbuf] *)
  ; mutable base : int  (* stream offset of [dbuf.(0)] *)
  ; sink : sink
  ; mutable idents : string array
  ; mutable nidents : int
  ; mutable canon : int array  (* the first index defining the same string *)
  ; first_def : (string, int) Hashtbl.t
  ; mutable last_inst : int array  (* per name idx; -1 = unseen *)
  ; mutable last_task : Task_id.t option array  (* Events: per name idx *)
  ; mutable task_ix : int array  (* Columns: per name idx, the last task *)
  ; mutable instances : int Ident.Int_table.t option array
        (* Columns: per canonical name, instance -> task index *)
  ; mutable lock_memo : Lock_id.t option array  (* Events: per canonical idx *)
  ; mutable lock_ix : int array  (* Columns: per canonical idx; -1 = unseen *)
  ; loc_memo : loc_memo Ident.Int_table.t  (* by [loc_key] *)
  ; loc_ids : (int * int, int) Hashtbl.t
        (* Columns: ([loc_key], object) -> location id *)
  ; mutable prev_thread : int
  ; mutable decoded : int
  ; mutable r_tag : int
  ; mutable r_kind : Trace.kind
  ; mutable r_thread : int
  ; mutable r_target : int  (* fork, join and post *)
  ; mutable r_a : int
        (* task records: name idx; locks: ident; accesses: class *)
  ; mutable r_b : int  (* accesses: field *)
  ; mutable r_c : int  (* accesses: object; delayed posts: delay *)
  }

let offset d = d.base + d.pos

let fail d msg = raise (Fail (offset d, msg))

let refill d =
  d.base <- d.base + d.len;
  d.pos <- 0;
  d.len <- d.fill d.dbuf 0 (Bytes.length d.dbuf);
  Obs.add ~n:d.len "trace.decode_bytes";
  d.len > 0

let[@inline] read_byte d =
  if d.pos >= d.len && not (refill d) then fail d "truncated input";
  let c = Bytes.unsafe_get d.dbuf d.pos in
  d.pos <- d.pos + 1;
  Char.code c

let read_varint_slow d =
  let acc = ref 0 and shift = ref 0 and more = ref true in
  while !more do
    let b = read_byte d in
    acc := !acc lor ((b land 0x7f) lsl !shift);
    if b land 0x80 = 0 then more := false
    else if !shift >= 56 then fail d "varint too long"
    else shift := !shift + 7
  done;
  !acc

(* Most operands fit one byte. *)
let[@inline] read_varint d =
  let pos = d.pos in
  if pos < d.len then begin
    let b = Char.code (Bytes.unsafe_get d.dbuf pos) in
    if b < 0x80 then begin
      d.pos <- pos + 1;
      b
    end
    else read_varint_slow d
  end
  else read_varint_slow d

let[@inline] read_signed d = unzigzag (read_varint d)

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
  let widen a fill =
    let a' = Array.make cap fill in
    Array.blit a 0 a' 0 d.nidents;
    a'
  in
  d.idents <- widen d.idents "";
  d.canon <- widen d.canon 0;
  d.last_inst <- widen d.last_inst (-1);
  d.last_task <- widen d.last_task None;
  d.task_ix <- widen d.task_ix (-1);
  d.instances <- widen d.instances None;
  d.lock_memo <- widen d.lock_memo None;
  d.lock_ix <- widen d.lock_ix (-1)

(* A string may be defined more than once; every index maps to the
   first index defining its string, so one string names one
   identifier whichever index a record uses. *)
let define_ident d s =
  if d.nidents >= max_ident_count then fail d "too many idents";
  if d.nidents >= Array.length d.idents then grow_ident_tables d (d.nidents + 1);
  let idx = d.nidents in
  d.idents.(idx) <- s;
  d.canon.(idx) <-
    (match Hashtbl.find_opt d.first_def s with
     | Some first -> first
     | None ->
       Hashtbl.add d.first_def s idx;
       idx);
  d.nidents <- idx + 1

let make_decoder ~base_offset ~sink fill =
  { fill
  ; dbuf = Bytes.create 65_536
  ; pos = 0
  ; len = 0
  ; base = base_offset
  ; sink
  ; idents = Array.make 64 ""
  ; nidents = 0
  ; canon = Array.make 64 0
  ; first_def = Hashtbl.create 64
  ; last_inst = Array.make 64 (-1)
  ; last_task = Array.make 64 None
  ; task_ix = Array.make 64 (-1)
  ; instances = Array.make 64 None
  ; lock_memo = Array.make 64 None
  ; lock_ix = Array.make 64 (-1)
  ; loc_memo = Ident.Int_table.create 256
  ; loc_ids = Hashtbl.create 256
  ; prev_thread = 0
  ; decoded = 0
  ; r_tag = 0
  ; r_kind = Thread_init
  ; r_thread = 0
  ; r_target = 0
  ; r_a = 0
  ; r_b = 0
  ; r_c = 0
  }

let read_header d =
  let v = read_byte d in
  if v <> version then
    fail d (Printf.sprintf "unsupported format version %d (expected %d)" v
              version);
  let count = read_varint d in
  if count < 0 || count > max_ident_count then fail d "unreasonable ident count";
  (* a hostile count must not drive the allocation: the tables double
     as definitions arrive *)
  if count > Array.length d.idents then grow_ident_tables d (min count 65_536);
  for _ = 1 to count do
    let len = read_varint d in
    define_ident d (read_string d len)
  done

let[@inline] check_ident d idx =
  if idx < 0 || idx >= d.nidents then fail d "ident index out of range"

(* A task instance not seen under this name index since the last one:
   the sink numbers it, validating the identifier on first use. *)
let fresh_task d name_idx instance =
  match d.sink with
  | Events ->
    d.last_task.(name_idx) <-
      Some (Task_id.make ~name:d.idents.(name_idx) ~instance)
  | Columns b ->
    let name = d.canon.(name_idx) in
    let ids =
      match d.instances.(name) with
      | Some ids -> ids
      | None ->
        let ids = Ident.Int_table.create 16 in
        d.instances.(name) <- Some ids;
        ids
    in
    d.task_ix.(name_idx) <-
      (match Ident.Int_table.find ids instance with
       | k -> k
       | exception Not_found ->
         let k =
           Trace.Builder.new_task b
             (Task_id.make ~name:d.idents.(name) ~instance)
         in
         Ident.Int_table.add ids instance k;
         k)

let read_task d =
  let name_idx = read_varint d in
  check_ident d name_idx;
  let delta = read_signed d in
  if delta = 0 then begin
    if d.last_inst.(name_idx) < 0 then
      fail d "task instance delta against unseen task"
  end
  else begin
    let instance = d.last_inst.(name_idx) + delta in
    fresh_task d name_idx instance;
    d.last_inst.(name_idx) <- instance
  end;
  d.r_a <- name_idx

(* A thread id read from the stream, as an int: [Thread_id.make]
   rejects a negative one, with the message the folds report. *)
let checked_thread n =
  if n < 0 then ignore (Thread_id.make n);
  n

let read_target d thread = checked_thread (thread + read_signed d)

let location_of_record d =
  Location.make ~cls:d.idents.(d.r_a) ~field:d.idents.(d.r_b) ~obj:d.r_c

(* Record tag -> operation kind; tag 0 (DEF) is no event. *)
let kind_of_tag : Trace.kind array =
  [| Thread_init; Thread_init; Thread_exit; Attach_queue; Loop_on_queue
   ; Fork; Join; Post; Post; Post; Begin_task; End_task; Enable; Cancel
   ; Acquire; Release; Read; Write
  |]

(* The next event record into the registers, after the DEF records
   before it; [false] at a clean end of input. *)
let rec next_record d =
  if d.pos >= d.len && not (refill d) then false
  else begin
    let tag = read_byte d in
    if tag = tag_def then begin
      let len = read_varint d in
      define_ident d (read_string d len);
      next_record d
    end
    else if tag > max_tag then fail d "unknown record tag"
    else begin
      let thread = d.prev_thread + read_signed d in
      d.prev_thread <- thread;
      d.r_thread <- checked_thread thread;
      d.r_tag <- tag;
      let kind = Array.unsafe_get kind_of_tag tag in
      d.r_kind <- kind;
      (match kind with
       | Thread_init | Thread_exit | Attach_queue | Loop_on_queue -> ()
       | Fork | Join -> d.r_target <- read_target d thread
       | Post ->
         read_task d;
         d.r_target <- read_target d thread;
         if tag = tag_post_delayed then d.r_c <- read_signed d
       | Begin_task | End_task | Enable | Cancel -> read_task d
       | Acquire | Release ->
         let idx = read_varint d in
         check_ident d idx;
         d.r_a <- d.canon.(idx)
       | Read | Write ->
         let cls = read_varint d in
         let field = read_varint d in
         let obj = read_varint d in
         check_ident d cls;
         check_ident d field;
         d.r_a <- d.canon.(cls);
         d.r_b <- d.canon.(field);
         d.r_c <- obj;
         (* a negative object fails [Location.make] here, with the
            message a sink would give, and never meets a memo *)
         if obj < 0 then ignore (location_of_record d));
      true
    end
  end

(* The access in the registers' canonical class and field indices,
   both below [max_ident_count], packed in one int. *)
let loc_key d = (d.r_a lsl 24) lor d.r_b

(* The memo of the access in the registers, made on first use.  A fresh
   memo's object, -1, matches no access: [next_record] rejects a
   negative object. *)
let loc_memo d =
  let key = loc_key d in
  match Ident.Int_table.find d.loc_memo key with
  | m -> m
  | exception Not_found ->
    let m = { m_obj = -1; m_read = Thread_init; m_write = Thread_init; m_id = -1 } in
    Ident.Int_table.add d.loc_memo key m;
    m

(* {3 The event sink} *)

let last_task d name_idx =
  match d.last_task.(name_idx) with
  | Some task -> task
  | None -> assert false (* [read_task] rejects an unseen task *)

let flavour_of_record d : Operation.post_flavour =
  if d.r_tag = tag_post_immediate then Immediate
  else if d.r_tag = tag_post_front then Front
  else Delayed d.r_c

let lock_of_record d =
  match d.lock_memo.(d.r_a) with
  | Some lock -> lock
  | None ->
    let lock = Lock_id.make d.idents.(d.r_a) in
    d.lock_memo.(d.r_a) <- Some lock;
    lock

let access_of_record d ~write =
  let m = loc_memo d in
  if m.m_obj <> d.r_c then begin
    let location = location_of_record d in
    m.m_obj <- d.r_c;
    m.m_read <- Read location;
    m.m_write <- Write location
  end;
  if write then m.m_write else m.m_read

let event_of_record d =
  let op : Operation.t =
    match d.r_kind with
    | Thread_init -> Thread_init
    | Thread_exit -> Thread_exit
    | Attach_queue -> Attach_queue
    | Loop_on_queue -> Loop_on_queue
    | Fork -> Fork (Thread_id.make d.r_target)
    | Join -> Join (Thread_id.make d.r_target)
    | Post ->
      Post
        { task = last_task d d.r_a
        ; target = Thread_id.make d.r_target
        ; flavour = flavour_of_record d
        }
    | Begin_task -> Begin_task (last_task d d.r_a)
    | End_task -> End_task (last_task d d.r_a)
    | Enable -> Enable (last_task d d.r_a)
    | Cancel -> Cancel (last_task d d.r_a)
    | Acquire -> Acquire (lock_of_record d)
    | Release -> Release (lock_of_record d)
    | Read -> access_of_record d ~write:false
    | Write -> access_of_record d ~write:true
  in
  { Trace.thread = Thread_id.make d.r_thread; op }

(* {3 The column sink} *)

let lock_index d b =
  let c = d.r_a in
  let k = d.lock_ix.(c) in
  if k >= 0 then k
  else begin
    let k = Trace.Builder.new_lock b (Lock_id.make d.idents.(c)) in
    d.lock_ix.(c) <- k;
    k
  end

(* Location ids in order of first access: a location is registered
   with the builder when its first access is decoded.  The memo answers
   an access to the last object of its (cls, field), the table any
   other. *)
let location_index d b =
  let m = loc_memo d and obj = d.r_c in
  if m.m_obj <> obj then begin
    let key = (loc_key d, obj) in
    let id =
      match Hashtbl.find d.loc_ids key with
      | id -> id
      | exception Not_found ->
        let id = Trace.Builder.new_location b (location_of_record d) in
        Hashtbl.add d.loc_ids key id;
        id
    in
    m.m_obj <- obj;
    m.m_id <- id
  end;
  m.m_id

let push_record d b =
  let kind = d.r_kind and th = d.r_thread in
  match kind with
  | Read | Write -> Trace.Builder.push b kind th (location_index d b)
  | Thread_init | Thread_exit | Attach_queue | Loop_on_queue ->
    Trace.Builder.push b kind th (-1)
  | Fork | Join -> Trace.Builder.push b kind th d.r_target
  | Post ->
    Trace.Builder.post b th d.task_ix.(d.r_a)
      ~target:(Thread_id.make d.r_target) ~flavour:(flavour_of_record d)
  | Begin_task | End_task | Enable | Cancel ->
    Trace.Builder.push b kind th d.task_ix.(d.r_a)
  | Acquire | Release -> Trace.Builder.push b kind th (lock_index d b)

(* {3 Drivers} *)

let guard d decode =
  match decode () with
  | result -> Ok result
  | exception Fail (off, msg) ->
    Error { be_offset = off; be_index = d.decoded; be_message = msg }
  | exception Invalid_argument msg ->
    Error
      { be_offset = offset d
      ; be_index = d.decoded
      ; be_message = "invalid identifier: " ^ msg
      }

let fold_decoder d ~init ~f =
  guard d (fun () ->
    read_header d;
    let rec go acc =
      if next_record d then begin
        let e = event_of_record d in
        let index = d.decoded in
        d.decoded <- index + 1;
        go (f acc ~index e)
      end
      else acc
    in
    go init)

let build_decoder d b =
  guard d (fun () ->
    read_header d;
    while next_record d do
      push_record d b;
      d.decoded <- d.decoded + 1
    done)

let fold_after_magic ?(base_offset = 4) ic ~init ~f =
  let d = make_decoder ~base_offset ~sink:Events (In_channel.input ic) in
  fold_decoder d ~init ~f

let build_after_magic ?(base_offset = 4) ic b =
  build_decoder
    (make_decoder ~base_offset ~sink:(Columns b) (In_channel.input ic))
    b

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

(* A decoder over an in-memory byte string, past its magic. *)
let string_decoder s ~sink =
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
  Result.map
    (fun () -> make_decoder ~base_offset:4 ~sink fill)
    (check_magic read_prefix)

let fold_string s ~init ~f =
  Result.bind (string_decoder s ~sink:Events) (fun d ->
    fold_decoder d ~init ~f)

let build_string s b =
  Result.bind (string_decoder s ~sink:(Columns b)) (fun d -> build_decoder d b)

let decode_string s =
  match
    fold_string s ~init:[] ~f:(fun acc ~index:_ e -> e :: acc)
  with
  | Ok acc -> Ok (List.rev acc)
  | Error e -> Error e
