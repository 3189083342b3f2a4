module Obs = Droidracer_obs.Obs
module Thread_id = Ident.Thread_id
module Task_id = Ident.Task_id
module Lock_id = Ident.Lock_id
module Location = Ident.Location

type event =
  { thread : Thread_id.t
  ; op : Operation.t
  }

let event_equal a b =
  Thread_id.equal a.thread b.thread && Operation.equal a.op b.op

let pp_event ppf e =
  Format.fprintf ppf "%a: %a" Thread_id.pp e.thread Operation.pp e.op

type kind =
  | Thread_init
  | Thread_exit
  | Fork
  | Join
  | Attach_queue
  | Loop_on_queue
  | Post
  | Begin_task
  | End_task
  | Acquire
  | Release
  | Read
  | Write
  | Enable
  | Cancel

let kind_code = function
  | Thread_init -> 0
  | Thread_exit -> 1
  | Fork -> 2
  | Join -> 3
  | Attach_queue -> 4
  | Loop_on_queue -> 5
  | Post -> 6
  | Begin_task -> 7
  | End_task -> 8
  | Acquire -> 9
  | Release -> 10
  | Read -> 11
  | Write -> 12
  | Enable -> 13
  | Cancel -> 14

let kinds_by_code =
  [| Thread_init; Thread_exit; Fork; Join; Attach_queue; Loop_on_queue; Post
   ; Begin_task; End_task; Acquire; Release; Read; Write; Enable; Cancel
  |]

let code_read = kind_code Read
let code_write = kind_code Write

(* Post flavours in the int column of the task table. *)
let flavour_none = -1
let flavour_immediate = 0
let flavour_front = 1
let flavour_delayed = 2

(* The columns hold [len] positions, in at most twice that room (see
   [Builder.freeze]).  Threads are numbered in order of first
   execution, tasks in order of first mention (in any role), locks and
   locations in order of first use.  The [*_ops] arrays memoise the
   operations [get] rebuilds. *)
type t =
  { len : int
  ; kinds : Bytes.t
  ; thread_col : int array  (** thread index *)
  ; operand : int array  (** location id, task, lock or raw target thread *)
  ; enclosing : int array  (** task index, or -1 *)
  ; thread_ids : Thread_id.t array
  ; thread_index : int Ident.Int_table.t
  ; attach_at : int array
  ; loop_at : int array
  ; task_ids : Task_id.t array
  ; task_index : int Task_id.Table.t
  ; post_at : int array
  ; begin_at : int array
  ; end_at : int array
  ; enable_at : int array
  ; cancel_at : int array
  ; target : int array  (** raw thread id, -1 when never posted *)
  ; flavour : int array
  ; delay : int array
  ; posted : int array  (** task indices in posting order *)
  ; lock_ids : Lock_id.t array
  ; locations : Location.t array
  ; loc_accesses : int array
  ; read_ops : Operation.t array
  ; write_ops : Operation.t array
  ; post_ops : Operation.t array
  ; begin_ops : Operation.t array
  ; end_ops : Operation.t array
  ; enable_ops : Operation.t array
  ; cancel_ops : Operation.t array
  ; acquire_ops : Operation.t array
  ; release_ops : Operation.t array
  ; fork_ops : Operation.t Ident.Int_table.t
  ; join_ops : Operation.t Ident.Int_table.t
  }

exception Ill_formed of string

let fail fmt = Format.kasprintf (fun s -> raise (Ill_formed s)) fmt

let flavour_of_code code delay : Operation.post_flavour =
  if code = flavour_front then Front
  else if code = flavour_delayed then Delayed delay
  else Immediate

module Builder = struct
  type trace = t

  type t =
    { mutable len : int
    ; mutable kinds : Bytes.t
    ; mutable thread_col : int array
    ; mutable operand : int array
    ; mutable enclosing : int array
    ; mutable failed : string option
    ; mutable finished : bool
    ; thread_index : int Ident.Int_table.t
    ; mutable last_raw : int  (** the thread id [thread] saw last *)
    ; mutable last_ix : int
    ; mutable nthreads : int
    ; mutable thread_ids : Thread_id.t array
    ; mutable attach_at : int array
    ; mutable loop_at : int array
    ; mutable current : int array  (** the executing task, or -1 *)
    ; task_index : int Task_id.Table.t
    ; mutable ntasks : int
    ; mutable task_ids : Task_id.t array
    ; mutable post_at : int array
    ; mutable begin_at : int array
    ; mutable end_at : int array
    ; mutable enable_at : int array
    ; mutable cancel_at : int array
    ; mutable target : int array
    ; mutable flavour : int array
    ; mutable delay : int array
    ; mutable posted : int array
    ; mutable nposted : int
    ; lock_index : (string, int) Hashtbl.t
    ; mutable nlocks : int
    ; mutable lock_ids : Lock_id.t array
    ; loc_index : int Location.Table.t
    ; mutable nlocs : int
    ; mutable locations : Location.t array
    ; mutable loc_accesses : int array
    ; fork_ops : Operation.t Ident.Int_table.t
    ; join_ops : Operation.t Ident.Int_table.t
    }

  let no_task = Task_id.make ~name:"_" ~instance:0
  let no_lock = Lock_id.make "_"
  let no_location = Location.make ~cls:"_" ~field:"_" ~obj:0

  let create ?(capacity = 1024) () =
    let capacity = max 16 capacity in
    { len = 0
    ; kinds = Bytes.create capacity
    ; thread_col = Array.make capacity 0
    ; operand = Array.make capacity 0
    ; enclosing = Array.make capacity 0
    ; failed = None
    ; finished = false
    ; thread_index = Ident.Int_table.create 16
    ; last_raw = -1
    ; last_ix = 0
    ; nthreads = 0
    ; thread_ids = Array.make 8 (Thread_id.make 0)
    ; attach_at = Array.make 8 (-1)
    ; loop_at = Array.make 8 (-1)
    ; current = Array.make 8 (-1)
    ; task_index = Task_id.Table.create 64
    ; ntasks = 0
    ; task_ids = Array.make 64 no_task
    ; post_at = Array.make 64 (-1)
    ; begin_at = Array.make 64 (-1)
    ; end_at = Array.make 64 (-1)
    ; enable_at = Array.make 64 (-1)
    ; cancel_at = Array.make 64 (-1)
    ; target = Array.make 64 (-1)
    ; flavour = Array.make 64 flavour_none
    ; delay = Array.make 64 0
    ; posted = Array.make 64 0
    ; nposted = 0
    ; lock_index = Hashtbl.create 8
    ; nlocks = 0
    ; lock_ids = Array.make 8 no_lock
    ; loc_index = Location.Table.create 64
    ; nlocs = 0
    ; locations = Array.make 64 no_location
    ; loc_accesses = Array.make 64 0
    ; fork_ops = Ident.Int_table.create 4
    ; join_ops = Ident.Int_table.create 4
    }

  (* The trace shares the builder's tables: none may change after
     [finish]. *)
  let[@inline] check_open b =
    if b.finished then invalid_arg "Trace.Builder: used after finish"

  (* [a] with room for index [n], doubled when full. *)
  let room a n fill =
    if n < Array.length a then a
    else begin
      let b = Array.make (2 * Array.length a) fill in
      Array.blit a 0 b 0 (Array.length a);
      b
    end

  (* A thread runs for several positions in a row (the same thread as
     the position before at 66% of the catalog's positions, 72-73% of
     daemon-small's and predict-masked's), so the table is consulted
     only when the thread changes. *)
  let thread b raw =
    if raw = b.last_raw && raw >= 0 then b.last_ix
    else begin
      let ix =
        match Ident.Int_table.find b.thread_index raw with
        | ix -> ix
        | exception Not_found ->
          let ix = b.nthreads and tid = Thread_id.make raw in
          b.thread_ids <- room b.thread_ids ix tid;
          b.attach_at <- room b.attach_at ix (-1);
          b.loop_at <- room b.loop_at ix (-1);
          b.current <- room b.current ix (-1);
          b.thread_ids.(ix) <- tid;
          b.nthreads <- ix + 1;
          Ident.Int_table.add b.thread_index raw ix;
          ix
      in
      b.last_raw <- raw;
      b.last_ix <- ix;
      ix
    end

  let new_task b p =
    check_open b;
    let k = b.ntasks in
    b.task_ids <- room b.task_ids k no_task;
    b.post_at <- room b.post_at k (-1);
    b.begin_at <- room b.begin_at k (-1);
    b.end_at <- room b.end_at k (-1);
    b.enable_at <- room b.enable_at k (-1);
    b.cancel_at <- room b.cancel_at k (-1);
    b.target <- room b.target k (-1);
    b.flavour <- room b.flavour k flavour_none;
    b.delay <- room b.delay k 0;
    b.task_ids.(k) <- p;
    b.ntasks <- k + 1;
    Task_id.Table.add b.task_index p k;
    k

  let task b p =
    match Task_id.Table.find b.task_index p with
    | k -> k
    | exception Not_found -> new_task b p

  let new_lock b l =
    check_open b;
    let k = b.nlocks in
    b.lock_ids <- room b.lock_ids k no_lock;
    b.lock_ids.(k) <- l;
    b.nlocks <- k + 1;
    Hashtbl.add b.lock_index (Lock_id.name l) k;
    k

  let lock b l =
    match Hashtbl.find b.lock_index (Lock_id.name l) with
    | k -> k
    | exception Not_found -> new_lock b l

  let new_location b m =
    check_open b;
    let id = b.nlocs in
    b.locations <- room b.locations id no_location;
    b.loc_accesses <- room b.loc_accesses id 0;
    b.locations.(id) <- m;
    b.nlocs <- id + 1;
    id

  let location b m =
    match Location.Table.find b.loc_index m with
    | id -> id
    | exception Not_found ->
      let id = new_location b m in
      Location.Table.add b.loc_index m id;
      id

  let grow_columns b =
    let cap = 2 * Bytes.length b.kinds in
    let widen a =
      let a' = Array.make cap 0 in
      Array.blit a 0 a' 0 b.len;
      a'
    in
    let kinds = Bytes.create cap in
    Bytes.blit b.kinds 0 kinds 0 b.len;
    b.kinds <- kinds;
    b.thread_col <- widen b.thread_col;
    b.operand <- widen b.operand;
    b.enclosing <- widen b.enclosing

  let[@inline] record b kind th x enclosing =
    let i = b.len in
    Bytes.unsafe_set b.kinds i (Char.unsafe_chr (kind_code kind));
    Array.unsafe_set b.thread_col i th;
    Array.unsafe_set b.operand i x;
    Array.unsafe_set b.enclosing i enclosing;
    b.len <- i + 1

  (* The structural checks of one operation at the next position, in
     the order [of_events] documents; raises [Ill_formed]. *)
  let step b kind th x =
    let i = b.len in
    if i = Bytes.length b.kinds then grow_columns b;
    let tid = b.thread_ids.(th) in
    let cur = b.current.(th) in
    match kind with
    | Read | Write ->
      b.loc_accesses.(x) <- b.loc_accesses.(x) + 1;
      record b kind th x cur
    | Attach_queue ->
      let j = b.attach_at.(th) in
      if j >= 0 then
        fail "position %d: thread %a attaches a queue twice (first at %d)" i
          Thread_id.pp tid j;
      b.attach_at.(th) <- i;
      record b kind th x cur
    | Loop_on_queue ->
      let j = b.loop_at.(th) in
      if j >= 0 then
        fail "position %d: thread %a loops on its queue twice (first at %d)" i
          Thread_id.pp tid j;
      if b.attach_at.(th) < 0 then
        fail "position %d: thread %a loops on a queue it never attached" i
          Thread_id.pp tid;
      b.loop_at.(th) <- i;
      record b kind th x cur
    | Begin_task ->
      let p = b.task_ids.(x) in
      let j = b.begin_at.(x) in
      if j >= 0 then
        fail "position %d: task %a begins twice (first at %d)" i Task_id.pp p j;
      if b.post_at.(x) < 0 then
        fail "position %d: task %a begins without a prior post" i Task_id.pp p;
      let target = b.target.(x) in
      if target >= 0 && target <> Thread_id.to_int tid then
        fail "position %d: task %a begins on %a but was posted to %a" i
          Task_id.pp p Thread_id.pp tid Thread_id.pp (Thread_id.make target);
      if cur >= 0 then
        fail
          "position %d: task %a begins inside task %a on %a (tasks run to \
           completion)"
          i Task_id.pp p Task_id.pp b.task_ids.(cur) Thread_id.pp tid;
      b.begin_at.(x) <- i;
      b.current.(th) <- x;
      record b kind th x x
    | End_task ->
      let p = b.task_ids.(x) in
      if cur < 0 then
        fail "position %d: end of %a outside any task" i Task_id.pp p
      else if cur <> x then
        fail "position %d: end of %a while %a is executing" i Task_id.pp p
          Task_id.pp b.task_ids.(cur);
      let j = b.end_at.(x) in
      if j >= 0 then
        fail "position %d: task %a ends twice (first at %d)" i Task_id.pp p j;
      b.end_at.(x) <- i;
      b.current.(th) <- -1;
      record b kind th x x
    | Enable ->
      let j = b.enable_at.(x) in
      if j >= 0 then
        fail "position %d: task %a enabled twice (first at %d)" i Task_id.pp
          b.task_ids.(x) j;
      b.enable_at.(x) <- i;
      record b kind th x cur
    | Cancel ->
      let j = b.cancel_at.(x) in
      if j >= 0 then
        fail "position %d: task %a cancelled twice (first at %d)" i
          Task_id.pp b.task_ids.(x) j;
      b.cancel_at.(x) <- i;
      record b kind th x cur
    | Fork | Join ->
      let ops = if kind = Fork then b.fork_ops else b.join_ops in
      if not (Ident.Int_table.mem ops x) then
        Ident.Int_table.add ops x
          (if kind = Fork then Operation.Fork (Thread_id.make x)
           else Operation.Join (Thread_id.make x));
      record b kind th x cur
    | Thread_init | Thread_exit | Acquire | Release -> record b kind th x cur
    | Post -> invalid_arg "Trace.Builder.push: a post goes through Builder.post"

  (* An operation of the thread with index [th]. *)
  let push_at b kind th x =
    if Option.is_none b.failed then
      match step b kind th x with
      | () -> ()
      | exception Ill_formed msg -> b.failed <- Some msg

  let push b kind tid x =
    check_open b;
    push_at b kind (thread b tid) x

  let post_step b th k ~target ~(flavour : Operation.post_flavour) =
    let i = b.len in
    if i = Bytes.length b.kinds then grow_columns b;
    let j = b.post_at.(k) in
    if j >= 0 then
      fail
        "position %d: task %a posted twice (first at %d); rename instances \
         uniquely"
        i Task_id.pp b.task_ids.(k) j;
    b.post_at.(k) <- i;
    b.target.(k) <- Thread_id.to_int target;
    (match flavour with
     | Immediate -> b.flavour.(k) <- flavour_immediate
     | Front -> b.flavour.(k) <- flavour_front
     | Delayed d ->
       b.flavour.(k) <- flavour_delayed;
       b.delay.(k) <- d);
    b.posted <- room b.posted b.nposted 0;
    b.posted.(b.nposted) <- k;
    b.nposted <- b.nposted + 1;
    record b Post th k b.current.(th)

  let post_with b th k ~target ~flavour =
    if Option.is_none b.failed then
      match post_step b th k ~target ~flavour with
      | () -> ()
      | exception Ill_formed msg -> b.failed <- Some msg

  let post b tid k ~target ~flavour =
    check_open b;
    post_with b (thread b tid) k ~target ~flavour

  let add b { thread = tid; op } =
    check_open b;
    if Option.is_none b.failed then begin
      let th = thread b (Thread_id.to_int tid) in
      match (op : Operation.t) with
      | Thread_init -> push_at b Thread_init th (-1)
      | Thread_exit -> push_at b Thread_exit th (-1)
      | Attach_queue -> push_at b Attach_queue th (-1)
      | Loop_on_queue -> push_at b Loop_on_queue th (-1)
      | Fork t' -> push_at b Fork th (Thread_id.to_int t')
      | Join t' -> push_at b Join th (Thread_id.to_int t')
      | Post { task = p; target; flavour } ->
        post_with b th (task b p) ~target ~flavour
      | Begin_task p -> push_at b Begin_task th (task b p)
      | End_task p -> push_at b End_task th (task b p)
      | Enable p -> push_at b Enable th (task b p)
      | Cancel p -> push_at b Cancel th (task b p)
      | Acquire l -> push_at b Acquire th (lock b l)
      | Release l -> push_at b Release th (lock b l)
      | Read m -> push_at b Read th (location b m)
      | Write m -> push_at b Write th (location b m)
    end

  let freeze b : trace =
    let ntasks = b.ntasks and nlocks = b.nlocks and nlocs = b.nlocs in
    let locations = Array.sub b.locations 0 nlocs in
    let task_ids = Array.sub b.task_ids 0 ntasks in
    let sub a = Array.sub a 0 ntasks in
    let post_at = sub b.post_at and begin_at = sub b.begin_at
    and end_at = sub b.end_at and enable_at = sub b.enable_at
    and cancel_at = sub b.cancel_at and target = sub b.target
    and flavour = sub b.flavour and delay = sub b.delay in
    let lock_ids = Array.sub b.lock_ids 0 nlocks in
    (* a task's operations exist only where it has a position *)
    let task_ops at make =
      Array.init ntasks (fun k ->
        if at.(k) >= 0 then make task_ids.(k) else Operation.Thread_init)
    in
    (* Columns more than half empty are trimmed, so a trace keeps at
       most twice its length, as doubling alone would; copying a fuller
       one would only add a transient copy of every column. *)
    let len = b.len in
    let trim = 2 * len < Bytes.length b.kinds in
    let column a = if trim then Array.sub a 0 len else a in
    { len
    ; kinds = (if trim then Bytes.sub b.kinds 0 len else b.kinds)
    ; thread_col = column b.thread_col
    ; operand = column b.operand
    ; enclosing = column b.enclosing
    ; thread_ids = Array.sub b.thread_ids 0 b.nthreads
    ; thread_index = b.thread_index
    ; attach_at = Array.sub b.attach_at 0 b.nthreads
    ; loop_at = Array.sub b.loop_at 0 b.nthreads
    ; task_ids
    ; task_index = b.task_index
    ; post_at
    ; begin_at
    ; end_at
    ; enable_at
    ; cancel_at
    ; target
    ; flavour
    ; delay
    ; posted = Array.sub b.posted 0 b.nposted
    ; lock_ids
    ; locations
    ; loc_accesses = Array.sub b.loc_accesses 0 nlocs
    ; read_ops = Array.map (fun m -> Operation.Read m) locations
    ; write_ops = Array.map (fun m -> Operation.Write m) locations
    ; post_ops =
        Array.init ntasks (fun k ->
          if post_at.(k) >= 0 then
            Operation.Post
              { task = task_ids.(k)
              ; target = Thread_id.make target.(k)
              ; flavour = flavour_of_code flavour.(k) delay.(k)
              }
          else Operation.Thread_init)
    ; begin_ops = task_ops begin_at (fun p -> Operation.Begin_task p)
    ; end_ops = task_ops end_at (fun p -> Operation.End_task p)
    ; enable_ops = task_ops enable_at (fun p -> Operation.Enable p)
    ; cancel_ops = task_ops cancel_at (fun p -> Operation.Cancel p)
    ; acquire_ops = Array.map (fun l -> Operation.Acquire l) lock_ids
    ; release_ops = Array.map (fun l -> Operation.Release l) lock_ids
    ; fork_ops = b.fork_ops
    ; join_ops = b.join_ops
    }

  let finish b =
    check_open b;
    b.finished <- true;
    match b.failed with
    | Some msg -> Error msg
    | None -> Ok (freeze b)
end

let of_events events =
  let b = Builder.create ~capacity:(List.length events) () in
  List.iter (Builder.add b) events;
  Builder.finish b

let of_rev_events rev_events =
  let n = List.length rev_events in
  let b = Builder.create ~capacity:n () in
  (match rev_events with
   | [] -> ()
   | last :: _ ->
     let events = Array.make n last in
     List.iteri (fun i e -> Array.unsafe_set events (n - 1 - i) e) rev_events;
     Array.iter (Builder.add b) events);
  Builder.finish b

let of_events_exn events =
  match of_events events with
  | Ok trace -> trace
  | Error msg -> invalid_arg ("Trace.of_events_exn: " ^ msg)

let length t = t.len

let out_of_bounds name i =
  invalid_arg (Printf.sprintf "Trace.%s: index %d out of bounds" name i)

(* {1 Columns} *)

let kind t i =
  if i < 0 || i >= t.len then out_of_bounds "kind" i;
  Array.unsafe_get kinds_by_code (Char.code (Bytes.unsafe_get t.kinds i))

let thread_index t i =
  if i < 0 || i >= t.len then out_of_bounds "thread_index" i;
  Array.unsafe_get t.thread_col i

let operand t i =
  if i < 0 || i >= t.len then out_of_bounds "operand" i;
  Array.unsafe_get t.operand i

let enclosing_index t i =
  if i < 0 || i >= t.len then out_of_bounds "enclosing_index" i;
  Array.unsafe_get t.enclosing i

let is_access t i =
  if i < 0 || i >= t.len then out_of_bounds "is_access" i;
  let c = Char.code (Bytes.unsafe_get t.kinds i) in
  c = code_read || c = code_write

let is_write t i =
  if i < 0 || i >= t.len then out_of_bounds "is_write" i;
  Char.code (Bytes.unsafe_get t.kinds i) = code_write

let location_id t i =
  if i < 0 || i >= t.len then out_of_bounds "location_id" i;
  let c = Char.code (Bytes.unsafe_get t.kinds i) in
  if c = code_read || c = code_write then Array.unsafe_get t.operand i else -1

let access_code t i =
  if i < 0 || i >= t.len then out_of_bounds "access_code" i;
  let c = Char.code (Bytes.unsafe_get t.kinds i) in
  if c = code_write then (Array.unsafe_get t.operand i lsl 1) lor 1
  else if c = code_read then Array.unsafe_get t.operand i lsl 1
  else -1

(* {1 Events, rebuilt on demand} *)

let op_unchecked t i : Operation.t =
  let x = Array.unsafe_get t.operand i in
  match Array.unsafe_get kinds_by_code (Char.code (Bytes.unsafe_get t.kinds i)) with
  | Thread_init -> Thread_init
  | Thread_exit -> Thread_exit
  | Attach_queue -> Attach_queue
  | Loop_on_queue -> Loop_on_queue
  | Fork -> Ident.Int_table.find t.fork_ops x
  | Join -> Ident.Int_table.find t.join_ops x
  | Post -> t.post_ops.(x)
  | Begin_task -> t.begin_ops.(x)
  | End_task -> t.end_ops.(x)
  | Enable -> t.enable_ops.(x)
  | Cancel -> t.cancel_ops.(x)
  | Acquire -> t.acquire_ops.(x)
  | Release -> t.release_ops.(x)
  | Read -> t.read_ops.(x)
  | Write -> t.write_ops.(x)

let event_unchecked t i =
  { thread = t.thread_ids.(Array.unsafe_get t.thread_col i)
  ; op = op_unchecked t i
  }

let get t i =
  if i < 0 || i >= t.len then out_of_bounds "get" i;
  Obs.add "trace.events_built";
  event_unchecked t i

let op t i =
  if i < 0 || i >= t.len then out_of_bounds "op" i;
  op_unchecked t i

let thread t i =
  if i < 0 || i >= t.len then out_of_bounds "thread" i;
  t.thread_ids.(Array.unsafe_get t.thread_col i)

let events t =
  Obs.add ~n:t.len "trace.events_built";
  let events = ref [] in
  for i = t.len - 1 downto 0 do
    events := event_unchecked t i :: !events
  done;
  !events

let iteri f t =
  Obs.add ~n:t.len "trace.events_built";
  for i = 0 to t.len - 1 do
    f i (event_unchecked t i)
  done

(* {1 Tables} *)

let enclosing_task t i =
  let k = enclosing_index t i in
  if k < 0 then None else Some t.task_ids.(k)

let location_count t = Array.length t.locations
let location t id = t.locations.(id)
let location_accesses t id = t.loc_accesses.(id)
let locations t = Array.copy t.locations
let thread_count t = Array.length t.thread_ids
let thread_id t k = t.thread_ids.(k)

(* The identifier tables are shared with every {!prefix} view of the
   trace, so an index is answered only below the view's bound. *)
let index_of_thread t tid =
  match Ident.Int_table.find t.thread_index (Thread_id.to_int tid) with
  | k -> if k < Array.length t.thread_ids then k else -1
  | exception Not_found -> -1

let threads t = Array.to_list t.thread_ids

let has_queue t tid =
  let k = index_of_thread t tid in
  k >= 0 && t.attach_at.(k) >= 0

let loop_index t tid =
  let k = index_of_thread t tid in
  if k >= 0 && t.loop_at.(k) >= 0 then Some t.loop_at.(k) else None

let task_count t = Array.length t.task_ids
let task_id t k = t.task_ids.(k)

let index_of_task t p =
  match Task_id.Table.find t.task_index p with
  | k -> if k < Array.length t.task_ids then k else -1
  | exception Not_found -> -1

let tasks t = Array.fold_right (fun k acc -> t.task_ids.(k) :: acc) t.posted []
let iter_posted f t = Array.iter f t.posted
let post_at t k = t.post_at.(k)
let begin_at t k = t.begin_at.(k)
let end_at t k = t.end_at.(k)
let enable_at t k = t.enable_at.(k)

let target_index t k =
  let target = t.target.(k) in
  if target < 0 then -1 else index_of_thread t (Thread_id.make target)

let task_flavour t k =
  if t.post_at.(k) < 0 then invalid_arg "Trace.task_flavour: task never posted";
  flavour_of_code t.flavour.(k) t.delay.(k)

let lock_count t = Array.length t.lock_ids
let lock_id t k = t.lock_ids.(k)

let by_task at t p =
  let k = index_of_task t p in
  if k < 0 || at.(k) < 0 then None else Some at.(k)

let post_index t p = by_task t.post_at t p
let begin_index t p = by_task t.begin_at t p
let end_index t p = by_task t.end_at t p
let enable_index t p = by_task t.enable_at t p
let cancel_index t p = by_task t.cancel_at t p

let post_target t p =
  let k = index_of_task t p in
  if k < 0 || t.post_at.(k) < 0 then None
  else Some (Thread_id.make t.target.(k))

let post_flavour t p =
  let k = index_of_task t p in
  if k < 0 || t.post_at.(k) < 0 then None else Some (task_flavour t k)

(* {1 Transformations} *)

let prefix t n =
  if n < 0 || n > t.len then
    invalid_arg (Printf.sprintf "Trace.prefix: %d outside [0, %d]" n t.len);
  if n = t.len then t
  else begin
    (* Every table is numbered in order of first use, so the ids the
       first [n] positions use are those below one bound per table. *)
    let nthreads = ref 0 and ntasks = ref 0 and nlocks = ref 0
    and nlocs = ref 0 in
    let counts = Array.make (Array.length t.locations) 0 in
    let bound r x = if x >= !r then r := x + 1 in
    for i = 0 to n - 1 do
      bound nthreads (Array.unsafe_get t.thread_col i);
      let x = Array.unsafe_get t.operand i in
      match
        Array.unsafe_get kinds_by_code (Char.code (Bytes.unsafe_get t.kinds i))
      with
      | Read | Write ->
        counts.(x) <- counts.(x) + 1;
        bound nlocs x
      | Post | Begin_task | End_task | Enable | Cancel -> bound ntasks x
      | Acquire | Release -> bound nlocks x
      | Thread_init | Thread_exit | Fork | Join | Attach_queue | Loop_on_queue
        -> ()
    done;
    let nthreads = !nthreads and ntasks = !ntasks in
    (* a position at or past [n] is no position of the view *)
    let before at k = Array.init k (fun j -> if at.(j) < n then at.(j) else -1) in
    let post_at = before t.post_at ntasks in
    let nposted = ref 0 in
    while
      !nposted < Array.length t.posted && t.post_at.(t.posted.(!nposted)) < n
    do
      incr nposted
    done;
    { t with
      len = n
    ; thread_ids = Array.sub t.thread_ids 0 nthreads
    ; attach_at = before t.attach_at nthreads
    ; loop_at = before t.loop_at nthreads
    ; task_ids = Array.sub t.task_ids 0 ntasks
    ; post_at
    ; begin_at = before t.begin_at ntasks
    ; end_at = before t.end_at ntasks
    ; enable_at = before t.enable_at ntasks
    ; cancel_at = before t.cancel_at ntasks
    ; target =
        (* [target_index] reads a target without asking [post_at], so a
           cut post clears it; the shared flavours are read only where
           [post_at] says posted *)
        Array.init ntasks (fun k -> if post_at.(k) >= 0 then t.target.(k) else -1)
    ; posted = Array.sub t.posted 0 !nposted
    ; lock_ids = Array.sub t.lock_ids 0 !nlocks
    ; locations = Array.sub t.locations 0 !nlocs
    ; loc_accesses = Array.sub counts 0 !nlocs
    }
  end

let select t positions =
  (* the selected positions through a fresh builder, their ids
     renumbered in order of first use *)
  let b = Builder.create ~capacity:(Array.length positions) () in
  let renumber map k fresh =
    let k' = map.(k) in
    if k' >= 0 then k'
    else begin
      let k' = fresh () in
      map.(k) <- k';
      k'
    end
  in
  let loc_map = Array.make (location_count t) (-1)
  and task_map = Array.make (task_count t) (-1)
  and lock_map = Array.make (lock_count t) (-1) in
  let task x = renumber task_map x (fun () -> Builder.new_task b t.task_ids.(x)) in
  Array.iter
    (fun i ->
       if i < 0 || i >= t.len then out_of_bounds "select" i;
       let kind = kind t i and x = t.operand.(i) in
       let th = Thread_id.to_int t.thread_ids.(t.thread_col.(i)) in
       match kind with
       | Read | Write ->
         Builder.push b kind th
           (renumber loc_map x (fun () -> Builder.new_location b t.locations.(x)))
       | Post ->
         Builder.post b th (task x) ~target:(Thread_id.make t.target.(x))
           ~flavour:(task_flavour t x)
       | Begin_task | End_task | Enable | Cancel -> Builder.push b kind th (task x)
       | Acquire | Release ->
         Builder.push b kind th
           (renumber lock_map x (fun () -> Builder.new_lock b t.lock_ids.(x)))
       | Thread_init | Thread_exit | Fork | Join | Attach_queue | Loop_on_queue ->
         Builder.push b kind th x)
    positions;
  Builder.finish b

let remove_cancelled t =
  let cancelled k =
    let c = t.cancel_at.(k) in
    c >= 0
    &&
    let b = t.begin_at.(k) in
    b < 0 || c < b
  in
  if Array.for_all (fun c -> c < 0) t.cancel_at then t
  else begin
    let kept = ref [] in
    for i = t.len - 1 downto 0 do
      let keep =
        match kind t i with
        | Cancel -> false
        | Post -> not (cancelled t.operand.(i))
        | Thread_init | Thread_exit | Fork | Join | Attach_queue
        | Loop_on_queue | Begin_task | End_task | Acquire | Release | Read
        | Write | Enable ->
          let e = t.enclosing.(i) in
          e < 0 || not (cancelled e)
      in
      if keep then kept := i :: !kept
    done;
    match select t (Array.of_list !kept) with
    | Ok trace -> trace
    | Error msg -> invalid_arg ("Trace.remove_cancelled: " ^ msg)
  end

type stats =
  { trace_length : int
  ; fields : int
  ; threads_without_queue : int
  ; threads_with_queue : int
  ; async_tasks : int
  }

let stats t =
  let fields = Hashtbl.create 64 in
  Array.iter
    (fun m -> Hashtbl.replace fields (Location.field_key m) ())
    t.locations;
  let with_q =
    Array.fold_left (fun n at -> if at >= 0 then n + 1 else n) 0 t.attach_at
  in
  { trace_length = length t
  ; fields = Hashtbl.length fields
  ; threads_without_queue = thread_count t - with_q
  ; threads_with_queue = with_q
  ; async_tasks = Array.length t.posted
  }

let pp_stats ppf s =
  Format.fprintf ppf
    "length=%d fields=%d threads(w/o Q)=%d threads(w/ Q)=%d async tasks=%d"
    s.trace_length s.fields s.threads_without_queue s.threads_with_queue
    s.async_tasks

let pp ppf t =
  iteri
    (fun i e -> Format.fprintf ppf "%4d  %a@." i pp_event e)
    t
