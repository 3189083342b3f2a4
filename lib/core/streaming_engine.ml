open! Import
module Thread_id = Ident.Thread_id
module Task_id = Ident.Task_id
module Lock_id = Ident.Lock_id
module Location = Ident.Location
module Int_table = Ident.Int_table

type config =
  { completed_window : int
  ; gc_interval : int
  }

let default_config = { completed_window = 64; gc_interval = 4096 }
let ablation_config = { completed_window = max_int; gc_interval = 0 }

type stats =
  { events : int
  ; slots_allocated : int
  ; live_slots : int
  ; peak_live_slots : int
  ; slots_retired : int
  ; resident_clock_entries : int
  ; peak_clock_entries : int
  ; fast_path : int
  ; promotions : int
  ; demotions : int
  ; comparisons : int
  ; folded_tasks : int
  ; gc_sweeps : int
  ; clock_entries_merged : int
  ; races : int
  }

(* {2 Clocks}

   Two representations, both [int array]s indexed by slot.

   A {e dense} clock holds slot [i]'s time at index [i]; indices past
   its end read as 0.  The executing context's clock is dense, so a
   tick is one store and a lookup one load; so are a looper's [base]
   and a lock's clock, which accumulate joins.  Dense arrays grow to
   exactly the width they need.

   Every clock kept for a later join or probe (post, enable, fork,
   exit, attach and loop clocks, and what a completed task added to its
   looper's base) is a {e snapshot}: the non-zero entries only, as
   (slot, time) pairs laid out [s0; t0; s1; t1; ...].  A snapshot
   taken from a dense clock lists its slots in ascending order, so a
   probe is a binary search; joining one costs its entries, not the
   width of the clock it came from. *)

let get (clock : int array) slot =
  if slot < Array.length clock then Array.unsafe_get clock slot else 0

let widen clock width =
  let wide = Array.make width 0 in
  Array.blit clock 0 wide 0 (Array.length clock);
  wide

(* [snap_get snap slot] is [slot]'s time in a snapshot whose slots are
   ascending. *)
let snap_get (snap : int array) slot =
  let rec search lo hi =
    if lo >= hi then 0
    else
      let mid = (lo + hi) lsr 1 in
      let s = Array.unsafe_get snap (2 * mid) in
      if s = slot then Array.unsafe_get snap ((2 * mid) + 1)
      else if s < slot then search (mid + 1) hi
      else search lo mid
  in
  search 0 (Array.length snap / 2)

(* The largest slot of a snapshot's pairs from index [from] on, -1 if
   none. *)
let max_slot (snap : int array) from =
  let m = ref (-1) in
  let i = ref from in
  while !i < Array.length snap do
    m := max !m (Array.unsafe_get snap !i);
    i := !i + 2
  done;
  !m

(* The post of a task, remembered until its [begin] consumes it.  The
   epoch (p_slot, p_time) stands in for the whole post clock in the
   FIFO premise: in this transition system, knowing an event's epoch is
   equivalent to dominating the event's entire clock (knowledge only
   propagates by merging full clocks), so an O(slots) comparison of
   whole clocks collapses to one O(1) lookup — which is what lets
   retired slots be zeroed in resident clocks and recycled. *)
type pending_post =
  { p_clock : int array  (** snapshot *)
  ; p_slot : int
  ; p_time : int
  ; p_flavour : Operation.post_flavour
  }

(* A completed task, remembered (up to the window) for the FIFO and
   NOPRE checks at later [begin]s on the same thread. *)
type completed =
  { c_slot : int
  ; c_post_slot : int
  ; c_post_time : int
  ; mutable c_delta : int array
        (** snapshot, slots in no order: the entries the task raised
            above its looper's base.  Its end clock is that base joined
            with the delta, and since a base only grows, joining the
            delta into any clock that holds the current base joins the
            whole end clock. *)
  ; c_end_time : int
        (** the slot's final local time.  Every event ticks the
            executing slot and the slot is retired at [end], so this
            time is {e unique} to the end clock among all clocks ever
            exported from the segment: a clock holding the slot at
            [c_end_time] necessarily descends from the end clock and so
            already dominates it.  That turns the per-record merge
            decision at [begin] into an O(1) epoch probe. *)
  ; c_flavour : Operation.post_flavour
  }

type thread_ctx =
  { mutable slot : int
  ; mutable clock : int array
        (** dense; while a task runs it is [base] itself, and while the
            looper is idle it is [[||]] (no operation has run yet) *)
  ; mutable in_task : Task_id.t option
  ; mutable current_post : pending_post option
        (** the running task's post; its [p_clock] is dropped at
            [begin], only the epoch and flavour are needed at [end] *)
  ; mutable loop_clock : int array  (** snapshot at [loopOnQ] *)
  ; mutable idle : bool
        (** between tasks after [loopOnQ]: NO-Q-PO leaves the
            out-of-task operations there unordered with each other, so
            each starts its own slot from [loop_clock] *)
  ; mutable base : int array
        (** dense: the loop clock joined with the end clock of every
            completed task evicted from the window.  Every [begin]
            starts from it — an over-approximation of FIFO/NOPRE for the
            evicted tasks, so it only ever {e adds} orderings (loses
            races, never invents them) *)
  ; mutable on_base : bool
        (** a task runs directly on [base]: [clock == base], and every
            raise is logged so [end] can take it back *)
  ; mutable undo : int array
        (** (slot, time before the task) pairs of the slots the running
            task raised, each slot once *)
  ; mutable undo_len : int  (** pairs in use *)
  ; mutable stamps : int array
        (** per slot, the number of the last task that logged it *)
  ; mutable task_no : int
  ; mutable support : int array
        (** while no task runs: the slots [clock] holds non-zero, in no
            order, so a snapshot of it costs its entries *)
  ; mutable support_len : int
  ; mutable completed : completed list  (** newest first, ≤ window *)
  ; mutable completed_len : int
  }

type loc_state =
  { mutable writes : Race.access Epoch.t
  ; mutable reads : Race.access Epoch.t
  }

type t =
  { cfg : config
  ; mutable next_slot : int  (** slot handouts so far *)
  ; mutable width : int  (** distinct slot numbers ever handed out *)
  ; mutable free : int list
        (** retired slots, ascending, each zeroed in every clock *)
  ; mutable scratch : int array
        (** where snapshots and deltas are gathered before they are
            cut to size *)
  ; threads : thread_ctx Int_table.t
  ; fork_clocks : int array Int_table.t
  ; exit_clocks : int array Int_table.t
  ; attach_clocks : int array Int_table.t
  ; lock_clocks : int array Lock_id.Table.t
  ; enable_clocks : int array Task_id.Table.t
  ; posts : pending_post Task_id.Table.t
  ; locations : loc_state Location.Table.t
  ; mutable races : Race.t list
  ; mutable events : int
  ; mutable fast_path : int
  ; mutable promotions : int
  ; mutable demotions : int
  ; mutable comparisons : int
  ; mutable folded_tasks : int
  ; mutable gc_sweeps : int
  ; mutable clock_entries_merged : int
  ; mutable live_slots : int
  ; mutable peak_live_slots : int
  ; mutable resident_clock_entries : int
  ; mutable peak_clock_entries : int
  }

let create ?(config = default_config) () =
  { cfg = config
  ; next_slot = 0
  ; width = 0
  ; free = []
  ; scratch = [||]
  ; threads = Int_table.create 16
  ; fork_clocks = Int_table.create 8
  ; exit_clocks = Int_table.create 8
  ; attach_clocks = Int_table.create 8
  ; lock_clocks = Lock_id.Table.create 8
  ; enable_clocks = Task_id.Table.create 16
  ; posts = Task_id.Table.create 64
  ; locations = Location.Table.create 64
  ; races = []
  ; events = 0
  ; fast_path = 0
  ; promotions = 0
  ; demotions = 0
  ; comparisons = 0
  ; folded_tasks = 0
  ; gc_sweeps = 0
  ; clock_entries_merged = 0
  ; live_slots = 0
  ; peak_live_slots = 0
  ; resident_clock_entries = 0
  ; peak_clock_entries = 0
  }

let fresh_slot t =
  t.next_slot <- t.next_slot + 1;
  match t.free with
  | s :: rest ->
    t.free <- rest;
    s
  | [] ->
    let s = t.width in
    t.width <- s + 1;
    s

let scratch t n =
  if Array.length t.scratch < n then
    t.scratch <- Array.make (max n (2 * Array.length t.scratch)) 0;
  t.scratch

(* The non-zero entries of a dense clock, slots ascending. *)
let snapshot t clock =
  let n = Array.length clock in
  t.clock_entries_merged <- t.clock_entries_merged + n;
  let buf = scratch t (2 * n) in
  let k = ref 0 in
  for i = 0 to n - 1 do
    let v = Array.unsafe_get clock i in
    if v <> 0 then begin
      Array.unsafe_set buf !k i;
      Array.unsafe_set buf (!k + 1) v;
      k := !k + 2
    end
  done;
  Array.sub buf 0 !k

(* [join t dst src] is [dst] (owned by the caller, widened if [src] is
   wider) raised pointwise to the dense clock [src]. *)
let join t dst src =
  let n = Array.length src in
  t.clock_entries_merged <- t.clock_entries_merged + n;
  let dst = if n <= Array.length dst then dst else widen dst n in
  for i = 0 to n - 1 do
    let v = Array.unsafe_get src i in
    if v > Array.unsafe_get dst i then Array.unsafe_set dst i v
  done;
  dst

(* [fold t dst snap] is [dst] (owned by the caller, widened if [snap]
   holds a slot past its end) raised to the snapshot [snap]: a base
   taking in an evicted record or a loop clock, outside any task. *)
let fold t dst snap =
  let n = Array.length snap in
  t.clock_entries_merged <- t.clock_entries_merged + (n / 2);
  let top = max_slot snap 0 in
  let dst = if top < Array.length dst then dst else widen dst (top + 1) in
  let i = ref 0 in
  while !i < n do
    let s = Array.unsafe_get snap !i and v = Array.unsafe_get snap (!i + 1) in
    if v > Array.unsafe_get dst s then Array.unsafe_set dst s v;
    i := !i + 2
  done;
  dst

(* {2 The executing context's clock}

   Every change to a context's clock goes through [raise_slot].  While a
   task runs on its looper's base, the first raise of each slot logs the
   slot's time before the task (a slot is logged once per task: its
   stamp holds the task's number), so [close_task] can hand the raised
   entries to the completed record and put the base back as it was.
   Any other context's clock starts empty, and the first raise of each
   slot adds it to the context's support list, so a snapshot of it
   costs its entries rather than its width. *)

(* The context's clock starts again from nothing. *)
let clear c =
  c.clock <- [||];
  c.support_len <- 0

let ensure_width c n =
  if n > Array.length c.clock then begin
    c.clock <- widen c.clock n;
    if c.on_base then c.base <- c.clock
  end

(* Raises [slot] (within the clock's width) to [v]. *)
let raise_slot c slot v =
  if c.on_base then begin
    if slot >= Array.length c.stamps then
      c.stamps <- widen c.stamps (Array.length c.clock);
    if Array.unsafe_get c.stamps slot <> c.task_no then begin
      Array.unsafe_set c.stamps slot c.task_no;
      if 2 * (c.undo_len + 1) > Array.length c.undo then
        c.undo <- widen c.undo (max 32 (2 * Array.length c.undo));
      Array.unsafe_set c.undo (2 * c.undo_len) slot;
      Array.unsafe_set c.undo ((2 * c.undo_len) + 1)
        (Array.unsafe_get c.clock slot);
      c.undo_len <- c.undo_len + 1
    end
  end
  else if Array.unsafe_get c.clock slot = 0 then begin
    if c.support_len = Array.length c.support then
      c.support <- widen c.support (max 16 (2 * c.support_len));
    Array.unsafe_set c.support c.support_len slot;
    c.support_len <- c.support_len + 1
  end;
  Array.unsafe_set c.clock slot v

let tick c =
  ensure_width c (c.slot + 1);
  raise_slot c c.slot (Array.unsafe_get c.clock c.slot + 1)

let join_dense t c src =
  let n = Array.length src in
  t.clock_entries_merged <- t.clock_entries_merged + n;
  ensure_width c n;
  for i = 0 to n - 1 do
    let v = Array.unsafe_get src i in
    if v > Array.unsafe_get c.clock i then raise_slot c i v
  done

let join_snapshot t c snap =
  let n = Array.length snap in
  t.clock_entries_merged <- t.clock_entries_merged + (n / 2);
  let i = ref 0 in
  while !i < n do
    let s = Array.unsafe_get snap !i and v = Array.unsafe_get snap (!i + 1) in
    if v > get c.clock s then begin
      if s >= Array.length c.clock then ensure_width c (max_slot snap !i + 1);
      raise_slot c s v
    end;
    i := !i + 2
  done

(* Ends the task running on [c]'s base: returns the entries it raised
   (its delta) and restores the base. *)
let close_task t c =
  let base = c.base and undo = c.undo in
  let buf = scratch t (2 * c.undo_len) in
  let k = ref 0 in
  for j = 0 to c.undo_len - 1 do
    let s = Array.unsafe_get undo (2 * j)
    and before = Array.unsafe_get undo ((2 * j) + 1) in
    let v = get base s in
    if v > before then begin
      Array.unsafe_set buf !k s;
      Array.unsafe_set buf (!k + 1) v;
      k := !k + 2;
      Array.unsafe_set base s before
    end
  done;
  t.clock_entries_merged <- t.clock_entries_merged + c.undo_len;
  c.undo_len <- 0;
  c.on_base <- false;
  Array.sub buf 0 !k

(* A snapshot of [c]'s clock: built from the support list when that is
   short against the clock's width, else by a scan (a running task's
   clock is its looper's base, which keeps no support list). *)
let snapshot_ctx t c =
  if c.on_base || 4 * c.support_len > Array.length c.clock then
    snapshot t c.clock
  else begin
    let slots = Array.sub c.support 0 c.support_len in
    Array.sort Int.compare slots;
    t.clock_entries_merged <- t.clock_entries_merged + c.support_len;
    let snap = Array.make (2 * c.support_len) 0 in
    Array.iteri
      (fun k s ->
         snap.(2 * k) <- s;
         snap.((2 * k) + 1) <- c.clock.(s))
      slots;
    snap
  end

let ctx t tid =
  match Int_table.find_opt t.threads (Thread_id.to_int tid) with
  | Some c -> c
  | None ->
    let c =
      { slot = fresh_slot t
      ; clock = [||]
      ; in_task = None
      ; current_post = None
      ; loop_clock = [||]
      ; idle = false
      ; base = [||]
      ; on_base = false
      ; undo = [||]
      ; undo_len = 0
      ; stamps = [||]
      ; task_no = 0
      ; support = [||]
      ; support_len = 0
      ; completed = []
      ; completed_len = 0
      }
    in
    Int_table.add t.threads (Thread_id.to_int tid) c;
    c

(* {2 Retired-slot garbage collection and slot recycling}

   A slot can appear as the {e subject} of a future [get] only while
   something still holds it as a comparison key: a frontier entry, a
   completed-window record (its own slot for NOPRE, its post epoch for
   FIFO), a pending post's epoch, the in-flight post of a running task
   (it becomes a completed record's post epoch at [end]), or a live
   context's current slot.  Once none do, the slot is retired: its
   entries in resident clocks are pure payload that no comparison will
   ever read, so zeroing them cannot change any future answer — the
   sweep is invisible to the race set.

   Recycling rests on one invariant: a slot goes on the free list only
   after its column is zeroed in every resident clock — dense clocks,
   snapshots, and the times a running task's undo log would restore.
   A recycled slot then reads 0 everywhere, exactly as a fresh one
   would, and array widths stay near the peak number of slots in use
   instead of growing with every slot ever handed out. *)

let live_slot_mask t =
  let live = Bytes.make t.width '\000' in
  let add s = Bytes.unsafe_set live s '\001' in
  Int_table.iter
    (fun _ c ->
       add c.slot;
       Option.iter (fun (p : pending_post) -> add p.p_slot) c.current_post;
       List.iter
         (fun comp ->
            add comp.c_slot;
            add comp.c_post_slot)
         c.completed)
    t.threads;
  Task_id.Table.iter (fun _ (p : pending_post) -> add p.p_slot) t.posts;
  Location.Table.iter
    (fun _ l ->
       Epoch.fold (fun e () -> add e.Epoch.slot) l.writes ();
       Epoch.fold (fun e () -> add e.Epoch.slot) l.reads ())
    t.locations;
  live

let sweep t =
  let live = live_slot_mask t in
  let is_live s = Bytes.unsafe_get live s <> '\000' in
  let live_slots = ref 0 in
  let free = ref [] in
  for s = t.width - 1 downto 0 do
    if is_live s then incr live_slots else free := s :: !free
  done;
  (* Zero every non-live column (already-free ones are 0 anyway), count
     the non-zero entries that remain, and shrink a dense clock whose
     non-zero prefix is under half its width. *)
  let resident = ref 0 in
  let purge clock =
    let used = ref 0 in
    for i = 0 to Array.length clock - 1 do
      if not (is_live i) then Array.unsafe_set clock i 0
      else if Array.unsafe_get clock i <> 0 then begin
        incr resident;
        used := i + 1
      end
    done;
    if 2 * !used < Array.length clock then Array.sub clock 0 !used else clock
  in
  let purge_snapshot snap =
    let kept = ref 0 in
    let i = ref 0 in
    while !i < Array.length snap do
      if is_live (Array.unsafe_get snap !i) then incr kept;
      i := !i + 2
    done;
    resident := !resident + !kept;
    if 2 * !kept = Array.length snap then snap
    else begin
      let out = Array.make (2 * !kept) 0 in
      let k = ref 0 in
      let i = ref 0 in
      while !i < Array.length snap do
        if is_live snap.(!i) then begin
          out.(!k) <- snap.(!i);
          out.(!k + 1) <- snap.(!i + 1);
          k := !k + 2
        end;
        i := !i + 2
      done;
      out
    end
  in
  let purge_tbl iter tbl =
    iter (fun _ snap -> Some (purge_snapshot snap)) tbl
  in
  Int_table.iter
    (fun _ c ->
       (* A running task's clock is its base: purge the array once. *)
       c.base <- purge c.base;
       c.clock <- (if c.on_base then c.base else purge c.clock);
       (* Retired slots leave the support list with their entries. *)
       let kept = ref 0 in
       for j = 0 to c.support_len - 1 do
         let s = c.support.(j) in
         if is_live s then begin
           c.support.(!kept) <- s;
           incr kept
         end
       done;
       c.support_len <- !kept;
       for j = 0 to c.undo_len - 1 do
         if not (is_live c.undo.(2 * j)) then c.undo.((2 * j) + 1) <- 0
       done;
       c.loop_clock <- purge_snapshot c.loop_clock;
       List.iter
         (fun comp -> comp.c_delta <- purge_snapshot comp.c_delta)
         c.completed)
    t.threads;
  purge_tbl Int_table.filter_map_inplace t.fork_clocks;
  purge_tbl Int_table.filter_map_inplace t.exit_clocks;
  purge_tbl Int_table.filter_map_inplace t.attach_clocks;
  purge_tbl Task_id.Table.filter_map_inplace t.enable_clocks;
  Lock_id.Table.filter_map_inplace
    (fun _ clock -> Some (purge clock))
    t.lock_clocks;
  Task_id.Table.filter_map_inplace
    (fun _ (p : pending_post) ->
       Some { p with p_clock = purge_snapshot p.p_clock })
    t.posts;
  t.free <- !free;
  t.gc_sweeps <- t.gc_sweeps + 1;
  t.live_slots <- !live_slots;
  t.peak_live_slots <- max t.peak_live_slots t.live_slots;
  t.resident_clock_entries <- !resident;
  t.peak_clock_entries <- max t.peak_clock_entries !resident;
  if Obs.enabled () then begin
    Obs.add "streaming.gc_sweeps";
    Obs.set_gauge "streaming.live_slots" (float_of_int t.live_slots);
    Obs.set_gauge "streaming.retired_slots"
      (float_of_int (t.next_slot - t.live_slots));
    Obs.set_gauge "streaming.resident_clock_entries" (float_of_int !resident);
    (* The memory frontier over time: every sweep appends a live-slot
       watermark sample, and the rate-limited resource sampler rides
       along so RSS and heap series line up with it. *)
    Obs.record_series "streaming.live_slots" (float_of_int t.live_slots);
    Obs.record_series "streaming.resident_clock_entries"
      (float_of_int !resident);
    Obs.maybe_sample ()
  end

let loc_state t location =
  match Location.Table.find_opt t.locations location with
  | Some l -> l
  | None ->
    let l = { writes = Epoch.bottom; reads = Epoch.bottom } in
    Location.Table.add t.locations location l;
    l

let count_outcome t = function
  | Epoch.Fast_path -> t.fast_path <- t.fast_path + 1
  | Epoch.Promoted -> t.promotions <- t.promotions + 1
  | Epoch.Demoted -> t.demotions <- t.demotions + 1
  | Epoch.Stayed -> ()

let report t (access : Race.access) (prev : Race.access Epoch.entry list) =
  List.iter
    (fun (e : Race.access Epoch.entry) ->
       t.races <- { Race.first = e.Epoch.payload; second = access } :: t.races)
    prev

let record_access t c position location is_write tid =
  let access =
    { Race.position; location; is_write; thread = tid; task = c.in_task }
  in
  let l = loc_state t location in
  let clock = get c.clock in
  let time = clock c.slot in
  if is_write then begin
    t.comparisons <-
      t.comparisons + Epoch.cardinal l.writes + Epoch.cardinal l.reads;
    let writes, racing_writes, outcome =
      Epoch.observe ~clock ~slot:c.slot ~time access l.writes
    in
    l.writes <- writes;
    count_outcome t outcome;
    report t access racing_writes;
    report t access (Epoch.unknown ~clock l.reads);
    (* Reads this write is ordered after are subsumed by it: any later
       access unordered with such a read is also unordered with this
       write, which both future reads and writes check. *)
    let reads, _dropped = Epoch.prune ~clock l.reads in
    l.reads <- reads
  end
  else begin
    t.comparisons <- t.comparisons + Epoch.cardinal l.writes;
    report t access (Epoch.unknown ~clock l.writes);
    (* A read must not disturb the write frontier: a write it is
       ordered after may still race with a later read that does not
       know this one. *)
    let reads, _racing_reads, outcome =
      Epoch.observe ~clock ~slot:c.slot ~time access l.reads
    in
    l.reads <- reads;
    count_outcome t outcome
  end

let begin_task t c p =
  let slot = fresh_slot t in
  (* A [begin] inside a task (an ill-formed trace) drops the open one. *)
  if c.on_base then ignore (close_task t c);
  (* The task runs on the base itself (the loop clock and the folded
     ends); [end] takes back what it raises. *)
  c.task_no <- c.task_no + 1;
  c.on_base <- true;
  c.clock <- c.base;
  c.support_len <- 0;
  (match Task_id.Table.find_opt t.posts p with
   | Some post ->
     (* Unique renaming: one begin per task, the post is consumed. *)
     Task_id.Table.remove t.posts p;
     join_snapshot t c post.p_clock;
     (* FIFO and NOPRE against the windowed completed tasks of this
        thread; evicted ones were already folded into the base.  Newest
        first: once the newest qualifying record is merged, every older
        record it transitively ordered after (the common sequential
        looper case) is already dominated, and the epoch probe skips
        its merge. *)
     List.iter
       (fun comp ->
          if get c.clock comp.c_slot < comp.c_end_time then begin
            let fifo =
              Hb_edges.fifo_flavours_ok comp.c_flavour post.p_flavour
              && snap_get post.p_clock comp.c_post_slot >= comp.c_post_time
            in
            let nopre () = snap_get post.p_clock comp.c_slot >= 1 in
            if fifo || nopre () then join_snapshot t c comp.c_delta
          end)
       c.completed;
     c.current_post <- Some { post with p_clock = [||] }
   | None -> c.current_post <- None);
  c.slot <- slot;
  tick c;
  c.in_task <- Some p;
  c.idle <- false

let end_task t c =
  let end_time = get c.clock c.slot in
  let delta = if c.on_base then close_task t c else [||] in
  (match c.current_post with
   | Some post ->
     c.completed <-
       { c_slot = c.slot
       ; c_post_slot = post.p_slot
       ; c_post_time = post.p_time
       ; c_delta = delta
       ; c_end_time = end_time
       ; c_flavour = post.p_flavour
       }
       :: c.completed;
     c.completed_len <- c.completed_len + 1;
     if c.completed_len > t.cfg.completed_window then begin
       (* Evict the oldest record into the base: every later begin
          starts from it, which over-approximates the FIFO and NOPRE
          conclusions the evicted record could have supplied — more
          orderings, never fewer, so streaming races remain a subset of
          the dense engine's. *)
       let rec split acc = function
         | [] -> (List.rev acc, None)
         | [ oldest ] -> (List.rev acc, Some oldest)
         | comp :: rest -> split (comp :: acc) rest
       in
       let kept, evicted = split [] c.completed in
       Option.iter
         (fun oldest ->
            c.base <- fold t c.base oldest.c_delta;
            c.completed <- kept;
            c.completed_len <- c.completed_len - 1;
            t.folded_tasks <- t.folded_tasks + 1)
         evicted
     end
   | None -> ());
  c.current_post <- None;
  c.in_task <- None;
  (* The idle looper segment: only the pre-loop knowledge of the thread
     survives — two tasks on one thread are unordered unless FIFO or
     NOPRE re-orders them at the next begin.  Its clock is built when
     an operation runs in it. *)
  c.slot <- fresh_slot t;
  clear c;
  c.idle <- true

let feed t ~position (e : Trace.event) =
  t.events <- t.events + 1;
  let c = ctx t e.thread in
  (* Every operation advances the executing context's local time.  A
     [begin] builds its task's clock afresh, so it skips the tick (and,
     on an idle looper, the segment clock) it would throw away. *)
  (match e.op with
   | Operation.Begin_task _ -> ()
   | _ ->
     if c.idle then begin
       c.slot <- fresh_slot t;
       clear c;
       join_snapshot t c c.loop_clock
     end;
     tick c);
  (match e.op with
   | Operation.Begin_task p -> begin_task t c p
   | Operation.Thread_init ->
     let id = Thread_id.to_int e.thread in
     (match Int_table.find_opt t.fork_clocks id with
      | Some vc ->
        join_snapshot t c vc;
        (* One threadinit per thread: the fork clock is consumed. *)
        Int_table.remove t.fork_clocks id
      | None -> ())
   | Operation.Thread_exit ->
     let id = Thread_id.to_int e.thread in
     Int_table.replace t.exit_clocks id (snapshot_ctx t c);
     (* Nothing runs on an exited thread; its queue clock (needed by
        later posts to it) lives in [attach_clocks].  Dropping the
        context releases its completed window and clocks. *)
     Int_table.remove t.threads id
   | Operation.Fork t' ->
     Int_table.replace t.fork_clocks (Thread_id.to_int t')
       (snapshot_ctx t c)
   | Operation.Join t' ->
     (match Int_table.find_opt t.exit_clocks (Thread_id.to_int t') with
      | Some vc -> join_snapshot t c vc
      | None -> ())
   | Operation.Attach_queue ->
     Int_table.replace t.attach_clocks (Thread_id.to_int e.thread)
       (snapshot_ctx t c)
   | Operation.Loop_on_queue ->
     c.loop_clock <- snapshot_ctx t c;
     (* Only an ill-formed trace loops inside a task. *)
     if c.on_base then ignore (close_task t c);
     c.base <- fold t c.base c.loop_clock;
     clear c;
     c.idle <- true
   | Operation.Post { task; target; flavour } ->
     (* ENABLE-*: the post happens after the task's enable (one post
        per task: the enable clock is consumed). *)
     (match Task_id.Table.find_opt t.enable_clocks task with
      | Some vc ->
        join_snapshot t c vc;
        Task_id.Table.remove t.enable_clocks task
      | None -> ());
     (* ATTACH-Q-MT: a cross-thread post happens after the target's
        attachQ. *)
     if not (Thread_id.equal e.thread target) then
       (match
          Int_table.find_opt t.attach_clocks (Thread_id.to_int target)
        with
        | Some vc -> join_snapshot t c vc
        | None -> ());
     Task_id.Table.replace t.posts task
       { p_clock = snapshot_ctx t c
       ; p_slot = c.slot
       ; p_time = get c.clock c.slot
       ; p_flavour = flavour
       }
   | Operation.End_task _ -> end_task t c
   | Operation.Acquire l ->
     (match Lock_id.Table.find_opt t.lock_clocks l with
      | Some vc -> join_dense t c vc
      | None -> ())
   | Operation.Release l ->
     let held =
       Option.value ~default:[||] (Lock_id.Table.find_opt t.lock_clocks l)
     in
     Lock_id.Table.replace t.lock_clocks l (join t held c.clock)
   | Operation.Enable p ->
     Task_id.Table.replace t.enable_clocks p (snapshot_ctx t c)
   | Operation.Cancel _ -> ()
   | Operation.Read m -> record_access t c position m false e.thread
   | Operation.Write m -> record_access t c position m true e.thread);
  if t.cfg.gc_interval > 0 && t.events mod t.cfg.gc_interval = 0 then sweep t

let races t =
  List.sort
    (fun (r1 : Race.t) r2 ->
       match Int.compare r1.first.position r2.first.position with
       | 0 -> Int.compare r1.second.position r2.second.position
       | c -> c)
    t.races

let stats t =
  sweep t;
  (* The engine-driven sweep above measured; do not let it count as GC
     pressure twice in the gauges, only in the record below. *)
  { events = t.events
  ; slots_allocated = t.next_slot
  ; live_slots = t.live_slots
  ; peak_live_slots = t.peak_live_slots
  ; slots_retired = t.next_slot - t.live_slots
  ; resident_clock_entries = t.resident_clock_entries
  ; peak_clock_entries = t.peak_clock_entries
  ; fast_path = t.fast_path
  ; promotions = t.promotions
  ; demotions = t.demotions
  ; comparisons = t.comparisons
  ; folded_tasks = t.folded_tasks
  ; gc_sweeps = t.gc_sweeps
  ; clock_entries_merged = t.clock_entries_merged
  ; races = List.length t.races
  }

let finish t =
  let stats = stats t in
  if Obs.enabled () then begin
    Obs.add ~n:stats.events "streaming.events";
    Obs.add ~n:stats.races "streaming.races";
    Obs.add ~n:stats.fast_path "streaming.epoch_fast_path";
    Obs.add ~n:stats.promotions "streaming.epoch_promotions";
    Obs.add ~n:stats.demotions "streaming.epoch_demotions";
    Obs.add ~n:stats.folded_tasks "streaming.folded_tasks";
    Obs.add ~n:stats.clock_entries_merged "streaming.clock_entries_merged";
    Obs.set_gauge "streaming.peak_live_slots"
      (float_of_int stats.peak_live_slots);
    Obs.set_gauge "streaming.peak_clock_entries"
      (float_of_int stats.peak_clock_entries)
  end;
  (races t, stats)

let detect ?config trace =
  let t = create ?config () in
  Trace.iteri (fun i e -> feed t ~position:i e) trace;
  finish t

let detect_file ?config path =
  let t = create ?config () in
  match
    Trace_io.fold_events path ~init:0 ~f:(fun pos ~line:_ e ->
      feed t ~position:pos e;
      pos + 1)
  with
  | Ok _ -> Ok (finish t)
  | Error e -> Error e

let stats_json_string ?(label = "streaming") ~elapsed_seconds ~peak_rss_kb
    (s : stats) =
  Json.to_line
    (Json.Object
       [ ("schema", Json.String "droidracer-streaming/1")
       ; ("label", Json.String label)
       ; ("events", Json.int s.events)
       ; ("elapsed_seconds", Json.Number elapsed_seconds)
       ; ( "events_per_sec"
         , Json.Number
             (if elapsed_seconds > 0.0 then
                float_of_int s.events /. elapsed_seconds
              else 0.0) )
       ; ("races", Json.int s.races)
       ; ("slots_allocated", Json.int s.slots_allocated)
       ; ("peak_live_slots", Json.int s.peak_live_slots)
       ; ("slots_retired", Json.int s.slots_retired)
       ; ("peak_clock_entries", Json.int s.peak_clock_entries)
       ; ("epoch_fast_path", Json.int s.fast_path)
       ; ("promotions", Json.int s.promotions)
       ; ("demotions", Json.int s.demotions)
       ; ("folded_tasks", Json.int s.folded_tasks)
       ; ("gc_sweeps", Json.int s.gc_sweeps)
       ; ("peak_rss_kb", Json.int peak_rss_kb)
       ])
