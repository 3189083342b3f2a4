open! Import
module Thread_id = Ident.Thread_id
module Task_id = Ident.Task_id
module Lock_id = Ident.Lock_id
module Location = Ident.Location

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

(* {2 Dense clocks}

   A clock is an [int array] indexed by slot; indices past its end read
   as 0.  Every array has exactly one owner, so the executing context's
   clock is ticked and joined in place, and every clock that goes into
   a table is a copy (except at [end] and [exit], where the context's
   clock is handed over and the context starts afresh or disappears).
   Arrays grow to exactly the width they need: geometric growth would
   compound through every copy taken of them. *)

let get (clock : int array) slot =
  if slot < Array.length clock then Array.unsafe_get clock slot else 0

let widen clock width =
  let wide = Array.make width 0 in
  Array.blit clock 0 wide 0 (Array.length clock);
  wide

(* The post of a task, remembered until its [begin] consumes it.  The
   epoch (p_slot, p_time) stands in for the whole post clock in the
   FIFO premise: in this transition system, knowing an event's epoch is
   equivalent to dominating the event's entire clock (knowledge only
   propagates by merging full clocks), so an O(slots) comparison of
   whole clocks collapses to one O(1) lookup — which is what lets
   retired slots be zeroed in resident clocks and recycled. *)
type pending_post =
  { p_clock : int array
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
  ; c_end_clock : int array
  ; c_end_time : int
        (** [get c_end_clock c_slot] — the slot's final local time.
            Every event ticks the executing slot and the slot is retired
            at [end], so this time is {e unique} to [c_end_clock] among
            all clocks ever exported from the segment: a clock holding
            the slot at [c_end_time] necessarily descends from
            [c_end_clock] and so already dominates it.  That turns the
            per-record merge decision at [begin] into an O(1) epoch
            probe. *)
  ; c_flavour : Operation.post_flavour
  }

type thread_ctx =
  { mutable slot : int
  ; mutable clock : int array
  ; mutable in_task : Task_id.t option
  ; mutable current_post : pending_post option
        (** the running task's post; its [p_clock] is dropped at
            [begin], only the epoch and flavour are needed at [end] *)
  ; mutable loop_clock : int array option
  ; mutable idle : bool
        (** between tasks after [loopOnQ]: NO-Q-PO leaves the
            out-of-task operations there unordered with each other, so
            each starts its own slot from [loop_clock] *)
  ; mutable completed : completed list  (** newest first, ≤ window *)
  ; mutable completed_len : int
  ; mutable folded_ends : int array
        (** join of the end clocks of every completed task evicted from
            the window; merged into every later [begin] — an
            over-approximation of FIFO/NOPRE, so it only ever {e adds}
            orderings (loses races, never invents them) *)
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
  ; interner : Ident.Interner.t
        (* the shared ident table (lib/trace): task, lock and location
           keys below are interned small ints, not strings, so lookups
           in the per-event hot path hash an int instead of a string *)
  ; threads : (int, thread_ctx) Hashtbl.t
  ; fork_clocks : (int, int array) Hashtbl.t
  ; exit_clocks : (int, int array) Hashtbl.t
  ; attach_clocks : (int, int array) Hashtbl.t
  ; lock_clocks : (int, int array) Hashtbl.t
  ; enable_clocks : (int, int array) Hashtbl.t
  ; posts : (int, pending_post) Hashtbl.t
  ; locations : (int, loc_state) Hashtbl.t
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
  ; interner = Ident.Interner.create ()
  ; threads = Hashtbl.create 16
  ; fork_clocks = Hashtbl.create 8
  ; exit_clocks = Hashtbl.create 8
  ; attach_clocks = Hashtbl.create 8
  ; lock_clocks = Hashtbl.create 8
  ; enable_clocks = Hashtbl.create 16
  ; posts = Hashtbl.create 64
  ; locations = Hashtbl.create 64
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

let tick clock slot =
  let clock =
    if slot < Array.length clock then clock else widen clock (slot + 1)
  in
  Array.unsafe_set clock slot (Array.unsafe_get clock slot + 1);
  clock

(* [join t dst src] is [dst] (owned by the caller, widened if [src] is
   wider) raised pointwise to [src]. *)
let join t dst src =
  let n = Array.length src in
  t.clock_entries_merged <- t.clock_entries_merged + n;
  let dst = if n <= Array.length dst then dst else widen dst n in
  for i = 0 to n - 1 do
    let v = Array.unsafe_get src i in
    if v > Array.unsafe_get dst i then Array.unsafe_set dst i v
  done;
  dst

let copy t clock =
  t.clock_entries_merged <- t.clock_entries_merged + Array.length clock;
  Array.copy clock

(* [copy_into t spare clock] is a copy of [clock], made in [spare] (an
   array the caller owns and is about to drop) when [spare] is wide
   enough: one full-width allocation fewer for the GC to churn. *)
let copy_into t spare clock =
  let n = Array.length clock in
  if Array.length spare < n then copy t clock
  else begin
    t.clock_entries_merged <- t.clock_entries_merged + n;
    Array.blit clock 0 spare 0 n;
    Array.fill spare n (Array.length spare - n) 0;
    spare
  end

let loop_base c = Option.value c.loop_clock ~default:[||]

let ctx t tid =
  match Hashtbl.find_opt t.threads (Thread_id.to_int tid) with
  | Some c -> c
  | None ->
    let c =
      { slot = fresh_slot t
      ; clock = [||]
      ; in_task = None
      ; current_post = None
      ; loop_clock = None
      ; idle = false
      ; completed = []
      ; completed_len = 0
      ; folded_ends = [||]
      }
    in
    Hashtbl.add t.threads (Thread_id.to_int tid) c;
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
   after its column is zeroed in every resident clock.  A recycled slot
   then reads 0 everywhere, exactly as a fresh one would, and array
   widths stay near the peak number of slots in use instead of growing
   with every slot ever handed out. *)

let live_slot_mask t =
  let live = Bytes.make t.width '\000' in
  let add s = Bytes.unsafe_set live s '\001' in
  Hashtbl.iter
    (fun _ c ->
       add c.slot;
       Option.iter (fun (p : pending_post) -> add p.p_slot) c.current_post;
       List.iter
         (fun comp ->
            add comp.c_slot;
            add comp.c_post_slot)
         c.completed)
    t.threads;
  Hashtbl.iter (fun _ (p : pending_post) -> add p.p_slot) t.posts;
  Hashtbl.iter
    (fun _ l ->
       Epoch.fold (fun e () -> add e.Epoch.slot) l.writes ();
       Epoch.fold (fun e () -> add e.Epoch.slot) l.reads ())
    t.locations;
  live

let sweep t =
  let live = live_slot_mask t in
  let live_slots = ref 0 in
  let free = ref [] in
  for s = t.width - 1 downto 0 do
    if Bytes.unsafe_get live s <> '\000' then incr live_slots
    else free := s :: !free
  done;
  (* Zero every non-live column (already-free ones are 0 anyway), count
     the non-zero entries that remain, and shrink a clock whose non-zero
     prefix is under half its width: an exit clock is kept for the rest
     of the run (any later [join] may read it), and at full width one
     per exited thread would make memory grow with the trace. *)
  let resident = ref 0 in
  let purge clock =
    let used = ref 0 in
    for i = 0 to Array.length clock - 1 do
      if Bytes.unsafe_get live i = '\000' then Array.unsafe_set clock i 0
      else if Array.unsafe_get clock i <> 0 then begin
        incr resident;
        used := i + 1
      end
    done;
    if 2 * !used < Array.length clock then Array.sub clock 0 !used else clock
  in
  let purge_tbl tbl =
    Hashtbl.filter_map_inplace (fun _ clock -> Some (purge clock)) tbl
  in
  Hashtbl.iter
    (fun _ c ->
       c.clock <- purge c.clock;
       c.loop_clock <- Option.map purge c.loop_clock;
       c.folded_ends <- purge c.folded_ends;
       c.completed <-
         List.map
           (fun comp -> { comp with c_end_clock = purge comp.c_end_clock })
           c.completed)
    t.threads;
  purge_tbl t.fork_clocks;
  purge_tbl t.exit_clocks;
  purge_tbl t.attach_clocks;
  purge_tbl t.lock_clocks;
  purge_tbl t.enable_clocks;
  Hashtbl.filter_map_inplace
    (fun _ (p : pending_post) -> Some { p with p_clock = purge p.p_clock })
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
  let key = Ident.Interner.intern t.interner (Location.to_string location) in
  match Hashtbl.find_opt t.locations key with
  | Some l -> l
  | None ->
    let l = { writes = Epoch.bottom; reads = Epoch.bottom } in
    Hashtbl.add t.locations key l;
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

let feed t ~position (e : Trace.event) =
  t.events <- t.events + 1;
  let c = ctx t e.thread in
  if c.idle then
    (match e.op with
     | Operation.Begin_task _ -> ()
     | _ ->
       c.slot <- fresh_slot t;
       c.clock <- copy_into t c.clock (loop_base c));
  (* Every operation advances the executing context's local time. *)
  c.clock <- tick c.clock c.slot;
  (match e.op with
   | Operation.Thread_init ->
     let id = Thread_id.to_int e.thread in
     (match Hashtbl.find_opt t.fork_clocks id with
      | Some vc ->
        c.clock <- join t c.clock vc;
        (* One threadinit per thread: the fork clock is consumed. *)
        Hashtbl.remove t.fork_clocks id
      | None -> ())
   | Operation.Thread_exit ->
     let id = Thread_id.to_int e.thread in
     (* The context is dropped, so its clock is handed over. *)
     Hashtbl.replace t.exit_clocks id c.clock;
     (* Nothing runs on an exited thread; its queue clock (needed by
        later posts to it) lives in [attach_clocks].  Dropping the
        context releases its completed window and clocks. *)
     Hashtbl.remove t.threads id
   | Operation.Fork t' ->
     Hashtbl.replace t.fork_clocks (Thread_id.to_int t') (copy t c.clock)
   | Operation.Join t' ->
     (match Hashtbl.find_opt t.exit_clocks (Thread_id.to_int t') with
      | Some vc -> c.clock <- join t c.clock vc
      | None -> ())
   | Operation.Attach_queue ->
     Hashtbl.replace t.attach_clocks (Thread_id.to_int e.thread)
       (copy t c.clock)
   | Operation.Loop_on_queue ->
     c.loop_clock <- Some (copy t c.clock);
     c.idle <- true
   | Operation.Post { task; target; flavour } ->
     let key = Ident.Interner.intern t.interner (Task_id.to_string task) in
     (* ENABLE-*: the post happens after the task's enable (one post
        per task: the enable clock is consumed). *)
     (match Hashtbl.find_opt t.enable_clocks key with
      | Some vc ->
        c.clock <- join t c.clock vc;
        Hashtbl.remove t.enable_clocks key
      | None -> ());
     (* ATTACH-Q-MT: a cross-thread post happens after the target's
        attachQ. *)
     if not (Thread_id.equal e.thread target) then
       (match Hashtbl.find_opt t.attach_clocks (Thread_id.to_int target) with
        | Some vc -> c.clock <- join t c.clock vc
        | None -> ());
     Hashtbl.replace t.posts key
       { p_clock = copy t c.clock
       ; p_slot = c.slot
       ; p_time = get c.clock c.slot
       ; p_flavour = flavour
       }
   | Operation.Begin_task p ->
     let slot = fresh_slot t in
     (* The idle segment's clock is dropped here: rebuild in it. *)
     let base = copy_into t c.clock (loop_base c) in
     let clock = ref (join t base c.folded_ends) in
     (match
        Hashtbl.find_opt t.posts
          (Ident.Interner.intern t.interner (Task_id.to_string p))
      with
      | Some post ->
        (* Unique renaming: one begin per task, the post is consumed. *)
        Hashtbl.remove t.posts
          (Ident.Interner.intern t.interner (Task_id.to_string p));
        clock := join t !clock post.p_clock;
        (* FIFO and NOPRE against the windowed completed tasks of this
           thread; evicted ones were already folded into the base. *)
        List.iter
          (fun comp ->
             (* Newest-first: once the newest qualifying record is
                merged, every older record it transitively ordered
                after (the common sequential-looper case) is already
                dominated, and the epoch probe skips its merge. *)
             if get !clock comp.c_slot < comp.c_end_time then begin
               let fifo =
                 Hb_edges.fifo_flavours_ok comp.c_flavour post.p_flavour
                 && get post.p_clock comp.c_post_slot >= comp.c_post_time
               in
               let nopre () = get post.p_clock comp.c_slot >= 1 in
               if fifo || nopre () then
                 clock := join t !clock comp.c_end_clock
             end)
          c.completed;
        c.current_post <- Some { post with p_clock = [||] }
      | None -> c.current_post <- None);
     c.slot <- slot;
     c.clock <- tick !clock slot;
     c.in_task <- Some p;
     c.idle <- false
   | Operation.End_task _ ->
     let spare = ref [||] in
     (match c.current_post with
      | Some post ->
        let comp =
          { c_slot = c.slot
          ; c_post_slot = post.p_slot
          ; c_post_time = post.p_time
          ; c_end_clock = c.clock  (* handed over: replaced below *)
          ; c_end_time = get c.clock c.slot
          ; c_flavour = post.p_flavour
          }
        in
        c.completed <- comp :: c.completed;
        c.completed_len <- c.completed_len + 1;
        if c.completed_len > t.cfg.completed_window then begin
          (* Evict the oldest record into the fold: every later begin
             merges [folded_ends], which over-approximates the FIFO and
             NOPRE conclusions the evicted record could have supplied —
             more orderings, never fewer, so streaming races remain a
             subset of the dense engine's. *)
          let rec split acc = function
            | [] -> (List.rev acc, None)
            | [ oldest ] -> (List.rev acc, Some oldest)
            | comp :: rest -> split (comp :: acc) rest
          in
          let kept, evicted = split [] c.completed in
          (match evicted with
           | Some oldest ->
             c.folded_ends <- join t c.folded_ends oldest.c_end_clock;
             spare := oldest.c_end_clock;
             c.completed <- kept;
             c.completed_len <- c.completed_len - 1;
             t.folded_tasks <- t.folded_tasks + 1
           | None -> ())
        end
      | None -> ());
     c.current_post <- None;
     c.in_task <- None;
     (* The idle looper segment: only the pre-loop knowledge of the
        thread survives — two tasks on one thread are unordered unless
        FIFO or NOPRE re-orders them at the next begin. *)
     c.slot <- fresh_slot t;
     c.clock <- copy_into t !spare (loop_base c);
     c.idle <- true
   | Operation.Acquire l ->
     (match
        Hashtbl.find_opt t.lock_clocks
          (Ident.Interner.intern t.interner (Lock_id.to_string l))
      with
      | Some vc -> c.clock <- join t c.clock vc
      | None -> ())
   | Operation.Release l ->
     let key = Ident.Interner.intern t.interner (Lock_id.to_string l) in
     let merged =
       match Hashtbl.find_opt t.lock_clocks key with
       | Some vc -> join t vc c.clock
       | None -> copy t c.clock
     in
     Hashtbl.replace t.lock_clocks key merged
   | Operation.Enable p ->
     Hashtbl.replace t.enable_clocks
       (Ident.Interner.intern t.interner (Task_id.to_string p))
       (copy t c.clock)
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

let detect_channel ?config ic =
  let t = create ?config () in
  match
    Trace_io.fold_channel ic ~init:0 ~f:(fun pos ~line:_ e ->
      feed t ~position:pos e;
      pos + 1)
  with
  | Ok _ -> Ok (finish t)
  | Error e -> Error e

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
  let b = Buffer.create 256 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"schema\": \"droidracer-streaming/1\",\n";
  Buffer.add_string b
    (Printf.sprintf "  \"label\": \"%s\",\n" (Json.escape label));
  Buffer.add_string b (Printf.sprintf "  \"events\": %d,\n" s.events);
  Buffer.add_string b
    (Printf.sprintf "  \"elapsed_seconds\": %.6f,\n" elapsed_seconds);
  Buffer.add_string b
    (Printf.sprintf "  \"events_per_sec\": %.1f,\n"
       (if elapsed_seconds > 0.0 then float_of_int s.events /. elapsed_seconds
        else 0.0));
  Buffer.add_string b (Printf.sprintf "  \"races\": %d,\n" s.races);
  Buffer.add_string b
    (Printf.sprintf "  \"slots_allocated\": %d,\n" s.slots_allocated);
  Buffer.add_string b
    (Printf.sprintf "  \"peak_live_slots\": %d,\n" s.peak_live_slots);
  Buffer.add_string b
    (Printf.sprintf "  \"slots_retired\": %d,\n" s.slots_retired);
  Buffer.add_string b
    (Printf.sprintf "  \"peak_clock_entries\": %d,\n" s.peak_clock_entries);
  Buffer.add_string b
    (Printf.sprintf "  \"epoch_fast_path\": %d,\n" s.fast_path);
  Buffer.add_string b (Printf.sprintf "  \"promotions\": %d,\n" s.promotions);
  Buffer.add_string b (Printf.sprintf "  \"demotions\": %d,\n" s.demotions);
  Buffer.add_string b
    (Printf.sprintf "  \"folded_tasks\": %d,\n" s.folded_tasks);
  Buffer.add_string b (Printf.sprintf "  \"gc_sweeps\": %d,\n" s.gc_sweeps);
  Buffer.add_string b (Printf.sprintf "  \"peak_rss_kb\": %d\n" peak_rss_kb);
  Buffer.add_string b "}\n";
  Buffer.contents b
