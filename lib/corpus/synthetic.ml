open! Import
module Location = Ident.Location

type plant =
  { p_category : Classify.category
  ; p_genuine : bool
  ; p_mechanism : string
  ; p_locations : Location.t list
  }

type spec =
  { s_name : string
  ; s_loc : int
  ; s_proprietary : bool
  ; s_trace_length : int
  ; s_fields : int
  ; s_threads_without_queue : int
  ; s_threads_with_queue : int
  ; s_async_tasks : int
  ; s_multithreaded : int * int
  ; s_cross_posted : int * int
  ; s_co_enabled : int * int
  ; s_delayed : int * int
  ; s_unknown : int * int
  ; s_event_bound : int
  ; s_seed : int
  ; s_filler : int
  }

type built =
  { b_spec : spec
  ; b_app : Program.app
  ; b_events : Runtime.ui_event list
  ; b_options : Runtime.options
  ; b_plants : plant list
  }

let fields cls n = List.init n (fun i -> Program.field ~cls (Printf.sprintf "f%d" i))
let locations fs = List.map Program.location_of_field fs
let writes fs = List.map (fun f -> Program.Write f) fs
let reads fs = List.map (fun f -> Program.Read f) fs

(* One plant = handlers / threads / procs + metadata.  Each racy
   location yields exactly one distinct race. *)
type pieces =
  { pc_handlers : Program.ui_handler list
  ; pc_create : Program.stmt list  (** appended to Main.onCreate *)
  ; pc_procs : (string * Program.stmt list) list
  ; pc_events : Runtime.ui_event list
  ; pc_plant : plant option
  ; pc_posts : int  (** asynchronous posts this plant performs at runtime *)
  ; pc_threads : int  (** threads (queue-less) it creates that reach the trace *)
  }

let no_pieces =
  { pc_handlers = []
  ; pc_create = []
  ; pc_procs = []
  ; pc_events = []
  ; pc_plant = None
  ; pc_posts = 0
  ; pc_threads = 0
  }

let mt_true n =
  if n = 0 then no_pieces
  else begin
    let fs = fields "MtShared" n in
    { no_pieces with
      pc_create = [ Program.Fork ("mt_true_bg", writes fs) ]
    ; pc_handlers = [ Program.handler "ev_mt_true" (reads fs) ]
    ; pc_events = [ Runtime.Click "ev_mt_true" ]
    ; pc_plant =
        Some
          { p_category = Classify.Multithreaded
          ; p_genuine = true
          ; p_mechanism = "unsynchronised sharing between the main and a background thread"
          ; p_locations = locations fs
          }
    ; pc_threads = 1
    }
  end

let mt_fp n =
  if n = 0 then no_pieces
  else begin
    let flag = Program.field ~cls:"MtFlag" "ready" in
    let fs = fields "MtFp" (n - 1) in
    { no_pieces with
      pc_handlers =
        [ Program.handler "ev_mt_fp" (writes fs @ [ Program.Handoff_send flag ]) ]
    ; pc_create = [ Program.Fork ("mt_fp_bg", Program.Handoff_wait flag :: reads fs) ]
    ; pc_events = [ Runtime.Click "ev_mt_fp" ]
    ; pc_plant =
        Some
          { p_category = Classify.Multithreaded
          ; p_genuine = false
          ; p_mechanism = "ad-hoc flag handoff invisible to happens-before reasoning"
          ; p_locations = locations (flag :: fs)
          }
    ; pc_threads = 1
    }
  end

let cross_true n =
  if n = 0 then no_pieces
  else begin
    let fs = fields "CrShared" n in
    (* The accesses are monitor-protected: a lock cannot order two tasks
       of one thread, so the race stands — but the naive combined
       relation (lock edges within a thread + unrestricted transitivity)
       spuriously orders them and misses every one of these races. *)
    let guarded body = [ Program.Synchronized ("crossLock", body) ] in
    { pc_create = [ Program.Fork ("cross_bg", [ Program.post "cross_proc" ]) ]
    ; pc_procs = [ ("cross_proc", guarded (writes fs)) ]
    ; pc_handlers = [ Program.handler "ev_cross_true" (guarded (writes fs)) ]
    ; pc_events = [ Runtime.Click "ev_cross_true" ]
    ; pc_plant =
        Some
          { p_category = Classify.Cross_posted
          ; p_genuine = true
          ; p_mechanism = "task posted by a background thread vs a UI handler task"
          ; p_locations = locations fs
          }
    ; pc_posts = 1
    ; pc_threads = 1
    }
  end

let cross_fp n =
  if n = 0 then no_pieces
  else begin
    let flag = Program.field ~cls:"CrFlag" "ready" in
    let fs = fields "CrFp" n in
    { pc_handlers =
        [ Program.handler "ev_cross_fp" (writes fs @ [ Program.Handoff_send flag ]) ]
    ; pc_create =
        [ Program.Fork_native
            ("cross_native", [ Program.Handoff_wait flag; Program.post "cross_fp_proc" ])
        ]
    ; pc_procs = [ ("cross_fp_proc", reads fs) ]
    ; pc_events = [ Runtime.Click "ev_cross_fp" ]
    ; pc_plant =
        Some
          { p_category = Classify.Cross_posted
          ; p_genuine = false
          ; p_mechanism =
              "post by an untracked natively-created thread; the ordering flag is invisible"
          ; p_locations = locations fs
          }
    ; pc_posts = 1
    ; pc_threads = 1  (* the native thread appears in the trace via its post *)
    }
  end

let co_true n =
  if n = 0 then no_pieces
  else begin
    let fs = fields "CoShared" n in
    { no_pieces with
      pc_handlers =
        [ Program.handler "ev_co_a" (writes fs)
        ; Program.handler "ev_co_b" (writes fs)
        ]
    ; pc_events = [ Runtime.Click "ev_co_a"; Runtime.Click "ev_co_b" ]
    ; pc_plant =
        Some
          { p_category = Classify.Co_enabled
          ; p_genuine = true
          ; p_mechanism = "two co-enabled UI handlers sharing state"
          ; p_locations = locations fs
          }
    }
  end

let co_fp n =
  if n = 0 then no_pieces
  else begin
    let fs = fields "CoFp" n in
    { no_pieces with
      pc_handlers =
        [ Program.handler "ev_cofp_first" (writes fs)
        ; Program.handler "ev_cofp_second"
            (writes fs @ [ Program.Disable_ui "ev_cofp_first" ])
        ]
    ; pc_events = [ Runtime.Click "ev_cofp_first"; Runtime.Click "ev_cofp_second" ]
    ; pc_plant =
        Some
          { p_category = Classify.Co_enabled
          ; p_genuine = false
          ; p_mechanism = "the second handler disables the first: the events are not co-enabled"
          ; p_locations = locations fs
          }
    }
  end

let delayed_plant ~genuine n =
  if n = 0 then no_pieces
  else begin
    let tag = if genuine then "DelShared" else "DelFp" in
    let prefix = if genuine then "del_t" else "del_f" in
    let fs = fields tag n in
    let delay = if genuine then 2 else 100_000 in
    { no_pieces with
      pc_handlers =
        [ Program.handler ("ev_" ^ prefix)
            [ Program.post ~delay (prefix ^ "_delayed")
            ; Program.post (prefix ^ "_now")
            ]
        ]
    ; pc_procs = [ (prefix ^ "_delayed", writes fs); (prefix ^ "_now", writes fs) ]
    ; pc_events = [ Runtime.Click ("ev_" ^ prefix) ]
    ; pc_plant =
        Some
          { p_category = Classify.Delayed_race
          ; p_genuine = genuine
          ; p_mechanism =
              (if genuine then "small timeout: either task may run first"
               else "large timeout always orders the tasks")
          ; p_locations = locations fs
          }
    ; pc_posts = 2
    }
  end

let unknown_plant (n, claimed_true) =
  if n = 0 then no_pieces
  else begin
    let fs = fields "UnkShared" n in
    { no_pieces with
      pc_create = [ Program.Fork ("unk_bg", [ Program.post "unk_c" ]) ]
    ; pc_procs =
        [ ("unk_c", [ Program.post "unk_a"; Program.post ~front:true "unk_b" ])
        ; ("unk_a", writes fs)
        ; ("unk_b", writes fs)
        ]
    ; pc_plant =
        Some
          { p_category = Classify.Unknown
          ; p_genuine = false
          ; p_mechanism =
              Printf.sprintf
                "front-of-queue post below a shared cross-thread post (paper verified %d of these manually)"
                claimed_true
          ; p_locations = locations fs
          }
    ; pc_posts = 3
    ; pc_threads = 1
    }
  end

(* The filler workload: enough background threads, looper threads,
   posted procedures and field accesses to hit the Table 2 targets. *)
let build_app spec ~extra_accesses =
  let check_counts (x, y) name =
    if y > x || x < 0 || y < 0 then
      invalid_arg
        (Printf.sprintf "Synthetic.build: %s: inconsistent counts %d(%d)" name x y)
  in
  check_counts spec.s_multithreaded "multithreaded";
  check_counts spec.s_cross_posted "cross-posted";
  check_counts spec.s_co_enabled "co-enabled";
  check_counts spec.s_delayed "delayed";
  check_counts spec.s_unknown "unknown";
  let part (x, y) = (y, x - y) in
  let mt_t, mt_f = part spec.s_multithreaded in
  let cr_t, cr_f = part spec.s_cross_posted in
  let co_t, co_f = part spec.s_co_enabled in
  let de_t, de_f = part spec.s_delayed in
  let pieces =
    [ mt_true mt_t
    ; mt_fp mt_f
    ; cross_true cr_t
    ; cross_fp cr_f
    ; co_true co_t
    ; co_fp co_f
    ; delayed_plant ~genuine:true de_t
    ; delayed_plant ~genuine:false de_f
    ; unknown_plant spec.s_unknown
    ]
  in
  let planted_fields =
    List.fold_left
      (fun acc p ->
         acc
         + (match p.pc_plant with
            | Some pl -> List.length pl.p_locations
            | None -> 0)
         (* the cross-FP flag is written but not racy *)
         + (match p.pc_plant with
            | Some { p_category = Classify.Cross_posted; p_genuine = false; _ } -> 1
            | Some _ | None -> 0))
      0 pieces
  in
  let planted_threads = List.fold_left (fun a p -> a + p.pc_threads) 0 pieces in
  let planted_posts = List.fold_left (fun a p -> a + p.pc_posts) 0 pieces in
  let planted_events = List.concat_map (fun p -> p.pc_events) pieces in
  (* Background threads without queues; the main thread is framework-owned
     and the binder pool is excluded from Table 2 by the paper. *)
  let n_bg = max 0 (spec.s_threads_without_queue - planted_threads) in
  let n_loop = max 0 (spec.s_threads_with_queue - 1) in
  (* Posts: LAUNCH + every injected event + planted posts + two filler
     tasks per looper + main-queue filler procedures. *)
  let fixed_posts = 1 + List.length planted_events + planted_posts + (2 * n_loop) in
  let n_filler = max 0 (spec.s_async_tasks - fixed_posts) in
  (* Field pool for the filler workload (one slot reserved for the
     Init.config field when background threads exist). *)
  let pool = max 0 (spec.s_fields - planted_fields - (if n_bg > 0 then 1 else 0)) in
  let reserved = n_bg + (2 * n_loop) in
  if pool < reserved then
    invalid_arg
      (Printf.sprintf
         "Synthetic.build: %s: %d fields cannot cover %d planted + %d reserved"
         spec.s_name spec.s_fields planted_fields reserved);
  let shared_pool = pool - reserved in
  (* Accesses: distribute the remaining trace length over the filler
     contexts.  Main-queue filler procedures may share fields (FIFO
     orders them); threads get private fields. *)
  let contexts = max 1 (n_filler + n_bg + (2 * n_loop)) in
  let per_ctx = max 1 ((extra_accesses / contexts) + 1) in
  let shared_fields =
    Array.init shared_pool (fun i ->
      Program.field ~cls:"Filler" (Printf.sprintf "f%d" i))
  in
  let access_block ~ctx n =
    List.init n (fun k ->
      if shared_pool = 0 then Program.Read (Program.field ~cls:"Filler" "f0")
      else
        let f = shared_fields.(((ctx * per_ctx) + k) mod shared_pool) in
        if k land 1 = 0 then Program.Write f else Program.Read f)
  in
  let private_field tag i = Program.field ~cls:("Priv" ^ tag) (Printf.sprintf "f%d" i) in
  (* Written before any fork; the background threads read it, ordered by
     the FORK rule.  A relation without inter-thread reasoning (the
     event-driven-only baseline) reports these as races. *)
  let init_field = Program.field ~cls:"Init" "config" in
  let bg_threads =
    List.init n_bg (fun i ->
      let f = private_field "Bg" i in
      Program.Fork
        ( Printf.sprintf "bg%d" i
        , Program.Read init_field
          :: List.concat
               (List.init per_ctx (fun _ -> [ Program.Write f; Program.Read f ]))
        ))
  in
  let bg_threads =
    if n_bg = 0 then bg_threads else Program.Write init_field :: bg_threads
  in
  let loopers =
    List.concat
      (List.init n_loop (fun i ->
         let name = Printf.sprintf "hthread%d" i in
         let mk j =
           let f = private_field "Lp" ((2 * i) + j) in
           ( Printf.sprintf "lp%d_%d" i j
           , List.concat
               (List.init per_ctx (fun _ -> [ Program.Write f; Program.Read f ])) )
         in
         let p0 = mk 0 and p1 = mk 1 in
         [ `Stmt (Program.Fork_looper name)
         ; `Stmt (Program.post ~target:(Program.Named_thread name) (fst p0))
         ; `Stmt (Program.post ~target:(Program.Named_thread name) (fst p1))
         ; `Proc p0
         ; `Proc p1
         ]))
  in
  let looper_stmts =
    List.filter_map (function `Stmt s -> Some s | `Proc _ -> None) loopers
  in
  let looper_procs =
    List.filter_map (function `Proc p -> Some p | `Stmt _ -> None) loopers
  in
  let filler_procs =
    List.init n_filler (fun i ->
      (Printf.sprintf "filler%d" i, access_block ~ctx:i per_ctx))
  in
  let filler_posts =
    List.map (fun (name, _) -> Program.post name) filler_procs
  in
  let on_create =
    List.concat_map (fun p -> p.pc_create) pieces
    @ bg_threads @ looper_stmts @ filler_posts
  in
  let handlers = List.concat_map (fun p -> p.pc_handlers) pieces in
  let procs =
    List.concat_map (fun p -> p.pc_procs) pieces @ looper_procs @ filler_procs
  in
  let main_act = Program.activity "Main" ~on_create:on_create ~ui:handlers in
  let app =
    Program.app ~name:spec.s_name ~main:"Main" ~activities:[ main_act ] ~procs ()
  in
  let plants = List.filter_map (fun p -> p.pc_plant) pieces in
  (app, planted_events, plants)

let options spec =
  { Runtime.default_options with policy = Runtime.Seeded spec.s_seed }

(* Multiplicative updates converge even when filler contexts emit more
   than one operation per unit (background threads emit two). *)
let calibrate spec =
  let options = options spec in
  let rec loop extra iterations =
    let app, events, _ = build_app spec ~extra_accesses:extra in
    let result = Runtime.run ~options app events in
    let measured = Trace.length result.Runtime.observed in
    let diff = spec.s_trace_length - measured in
    if iterations <= 0 || abs diff * 50 < spec.s_trace_length then extra
    else begin
      let scaled =
        int_of_float
          (float_of_int extra
           *. float_of_int spec.s_trace_length
           /. float_of_int (max 1 measured))
      in
      loop (max 0 scaled) (iterations - 1)
    end
  in
  loop (max 0 (spec.s_trace_length - 200)) 6

let build spec =
  let app, events, plants = build_app spec ~extra_accesses:spec.s_filler in
  { b_spec = spec
  ; b_app = app
  ; b_events = events
  ; b_options = options spec
  ; b_plants = plants
  }

let plant_of_location built location =
  List.find_opt
    (fun p -> List.exists (Location.equal location) p.p_locations)
    built.b_plants
