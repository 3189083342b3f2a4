(* Per-domain telemetry buffers, merged at export time — now across
   process boundaries too.

   Writers: only the owning domain ever pushes spans or bumps metrics
   in its buffer.  Readers: [snapshot] (and [reset]) run on some other
   domain after the parallel work has joined.  Each buffer still
   carries a mutex — uncontended in the steady state — so that a
   snapshot taken concurrently with a straggling recorder is a
   consistent interleaving rather than a data race.

   Cross-process model: an isolated worker (a [fork]ed child) calls
   [on_fork] to shed the buffers it inherited from the parent, records
   as usual, and at exit serialises everything with [export_state].
   The parent feeds such blobs to [absorb_state]; [snapshot] then
   merges the local buffers and every absorbed worker state into one
   view with pid-qualified spans and domain tracks.  The monotonic
   clock and the trace epoch are shared through [fork], so child
   timestamps land on the parent's timeline without translation. *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag
let now_ns () = Monotonic_clock.now ()

(* The pid is read on every span finish, so cache it; [on_fork]
   refreshes the cache in the child. *)
let cached_pid = ref (Unix.getpid ())
let process_label = ref "droidracer"
let set_process_label s = process_label := s

type span =
  { sp_name : string
  ; sp_path : string list
  ; sp_pid : int
  ; sp_domain : int
  ; sp_start_ns : int64
  ; sp_dur_ns : int64
  ; sp_args : (string * string) list
  }

type histogram =
  { h_count : int
  ; h_sum : float
  ; h_min : float
  ; h_max : float
  ; h_p50 : float
  ; h_p90 : float
  ; h_p99 : float
  }

type domain_stats =
  { d_pid : int
  ; d_id : int
  ; d_spans : int
  ; d_busy_seconds : float
  }

type sample =
  { s_pid : int
  ; s_ts_ns : int64
  ; s_value : float
  }

type snapshot =
  { spans : span list
  ; counters : (string * int) list
  ; gauges : (string * float) list
  ; histograms : (string * histogram) list
  ; series : (string * sample list) list
  ; domains : domain_stats list
  ; processes : (int * string) list
  }

(* {1 Log-bucketed quantiles}

   Histograms keep a sparse table of log₂ buckets, 8 per octave, so a
   quantile estimate is within ~9% of the true sample.  Non-positive
   samples land in a dedicated underflow bucket reported as the
   histogram minimum. *)

let buckets_per_octave = 8.0
let underflow_bucket = min_int

let bucket_of_value v =
  if Float.is_nan v || v <= 0.0 then underflow_bucket
  else int_of_float (Float.floor (Float.log2 v *. buckets_per_octave))

let bucket_upper idx = Float.exp2 (float_of_int (idx + 1) /. buckets_per_octave)

let quantile ~count ~lo ~hi buckets q =
  if count = 0 then 0.0
  else begin
    let rank =
      let r = int_of_float (Float.ceil (q *. float_of_int count)) in
      max 1 (min count r)
    in
    let rec walk seen = function
      | [] -> hi
      | (idx, n) :: rest ->
        let seen = seen + n in
        if seen >= rank then
          if idx = underflow_bucket then lo
          else Float.max lo (Float.min hi (bucket_upper idx))
        else walk seen rest
    in
    walk 0 (List.sort (fun (a, _) (b, _) -> Int.compare a b) buckets)
  end

type open_span =
  { os_name : string
  ; os_path : string list  (* outermost first, own name last *)
  ; os_start : int64
  ; mutable os_args : (string * string) list
  }

type hist_cell =
  { mutable hc_count : int
  ; mutable hc_sum : float
  ; mutable hc_min : float
  ; mutable hc_max : float
  ; hc_buckets : (int, int ref) Hashtbl.t
  }

type buffer =
  { b_domain : int
  ; b_mutex : Mutex.t
  ; mutable b_spans : span list  (* completed, most recent first *)
  ; mutable b_stack : open_span list  (* innermost first *)
  ; b_counters : (string, int ref) Hashtbl.t
  ; b_gauges : (string, float * int64) Hashtbl.t  (* value, set-time *)
  ; b_hists : (string, hist_cell) Hashtbl.t
  ; b_series : (string, (int64 * float) list ref) Hashtbl.t
    (* newest sample first *)
  }

let registry_mutex = Mutex.create ()
let registry : buffer list ref = ref []

(* Span timestamps are relative to the last [reset], so a trace starts
   at t=0 whatever the machine's uptime. *)
let epoch_ns = Atomic.make (now_ns ())

let buffer_key =
  Domain.DLS.new_key (fun () ->
    let b =
      { b_domain = (Domain.self () :> int)
      ; b_mutex = Mutex.create ()
      ; b_spans = []
      ; b_stack = []
      ; b_counters = Hashtbl.create 16
      ; b_gauges = Hashtbl.create 8
      ; b_hists = Hashtbl.create 8
      ; b_series = Hashtbl.create 8
      }
    in
    Mutex.lock registry_mutex;
    registry := b :: !registry;
    Mutex.unlock registry_mutex;
    b)

let buffer () = Domain.DLS.get buffer_key

let enable () = Atomic.set enabled_flag true
let disable () = Atomic.set enabled_flag false

let all_buffers () =
  Mutex.lock registry_mutex;
  let bs = !registry in
  Mutex.unlock registry_mutex;
  bs

(* {1 Worker states absorbed from other processes} *)

type packed_hist =
  { ph_count : int
  ; ph_sum : float
  ; ph_min : float
  ; ph_max : float
  ; ph_buckets : (int * int) list
  }

type wire_state =
  { ws_pid : int
  ; ws_label : string
  ; ws_spans : span list  (* unordered *)
  ; ws_counters : (string * int) list
  ; ws_gauges : (string * (float * int64)) list
  ; ws_hists : (string * packed_hist) list
  ; ws_series : (string * (int64 * float) list) list  (* newest first *)
  ; ws_rss_peak_kb : int
  }

let absorbed_mutex = Mutex.create ()
let absorbed : wire_state list ref = ref []

let absorbed_states () =
  Mutex.lock absorbed_mutex;
  let abs = !absorbed in
  Mutex.unlock absorbed_mutex;
  List.rev abs

(* {1 The resource sampler} *)

let sample_period_ns = Atomic.make 50_000_000L
(* 0 means "never sampled": the monotonic clock is far from zero,
   so the first [maybe_sample] always fires.  ([Int64.min_int] would
   overflow the subtraction below.) *)
let last_sample_ns = Atomic.make 0L

let set_sample_period seconds =
  Atomic.set sample_period_ns
    (Int64.of_float (Float.max 1e-3 seconds *. 1e9))

let clear_buffer b =
  Mutex.lock b.b_mutex;
  b.b_spans <- [];
  b.b_stack <- [];
  Hashtbl.reset b.b_counters;
  Hashtbl.reset b.b_gauges;
  Hashtbl.reset b.b_hists;
  Hashtbl.reset b.b_series;
  Mutex.unlock b.b_mutex

let reset () =
  List.iter clear_buffer (all_buffers ());
  Mutex.lock absorbed_mutex;
  absorbed := [];
  Mutex.unlock absorbed_mutex;
  Atomic.set last_sample_ns 0L;
  Atomic.set epoch_ns (now_ns ())

let on_fork () =
  (* Keep the epoch: [fork] shares CLOCK_MONOTONIC, so the child's
     spans must stay on the parent's timeline. *)
  cached_pid := Unix.getpid ();
  List.iter clear_buffer (all_buffers ());
  Mutex.lock absorbed_mutex;
  absorbed := [];
  Mutex.unlock absorbed_mutex;
  Atomic.set last_sample_ns 0L

let rel ns = Int64.sub ns (Atomic.get epoch_ns)

(* {1 Process memory} *)

let proc_status_kb key =
  match In_channel.open_text "/proc/self/status" with
  | exception Sys_error _ -> 0
  | ic ->
    Fun.protect
      ~finally:(fun () -> In_channel.close ic)
      (fun () ->
         let klen = String.length key in
         let rec scan () =
           match In_channel.input_line ic with
           | None -> 0
           | Some line ->
             if String.length line > klen && String.sub line 0 klen = key
             then
               let digits =
                 String.to_seq line
                 |> Seq.filter (fun c -> c >= '0' && c <= '9')
                 |> String.of_seq
               in
               (try int_of_string digits with Failure _ -> 0)
             else scan ()
         in
         scan ())

let peak_rss_kb () = proc_status_kb "VmHWM:"
let current_rss_kb () = proc_status_kb "VmRSS:"

(* {1 Recording} *)

let with_span ?(args = []) name f =
  if not (enabled ()) then f ()
  else begin
    let b = buffer () in
    let parent_path =
      match b.b_stack with [] -> [] | os :: _ -> os.os_path
    in
    let os =
      { os_name = name
      ; os_path = parent_path @ [ name ]
      ; os_start = now_ns ()
      ; os_args = args
      }
    in
    Mutex.lock b.b_mutex;
    b.b_stack <- os :: b.b_stack;
    Mutex.unlock b.b_mutex;
    let finish () =
      let dur = Int64.sub (now_ns ()) os.os_start in
      Mutex.lock b.b_mutex;
      (match b.b_stack with
       | top :: rest when top == os -> b.b_stack <- rest
       | _ ->
         (* a [reset] ran while the span was open; drop whatever is
            left of this span's lineage *)
         b.b_stack <- List.filter (fun o -> not (o == os)) b.b_stack);
      b.b_spans <-
        { sp_name = name
        ; sp_path = os.os_path
        ; sp_pid = !cached_pid
        ; sp_domain = b.b_domain
        ; sp_start_ns = rel os.os_start
        ; sp_dur_ns = dur
        ; sp_args = os.os_args
        }
        :: b.b_spans;
      Mutex.unlock b.b_mutex
    in
    match f () with
    | v ->
      finish ();
      v
    | exception e ->
      let bt = Printexc.get_raw_backtrace () in
      finish ();
      Printexc.raise_with_backtrace e bt
  end

let set_span_arg key value =
  if enabled () then begin
    let b = buffer () in
    Mutex.lock b.b_mutex;
    (match b.b_stack with
     | os :: _ -> os.os_args <- (key, value) :: List.remove_assoc key os.os_args
     | [] -> ());
    Mutex.unlock b.b_mutex
  end

let add ?(n = 1) name =
  if enabled () && n <> 0 then begin
    let b = buffer () in
    Mutex.lock b.b_mutex;
    (match Hashtbl.find_opt b.b_counters name with
     | Some r -> r := !r + n
     | None -> Hashtbl.add b.b_counters name (ref n));
    Mutex.unlock b.b_mutex
  end

let set_gauge name v =
  if enabled () then begin
    let b = buffer () in
    Mutex.lock b.b_mutex;
    Hashtbl.replace b.b_gauges name (v, now_ns ());
    Mutex.unlock b.b_mutex
  end

let observe name v =
  if enabled () then begin
    let b = buffer () in
    Mutex.lock b.b_mutex;
    (match Hashtbl.find_opt b.b_hists name with
     | Some h ->
       h.hc_count <- h.hc_count + 1;
       h.hc_sum <- h.hc_sum +. v;
       h.hc_min <- min h.hc_min v;
       h.hc_max <- max h.hc_max v;
       let idx = bucket_of_value v in
       (match Hashtbl.find_opt h.hc_buckets idx with
        | Some r -> incr r
        | None -> Hashtbl.add h.hc_buckets idx (ref 1))
     | None ->
       let buckets = Hashtbl.create 8 in
       Hashtbl.add buckets (bucket_of_value v) (ref 1);
       Hashtbl.add b.b_hists name
         { hc_count = 1
         ; hc_sum = v
         ; hc_min = v
         ; hc_max = v
         ; hc_buckets = buckets
         });
    Mutex.unlock b.b_mutex
  end

let record_series name v =
  if enabled () then begin
    let b = buffer () in
    let ts = rel (now_ns ()) in
    Mutex.lock b.b_mutex;
    (match Hashtbl.find_opt b.b_series name with
     | Some r -> r := (ts, v) :: !r
     | None -> Hashtbl.add b.b_series name (ref [ (ts, v) ]));
    Mutex.unlock b.b_mutex
  end

let sample_resources () =
  if enabled () then begin
    record_series "proc.rss_kb" (float_of_int (current_rss_kb ()));
    record_series "gc.major_heap_words"
      (float_of_int (Gc.quick_stat ()).Gc.heap_words)
  end

let maybe_sample () =
  if enabled () then begin
    let now = now_ns () in
    let last = Atomic.get last_sample_ns in
    if
      Int64.sub now last >= Atomic.get sample_period_ns
      && Atomic.compare_and_set last_sample_ns last now
    then sample_resources ()
  end

(* {1 Lightweight counter reads} *)

let fold_counters f init =
  let acc = ref init in
  List.iter
    (fun b ->
       Mutex.lock b.b_mutex;
       Hashtbl.iter (fun name r -> acc := f !acc name !r) b.b_counters;
       Mutex.unlock b.b_mutex)
    (all_buffers ());
  List.iter
    (fun ws -> List.iter (fun (name, n) -> acc := f !acc name n) ws.ws_counters)
    (absorbed_states ());
  !acc

let counter_value name =
  fold_counters (fun acc n v -> if String.equal n name then acc + v else acc) 0

let counters_with_prefix prefix =
  let tbl : (string, int) Hashtbl.t = Hashtbl.create 8 in
  fold_counters
    (fun () name v ->
       if String.starts_with ~prefix name then
         Hashtbl.replace tbl name
           (Option.value (Hashtbl.find_opt tbl name) ~default:0 + v))
    ();
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

(* {1 Worker-state serialisation} *)

let state_magic = "droidracer-obs-state/1\n"

let merge_packed a b =
  let tbl : (int, int ref) Hashtbl.t = Hashtbl.create 16 in
  let bump (idx, n) =
    match Hashtbl.find_opt tbl idx with
    | Some r -> r := !r + n
    | None -> Hashtbl.add tbl idx (ref n)
  in
  List.iter bump a.ph_buckets;
  List.iter bump b.ph_buckets;
  { ph_count = a.ph_count + b.ph_count
  ; ph_sum = a.ph_sum +. b.ph_sum
  ; ph_min = Float.min a.ph_min b.ph_min
  ; ph_max = Float.max a.ph_max b.ph_max
  ; ph_buckets = Hashtbl.fold (fun i r acc -> (i, !r) :: acc) tbl []
  }

let pack_cell h =
  { ph_count = h.hc_count
  ; ph_sum = h.hc_sum
  ; ph_min = h.hc_min
  ; ph_max = h.hc_max
  ; ph_buckets =
      Hashtbl.fold (fun idx r acc -> (idx, !r) :: acc) h.hc_buckets []
  }

(* Merge the local buffers into one plain-data record. *)
let local_state () =
  let spans = ref [] in
  let counters : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let gauges : (string, float * int64) Hashtbl.t = Hashtbl.create 8 in
  let hists : (string, packed_hist) Hashtbl.t = Hashtbl.create 8 in
  let series : (string, (int64 * float) list) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun b ->
       Mutex.lock b.b_mutex;
       spans := List.rev_append b.b_spans !spans;
       Hashtbl.iter
         (fun name r ->
            Hashtbl.replace counters name
              (Option.value (Hashtbl.find_opt counters name) ~default:0 + !r))
         b.b_counters;
       Hashtbl.iter
         (fun name (v, t) ->
            match Hashtbl.find_opt gauges name with
            | Some (_, t') when t' >= t -> ()
            | Some _ | None -> Hashtbl.replace gauges name (v, t))
         b.b_gauges;
       Hashtbl.iter
         (fun name h ->
            let p = pack_cell h in
            match Hashtbl.find_opt hists name with
            | Some q -> Hashtbl.replace hists name (merge_packed q p)
            | None -> Hashtbl.add hists name p)
         b.b_hists;
       Hashtbl.iter
         (fun name r ->
            let prev =
              Option.value (Hashtbl.find_opt series name) ~default:[]
            in
            Hashtbl.replace series name (!r @ prev))
         b.b_series;
       Mutex.unlock b.b_mutex)
    (all_buffers ());
  let assoc_of tbl = Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl [] in
  { ws_pid = !cached_pid
  ; ws_label = !process_label
  ; ws_spans = !spans
  ; ws_counters = assoc_of counters
  ; ws_gauges = assoc_of gauges
  ; ws_hists = assoc_of hists
  ; ws_series = assoc_of series
  ; ws_rss_peak_kb = peak_rss_kb ()
  }

let export_state () = state_magic ^ Marshal.to_string (local_state ()) []

let absorb_state s =
  let mlen = String.length state_magic in
  if String.length s <= mlen || not (String.equal (String.sub s 0 mlen) state_magic)
  then None
  else
    match (Marshal.from_string s mlen : wire_state) with
    | ws ->
      Mutex.lock absorbed_mutex;
      absorbed := ws :: !absorbed;
      Mutex.unlock absorbed_mutex;
      Some ws.ws_pid
    | exception _ -> None

let write_state_file path =
  let tmp = path ^ ".tmp" in
  let oc = open_out_bin tmp in
  output_string oc (export_state ());
  close_out oc;
  Sys.rename tmp path

let absorb_state_file path =
  match In_channel.open_bin path with
  | exception Sys_error _ -> None
  | ic ->
    let s =
      Fun.protect
        ~finally:(fun () -> In_channel.close ic)
        (fun () -> In_channel.input_all ic)
    in
    absorb_state s

(* {1 Snapshots} *)

let snapshot () =
  let workers = absorbed_states () in
  let states = local_state () :: workers in
  let spans = ref [] in
  let counters : (string, int) Hashtbl.t = Hashtbl.create 16 in
  let gauges : (string, float * int64) Hashtbl.t = Hashtbl.create 8 in
  let hists : (string, packed_hist) Hashtbl.t = Hashtbl.create 8 in
  let series : (string, sample list) Hashtbl.t = Hashtbl.create 8 in
  let processes = ref [] in
  let merge_hist name p =
    match Hashtbl.find_opt hists name with
    | Some q -> Hashtbl.replace hists name (merge_packed q p)
    | None -> Hashtbl.add hists name p
  in
  List.iter
    (fun ws ->
       if not (List.mem_assoc ws.ws_pid !processes) then
         processes := (ws.ws_pid, ws.ws_label) :: !processes;
       spans := List.rev_append ws.ws_spans !spans;
       List.iter
         (fun (name, n) ->
            Hashtbl.replace counters name
              (Option.value (Hashtbl.find_opt counters name) ~default:0 + n))
         ws.ws_counters;
       List.iter
         (fun (name, (v, t)) ->
            match Hashtbl.find_opt gauges name with
            | Some (_, t') when t' >= t -> ()
            | Some _ | None -> Hashtbl.replace gauges name (v, t))
         ws.ws_gauges;
       List.iter (fun (name, p) -> merge_hist name p) ws.ws_hists;
       List.iter
         (fun (name, samples) ->
            let tagged =
              List.rev_map
                (fun (t, v) -> { s_pid = ws.ws_pid; s_ts_ns = t; s_value = v })
                samples
            in
            let prev = Option.value (Hashtbl.find_opt series name) ~default:[] in
            Hashtbl.replace series name (prev @ tagged))
         ws.ws_series)
    states;
  (* Every absorbed worker state carries that process's lifetime RSS
     peak: one histogram sample per worker, SIGKILL'd ones included
     (their sidecar file supplies the state). *)
  List.iter
    (fun ws ->
       if ws.ws_rss_peak_kb > 0 then begin
         let v = float_of_int ws.ws_rss_peak_kb in
         merge_hist "proc.worker_rss_peak_kb"
           { ph_count = 1
           ; ph_sum = v
           ; ph_min = v
           ; ph_max = v
           ; ph_buckets = [ (bucket_of_value v, 1) ]
           }
       end)
    workers;
  let domain_tbl : (int * int, int * int64) Hashtbl.t = Hashtbl.create 8 in
  List.iter
    (fun s ->
       let key = (s.sp_pid, s.sp_domain) in
       let n, busy =
         Option.value (Hashtbl.find_opt domain_tbl key) ~default:(0, 0L)
       in
       let busy =
         match s.sp_path with
         | [ _ ] -> Int64.add busy s.sp_dur_ns
         | _ -> busy
       in
       Hashtbl.replace domain_tbl key (n + 1, busy))
    !spans;
  let sorted_assoc of_tbl =
    List.sort (fun (a, _) (b, _) -> String.compare a b) of_tbl
  in
  { spans =
      List.sort
        (fun s1 s2 ->
           match Int64.compare s1.sp_start_ns s2.sp_start_ns with
           | 0 ->
             (match Int.compare s1.sp_pid s2.sp_pid with
              | 0 -> Int.compare s1.sp_domain s2.sp_domain
              | c -> c)
           | c -> c)
        !spans
  ; counters = sorted_assoc (Hashtbl.fold (fun k v a -> (k, v) :: a) counters [])
  ; gauges =
      sorted_assoc (Hashtbl.fold (fun k (v, _) a -> (k, v) :: a) gauges [])
  ; histograms =
      sorted_assoc
        (Hashtbl.fold
           (fun k p a ->
              let q x =
                quantile ~count:p.ph_count ~lo:p.ph_min ~hi:p.ph_max
                  p.ph_buckets x
              in
              ( k
              , { h_count = p.ph_count
                ; h_sum = p.ph_sum
                ; h_min = p.ph_min
                ; h_max = p.ph_max
                ; h_p50 = q 0.50
                ; h_p90 = q 0.90
                ; h_p99 = q 0.99
                } )
              :: a)
           hists [])
  ; series =
      sorted_assoc
        (Hashtbl.fold
           (fun k samples a ->
              ( k
              , List.sort
                  (fun a b ->
                     match Int64.compare a.s_ts_ns b.s_ts_ns with
                     | 0 -> Int.compare a.s_pid b.s_pid
                     | c -> c)
                  samples )
              :: a)
           series [])
  ; domains =
      Hashtbl.fold
        (fun (pid, id) (n, busy) acc ->
           { d_pid = pid
           ; d_id = id
           ; d_spans = n
           ; d_busy_seconds = Int64.to_float busy /. 1e9
           }
           :: acc)
        domain_tbl []
      |> List.sort (fun d1 d2 ->
        match Int.compare d1.d_pid d2.d_pid with
        | 0 -> Int.compare d1.d_id d2.d_id
        | c -> c)
  ; processes = List.sort (fun (a, _) (b, _) -> Int.compare a b) !processes
  }

(* {1 The summary tree} *)

type tree_node =
  { mutable tn_count : int
  ; mutable tn_total : int64
  ; tn_children : (string, tree_node) Hashtbl.t
  }

let new_node () =
  { tn_count = 0; tn_total = 0L; tn_children = Hashtbl.create 4 }

let summary_string () =
  let snap = snapshot () in
  let root = new_node () in
  List.iter
    (fun s ->
       let rec insert node = function
         | [] ->
           node.tn_count <- node.tn_count + 1;
           node.tn_total <- Int64.add node.tn_total s.sp_dur_ns
         | seg :: rest ->
           let child =
             match Hashtbl.find_opt node.tn_children seg with
             | Some c -> c
             | None ->
               let c = new_node () in
               Hashtbl.add node.tn_children seg c;
               c
           in
           insert child rest
       in
       insert root s.sp_path)
    snap.spans;
  let buf = Buffer.create 1024 in
  let line fmt = Printf.ksprintf (fun s -> Buffer.add_string buf (s ^ "\n")) fmt in
  let seconds ns = Int64.to_float ns /. 1e9 in
  let rec print_node depth name node =
    let label = String.make (2 * depth) ' ' ^ name in
    line "%-48s %8d %10.3fs" label node.tn_count (seconds node.tn_total);
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) node.tn_children []
    |> List.sort (fun (n1, c1) (n2, c2) ->
      match Int64.compare c2.tn_total c1.tn_total with
      | 0 -> String.compare n1 n2
      | c -> c)
    |> List.iter (fun (k, v) -> print_node (depth + 1) k v)
  in
  if Hashtbl.length root.tn_children > 0 then begin
    line "%-48s %8s %10s" "span" "calls" "total";
    Hashtbl.fold (fun k v acc -> (k, v) :: acc) root.tn_children []
    |> List.sort (fun (n1, c1) (n2, c2) ->
      match Int64.compare c2.tn_total c1.tn_total with
      | 0 -> String.compare n1 n2
      | c -> c)
    |> List.iter (fun (k, v) -> print_node 0 k v)
  end;
  let multiproc = List.length snap.processes > 1 in
  if multiproc then begin
    line "";
    line "%-48s %10s" "process" "label";
    List.iter
      (fun (pid, label) -> line "%-48s %10s" (Printf.sprintf "pid-%d" pid) label)
      snap.processes
  end;
  if snap.counters <> [] then begin
    line "";
    line "%-48s %10s" "counter" "total";
    List.iter (fun (name, v) -> line "%-48s %10d" name v) snap.counters
  end;
  if snap.gauges <> [] then begin
    line "";
    line "%-48s %10s" "gauge" "value";
    List.iter (fun (name, v) -> line "%-48s %10.3f" name v) snap.gauges
  end;
  if snap.histograms <> [] then begin
    line "";
    line "%-48s %8s %10s %10s %10s %10s %10s %10s" "histogram" "count" "sum"
      "min" "max" "p50" "p90" "p99";
    List.iter
      (fun (name, h) ->
         line "%-48s %8d %10.4f %10.4f %10.4f %10.4f %10.4f %10.4f" name
           h.h_count h.h_sum h.h_min h.h_max h.h_p50 h.h_p90 h.h_p99)
      snap.histograms
  end;
  if snap.series <> [] then begin
    line "";
    line "%-48s %8s %10s" "series" "samples" "last";
    List.iter
      (fun (name, samples) ->
         let last =
           match List.rev samples with [] -> 0.0 | s :: _ -> s.s_value
         in
         line "%-48s %8d %10.3f" name (List.length samples) last)
      snap.series
  end;
  if snap.domains <> [] then begin
    line "";
    line "%-48s %8s %10s" "domain" "spans" "busy";
    List.iter
      (fun d ->
         let label =
           if multiproc then Printf.sprintf "pid-%d/domain-%d" d.d_pid d.d_id
           else Printf.sprintf "domain-%d" d.d_id
         in
         line "%-48s %8d %9.3fs" label d.d_spans d.d_busy_seconds)
      snap.domains
  end;
  Buffer.contents buf

(* {1 JSON exporters} *)

let metrics_json_string () =
  let snap = snapshot () in
  let named f l = Json.Object (List.map (fun (name, v) -> (name, f v)) l) in
  Json.to_line
    (Json.Object
       [ ("schema", Json.String "droidracer-metrics/2")
       ; ("spans_recorded", Json.int (List.length snap.spans))
       ; ( "processes"
         , Json.Array
             (List.map
                (fun (pid, label) ->
                   Json.Object
                     [ ("pid", Json.int pid); ("label", Json.String label) ])
                snap.processes) )
       ; ("counters", named Json.int snap.counters)
       ; ("gauges", named Json.float snap.gauges)
       ; ( "histograms"
         , named
             (fun h ->
                Json.Object
                  [ ("count", Json.int h.h_count)
                  ; ("sum", Json.Number h.h_sum)
                  ; ("min", Json.Number h.h_min)
                  ; ("max", Json.Number h.h_max)
                  ; ( "mean"
                    , Json.Number
                        (if h.h_count = 0 then 0.0
                         else h.h_sum /. float_of_int h.h_count) )
                  ; ("p50", Json.Number h.h_p50)
                  ; ("p90", Json.Number h.h_p90)
                  ; ("p99", Json.Number h.h_p99)
                  ])
             snap.histograms )
       ; ( "domains"
         , Json.Array
             (List.map
                (fun d ->
                   Json.Object
                     [ ("pid", Json.int d.d_pid)
                     ; ("domain", Json.int d.d_id)
                     ; ("spans", Json.int d.d_spans)
                     ; ("busy_seconds", Json.Number d.d_busy_seconds)
                     ])
                snap.domains) )
       ])

let series_json_string () =
  let snap = snapshot () in
  Json.to_line
    (Json.Object
       [ ("schema", Json.String "droidracer-series/1")
       ; ( "sample_period_seconds"
         , Json.Number (Int64.to_float (Atomic.get sample_period_ns) /. 1e9) )
       ; ( "series"
         , Json.Array
             (List.map
                (fun (name, samples) ->
                   Json.Object
                     [ ("name", Json.String name)
                     ; ( "samples"
                       , Json.Array
                           (List.map
                              (fun s ->
                                 Json.Object
                                   [ ("pid", Json.int s.s_pid)
                                   ; ("t_ns", Json.Number (Int64.to_float s.s_ts_ns))
                                   ; ("value", Json.Number s.s_value)
                                   ])
                              samples) )
                     ])
                snap.series) )
       ])

let chrome_trace_string () =
  let snap = snapshot () in
  let us ns = Json.Number (Int64.to_float ns /. 1e3) in
  let event ~name ~ph ~pid ~tid ?(cat = []) ?(time = []) args =
    Json.Object
      ((("name", Json.String name) :: cat)
       @ (("ph", Json.String ph) :: time)
       @ [ ("pid", Json.int pid); ("tid", Json.int tid) ]
       @ if args = [] then [] else [ ("args", Json.Object args) ])
  in
  let cat = [ ("cat", Json.String "droidracer") ] in
  let events =
    List.map
      (fun (pid, label) ->
         event ~name:"process_name" ~ph:"M" ~pid ~tid:0
           [ ("name", Json.String label) ])
      snap.processes
    @ List.map
        (fun d ->
           event ~name:"thread_name" ~ph:"M" ~pid:d.d_pid ~tid:d.d_id
             [ ("name", Json.String (Printf.sprintf "domain-%d" d.d_id)) ])
        snap.domains
    @ List.map
        (fun s ->
           event ~name:s.sp_name ~ph:"X" ~pid:s.sp_pid ~tid:s.sp_domain ~cat
             ~time:[ ("ts", us s.sp_start_ns); ("dur", us s.sp_dur_ns) ]
             (List.map (fun (k, v) -> (k, Json.String v)) s.sp_args))
        snap.spans
    @ List.concat_map
        (fun (name, samples) ->
           List.map
             (fun s ->
                event ~name ~ph:"C" ~pid:s.s_pid ~tid:0 ~cat
                  ~time:[ ("ts", us s.s_ts_ns) ]
                  [ ("value", Json.Number s.s_value) ])
             samples)
        snap.series
  in
  Json.to_line
    (Json.Object
       [ ("traceEvents", Json.Array events)
       ; ("displayTimeUnit", Json.String "ms")
       ])

let write_string path s =
  let oc = open_out path in
  output_string oc s;
  close_out oc

let write_chrome_trace path = write_string path (chrome_trace_string ())
let write_metrics_json path = write_string path (metrics_json_string ())
let write_series_json path = write_string path (series_json_string ())
