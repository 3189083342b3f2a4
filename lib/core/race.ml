open! Import
module Thread_id = Ident.Thread_id
module Location = Ident.Location

type access =
  { position : int
  ; location : Location.t
  ; is_write : bool
  ; thread : Thread_id.t
  ; task : Ident.Task_id.t option
  }

type t =
  { first : access
  ; second : access
  }

let location r = r.first.location

let is_multithreaded r =
  not (Thread_id.equal r.first.thread r.second.thread)

let pp_access ppf a =
  Format.fprintf ppf "%s(%a)@%d on %a"
    (if a.is_write then "write" else "read")
    Location.pp a.location a.position Thread_id.pp a.thread

let pp ppf r =
  Format.fprintf ppf "race between %a and %a" pp_access r.first pp_access
    r.second

(* The access record of an access position, read from the columns. *)
let access trace i =
  { position = i
  ; location = Trace.location trace (Trace.location_id trace i)
  ; is_write = Trace.is_write trace i
  ; thread = Trace.thread trace i
  ; task = Trace.enclosing_task trace i
  }

let accesses trace =
  let out = ref [] in
  for i = Trace.length trace - 1 downto 0 do
    if Trace.is_access trace i then out := access trace i :: !out
  done;
  !out

(* The access positions of a trace grouped by location, then by graph
   node, and cut into segments: the reads [start, wstart) and writes
   [wstart, stop) of one location in one node, each in trace order.  A
   location's segments are consecutive, in ascending node order.
   Built by counting passes over int arrays — no sort, no table per
   location, no access record until an access races: small traces are
   analysed by the thousand, and large ones have accesses by the
   hundred thousand. *)
type segments =
  { sorted : int array  (** access positions *)
  ; seg_node : int array
  ; seg_start : int array  (** with an end entry after the last segment *)
  ; seg_wstart : int array
  ; loc_seg : int array  (** first segment per location, plus an end entry *)
  }

(* A location's accesses, packed as position, node and write flag into
   one int: positions and nodes fit in 31 bits each. *)
let pos_bits = 31

let[@inline] packed_node e = (e lsr 1) land ((1 lsl pos_bits) - 1)
let[@inline] packed_pos e = e lsr (pos_bits + 1)

let segment trace graph =
  let n_pos = Trace.length trace in
  if n_pos >= 1 lsl pos_bits then invalid_arg "Race.detect: trace too long";
  let locs = Trace.location_count trace in
  (* counting sort of the accesses by location, trace order within; the
     trace counted each location's accesses when it was built *)
  let loc_start = Array.make (locs + 1) 0 in
  for l = 0 to locs - 1 do
    loc_start.(l + 1) <- loc_start.(l) + Trace.location_accesses trace l
  done;
  let n = loc_start.(locs) in
  let by_loc = Array.make n 0 in
  let cursor = Array.sub loc_start 0 locs in
  (* the one pass that reads the columns and the nodes *)
  for i = 0 to n_pos - 1 do
    let a = Trace.access_code trace i in
    if a >= 0 then begin
      let l = a lsr 1 in
      by_loc.(cursor.(l)) <-
        (i lsl (pos_bits + 1)) lor (Graph.node_of_pos graph i lsl 1) lor (a land 1);
      cursor.(l) <- cursor.(l) + 1
    end
  done;
  (* Per location, one segment per node it touches, numbered in node
     order: a first walk marks the nodes in [touched] and counts their
     reads and writes, the mask's set bits number the segments, and a
     second walk places the positions, with per-node cursors.
     [last_loc] marks the nodes counted for the current location. *)
  let nodes = Graph.node_count graph in
  let touched = Bit_matrix.Mask.create nodes in
  let last_loc = Array.make nodes (-1) in
  let read_at = Array.make nodes 0 and write_at = Array.make nodes 0 in
  let seg_node = Array.make n 0 and seg_start = Array.make (n + 1) 0 in
  let seg_wstart = Array.make n 0 in
  let sorted = Array.make n 0 in
  let loc_seg = Array.make (locs + 1) 0 in
  let segs = ref 0 in
  for l = 0 to locs - 1 do
    loc_seg.(l) <- !segs;
    let lowest = ref nodes and highest = ref (-1) in
    for x = loc_start.(l) to loc_start.(l + 1) - 1 do
      let e = by_loc.(x) in
      let v = packed_node e in
      if last_loc.(v) <> l then begin
        last_loc.(v) <- l;
        read_at.(v) <- 0;
        write_at.(v) <- 0;
        Bit_matrix.Mask.set touched v;
        if v < !lowest then lowest := v;
        if v > !highest then highest := v
      end;
      if e land 1 = 1 then write_at.(v) <- write_at.(v) + 1
      else read_at.(v) <- read_at.(v) + 1
    done;
    (* counts to extents; the cursors start at each part's beginning *)
    Bit_matrix.Mask.iter_range touched !lowest !highest (fun v ->
      let sg = !segs in
      incr segs;
      let reads = read_at.(v) in
      seg_node.(sg) <- v;
      seg_wstart.(sg) <- seg_start.(sg) + reads;
      seg_start.(sg + 1) <- seg_start.(sg) + reads + write_at.(v);
      read_at.(v) <- seg_start.(sg);
      write_at.(v) <- seg_wstart.(sg));
    Bit_matrix.Mask.clear_range touched !lowest !highest;
    for x = loc_start.(l) to loc_start.(l + 1) - 1 do
      let e = by_loc.(x) in
      let v = packed_node e in
      let at = if e land 1 = 1 then write_at else read_at in
      sorted.(at.(v)) <- packed_pos e;
      at.(v) <- at.(v) + 1
    done
  done;
  loc_seg.(locs) <- !segs;
  { sorted; seg_node; seg_start; seg_wstart; loc_seg }

(* Per-worker scratch for the scan: the node masks of a location's
   nodes and of its writers. *)
type scratch =
  { among : Bit_matrix.Mask.t
  ; writers : Bit_matrix.Mask.t
  }

let detect ?(jobs = 1) trace ~hb =
  Obs.with_span "race.detect" ~args:[ ("jobs", string_of_int jobs) ]
  @@ fun () ->
  let graph = Happens_before.graph hb in
  if Trace.length trace <> Trace.length (Graph.trace graph) then
    invalid_arg "Race.detect: the relation was computed on another trace";
  let preds = Happens_before.preds hb in
  let s = segment trace graph in
  let nodes = Graph.node_count graph in
  let scratch () =
    { among = Bit_matrix.Mask.create nodes
    ; writers = Bit_matrix.Mask.create nodes
    }
  in
  let has_write seg = s.seg_wstart.(seg) < s.seg_start.(seg + 1) in
  (* Access records are built for racing accesses only. *)
  let race i j =
    let i, j = if i < j then (i, j) else (j, i) in
    { first = access trace i; second = access trace j }
  in
  (* Every access of segment [p] against the accesses of segment [q] it
     conflicts with: a write against all of them, a read against the
     writes.  The scan hands it conflicting segments only. *)
  let emit p q races =
    assert (has_write p || has_write q);
    for x = s.seg_start.(p) to s.seg_start.(p + 1) - 1 do
      let from =
        if x >= s.seg_wstart.(p) then s.seg_start.(q) else s.seg_wstart.(q)
      in
      for y = from to s.seg_start.(q + 1) - 1 do
        races := race s.sorted.(x) s.sorted.(y) :: !races
      done
    done
  in
  (* The segment of node [v] among the segments [lo, hi) of one
     location, which are in ascending node order. *)
  let rec seg_of v lo hi =
    let mid = (lo + hi) / 2 in
    let m = s.seg_node.(mid) in
    if m = v then mid else if m < v then seg_of v (mid + 1) hi else seg_of v lo mid
  in
  (* The races of the segments [lo, hi) of the location whose first
     segment is [loc_lo] against its segments of lower nodes, with
     the chunk's counters.  Two accesses of one node never race: the
     relation orders them by position.  Accesses of two distinct nodes
     are ordered exactly when the nodes are, and every edge of the
     relation points to the higher node id, so the lower nodes that
     race with segment [q]'s node are its location's nodes — only the
     writers when [q] only reads — that row [q] lacks: one AND-NOT per
     word of the row. *)
  let scan sc (loc_lo, lo, hi) =
    let races = ref [] and node_pairs = ref 0 and words = ref 0 in
    let lowest = s.seg_node.(loc_lo) in
    Bit_matrix.Mask.clear_range sc.among lowest s.seg_node.(hi - 1);
    Bit_matrix.Mask.clear_range sc.writers lowest s.seg_node.(hi - 1);
    (* writers below the chunk *)
    let wb = ref 0 in
    for p = loc_lo to lo - 1 do
      Bit_matrix.Mask.set sc.among s.seg_node.(p);
      if has_write p then begin
        Bit_matrix.Mask.set sc.writers s.seg_node.(p);
        incr wb
      end
    done;
    for q = lo to hi - 1 do
      let nq = s.seg_node.(q) and wq = has_write q in
      (* node pairs decided, in closed form: every lower node when [q]
         writes, else the lower writers *)
      let decided = if wq then q - loc_lo else !wb in
      if decided > 0 then begin
        node_pairs := !node_pairs + decided;
        let among = if wq then sc.among else sc.writers in
        words :=
          !words
          + Bit_matrix.iter_absent preds nq ~among ~from:lowest (fun np ->
            emit (seg_of np loc_lo q) q races)
      end;
      Bit_matrix.Mask.set sc.among nq;
      if wq then begin
        Bit_matrix.Mask.set sc.writers nq;
        incr wb
      end
    done;
    (!races, !node_pairs, !words)
  in
  (* A scan's counters, when telemetry is on; also as the arguments of
     the scan's own span, when it has one. *)
  let record ~span (loc_lo, lo, hi) (races, node_pairs, words) =
    if Obs.enabled () then begin
      (* access pairs with a later access in the chunk, in closed form:
         what an access-pair scan would examine, the base against
         which [node_pairs] reads as the saving *)
      let base = s.seg_start.(loc_lo) in
      let a = s.seg_start.(lo) - base and b = s.seg_start.(hi) - base in
      let pairs = ((b * (b - 1)) - (a * (a - 1))) / 2 in
      let conflicts = List.length races in
      Obs.add ~n:pairs "race.pairs_examined";
      Obs.add ~n:node_pairs "race.node_pairs_examined";
      Obs.add ~n:words "race.words_anded";
      Obs.add ~n:conflicts "race.conflicts";
      if span then begin
        Obs.set_span_arg "pairs" (string_of_int pairs);
        Obs.set_span_arg "node_pairs" (string_of_int node_pairs);
        Obs.set_span_arg "conflicts" (string_of_int conflicts)
      end
    end;
    races
  in
  let locs = Array.length s.loc_seg - 1 in
  let races =
    if jobs <= 1 then begin
      let sc = scratch () in
      let races = ref [] in
      for l = 0 to locs - 1 do
        let lo = s.loc_seg.(l) and hi = s.loc_seg.(l + 1) in
        let w = (lo, lo, hi) in
        races := List.rev_append (record ~span:false w (scan sc w)) !races
      done;
      !races
    end
    else begin
      (* The scan is quadratic in a location's nodes, so one hot
         location would serialise a per-location fan-out; chunk its
         segments instead.  The chunk size depends on [jobs], which is
         fine: the final sort makes the output independent of how the
         work was split.  The chunks are dealt out in a few runs, each
         with its own scratch. *)
      let work =
        List.concat_map
          (fun l ->
             let lo = s.loc_seg.(l) and hi = s.loc_seg.(l + 1) in
             let k = hi - lo in
             let chunk = max 16 ((k + (4 * jobs) - 1) / (4 * jobs)) in
             List.map
               (fun (a, b) -> (lo, lo + a, lo + b))
               (Par_pool.ranges ~chunk k))
          (List.init locs Fun.id)
      in
      let chunk sc ((loc_lo, lo, hi) as w) =
        let args =
          if Obs.enabled () then
            [ ("lo", string_of_int (lo - loc_lo))
            ; ("hi", string_of_int (hi - loc_lo))
            ]
          else []
        in
        Obs.with_span "race.chunk" ~args (fun () ->
          record ~span:true w (scan sc w))
      in
      let work = Array.of_list work in
      let runs =
        Par_pool.ranges
          ~chunk:(max 1 ((Array.length work + (4 * jobs) - 1) / (4 * jobs)))
          (Array.length work)
      in
      Par_pool.parallel_map ~jobs
        (fun (a, b) ->
           let sc = scratch () in
           List.concat_map (chunk sc) (Array.to_list (Array.sub work a (b - a))))
        runs
      |> List.concat
    end
  in
  List.sort
    (fun r1 r2 ->
       match Int.compare r1.first.position r2.first.position with
       | 0 -> Int.compare r1.second.position r2.second.position
       | c -> c)
    races
