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

let access trace i (e : Trace.event) location =
  { position = i
  ; location
  ; is_write = Operation.is_write e.op
  ; thread = e.thread
  ; task = Trace.enclosing_task trace i
  }

let accesses trace =
  let out = ref [] in
  Trace.iteri
    (fun i (e : Trace.event) ->
       match Operation.accessed_location e.op with
       | Some location -> out := access trace i e location :: !out
       | None -> ())
    trace;
  List.rev !out

(* The access positions of a trace grouped by location, then by graph
   node, and cut into segments: the reads [start, wstart) and writes
   [wstart, stop) of one location in one node, each in trace order.  A
   location's segments are consecutive, in order of first access.
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

let segment trace graph =
  let n_pos = Trace.length trace in
  let locs = Array.length (Trace.locations trace) in
  (* counting sort of the positions by location: trace order within *)
  let loc_start = Array.make (locs + 1) 0 in
  for i = 0 to n_pos - 1 do
    let l = Trace.location_id trace i in
    if l >= 0 then loc_start.(l + 1) <- loc_start.(l + 1) + 1
  done;
  for l = 1 to locs do
    loc_start.(l) <- loc_start.(l) + loc_start.(l - 1)
  done;
  let n = loc_start.(locs) in
  let by_loc = Array.make n 0 in
  let cursor = Array.sub loc_start 0 locs in
  for i = 0 to n_pos - 1 do
    let l = Trace.location_id trace i in
    if l >= 0 then begin
      by_loc.(cursor.(l)) <- i;
      cursor.(l) <- cursor.(l) + 1
    end
  done;
  (* Per location, one segment per node it touches: a first walk
     numbers and sizes them, a second places the positions.
     [last_loc] marks the nodes given a segment of the current
     location. *)
  let is_write i = Operation.is_write (Trace.get trace i).op in
  let nodes = Graph.node_count graph in
  let last_loc = Array.make nodes (-1) and node_seg = Array.make nodes 0 in
  let seg_node = Array.make n 0 and seg_start = Array.make (n + 1) 0 in
  let seg_wstart = Array.make n 0 in
  let read_at = Array.make n 0 and write_at = Array.make n 0 in
  let sorted = Array.make n 0 in
  let loc_seg = Array.make (locs + 1) 0 in
  let segs = ref 0 in
  for l = 0 to locs - 1 do
    let first = !segs in
    loc_seg.(l) <- first;
    for x = loc_start.(l) to loc_start.(l + 1) - 1 do
      let v = Graph.node_of_pos graph by_loc.(x) in
      if last_loc.(v) <> l then begin
        last_loc.(v) <- l;
        node_seg.(v) <- !segs;
        seg_node.(!segs) <- v;
        incr segs
      end;
      let sg = node_seg.(v) in
      if is_write by_loc.(x) then write_at.(sg) <- write_at.(sg) + 1
      else read_at.(sg) <- read_at.(sg) + 1
    done;
    (* counts to extents; the cursors start at each part's beginning *)
    for sg = first to !segs - 1 do
      let reads = read_at.(sg) and total = read_at.(sg) + write_at.(sg) in
      seg_wstart.(sg) <- seg_start.(sg) + reads;
      seg_start.(sg + 1) <- seg_start.(sg) + total;
      read_at.(sg) <- seg_start.(sg);
      write_at.(sg) <- seg_wstart.(sg)
    done;
    for x = loc_start.(l) to loc_start.(l + 1) - 1 do
      let i = by_loc.(x) in
      let sg = node_seg.(Graph.node_of_pos graph i) in
      let at = if is_write i then write_at else read_at in
      sorted.(at.(sg)) <- i;
      at.(sg) <- at.(sg) + 1
    done
  done;
  loc_seg.(locs) <- !segs;
  { sorted; seg_node; seg_start; seg_wstart; loc_seg }

let detect ?(jobs = 1) trace ~hb =
  Obs.with_span "race.detect" ~args:[ ("jobs", string_of_int jobs) ]
  @@ fun () ->
  let graph = Happens_before.graph hb in
  if Trace.length trace <> Trace.length (Graph.trace graph) then
    invalid_arg "Race.detect: the relation was computed on another trace";
  let s = segment trace graph in
  let has_write seg = s.seg_wstart.(seg) < s.seg_start.(seg + 1) in
  (* The node-pair scan is quadratic in a location's nodes, so one hot
     location would serialise a per-location fan-out; chunk its
     first-node range instead.  The chunk size depends on [jobs], which
     is fine: the final sort makes the output independent of how the
     work was split. *)
  let work =
    List.concat_map
      (fun l ->
         let lo = s.loc_seg.(l) and hi = s.loc_seg.(l + 1) in
         let k = hi - lo in
         let chunk =
           if jobs <= 1 then k else max 16 ((k + (4 * jobs) - 1) / (4 * jobs))
         in
         List.map
           (fun (a, b) -> (lo, hi, lo + a, lo + b))
           (Par_pool.ranges ~chunk k))
      (List.init (Array.length s.loc_seg - 1) Fun.id)
  in
  (* Access records are built for racing accesses only. *)
  let access_at i =
    let e = Trace.get trace i in
    access trace i e (Option.get (Operation.accessed_location e.op))
  in
  let race i j =
    let i, j = if i < j then (i, j) else (j, i) in
    { first = access_at i; second = access_at j }
  in
  (* Every access of segment [p] against the accesses of segment [q] it
     conflicts with: a write against all of them, a read against the
     writes. *)
  let emit p q races =
    for x = s.seg_start.(p) to s.seg_start.(p + 1) - 1 do
      let from =
        if x >= s.seg_wstart.(p) then s.seg_start.(q) else s.seg_wstart.(q)
      in
      for y = from to s.seg_start.(q + 1) - 1 do
        races := race s.sorted.(x) s.sorted.(y) :: !races
      done
    done
  in
  let scan (loc_lo, loc_hi, lo, hi) =
    let args =
      if Obs.enabled () then
        [ ("lo", string_of_int (lo - loc_lo))
        ; ("hi", string_of_int (hi - loc_lo))
        ]
      else []
    in
    Obs.with_span "race.chunk" ~args @@ fun () ->
    let races = ref [] and node_pairs = ref 0 in
    (* Two accesses of one node never race: the relation orders them by
       position.  Accesses of two distinct nodes are ordered exactly
       when the nodes are, so one lookup each way decides every pair. *)
    for p = lo to hi - 1 do
      let np = s.seg_node.(p) and wp = has_write p in
      for q = p + 1 to loc_hi - 1 do
        if wp || has_write q then begin
          incr node_pairs;
          let nq = s.seg_node.(q) in
          if not (Happens_before.node_hb hb np nq)
             && not (Happens_before.node_hb hb nq np)
          then emit p q races
        end
      done
    done;
    if Obs.enabled () then begin
      (* access pairs = Σ_{i=a}^{b-1} (len-1-i) over the chunk's
         accesses [a, b) of the location's [len], in closed form: what
         an access-pair scan would examine, the base against which
         [node_pairs] reads as the saving *)
      let base = s.seg_start.(loc_lo) in
      let len = s.seg_start.(loc_hi) - base in
      let a = s.seg_start.(lo) - base and b = s.seg_start.(hi) - base in
      let k = b - a in
      let pairs = (k * (len - 1)) - (k * (a + b - 1) / 2) in
      let conflicts = List.length !races in
      Obs.add ~n:pairs "race.pairs_examined";
      Obs.add ~n:!node_pairs "race.node_pairs_examined";
      Obs.add ~n:conflicts "race.conflicts";
      Obs.set_span_arg "pairs" (string_of_int pairs);
      Obs.set_span_arg "node_pairs" (string_of_int !node_pairs);
      Obs.set_span_arg "conflicts" (string_of_int conflicts)
    end;
    !races
  in
  List.concat (Par_pool.parallel_map ~jobs scan work)
  |> List.sort (fun r1 r2 ->
    match Int.compare r1.first.position r2.first.position with
    | 0 -> Int.compare r1.second.position r2.second.position
    | c -> c)
