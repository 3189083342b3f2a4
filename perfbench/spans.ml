(* The traced run's span recorder.

   Spans are recorded by the benchmark's own code around its calls into
   the program, never inside the program.  Each span has a name, an
   interval on the monotonic clock, its parent, and a group — the id of
   the trace or request it belongs to, shared by all its spans.  Spans
   stay in memory until {!write} at the end of the run.

   A call made once per event (the streaming engine's [feed]) would
   swamp the store with one span per event, so {!accumulate} folds
   repeated calls under one parent into a single {e aggregate} span:
   its interval runs from the first call's start to the last call's
   end, [busy] is the time actually inside the calls and [calls] their
   number.  For an ordinary span [busy] is the interval's length. *)

type span =
  { id : int
  ; name : string
  ; group : int
  ; parent : int  (* -1 for a root *)
  ; start : float
  ; stop : float
  ; busy : float
  ; calls : int
  }

let now () = Int64.to_float (Droidracer_obs.Obs.now_ns ()) *. 1e-9

(* {1 Recording} *)

type aggregate =
  { mutable a_first : float
  ; mutable a_last : float
  ; mutable a_busy : float
  ; mutable a_calls : int
  }

type frame =
  { f_id : int
  ; f_name : string
  ; f_group : int
  ; f_parent : int
  ; f_start : float
  ; f_aggregates : (string, aggregate) Hashtbl.t
  }

let enabled = ref false
let finished : span list ref = ref []
let stack : frame list ref = ref []
let next_id = ref 0

let reset () =
  finished := [];
  stack := [];
  next_id := 0

let fresh_id () =
  let id = !next_id in
  incr next_id;
  id

let close_frame f stop =
  Hashtbl.iter
    (fun name a ->
       finished :=
         { id = fresh_id ()
         ; name
         ; group = f.f_group
         ; parent = f.f_id
         ; start = a.a_first
         ; stop = a.a_last
         ; busy = a.a_busy
         ; calls = a.a_calls
         }
         :: !finished)
    f.f_aggregates;
  finished :=
    { id = f.f_id
    ; name = f.f_name
    ; group = f.f_group
    ; parent = f.f_parent
    ; start = f.f_start
    ; stop
    ; busy = stop -. f.f_start
    ; calls = 1
    }
    :: !finished

(* [with_span ?group name f] records a span around [f ()].  [group]
   defaults to the enclosing span's. *)
let with_span ?group name f =
  if not !enabled then f ()
  else begin
    let parent, inherited =
      match !stack with
      | [] -> (-1, 0)
      | top :: _ -> (top.f_id, top.f_group)
    in
    let frame =
      { f_id = fresh_id ()
      ; f_name = name
      ; f_group = Option.value group ~default:inherited
      ; f_parent = parent
      ; f_start = now ()
      ; f_aggregates = Hashtbl.create 2
      }
    in
    stack := frame :: !stack;
    let finish () =
      let stop = now () in
      (match !stack with _ :: rest -> stack := rest | [] -> ());
      close_frame frame stop
    in
    match f () with
    | v -> finish (); v
    | exception e -> finish (); raise e
  end

(* [accumulate name f] times [f ()] into the aggregate child [name] of
   the innermost open span (untimed outside any span). *)
let accumulate name f =
  match !stack with
  | top :: _ when !enabled ->
    let t0 = now () in
    let v = f () in
    let t1 = now () in
    let a =
      match Hashtbl.find_opt top.f_aggregates name with
      | Some a -> a
      | None ->
        let a = { a_first = t0; a_last = t0; a_busy = 0.0; a_calls = 0 } in
        Hashtbl.add top.f_aggregates name a;
        a
    in
    a.a_last <- t1;
    a.a_busy <- a.a_busy +. (t1 -. t0);
    a.a_calls <- a.a_calls + 1;
    v
  | _ -> f ()

(* Records an already-measured interval — for requests that overlap in
   time, which the nesting stack of {!with_span} cannot express.
   Returns the span's id (-1 when tracing is off). *)
let add ?(parent = -1) ~group name ~start ~stop =
  if not !enabled then -1
  else begin
    let id = fresh_id () in
    finished :=
      { id; name; group; parent; start; stop; busy = stop -. start; calls = 1 }
      :: !finished;
    id
  end

let spans () = List.rev !finished

(* {1 Self time} *)

(* Total length of a union of intervals. *)
let union_length intervals =
  let sorted = List.sort (fun (a, _) (b, _) -> Float.compare a b) intervals in
  let total, cur =
    List.fold_left
      (fun (total, cur) (s, e) ->
         match cur with
         | None -> (total, Some (s, e))
         | Some (cs, ce) when s <= ce -> (total, Some (cs, Float.max ce e))
         | Some (cs, ce) -> (total +. (ce -. cs), Some (s, e)))
      (0.0, None) sorted
  in
  match cur with None -> total | Some (cs, ce) -> total +. (ce -. cs)

(* A span's self time: its busy time minus the part its children cover.
   Ordinary children cover the union of their intervals, clipped to the
   parent's; an aggregate child covers its [busy] time (its calls are
   sequential and disjoint from its siblings').  Never negative, never
   more than the parent's own [busy]. *)
let self_times spans =
  let children = Hashtbl.create 64 in
  List.iter
    (fun s -> if s.parent >= 0 then Hashtbl.add children s.parent s)
    spans;
  List.map
    (fun s ->
       let kids = Hashtbl.find_all children s.id in
       let intervals, aggregated =
         List.fold_left
           (fun (iv, agg) k ->
              if k.calls = 1 then
                let a = Float.max s.start k.start
                and b = Float.min s.stop k.stop in
                if b > a then ((a, b) :: iv, agg) else (iv, agg)
              else (iv, agg +. k.busy))
           ([], 0.0) kids
       in
       let covered = Float.min s.busy (union_length intervals +. aggregated) in
       (s, Float.max 0.0 (s.busy -. covered)))
    spans

(* Self seconds summed per span name. *)
let self_by_name spans =
  let tbl = Hashtbl.create 16 in
  List.iter
    (fun (s, self) ->
       Hashtbl.replace tbl s.name
         (self +. Option.value (Hashtbl.find_opt tbl s.name) ~default:0.0))
    (self_times spans);
  tbl

let self_total tbl name = Option.value (Hashtbl.find_opt tbl name) ~default:0.0

(* {1 Output} *)

let span_json s self =
  Printf.sprintf
    {|{"id":%d,"name":"%s","group":%d,"parent":%d,"start":%.9f,"end":%.9f,"busy":%.9f,"calls":%d,"self":%.9f}|}
    s.id s.name s.group s.parent s.start s.stop s.busy s.calls self

(* One span per line, in recording order. *)
let write path spans =
  Out_channel.with_open_text path (fun oc ->
    List.iter
      (fun (s, self) ->
         output_string oc (span_json s self);
         output_char oc '\n')
      (self_times spans))
