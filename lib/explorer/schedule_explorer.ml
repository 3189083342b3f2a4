open! Import

type exploration =
  { runs : int
  ; distinct_traces : Trace.t list
  ; exhausted : bool
  }

(* Depth-first enumeration with canonical default-0 tails: a script is a
   prefix of explicit decisions; decisions beyond it take alternative 0.
   After running a script, every later decision with arity > 1 spawns
   sibling scripts that take alternatives 1 .. arity-1 there.  Visiting
   siblings of the *last* divergence first keeps the frontier a stack
   (classic stateless search).  [on_run] can stop the search early. *)
let enumerate ?(max_runs = 500) ~options app events ~on_run =
  let prepared = Runtime.prepare app in
  let runs = ref 0 in
  let exhausted = ref true in
  let stopped = ref false in
  let rec visit script =
    if !stopped then ()
    else if !runs >= max_runs then exhausted := false
    else begin
      incr runs;
      let result =
        Runtime.run_prepared
          ~options:{ options with Runtime.policy = Runtime.Scripted script }
          prepared events
      in
      if on_run result then stopped := true
      else begin
        let depth = List.length script in
        let arities = result.Runtime.choice_arities in
        List.iteri
          (fun pos arity ->
             if pos >= depth && arity > 1 then
               for alt = 1 to arity - 1 do
                 (* pad with explicit zeros up to [pos], then diverge *)
                 let pad = List.init (pos - depth) (fun _ -> 0) in
                 visit (script @ pad @ [ alt ])
               done)
          arities
      end
    end
  in
  visit [];
  (!runs, !exhausted, !stopped)

let explore ?max_runs ?(options = Runtime.default_options) app events =
  let traces = ref [] in
  let trace_equal a b =
    Trace.length a = Trace.length b
    && List.for_all2 Trace.event_equal (Trace.events a) (Trace.events b)
  in
  let runs, exhausted, _ =
    enumerate ?max_runs ~options app events ~on_run:(fun result ->
      let t = result.Runtime.observed in
      if not (List.exists (trace_equal t) !traces) then traces := t :: !traces;
      false)
  in
  { runs; distinct_traces = List.rev !traces; exhausted }

type exhaustive_verdict =
  | Flipped of Runtime.run_result
  | Never_flips of int
  | Budget_exhausted of int

let verify_exhaustively ?max_runs ?(options = Runtime.default_options) ~app
    ~events ~trace ~thread_names (race : Race.t) =
  let site1 = Verify.site_of_access ~thread_names trace race.first
  and site2 = Verify.site_of_access ~thread_names trace race.second in
  let witness = ref None in
  let runs, exhausted, _ =
    enumerate ?max_runs ~options app events ~on_run:(fun result ->
      let names = result.Runtime.thread_names in
      match
        ( Verify.find_site ~thread_names:names result.Runtime.observed site1
        , Verify.find_site ~thread_names:names result.Runtime.observed site2 )
      with
      | Some p1, Some p2 when p2 < p1 ->
        witness := Some result;
        true
      | (Some _ | None), (Some _ | None) -> false)
  in
  match !witness with
  | Some result -> Flipped result
  | None -> if exhausted then Never_flips runs else Budget_exhausted runs
