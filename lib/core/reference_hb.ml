open! Import
module Thread_id = Ident.Thread_id
module Task_id = Ident.Task_id

type t =
  { st_m : bool array array
  ; mt_m : bool array array
  }

let st t i j = t.st_m.(i).(j)
let mt t i j = t.mt_m.(i).(j)
let hb t i j = st t i j || mt t i j
let hb_or_eq t i j = i = j || hb t i j
let ordered t i j = hb t i j || hb t j i

(* The delayed-post refinement of the FIFO rule, restated here rather
   than shared with {!Hb_edges}: the oracle does not reuse the code it
   checks. *)
let fifo_flavours_ok f1 f2 =
  match (f1 : Operation.post_flavour), (f2 : Operation.post_flavour) with
  | Immediate, (Immediate | Delayed _) -> true
  | Delayed d1, Delayed d2 -> d1 <= d2
  | Delayed _, Immediate -> false
  | Front, (Immediate | Delayed _ | Front) -> false
  | (Immediate | Delayed _), Front -> false

let compute ?(config = Happens_before.default) trace =
  let n = Trace.length trace in
  let st_m = Array.make_matrix n n false in
  let mt_m = Array.make_matrix n n false in
  let hb i j = st_m.(i).(j) || mt_m.(i).(j) in
  let hb_or_eq i j = i = j || hb i j in
  let thread i = Trace.thread trace i in
  let task i = Trace.enclosing_task trace i in
  let same_thread i j = Thread_id.equal (thread i) (thread j) in
  let changed = ref true in
  let set_st i j =
    if not st_m.(i).(j) then begin
      st_m.(i).(j) <- true;
      changed := true
    end
  in
  let set_mt i j =
    if not mt_m.(i).(j) then begin
      mt_m.(i).(j) <- true;
      changed := true
    end
  in
  (* The flavour of the post that created the task executing αᵢ, and the
     position of that post. *)
  let post_of_task p = Trace.post_index trace p in
  while !changed do
    changed := false;
    for i = 0 to n - 1 do
      for j = i + 1 to n - 1 do
        let oi = Trace.op trace i and oj = Trace.op trace j in
        if same_thread i j then begin
          let tid = thread i in
          (* N O - Q - PO *)
          let loop_before_i =
            match Trace.loop_index trace tid with
            | Some lp -> lp < i
            | None -> false
          in
          if not loop_before_i then set_st i j;
          (* Classic program order (the baselines' [Full_po]): every
             earlier operation of the thread *)
          (match config.program_order with
           | Happens_before.Full_po -> set_st i j
           | Happens_before.Android_po -> ());
          (* A SYNC - PO *)
          (match task i, task j with
           | Some p, Some q when loop_before_i && Task_id.equal p q ->
             set_st i j
           | (Some _ | None), (Some _ | None) -> ());
          (* E NABLE - ST *)
          (match oi, oj with
           | Operation.Enable p, Operation.Post { task = q; _ }
             when Task_id.equal p q -> set_st i j
           | _, _ -> ());
          (* P OST - ST *)
          (match oi, oj with
           | Operation.Post { task = p; target; _ }, Operation.Begin_task q
             when Task_id.equal p q && Thread_id.equal target tid -> set_st i j
           | _, _ -> ());
          (* F IFO and N OPRE *)
          (match oi, oj with
           | Operation.End_task p1, Operation.Begin_task p2 ->
             (match post_of_task p1, post_of_task p2 with
              | Some b1, Some b2 ->
                let f1 =
                  Option.value (Trace.post_flavour trace p1)
                    ~default:Operation.Immediate
                and f2 =
                  Option.value (Trace.post_flavour trace p2)
                    ~default:Operation.Immediate
                in
                (* F IFO: both posts target this thread and are ordered *)
                if config.fifo_rule && fifo_flavours_ok f1 f2 && hb b1 b2
                then set_st i j;
                (* N OPRE: some operation of task p1 happens before (or
                   is) the post of p2 *)
                let nopre =
                  config.nopre_rule
                  &&
                  let exception Found in
                  match
                    Trace.iteri
                      (fun k (_ : Trace.event) ->
                         match task k with
                         | Some q when Task_id.equal q p1 && hb_or_eq k b2 ->
                           raise Found
                         | Some _ | None -> ())
                      trace
                  with
                  | () -> false
                  | exception Found -> true
                in
                if nopre then set_st i j;
                (* F RONT (extension): p1 was posted to the front of the
                   queue, after p2, from the task that also posted p2,
                   running on this very thread *)
                let front =
                  config.front_rule
                  && (match f1 with
                      | Operation.Front -> true
                      | Operation.Immediate | Operation.Delayed _ -> false)
                  && hb b2 b1
                  && same_thread b1 i
                  && (match task b1, task b2 with
                      | Some q1, Some q2 -> Task_id.equal q1 q2
                      | (Some _ | None), _ -> false)
                in
                if front then set_st i j
              | (Some _ | None), _ -> ())
           | _, _ -> ());
          (* L OCK within one thread: the naïve combination the paper
             warns against ([lock_same_thread]) *)
          (match oi, oj with
           | Operation.Release l, Operation.Acquire l'
             when config.lock_rule && config.lock_same_thread
                  && Ident.Lock_id.equal l l' ->
             set_st i j
           | _, _ -> ());
          (* T RANS - ST *)
          for k = i + 1 to j - 1 do
            if same_thread i k && st_m.(i).(k) && st_m.(k).(j) then set_st i j
          done;
          (* Unrestricted transitivity (the naïve combination): the
             intermediate may be any operation *)
          if not config.restricted_transitivity then
            for k = i + 1 to j - 1 do
              if hb i k && hb k j then set_st i j
            done
        end
        else begin
          (* A TTACH - Q - MT *)
          (match oi, oj with
           | Operation.Attach_queue, Operation.Post { target; _ }
             when Thread_id.equal target (thread i) -> set_mt i j
           | _, _ -> ());
          (* E NABLE - MT *)
          (match oi, oj with
           | Operation.Enable p, Operation.Post { task = q; _ }
             when Task_id.equal p q -> set_mt i j
           | _, _ -> ());
          (* P OST - MT *)
          (match oi, oj with
           | Operation.Post { task = p; target; _ }, Operation.Begin_task q
             when Task_id.equal p q && Thread_id.equal target (thread j) ->
             set_mt i j
           | _, _ -> ());
          (* F ORK *)
          (match oi, oj with
           | Operation.Fork t', Operation.Thread_init
             when Thread_id.equal t' (thread j) -> set_mt i j
           | _, _ -> ());
          (* J OIN *)
          (match oi, oj with
           | Operation.Thread_exit, Operation.Join t'
             when Thread_id.equal t' (thread i) -> set_mt i j
           | _, _ -> ());
          (* L OCK *)
          (match oi, oj with
           | Operation.Release l, Operation.Acquire l'
             when config.lock_rule && Ident.Lock_id.equal l l' -> set_mt i j
           | _, _ -> ());
          (* T RANS - MT: αᵢ ⪯ αₖ, αₖ ⪯ αⱼ with thread(i) ≠ thread(j);
             the intermediate may be any operation. *)
          for k = i + 1 to j - 1 do
            if hb i k && hb k j then set_mt i j
          done
        end
      done
    done
  done;
  { st_m; mt_m }
