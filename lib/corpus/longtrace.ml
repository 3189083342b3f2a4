open! Import
module Thread_id = Ident.Thread_id
module Task_id = Ident.Task_id
module Lock_id = Ident.Lock_id
module Location = Ident.Location

type config =
  { loopers : int
  ; locations : int
  ; locks : int
  ; accesses_per_task : int
  ; fork_every : int
  ; lock_every : int
  ; planted : int
  ; masked : int
  ; seed : int
  }

let default_config =
  { loopers = 3
  ; locations = 512
  ; locks = 4
  ; accesses_per_task = 4
  ; fork_every = 97
  ; lock_every = 13
  ; planted = 0
  ; masked = 0
  ; seed = 42
  }

let planted_location j =
  Location.make ~cls:"Planted" ~field:(Printf.sprintf "g%d" j) ~obj:0

let planted_locations config =
  List.init (max 0 config.planted) (fun j ->
    Location.to_string (planted_location j))

let masked_location j =
  Location.make ~cls:"Planted" ~field:(Printf.sprintf "m%d" j) ~obj:0

let masked_locations config =
  List.init (max 0 config.masked) (fun j ->
    Location.to_string (masked_location j))

(* A tiny deterministic PRNG (xorshift), so the trace is a pure
   function of the config — [Random] would tie the corpus to the
   stdlib's generator across versions. *)
let next_rand state =
  let x = !state in
  let x = x lxor (x lsl 13) in
  let x = x lxor (x lsr 7) in
  let x = x lxor (x lsl 17) in
  state := x land max_int;
  !state

let generate ?(config = default_config) ~events emit =
  let emitted = ref 0 in
  let rng = ref (config.seed lor 1) in
  let rand bound = next_rand rng mod bound in
  let budget_left () = !emitted < events in
  let push thread op =
    if budget_left () then begin
      emit { Trace.thread = Thread_id.make thread; op };
      incr emitted
    end
  in
  (* Thread 0 is the driver: it posts every task and forks the
     short-lived workers.  Threads 1..loopers are queue threads. *)
  push 0 Operation.Thread_init;
  for l = 1 to config.loopers do
    push l Operation.Thread_init;
    push l Operation.Attach_queue;
    push l Operation.Loop_on_queue
  done;
  let next_task = ref 0 in
  let next_worker = ref (config.loopers + 1) in
  let unjoined = ref [] in
  let loc field = Location.make ~cls:"Obj" ~field ~obj:0 in
  (* Shared locations carry the cross-looper races; private ones keep
     the race list (which is output, not analysis state) from growing
     with every access. *)
  let shared () = loc (Printf.sprintf "s%d" (rand config.locations)) in
  let private_ thread =
    loc (Printf.sprintf "p%d_%d" thread (rand config.locations))
  in
  let access ?(shared_only = false) thread =
    let m =
      if shared_only || rand 4 = 0 then shared () else private_ thread
    in
    if rand 3 = 0 then push thread (Operation.Write m)
    else push thread (Operation.Read m)
  in
  let iteration = ref 0 in
  while budget_left () do
    incr iteration;
    let it = !iteration in
    (* One task per iteration, rotated across the loopers; the queue
       never holds more than this one pending task, so immediate posts
       are trivially FIFO-admissible. *)
    let looper = 1 + (it mod config.loopers) in
    let p = Task_id.make ~name:"job" ~instance:!next_task in
    incr next_task;
    if rand 4 = 0 then push 0 (Operation.Enable p);
    push 0 (Operation.Post { task = p; target = Thread_id.make looper
                           ; flavour = Operation.Immediate });
    push looper (Operation.Begin_task p);
    (* Ground-truth planting: location [Planted.g<j>@0] is written by
       exactly the tasks of iterations [j+1] and [j+1+planted], which
       run on different loopers whenever [planted mod loopers <> 0]
       (the looper index is [1 + it mod loopers]).  Locks are suppressed
       for the whole planting window, and nothing else ever orders two
       task bodies on distinct loopers (posts chain only through the
       driver, FIFO and the streaming fold are per-thread, workers never
       touch [Planted]), so each planted pair is a guaranteed race. *)
    let planting = config.planted > 0 && it <= 2 * config.planted in
    (* Lock-masked ground truth: after the planted window, location
       [Planted.m<j>@0] is written by exactly the tasks of iterations
       [base+j+1] and [base+j+1+masked] (base = 2*planted), on distinct
       loopers whenever [masked mod loopers <> 0].  Both writers bracket
       a dedicated lock [mlock<j>] so that the observed schedule chains
       write₁ ⪯ release₁ ⪯(LOCK) acquire₂ ⪯ write₂ — the dense engine
       orders the pair and report nothing — yet running the second task
       first is an admissible reordering (nothing but the flippable lock
       edge relates the two bodies), so the pair is a guaranteed
       reordering-only race for the predictive engine. *)
    let masked_base = 2 * config.planted in
    let masking =
      config.masked > 0
      && it > masked_base
      && it <= masked_base + (2 * config.masked)
    in
    let with_lock =
      (not planting) && (not masking) && config.lock_every > 0
      && it mod config.lock_every = 0
    in
    let l = Lock_id.make (Printf.sprintf "lock%d" (rand config.locks)) in
    if with_lock then push looper (Operation.Acquire l);
    (match masking with
     | true ->
       let j = (it - masked_base - 1) mod config.masked in
       let ml = Lock_id.make (Printf.sprintf "mlock%d" j) in
       if it - masked_base <= config.masked then begin
         (* first writer: the racy write happens before its critical
            section, so the LOCK edge orders it under the second
            writer's write *)
         push looper (Operation.Write (masked_location j));
         push looper (Operation.Acquire ml);
         push looper (Operation.Release ml)
       end
       else begin
         push looper (Operation.Acquire ml);
         push looper (Operation.Release ml);
         push looper (Operation.Write (masked_location j))
       end
     | false -> ());
    for _ = 1 to config.accesses_per_task do
      access looper
    done;
    if planting then
      push looper
        (Operation.Write (planted_location ((it - 1) mod config.planted)));
    if with_lock then push looper (Operation.Release l);
    push looper (Operation.End_task p);
    (* Occasionally fork a worker that races with the tasks, and join
       the previous one so exited threads stay bounded. *)
    if config.fork_every > 0 && it mod config.fork_every = 0 then begin
      let w = !next_worker in
      incr next_worker;
      push 0 (Operation.Fork (Thread_id.make w));
      push w Operation.Thread_init;
      access ~shared_only:true w;
      access ~shared_only:true w;
      push w Operation.Thread_exit;
      (match !unjoined with
       | prev :: rest ->
         push 0 (Operation.Join (Thread_id.make prev));
         unjoined := rest @ [ w ]
       | [] -> unjoined := [ w ])
    end
  done;
  !emitted

(* The ident universe of a config, for the binary encoder's up-front
   table.  Completeness is optional (unseen idents get DEF records), but
   listing the pools here keeps generated files dense. *)
let binary_idents config =
  let idents = ref [ "job"; "Obj" ] in
  let add s = idents := s :: !idents in
  if config.planted > 0 || config.masked > 0 then add "Planted";
  for j = 0 to config.planted - 1 do
    add (Printf.sprintf "g%d" j)
  done;
  for j = 0 to config.masked - 1 do
    add (Printf.sprintf "m%d" j);
    add (Printf.sprintf "mlock%d" j)
  done;
  for k = 0 to config.locks - 1 do
    add (Printf.sprintf "lock%d" k)
  done;
  for r = 0 to config.locations - 1 do
    add (Printf.sprintf "s%d" r)
  done;
  List.rev !idents

let write_binary ?(config = default_config) ~events path =
  Droidracer_trace.Binfmt.write_file ~idents:(binary_idents config) path
    (fun emit -> generate ~config ~events emit)

let write ?config ~events path =
  let oc = Out_channel.open_text path in
  Fun.protect
    ~finally:(fun () -> Out_channel.close oc)
    (fun () ->
       let buf = Buffer.create 65536 in
       let n =
         generate ?config ~events (fun e ->
           Buffer.add_string buf
             (Format.asprintf "%a" Droidracer_trace.Trace_io.print_event e);
           Buffer.add_char buf '\n';
           if Buffer.length buf > 60000 then begin
             Out_channel.output_string oc (Buffer.contents buf);
             Buffer.clear buf
           end)
       in
       Out_channel.output_string oc (Buffer.contents buf);
       n)
