open! Import

(* Live progress for a corpus sweep: one mutex-protected accumulator
   fed from whichever execution substrate runs the apps (domain pool
   workers in cooperative mode, the [Proc_pool.map] on_row callback in
   isolated mode), emitting

   - an append-only [droidracer-progress/1] JSONL stream (header
     record, one record per finished app, one summary record), cheap
     to tail during a multi-hour sweep; and
   - a human heartbeat line per app, via a caller-supplied sink (the
     CLI points it at stderr so stdout stays byte-deterministic).

   Rates and ETAs use the wall clock — they are operator feedback, not
   part of any determinism contract, which is why they live on stderr
   and in a side file rather than in the summary tables. *)

type t =
  { p_total : int
  ; p_mode : string
  ; p_jobs : int
  ; p_started : float
  ; p_out : out_channel option
  ; p_heartbeat : (string -> unit) option
  ; p_mutex : Mutex.t
  ; mutable p_done : int
  ; mutable p_completed : int
  ; mutable p_failed : int
  ; mutable p_events : int
  ; mutable p_finished : bool
  }

(* The per-engine fallback counters, as a JSON object keyed by
   edge name ("dense_streaming", ...).  Reading them through [Obs] keeps
   this module ignorant of which engines exist; in isolated mode the
   counts grow as worker telemetry is absorbed. *)
let fallbacks_json () =
  let prefix = "supervisor.fallbacks." in
  let plen = String.length prefix in
  Json.Object
    (Obs.counters_with_prefix prefix
     |> List.map (fun (name, v) ->
       (String.sub name plen (String.length name - plen), Json.int v)))

let fallbacks_human () =
  match Obs.counters_with_prefix "supervisor.fallbacks." with
  | [] -> ""
  | entries ->
    let total = List.fold_left (fun acc (_, v) -> acc + v) 0 entries in
    Printf.sprintf " | %d fallback%s" total (if total = 1 then "" else "s")

let emit_record t fields =
  match t.p_out with
  | None -> ()
  | Some oc ->
    output_string oc (Json.to_line (Json.Object fields));
    flush oc

let emit_heartbeat t line =
  match t.p_heartbeat with
  | None -> ()
  | Some sink -> sink line

let create ?out ?heartbeat ~mode ~jobs ~total () =
  let t =
    { p_total = total
    ; p_mode = mode
    ; p_jobs = jobs
    ; p_started = Unix.gettimeofday ()
    ; p_out = out
    ; p_heartbeat = heartbeat
    ; p_mutex = Mutex.create ()
    ; p_done = 0
    ; p_completed = 0
    ; p_failed = 0
    ; p_events = 0
    ; p_finished = false
    }
  in
  emit_record t
    [ ("schema", Json.String "droidracer-progress/1")
    ; ("mode", Json.String mode)
    ; ("jobs", Json.int jobs)
    ; ("total", Json.int total)
    ];
  t

let rates t =
  let elapsed = Float.max 1e-9 (Unix.gettimeofday () -. t.p_started) in
  let events_per_sec = float_of_int t.p_events /. elapsed in
  let eta_seconds =
    (* An open-ended stream (total <= 0, e.g. the daemon's request log)
       has no ETA. *)
    if t.p_done = 0 || t.p_total <= 0 then 0.0
    else
      float_of_int (t.p_total - t.p_done) *. elapsed /. float_of_int t.p_done
  in
  (elapsed, events_per_sec, eta_seconds)

let count_label t =
  if t.p_total <= 0 then Printf.sprintf "%d" t.p_done
  else Printf.sprintf "%d/%d" t.p_done t.p_total

let app_done t ~app ~outcome ~engine ~events ~elapsed_seconds
    ?(resumed = false) () =
  Mutex.lock t.p_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.p_mutex) @@ fun () ->
  t.p_done <- t.p_done + 1;
  if String.equal outcome "completed" then
    t.p_completed <- t.p_completed + 1
  else t.p_failed <- t.p_failed + 1;
  t.p_events <- t.p_events + events;
  let _, events_per_sec, eta_seconds = rates t in
  emit_record t
    [ ("type", Json.String "app")
    ; ("app", Json.String app)
    ; ("outcome", Json.String outcome)
    ; ("engine", Json.String engine)
    ; ("events", Json.int events)
    ; ("elapsed_seconds", Json.Number elapsed_seconds)
    ; ("resumed", Json.Bool resumed)
    ; ("done", Json.int t.p_done)
    ; ("total", Json.int t.p_total)
    ; ("events_per_sec", Json.Number events_per_sec)
    ; ("eta_seconds", Json.Number eta_seconds)
    ; ("fallbacks", fallbacks_json ())
    ];
  emit_heartbeat t
    (Printf.sprintf "[%s] %s: %s (%s, %d events, %.2fs)%s | %.0f ev/s"
       (count_label t) app outcome engine events elapsed_seconds
       (if resumed then " [resumed]" else "")
       events_per_sec
     ^ (if t.p_total > 0 then Printf.sprintf " | ETA %.0fs" eta_seconds
        else "")
     ^ fallbacks_human ())

let finish t =
  Mutex.lock t.p_mutex;
  Fun.protect ~finally:(fun () -> Mutex.unlock t.p_mutex) @@ fun () ->
  if not t.p_finished then begin
    t.p_finished <- true;
    let elapsed, events_per_sec, _ = rates t in
    emit_record t
      [ ("type", Json.String "summary")
      ; ("done", Json.int t.p_done)
      ; ("total", Json.int t.p_total)
      ; ("completed", Json.int t.p_completed)
      ; ("failed", Json.int t.p_failed)
      ; ("events", Json.int t.p_events)
      ; ("elapsed_seconds", Json.Number elapsed)
      ; ("events_per_sec", Json.Number events_per_sec)
      ; ("fallbacks", fallbacks_json ())
      ];
    emit_heartbeat t
      (Printf.sprintf
         "sweep done: %s apps (%d completed, %d failed) in %.1fs%s"
         (count_label t) t.p_completed t.p_failed elapsed
         (fallbacks_human ()))
  end
