open! Import

module Thread_id = Ident.Thread_id
module Task_id = Ident.Task_id
module Lock_id = Ident.Lock_id

type thread_phase = Created | Running | Finished

type t =
  { phases : thread_phase Thread_id.Map.t
  ; looping : Thread_id.Set.t
  ; queues : Queue_model.t Thread_id.Map.t
  ; executing : Task_id.t Thread_id.Map.t
  ; locks : (Thread_id.t * int) Lock_id.Map.t  (** holder and hold count *)
  ; enabled : Task_id.Set.t
  }

let initial =
  { phases = Thread_id.Map.empty
  ; looping = Thread_id.Set.empty
  ; queues = Thread_id.Map.empty
  ; executing = Thread_id.Map.empty
  ; locks = Lock_id.Map.empty
  ; enabled = Task_id.Set.empty
  }

let phase s t = Thread_id.Map.find_opt t s.phases

let is_running s t =
  match phase s t with
  | Some Running -> true
  | Some (Created | Finished) | None -> false

let is_looping s t = Thread_id.Set.mem t s.looping
let queue s t = Thread_id.Map.find_opt t s.queues
let executing s t = Thread_id.Map.find_opt t s.executing

let all_queues s = Thread_id.Map.bindings s.queues

let lock_holder s l =
  Option.map fst (Lock_id.Map.find_opt l s.locks)

let register_initial s t = { s with phases = Thread_id.Map.add t Created s.phases }
let add_created s t = { s with phases = Thread_id.Map.add t Created s.phases }
let set_running s t = { s with phases = Thread_id.Map.add t Running s.phases }
let set_finished s t = { s with phases = Thread_id.Map.add t Finished s.phases }

let attach_queue s t =
  { s with queues = Thread_id.Map.add t Queue_model.empty s.queues }

let set_looping s t = { s with looping = Thread_id.Set.add t s.looping }
let update_queue s t q = { s with queues = Thread_id.Map.add t q s.queues }

let set_executing s t task =
  match task with
  | Some p -> { s with executing = Thread_id.Map.add t p s.executing }
  | None -> { s with executing = Thread_id.Map.remove t s.executing }

let acquire_lock s t l =
  let entry =
    match Lock_id.Map.find_opt l s.locks with
    | Some (holder, n) ->
      assert (Thread_id.equal holder t);
      (holder, n + 1)
    | None -> (t, 1)
  in
  { s with locks = Lock_id.Map.add l entry s.locks }

let release_lock s t l =
  match Lock_id.Map.find_opt l s.locks with
  | Some (holder, n) when Thread_id.equal holder t ->
    let locks =
      if n <= 1 then Lock_id.Map.remove l s.locks
      else Lock_id.Map.add l (holder, n - 1) s.locks
    in
    Some { s with locks }
  | Some _ | None -> None

let add_enabled s p = { s with enabled = Task_id.Set.add p s.enabled }
