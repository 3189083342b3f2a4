open! Import

(* The load generator: N forked client processes, each submitting R
   requests through {!Client.submit} (so each client transparently
   rides out daemon restarts and overload rejections), latencies
   shipped back to the parent as one Marshal frame per client.

   Processes, not domains: real concurrency against the daemon without
   spawning a single domain in the parent — which keeps the parent free
   to fork the daemon itself (bench, tests) before any domain work.

   A request is {e lost} iff its client got no terminal response before
   the deadline — the number the service gate pins to zero across a
   kill -9. *)

type request_result =
  { q_id : string
  ; q_status : string  (* completed/rejected/crashed/timeout/... or lost *)
  ; q_engine : string
  ; q_ladder : string
  ; q_resumed : bool
  ; q_latency : float
  ; q_reconnects : int
  ; q_overloaded : int
  }

type stats =
  { lg_clients : int
  ; lg_requests_per_client : int
  ; lg_wall : float
  ; lg_results : request_result list
  }

let client_results ~endpoint ~client ~requests ~traces ~engine ~timeout ~sleep
    ~deadline_seconds ~tag =
  let ntraces = Array.length traces in
  List.init requests (fun r ->
    let id = Printf.sprintf "%s-c%02d-r%04d" tag client r in
    let _, trace = traces.((client + r) mod ntraces) in
    match
      Client.submit ~endpoint ~deadline_seconds ~id ~engine ?timeout ~sleep
        ~trace ()
    with
    | Error _ ->
      { q_id = id
      ; q_status = "lost"
      ; q_engine = ""
      ; q_ladder = ""
      ; q_resumed = false
      ; q_latency = deadline_seconds
      ; q_reconnects = 0
      ; q_overloaded = 0
      }
    | Ok o ->
      let str key =
        Option.value (Wire.response_str key o.Client.so_response) ~default:""
      in
      let resumed =
        match Json_parse.member "resumed" o.Client.so_response with
        | Some (Json_parse.Bool b) -> b
        | _ -> false
      in
      { q_id = id
      ; q_status = Wire.response_status o.Client.so_response
      ; q_engine = str "engine"
      ; q_ladder = str "ladder"
      ; q_resumed = resumed
      ; q_latency = o.Client.so_latency
      ; q_reconnects = o.Client.so_reconnects
      ; q_overloaded = o.Client.so_overloaded
      })

let run ~endpoint ~clients ~requests ~traces ?(engine = "auto") ?timeout
    ?(sleep = 0.0) ?(deadline_seconds = 120.0) ?(tag = "lg") () =
  if traces = [||] then invalid_arg "Loadgen.run: no traces";
  let started = Unix.gettimeofday () in
  let children =
    List.init clients (fun client ->
      let res_r, res_w = Unix.pipe ~cloexec:false () in
      match Unix.fork () with
      | 0 ->
        (try Unix.close res_r with Unix.Unix_error _ -> ());
        (try
           let results =
             client_results ~endpoint ~client ~requests ~traces ~engine
               ~timeout ~sleep ~deadline_seconds ~tag
           in
           Proc_pool.write_frame res_w (Marshal.to_bytes results [])
         with _ -> ());
        Unix._exit 0
      | pid ->
        (try Unix.close res_w with Unix.Unix_error _ -> ());
        (client, pid, res_r))
  in
  let results =
    List.concat_map
      (fun (client, pid, res_r) ->
         let rows =
           match Proc_pool.read_frame res_r with
           | Some frame -> (Marshal.from_bytes frame 0 : request_result list)
           | None ->
             (* The whole client died: every one of its requests is
                lost. *)
             List.init requests (fun r ->
               { q_id = Printf.sprintf "%s-c%02d-r%04d" tag client r
               ; q_status = "lost"
               ; q_engine = ""
               ; q_ladder = ""
               ; q_resumed = false
               ; q_latency = deadline_seconds
               ; q_reconnects = 0
               ; q_overloaded = 0
               })
           | exception _ ->
             List.init requests (fun r ->
               { q_id = Printf.sprintf "%s-c%02d-r%04d" tag client r
               ; q_status = "lost"
               ; q_engine = ""
               ; q_ladder = ""
               ; q_resumed = false
               ; q_latency = deadline_seconds
               ; q_reconnects = 0
               ; q_overloaded = 0
               })
         in
         (try Unix.close res_r with Unix.Unix_error _ -> ());
         (try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ());
         rows)
      children
  in
  { lg_clients = clients
  ; lg_requests_per_client = requests
  ; lg_wall = Unix.gettimeofday () -. started
  ; lg_results = results
  }

(* {1 Aggregation} *)

let count_by f results =
  let tbl = Hashtbl.create 8 in
  List.iter
    (fun r ->
       let key = f r in
       if key <> "" then
         Hashtbl.replace tbl key
           (1 + Option.value (Hashtbl.find_opt tbl key) ~default:0))
    results;
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) tbl []
  |> List.sort (fun (a, _) (b, _) -> String.compare a b)

let lost stats =
  List.length (List.filter (fun r -> r.q_status = "lost") stats.lg_results)

let completed stats =
  List.length
    (List.filter (fun r -> r.q_status = "completed") stats.lg_results)

let percentile sorted p =
  let n = Array.length sorted in
  if n = 0 then 0.0
  else begin
    let idx = int_of_float (Float.of_int (n - 1) *. p /. 100.0 +. 0.5) in
    sorted.(max 0 (min (n - 1) idx))
  end

let json_string stats =
  let results = stats.lg_results in
  let total = List.length results in
  let latencies =
    results
    |> List.filter (fun r -> r.q_status <> "lost")
    |> List.map (fun r -> r.q_latency)
    |> Array.of_list
  in
  Array.sort compare latencies;
  let mean =
    if Array.length latencies = 0 then 0.0
    else Array.fold_left ( +. ) 0.0 latencies /. float_of_int (Array.length latencies)
  in
  let counts entries =
    Json.Object (List.map (fun (k, v) -> (k, Json.int v)) entries)
  in
  let sum f = List.fold_left (fun acc r -> acc + f r) 0 results in
  let ncompleted = completed stats in
  let nlatencies = Array.length latencies in
  Json.to_string
    (Json.Object
       [ ("schema", Json.String "droidracer-service-bench/1")
       ; ("clients", Json.int stats.lg_clients)
       ; ("requests_per_client", Json.int stats.lg_requests_per_client)
       ; ("total_requests", Json.int total)
       ; ("completed", Json.int ncompleted)
       ; ("failed", Json.int (total - ncompleted - lost stats))
       ; ("lost", Json.int (lost stats))
       ; ( "resumed"
         , Json.int (List.length (List.filter (fun r -> r.q_resumed) results)) )
       ; ("overloaded_retries", Json.int (sum (fun r -> r.q_overloaded)))
       ; ("reconnects", Json.int (sum (fun r -> r.q_reconnects)))
       ; ("wall_seconds", Json.Number stats.lg_wall)
       ; ( "traces_per_sec"
         , Json.Number (float_of_int ncompleted /. Float.max 1e-9 stats.lg_wall) )
       ; ( "latency_seconds"
         , Json.Object
             [ ("p50", Json.Number (percentile latencies 50.0))
             ; ("p90", Json.Number (percentile latencies 90.0))
             ; ("p99", Json.Number (percentile latencies 99.0))
             ; ("min", Json.Number (if nlatencies = 0 then 0.0 else latencies.(0)))
             ; ( "max"
               , Json.Number
                   (if nlatencies = 0 then 0.0 else latencies.(nlatencies - 1)) )
             ; ("mean", Json.Number mean)
             ] )
       ; ("statuses", counts (count_by (fun r -> r.q_status) results))
       ; ("engines", counts (count_by (fun r -> r.q_engine) results))
       ; ("ladders", counts (count_by (fun r -> r.q_ladder) results))
       ])

let write_json path stats =
  let oc = open_out path in
  output_string oc (json_string stats);
  output_char oc '\n';
  close_out oc

let human_summary stats =
  let latencies =
    stats.lg_results
    |> List.filter (fun r -> r.q_status <> "lost")
    |> List.map (fun r -> r.q_latency)
    |> Array.of_list
  in
  Array.sort compare latencies;
  Printf.sprintf
    "%d clients x %d requests: %d completed, %d lost, %.1f traces/sec, p50 \
     %.3fs, p99 %.3fs (wall %.1fs)"
    stats.lg_clients stats.lg_requests_per_client (completed stats) (lost stats)
    (float_of_int (completed stats) /. Float.max 1e-9 stats.lg_wall)
    (percentile latencies 50.0) (percentile latencies 99.0) stats.lg_wall
