open! Import

let request_schema = "droidracer-request/1"
let response_schema = "droidracer-races/1"
let health_schema = "droidracer-health/1"

let max_header_bytes = 64 * 1024
let default_max_trace_bytes = 64 * 1024 * 1024

(* {1 Endpoints} *)

type endpoint =
  | Unix_socket of string
  | Tcp of string * int

let endpoint_to_string = function
  | Unix_socket path -> Printf.sprintf "unix:%s" path
  | Tcp (host, port) -> Printf.sprintf "tcp:%s:%d" host port

let endpoint_of_string s =
  let prefixed p = String.length s > String.length p && String.starts_with ~prefix:p s in
  if prefixed "unix:" then
    Ok (Unix_socket (String.sub s 5 (String.length s - 5)))
  else if prefixed "tcp:" then begin
    let rest = String.sub s 4 (String.length s - 4) in
    match String.rindex_opt rest ':' with
    | None ->
      (match int_of_string_opt rest with
       | Some port -> Ok (Tcp ("127.0.0.1", port))
       | None -> Error (Printf.sprintf "bad tcp endpoint %S" s))
    | Some i ->
      let host = String.sub rest 0 i in
      let port = String.sub rest (i + 1) (String.length rest - i - 1) in
      (match int_of_string_opt port with
       | Some port when host <> "" -> Ok (Tcp (host, port))
       | Some _ | None -> Error (Printf.sprintf "bad tcp endpoint %S" s))
  end
  else if s <> "" then Ok (Unix_socket s)
  else Error "empty endpoint"

let sockaddr_of_endpoint = function
  | Unix_socket path -> Unix.ADDR_UNIX path
  | Tcp (host, port) ->
    let addr =
      try (Unix.gethostbyname host).Unix.h_addr_list.(0)
      with Not_found | Invalid_argument _ -> Unix.inet_addr_of_string host
    in
    Unix.ADDR_INET (addr, port)

(* {1 Engines and the degradation ladder} *)

let engine_rank = function "streaming" -> 1 | _ -> 0

let engine_of_rank = function 0 -> "dense" | _ -> "streaming"

let valid_engine = function
  | "auto" | "dense" | "streaming" -> true
  | _ -> false

let config_of_engine engine =
  let engine =
    match engine with
    | "streaming" -> Detector.Streaming
    | _ -> Detector.Dense
  in
  { Detector.default_config with engine }

(* {1 Request ids} *)

let valid_id id =
  let n = String.length id in
  n > 0 && n <= 128
  && String.for_all
       (function
         | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '.' | '_' | ':' | '-' -> true
         | _ -> false)
       id

(* {1 Requests}

   One JSON object per request frame.  An [analyze] with
   [trace_bytes > 0] is followed by exactly one raw-bytes frame of that
   length carrying the trace (either text or binary format — the loader
   sniffs the magic). *)

type request =
  | Analyze of
      { a_id : string
      ; a_engine : string  (* auto | dense | streaming *)
      ; a_timeout : float option
      ; a_sleep : float  (* load-testing knob: worker sleeps first *)
      ; a_trace_bytes : int
      ; a_wait : bool  (* false: ack on durable accept, poll later *)
      }
  | Result of string
  | Health
  | Stats

let request_json request =
  let op, fields =
    match request with
    | Analyze a ->
      ( "analyze"
      , [ ("id", Json.String a.a_id)
        ; ("engine", Json.String a.a_engine)
        ; ("timeout_seconds", Json.option Json.float a.a_timeout)
        ; ("sleep_seconds", Json.Number a.a_sleep)
        ; ("trace_bytes", Json.int a.a_trace_bytes)
        ; ("wait", Json.Bool a.a_wait)
        ] )
    | Result id -> ("result", [ ("id", Json.String id) ])
    | Health -> ("health", [])
    | Stats -> ("stats", [])
  in
  Json.to_string
    (Json.Object
       (("schema", Json.String request_schema) :: ("op", Json.String op) :: fields))

let parse_request s =
  match Json_parse.parse s with
  | Error msg -> Error (Printf.sprintf "request is not JSON: %s" msg)
  | Ok json ->
    let str key = Option.bind (Json_parse.member key json) Json_parse.to_string in
    let num key = Option.bind (Json_parse.member key json) Json_parse.to_number in
    (match str "schema" with
     | Some s when String.equal s request_schema -> (
       match str "op" with
       | Some "health" -> Ok Health
       | Some "stats" -> Ok Stats
       | Some "result" -> (
         match str "id" with
         | Some id when valid_id id -> Ok (Result id)
         | Some id -> Error (Printf.sprintf "invalid request id %S" id)
         | None -> Error "result op without an id")
       | Some "analyze" -> (
         match str "id" with
         | None -> Error "analyze op without an id"
         | Some id when not (valid_id id) ->
           Error
             (Printf.sprintf
                "invalid request id %S (want 1-128 chars of [A-Za-z0-9._:-])"
                id)
         | Some id ->
           let engine = Option.value (str "engine") ~default:"auto" in
           if not (valid_engine engine) then
             Error (Printf.sprintf "unknown engine %S" engine)
           else begin
             let timeout =
               match Json_parse.member "timeout_seconds" json with
               | Some (Json_parse.Number t) when t > 0.0 -> Some t
               | _ -> None
             in
             let sleep = Option.value (num "sleep_seconds") ~default:0.0 in
             let trace_bytes =
               match num "trace_bytes" with
               | Some b -> int_of_float b
               | None -> 0
             in
             let wait =
               match Json_parse.member "wait" json with
               | Some (Json_parse.Bool b) -> b
               | _ -> true
             in
             if trace_bytes < 0 then Error "negative trace_bytes"
             else
               Ok
                 (Analyze
                    { a_id = id
                    ; a_engine = engine
                    ; a_timeout = timeout
                    ; a_sleep = Float.max 0.0 sleep
                    ; a_trace_bytes = trace_bytes
                    ; a_wait = wait
                    })
           end)
       | Some op -> Error (Printf.sprintf "unknown op %S" op)
       | None -> Error "request without an op")
     | Some s -> Error (Printf.sprintf "schema %S, expected %S" s request_schema)
     | None -> Error "request without a schema")

(* {1 Result summaries}

   The daemon-side record of one finished request: what the journal
   stores (Marshal, plain data), what the result cache holds, and what
   a response frame serializes.  [rs_status] is one of [completed],
   [rejected], [crashed], [timeout]. *)

type result_summary =
  { rs_id : string
  ; rs_status : string
  ; rs_reason : string  (* "" when completed *)
  ; rs_engine : string  (* engine that ran (requested one on failure) *)
  ; rs_requested : string
  ; rs_ladder : string  (* pressure level applied at dispatch *)
  ; rs_events : int
  ; rs_races : int
  ; rs_distinct : int
  ; rs_locations : string list
  ; rs_elapsed : float
  ; rs_queue_seconds : float
  }

let summary_of_outcome ~id ~requested ~ladder ~queue_seconds
    (outcome : Supervisor.file_outcome) =
  match outcome with
  | Supervisor.Completed r ->
    { rs_id = id
    ; rs_status = "completed"
    ; rs_reason = ""
    ; rs_engine = r.Supervisor.fr_engine
    ; rs_requested = requested
    ; rs_ladder = ladder
    ; rs_events = r.Supervisor.fr_events
    ; rs_races = r.Supervisor.fr_races
    ; rs_distinct = r.Supervisor.fr_distinct
    ; rs_locations = r.Supervisor.fr_locations
    ; rs_elapsed = r.Supervisor.fr_elapsed
    ; rs_queue_seconds = queue_seconds
    }
  | Supervisor.Failed f ->
    { rs_id = id
    ; rs_status = Supervisor.reason_label f.Supervisor.f_reason
    ; rs_reason = Supervisor.reason_detail f.Supervisor.f_reason
    ; rs_engine = f.Supervisor.f_engine
    ; rs_requested = requested
    ; rs_ladder = ladder
    ; rs_events = 0
    ; rs_races = 0
    ; rs_distinct = 0
    ; rs_locations = []
    ; rs_elapsed = f.Supervisor.f_elapsed
    ; rs_queue_seconds = queue_seconds
    }

let result_response ?(resumed = false) rs =
  Json.to_string
    (Json.Object
       ([ ("schema", Json.String response_schema)
        ; ("id", Json.String rs.rs_id)
        ; ("status", Json.String rs.rs_status)
        ]
        @ (if rs.rs_reason = "" then []
           else [ ("reason", Json.String rs.rs_reason) ])
        @ [ ("engine", Json.String rs.rs_engine)
          ; ("engine_requested", Json.String rs.rs_requested)
          ; ("ladder", Json.String rs.rs_ladder)
          ; ("events", Json.int rs.rs_events)
          ; ("races", Json.int rs.rs_races)
          ; ("distinct_races", Json.int rs.rs_distinct)
          ; ("locations", Json.strings rs.rs_locations)
          ; ("elapsed_seconds", Json.Number rs.rs_elapsed)
          ; ("queue_seconds", Json.Number rs.rs_queue_seconds)
          ; ("resumed", Json.Bool resumed)
          ]))

let status_response ?id ?reason ?retry_after ?(fields = []) status =
  let opt key f = function Some v -> [ (key, f v) ] | None -> [] in
  Json.to_string
    (Json.Object
       ((("schema", Json.String response_schema) :: opt "id" Json.string id)
        @ opt "reason" Json.string reason
        @ opt "retry_after_seconds" Json.float retry_after
        @ fields
        @ [ ("status", Json.String status) ]))

(* {1 Response accessors (client side)} *)

let parse_response s =
  match Json_parse.parse s with
  | Ok json -> Ok json
  | Error msg -> Error (Printf.sprintf "response is not JSON: %s" msg)

let response_str key json =
  Option.bind (Json_parse.member key json) Json_parse.to_string

let response_num key json =
  Option.bind (Json_parse.member key json) Json_parse.to_number

let response_status json =
  Option.value (response_str "status" json) ~default:"error"

(* {1 Incremental frame decoding}

   The daemon reads client sockets non-blockingly; a decoder
   accumulates whatever arrives and yields whole frames.  The frame
   format is {!Proc_pool}'s: 8-byte big-endian length, then payload.
   [d_limit] bounds the announced payload length — the connection
   handler tightens it to the expected trace size while a trace frame
   is due, so a lying client costs one buffer, never unbounded
   memory. *)

type decoder =
  { mutable d_buf : Bytes.t
  ; mutable d_len : int  (* live bytes at the front of d_buf *)
  ; mutable d_limit : int
  }

let create_decoder ?(limit = max_header_bytes) () =
  { d_buf = Bytes.create 4096; d_len = 0; d_limit = limit }

let decoder_set_limit d limit = d.d_limit <- limit

let decoder_buffered d = d.d_len

let decoder_feed d src len =
  if len > 0 then begin
    let need = d.d_len + len in
    if need > Bytes.length d.d_buf then begin
      let cap = ref (Bytes.length d.d_buf) in
      while !cap < need do
        cap := !cap * 2
      done;
      let buf = Bytes.create !cap in
      Bytes.blit d.d_buf 0 buf 0 d.d_len;
      d.d_buf <- buf
    end;
    Bytes.blit src 0 d.d_buf d.d_len len;
    d.d_len <- need
  end

let decoder_next d =
  if d.d_len < 8 then Ok None
  else begin
    let len = Int64.to_int (Bytes.get_int64_be d.d_buf 0) in
    if len < 0 || len > d.d_limit then
      Error (Printf.sprintf "frame of %d bytes exceeds the %d-byte limit" len d.d_limit)
    else if d.d_len < 8 + len then Ok None
    else begin
      let frame = Bytes.sub_string d.d_buf 8 len in
      let rest = d.d_len - 8 - len in
      Bytes.blit d.d_buf (8 + len) d.d_buf 0 rest;
      d.d_len <- rest;
      Ok (Some frame)
    end
  end
