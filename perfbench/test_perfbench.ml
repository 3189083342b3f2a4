(* Tests of the benchmark's own rules: the percentile rule, self time,
   failure accounting, the clock and seed determinism of the generated
   inputs. *)

module Measure = Perfbench.Measure
module Spans = Perfbench.Spans
module Inputs = Perfbench.Inputs
module Cpu = Perfbench.Cpu
module Calib = Perfbench.Calib
module Catalog = Droidracer_corpus.Catalog

let check = Alcotest.check
let feq = Alcotest.float 1e-9

(* {1 Percentiles} *)

let test_percentile () =
  let a = Array.init 100 (fun i -> float_of_int (i + 1)) in
  check feq "p50 of 1..100" 50.0 (Measure.percentile a 50);
  check feq "p90 of 1..100" 90.0 (Measure.percentile a 90);
  check feq "p99 of 1..100" 99.0 (Measure.percentile a 99);
  check feq "p50 of one sample" 7.0 (Measure.percentile [| 7.0 |] 50);
  check feq "p99 of one sample" 7.0 (Measure.percentile [| 7.0 |] 99);
  check Alcotest.int "ten beyond p90 of 100" 10 (Measure.beyond 100 90);
  check Alcotest.int "none beyond p99 of 50" 0 (Measure.beyond 50 99)

let test_high_percentile () =
  let hp = Alcotest.(option int) in
  check hp "19 samples: none" None (Measure.high_percentile 19);
  check hp "20 samples: p50" (Some 50) (Measure.high_percentile 20);
  check hp "99 samples: p50" (Some 50) (Measure.high_percentile 99);
  check hp "100 samples: p90" (Some 90) (Measure.high_percentile 100);
  check hp "999 samples: p90" (Some 90) (Measure.high_percentile 999);
  check hp "1000 samples: p99" (Some 99) (Measure.high_percentile 1000)

let test_clamped () =
  let samples n = Array.init n (fun i -> float_of_int (i + 1)) in
  check feq "p99 of 1000 is p99" 990.0 (Measure.clamped_percentile (samples 1000) 99);
  check feq "p99 of 105 falls to p90" 95.0 (Measure.clamped_percentile (samples 105) 99);
  check feq "p90 of 105 stays p90" 95.0 (Measure.clamped_percentile (samples 105) 90);
  check feq "p99 of 70 falls to p50" 35.0 (Measure.clamped_percentile (samples 70) 99);
  check feq "p99 of one sample is that sample" 1.0 (Measure.clamped_percentile (samples 1) 99);
  check feq "p90 of 5 is their median" 3.0 (Measure.clamped_percentile (samples 5) 90)

(* {1 Self time} *)

let span ?(parent = -1) ?(calls = 1) ?busy id name start stop =
  { Spans.id
  ; name
  ; group = 0
  ; parent
  ; start
  ; stop
  ; busy = Option.value busy ~default:(stop -. start)
  ; calls
  }

let self_of spans id =
  snd (List.find (fun (s, _) -> s.Spans.id = id) (Spans.self_times spans))

let test_self_nested () =
  (* root [0,100]: a [10,30], b [40,60] holding c [45,50]. *)
  let spans =
    [ span 0 "root" 0.0 100.0
    ; span ~parent:0 1 "a" 10.0 30.0
    ; span ~parent:0 2 "b" 40.0 60.0
    ; span ~parent:2 3 "c" 45.0 50.0
    ]
  in
  check feq "root" 60.0 (self_of spans 0);
  check feq "a" 20.0 (self_of spans 1);
  check feq "b" 15.0 (self_of spans 2);
  check feq "c" 5.0 (self_of spans 3);
  let total = List.fold_left (fun a (_, s) -> a +. s) 0.0 (Spans.self_times spans) in
  check feq "self times partition the root" 100.0 total

let test_self_overlap_and_aggregate () =
  (* Overlapping children cover their union; a child sticking out of
     its parent is clipped; an aggregate covers its busy time. *)
  let spans =
    [ span 0 "root" 0.0 100.0
    ; span ~parent:0 1 "x" 10.0 40.0
    ; span ~parent:0 2 "y" 30.0 50.0
    ; span ~parent:0 3 "z" 90.0 120.0
    ; span ~parent:0 ~calls:1000 ~busy:25.0 4 "feed" 50.0 90.0
    ]
  in
  check feq "root" (100.0 -. 40.0 -. 10.0 -. 25.0) (self_of spans 0);
  let spans =
    [ span 0 "root" 0.0 10.0; span ~parent:0 ~calls:5 ~busy:50.0 1 "feed" 0.0 10.0 ]
  in
  check feq "never negative" 0.0 (self_of spans 0)

let test_recorder () =
  Spans.reset ();
  Spans.enabled := true;
  Spans.with_span ~group:7 "root" (fun () ->
    Spans.with_span "child" (fun () ->
      for _ = 1 to 3 do
        Spans.accumulate "leaf" (fun () -> ignore (Sys.opaque_identity (List.init 1000 Fun.id)))
      done));
  Spans.enabled := false;
  let spans = Spans.spans () in
  check Alcotest.int "three spans" 3 (List.length spans);
  List.iter
    (fun s -> check Alcotest.int "group inherited" 7 s.Spans.group)
    spans;
  let leaf = List.find (fun s -> s.Spans.name = "leaf") spans in
  check Alcotest.int "aggregate calls" 3 leaf.Spans.calls;
  let by_id = Hashtbl.create 4 in
  List.iter (fun s -> Hashtbl.replace by_id s.Spans.id s) spans;
  List.iter
    (fun (s, self) ->
       check Alcotest.bool "self within own span" true (self <= s.Spans.busy +. 1e-12);
       match Hashtbl.find_opt by_id s.Spans.parent with
       | Some p ->
         check Alcotest.bool "child self within parent span" true
           (self <= p.Spans.busy +. 1e-12)
       | None -> ())
    (Spans.self_times spans);
  Spans.reset ();
  Spans.with_span "off" (fun () -> ());
  check Alcotest.int "nothing recorded when off" 0 (List.length (Spans.spans ()))

(* {1 Failure accounting} *)

let test_failures () =
  let t = Measure.tally () in
  for _ = 1 to 9 do
    Measure.record_ok t 0.01
  done;
  Measure.record_failed t "lost: no response";
  check Alcotest.int "attempted" 10 t.Measure.attempted;
  check Alcotest.int "failed" 1 t.Measure.failed;
  let sorted = Measure.sorted_latencies t in
  check Alcotest.bool "a lost request misses every limit" true
    (Measure.percentile sorted 99 = infinity);
  check feq "p50 unaffected" 0.01 (Measure.percentile sorted 50);
  let refused = Measure.tally () in
  Measure.record_failed refused "overloaded";
  check Alcotest.bool "a refused request misses even the median" true
    (Measure.clamped_percentile (Measure.sorted_latencies refused) 50 = infinity);
  check Alcotest.string "result line keeps JSON finite"
    {|{"correct": false, "attempted": 1, "failed": 1, "metrics": {"p": {"value": 1.7976931348623157e+308, "unit": "s"}}}|}
    (Measure.result_line ~correct:false ~attempted:1 ~failed:1
       [ Measure.metric "p" "s" infinity ])

let test_overhead () =
  let o = Measure.overhead () in
  Measure.overhead_add o "a" ~traced:false 1.0;
  Measure.overhead_add o "a" ~traced:true 1.1;
  Measure.overhead_add o "b" ~traced:false 3.0;
  Measure.overhead_add o "b" ~traced:true 3.3;
  Measure.overhead_add o "c" ~traced:true 100.0;
  check (Alcotest.float 1e-9) "unmatched inputs ignored" 0.1 (Measure.overhead_share o)

(* {1 The clock} *)

let test_cpu_clock () =
  let c0 = Cpu.self () in
  ignore (Calib.reference ());
  check Alcotest.bool "CPU clock advances with work" true (Cpu.self () > c0);
  match Unix.fork () with
  | 0 -> Unix._exit 0
  | pid ->
    ignore (Unix.waitpid [] pid);
    check feq "a reaped process reads 0" 0.0 (Cpu.of_pid pid)

let test_scale () =
  let n = Calib.nominal in
  check feq "nominal speed keeps CPU seconds" 1.0 (Calib.scale ~before:n ~after:n);
  check feq "a reference twice as slow halves them" 0.5
    (Calib.scale ~before:(2.0 *. n) ~after:(2.0 *. n));
  check feq "the mean of both references" (1.0 /. 1.5)
    (Calib.scale ~before:n ~after:(2.0 *. n))

(* {1 Seed determinism} *)

let read path = In_channel.with_open_bin path In_channel.input_all

let fresh_dir name =
  let dir = Filename.concat (Sys.getcwd ()) name in
  (try Sys.mkdir dir 0o755 with Sys_error _ -> ());
  dir

let test_permutation () =
  let p = Inputs.permutation ~seed:5 ~round:2 15 in
  check Alcotest.(array int) "same seed, same order" p
    (Inputs.permutation ~seed:5 ~round:2 15);
  check Alcotest.(list int) "a permutation" (List.init 15 Fun.id)
    (List.sort compare (Array.to_list p));
  check Alcotest.bool "rounds differ" true
    (p <> Inputs.permutation ~seed:5 ~round:3 15)

let test_catalog_inputs () =
  let specs = List.filteri (fun i _ -> i < 2) Catalog.open_source in
  let a = Inputs.catalog ~specs ~dir:(fresh_dir "cat-a") () in
  let b = Inputs.catalog ~specs ~dir:(fresh_dir "cat-b") () in
  List.iter2
    (fun (x : Inputs.app) (y : Inputs.app) ->
       check Alcotest.bool (x.a_name ^ " byte-identical") true
         (read x.a_path = read y.a_path))
    a b

let test_stream_inputs () =
  let dir = fresh_dir "stream" in
  let path n = Filename.concat dir n in
  ignore (Inputs.stream ~events:20_000 ~seed:3 (path "a.drt"));
  ignore (Inputs.stream ~events:20_000 ~seed:3 (path "b.drt"));
  ignore (Inputs.stream ~events:20_000 ~seed:4 (path "c.drt"));
  check Alcotest.bool "same seed, same bytes" true (read (path "a.drt") = read (path "b.drt"));
  check Alcotest.bool "another seed, another trace" true
    (read (path "a.drt") <> read (path "c.drt"))

let test_daemon_inputs () =
  let a = Inputs.daemon ~seed:9 ~count:6 ~dir:(fresh_dir "d-a") in
  let b = Inputs.daemon ~seed:9 ~count:6 ~dir:(fresh_dir "d-b") in
  List.iter2
    (fun (x : Inputs.request_input) (y : Inputs.request_input) ->
       check Alcotest.bool "same bytes" true (x.r_bytes = y.r_bytes);
       check Alcotest.bool "file matches the bytes sent" true (read x.r_path = x.r_bytes))
    a b

let test_predict_inputs () =
  let bytes l =
    List.map
      (fun (m : Inputs.masked_input) ->
         Droidracer_trace.Binfmt.encode_events_to_string
           (Droidracer_trace.Trace.events m.m_trace))
      l
  in
  let a = Inputs.predict ~events:600 ~count:3 () in
  let b = Inputs.predict ~events:600 ~count:3 () in
  check Alcotest.(list string) "same traces every time" (bytes a) (bytes b)

let () =
  Alcotest.run "perfbench"
    [ ( "percentiles"
      , [ Alcotest.test_case "nearest rank" `Quick test_percentile
        ; Alcotest.test_case "ten samples beyond" `Quick test_high_percentile
        ; Alcotest.test_case "too few samples" `Quick test_clamped
        ] )
    ; ( "self time"
      , [ Alcotest.test_case "nested children" `Quick test_self_nested
        ; Alcotest.test_case "overlap and aggregates" `Quick test_self_overlap_and_aggregate
        ; Alcotest.test_case "recorder" `Quick test_recorder
        ] )
    ; ( "failures"
      , [ Alcotest.test_case "lost and refused requests" `Quick test_failures
        ; Alcotest.test_case "tracing overhead" `Quick test_overhead
        ] )
    ; ( "clock"
      , [ Alcotest.test_case "CPU seconds" `Quick test_cpu_clock
        ; Alcotest.test_case "nominal scale" `Quick test_scale
        ] )
    ; ( "determinism"
      , [ Alcotest.test_case "round order" `Quick test_permutation
        ; Alcotest.test_case "catalog" `Quick test_catalog_inputs
        ; Alcotest.test_case "synth-stream" `Quick test_stream_inputs
        ; Alcotest.test_case "daemon-small" `Quick test_daemon_inputs
        ; Alcotest.test_case "predict-masked" `Quick test_predict_inputs
        ] )
    ]
