open! Import

let spec ~name ~loc ~proprietary ~length ~fields ~noq ~q ~async ~mt ~cross ~co
    ~delayed ~unknown ~events ~seed ~filler =
  { Synthetic.s_name = name
  ; s_loc = loc
  ; s_proprietary = proprietary
  ; s_trace_length = length
  ; s_fields = fields
  ; s_threads_without_queue = noq
  ; s_threads_with_queue = q
  ; s_async_tasks = async
  ; s_multithreaded = mt
  ; s_cross_posted = cross
  ; s_co_enabled = co
  ; s_delayed = delayed
  ; s_unknown = unknown
  ; s_event_bound = events
  ; s_seed = seed
  ; s_filler = filler
  }

(* Table 2 and Table 3, transcribed.  Race entries are
   (reports, true positives). *)
let open_source =
  [ spec ~name:"Aard Dictionary" ~loc:4044 ~proprietary:false ~length:1355
      ~fields:189 ~noq:2 ~q:1 ~async:58 ~mt:(1, 1) ~cross:(0, 0) ~co:(0, 0)
      ~delayed:(0, 0) ~unknown:(0, 0) ~events:7 ~seed:11 ~filler:1109
  ; spec ~name:"Music Player" ~loc:11012 ~proprietary:false ~length:5532
      ~fields:521 ~noq:3 ~q:2 ~async:62 ~mt:(0, 0) ~cross:(17, 4) ~co:(11, 10)
      ~delayed:(4, 0) ~unknown:(3, 2) ~events:7 ~seed:12 ~filler:5018
  ; spec ~name:"My Tracks" ~loc:26146 ~proprietary:false ~length:7305
      ~fields:573 ~noq:11 ~q:7 ~async:164 ~mt:(1, 0) ~cross:(2, 1) ~co:(1, 0)
      ~delayed:(0, 0) ~unknown:(0, 0) ~events:3 ~seed:13 ~filler:5978
  ; spec ~name:"Messenger" ~loc:27593 ~proprietary:false ~length:10106
      ~fields:845 ~noq:11 ~q:4 ~async:99 ~mt:(1, 1) ~cross:(15, 5) ~co:(4, 3)
      ~delayed:(2, 2) ~unknown:(0, 0) ~events:3 ~seed:14 ~filler:8435
  ; spec ~name:"Tomdroid Notes" ~loc:3215 ~proprietary:false ~length:10120
      ~fields:413 ~noq:3 ~q:1 ~async:348 ~mt:(0, 0) ~cross:(5, 2) ~co:(1, 0)
      ~delayed:(0, 0) ~unknown:(0, 0) ~events:7 ~seed:15 ~filler:8826
  ; spec ~name:"FBReader" ~loc:50042 ~proprietary:false ~length:10723
      ~fields:322 ~noq:14 ~q:1 ~async:119 ~mt:(1, 0) ~cross:(22, 22) ~co:(14, 4)
      ~delayed:(0, 0) ~unknown:(0, 0) ~events:3 ~seed:16 ~filler:9310
  ; spec ~name:"Browser" ~loc:30874 ~proprietary:false ~length:19062
      ~fields:963 ~noq:13 ~q:4 ~async:103 ~mt:(2, 1) ~cross:(64, 2) ~co:(0, 0)
      ~delayed:(0, 0) ~unknown:(0, 0) ~events:3 ~seed:17 ~filler:16255
  ; spec ~name:"OpenSudoku" ~loc:6151 ~proprietary:false ~length:24901
      ~fields:334 ~noq:5 ~q:1 ~async:45 ~mt:(1, 0) ~cross:(1, 0) ~co:(0, 0)
      ~delayed:(0, 0) ~unknown:(0, 0) ~events:7 ~seed:18 ~filler:23139
  ; spec ~name:"K-9 Mail" ~loc:54119 ~proprietary:false ~length:29662
      ~fields:1296 ~noq:7 ~q:2 ~async:689 ~mt:(9, 2) ~cross:(0, 0) ~co:(1, 0)
      ~delayed:(0, 0) ~unknown:(0, 0) ~events:3 ~seed:19 ~filler:27257
  ; spec ~name:"SGTPuzzles" ~loc:2368 ~proprietary:false ~length:38864
      ~fields:566 ~noq:4 ~q:1 ~async:80 ~mt:(11, 10) ~cross:(21, 8) ~co:(0, 0)
      ~delayed:(0, 0) ~unknown:(0, 0) ~events:7 ~seed:20 ~filler:38664
  ]

(* The paper reports no verified split for proprietary applications; the
   (x, y) pairs below use roughly the open-source true-positive rate. *)
let proprietary =
  [ spec ~name:"Remind Me" ~loc:0 ~proprietary:true ~length:10348 ~fields:348
      ~noq:3 ~q:1 ~async:176 ~mt:(0, 0) ~cross:(21, 8) ~co:(33, 12)
      ~delayed:(0, 0) ~unknown:(0, 0) ~events:7 ~seed:21 ~filler:9566
  ; spec ~name:"Twitter" ~loc:0 ~proprietary:true ~length:16975 ~fields:1362
      ~noq:21 ~q:5 ~async:97 ~mt:(0, 0) ~cross:(20, 7) ~co:(7, 3)
      ~delayed:(4, 1) ~unknown:(0, 0) ~events:3 ~seed:22 ~filler:13030
  ; spec ~name:"Adobe Reader" ~loc:0 ~proprietary:true ~length:33866
      ~fields:1267 ~noq:17 ~q:4 ~async:226 ~mt:(34, 13) ~cross:(73, 27)
      ~co:(0, 0) ~delayed:(9, 3) ~unknown:(9, 0) ~events:3 ~seed:23
      ~filler:30399
  ; spec ~name:"Facebook" ~loc:0 ~proprietary:true ~length:52146 ~fields:801
      ~noq:16 ~q:3 ~async:16 ~mt:(12, 4) ~cross:(0, 0) ~co:(10, 4)
      ~delayed:(0, 0) ~unknown:(0, 0) ~events:3 ~seed:24 ~filler:29189
  ; spec ~name:"Flipkart" ~loc:0 ~proprietary:true ~length:157539 ~fields:2065
      ~noq:36 ~q:3 ~async:105 ~mt:(12, 4) ~cross:(152, 56) ~co:(84, 31)
      ~delayed:(30, 11) ~unknown:(36, 0) ~events:3 ~seed:25 ~filler:120309
  ]

let all = open_source @ proprietary

let find name =
  List.find_opt (fun s -> String.equal s.Synthetic.s_name name) all
