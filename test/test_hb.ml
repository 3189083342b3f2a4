open Helpers
module Graph = Droidracer_core.Graph
module Hb = Droidracer_core.Happens_before
module Reference_hb = Droidracer_core.Reference_hb
module Obs = Droidracer_obs.Obs

let check_bool = Alcotest.check Alcotest.bool

let relation ?config t =
  Hb.compute ?config (Graph.build ~coalesce:true t)

(* The rule-by-rule oracle's verdict, for the ablation switches that
   generated traces rarely exercise. *)
let oracle_hb ?config t i j =
  Reference_hb.hb (Reference_hb.compute ?config t) i j

(* {1 Rule-by-rule unit tests (Figures 6 and 7)} *)

let p = task "p"
let q = task "q"

let test_no_q_po () =
  (* A thread without a queue is ordered by plain program order. *)
  let t = trace [ threadinit 0; write 0 (loc "a"); read 0 (loc "b") ] in
  let r = relation t in
  check_bool "program order" true (Hb.hb r 1 2);
  check_bool "antisymmetric" false (Hb.hb r 2 1);
  (* Pre-loop operations are ordered before everything later on the
     thread, including task bodies. *)
  let t2 =
    trace
      [ threadinit 0
      ; threadinit 1
      ; write 1 (loc "a")  (* 2: before loopOnQ *)
      ; attachq 1
      ; looponq 1
      ; post 0 p 1
      ; begin_task 1 p
      ; read 1 (loc "a")  (* 7: inside the task *)
      ; end_task 1 p
      ]
  in
  let r2 = relation t2 in
  check_bool "pre-loop op precedes task op" true (Hb.hb r2 2 7)

let test_async_po () =
  (* Operations of one task are ordered; operations of two tasks with
     unordered posts are not, even on the same thread. *)
  let t =
    trace
      [ threadinit 0
      ; threadinit 1
      ; threadinit 2
      ; attachq 2
      ; looponq 2
      ; post 0 p 2
      ; post 1 q 2
      ; begin_task 2 p
      ; write 2 (loc "a")  (* 8 *)
      ; read 2 (loc "b")  (* 9 *)
      ; end_task 2 p
      ; begin_task 2 q
      ; write 2 (loc "a")  (* 12 *)
      ; end_task 2 q
      ]
  in
  let r = relation t in
  check_bool "within task" true (Hb.hb r 8 9);
  check_bool "across unordered tasks: begin/ops unordered" false
    (Hb.hb r 8 12);
  check_bool "across unordered tasks: reverse" false (Hb.hb r 12 8)

let test_enable_st_and_mt () =
  let t =
    trace
      [ threadinit 0
      ; threadinit 1
      ; attachq 1
      ; looponq 1
      ; enable 1 p  (* 4: same-thread enable *)
      ; enable 0 q  (* 5: cross-thread enable *)
      ; post 1 p 1  (* 6 *)
      ; post 1 q 1  (* 7 *)
      ]
  in
  let r = relation t in
  check_bool "ENABLE-ST" true (Hb.hb r 4 6);
  check_bool "ENABLE-MT" true (Hb.hb r 5 7)

let test_post_rule () =
  let t =
    trace
      [ threadinit 0; threadinit 1; attachq 1; looponq 1; post 0 p 1
      ; begin_task 1 p; end_task 1 p
      ]
  in
  let r = relation t in
  check_bool "POST-MT" true (Hb.hb r 4 5)

let test_attach_q_mt () =
  let t =
    trace
      [ threadinit 0; threadinit 1; attachq 1; looponq 1; post 0 p 1 ]
  in
  let r = relation t in
  check_bool "ATTACH-Q-MT" true (Hb.hb r 2 4)

let test_fork_join () =
  let t =
    trace
      [ threadinit 0
      ; write 0 (loc "a")  (* 1 *)
      ; fork 0 1  (* 2 *)
      ; threadinit 1  (* 3 *)
      ; write 1 (loc "a")  (* 4 *)
      ; threadexit 1  (* 5 *)
      ; join 0 1  (* 6 *)
      ; read 0 (loc "a")  (* 7 *)
      ]
  in
  let r = relation t in
  check_bool "FORK" true (Hb.hb r 2 3);
  check_bool "JOIN" true (Hb.hb r 5 6);
  check_bool "fork transitively orders accesses" true (Hb.hb r 1 4);
  check_bool "join transitively orders accesses" true (Hb.hb r 4 7)

let test_lock_rule () =
  let t =
    trace
      [ threadinit 0
      ; threadinit 1
      ; acquire 0 "l"
      ; write 0 (loc "a")  (* 3 *)
      ; release 0 "l"  (* 4 *)
      ; acquire 1 "l"  (* 5 *)
      ; write 1 (loc "a")  (* 6 *)
      ; release 1 "l"
      ]
  in
  let r = relation t in
  check_bool "LOCK orders release before acquire" true (Hb.hb r 4 5);
  check_bool "protected accesses ordered" true (Hb.hb r 3 6)

let test_lock_decomposition () =
  (* Two tasks on the same thread, posted by unrelated threads, both
     protected by the same lock: the naïve combination orders them
     spuriously (missing the race); the decomposed relation does not
     (Section 1). *)
  let events =
    [ threadinit 0
    ; threadinit 1
    ; threadinit 2
    ; attachq 2
    ; looponq 2
    ; post 0 p 2
    ; post 1 q 2
    ; begin_task 2 p
    ; acquire 2 "l"
    ; write 2 (loc "a")  (* 9 *)
    ; release 2 "l"
    ; end_task 2 p
    ; begin_task 2 q
    ; acquire 2 "l"
    ; write 2 (loc "a")  (* 14 *)
    ; release 2 "l"
    ; end_task 2 q
    ]
  in
  let t = trace events in
  let r = relation t in
  check_bool "decomposed relation leaves the tasks unordered" false
    (Hb.hb r 9 14);
  let naive =
    { Hb.default with lock_same_thread = true; restricted_transitivity = false }
  in
  let rn = relation ~config:naive t in
  check_bool "naive combination orders them spuriously" true (Hb.hb rn 9 14);
  let same_thread_locks = { Hb.default with lock_same_thread = true } in
  check_bool "same-thread locks alone order them" true
    (Hb.hb (relation ~config:same_thread_locks t) 9 14);
  check_bool "the oracle agrees" true
    (oracle_hb ~config:same_thread_locks t 9 14
     && not (oracle_hb t 9 14))

let test_fifo () =
  (* Two posts by the same thread to the same queue execute in order. *)
  let t =
    trace
      [ threadinit 0
      ; threadinit 1
      ; attachq 1
      ; looponq 1
      ; post 0 p 1  (* 4 *)
      ; post 0 q 1  (* 5 *)
      ; begin_task 1 p
      ; write 1 (loc "a")  (* 7 *)
      ; end_task 1 p  (* 8 *)
      ; begin_task 1 q  (* 9 *)
      ; write 1 (loc "a")  (* 10 *)
      ; end_task 1 q
      ]
  in
  let r = relation t in
  check_bool "FIFO end-begin edge" true (Hb.hb r 8 9);
  check_bool "FIFO orders the task bodies" true (Hb.hb r 7 10)

let test_fifo_needs_ordered_posts () =
  (* Posts from two unrelated threads are unordered, so FIFO does not
     apply even though the trace executed them in some order. *)
  let t =
    trace
      [ threadinit 0
      ; threadinit 1
      ; threadinit 2
      ; attachq 2
      ; looponq 2
      ; post 0 p 2
      ; post 1 q 2
      ; begin_task 2 p
      ; end_task 2 p  (* 8 *)
      ; begin_task 2 q  (* 9 *)
      ; end_task 2 q
      ]
  in
  let r = relation t in
  check_bool "no FIFO edge for unordered posts" false (Hb.hb r 8 9)

let test_fifo_delayed_variants () =
  let make f1 f2 =
    trace
      [ threadinit 0
      ; threadinit 1
      ; attachq 1
      ; looponq 1
      ; post ~flavour:f1 0 p 1
      ; post ~flavour:f2 0 q 1
      ; begin_task 1 p
      ; end_task 1 p  (* 7 *)
      ; begin_task 1 q  (* 8 *)
      ; end_task 1 q
      ]
  in
  let edge f1 f2 =
    let r = relation (make f1 f2) in
    Hb.hb r 7 8
  in
  check_bool "immediate then delayed: ordered (rule a)" true
    (edge Operation.Immediate (Operation.Delayed 100));
  check_bool "delayed 100 then delayed 200: ordered (rule b)" true
    (edge (Operation.Delayed 100) (Operation.Delayed 200));
  check_bool "equal delays: ordered (rule b)" true
    (edge (Operation.Delayed 100) (Operation.Delayed 100));
  check_bool "delayed 200 then delayed 100: unordered" false
    (edge (Operation.Delayed 200) (Operation.Delayed 100))

let test_delayed_before_immediate_unordered () =
  (* A delayed post followed by an immediate one: the immediate task ran
     first in this trace, and the two are unordered. *)
  let t =
    trace
      [ threadinit 0
      ; threadinit 1
      ; attachq 1
      ; looponq 1
      ; post ~flavour:(Operation.Delayed 500) 0 p 1
      ; post 0 q 1
      ; begin_task 1 q
      ; end_task 1 q  (* 7 *)
      ; begin_task 1 p  (* 8 *)
      ; end_task 1 p
      ]
  in
  let r = relation t in
  check_bool "no ordering between delayed and later immediate" false
    (Hb.hb r 7 8)

let test_nopre () =
  (* A task posting to its own thread finishes before the posted task
     begins, whatever the flavour (no pre-emption) — even for a
     front-of-queue post, for which FIFO is not applicable. *)
  List.iter
    (fun flavour ->
       let t =
         trace
           [ threadinit 1
           ; attachq 1
           ; looponq 1
           ; post 1 p 1
           ; begin_task 1 p
           ; write 1 (loc "a")  (* 5 *)
           ; post ~flavour 1 q 1  (* 6 *)
           ; end_task 1 p  (* 7 *)
           ; begin_task 1 q  (* 8 *)
           ; read 1 (loc "a")  (* 9 *)
           ; end_task 1 q
           ]
       in
       let r = relation t in
       check_bool "NOPRE end-begin edge" true (Hb.hb r 7 8);
       check_bool "NOPRE orders the accesses" true (Hb.hb r 5 9);
       (* Without NOPRE only FIFO can order the tasks, and it never
          applies to a front post. *)
       let config = { Hb.default with nopre_rule = false } in
       let fifo = flavour <> Operation.Front in
       check_bool "NOPRE off: FIFO alone" fifo (Hb.hb (relation ~config t) 7 8);
       check_bool "NOPRE off: oracle agrees" fifo (oracle_hb ~config t 7 8))
    [ Operation.Immediate; Operation.Delayed 300; Operation.Front ]

let test_nopre_cross_thread_round_trip () =
  (* Task A on t1 posts p to t2; task p posts q back to t1.  The write
     in A is ordered before the read in q only through the combination
     of inter-thread reasoning and NOPRE (TRANS-ST alone cannot cross
     t2, and TRANS-MT cannot relate two t1 operations). *)
  let a = task "A" in
  let t =
    trace
      [ threadinit 0
      ; threadinit 1
      ; threadinit 2
      ; attachq 1
      ; attachq 2
      ; looponq 1
      ; looponq 2
      ; post 0 a 1
      ; begin_task 1 a
      ; write 1 (loc "m")  (* 9 *)
      ; post 1 p 2
      ; end_task 1 a  (* 11 *)
      ; begin_task 2 p
      ; post 2 q 1
      ; end_task 2 p
      ; begin_task 1 q  (* 15 *)
      ; read 1 (loc "m")  (* 16 *)
      ; end_task 1 q
      ]
  in
  let r = relation t in
  check_bool "NOPRE across a cross-thread post chain" true (Hb.hb r 11 15);
  check_bool "write before read" true (Hb.hb r 9 16)

let test_front_post_no_fifo () =
  (* A front post from an unrelated ordering context: FIFO must not
     order it after earlier tasks. *)
  let t =
    trace
      [ threadinit 0
      ; threadinit 1
      ; attachq 1
      ; looponq 1
      ; post 0 p 1
      ; post ~flavour:Operation.Front 0 q 1
      ; begin_task 1 q
      ; end_task 1 q  (* 7 *)
      ; begin_task 1 p
      ; end_task 1 p  (* 9 *)
      ]
  in
  let r = relation t in
  check_bool "front-posted task unordered w.r.t. FIFO" false (Hb.hb r 7 8);
  check_bool "reverse also unordered" false (Hb.hb r 9 6)

(* The closure's case B2: i(t1) ⪯ k(t2) ⪯ k'(t1) ⪯ j(t3).  Row k'
   drops i (TRANS-MT needs thread i ≠ thread k'), so j's row gets i
   only through k, which row k' holds: a closure that skipped every
   predecessor some absorbed row contains would lose i ⪯ j. *)
let test_transitivity_through_absorbed_row () =
  let la = "a" and lb = "b" and lc = "c" in
  let t =
    trace
      [ threadinit 0
      ; threadinit 1
      ; threadinit 2
      ; threadinit 3
      ; attachq 1
      ; looponq 1
      ; post 0 p 1
      ; post 2 q 1  (* 7: unordered with post(p): no FIFO, no NOPRE *)
      ; begin_task 1 p
      ; write 1 (loc "x")  (* 9: i *)
      ; acquire 1 la
      ; release 1 la  (* 11 *)
      ; end_task 1 p
      ; acquire 2 la  (* 13: k *)
      ; acquire 2 lb
      ; release 2 lb  (* 15 *)
      ; begin_task 1 q
      ; acquire 1 lb  (* 17: k' *)
      ; acquire 1 lc
      ; release 1 lc  (* 19 *)
      ; end_task 1 q
      ; acquire 3 lc  (* 21: j *)
      ; read 3 (loc "x")  (* 22 *)
      ]
  in
  let r = relation t in
  check_bool "i before k" true (Hb.hb r 9 13);
  check_bool "k before k'" true (Hb.hb r 13 17);
  check_bool "i, k' unordered (restricted transitivity)" false (Hb.hb r 9 17);
  check_bool "i before j through k" true (Hb.hb r 9 21);
  check_bool "i before the read on j's thread" true (Hb.hb r 9 22);
  check_bool "the oracle agrees" true
    (oracle_hb t 9 22 && not (oracle_hb t 9 17))

(* The FIFO/NOPRE sibling walk.  Thread 1 runs x, then a FIFO chain
   a, b, c posted in order by thread 0, then d, also posted by thread
   0.  x is a delayed post from thread 2, so FIFO never orders it; but
   its lock release reaches thread 0 before d is posted, so NOPRE
   orders end(x) before begin(d).  The walk offers begin(d) the ends of
   its thread latest first: end(c) brings the whole chain, and end(x),
   which no chain row holds, must still be checked.  The check count
   pins the walk: 1 at begin(a) (x), 2 at b (a, x), 2 at c (b, x) and 2
   at d (c, x); an ascending walk would make 10 checks. *)
let test_sibling_walk_below_fifo_chain () =
  let x = task "x" and a = task "a" and b = task "b" in
  let c = task "c" and d = task "d" in
  let t =
    trace
      [ threadinit 0
      ; threadinit 1
      ; threadinit 2
      ; attachq 1
      ; looponq 1
      ; post ~flavour:(Operation.Delayed 100) 2 x 1
      ; post 0 a 1
      ; post 0 b 1
      ; post 0 c 1
      ; begin_task 1 x
      ; write 1 (loc "v")  (* 10 *)
      ; acquire 1 "l"
      ; release 1 "l"
      ; end_task 1 x  (* 13 *)
      ; acquire 0 "l"
      ; release 0 "l"
      ; post 0 d 1
      ; begin_task 1 a  (* 17 *)
      ; end_task 1 a  (* 18 *)
      ; begin_task 1 b
      ; end_task 1 b
      ; begin_task 1 c
      ; end_task 1 c  (* 22 *)
      ; begin_task 1 d  (* 23 *)
      ; read 1 (loc "v")  (* 24 *)
      ; end_task 1 d
      ]
  in
  Obs.reset ();
  Obs.enable ();
  let r =
    Fun.protect ~finally:Obs.disable (fun () -> relation t)
  in
  let checks = List.assoc_opt "hb.sibling_checks" (Obs.counters_with_prefix "hb.") in
  Obs.reset ();
  check_bool "FIFO chain reaches d" true (Hb.hb r 18 23 && Hb.hb r 22 23);
  check_bool "NOPRE sibling below the chain" true (Hb.hb r 13 23);
  check_bool "x's write before d's read" true (Hb.hb r 10 24);
  check_bool "x unordered with the chain" false (Hb.hb r 13 17);
  let config = { Hb.default with nopre_rule = false } in
  check_bool "only NOPRE orders x before d" false
    (Hb.hb (relation ~config t) 13 23 || oracle_hb ~config t 13 23);
  check_bool "the oracle agrees" true (oracle_hb t 13 23);
  Alcotest.(check (option int)) "sibling checks" (Some 7) checks

let test_front_rule_extension () =
  (* the deferred-to-future-work treatment of posting-to-the-front:
     sound only when both posts come from one task on the target thread *)
  let self_posting =
    trace
      [ threadinit 0
      ; threadinit 1
      ; attachq 1
      ; looponq 1
      ; post 0 (task "c") 1
      ; begin_task 1 (task "c")
      ; post 1 p 1  (* 6: immediate *)
      ; post ~flavour:Operation.Front 1 q 1  (* 7: front, same task *)
      ; end_task 1 (task "c")
      ; begin_task 1 q
      ; end_task 1 q  (* 10 *)
      ; begin_task 1 p  (* 11 *)
      ; end_task 1 p
      ]
  in
  let r = relation self_posting in
  check_bool "paper rules: unordered" false (Hb.hb r 10 11);
  let extended = { Hb.default with front_rule = true } in
  let r' = relation ~config:extended self_posting in
  check_bool "front rule: the front post pre-empts" true (Hb.hb r' 10 11);
  check_bool "the oracle agrees" true
    (oracle_hb ~config:extended self_posting 10 11
     && not (oracle_hb self_posting 10 11));
  (* posts from another thread: the pending task may begin in between,
     so even the extension derives nothing *)
  let cross_posting =
    trace
      [ threadinit 0
      ; threadinit 1
      ; attachq 1
      ; looponq 1
      ; post 0 p 1  (* 4: immediate *)
      ; post ~flavour:Operation.Front 0 q 1  (* 5: front, from t0 *)
      ; begin_task 1 q
      ; end_task 1 q  (* 7 *)
      ; begin_task 1 p  (* 8 *)
      ; end_task 1 p
      ]
  in
  let r'' = relation ~config:extended cross_posting in
  check_bool "cross-thread front posts stay unordered" false (Hb.hb r'' 7 8);
  check_bool "so does the oracle" false
    (oracle_hb ~config:extended cross_posting 7 8)

(* {1 The figures of the paper} *)

let test_figure3_edges () =
  let r = relation figure3 in
  check_bool "edge a: fork -> threadinit" true (Hb.hb r (fig 8) (fig 11));
  check_bool "edge b: post -> begin" true (Hb.hb r (fig 13) (fig 15));
  check_bool "edge c: end LAUNCH -> begin onPostExecute" true
    (Hb.hb r (fig 10) (fig 15));
  check_bool "edge d: enable -> post onPlayClick" true
    (Hb.hb r (fig 17) (fig 19));
  check_bool "edge e: enable -> post onPause" true (Hb.hb r (fig 21) (fig 23));
  (* The two conflicting pairs of Section 2.4 are ordered. *)
  check_bool "write 7 before read 12" true (Hb.hb r (fig 7) (fig 12));
  check_bool "write 7 before read 16" true (Hb.hb r (fig 7) (fig 16))

let test_figure4_orderings () =
  let r = relation figure4 in
  (* enable(9) ⪯ post(19) ⪯ begin(20) orders the two writes. *)
  check_bool "write 7 before write 21" true (Hb.hb r (fig 7) (fig 21));
  (* The two racey pairs are unordered. *)
  check_bool "read 12 vs write 21 unordered" false
    (Hb.ordered r (fig 12) (fig 21));
  check_bool "read 16 vs write 21 unordered" false
    (Hb.ordered r (fig 16) (fig 21))

let test_figure4_without_enable_modelling () =
  (* Without the environment model the ordering between operations 7 and
     21 is lost: the false positive of Section 2.4. *)
  let config = { Hb.default with enable_rule = false } in
  let r = relation ~config figure4 in
  check_bool "7 vs 21 unordered without enable" false
    (Hb.ordered r (fig 7) (fig 21))

(* {1 Differential testing against the rule-by-rule oracle} *)

let agrees ?config ~coalesce t =
  let reference = Reference_hb.compute ?config t in
  let r = Hb.compute ?config (Graph.build ~coalesce t) in
  let n = Trace.length t in
  let ok = ref true in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      if i <> j && Hb.hb r i j <> Reference_hb.hb reference i j then begin
        ok := false;
        Format.eprintf "disagree at (%d,%d): engine=%b reference=%b@." i j
          (Hb.hb r i j)
          (Reference_hb.hb reference i j)
      end
    done
  done;
  !ok

let test_figures_match_reference () =
  check_bool "figure 3" true (agrees ~coalesce:true figure3);
  check_bool "figure 4" true (agrees ~coalesce:true figure4);
  check_bool "figure 3 uncoalesced" true (agrees ~coalesce:false figure3)

let prop_engine_matches_reference =
  QCheck2.Test.make ~name:"graph engine agrees with the rule oracle" ~count:60
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 5 60))
    (fun (seed, size) ->
       agrees ~coalesce:true (Random_trace.generate ~seed ~size ()))

let prop_engine_matches_reference_uncoalesced =
  QCheck2.Test.make
    ~name:"uncoalesced graph engine agrees with the rule oracle" ~count:30
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 5 60))
    (fun (seed, size) ->
       agrees ~coalesce:false (Random_trace.generate ~seed ~size ()))

(* Generated traces of up to 60 events fit one 63-bit row word; longer
   uncoalesced ones make the closure's rows span several. *)
let prop_engine_matches_reference_multiword =
  QCheck2.Test.make
    ~name:"graph engine agrees with the rule oracle on multi-word rows"
    ~count:10
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 100 200))
    (fun (seed, size) ->
       agrees ~coalesce:false (Random_trace.generate ~seed ~size ()))

let prop_hb_respects_trace_order =
  QCheck2.Test.make ~name:"hb implies trace order" ~count:60
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 5 100))
    (fun (seed, size) ->
       let t = Random_trace.generate ~seed ~size () in
       let r = relation t in
       let n = Trace.length t in
       let ok = ref true in
       for i = 0 to n - 1 do
         for j = 0 to n - 1 do
           if Hb.hb r i j && i >= j then ok := false
         done
       done;
       !ok)

let prop_coalescing_preserves_hb =
  QCheck2.Test.make ~name:"coalescing preserves the relation" ~count:40
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 5 100))
    (fun (seed, size) ->
       let t = Random_trace.generate ~seed ~size () in
       let rc = Hb.compute (Graph.build ~coalesce:true t) in
       let ru = Hb.compute (Graph.build ~coalesce:false t) in
       let n = Trace.length t in
       let ok = ref true in
       for i = 0 to n - 1 do
         for j = 0 to n - 1 do
           if Hb.hb rc i j <> Hb.hb ru i j then ok := false
         done
       done;
       !ok)

(* {1 The closure under ablation configs} *)

(* The four ablation switches, then the relations the predictive
   engine computes besides the default: its relaxed candidate relation,
   its must-relation (LOCK off), and NOPRE off. *)
let ablation_configs =
  [ { Hb.default with restricted_transitivity = false }
  ; { Hb.default with front_rule = true }
  ; { Hb.default with lock_same_thread = true }
  ; { Hb.default with program_order = Hb.Full_po }
  ; Droidracer_predict.Predict.relaxed_config Hb.default
  ; { Hb.default with lock_rule = false }
  ; { Hb.default with nopre_rule = false }
  ]

let prop_closure_matches_reference_ablations =
  QCheck2.Test.make
    ~name:"closure equals the rule oracle under ablation configs" ~count:20
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 5 60))
    (fun (seed, size) ->
       let t = Random_trace.generate ~seed ~size () in
       List.for_all (fun config -> agrees ~config ~coalesce:true t)
         ablation_configs)

(* {1 The shared static edge builder}

   Happens_before seeds its closure from Hb_edges (one builder, shared
   with the predictive engine).  Check the extraction did not drift:
   every emitted edge of the full static configuration is a fact of the
   rule-by-rule oracle's relation, and the must configuration is
   exactly the full one minus the LOCK instances. *)

module Hb_edges = Droidracer_core.Hb_edges

let static_edges ~config t =
  let g = Graph.build ~coalesce:false t in
  let edges = ref [] in
  Hb_edges.iter ~config g ~f:(fun ~rule src dst ->
    edges := (rule, Graph.first_pos g src, Graph.first_pos g dst) :: !edges);
  List.sort_uniq compare !edges

let edges_sound t =
  let reference = Reference_hb.compute t in
  List.for_all
    (fun (rule, i, j) ->
       let ok = i < j && Reference_hb.hb reference i j in
       if not ok then
         Format.eprintf "static edge %s (%d,%d) not in the oracle@."
           (Hb_edges.rule_name rule) i j;
       ok)
    (static_edges ~config:Hb_edges.all t)

let must_is_all_minus_lock t =
  let strip = List.map (fun (_, i, j) -> (i, j)) in
  let all_minus_lock =
    List.filter (fun (r, _, _) -> r <> Hb_edges.Lock)
      (static_edges ~config:Hb_edges.all t)
  in
  strip (static_edges ~config:Hb_edges.must t) = strip all_minus_lock

let test_static_edges_figures () =
  check_bool "figure 3 edges sound" true (edges_sound figure3);
  check_bool "figure 4 edges sound" true (edges_sound figure4);
  check_bool "figure 3 must = all - lock" true
    (must_is_all_minus_lock figure3);
  check_bool "figure 4 must = all - lock" true
    (must_is_all_minus_lock figure4)

let prop_static_edges_sound =
  QCheck2.Test.make ~name:"static edges are facts of the rule oracle"
    ~count:40
    ~print:QCheck2.Print.(pair int int)
    QCheck2.Gen.(pair (int_bound 100_000) (int_range 5 60))
    (fun (seed, size) ->
       let t = Random_trace.generate ~seed ~size () in
       edges_sound t && must_is_all_minus_lock t)

let () =
  Alcotest.run "happens_before"
    [ ( "rules"
      , [ Alcotest.test_case "NO-Q-PO" `Quick test_no_q_po
        ; Alcotest.test_case "ASYNC-PO" `Quick test_async_po
        ; Alcotest.test_case "ENABLE-ST/MT" `Quick test_enable_st_and_mt
        ; Alcotest.test_case "POST" `Quick test_post_rule
        ; Alcotest.test_case "ATTACH-Q-MT" `Quick test_attach_q_mt
        ; Alcotest.test_case "FORK/JOIN" `Quick test_fork_join
        ; Alcotest.test_case "LOCK" `Quick test_lock_rule
        ; Alcotest.test_case "lock decomposition" `Quick test_lock_decomposition
        ; Alcotest.test_case "FIFO" `Quick test_fifo
        ; Alcotest.test_case "FIFO needs ordered posts" `Quick
            test_fifo_needs_ordered_posts
        ; Alcotest.test_case "FIFO delayed variants" `Quick
            test_fifo_delayed_variants
        ; Alcotest.test_case "delayed vs immediate unordered" `Quick
            test_delayed_before_immediate_unordered
        ; Alcotest.test_case "NOPRE" `Quick test_nopre
        ; Alcotest.test_case "NOPRE cross-thread round trip" `Quick
            test_nopre_cross_thread_round_trip
        ; Alcotest.test_case "front post has no FIFO edge" `Quick
            test_front_post_no_fifo
        ; Alcotest.test_case "front rule extension" `Quick
            test_front_rule_extension
        ; Alcotest.test_case "transitivity through an absorbed row" `Quick
            test_transitivity_through_absorbed_row
        ; Alcotest.test_case "sibling walk below a FIFO chain" `Quick
            test_sibling_walk_below_fifo_chain
        ] )
    ; ( "figures"
      , [ Alcotest.test_case "figure 3 edges a-e" `Quick test_figure3_edges
        ; Alcotest.test_case "figure 4 orderings" `Quick test_figure4_orderings
        ; Alcotest.test_case "figure 4 without enables" `Quick
            test_figure4_without_enable_modelling
        ] )
    ; ( "differential"
      , [ Alcotest.test_case "figures match the oracle" `Quick
            test_figures_match_reference
        ; QCheck_alcotest.to_alcotest prop_engine_matches_reference
        ; QCheck_alcotest.to_alcotest prop_engine_matches_reference_uncoalesced
        ; QCheck_alcotest.to_alcotest prop_engine_matches_reference_multiword
        ; QCheck_alcotest.to_alcotest prop_hb_respects_trace_order
        ; QCheck_alcotest.to_alcotest prop_coalescing_preserves_hb
        ] )
    ; ( "static edges"
      , [ Alcotest.test_case "figures" `Quick test_static_edges_figures
        ; QCheck_alcotest.to_alcotest prop_static_edges_sound
        ] )
    ; ( "closure engines"
      , [ QCheck_alcotest.to_alcotest prop_closure_matches_reference_ablations
        ] )
    ]
