(* The motivating example of the paper, end to end (Sections 2.1-2.4):
   the Figure 1 music player is executed by the runtime model under both
   user scenarios, the resulting traces are printed in the style of
   Figures 3 and 4, the happens-before edges (a)-(e) are checked, and
   the two races of Section 2.4 are detected, classified and verified.

       dune exec examples/music_player_walkthrough.exe *)

module Trace = Droidracer_trace.Trace
module Step = Droidracer_semantics.Step
module Graph = Droidracer_core.Graph
module Hb = Droidracer_core.Happens_before
module Detector = Droidracer_core.Detector
module Classify = Droidracer_core.Classify
module Race = Droidracer_core.Race
module Runtime = Droidracer_appmodel.Runtime
module Mp = Droidracer_corpus.Music_player
module Verify = Droidracer_explorer.Verify

let banner title =
  Printf.printf "\n--- %s ---\n\n" title

(* Find the position of the first operation satisfying a predicate. *)
let find trace pred =
  let result = ref None in
  Trace.iteri
    (fun i e -> if Option.is_none !result && pred i e then result := Some i)
    trace;
  Option.get !result

(* matches an operation by the prefix of its printed form *)
let is_op name _i (e : Trace.event) =
  let printed = Format.asprintf "%a" Droidracer_trace.Operation.pp e.op in
  String.length printed >= String.length name
  && String.sub printed 0 (String.length name) = name

let () =
  banner "PLAY scenario (Figures 2 and 3)";
  let play = Runtime.run ~options:Mp.options Mp.app Mp.play_scenario in
  (match Step.validate (Lazy.force play.Runtime.full) with
   | Ok _ -> print_endline "the generated trace satisfies the Figure 5 semantics"
   | Error v -> Format.printf "semantics violation: %a@." Step.pp_violation v);
  Format.printf "@.%a@." Trace.pp play.Runtime.observed;
  let t = play.Runtime.observed in
  let hb = Hb.compute (Graph.build ~coalesce:true t) in
  (* The five happens-before edges highlighted in Figure 3. *)
  let fork = find t (is_op "fork") in
  let init_t4 = find t (fun _ e -> e.Trace.op = Droidracer_trace.Operation.Thread_init
                                   && Droidracer_trace.Ident.Thread_id.to_int e.Trace.thread = 4) in
  let post_pe = find t (is_op "post FileDwTask.onPostExecute") in
  let begin_pe = find t (is_op "begin FileDwTask.onPostExecute") in
  let end_launch = find t (is_op "end LAUNCH") in
  let enable_click = find t (is_op "enable onPlayClick#0") in
  let post_click = find t (is_op "post onPlayClick#0") in
  let enable_pause = find t (is_op "enable DwFileAct_0.onPause") in
  let post_pause = find t (is_op "post DwFileAct_0.onPause") in
  let edge name i j =
    Printf.printf "edge %s: %2d %s %2d  %s\n" name i
      (if Hb.hb hb i j then "->" else "!!")
      j
      (if Hb.hb hb i j then "(derived)" else "(MISSING)")
  in
  print_newline ();
  edge "a (fork ~> threadinit)      " fork init_t4;
  edge "b (post ~> begin)           " post_pe begin_pe;
  edge "c (end LAUNCH ~> begin post)" end_launch begin_pe;
  edge "d (enable ~> post click)    " enable_click post_click;
  edge "e (enable ~> post onPause)  " enable_pause post_pause;
  let report = Detector.analyze t in
  Printf.printf "\nraces in the PLAY scenario: %d (the conflicting pairs are ordered)\n"
    (List.length report.Detector.all_races);

  banner "BACK scenario (Figure 4)";
  let back = Runtime.run ~options:Mp.options Mp.app Mp.back_scenario in
  Format.printf "%a@." Trace.pp back.Runtime.observed;
  let report = Detector.analyze back.Runtime.observed in
  Printf.printf "races found: %d\n\n" (List.length report.Detector.all_races);
  List.iter
    (fun { Detector.race; category } ->
       Format.printf "[%a] %a@." Classify.pp_category category Race.pp race;
       match
         Verify.verify ~options:Mp.options ~app:Mp.app
           ~events:Mp.back_scenario ~trace:report.Detector.trace
           ~thread_names:back.Runtime.thread_names race
       with
       | Verify.Confirmed w ->
         Printf.printf
           "  verified: an alternate schedule (seed %d) reorders the accesses \
            to positions %d < %d\n"
           w.Verify.w_seed w.Verify.w_first w.Verify.w_second
       | Verify.Not_flipped n ->
         Printf.printf "  not reproduced in %d perturbed runs\n" n)
    report.Detector.all_races;
  print_newline ();
  print_endline
    "Both assertions of Figure 1 (lines 41 and 53) can observe\n\
     isActivityDestroyed = true: exactly the two races of Section 2.4.";

  banner "Why the environment model matters (Section 2.4)";
  let no_env = Detector.analyze ~config:Detector.no_environment_model back.Runtime.observed in
  Printf.printf
    "with enable modelling:    %d races\n\
     without enable modelling: %d races (the write/write pair between\n\
     onCreate and onDestroy becomes a false positive)\n"
    (List.length report.Detector.all_races)
    (List.length no_env.Detector.all_races)
