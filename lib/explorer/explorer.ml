open! Import

type test_case =
  { events : Runtime.ui_event list
  ; result : Runtime.run_result
  }

type exploration =
  { cases : test_case list
  ; truncated : bool
  }

let explore ?(options = Runtime.default_options) ?(bound = 3) ?(max_cases = 200)
    ?(include_rotate = false) ?(include_intents = false) app =
  let intents =
    if include_intents then
      List.map (fun a -> Runtime.Intent a) (Program.intent_actions app)
    else []
  in
  let prepared = Runtime.prepare app in
  let budget = ref max_cases in
  let truncated = ref false in
  let cases = ref [] in
  (* Depth-first: run the prefix, record it, extend by each event the
     final screen offers. *)
  let rec visit prefix =
    if !budget <= 0 then truncated := true
    else begin
      decr budget;
      let result = Runtime.run_prepared ~options prepared prefix in
      cases := { events = prefix; result } :: !cases;
      if List.length prefix < bound then begin
        let candidates =
          List.filter
            (fun e ->
               match e with
               | Runtime.Rotate -> include_rotate
               | Runtime.Click _ | Runtime.Back -> true
               | Runtime.Intent _ -> true)
            result.enabled_at_end
          @ intents
        in
        List.iter (fun e -> visit (prefix @ [ e ])) candidates
      end
    end
  in
  visit [];
  { cases = List.rev !cases; truncated = !truncated }

let racy_cases ?(config = Detector.default_config) exploration =
  List.filter_map
    (fun case ->
       let report = Detector.analyze ~config case.result.observed in
       match report.Detector.all_races with
       | [] -> None
       | _ :: _ -> Some (case, report))
    exploration.cases
