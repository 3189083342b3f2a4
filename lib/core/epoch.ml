module Int_map = Map.Make (Int)

type 'a entry =
  { slot : int
  ; time : int
  ; payload : 'a
  }

type 'a t =
  | Bottom
  | One of 'a entry
  | Many of 'a entry Int_map.t

type outcome =
  | Fast_path
  | Promoted
  | Demoted
  | Stayed

let bottom = Bottom

let cardinal = function
  | Bottom -> 0
  | One _ -> 1
  | Many m -> Int_map.cardinal m

let fold f t acc =
  match t with
  | Bottom -> acc
  | One e -> f e acc
  | Many m -> Int_map.fold (fun _ e acc -> f e acc) m acc

let entries t = List.rev (fold (fun e acc -> e :: acc) t [])

(* [clock] knows [e] iff it has seen the [e.time]-th tick of [e.slot];
   in the streaming engine's transition system that is equivalent to
   pointwise domination of the whole clock at the time of the access
   (knowledge only ever propagates by merging full clocks). *)
let known clock e = clock e.slot >= e.time

let unknown ~clock t =
  List.rev (fold (fun e acc -> if known clock e then acc else e :: acc) t [])

(* Re-pack a map that may have shrunk below two entries. *)
let of_map m =
  match Int_map.cardinal m with
  | 0 -> Bottom
  | 1 -> One (snd (Int_map.choose m))
  | _ -> Many m

let prune ~clock t =
  match t with
  | Bottom -> (Bottom, 0)
  | One e -> if known clock e then (Bottom, 1) else (t, 0)
  | Many m ->
    let keep = Int_map.filter (fun _ e -> not (known clock e)) m in
    let dropped = Int_map.cardinal m - Int_map.cardinal keep in
    ((if dropped = 0 then t else of_map keep), dropped)

let observe ~clock ~slot ~time payload t =
  let e = { slot; time; payload } in
  match t with
  | Bottom -> (One e, [], Stayed)
  | One prev when prev.slot = slot ->
    (* Same slot = same thread segment or task instance, hence program
       ordered: overwrite without touching the clock. *)
    (One e, [], Fast_path)
  | One prev ->
    if known clock prev then (One e, [], Stayed)
    else
      ( Many (Int_map.add slot e (Int_map.singleton prev.slot prev))
      , [ prev ]
      , Promoted )
  | Many m ->
    let racing = ref [] in
    let keep =
      Int_map.filter
        (fun s prev ->
           if s = slot then false  (* superseded in program order *)
           else if known clock prev then false
           else begin
             racing := prev :: !racing;
             true
           end)
        m
    in
    let next = Int_map.add slot e keep in
    let t' = of_map next in
    let outcome = match t' with One _ -> Demoted | _ -> Stayed in
    (t', List.rev !racing, outcome)
