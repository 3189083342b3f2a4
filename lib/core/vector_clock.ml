module Int_map = Map.Make (Int)

type t = int Int_map.t

let empty = Int_map.empty

let get t slot =
  match Int_map.find_opt slot t with
  | Some v -> v
  | None -> 0

let set t slot v = if v = 0 then Int_map.remove slot t else Int_map.add slot v t
let tick t slot = Int_map.add slot (get t slot + 1) t

let merge a b =
  Int_map.union (fun _ x y -> Some (max x y)) a b

let leq a b =
  Int_map.for_all (fun slot v -> v <= get b slot) a

let cardinal = Int_map.cardinal

let pp ppf t =
  Format.fprintf ppf "{";
  Int_map.iter (fun slot v -> Format.fprintf ppf " %d:%d" slot v) t;
  Format.fprintf ppf " }"
