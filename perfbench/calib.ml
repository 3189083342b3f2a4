(* The machine's speed, measured between units of measured work.

   On a shared host a CPU second is not a fixed amount of work: while
   another tenant keeps the sibling hyperthread of our core busy, the
   same loop takes up to 40% longer, in phases of a second or two.  The
   benchmark therefore runs this fixed computation — the same mix the
   analyses are made of: a bit-matrix transitive closure, hashing and
   sorting of allocated data — between the units it measures, and
   scales each unit's CPU seconds by [nominal] over the reference's own
   time around it.  A unit's time then reads in seconds at the speed at
   which the reference takes [nominal] seconds, and the host's phases
   cancel; a change to the program moves the unit and not the
   reference, which uses none of the program's code. *)

(* About what {!measure} reads on a 2-vCPU Xeon VM with OCaml 5.1. *)
let nominal = 0.0047

let xorshift x =
  let x = x lxor ((x lsl 13) land max_int) in
  let x = x lxor (x lsr 7) in
  x lxor ((x lsl 17) land max_int)

let nodes = 384
let bits = 62
let words = (nodes + bits - 1) / bits

(* Warshall's closure of a random graph of out-degree 2, on rows of
   int words: the access pattern of a happens-before matrix. *)
let closure state =
  let m = Array.init nodes (fun _ -> Array.make words 0) in
  let get i j = m.(i).(j / bits) land (1 lsl (j mod bits)) <> 0 in
  let set i j = m.(i).(j / bits) <- m.(i).(j / bits) lor (1 lsl (j mod bits)) in
  for i = 0 to nodes - 1 do
    for _ = 1 to 2 do
      state := xorshift !state;
      set i (!state mod nodes)
    done
  done;
  for k = 0 to nodes - 1 do
    let rk = m.(k) in
    for i = 0 to nodes - 1 do
      if get i k then begin
        let ri = m.(i) in
        for w = 0 to words - 1 do
          ri.(w) <- ri.(w) lor rk.(w)
        done
      end
    done
  done;
  Array.fold_left (fun a r -> a + r.(0) land 0xff) 0 m

let hashing state =
  let h = Hashtbl.create 16 in
  for i = 0 to 9_999 do
    state := xorshift !state;
    Hashtbl.replace h (!state land 0xffff, i land 7) i
  done;
  let found = ref 0 in
  for i = 0 to 9_999 do
    if Hashtbl.mem h (i land 0xffff, i land 7) then incr found
  done;
  !found

let sorting state =
  List.init 10_000 (fun _ ->
    state := xorshift !state;
    !state land 0xfffff)
  |> List.sort compare |> List.hd

(* One run of the reference; the result only keeps the work alive. *)
let reference () =
  let state = ref 0x2545f491 in
  let a = closure state in
  let b = hashing state in
  let c = sorting state in
  a + b + c

(* CPU seconds of the reference: the faster of two runs, so an
   interrupt or a collection inside one does not read as a slow
   machine. *)
let measure () =
  let once () = snd (Cpu.time reference) in
  let a = once () in
  Float.min a (once ())

(* The factor that turns CPU seconds spent between two reference runs
   of [before] and [after] seconds into nominal seconds. *)
let scale ~before ~after = nominal /. ((before +. after) /. 2.0)
