(* CPU seconds, the clock every end-to-end time is measured on.

   Wall time on a shared, paravirtualised host also counts the time the
   vCPU was handed to other tenants and the time runnable work waited
   for a CPU, so it measures the neighbours as much as the program.  A
   process's CPU clock counts only the time its threads ran.  On an idle
   machine the two agree for work that does not wait; work that waits
   (an fsync) is cheaper on this clock than on the wall. *)

external of_pid_raw : int -> float = "perfbench_cpu_of_pid"

(* CPU seconds process [pid] has used so far; 0 once it is gone. *)
let of_pid pid = Float.max 0.0 (of_pid_raw pid)

(* CPU seconds of this process, every domain included. *)
let self () = of_pid (Unix.getpid ())

(* CPU seconds of this process's reaped children (their [waitpid] has
   returned), as [getrusage (RUSAGE_CHILDREN)] sums them. *)
let children () =
  let t = Unix.times () in
  t.Unix.tms_cutime +. t.Unix.tms_cstime

(* [f ()] and the CPU seconds this process spent in it. *)
let time f =
  let t0 = self () in
  let v = f () in
  (v, self () -. t0)
