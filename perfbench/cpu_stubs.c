/* CPU-time clocks for the benchmark.
 *
 * perfbench_cpu_of_pid reads the CPU clock of any process the caller may
 * signal (clock_getcpuclockid), in seconds with nanosecond resolution:
 * the time its threads spent running on a CPU.  The kernel keeps it per
 * task, so it leaves out time the process waited for a CPU, for I/O, or
 * — on a paravirtualised guest — time the hypervisor gave the vCPU to
 * another tenant.  Returns a negative number once the process is gone.
 */

#include <caml/alloc.h>
#include <caml/memory.h>
#include <caml/mlvalues.h>

#include <sys/types.h>
#include <time.h>

CAMLprim value perfbench_cpu_of_pid(value v_pid)
{
  CAMLparam1(v_pid);
  clockid_t clock;
  struct timespec ts;
  pid_t pid = (pid_t)Long_val(v_pid);
  if (clock_getcpuclockid(pid, &clock) != 0 || clock_gettime(clock, &ts) != 0)
    CAMLreturn(caml_copy_double(-1.0));
  CAMLreturn(caml_copy_double((double)ts.tv_sec + (double)ts.tv_nsec * 1e-9));
}
