/* The monotonic clock for deadlines, timeouts and retransmit timers.

   Unix.gettimeofday follows the wall clock, so a step (NTP, an
   operator's `date -s`) fires or stalls every deadline computed from
   it.  CLOCK_MONOTONIC never steps. */

#include <time.h>

#include <caml/mlvalues.h>

/* rmi_clock_now_ns : unit -> int (untagged, noalloc)
   Nanoseconds since an arbitrary fixed point (boot, on Linux). */
intnat rmi_clock_now_ns(value v_unit)
{
    (void)v_unit;
    struct timespec ts;
    clock_gettime(CLOCK_MONOTONIC, &ts);
    return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value rmi_clock_now_ns_byte(value v_unit)
{
    return Val_long(rmi_clock_now_ns(v_unit));
}
