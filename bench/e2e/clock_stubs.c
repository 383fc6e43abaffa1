/* Monotonic nanosecond clock for the benchmark's spans and layer
   counters. Unix.gettimeofday has microsecond resolution and can step
   backwards; per-call layer timing needs neither. */

#include <time.h>
#include <caml/mlvalues.h>

intnat e2e_now_ns(value unit)
{
  struct timespec ts;
  (void)unit;
  clock_gettime(CLOCK_MONOTONIC, &ts);
  return (intnat)ts.tv_sec * 1000000000 + (intnat)ts.tv_nsec;
}

value e2e_now_ns_byte(value unit)
{
  return Val_long(e2e_now_ns(unit));
}
