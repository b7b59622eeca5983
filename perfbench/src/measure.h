// Clocks, CPU and memory readings shared by the workloads.
#pragma once

#include <sys/resource.h>
#include <time.h>

#include <chrono>

namespace perfbench {

/// Monotonic milliseconds (sub-ms resolution) since an arbitrary epoch.
inline double mono_ms() {
  return std::chrono::duration<double, std::milli>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

inline double tv_ms(const timeval& tv) {
  return static_cast<double>(tv.tv_sec) * 1e3 +
         static_cast<double>(tv.tv_usec) / 1e3;
}

/// User + system CPU of every reaped child process so far.
inline double children_cpu_ms() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return tv_ms(ru.ru_utime) + tv_ms(ru.ru_stime);
}

/// CPU time of the calling thread.
inline double thread_cpu_ms() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) * 1e3 +
         static_cast<double>(ts.tv_nsec) / 1e6;
}

/// Peak RSS of the largest reaped child so far, MB.
inline double children_peak_rss_mb() {
  rusage ru{};
  getrusage(RUSAGE_CHILDREN, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;
}

}  // namespace perfbench
