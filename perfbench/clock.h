// Host clocks for the benchmark's own timings.
#ifndef PERFBENCH_CLOCK_H_
#define PERFBENCH_CLOCK_H_

#include <time.h>

#include <chrono>
#include <cstdint>

namespace nemesis::perfbench {

// CPU time of the calling thread, user plus system (page faults included).
// The benchmark runs on one thread, so this is all of its work; unlike wall
// time it leaves out the time the thread waits for a core on a shared host.
// Every host-time metric uses it.
inline uint64_t CpuNs() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<uint64_t>(ts.tv_sec) * 1000000000u + static_cast<uint64_t>(ts.tv_nsec);
}

inline double CpuSecondsSince(uint64_t start_ns) {
  return static_cast<double>(CpuNs() - start_ns) / 1e9;
}

// Wall clock, only for the --seconds budget of a run.
inline double WallSeconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

}  // namespace nemesis::perfbench

#endif  // PERFBENCH_CLOCK_H_
