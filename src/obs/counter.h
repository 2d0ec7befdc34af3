// Statistic counter for the observability layer (DESIGN.md "Observability").
//
// StatCounter is the one sanctioned shape for event-count statistics outside
// src/obs/ itself: a plain counter (the simulation is single-threaded) with
// a registry-friendly interface. tools/analyze.py's authority-stats rule
// points raw `uint64_t foo_count_` members here.
//
// Header-only and dependency-free so layers below the obs library (the
// simulator, the hardware models) could adopt it without a link cycle.
#ifndef SRC_OBS_COUNTER_H_
#define SRC_OBS_COUNTER_H_

#include <cstdint>

namespace nemesis {

class StatCounter {
 public:
  StatCounter() = default;
  StatCounter(const StatCounter&) = delete;
  StatCounter& operator=(const StatCounter&) = delete;

  void Inc() { ++v_; }
  void Add(uint64_t n) { v_ += n; }
  uint64_t value() const { return v_; }

  // For tests and measurement-window resets; not for normal accounting.
  void Reset() { v_ = 0; }

 private:
  uint64_t v_ = 0;
};

// Running-maximum statistic (e.g. a queue-depth high-water mark): the
// sanctioned shape for max-style stats outside src/obs/.
class StatHighWater {
 public:
  StatHighWater() = default;
  StatHighWater(const StatHighWater&) = delete;
  StatHighWater& operator=(const StatHighWater&) = delete;

  void Observe(uint64_t n) {
    if (n > v_) {
      v_ = n;
    }
  }
  uint64_t value() const { return v_; }
  void Reset() { v_ = 0; }

 private:
  uint64_t v_ = 0;
};

}  // namespace nemesis

#endif  // SRC_OBS_COUNTER_H_
