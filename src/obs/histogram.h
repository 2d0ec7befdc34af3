// Log-bucketed latency histogram (DESIGN.md "Observability").
//
// Values (nanoseconds of simulated time) land in power-of-two buckets:
// bucket i holds values in [2^(i-1), 2^i). 64 buckets cover the full uint64
// range, so Record never clamps.
//
// Percentiles are estimated by linear interpolation inside the covering
// bucket (exact at bucket boundaries, <= 2x off inside — fine for p50/p90/p99
// over latencies spanning decades); max and sum are tracked exactly.
#ifndef SRC_OBS_HISTOGRAM_H_
#define SRC_OBS_HISTOGRAM_H_

#include <array>
#include <bit>
#include <cstdint>

namespace nemesis {

class LatencyHistogram {
 public:
  static constexpr size_t kBuckets = 64;

  LatencyHistogram() = default;
  LatencyHistogram(const LatencyHistogram&) = delete;
  LatencyHistogram& operator=(const LatencyHistogram&) = delete;

  void Record(int64_t ns) {
    const uint64_t v = ns > 0 ? static_cast<uint64_t>(ns) : 0;
    const size_t bucket = v == 0 ? 0 : static_cast<size_t>(std::bit_width(v) - 1) + 1;
    ++buckets_[bucket < kBuckets ? bucket : kBuckets - 1];
    ++count_;
    sum_ += v;
    if (v > max_) {
      max_ = v;
    }
  }

  uint64_t count() const { return count_; }
  uint64_t sum_ns() const { return sum_; }
  uint64_t max_ns() const { return max_; }
  double mean_ns() const {
    const uint64_t n = count();
    return n > 0 ? static_cast<double>(sum_ns()) / static_cast<double>(n) : 0.0;
  }

  // p in (0, 1], e.g. 0.99. Returns 0 when empty.
  double PercentileNs(double p) const {
    const uint64_t n = count();
    if (n == 0) {
      return 0.0;
    }
    const double target = p * static_cast<double>(n);
    double cumulative = 0.0;
    for (size_t i = 0; i < kBuckets; ++i) {
      const double in_bucket = static_cast<double>(buckets_[i]);
      if (in_bucket == 0.0) {
        continue;
      }
      if (cumulative + in_bucket >= target) {
        const double lo = i == 0 ? 0.0 : static_cast<double>(uint64_t{1} << (i - 1));
        const double hi = i == 0 ? 1.0 : lo * 2.0;
        const double frac = (target - cumulative) / in_bucket;
        const double estimate = lo + frac * (hi - lo);
        const double cap = static_cast<double>(max_ns());
        return estimate < cap ? estimate : cap;
      }
      cumulative += in_bucket;
    }
    return static_cast<double>(max_ns());
  }

  void Reset() {
    buckets_.fill(0);
    count_ = 0;
    sum_ = 0;
    max_ = 0;
  }

 private:
  std::array<uint64_t, kBuckets> buckets_{};
  uint64_t count_ = 0;
  uint64_t sum_ = 0;
  uint64_t max_ = 0;
};

}  // namespace nemesis

#endif  // SRC_OBS_HISTOGRAM_H_
