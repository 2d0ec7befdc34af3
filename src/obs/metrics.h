// Central metrics registry (DESIGN.md "Observability").
//
// One registration API for the three shapes of statistic the tree grows:
//
//   * owned counters    — NewCounter("mm.app1.faults") -> StatCounter* the
//                         probe site bumps directly;
//   * owned histograms  — NewHistogram("domain.app1.fault_total_ns") -> a
//                         log-bucketed LatencyHistogram (p50/p90/p99/max);
//   * gauges            — RegisterGauge("tlb.hits", fn) wraps an EXISTING
//                         component counter without moving it, which is how
//                         the hot-path counters (TLB, simulator event loop)
//                         are absorbed.
//
// SnapshotJson renders everything, keys sorted, so two runs of a
// deterministic workload emit byte-identical snapshots regardless of
// registration order. Any bench can WriteJson at the end
// of a measurement window; tools/report_qos.py consumes the file.
#ifndef SRC_OBS_METRICS_H_
#define SRC_OBS_METRICS_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <string>

#include "src/obs/counter.h"
#include "src/obs/histogram.h"

namespace nemesis {

class MetricsRegistry {
 public:
  MetricsRegistry() = default;
  MetricsRegistry(const MetricsRegistry&) = delete;
  MetricsRegistry& operator=(const MetricsRegistry&) = delete;

  // Creates (or returns the existing) named counter / histogram. Pointers
  // stay valid for the registry's lifetime.
  StatCounter* NewCounter(const std::string& name);
  LatencyHistogram* NewHistogram(const std::string& name);

  // Registers a read-only view over an existing statistic. Re-registering a
  // name replaces the previous gauge. The callable must outlive the registry
  // or the last Snapshot call, whichever comes first.
  void RegisterGauge(const std::string& name, std::function<uint64_t()> fn);

  size_t counter_count() const { return counters_.size(); }
  size_t histogram_count() const { return histograms_.size(); }
  size_t gauge_count() const { return gauges_.size(); }

  // {"counters": {...}, "gauges": {...}, "histograms": {name: {count, mean_ns,
  // p50_ns, p90_ns, p99_ns, max_ns}}} with sorted keys.
  std::string SnapshotJson() const;
  bool WriteJson(const std::string& path) const;

 private:
  std::map<std::string, std::unique_ptr<StatCounter>> counters_;
  std::map<std::string, std::unique_ptr<LatencyHistogram>> histograms_;
  std::map<std::string, std::function<uint64_t()>> gauges_;
};

}  // namespace nemesis

#endif  // SRC_OBS_METRICS_H_
