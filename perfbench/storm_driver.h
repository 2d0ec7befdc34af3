// Tenant-storm replay through the public System API.
//
// RunScenario (src/core/scenario_runner.h) runs a ScenarioSpec to the end in
// one call and returns only totals. The benchmark needs to stop the storm at
// a fixed point, time the admission and teardown calls it makes, and read the
// layers' counters afterwards, so this driver replays the same spec with the
// same semantics: every admission and script event is its own simulator
// event, scheduled in the same order with the same burst seeds, so a full
// replay executes exactly the events RunScenario does and its fault,
// revocation, kill and event counts must equal RunScenario's.
#ifndef PERFBENCH_STORM_DRIVER_H_
#define PERFBENCH_STORM_DRIVER_H_

#include <cstdint>
#include <map>
#include <memory>
#include <vector>

#include "perfbench/clock.h"
#include "src/core/system.h"
#include "src/sim/scenario_gen.h"

namespace nemesis::perfbench {

// Host-time accumulator for the benchmark's own calls into one layer.
struct HostSpan {
  uint64_t calls = 0;
  uint64_t ns = 0;
  double MeanUs() const { return calls > 0 ? static_cast<double>(ns) / 1e3 / calls : 0.0; }
};

// Adds its own lifetime to `span` as one call; does nothing when `span` is
// null.
class SpanTimer {
 public:
  explicit SpanTimer(HostSpan* span) : span_(span), t0_(span != nullptr ? CpuNs() : 0) {}
  ~SpanTimer() {
    if (span_ != nullptr) {
      span_->ns += CpuNs() - t0_;
      ++span_->calls;
    }
  }
  SpanTimer(const SpanTimer&) = delete;
  SpanTimer& operator=(const SpanTimer&) = delete;

 private:
  HostSpan* span_;
  uint64_t t0_;
};

// Host time spent in CreateApp and AppDomain::Shutdown, recorded only when a
// caller passes a non-null CoreSpans (the traced run).
struct CoreSpans {
  HostSpan create_app;
  HostSpan shutdown;
};

// What the probes need to size their calls like the workload: its live
// domains, every frames contract and every disk QoS spec it admitted.
struct Shape {
  std::vector<AppDomain*> live_apps;
  std::vector<FramesContract> contracts;
  std::vector<QosSpec> qos;
};

// The counters scenario_fuzz prints (plus events_executed), for the oracle.
struct StormCounts {
  uint64_t faults = 0;
  uint64_t revocations_transparent = 0;
  uint64_t revocations_intrusive = 0;
  uint64_t revocations_cancelled = 0;
  uint64_t domains_killed = 0;
  uint64_t events_executed = 0;

  bool operator==(const StormCounts&) const = default;
};

// RunScenario's totals for `spec`, which is what
// scenario_fuzz --tenants N --seed S runs and reports. *audit_ok receives its
// final audit verdict.
StormCounts RunScenarioCounts(const ScenarioSpec& spec, bool* audit_ok);

class StormDriver {
 public:
  // Builds the System and schedules every admission and script event. Runs
  // no event: the first RunUntil executes the t=0 admissions.
  StormDriver(const ScenarioSpec& spec, bool observe, CoreSpans* spans);
  StormDriver(const StormDriver&) = delete;
  StormDriver& operator=(const StormDriver&) = delete;

  System& system() { return *system_; }
  // Last scheduled admission or event plus RunScenario's default drain.
  SimTime end() const { return end_; }
  void RunUntil(SimTime t) { system_->sim().RunUntil(t); }

  // Summed over every admitted domain, like RunScenario's totals.
  StormCounts Counts();
  // Admitted domains (including killed and shut-down ones).
  const std::map<int, AppDomain*>& apps() const { return apps_; }
  // The contract of every admission so far and the disk QoS of every paged
  // one (nailed domains open no swap client); live_apps is left empty.
  const Shape& admitted() const { return admitted_; }

 private:
  void Admit(const ScenarioDomainSpec& d);
  void Fire(const ScenarioEvent& e, uint64_t burst_seed);

  std::unique_ptr<System> system_;
  CoreSpans* spans_;
  size_t ndomains_;
  SimTime end_ = 0;
  std::map<int, AppDomain*> apps_;
  std::map<int, ScenarioDomainSpec> doms_;
  Shape admitted_;
};

}  // namespace nemesis::perfbench

#endif  // PERFBENCH_STORM_DRIVER_H_
