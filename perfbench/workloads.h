// The benchmark's workloads, each run as one repetition: build a System
// through the public API, set up, run a fixed simulated phase (the measured
// phase), then check the outputs.
//
//   fig7         the paper's Figure 7: three 2-frame domains with 25/50/100 ms
//                of disk per 250 ms, a write priming pass, then sequential
//                read loops for 120 s of simulated time.
//   storm        GenerateTenantStorm(seed, 200) replayed to the end by
//                StormDriver.
//   pipeline_rw  four 16-frame domains with the async pager on, 2 MiB
//                stretches, 200 ns of CPU per byte; two write loops and two
//                read loops under different guarantees, then a seeded
//                write/read-back check through VMem::Write and VMem::Read.
//   storm_obs    the storm spec with SystemConfig::observe on.
//
// Every workload is a closed loop in simulated time: each access waits for
// its own fault. Only the storms use the seed.
#ifndef PERFBENCH_WORKLOADS_H_
#define PERFBENCH_WORKLOADS_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "perfbench/storm_driver.h"
#include "src/core/system.h"
#include "src/sim/scenario_gen.h"

namespace nemesis::perfbench {

enum class Workload { kFig7, kStorm, kPipelineRw, kStormObs };

inline constexpr int kStormTenants = 200;

bool ParseWorkload(const std::string& name, Workload* out);
bool IsStorm(Workload w);
// Whether the workload's untraced repetitions run with observe on.
bool ObservedByDefault(Workload w);

using Metrics = std::map<std::string, double>;

struct RepOptions {
  bool observe = false;
  // Count heap allocations over the measured phase, time the benchmark's own
  // CreateApp/Shutdown calls, and run the layer probes (probes.h) after the
  // final audit.
  bool traced = false;
  // Stop after the set-up; only RepResult::setup_s is filled.
  bool setup_only = false;
};

struct RepResult {
  double setup_s = 0.0;
  double run_s = 0.0;
  // Host ns per simulated fault of each timed slice of the measured phase
  // that took enough faults to time.
  std::vector<double> slice_ns_per_fault;
  uint64_t faults = 0;  // simulated faults in the measured phase
  uint64_t events = 0;  // simulator events in the measured phase
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::string failure;  // first failed oracle; empty when the outputs are right
  double audit_ms = 0.0;
  // Simulated-time results (deterministic): sim_mbps, sim_stall_us and
  // qos_ratio_err.
  Metrics sim;
  // Per-layer counts and ratios over the measured phase; stage histograms
  // when observe is on; allocation counts, core spans and probes when traced.
  Metrics layers;
  StormCounts storm;  // storms only: the counters scenario_fuzz reports
};

// `storm_spec` is required for the storm workloads and ignored otherwise.
RepResult RunRep(Workload w, const ScenarioSpec* storm_spec, const RepOptions& options);

}  // namespace nemesis::perfbench

#endif  // PERFBENCH_WORKLOADS_H_
