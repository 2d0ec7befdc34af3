// The repository's benchmark: one process, one thread, the serial simulator.
//
//   perfbench --workload W --seed N --seconds S --trace 0|1
//   perfbench --selftest
//
// --trace 0 repeats the workload (set-up, measured phase, output checks)
// until S seconds have passed and prints the end-to-end metrics. --trace 1
// runs it three times — as configured, with observe toggled, and traced
// (observe on, heap allocations counted, core spans recorded, layer probes
// after the measured phase) — and prints the per-layer ledger. Either way the
// last stdout line is one JSON object:
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// and the exit status is 1 when an output check failed.
// SystemConfig is pinned in code: audit off, parallel_sim = 0, observe on
// only for storm_obs and the traced repetition. NEMESIS_OBS and
// NEMESIS_PARALLEL_SIM are not read.
#include <sys/resource.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "perfbench/clock.h"
#include "perfbench/selftest.h"
#include "perfbench/workloads.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

#if defined(__clang__)
#define PERFBENCH_COMPILER "clang " __clang_version__
#elif defined(__GNUC__)
#define PERFBENCH_COMPILER "gcc " __VERSION__
#else
#define PERFBENCH_COMPILER __VERSION__
#endif

namespace nemesis::perfbench {
namespace {

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool selftest = false;
};

bool ParseArgs(int argc, char** argv, Args* out) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--workload" && has_value) {
      out->workload = argv[++i];
    } else if (arg == "--seed" && has_value) {
      out->seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seconds" && has_value) {
      out->seconds = std::strtod(argv[++i], nullptr);
    } else if (arg == "--trace" && has_value) {
      out->trace = std::atoi(argv[++i]);
    } else if (arg == "--selftest") {
      out->selftest = true;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
      return false;
    }
  }
  return out->selftest || !out->workload.empty();
}

double Median(std::vector<double> v) {
  if (v.empty()) {
    return 0.0;
  }
  std::sort(v.begin(), v.end());
  const size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double PeakRssMiB() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // ru_maxrss is in KiB on Linux
}

double Get(const Metrics& m, const std::string& key) {
  auto it = m.find(key);
  return it != m.end() ? it->second : 0.0;
}

// The storm oracle: a full replay must execute exactly the events
// RunScenario (scenario_fuzz --tenants 200 --seed S) does.
std::string CheckAgainstRunScenario(const ScenarioSpec& spec, const StormCounts& got) {
  bool audit_ok = false;
  const StormCounts want = RunScenarioCounts(spec, &audit_ok);
  if (!audit_ok) {
    return "RunScenario's final audit failed";
  }
  return got == want ? "" : "storm counts differ from scenario_fuzz";
}

struct Unit {
  const char* name;
  const char* unit;
};

// The per-layer ledger, in BENCHMARK.json's order.
constexpr Unit kLayerMetrics[] = {
    {"sim.events_per_fault", "events/fault"},
    {"sim.allocs_per_fault", "allocs/fault"},
    {"sim.host_ns_per_event", "ns"},
    {"sim.event_ns", "ns"},
    {"sim.spawn_ns", "ns"},
    {"sim.notify_ns", "ns"},
    {"kernel.events_per_fault", "events/fault"},
    {"kernel.find_domain_ns", "ns"},
    {"kernel.trans_ns", "ns"},
    {"kernel.dispatch_us_p50", "us"},
    {"kernel.dispatch_us_p99", "us"},
    {"hw.translations_per_fault", "calls/fault"},
    {"hw.tlb_hit_ratio", "ratio"},
    {"hw.translate_ns", "ns"},
    {"hw.disk_busy_share", "ratio"},
    {"hw.disk_seeks_per_txn", "seeks/txn"},
    {"hw.disk_cache_hit_ratio", "ratio"},
    {"mm.find_stretch_ns", "ns"},
    {"mm.alloc_frame_ns", "ns"},
    {"mm.revocations_intrusive", "count"},
    {"mm.revocations_transparent", "count"},
    {"mm.domains_killed", "count"},
    {"app.fast_path_ratio", "ratio"},
    {"app.host_ns_per_fault", "ns"},
    {"app.fault_total_us_p50", "us"},
    {"app.fault_total_us_p99", "us"},
    {"app.queue_wait_us_p99", "us"},
    {"app.resolve_us_p50", "us"},
    {"app.prefetch_hit_ratio", "ratio"},
    {"app.prefetch_wasted", "count"},
    {"app.writeback_batched_ratio", "ratio"},
    {"sched.pick_ns", "ns"},
    {"usd.txns_per_fault", "txns/fault"},
    {"usd.requests_per_batch", "requests/batch"},
    {"usd.wait_us_p50", "us"},
    {"usd.wait_us_p99", "us"},
    {"usd.txn_ns", "ns"},
    {"obs.records_per_fault", "records/fault"},
    {"obs.record_ns", "ns"},
    {"obs.overhead_pct", "%"},
    {"core.create_app_us", "us"},
    {"core.shutdown_us", "us"},
    {"check.audit_ms", "ms"},
    {"trace_overhead_pct", "%"},
    {"run_s", "s"},
    {"peak_rss_mb", "MiB"},
    {"sim_mbps", "Mbit/s"},
    {"sim_stall_us", "us"},
    {"qos_ratio_err", "ratio"},
};

void PrintResult(bool correct, uint64_t attempted, uint64_t failed,
                 const std::vector<std::pair<Unit, double>>& metrics) {
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, \"metrics\": {",
              correct ? "true" : "false", static_cast<unsigned long long>(attempted),
              static_cast<unsigned long long>(failed));
  for (size_t i = 0; i < metrics.size(); ++i) {
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}", i > 0 ? ", " : "",
                metrics[i].first.name, metrics[i].second, metrics[i].first.unit);
  }
  std::printf("}}\n");
}

constexpr size_t kSetupSamples = 21;

int RunUntraced(Workload w, const ScenarioSpec* spec, double seconds) {
  RepOptions options;
  options.observe = ObservedByDefault(w);
  // A storm repetition can outlast --seconds on its own; its hundreds of
  // timed slices are enough for the median.
  const size_t min_reps = IsStorm(w) ? 1 : 3;
  std::vector<RepResult> reps;
  const double start = WallSeconds();
  while (reps.size() < min_reps || WallSeconds() - start < seconds) {
    reps.push_back(RunRep(w, spec, options));
    if (!reps.back().failure.empty()) {
      break;
    }
  }

  std::string failure;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<double> run, ns_per_fault, ns_per_event;
  for (const RepResult& r : reps) {
    if (failure.empty() && !r.failure.empty()) {
      failure = r.failure;
    }
    // The simulation is deterministic: every repetition must agree exactly.
    if (failure.empty() && (r.sim != reps[0].sim || r.layers != reps[0].layers ||
                            r.storm != reps[0].storm || r.faults != reps[0].faults)) {
      failure = "repetitions disagree";
    }
    attempted += r.attempted;
    failed += r.failed;
    run.push_back(r.run_s);
    ns_per_fault.insert(ns_per_fault.end(), r.slice_ns_per_fault.begin(),
                        r.slice_ns_per_fault.end());
    ns_per_event.push_back(r.events > 0 ? r.run_s * 1e9 / static_cast<double>(r.events) : 0.0);
  }
  // Set-up is short, so it is sampled more often than the workload runs.
  RepOptions setup_only = options;
  setup_only.setup_only = true;
  std::vector<double> setup;
  while (setup.size() < kSetupSamples) {
    setup.push_back(RunRep(w, spec, setup_only).setup_s);
  }
  if (failure.empty() && spec != nullptr) {
    failure = CheckAgainstRunScenario(*spec, reps[0].storm);
  }

  const RepResult& r0 = reps[0];
  const double failed_ratio = attempted > 0 ? static_cast<double>(failed) / attempted : 0.0;
  std::printf("  repetitions        %zu\n", reps.size());
  std::printf("  setup_s            %.6f s (host, median of %zu)\n", Median(setup), setup.size());
  std::printf("  run_s              %.6f s (host, median)\n", Median(run));
  std::printf("  host_ns_per_fault  %.2f ns (host, median of %zu slices; %llu faults per run)\n",
              Median(ns_per_fault), ns_per_fault.size(),
              static_cast<unsigned long long>(r0.faults));
  std::printf("  host_ns_per_event  %.2f ns (host, median; %llu events per run)\n",
              Median(ns_per_event), static_cast<unsigned long long>(r0.events));
  std::printf("  peak_rss_mb        %.1f MiB (host)\n", PeakRssMiB());
  std::printf("  sim_mbps           %.4f Mbit/s (sim)\n", Get(r0.sim, "sim_mbps"));
  std::printf("  sim_stall_us       %.4f us (sim)\n", Get(r0.sim, "sim_stall_us"));
  std::printf("  qos_ratio_err      %.6f ratio (sim)\n", Get(r0.sim, "qos_ratio_err"));
  std::printf("  failed_ratio       %.6f ratio (%llu of %llu)\n", failed_ratio,
              static_cast<unsigned long long>(failed), static_cast<unsigned long long>(attempted));
  std::printf("  oracles            %s\n", failure.empty() ? "PASS" : failure.c_str());
  PrintResult(failure.empty(), attempted, failed,
              {{{"setup_s", "s"}, Median(setup)},
               {{"host_ns_per_fault", "ns"}, Median(ns_per_fault)}});
  return failure.empty() ? 0 : 1;
}

double PctChange(double value, double base) {
  return base > 0.0 ? (value / base - 1.0) * 100.0 : 0.0;
}

int RunTraced(Workload w, const ScenarioSpec* spec) {
  const bool own_observe = ObservedByDefault(w);
  RepOptions plain;
  plain.observe = own_observe;
  RepOptions toggled;
  toggled.observe = !own_observe;
  RepOptions traced;
  traced.observe = true;
  traced.traced = true;
  const RepResult base = RunRep(w, spec, plain);
  const double base_rss_mb = PeakRssMiB();  // before the observed repetitions grow the heap
  const RepResult other = RunRep(w, spec, toggled);
  const RepResult full = RunRep(w, spec, traced);

  std::string failure = !base.failure.empty()    ? base.failure
                        : !other.failure.empty() ? other.failure
                                                 : full.failure;
  // Observation and tracing must not change what is simulated.
  if (failure.empty() && (base.sim != other.sim || base.sim != full.sim ||
                          base.storm != other.storm || base.storm != full.storm ||
                          base.events != full.events)) {
    failure = "observed or traced run changed the simulation";
  }
  if (failure.empty() && spec != nullptr) {
    failure = CheckAgainstRunScenario(*spec, base.storm);
  }

  Metrics m = base.layers;  // exact counts from the untraced repetition
  for (const auto& [key, value] : full.layers) {
    if (!m.contains(key)) {
      m[key] = value;  // histograms, allocations, records, spans and probes
    }
  }
  m["sim.host_ns_per_event"] = base.events > 0 ? base.run_s * 1e9 / base.events : 0.0;
  m["app.host_ns_per_fault"] = base.faults > 0 ? base.run_s * 1e9 / base.faults : 0.0;
  m["obs.overhead_pct"] =
      own_observe ? PctChange(base.run_s, other.run_s) : PctChange(other.run_s, base.run_s);
  m["trace_overhead_pct"] = PctChange(full.run_s, base.run_s);
  m["check.audit_ms"] = base.audit_ms;
  m["run_s"] = base.run_s;
  m["peak_rss_mb"] = base_rss_mb;
  for (const char* key : {"sim_mbps", "sim_stall_us", "qos_ratio_err"}) {
    m[key] = Get(base.sim, key);
  }

  std::vector<std::pair<Unit, double>> out;
  for (const Unit& u : kLayerMetrics) {
    out.push_back({u, Get(m, u.name)});
    std::printf("  %-28s %14.4f %s\n", u.name, Get(m, u.name), u.unit);
  }
  std::printf("  oracles            %s\n", failure.empty() ? "PASS" : failure.c_str());
  PrintResult(failure.empty(), base.attempted + other.attempted + full.attempted,
              base.failed + other.failed + full.failed, out);
  return failure.empty() ? 0 : 1;
}

}  // namespace
}  // namespace nemesis::perfbench

int main(int argc, char** argv) {
  using namespace nemesis::perfbench;
#if defined(__OPTIMIZE__) && defined(NDEBUG)
  constexpr bool kOptimised = true;
#else
  constexpr bool kOptimised = false;
#endif
  if (!kOptimised) {
    std::fprintf(stderr,
                 "perfbench: refusing to time an unoptimised or assert-enabled build (%s)\n",
                 PERFBENCH_BUILD_TYPE);
    return 2;
  }
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    std::fprintf(stderr,
                 "usage: perfbench --workload fig7|storm|pipeline_rw|storm_obs --seed N "
                 "--seconds S --trace 0|1\n       perfbench --selftest\n");
    return 2;
  }
  if (args.selftest) {
    return RunSelfTest();
  }
  Workload w;
  if (!ParseWorkload(args.workload, &w) || (args.trace != 0 && args.trace != 1)) {
    std::fprintf(stderr, "perfbench: unknown workload '%s' or trace level %d\n",
                 args.workload.c_str(), args.trace);
    return 2;
  }
  std::printf("perfbench workload=%s seed=%llu trace=%d build=%s compiler=\"%s\" nproc=%u\n",
              args.workload.c_str(), static_cast<unsigned long long>(args.seed), args.trace,
              PERFBENCH_BUILD_TYPE, PERFBENCH_COMPILER, std::thread::hardware_concurrency());
  std::fflush(stdout);
  std::optional<nemesis::ScenarioSpec> spec;
  if (IsStorm(w)) {
    spec = nemesis::GenerateTenantStorm(args.seed, kStormTenants);
  }
  const nemesis::ScenarioSpec* spec_ptr = spec ? &*spec : nullptr;
  return args.trace == 0 ? RunUntraced(w, spec_ptr, args.seconds) : RunTraced(w, spec_ptr);
}
