// Shared harness for the paper's paging experiments (§7.2, Figures 7 and 8):
// N self-paging applications, each with 16 KiB of physical memory (2 frames),
// a 4 MiB stretch and 16 MiB of swap, sequentially accessing every byte in a
// loop while a watch thread logs progress every 5 seconds.
#ifndef BENCH_PAGING_EXPERIMENT_H_
#define BENCH_PAGING_EXPERIMENT_H_

#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/core/workloads.h"
#include "src/obs/trace_export.h"

namespace nemesis {

struct PagingAppSpec {
  std::string name;
  int64_t slice_ms;  // per 250 ms period
};

struct PagingExperimentConfig {
  std::vector<PagingAppSpec> apps;
  bool forgetful = false;       // Figure 8: paging out only
  AccessType loop_access = AccessType::kRead;
  int64_t laxity_ms = 10;
  size_t stretch_bytes = 4 * kMiB;
  uint64_t frames = 2;          // 16 KiB of physical memory
  uint64_t swap_bytes = 16 * kMiB;
  SimDuration measure = Seconds(120);
  SimDuration sample_interval = Seconds(5);
  std::string trace_csv;        // USD scheduler trace output path ("" = none)
};

struct PagingExperimentResult {
  // Per app: Mbit/s progress samples (one per sample interval) and totals.
  std::vector<std::vector<double>> mbps_samples;
  std::vector<uint64_t> total_bytes;
  std::vector<double> avg_mbps;
  double max_lax_ms = 0.0;
};

// Runs the experiment and prints the progress series (one row per sample) in
// the shape of the paper's figures.
inline PagingExperimentResult RunPagingExperiment(const PagingExperimentConfig& config) {
  SystemConfig syscfg;
  syscfg.observe = ObserveFromEnv();
  System system(syscfg);
  const size_t n = config.apps.size();
  std::vector<AppDomain*> apps(n);
  for (size_t i = 0; i < n; ++i) {
    AppConfig cfg;
    cfg.name = config.apps[i].name;
    cfg.contract = {config.frames, 0};
    cfg.driver_max_frames = config.frames;
    cfg.stretch_bytes = config.stretch_bytes;
    cfg.swap_bytes = config.swap_bytes;
    cfg.forgetful = config.forgetful;
    cfg.disk_qos = QosSpec{Milliseconds(250), Milliseconds(config.apps[i].slice_ms), false,
                           Milliseconds(config.laxity_ms)};
    apps[i] = system.CreateApp(cfg);
  }

  // Initialisation, as in the paper: one full write pass so every page is
  // dirtied (and, for the non-forgetful driver, ends up with a swap copy).
  std::vector<char> primed(n, 0);
  for (size_t i = 0; i < n; ++i) {
    bool* flag = reinterpret_cast<bool*>(&primed[i]);
    apps[i]->SpawnWorkload(SequentialPass(*apps[i], AccessType::kWrite, flag), "prime");
  }
  system.sim().RunUntil(Seconds(600));
  for (size_t i = 0; i < n; ++i) {
    if (primed[i] == 0) {
      std::fprintf(stderr, "priming did not finish for %s\n", config.apps[i].name.c_str());
    }
  }
  system.trace().Clear();  // measure only the steady state

  // Measurement loop with the watch threads.
  std::vector<uint64_t> bytes(n, 0);
  std::vector<char> ok(n, 0);
  const SimTime start = system.sim().Now();
  const SimTime until = start + config.measure;
  for (size_t i = 0; i < n; ++i) {
    apps[i]->SpawnWorkload(SequentialAccessLoop(*apps[i], config.loop_access, until, &bytes[i],
                                                reinterpret_cast<bool*>(&ok[i])),
                           "loop");
    apps[i]->SpawnWorkload(WatchProgress(system.sim(), system.trace(), static_cast<int>(i),
                                         &bytes[i], config.sample_interval, until),
                           "watch");
  }
  system.sim().RunUntil(until);

  // Collect progress samples from the trace.
  PagingExperimentResult result;
  result.mbps_samples.resize(n);
  result.total_bytes.assign(bytes.begin(), bytes.end());
  const double interval_s = ToSeconds(config.sample_interval);
  for (size_t i = 0; i < n; ++i) {
    for (const auto& rec : system.trace().Filter("workload", "progress", static_cast<int>(i))) {
      result.mbps_samples[i].push_back(rec.value_b * 8.0 / 1e6 / interval_s);
    }
    result.avg_mbps.push_back(static_cast<double>(bytes[i]) * 8.0 / 1e6 /
                              ToSeconds(config.measure));
  }
  for (const auto& rec : system.trace().Filter("usd", "lax")) {
    result.max_lax_ms = std::max(result.max_lax_ms, rec.value_a);
  }

  // Print the progress series.
  std::printf("  time_s");
  for (size_t i = 0; i < n; ++i) {
    std::printf("  %10s", config.apps[i].name.c_str());
  }
  std::printf("   (sustained Mbit/s per %.0f s window)\n", interval_s);
  size_t rows = 0;
  for (size_t i = 0; i < n; ++i) {
    rows = std::max(rows, result.mbps_samples[i].size());
  }
  for (size_t r = 0; r < rows; ++r) {
    std::printf("  %6.0f", (static_cast<double>(r) + 1) * interval_s);
    for (size_t i = 0; i < n; ++i) {
      if (r < result.mbps_samples[i].size()) {
        std::printf("  %10.3f", result.mbps_samples[i][r]);
      } else {
        std::printf("  %10s", "-");
      }
    }
    std::printf("\n");
  }
  std::printf("  average");
  for (size_t i = 0; i < n; ++i) {
    std::printf("  %10.3f", result.avg_mbps[i]);
  }
  std::printf("\n");

  if (!config.trace_csv.empty()) {
    if (syscfg.observe) {
      // Close the in-flight memory accounting periods so the conformance
      // verdict stream covers the whole measured window before the dump.
      system.obs().conformance().Flush(system.sim().Now());
    }
    if (system.trace().WriteCsv(config.trace_csv)) {
      std::printf("  USD scheduler trace written to %s\n", config.trace_csv.c_str());
    }
    if (syscfg.observe) {
      // NEMESIS_OBS runs additionally publish a metrics snapshot next to the
      // trace; tools/report_qos.py joins the two into the QoS-crosstalk report.
      std::string metrics_path = config.trace_csv;
      const size_t dot = metrics_path.rfind(".csv");
      if (dot != std::string::npos) {
        metrics_path.resize(dot);
      }
      metrics_path += "_metrics.json";
      if (system.obs().registry().WriteJson(metrics_path)) {
        std::printf("  Metrics snapshot written to %s\n", metrics_path.c_str());
      }
      // Shared-timeline trace for ui.perfetto.dev: fault spans, disk slices,
      // bg I/O and conformance verdicts in one catapult JSON.
      std::string stem = config.trace_csv;
      const size_t cut = stem.find_first_of("_.");
      if (cut != std::string::npos) {
        stem.resize(cut);
      }
      const std::string perfetto_path = "trace_" + stem + ".json";
      if (WritePerfettoJson(system.trace(), perfetto_path)) {
        std::printf("  Perfetto trace written to %s\n", perfetto_path.c_str());
      }
    }
  }

  // USD scheduler-trace analysis — the textual rendering of the paper's
  // bottom plots: per-client transaction counts and durations, batching
  // (consecutive transactions by one client, the effect laxity produces),
  // laxity episodes, and periodic allocations.
  std::printf("\n  USD scheduler trace analysis (%.0f s steady state):\n",
              ToSeconds(config.measure));
  std::printf("    client      txns  txn/period  mean_ms  max_ms  mean_batch  lax_episodes  "
              "max_lax_ms  allocs\n");
  // Collect txn records in time order to compute batches.
  const auto txns = system.trace().Filter("usd", "txn");
  const double periods = ToSeconds(config.measure) / 0.250;
  std::map<int, std::vector<double>> durations;
  std::map<int, std::vector<size_t>> batches;
  int current_client = -1;
  size_t current_batch = 0;
  for (const auto& rec : txns) {
    durations[rec.client].push_back(rec.value_a);
    if (rec.client == current_client) {
      ++current_batch;
    } else {
      if (current_client >= 0) {
        batches[current_client].push_back(current_batch);
      }
      current_client = rec.client;
      current_batch = 1;
    }
  }
  if (current_client >= 0) {
    batches[current_client].push_back(current_batch);
  }
  for (const auto& [client, durs] : durations) {
    double sum = 0.0;
    double max = 0.0;
    for (double d : durs) {
      sum += d;
      max = std::max(max, d);
    }
    double batch_sum = 0.0;
    for (size_t b : batches[client]) {
      batch_sum += static_cast<double>(b);
    }
    const auto lax = system.trace().Filter("usd", "lax", client);
    double max_lax = 0.0;
    for (const auto& rec : lax) {
      max_lax = std::max(max_lax, rec.value_a);
    }
    const size_t allocs = system.trace().Filter("usd", "alloc", client).size();
    std::printf("    %-10d %5zu  %10.1f  %7.2f  %6.2f  %10.1f  %12zu  %10.2f  %6zu\n", client,
                durs.size(), static_cast<double>(durs.size()) / periods,
                sum / static_cast<double>(durs.size()), max,
                batches[client].empty() ? 0.0 : batch_sum / static_cast<double>(batches[client].size()),
                lax.size(), max_lax, allocs);
  }
  return result;
}

}  // namespace nemesis

#endif  // BENCH_PAGING_EXPERIMENT_H_
