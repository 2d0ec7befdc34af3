// Figure 9 (paper §7.2, "File-System Isolation"): a file-system client with a
// 50% disk guarantee (125 ms per 250 ms) reads page-sized transactions from
// its own partition with deep pipelining. It is run first alone, then
// concurrently with two paging applications holding 10% and 20% guarantees.
//
// Expected shape (paper): "the throughput observed by the file-system client
// remains almost exactly the same despite the addition of two heavily paging
// applications."
#include <cstdio>

#include "src/core/system.h"
#include "src/core/workloads.h"
#include "src/obs/trace_export.h"

namespace nemesis {
namespace {

AppConfig Pager(const char* name, int64_t slice_ms) {
  AppConfig cfg;
  cfg.name = name;
  cfg.contract = {2, 0};
  cfg.driver_max_frames = 2;
  cfg.stretch_bytes = 4 * kMiB;
  cfg.swap_bytes = 16 * kMiB;
  cfg.disk_qos = QosSpec{Milliseconds(250), Milliseconds(slice_ms), false, Milliseconds(10)};
  return cfg;
}

// Runs the FS client for `measure`, optionally against two paging apps.
// Prints the per-5s bandwidth series and returns the average MB/s.
double RunFs(bool with_pagers, SimDuration measure) {
  SystemConfig syscfg;
  syscfg.observe = ObserveFromEnv();
  System system(syscfg);
  auto fs = system.usd().OpenClient(
      "fs", QosSpec{Milliseconds(250), Milliseconds(125), false, Milliseconds(10)}, 8);
  if (!fs.has_value()) {
    std::fprintf(stderr, "fs client admission failed\n");
    return 0.0;
  }
  // A separate partition on the same disk, far from the swap partition.
  const Extent fs_extent{2500000, 500000};
  (*fs)->AddExtent(fs_extent);

  if (with_pagers) {
    AppDomain* a = system.CreateApp(Pager("pager-10%", 25));
    AppDomain* b = system.CreateApp(Pager("pager-20%", 50));
    // Prime both pagers so the measurement phase is steady-state paging.
    bool pa = false;
    bool pb = false;
    a->SpawnWorkload(SequentialPass(*a, AccessType::kWrite, &pa), "prime");
    b->SpawnWorkload(SequentialPass(*b, AccessType::kWrite, &pb), "prime");
    system.sim().RunUntil(Seconds(600));
    static uint64_t bytes_a = 0;
    static uint64_t bytes_b = 0;
    static bool ok_a = false;
    static bool ok_b = false;
    const SimTime until = system.sim().Now() + measure;
    a->SpawnWorkload(SequentialAccessLoop(*a, AccessType::kRead, until, &bytes_a, &ok_a), "loop");
    b->SpawnWorkload(SequentialAccessLoop(*b, AccessType::kRead, until, &bytes_b, &ok_b), "loop");
  }

  uint64_t fs_bytes = 0;
  const SimTime start = system.sim().Now();
  const SimTime until = start + measure;
  system.sim().Spawn(PipelinedFsClient(system.sim(), *fs, fs_extent, 8, until, &fs_bytes), "fs");
  system.sim().Spawn(WatchProgress(system.sim(), system.trace(), 99, &fs_bytes, Seconds(5), until),
                     "fs-watch");
  system.sim().RunUntil(until);

  std::printf("  %s:\n", with_pagers ? "with two paging apps (10%, 20%)" : "alone");
  std::printf("    time_s  fs_MB/s\n");
  for (const auto& rec : system.trace().Filter("workload", "progress", 99)) {
    std::printf("    %6.0f  %7.3f\n", ToSeconds(rec.time - start), rec.value_b / 5.0 / 1e6);
  }
  const double avg = static_cast<double>(fs_bytes) / ToSeconds(measure) / 1e6;
  std::printf("    average %7.3f MB/s\n", avg);

  if (syscfg.observe && with_pagers) {
    // The contended run is the interesting one for crosstalk: publish its
    // fault spans and metrics for tools/report_qos.py.
    system.obs().conformance().Flush(system.sim().Now());
    if (system.trace().WriteCsv("fig9_trace.csv")) {
      std::printf("    trace written to fig9_trace.csv\n");
    }
    if (system.obs().registry().WriteJson("fig9_metrics.json")) {
      std::printf("    metrics snapshot written to fig9_metrics.json\n");
    }
    if (WritePerfettoJson(system.trace(), "trace_fig9.json")) {
      std::printf("    Perfetto trace written to trace_fig9.json\n");
    }
  }
  return avg;
}

}  // namespace
}  // namespace nemesis

int main() {
  using namespace nemesis;
  std::printf("=== Figure 9: File-System Isolation ===\n");
  std::printf("Paper: FS client bandwidth nearly identical alone vs under paging load.\n\n");
  const double alone = RunFs(false, Seconds(60));
  std::printf("\n");
  const double contended = RunFs(true, Seconds(60));
  const double ratio = contended / alone;
  std::printf("\n  bandwidth ratio (contended / alone) = %.3f (paper: ~1.0)\n", ratio);
  const bool ok = ratio > 0.85 && ratio < 1.15;
  std::printf("  shape check: %s\n", ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
