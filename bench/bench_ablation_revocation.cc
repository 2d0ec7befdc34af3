// Ablation: intrusive revocation under contract over-commit (paper §6.2).
//
// A hog domain holds nearly all of memory optimistically (g=4, x=40) and
// loops over its stretch; at t=1s an aggressor with a large pure guarantee
// (g=24, x=0) is admitted and faults its working set in. Every aggressor
// fault past the free pool forces the allocator to revoke a frame from the
// hog — the deliberately adversarial case the figure benches never reach —
// so this bench deterministically publishes a QoS report with a populated
// aggressor-attribution table (tools/report_qos.py --require-attribution).
//
// Gates (run_benches.py greps "shape check"): >= 1 intrusive revocation, no
// domain killed (the hog's self-pager complies within the deadline), and
// both workloads finishing their passes.
#include <cstdio>
#include <string>

#include "src/core/system.h"
#include "src/core/workloads.h"
#include "src/obs/trace_export.h"

using namespace nemesis;

int main() {
  std::printf("=== Ablation: intrusive revocation under over-commit ===\n\n");

  SystemConfig sys_cfg;
  sys_cfg.phys_frames = 48;
  sys_cfg.observe = ObserveFromEnv();
  System system(sys_cfg);

  AppConfig hog_cfg;
  hog_cfg.name = "hog";
  hog_cfg.contract = {4, 40};
  hog_cfg.driver_max_frames = 44;
  hog_cfg.stretch_bytes = 44 * sys_cfg.page_size;
  hog_cfg.swap_bytes = 1 * kMiB;
  // A second MM worker keeps the revocation job from queueing behind a fault
  // that is itself blocked waiting for frames — with one worker the hog
  // could never comply while paging under pressure. A 40% disk slice bounds
  // the dirty-page cleaning latency that compliance depends on.
  hog_cfg.mm_workers = 2;
  hog_cfg.disk_qos = QosSpec{Milliseconds(250), Milliseconds(100), false, Milliseconds(10)};
  AppDomain* hog = system.CreateApp(hog_cfg);

  // "T may be relatively far in the future ... to allow the application to
  // clean dirty pages": every hog frame is dirty, so compliance includes a
  // QoS-scheduled swap write.
  system.frames().set_revocation_timeout(Milliseconds(300));

  // The hog dirties its whole quota, then keeps looping so its fault windows
  // overlap the revocation windows (that overlap is what the report
  // attributes to the aggressor).
  bool hog_primed = false;
  hog->SpawnWorkload(SequentialPass(*hog, AccessType::kWrite, &hog_primed), "prime");
  uint64_t hog_bytes = 0;
  bool hog_ok = false;
  system.sim().CallAt(Milliseconds(500), [&] {
    hog->SpawnWorkload(
        SequentialAccessLoop(*hog, AccessType::kWrite, Seconds(4), &hog_bytes, &hog_ok), "loop");
  });

  // The aggressor arrives while memory is full. Its guarantee is honoured by
  // revoking the hog's optimistic frames one by one.
  bool aggressor_ok = false;
  AppDomain* aggressor = nullptr;
  system.sim().CallAt(Seconds(1), [&] {
    AppConfig cfg;
    cfg.name = "aggressor";
    cfg.contract = {24, 0};
    cfg.driver_max_frames = 24;
    cfg.stretch_bytes = 24 * sys_cfg.page_size;
    cfg.swap_bytes = 1 * kMiB;
    aggressor = system.CreateApp(cfg);
    aggressor->SpawnWorkload(SequentialPass(*aggressor, AccessType::kWrite, &aggressor_ok),
                             "claim");
  });

  // Run past the hog loop's end so every in-flight fault resolves and the
  // span ledger closes (report_qos.py gates on >= 99% completeness).
  system.sim().RunUntil(Seconds(6));

  const FramesAllocator& frames = system.frames();
  std::printf("  hog primed: %s, loop ok: %s, aggressor claimed: %s\n",
              hog_primed ? "yes" : "no", hog_ok ? "yes" : "no", aggressor_ok ? "yes" : "no");
  std::printf("  revocations: intrusive=%llu transparent=%llu cancelled=%llu killed=%llu\n",
              static_cast<unsigned long long>(frames.revocations_intrusive()),
              static_cast<unsigned long long>(frames.revocations_transparent()),
              static_cast<unsigned long long>(frames.revocations_cancelled()),
              static_cast<unsigned long long>(frames.domains_killed()));
  std::printf("  hog frames after storm: %llu (of %llu quota), aggressor: %llu\n",
              static_cast<unsigned long long>(frames.AllocatedCount(hog->id())),
              static_cast<unsigned long long>(hog_cfg.contract.limit()),
              static_cast<unsigned long long>(
                  aggressor != nullptr ? frames.AllocatedCount(aggressor->id()) : 0));

  if (sys_cfg.observe) {
    system.obs().conformance().Flush(system.sim().Now());
  }
  const std::string trace_path = "revocation_trace.csv";
  if (system.trace().WriteCsv(trace_path)) {
    std::printf("  trace written to %s\n", trace_path.c_str());
  }
  if (sys_cfg.observe) {
    if (system.obs().registry().WriteJson("revocation_metrics.json")) {
      std::printf("  metrics snapshot written to revocation_metrics.json\n");
    }
    if (WritePerfettoJson(system.trace(), "trace_revocation.json")) {
      std::printf("  Perfetto trace written to trace_revocation.json\n");
    }
  }

  const AuditReport report = system.AuditNow(InvariantAuditor::Depth::kFull);
  if (!report.ok()) {
    std::printf("  AUDIT VIOLATIONS:\n%s\n", report.Summary().c_str());
  }

  const bool ok = hog_primed && hog_ok && aggressor_ok && report.ok() &&
                  frames.revocations_intrusive() >= 1 && frames.domains_killed() == 0;
  std::printf("\n  shape check: %s (guarantee met by revoking the hog's optimistic frames;\n"
              "  no kill: the self-pager relinquishes within the deadline)\n",
              ok ? "PASS" : "FAIL");
  return ok ? 0 : 1;
}
