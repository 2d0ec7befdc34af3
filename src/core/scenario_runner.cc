#include "src/core/scenario_runner.h"

#include <algorithm>
#include <map>
#include <memory>
#include <vector>

#include "src/base/random.h"
#include "src/core/system.h"

namespace nemesis {

namespace {

// One Zipf-sampled page touch per op. Each burst owns its PRNG, seeded from
// (scenario seed, event index): draws are independent of how concurrent
// bursts interleave.
Task BurstTask(AppDomain* app, ScenarioEvent event, ScenarioDomainSpec domain, uint64_t rng_seed) {
  Random rng(rng_seed);
  const ZipfSampler zipf(domain.pages, domain.zipf_s);
  const AccessType access = event.write ? AccessType::kWrite : AccessType::kRead;
  for (uint64_t i = 0; i < event.ops && app->alive(); ++i) {
    const uint64_t page = zipf.Sample(rng.NextDouble());
    bool ok = false;
    // Workload-owned so a kShutdown event kills the touch together with this
    // burst; &ok points into this frame (see workloads.cc for the hazard).
    TaskHandle h = app->SpawnWorkload(
        app->vmem().AccessRange(app->stretch()->PageBase(page), 1, access, &ok), "touch");
    co_await Join(h);
    if (!ok) {
      co_return;  // domain was killed / torn down under us: burst ends
    }
  }
}

}  // namespace

ScenarioResult RunScenario(const ScenarioSpec& spec, const ScenarioOptions& options) {
  SystemConfig sys_cfg;
  sys_cfg.phys_frames = spec.frames;
  sys_cfg.observe = options.observe;
  if (options.audit >= 0) {
    sys_cfg.audit = options.audit != 0;
  }
  System system(sys_cfg);
  Simulator& sim = system.sim();

  // Build the domain mix. Domain admission is staggered (admit_at): early
  // hogs fill memory optimistically, late tenants' guarantees then force
  // revocations. Nailed domains bind (and nail) every stretch page at
  // creation, so they are always admitted at t=0 on an empty machine, with
  // the stretch capped to what the allocator can grant right now: the
  // guarantee plus whatever optimistic headroom remains after reserving
  // every earlier domain's unmet guarantee (Bind asserts on failure; the cap
  // keeps generated specs runnable by construction).
  std::map<int, AppDomain*> apps;         // scenario id -> domain (once admitted)
  std::map<int, ScenarioDomainSpec> doms; // scenario id -> spec (pages resolved)
  const size_t ndomains = spec.domains.size();
  const auto admit = [&system, &sys_cfg, &apps, &doms, ndomains](const ScenarioDomainSpec& d) {
    AppConfig cfg;
    cfg.name = "dom" + std::to_string(d.id);
    cfg.contract = {d.guaranteed, d.optimistic};
    uint64_t pages = std::max<uint64_t>(1, d.pages);
    if (d.nailed) {
      cfg.driver = AppConfig::DriverKind::kNailed;
      const uint64_t free = system.frames().free_frames();
      const uint64_t reserved = system.frames().guaranteed_total();
      const uint64_t headroom =
          free > reserved + d.guaranteed + 1 ? free - reserved - d.guaranteed - 1 : 0;
      pages = std::max<uint64_t>(1, d.guaranteed + std::min(d.optimistic, headroom));
    } else {
      cfg.driver = AppConfig::DriverKind::kPaged;
      cfg.driver_max_frames = d.guaranteed + d.optimistic;  // use the full quota
      cfg.swap_bytes = std::max<uint64_t>(pages * sys_cfg.page_size, 1 * kMiB);
      if (ndomains > 10) {
        // Tenant-density specs: the default per-client disk QoS (25ms of
        // every 250ms) over-commits the USD's Atropos admission beyond 10
        // paged clients, and the 1 MiB swap floor overflows the swap
        // partition beyond ~500. Shrink each slice so the mix claims half
        // the disk in total and size swap files exactly; smaller specs keep
        // the defaults (and their goldens).
        cfg.disk_qos.slice = cfg.disk_qos.period / (2 * static_cast<int64_t>(ndomains));
        cfg.swap_bytes = pages * sys_cfg.page_size;
      }
    }
    cfg.stretch_bytes = pages * sys_cfg.page_size;
    ScenarioDomainSpec resolved = d;
    resolved.pages = pages;
    apps[d.id] = system.CreateApp(cfg);
    doms[d.id] = resolved;
  };
  // Every admission runs as its own simulator event (nailed/immediate domains
  // at t=0, in spec order). Admitting two domains back-to-back from the main
  // context would put both creations — and a nailed driver's Bind-time frame
  // allocations — inside one domain-access window, which the audit-build
  // checker rightly rejects; one event per admission gives each its own
  // window, exactly as a real admission path would.
  for (const auto& d : spec.domains) {
    const SimTime at = (d.admit_at <= 0 || d.nailed) ? 0 : d.admit_at;
    sim.CallAt(at, [&admit, d] { admit(d); });
  }

  // Schedule the event script; bursts spawn as domain workloads.
  SimTime last_event = 0;
  for (const auto& d : spec.domains) {
    last_event = std::max(last_event, d.admit_at);
  }
  for (size_t i = 0; i < spec.events.size(); ++i) {
    const ScenarioEvent& e = spec.events[i];
    last_event = std::max(last_event, e.at);
    const uint64_t burst_seed = spec.seed ^ (0x9E3779B97F4A7C15ULL * (i + 1));
    sim.CallAt(e.at, [&system, &apps, &doms, e, burst_seed] {
      switch (e.kind) {
        case ScenarioEventKind::kBurst: {
          auto it = apps.find(e.domain);
          if (it == apps.end() || !it->second->alive()) return;
          it->second->SpawnWorkload(
              BurstTask(it->second, e, doms.at(e.domain), burst_seed), "burst");
          return;
        }
        case ScenarioEventKind::kHang: {
          // Non-compliant tenant: the MMEntry stops servicing events, so the
          // next intrusive revocation against it blows the deadline T and
          // exercises the allocator's kill path. The domain stays a frames
          // client and keeps its frames until then.
          auto it = apps.find(e.domain);
          if (it == apps.end() || !it->second->alive()) return;
          it->second->mm_entry().Stop();
          return;
        }
        case ScenarioEventKind::kShutdown: {
          auto it = apps.find(e.domain);
          if (it == apps.end() || !it->second->alive()) return;
          it->second->Shutdown();
          return;
        }
        case ScenarioEventKind::kCorrupt:
          // Test-only oracle check: break the guarantee accounting so the
          // auditor must trip (validates the shrinker against a known bug).
          system.frames().TestOnlySetGuaranteedTotal(system.frames().total_frames() + 1);
          return;
      }
    });
  }

  sim.RunUntil(last_event + options.drain);

  ScenarioResult result;
  const AuditReport report = system.AuditNow(InvariantAuditor::Depth::kFull);
  result.ok = report.ok();
  if (!report.ok()) {
    result.failure = report.Summary();
  }
  result.revocations_transparent = system.frames().revocations_transparent();
  result.revocations_intrusive = system.frames().revocations_intrusive();
  result.revocations_cancelled = system.frames().revocations_cancelled();
  result.domains_killed = system.frames().domains_killed();
  result.events_executed = system.sim().events_executed();
  for (auto& [id, app] : apps) {
    result.faults += app->vmem().faults_taken();
  }
  if (!options.trace_path.empty()) {
    system.trace().WriteCsv(options.trace_path);
  }
  return result;
}

}  // namespace nemesis
