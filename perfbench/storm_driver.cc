#include "perfbench/storm_driver.h"

#include <algorithm>
#include <string>

#include "src/base/random.h"
#include "src/core/scenario_runner.h"

namespace nemesis::perfbench {

namespace {

// RunScenario's default ScenarioOptions::drain.
constexpr SimDuration kDrain = Milliseconds(300);

// Observed storms put several span records per fault into the trace; a
// storm's millions of faults would hold gigabytes. The recorder's
// flight-recorder mode keeps the newest records only.
constexpr size_t kObservedTraceCapacity = size_t{1} << 20;

// Same body as RunScenario's burst: one Zipf-sampled page touch per op, with
// a PRNG seeded from (scenario seed, event index).
Task BurstTask(AppDomain* app, ScenarioEvent event, ScenarioDomainSpec domain, uint64_t rng_seed) {
  Random rng(rng_seed);
  const ZipfSampler zipf(domain.pages, domain.zipf_s);
  const AccessType access = event.write ? AccessType::kWrite : AccessType::kRead;
  for (uint64_t i = 0; i < event.ops && app->alive(); ++i) {
    const uint64_t page = zipf.Sample(rng.NextDouble());
    bool ok = false;
    TaskHandle h = app->SpawnWorkload(
        app->vmem().AccessRange(app->stretch()->PageBase(page), 1, access, &ok), "touch");
    co_await Join(h);
    if (!ok) {
      co_return;
    }
  }
}

}  // namespace

StormDriver::StormDriver(const ScenarioSpec& spec, bool observe, CoreSpans* spans)
    : spans_(spans), ndomains_(spec.domains.size()) {
  SystemConfig cfg;
  cfg.phys_frames = spec.frames;
  cfg.audit = false;
  cfg.parallel_sim = 0;
  cfg.observe = observe;
  system_ = std::make_unique<System>(cfg);
  if (observe) {
    system_->trace().set_capacity(kObservedTraceCapacity);
  }
  Simulator& sim = system_->sim();

  for (const auto& d : spec.domains) {
    const SimTime at = (d.admit_at <= 0 || d.nailed) ? 0 : d.admit_at;
    sim.CallAt(at, [this, d] { Admit(d); });
  }
  SimTime last_event = 0;
  for (const auto& d : spec.domains) {
    last_event = std::max(last_event, d.admit_at);
  }
  for (size_t i = 0; i < spec.events.size(); ++i) {
    const ScenarioEvent& e = spec.events[i];
    last_event = std::max(last_event, e.at);
    const uint64_t burst_seed = spec.seed ^ (0x9E3779B97F4A7C15ULL * (i + 1));
    sim.CallAt(e.at, [this, e, burst_seed] { Fire(e, burst_seed); });
  }
  end_ = last_event + kDrain;
}

void StormDriver::Admit(const ScenarioDomainSpec& d) {
  System& system = *system_;
  AppConfig cfg;
  cfg.name = "dom" + std::to_string(d.id);
  cfg.contract = {d.guaranteed, d.optimistic};
  uint64_t pages = std::max<uint64_t>(1, d.pages);
  const size_t page_size = system.config().page_size;
  if (d.nailed) {
    cfg.driver = AppConfig::DriverKind::kNailed;
    const uint64_t free = system.frames().free_frames();
    const uint64_t reserved = system.frames().guaranteed_total();
    const uint64_t headroom =
        free > reserved + d.guaranteed + 1 ? free - reserved - d.guaranteed - 1 : 0;
    pages = std::max<uint64_t>(1, d.guaranteed + std::min(d.optimistic, headroom));
  } else {
    cfg.driver = AppConfig::DriverKind::kPaged;
    cfg.driver_max_frames = d.guaranteed + d.optimistic;
    cfg.swap_bytes = std::max<uint64_t>(pages * page_size, 1 * kMiB);
    if (ndomains_ > 10) {
      // RunScenario's tenant-density sizing: the mix claims half the disk and
      // swap files are sized exactly.
      cfg.disk_qos.slice = cfg.disk_qos.period / (2 * static_cast<int64_t>(ndomains_));
      cfg.swap_bytes = pages * page_size;
    }
  }
  cfg.stretch_bytes = pages * page_size;
  ScenarioDomainSpec resolved = d;
  resolved.pages = pages;
  admitted_.contracts.push_back(cfg.contract);
  if (!d.nailed) {
    admitted_.qos.push_back(cfg.disk_qos);
  }
  {
    SpanTimer timer(spans_ != nullptr ? &spans_->create_app : nullptr);
    apps_[d.id] = system.CreateApp(cfg);
  }
  doms_[d.id] = resolved;
}

void StormDriver::Fire(const ScenarioEvent& e, uint64_t burst_seed) {
  auto it = apps_.find(e.domain);
  const bool live = it != apps_.end() && it->second->alive();
  switch (e.kind) {
    case ScenarioEventKind::kBurst:
      if (live) {
        it->second->SpawnWorkload(BurstTask(it->second, e, doms_.at(e.domain), burst_seed),
                                  "burst");
      }
      return;
    case ScenarioEventKind::kHang:
      if (live) {
        it->second->mm_entry().Stop();
      }
      return;
    case ScenarioEventKind::kShutdown:
      if (live) {
        SpanTimer timer(spans_ != nullptr ? &spans_->shutdown : nullptr);
        it->second->Shutdown();
      }
      return;
    case ScenarioEventKind::kCorrupt:
      // Test-only event; GenerateTenantStorm never emits it.
      return;
  }
}

StormCounts StormDriver::Counts() {
  StormCounts c;
  FramesAllocator& frames = system_->frames();
  c.revocations_transparent = frames.revocations_transparent();
  c.revocations_intrusive = frames.revocations_intrusive();
  c.revocations_cancelled = frames.revocations_cancelled();
  c.domains_killed = frames.domains_killed();
  c.events_executed = system_->sim().events_executed();
  for (const auto& [id, app] : apps_) {
    c.faults += app->vmem().faults_taken();
  }
  return c;
}

StormCounts RunScenarioCounts(const ScenarioSpec& spec, bool* audit_ok) {
  const ScenarioResult ref = RunScenario(spec);
  *audit_ok = ref.ok;
  StormCounts c;
  c.faults = ref.faults;
  c.revocations_transparent = ref.revocations_transparent;
  c.revocations_intrusive = ref.revocations_intrusive;
  c.revocations_cancelled = ref.revocations_cancelled;
  c.domains_killed = ref.domains_killed;
  c.events_executed = ref.events_executed;
  return c;
}

}  // namespace nemesis::perfbench
