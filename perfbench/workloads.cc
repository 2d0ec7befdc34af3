#include "perfbench/workloads.h"

#include <malloc.h>

#include <algorithm>
#include <cmath>
#include <functional>
#include <memory>
#include <utility>

#include "perfbench/alloc_count.h"
#include "perfbench/clock.h"
#include "perfbench/probes.h"
#include "src/base/random.h"
#include "src/core/workloads.h"

namespace nemesis::perfbench {

namespace {

constexpr SimDuration kFig7Window = Seconds(120);
constexpr SimDuration kPipelineWindow = Seconds(120);
// Priming runs to this simulated time, as in bench/paging_experiment.h.
constexpr SimTime kPrimeUntil = Seconds(600);
// Seed of pipeline_rw's write/read-back pattern (the workload takes no seed).
constexpr uint64_t kPatternSeed = 0x5eed;
// The measured phase is timed in slices of simulated time; host interference
// on a shared machine comes in bursts, and a median over many slices is far
// steadier than one over a few whole runs. Slices with fewer faults than
// this are counted in run_s but too short to time on their own.
constexpr SimDuration kPagingSlice = Seconds(1);
constexpr SimDuration kStormSlice = Milliseconds(1);
constexpr uint64_t kMinSliceFaults = 200;

SystemConfig PinnedConfig(bool observe) {
  SystemConfig cfg;
  cfg.audit = false;
  cfg.parallel_sim = 0;
  cfg.observe = observe;
  return cfg;
}

// Sum of every counter the per-layer metrics are derived from, over `apps`
// plus the system-wide components. Taken before and after the measured phase.
using Snapshot = std::map<std::string, uint64_t>;

Snapshot Take(System& system, const std::vector<AppDomain*>& apps) {
  Snapshot s;
  for (AppDomain* app : apps) {
    s["faults"] += app->vmem().faults_taken();
    s["stall_ns"] += static_cast<uint64_t>(app->vmem().fault_stall_time());
    s["fast"] += app->mm_entry().faults_fast_path();
    s["worker"] += app->mm_entry().faults_worker();
    s["faults_failed"] += app->mm_entry().faults_failed();
    if (PagedStretchDriver* paged = app->paged_driver(); paged != nullptr) {
      s["pageouts"] += paged->pageouts();
      s["prefetch_issued"] += paged->prefetch_issued();
      s["prefetch_hits"] += paged->prefetch_hits();
      s["prefetch_wasted"] += paged->prefetch_wasted();
      s["writeback_batched"] += paged->writeback_batched();
    }
    // A shut-down domain's swap client is closed; only live ones are read.
    if (app->alive() && app->swap_client() != nullptr) {
      s["batches"] += app->swap_client()->batches();
      s["batched_requests"] += app->swap_client()->batched_requests();
    }
  }
  s["events"] = system.sim().events_executed();
  s["kernel_events"] = system.kernel().events_sent();
  s["translations"] = system.mmu().translations();
  s["tlb_hits"] = system.mmu().tlb().hits();
  s["tlb_misses"] = system.mmu().tlb().misses();
  s["usd_txns"] = system.usd().transactions();
  s["revocations_transparent"] = system.frames().revocations_transparent();
  s["revocations_intrusive"] = system.frames().revocations_intrusive();
  s["domains_killed"] = system.frames().domains_killed();
  const DiskStats& disk = system.disk().stats();
  s["disk_ops"] = disk.reads + disk.writes;
  s["disk_seeks"] = disk.seeks;
  s["disk_cache_hits"] = disk.cache_hits;
  s["disk_busy_ns"] = static_cast<uint64_t>(disk.busy_time);
  s["trace_records"] = system.trace().size() + system.trace().dropped();
  s["allocs"] = AllocCount();
  return s;
}

Snapshot Diff(const Snapshot& after, const Snapshot& before) {
  Snapshot d = after;
  for (const auto& [key, value] : before) {
    d[key] = d[key] >= value ? d[key] - value : 0;
  }
  return d;
}

double Ratio(uint64_t num, uint64_t den) {
  return den > 0 ? static_cast<double>(num) / static_cast<double>(den) : 0.0;
}

// Percentile of the union of several log-bucketed histograms. The histogram
// exposes only percentiles, so each one is sampled at 1000 evenly spaced
// quantiles weighted by its count, and the pooled samples are ranked.
double PooledPercentileUs(const std::vector<const LatencyHistogram*>& hists, double p) {
  constexpr int kGrid = 1000;
  std::vector<std::pair<double, double>> samples;  // (value ns, weight)
  double total = 0.0;
  for (const LatencyHistogram* h : hists) {
    const double n = static_cast<double>(h->count());
    if (n == 0.0) {
      continue;
    }
    for (int j = 0; j < kGrid; ++j) {
      samples.emplace_back(h->PercentileNs((j + 0.5) / kGrid), n / kGrid);
    }
    total += n;
  }
  if (total == 0.0) {
    return 0.0;
  }
  std::sort(samples.begin(), samples.end());
  double cumulative = 0.0;
  for (const auto& [value, weight] : samples) {
    cumulative += weight;
    if (cumulative >= p * total) {
      return value / 1e3;
    }
  }
  return samples.back().first / 1e3;
}

void ResetStageHistograms(System& system, const std::vector<AppDomain*>& apps) {
  for (AppDomain* app : apps) {
    if (Obs::DomainProbe* probe = system.obs().probe(static_cast<uint32_t>(app->id()))) {
      for (LatencyHistogram* h :
           {probe->fault_total, probe->dispatch, probe->queue_wait, probe->resolve,
            probe->usd_wait}) {
        h->Reset();
      }
    }
  }
}

void FillStageHistograms(System& system, const std::vector<AppDomain*>& apps, Metrics* out) {
  std::vector<const LatencyHistogram*> total, dispatch, queue, resolve, usd;
  for (AppDomain* app : apps) {
    if (Obs::DomainProbe* probe = system.obs().probe(static_cast<uint32_t>(app->id()))) {
      total.push_back(probe->fault_total);
      dispatch.push_back(probe->dispatch);
      queue.push_back(probe->queue_wait);
      resolve.push_back(probe->resolve);
      usd.push_back(probe->usd_wait);
    }
  }
  Metrics& m = *out;
  m["kernel.dispatch_us_p50"] = PooledPercentileUs(dispatch, 0.50);
  m["kernel.dispatch_us_p99"] = PooledPercentileUs(dispatch, 0.99);
  m["app.fault_total_us_p50"] = PooledPercentileUs(total, 0.50);
  m["app.fault_total_us_p99"] = PooledPercentileUs(total, 0.99);
  m["app.queue_wait_us_p99"] = PooledPercentileUs(queue, 0.99);
  m["app.resolve_us_p50"] = PooledPercentileUs(resolve, 0.50);
  m["usd.wait_us_p50"] = PooledPercentileUs(usd, 0.50);
  m["usd.wait_us_p99"] = PooledPercentileUs(usd, 0.99);
}

// Per-layer counts over the measured phase (see BENCHMARK.json for the
// layer each one belongs to).
void FillLayerCounts(const Snapshot& d, SimDuration window, bool traced, Metrics* out) {
  const uint64_t faults = d.at("faults");
  Metrics& m = *out;
  m["sim.events_per_fault"] = Ratio(d.at("events"), faults);
  m["kernel.events_per_fault"] = Ratio(d.at("kernel_events"), faults);
  m["hw.translations_per_fault"] = Ratio(d.at("translations"), faults);
  m["hw.tlb_hit_ratio"] = Ratio(d.at("tlb_hits"), d.at("tlb_hits") + d.at("tlb_misses"));
  m["hw.disk_busy_share"] = Ratio(d.at("disk_busy_ns"), static_cast<uint64_t>(window));
  m["hw.disk_seeks_per_txn"] = Ratio(d.at("disk_seeks"), d.at("disk_ops"));
  m["hw.disk_cache_hit_ratio"] = Ratio(d.at("disk_cache_hits"), d.at("disk_ops"));
  m["mm.revocations_intrusive"] = static_cast<double>(d.at("revocations_intrusive"));
  m["mm.revocations_transparent"] = static_cast<double>(d.at("revocations_transparent"));
  m["mm.domains_killed"] = static_cast<double>(d.at("domains_killed"));
  m["app.fast_path_ratio"] = Ratio(d.at("fast"), d.at("fast") + d.at("worker"));
  m["app.prefetch_hit_ratio"] = Ratio(d.at("prefetch_hits"), d.at("prefetch_issued"));
  m["app.prefetch_wasted"] = static_cast<double>(d.at("prefetch_wasted"));
  m["app.writeback_batched_ratio"] = Ratio(d.at("writeback_batched"), d.at("pageouts"));
  m["usd.txns_per_fault"] = Ratio(d.at("usd_txns"), faults);
  m["usd.requests_per_batch"] = Ratio(d.at("batched_requests"), d.at("batches"));
  if (traced) {
    m["sim.allocs_per_fault"] = Ratio(d.at("allocs"), faults);
    m["obs.records_per_fault"] = Ratio(d.at("trace_records"), faults);
  }
}

uint64_t FaultsTaken(const std::vector<AppDomain*>& apps) {
  uint64_t n = 0;
  for (AppDomain* app : apps) {
    n += app->vmem().faults_taken();
  }
  return n;
}

// Runs the measured phase to `until` in slices; fills run_s and the slice
// samples. `faults_taken` returns the workload's simulated faults so far; it
// is read between slices, outside the timed spans. Heap allocations are
// counted throughout when `count_allocs`.
void TimedRun(Simulator& sim, SimTime until, SimDuration slice, bool count_allocs,
              const std::function<uint64_t()>& faults_taken, RepResult* r) {
  SetAllocCounting(count_allocs);
  uint64_t total_ns = 0;
  uint64_t faults = faults_taken();
  while (sim.Now() < until) {
    const SimTime next = std::min(until, sim.Now() + slice);
    const uint64_t t0 = CpuNs();
    sim.RunUntil(next);
    const uint64_t ns = CpuNs() - t0;
    total_ns += ns;
    const uint64_t now = faults_taken();
    if (now - faults >= kMinSliceFaults) {
      r->slice_ns_per_fault.push_back(static_cast<double>(ns) /
                                      static_cast<double>(now - faults));
    }
    faults = now;
  }
  SetAllocCounting(false);
  r->run_s = static_cast<double>(total_ns) / 1e9;
}

// Shared tail of every repetition: window counters, stage histograms, the
// final full audit, the probes, and (traced) the timed teardown.
void Finish(System& system, const std::vector<AppDomain*>& apps, const Snapshot& before,
            const Snapshot& after, SimDuration window, const RepOptions& options,
            const Shape& shape, CoreSpans* spans, bool timed_teardown, RepResult* r) {
  const Snapshot d = Diff(after, before);
  r->faults = d.at("faults");
  r->events = d.at("events");
  r->attempted += r->faults;
  r->failed += d.at("faults_failed");
  r->sim["sim_stall_us"] = Ratio(d.at("stall_ns"), r->faults) / 1e3;
  FillLayerCounts(d, window, options.traced, &r->layers);
  if (options.observe) {
    FillStageHistograms(system, apps, &r->layers);
  }

  const uint64_t t0 = CpuNs();
  const AuditReport report = system.AuditNow(InvariantAuditor::Depth::kFull);
  r->audit_ms = static_cast<double>(CpuNs() - t0) / 1e6;
  if (!report.ok() && r->failure.empty()) {
    r->failure = "final audit: " + report.Summary();
  }
  if (options.traced) {
    RunProbes(system, shape, &r->layers);
  }
  if (timed_teardown) {
    for (AppDomain* app : shape.live_apps) {
      SpanTimer timer(&spans->shutdown);
      app->Shutdown();
    }
  }
  if (spans != nullptr) {
    r->layers["core.create_app_us"] = spans->create_app.MeanUs();
    r->layers["core.shutdown_us"] = spans->shutdown.MeanUs();
  }
}

// Creates the paged domains (timing CreateApp when `spans` is set), runs one
// write pass over every stretch so each page has a swap copy, as the
// paper's experiments initialise, and clears what that pass left in the trace
// and the stage histograms.
std::vector<AppDomain*> CreatePrimedApps(System& system, const std::vector<AppConfig>& configs,
                                         CoreSpans* spans, Shape* shape, RepResult* r) {
  std::vector<AppDomain*> apps;
  for (const AppConfig& cfg : configs) {
    shape->contracts.push_back(cfg.contract);
    shape->qos.push_back(cfg.disk_qos);
    SpanTimer timer(spans != nullptr ? &spans->create_app : nullptr);
    apps.push_back(system.CreateApp(cfg));
  }
  shape->live_apps = apps;
  auto primed = std::make_unique<bool[]>(apps.size());
  for (size_t i = 0; i < apps.size(); ++i) {
    apps[i]->SpawnWorkload(SequentialPass(*apps[i], AccessType::kWrite, &primed[i]), "prime");
  }
  system.sim().RunUntil(kPrimeUntil);
  for (size_t i = 0; i < apps.size(); ++i) {
    if (!primed[i]) {
      apps[i]->Kill();  // its workloads must not outlive `primed`
      if (r->failure.empty()) {
        r->failure = "priming did not finish for " + apps[i]->name();
      }
    }
  }
  system.trace().Clear();
  ResetStageHistograms(system, apps);
  return apps;
}

RepResult RunFig7(const RepOptions& options) {
  RepResult r;
  CoreSpans spans;
  CoreSpans* span_sink = options.traced ? &spans : nullptr;
  const uint64_t t0 = CpuNs();
  auto system = std::make_unique<System>(PinnedConfig(options.observe));
  struct AppSpec {
    const char* name;
    int64_t slice_ms;
  };
  const AppSpec specs[] = {{"app-10%", 25}, {"app-20%", 50}, {"app-40%", 100}};
  constexpr size_t n = 3;
  std::vector<AppConfig> configs;
  for (const AppSpec& spec : specs) {
    AppConfig cfg;
    cfg.name = spec.name;
    cfg.contract = {2, 0};
    cfg.driver_max_frames = 2;
    cfg.stretch_bytes = 4 * kMiB;
    cfg.swap_bytes = 16 * kMiB;
    cfg.disk_qos = QosSpec{Milliseconds(250), Milliseconds(spec.slice_ms), false, Milliseconds(10)};
    configs.push_back(cfg);
  }
  Shape shape;
  const std::vector<AppDomain*> apps = CreatePrimedApps(*system, configs, span_sink, &shape, &r);

  uint64_t bytes[n] = {};
  bool ok[n] = {};
  const SimTime until = system->sim().Now() + kFig7Window;
  for (size_t i = 0; i < n; ++i) {
    apps[i]->SpawnWorkload(
        SequentialAccessLoop(*apps[i], AccessType::kRead, until, &bytes[i], &ok[i]), "loop");
    apps[i]->SpawnWorkload(WatchProgress(system->sim(), system->trace(), static_cast<int>(i),
                                         &bytes[i], Seconds(5), until),
                           "watch");
  }
  const Snapshot before = Take(*system, apps);
  r.setup_s = CpuSecondsSince(t0);
  if (options.setup_only) {
    return r;
  }

  TimedRun(system->sim(), until, kPagingSlice, options.traced,
           [&apps] { return FaultsTaken(apps); }, &r);
  const Snapshot after = Take(*system, apps);

  // Outputs: per-app Mbit/s over the window, their ratios against the
  // 1:2:4 guarantees, and the largest laxity charge in the USD trace.
  double mbps[n];
  double total_mbps = 0.0;
  for (size_t i = 0; i < n; ++i) {
    mbps[i] = static_cast<double>(bytes[i]) * 8.0 / 1e6 / ToSeconds(kFig7Window);
    total_mbps += mbps[i];
    r.sim["sim_mbps." + std::string(specs[i].name)] = mbps[i];
  }
  double max_lax_ms = 0.0;
  for (const auto& rec : system->trace().Filter("usd", "lax")) {
    max_lax_ms = std::max(max_lax_ms, rec.value_a);
  }
  const double r2 = mbps[0] > 0 ? mbps[1] / mbps[0] : 0.0;
  const double r4 = mbps[0] > 0 ? mbps[2] / mbps[0] : 0.0;
  r.sim["sim_mbps"] = total_mbps;
  r.sim["qos_ratio_err"] = std::max(std::fabs(r2 / 2.0 - 1.0), std::fabs(r4 / 4.0 - 1.0));
  const bool shape_ok = mbps[0] > 0 && r2 > 1.6 && r2 < 2.4 && r4 > 3.2 && r4 < 4.8 &&
                        max_lax_ms <= 10.0 + 1e-6;
  if (!shape_ok && r.failure.empty()) {
    r.failure = "fig7 shape check failed";
  }
  Finish(*system, apps, before, after, kFig7Window, options, shape, span_sink, options.traced, &r);
  return r;
}

// Writes a seeded byte pattern over the whole stretch through VMem::Write,
// reads it back through VMem::Read and counts the pages that differ.
struct PatternCheck {
  bool done = false;
  bool io_ok = false;
  uint64_t pages = 0;
  uint64_t mismatched = 0;
};

Task WriteReadBack(AppDomain* app, uint64_t seed, PatternCheck* out) {
  const size_t len = app->stretch()->length();
  const size_t page = app->system().config().page_size;
  std::vector<uint8_t> pattern(len);
  std::vector<uint8_t> back(len);
  Random rng(seed);
  for (uint8_t& b : pattern) {
    b = static_cast<uint8_t>(rng.Next());
  }
  bool ok = false;
  TaskHandle w = app->SpawnWorkload(app->vmem().Write(app->stretch()->base(), pattern, &ok),
                                    "pattern-write");
  co_await Join(w);
  if (ok) {
    TaskHandle rd = app->SpawnWorkload(app->vmem().Read(app->stretch()->base(), back, &ok),
                                       "pattern-read");
    co_await Join(rd);
  }
  out->io_ok = ok;
  out->pages = len / page;
  for (size_t p = 0; ok && p < len / page; ++p) {
    if (!std::equal(pattern.begin() + p * page, pattern.begin() + (p + 1) * page,
                    back.begin() + p * page)) {
      ++out->mismatched;
    }
  }
  out->done = true;
}

RepResult RunPipelineRw(const RepOptions& options) {
  RepResult r;
  CoreSpans spans;
  CoreSpans* span_sink = options.traced ? &spans : nullptr;
  const uint64_t t0 = CpuNs();
  auto system = std::make_unique<System>(PinnedConfig(options.observe));
  struct AppSpec {
    const char* name;
    AccessType access;
    int64_t slice_ms;
  };
  const AppSpec specs[] = {{"wr-10%", AccessType::kWrite, 25},
                           {"wr-20%", AccessType::kWrite, 50},
                           {"rd-20%", AccessType::kRead, 50},
                           {"rd-40%", AccessType::kRead, 100}};
  constexpr size_t n = 4;
  std::vector<AppConfig> configs;
  for (const AppSpec& spec : specs) {
    AppConfig cfg;
    cfg.name = spec.name;
    cfg.contract = {16, 0};
    cfg.driver_max_frames = 16;
    cfg.stretch_bytes = 2 * kMiB;  // 256 pages, 16x the frames
    cfg.swap_bytes = 4 * kMiB;
    cfg.disk_qos = QosSpec{Milliseconds(250), Milliseconds(spec.slice_ms), false, Milliseconds(10)};
    cfg.costs.per_byte_cpu = Nanoseconds(200);  // ablation F's real work per page
    cfg.pipeline_depth = 4;
    cfg.readahead_min_cluster = 1;
    cfg.readahead_max_cluster = 8;
    cfg.writeback_batch = 4;
    configs.push_back(cfg);
  }
  Shape shape;
  const std::vector<AppDomain*> apps = CreatePrimedApps(*system, configs, span_sink, &shape, &r);

  uint64_t bytes[n] = {};
  bool ok[n] = {};
  std::vector<TaskHandle> loops;
  const SimTime until = system->sim().Now() + kPipelineWindow;
  for (size_t i = 0; i < n; ++i) {
    loops.push_back(apps[i]->SpawnWorkload(
        SequentialAccessLoop(*apps[i], specs[i].access, until, &bytes[i], &ok[i]), "loop"));
  }
  const Snapshot before = Take(*system, apps);
  r.setup_s = CpuSecondsSince(t0);
  if (options.setup_only) {
    return r;
  }

  TimedRun(system->sim(), until, kPagingSlice, options.traced,
           [&apps] { return FaultsTaken(apps); }, &r);
  const Snapshot after = Take(*system, apps);

  double total_mbps = 0.0;
  for (size_t i = 0; i < n; ++i) {
    total_mbps += static_cast<double>(bytes[i]) * 8.0 / 1e6 / ToSeconds(kPipelineWindow);
  }
  r.sim["sim_mbps"] = total_mbps;

  // Let each loop finish its current pass, then check the data path: every
  // page written through the pager must read back unchanged.
  Simulator& sim = system->sim();
  const SimTime deadline = until + Seconds(600);
  const auto all_done = [&loops] {
    return std::all_of(loops.begin(), loops.end(), [](const TaskHandle& h) { return h.done(); });
  };
  while (!all_done() && sim.Now() < deadline && sim.Step()) {
  }
  for (size_t i = 0; i < n; ++i) {
    if (!ok[i] && r.failure.empty()) {
      r.failure = "pipeline_rw: a loop hit an unresolvable fault";
    }
  }
  PatternCheck checks[n];
  for (size_t i = 0; i < n; ++i) {
    apps[i]->SpawnWorkload(WriteReadBack(apps[i], kPatternSeed + i, &checks[i]), "pattern");
  }
  const auto checks_done = [&checks] {
    return std::all_of(std::begin(checks), std::end(checks),
                       [](const PatternCheck& c) { return c.done; });
  };
  while (!checks_done() && sim.Now() < deadline && sim.Step()) {
  }
  for (const PatternCheck& c : checks) {
    r.attempted += c.pages;
    r.failed += c.io_ok ? c.mismatched : c.pages;
    if ((!c.done || !c.io_ok || c.mismatched > 0) && r.failure.empty()) {
      r.failure = "pipeline_rw: write/read-back mismatch";
    }
  }
  Finish(*system, apps, before, after, kPipelineWindow, options, shape, span_sink,
         options.traced, &r);
  return r;
}

std::vector<AppDomain*> Admitted(const StormDriver& driver) {
  std::vector<AppDomain*> apps;
  for (const auto& [id, app] : driver.apps()) {
    apps.push_back(app);
  }
  return apps;
}

RepResult RunStorm(const ScenarioSpec& spec, const RepOptions& options) {
  RepResult r;
  CoreSpans spans;
  CoreSpans* span_sink = options.traced ? &spans : nullptr;
  const uint64_t t0 = CpuNs();
  StormDriver driver(spec, options.observe, span_sink);
  driver.RunUntil(0);  // the t=0 admissions
  const Snapshot before = Take(driver.system(), Admitted(driver));
  r.setup_s = CpuSecondsSince(t0);
  if (options.setup_only) {
    return r;
  }

  TimedRun(driver.system().sim(), driver.end(), kStormSlice, options.traced,
           [&driver] { return driver.Counts().faults; }, &r);
  const std::vector<AppDomain*> apps = Admitted(driver);
  const Snapshot after = Take(driver.system(), apps);
  r.storm = driver.Counts();

  Shape shape = driver.admitted();
  for (AppDomain* app : apps) {
    if (app->alive()) {
      shape.live_apps.push_back(app);
    }
  }
  Finish(driver.system(), apps, before, after, driver.end(), options, shape, span_sink,
         /*timed_teardown=*/false, &r);
  return r;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* out) {
  static const std::map<std::string, Workload> kNames = {{"fig7", Workload::kFig7},
                                                         {"storm", Workload::kStorm},
                                                         {"pipeline_rw", Workload::kPipelineRw},
                                                         {"storm_obs", Workload::kStormObs}};
  auto it = kNames.find(name);
  if (it == kNames.end()) {
    return false;
  }
  *out = it->second;
  return true;
}

bool IsStorm(Workload w) { return w == Workload::kStorm || w == Workload::kStormObs; }

bool ObservedByDefault(Workload w) { return w == Workload::kStormObs; }

RepResult RunRep(Workload w, const ScenarioSpec* storm_spec, const RepOptions& options) {
  // Every repetition starts on a trimmed heap, so each System pays the fresh
  // page faults a first System in a process pays. Without this, set-up time
  // depends on what the previous repetition left in the allocator (a warm
  // heap makes it several times cheaper, unpredictably).
  malloc_trim(0);
  switch (w) {
    case Workload::kFig7:
      return RunFig7(options);
    case Workload::kPipelineRw:
      return RunPipelineRw(options);
    case Workload::kStorm:
    case Workload::kStormObs:
      return RunStorm(*storm_spec, options);
  }
  return RepResult{};
}

}  // namespace nemesis::perfbench
