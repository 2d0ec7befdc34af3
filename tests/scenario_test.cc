// Adversarial scenario generator tests: seeded replay (audit-clean), script
// round-trip, the shrinker against a hand-injected violation, and the
// app-level teardown-while-revocation-pending race the generator is designed
// to flush out.
#include <string>

#include <gtest/gtest.h>

#include "src/core/scenario_runner.h"
#include "src/core/system.h"
#include "src/core/workloads.h"
#include "src/sim/scenario_gen.h"

namespace nemesis {
namespace {

// Small-but-adversarial generator shape used by the replay tests: enough
// domains and traffic to trigger revocations, small enough that 20 seeds run
// in tier-1 time budgets.
GeneratorConfig FastConfig() {
  GeneratorConfig cfg;
  cfg.min_frames = 24;
  cfg.max_frames = 48;
  cfg.min_domains = 2;
  cfg.max_domains = 4;
  cfg.max_events = 14;
  cfg.horizon = Milliseconds(200);
  cfg.max_burst_ops = 96;
  return cfg;
}

TEST(ScenarioGen, DeterministicForSeed) {
  const ScenarioSpec a = GenerateScenario(42, FastConfig());
  const ScenarioSpec b = GenerateScenario(42, FastConfig());
  EXPECT_EQ(a.ToScript(), b.ToScript());
  const ScenarioSpec c = GenerateScenario(43, FastConfig());
  EXPECT_NE(a.ToScript(), c.ToScript());
}

TEST(ScenarioGen, ContractsAdmissionSafeButOverCommitted) {
  for (uint64_t seed = 1; seed <= 50; ++seed) {
    const ScenarioSpec spec = GenerateScenario(seed, FastConfig());
    uint64_t sum_g = 0;
    uint64_t sum_limit = 0;
    for (const auto& d : spec.domains) {
      sum_g += d.guaranteed;
      sum_limit += d.guaranteed + d.optimistic;
    }
    EXPECT_LE(sum_g, spec.frames) << "seed " << seed;
    EXPECT_GT(sum_limit, spec.frames) << "seed " << seed;
  }
}

TEST(ScenarioGen, ScriptRoundTrips) {
  const ScenarioSpec spec = GenerateScenario(7, FastConfig());
  const std::string script = spec.ToScript();
  ScenarioSpec parsed;
  ASSERT_TRUE(ScenarioSpec::FromScript(script, &parsed));
  EXPECT_EQ(parsed.ToScript(), script);
  EXPECT_EQ(parsed.domains.size(), spec.domains.size());
  EXPECT_EQ(parsed.events.size(), spec.events.size());
}

TEST(ScenarioGen, FromScriptRejectsMalformedInput) {
  ScenarioSpec out;
  EXPECT_FALSE(ScenarioSpec::FromScript("machine frames=", &out));
  EXPECT_FALSE(ScenarioSpec::FromScript("warp t=1 dom=2\n", &out));
  EXPECT_FALSE(ScenarioSpec::FromScript("burst t=1\n", &out));  // missing fields
}

TEST(ScenarioGen, ZipfSamplerSkewsTowardsLowRanks) {
  const ZipfSampler zipf(64, 1.0);
  EXPECT_EQ(zipf.Sample(0.0), 0u);
  EXPECT_EQ(zipf.Sample(0.999999), 63u);
  // Rank 0 alone should cover more mass than a uniform bucket.
  uint64_t low = 0;
  Random rng(99);
  for (int i = 0; i < 1000; ++i) {
    if (zipf.Sample(rng.NextDouble()) == 0) ++low;
  }
  EXPECT_GT(low, 1000 / 64);
}

// The tier-1 replay gate: 20 fixed seeds, every run audit-clean. In
// NEMESIS_AUDIT builds the same binary additionally audits every event batch
// and the process aborts on the first violation (the CI fuzz oracle).
TEST(ScenarioReplay, TwentySeedsAuditClean) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const ScenarioSpec spec = GenerateScenario(seed, FastConfig());
    const ScenarioResult result = RunScenario(spec);
    EXPECT_TRUE(result.ok) << "seed " << seed << ": " << result.failure;
  }
}

// At least some of the fixed seeds must actually exercise the paths under
// test — otherwise the replay gate is a no-op. Aggregated across the pool so
// individual seeds are free to be boring.
TEST(ScenarioReplay, SeedPoolExercisesRevocationPaths) {
  uint64_t faults = 0;
  uint64_t revocations = 0;
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const ScenarioSpec spec = GenerateScenario(seed, FastConfig());
    const ScenarioResult result = RunScenario(spec);
    faults += result.faults;
    revocations += result.revocations_transparent + result.revocations_intrusive;
  }
  EXPECT_GT(faults, 0u);
  EXPECT_GT(revocations, 0u);
}

// Shrinker acceptance: a hand-injected violation (corrupt guarantee
// accounting) buried in generated noise reduces to a <=10-line event script
// that still reproduces it.
TEST(ScenarioShrink, ReducesInjectedViolationToMinimalScript) {
  GeneratorConfig cfg = FastConfig();
  cfg.horizon = Milliseconds(60);
  ScenarioSpec spec = GenerateScenario(3, cfg);
  ScenarioEvent corrupt;
  corrupt.kind = ScenarioEventKind::kCorrupt;
  corrupt.at = Milliseconds(30);
  spec.events.push_back(corrupt);
  ASSERT_GT(spec.events.size(), 4u);  // violation starts buried in noise

  const auto still_fails = [](const ScenarioSpec& candidate) {
    ScenarioOptions options;
    options.audit = 0;  // report via the final audit instead of aborting
    options.drain = Milliseconds(50);
    return !RunScenario(candidate, options).ok;
  };
  ASSERT_TRUE(still_fails(spec));

  const ScenarioSpec shrunk = Shrink(spec, still_fails);
  EXPECT_LE(shrunk.events.size(), 10u);
  EXPECT_TRUE(still_fails(shrunk));  // still a repro after shrinking
  // The injected event survives; the generated noise around it does not.
  ASSERT_EQ(shrunk.events.size(), 1u);
  EXPECT_EQ(shrunk.events[0].kind, ScenarioEventKind::kCorrupt);
}

// App-level regression for the teardown-while-revocation-pending race: a hog
// holds nearly all memory optimistically, a guaranteed domain's faults force
// revocations against it, and the hog is torn down mid-storm. The system must
// end audit-clean with the guaranteed domain's pass completing.
TEST(ScenarioRace, ShutdownDuringRevocationStormStaysAuditClean) {
  SystemConfig sys_cfg;
  sys_cfg.phys_frames = 32;
  System system(sys_cfg);

  AppConfig hog_cfg;
  hog_cfg.name = "hog";
  hog_cfg.contract = {2, 28};
  hog_cfg.driver_max_frames = 30;
  hog_cfg.stretch_bytes = 30 * sys_cfg.page_size;
  AppDomain* hog = system.CreateApp(hog_cfg);

  // The hog dirties its whole stretch first. The tenant is admitted late, so
  // its guarantee lands on a full machine: every tenant fault under pressure
  // revokes from the hog (a guarantee admitted at t=0 would have been
  // reserved out of the free pool instead).
  bool hog_ok = false;
  hog->SpawnWorkload(SequentialPass(*hog, AccessType::kWrite, &hog_ok), "fill");
  bool tenant_ok = false;
  AppDomain* tenant = nullptr;
  system.sim().CallAt(Milliseconds(40), [&] {
    AppConfig victim_cfg;
    victim_cfg.name = "tenant";
    victim_cfg.contract = {10, 0};
    victim_cfg.driver_max_frames = 10;
    victim_cfg.stretch_bytes = 10 * sys_cfg.page_size;
    tenant = system.CreateApp(victim_cfg);
    tenant->SpawnWorkload(SequentialPass(*tenant, AccessType::kWrite, &tenant_ok), "claim");
  });
  system.sim().CallAt(Milliseconds(55), [&] { hog->Shutdown(); });
  system.sim().RunUntil(Seconds(4));

  EXPECT_TRUE(tenant_ok);
  EXPECT_GE(system.frames().revocations_transparent() + system.frames().revocations_intrusive(),
            1u);
  const AuditReport report = system.AuditNow(InvariantAuditor::Depth::kFull);
  EXPECT_TRUE(report.ok()) << report.Summary();
  EXPECT_FALSE(system.frames().IsClient(hog->id()));
  EXPECT_EQ(system.frames().guaranteed_waiters(), 0u);
}

// Regression for a latent bug the seed sweep flushed out under ASan: the
// generator's "hang" event kills the MM entry's workers and slow-path tasks,
// but a paged domain under pressure always has driver evict/swap tasks in
// flight whose result pointers live on those (now destroyed) slow-path
// frames. MmEntry::Stop() must quiesce the bound drivers too, or an orphan
// EvictOne completes into freed memory (heap-use-after-free pre-fix).
TEST(ScenarioRace, HangWithInFlightEvictionsDoesNotCorruptJoiners) {
  SystemConfig sys_cfg;
  sys_cfg.phys_frames = 8;
  System system(sys_cfg);

  AppConfig cfg;
  cfg.name = "hung";
  cfg.contract = {2, 4};
  cfg.driver_max_frames = 4;
  cfg.stretch_bytes = 32 * sys_cfg.page_size;  // far past the pool: every
  cfg.swap_bytes = 1 * kMiB;                   // fault evicts + swap-writes
  AppDomain* app = system.CreateApp(cfg);

  bool pass_ok = false;
  app->SpawnWorkload(SequentialPass(*app, AccessType::kWrite, &pass_ok), "storm");
  // Mid-pass there is always an EvictOne joined by a slow-path ResolveFault;
  // the hang kills the joiner while the evict's swap write is on the disk.
  system.sim().CallAt(Milliseconds(20), [&] { app->mm_entry().Stop(); });
  system.sim().RunUntil(Seconds(2));

  EXPECT_FALSE(pass_ok);  // the domain hung; the pass must not have finished
  const AuditReport report = system.AuditNow(InvariantAuditor::Depth::kFull);
  EXPECT_TRUE(report.ok()) << report.Summary();
}

}  // namespace
}  // namespace nemesis
