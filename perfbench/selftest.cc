#include "perfbench/selftest.h"

#include <cstdio>
#include <string>

#include "perfbench/workloads.h"

namespace nemesis::perfbench {

namespace {

// Cheap storm seeds (a few seconds per full storm) for the storm checks.
constexpr uint64_t kStormSeedA = 4;
constexpr uint64_t kStormSeedB = 11;

int g_failures = 0;

void Check(bool ok, const std::string& what) {
  std::printf("  %s  %s\n", ok ? "PASS" : "FAIL", what.c_str());
  if (!ok) {
    ++g_failures;
  }
}

std::string Format3(double v) {
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.3f", v);
  return buf;
}

std::string Describe(const StormCounts& c) {
  char buf[160];
  std::snprintf(buf, sizeof(buf), "faults=%llu revocations=%llu/%llu killed=%llu events=%llu",
                static_cast<unsigned long long>(c.faults),
                static_cast<unsigned long long>(c.revocations_transparent),
                static_cast<unsigned long long>(c.revocations_intrusive),
                static_cast<unsigned long long>(c.domains_killed),
                static_cast<unsigned long long>(c.events_executed));
  return buf;
}

void CheckFig7Golden() {
  const RepResult r = RunRep(Workload::kFig7, nullptr, RepOptions{});
  // bench_fig7_paging_in's "average" row (BENCH_core.json).
  const std::string got = Format3(r.sim.at("sim_mbps.app-10%")) + "/" +
                          Format3(r.sim.at("sim_mbps.app-20%")) + "/" +
                          Format3(r.sim.at("sim_mbps.app-40%"));
  Check(r.failure.empty() && got == "5.762/11.531/23.070",
        "fig7 per-app Mbit/s " + got + " equal bench_fig7_paging_in's 5.762/11.531/23.070");
}

// With observe on, the stage histograms (H metrics) are compared too.
void CheckDeterminism(Workload w, const char* name, const ScenarioSpec* spec, bool observe) {
  RepOptions options;
  options.observe = observe;
  const RepResult a = RunRep(w, spec, options);
  const RepResult b = RunRep(w, spec, options);
  Check(a.failure.empty() && b.failure.empty() && a.sim == b.sim && a.layers == b.layers &&
            a.storm == b.storm && a.faults == b.faults && a.events == b.events,
        std::string(name) + ": two runs give identical sim_*, per-layer counts and histograms (" +
            std::to_string(a.layers.size()) + " metrics)");
}

void CheckStormAgainstRunScenario(uint64_t seed) {
  const ScenarioSpec spec = GenerateTenantStorm(seed, kStormTenants);
  const RepResult r = RunRep(Workload::kStorm, &spec, RepOptions{});
  bool audit_ok = false;
  const StormCounts want = RunScenarioCounts(spec, &audit_ok);
  Check(r.failure.empty() && audit_ok && r.storm == want,
        "storm seed " + std::to_string(seed) + ": driver " + Describe(r.storm) +
            " equals scenario_fuzz " + Describe(want));
}

}  // namespace

int RunSelfTest() {
  std::printf("perfbench self-test\n");
  CheckFig7Golden();

  const ScenarioSpec storm = GenerateTenantStorm(kStormSeedB, kStormTenants);
  CheckDeterminism(Workload::kFig7, "fig7", nullptr, true);
  CheckDeterminism(Workload::kPipelineRw, "pipeline_rw", nullptr, true);
  CheckDeterminism(Workload::kStorm, "storm", &storm, false);
  CheckDeterminism(Workload::kStormObs, "storm_obs", &storm, true);

  Check(GenerateTenantStorm(1, kStormTenants).ToScript() !=
            GenerateTenantStorm(2, kStormTenants).ToScript(),
        "storm seeds 1 and 2 give different specs");

  CheckStormAgainstRunScenario(kStormSeedA);
  CheckStormAgainstRunScenario(kStormSeedB);

  std::printf("%s (%d failed)\n", g_failures == 0 ? "self-test PASS" : "self-test FAIL",
              g_failures);
  return g_failures == 0 ? 0 : 1;
}

}  // namespace nemesis::perfbench
