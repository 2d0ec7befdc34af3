// Adversarial scenario fuzz driver (see DESIGN.md "Adversarial scenarios").
//
//   scenario_fuzz --seed N [--observe] [--print]
//   scenario_fuzz --seeds N            # seeds 1..N, one after another
//   scenario_fuzz --script FILE       # replay a saved event script
//   scenario_fuzz --seed N --shrink   # reduce a failing seed to a minimal script
//   scenario_fuzz --tenants N         # fleet-density preset: N-domain
//                                     # over-committed tenant storm (seeded by
//                                     # --seed, default 1)
//
// Exit 0 when every run is oracle-clean; on failure the offending seed and
// its event script are printed so CI logs alone are enough to reproduce. In
// NEMESIS_AUDIT builds the per-batch auditor aborts the process at the first
// violation — the driver prints the seed *before* running it for that reason.
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>

#include "src/core/scenario_runner.h"
#include "src/sim/scenario_gen.h"

using namespace nemesis;

namespace {

int RunOne(const ScenarioSpec& spec, const ScenarioOptions& options, bool print_spec) {
  if (print_spec) {
    std::printf("%s", spec.ToScript().c_str());
    std::fflush(stdout);  // keep the spec even if the run aborts into a pipe
  }
  const ScenarioResult result = RunScenario(spec, options);
  std::printf("seed %llu: %s  (faults=%llu revocations=%llu/%llu cancelled=%llu killed=%llu)\n",
              static_cast<unsigned long long>(spec.seed), result.ok ? "clean" : "VIOLATION",
              static_cast<unsigned long long>(result.faults),
              static_cast<unsigned long long>(result.revocations_transparent),
              static_cast<unsigned long long>(result.revocations_intrusive),
              static_cast<unsigned long long>(result.revocations_cancelled),
              static_cast<unsigned long long>(result.domains_killed));
  if (!result.ok) {
    std::printf("failing seed: %llu\n%s\nevent script:\n%s",
                static_cast<unsigned long long>(spec.seed), result.failure.c_str(),
                spec.ToScript().c_str());
    return 1;
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  uint64_t seed = 0;
  uint64_t seeds = 0;
  int tenants = 0;
  std::string script_path;
  bool shrink = false;
  bool print_spec = false;
  ScenarioOptions options;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const bool has_value = i + 1 < argc;
    if (arg == "--seed" && has_value) {
      seed = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--seeds" && has_value) {
      seeds = std::strtoull(argv[++i], nullptr, 10);
    } else if (arg == "--script" && has_value) {
      script_path = argv[++i];
    } else if (arg == "--tenants" && has_value) {
      tenants = static_cast<int>(std::strtoull(argv[++i], nullptr, 10));
    } else if (arg == "--observe") {
      options.observe = true;
    } else if (arg == "--shrink") {
      shrink = true;
    } else if (arg == "--print") {
      print_spec = true;
    } else {
      std::fprintf(stderr, "unknown or incomplete argument: %s\n", arg.c_str());
      return 2;
    }
  }

  if (!script_path.empty()) {
    std::ifstream in(script_path);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", script_path.c_str());
      return 2;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    ScenarioSpec spec;
    if (!ScenarioSpec::FromScript(buf.str(), &spec)) {
      std::fprintf(stderr, "malformed event script %s\n", script_path.c_str());
      return 2;
    }
    return RunOne(spec, options, print_spec);
  }

  if (tenants > 0) {
    const uint64_t storm_seed = seed == 0 ? 1 : seed;
    std::printf("running %d-tenant storm (seed %llu)...\n", tenants,
                static_cast<unsigned long long>(storm_seed));
    std::fflush(stdout);
    return RunOne(GenerateTenantStorm(storm_seed, tenants), options, print_spec);
  }

  if (seeds > 0) {
    int rc = 0;
    for (uint64_t s = 1; s <= seeds; ++s) {
      std::printf("running seed %llu...\n", static_cast<unsigned long long>(s));
      std::fflush(stdout);  // survive an AuditOrDie/ASan abort mid-run
      rc |= RunOne(GenerateScenario(s), options, print_spec);
    }
    return rc;
  }

  const ScenarioSpec spec = GenerateScenario(seed);
  if (!shrink) {
    std::printf("running seed %llu...\n", static_cast<unsigned long long>(seed));
    std::fflush(stdout);
    return RunOne(spec, options, print_spec);
  }

  // Shrink mode: reduce the seed's spec to a minimal script that still fails.
  // The predicate disables the abort-on-violation auditor so failures are
  // observed via the final audit report instead of killing the process.
  ScenarioOptions probe = options;
  probe.audit = 0;
  const auto still_fails = [&probe](const ScenarioSpec& candidate) {
    return !RunScenario(candidate, probe).ok;
  };
  if (!still_fails(spec)) {
    std::printf("seed %llu is clean; nothing to shrink\n",
                static_cast<unsigned long long>(seed));
    return 0;
  }
  const ScenarioSpec shrunk = Shrink(spec, still_fails);
  std::printf("shrunk seed %llu to %zu events:\n%s",
              static_cast<unsigned long long>(seed), shrunk.events.size(),
              shrunk.ToScript().c_str());
  return 1;
}
