// Executes an adversarial ScenarioSpec (src/sim/scenario_gen.h) against a
// full System: builds the domain mix, schedules the event script, runs to
// quiescence, and judges the run with the cross-layer oracles (invariant
// auditor, domain-access checker via audit builds, and — when run under
// sanitizers — ASan/UBSan themselves).
#ifndef SRC_CORE_SCENARIO_RUNNER_H_
#define SRC_CORE_SCENARIO_RUNNER_H_

#include <string>

#include "src/sim/scenario_gen.h"

namespace nemesis {

struct ScenarioOptions {
  bool observe = false;  // fault/revocation lifecycle spans
  // Per-batch AuditOrDie override: -1 keeps the build default (on in
  // NEMESIS_AUDIT builds). The shrinker tests set 0 so an injected violation
  // is *reported* by the final audit instead of aborting the process.
  int audit = -1;
  SimDuration drain = Milliseconds(300);  // run past the last event to settle
  // When non-empty, the full trace is written here as CSV (the determinism
  // tests byte-compare runs of the same spec).
  std::string trace_path;
};

struct ScenarioResult {
  bool ok = false;          // final full audit found no violations
  std::string failure;      // first violation summary when !ok
  // Allocator-level outcome counters (also a cheap determinism fingerprint).
  uint64_t revocations_transparent = 0;
  uint64_t revocations_intrusive = 0;
  uint64_t revocations_cancelled = 0;
  uint64_t domains_killed = 0;
  uint64_t faults = 0;          // summed over all scenario domains
  uint64_t events_executed = 0; // simulator event count
};

ScenarioResult RunScenario(const ScenarioSpec& spec, const ScenarioOptions& options = {});

}  // namespace nemesis

#endif  // SRC_CORE_SCENARIO_RUNNER_H_
