// The benchmark's own tests (perfbench --selftest):
//   * fig7's per-app Mbit/s equal the figure bench's golden output;
//   * two repetitions of every workload with one seed give identical
//     simulated results, per-layer counts and stage histograms;
//   * two storm seeds give different specs;
//   * StormDriver's fault, revocation, kill and event counts equal
//     RunScenario's (what scenario_fuzz --tenants 200 --seed S runs) for two
//     seeds.
#ifndef PERFBENCH_SELFTEST_H_
#define PERFBENCH_SELFTEST_H_

namespace nemesis::perfbench {

// Returns 0 when every check passes.
int RunSelfTest();

}  // namespace nemesis::perfbench

#endif  // PERFBENCH_SELFTEST_H_
