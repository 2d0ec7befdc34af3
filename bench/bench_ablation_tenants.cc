// Ablation: fleet-density hot paths on the indexed central structures.
//
// The paper's central servers (the Atropos scheduler behind the USD, the
// frames allocator behind every self-pager) make one decision per fault or
// transaction. At the paper's scale (a handful of domains) an O(n) scan per
// decision is free; at fleet density (hundreds to thousands of tenant
// domains) it would dominate. This bench measures the per-decision cost of the
// indexed structures (EDF/extra-time heaps, reclaimable counters, victim
// heaps) and of placement on three micro-paths, at 10/100/1000 domains:
//
//   sched  PickNext + Charge cycles over a full EDF rotation: every pick
//          exhausts the client, every period refreshes it — each decision
//          pays pick + heap maintenance.
//   alloc  admission/teardown steal storms: a needy tenant's guaranteed
//          faults revoke frames from the max-surplus hog (PickVictim +
//          ReclaimUnusedTop), teardown frees them, hogs reabsorb them
//          optimistically (CheckAllocation's outstanding-guarantee test).
//   colour page-colouring allocations draining the free pool (a first-match
//          scan of the push-ordered free list).
//
// Every decision is checked against a brute-force reference scan in
// tests/equivalence_test.cc; EXPERIMENTS.md Ablation I keeps the last
// linear-vs-indexed comparison as a frozen record.
//
// Gates (run_benches.py greps "shape check:"):
//   * near-flat per-decision cost 10 -> 1000 domains on the sched and alloc
//     paths (<= 8x for a 100x domain increase; an O(n) scan grows ~100x);
//   * the 1000-tenant storm from the scenario layer (create/teardown waves,
//     Zipf bursts, hangs) runs audit-clean with revocations exercised.
//
// --smoke caps N at 100 and skips the wall-clock gate (CI runs it under
// sanitizers, where wall-clock ratios are meaningless).
#include <algorithm>
#include <chrono>
#include <cinttypes>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "src/core/scenario_runner.h"
#include "src/kernel/ramtab.h"
#include "src/mm/frames_allocator.h"
#include "src/sched/atropos.h"
#include "src/sim/scenario_gen.h"
#include "src/sim/simulator.h"

using namespace nemesis;

namespace {

struct MicroResult {
  double ns_per_decision = 0.0;
  uint64_t decisions = 0;
};

double ElapsedNs(std::chrono::steady_clock::time_point start) {
  return std::chrono::duration<double, std::nano>(std::chrono::steady_clock::now() - start)
      .count();
}

// --- Scheduler micro-path --------------------------------------------------

// N clients with heterogeneous periods, slices sized so the mix admits
// (sum s/p == 1/2). Every pick charges the full budget, so each decision
// walks the full exhaust -> refresh -> re-pick machinery.
MicroResult SchedMicro(int n, uint64_t picks_target) {
  Simulator sim;
  AtroposScheduler sched(sim);
  std::vector<SchedClientId> ids;
  for (int i = 0; i < n; ++i) {
    QosSpec spec;
    spec.period = Milliseconds(20 + (i % 10) * 5);
    spec.slice = spec.period / (2 * n);
    spec.extra = (i % 3) == 0;
    spec.laxity = Microseconds(50);
    auto admitted = sched.Admit("t" + std::to_string(i), spec);
    NEM_ASSERT(admitted.has_value());
    ids.push_back(*admitted);
    sched.SetQueued(*admitted, 1);
  }

  MicroResult r;
  SimTime t = sim.Now();
  const auto start = std::chrono::steady_clock::now();
  while (r.decisions < picks_target) {
    const auto pick = sched.PickNext();
    if (pick.has_value()) {
      ++r.decisions;
      sched.Charge(pick->client, pick->budget, pick->lax);
    } else {
      (void)sched.PickSlack();  // the executor's idle-path query
      t += Microseconds(100);
      sim.RunUntil(t);
    }
  }
  r.ns_per_decision = ElapsedNs(start) / static_cast<double>(r.decisions);
  return r;
}

// --- Allocator micro-path --------------------------------------------------

// N hog tenants (g=1, x=8) fill ~3N frames optimistically; each storm cycle
// admits a needy tenant (g=K), whose K guaranteed faults revoke the
// max-surplus hog's frames one by one, then tears it down and lets the hogs
// reabsorb the freed frames. One decision = one steal (PickVictim +
// ReclaimUnusedTop) or one reabsorb (CheckAllocation + TakeFreeFrame).
MicroResult AllocMicro(int n, uint64_t cycles) {
  constexpr uint64_t kNeedyG = 4;
  const uint64_t frames = static_cast<uint64_t>(n) * 3 + kNeedyG;
  Simulator sim;
  RamTab ramtab(frames);
  FramesAllocator alloc(sim, ramtab, frames);

  const DomainId needy = static_cast<DomainId>(n + 1);
  for (int i = 0; i < n; ++i) {
    auto admitted = alloc.AdmitClient(static_cast<DomainId>(i + 1), FramesContract{1, 8});
    NEM_ASSERT(admitted.ok());
  }
  // Fill: round-robin optimistic allocation until the machine is full. The
  // hogs end near-uniform (~3 frames each), every one of them a victim
  // candidate with surplus ~2.
  for (bool granted = true; granted;) {
    granted = false;
    for (int i = 0; i < n; ++i) {
      if (alloc.AllocFrame(static_cast<DomainId>(i + 1)).has_value()) {
        granted = true;
      }
    }
  }

  MicroResult r;
  int refill_at = 0;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t c = 0; c < cycles; ++c) {
    NEM_ASSERT(alloc.AdmitClient(needy, FramesContract{kNeedyG, 0}).ok());
    for (uint64_t k = 0; k < kNeedyG; ++k) {
      const auto pfn = alloc.AllocFrame(needy);  // guaranteed: steals from a hog
      NEM_ASSERT(pfn.has_value());
      ++r.decisions;
    }
    NEM_ASSERT(alloc.RemoveClient(needy).ok());
    // Hogs reabsorb the freed frames optimistically (rotating so no single
    // hog hits its quota ceiling).
    for (uint64_t k = 0; k < kNeedyG; ++k) {
      for (int tries = 0; tries < n; ++tries) {
        const DomainId hog = static_cast<DomainId>((refill_at++ % n) + 1);
        if (alloc.AllocFrame(hog).has_value()) {
          ++r.decisions;
          break;
        }
      }
    }
  }
  r.ns_per_decision = ElapsedNs(start) / static_cast<double>(r.decisions);
  return r;
}

// --- Placement micro-path ----------------------------------------------------

// One tenant drains a 3N-frame free pool with page-colouring requests; each
// request takes the first free frame of its colour in push order.
MicroResult ColourMicro(int n) {
  const uint64_t frames = static_cast<uint64_t>(n) * 3;
  Simulator sim;
  RamTab ramtab(frames);
  FramesAllocator alloc(sim, ramtab, frames);
  NEM_ASSERT(alloc.AdmitClient(1, FramesContract{frames, 0}).ok());

  MicroResult r;
  const auto start = std::chrono::steady_clock::now();
  for (uint64_t i = 0; i < frames; ++i) {
    const auto pfn = alloc.AllocFrameWithColour(1, i % 8, 8);
    if (!pfn.has_value()) {
      break;  // remaining free frames miss the colour
    }
    ++r.decisions;
  }
  r.ns_per_decision = ElapsedNs(start) / static_cast<double>(r.decisions);
  return r;
}

// Per-decision cost at the largest N over the cost at the smallest N.
double CostGrowth(const char* name, const std::vector<int>& ns,
                  const std::vector<MicroResult>& rows) {
  std::printf("  %s (ns/decision):\n", name);
  for (size_t i = 0; i < rows.size(); ++i) {
    std::printf("    n=%4d  %9.1f  (%" PRIu64 " decisions)\n", ns[i], rows[i].ns_per_decision,
                rows[i].decisions);
  }
  const double growth = rows.back().ns_per_decision / rows.front().ns_per_decision;
  std::printf("    -> cost growth %dx domains: %.2fx\n\n", ns.back() / ns.front(), growth);
  return growth;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    }
  }
  std::printf("=== Ablation: fleet-density hot paths (indexed structures) ===\n\n");

  const std::vector<int> tenant_counts = smoke ? std::vector<int>{10, 100}
                                               : std::vector<int>{10, 100, 1000};
  const uint64_t sched_picks = smoke ? 2000 : 20000;
  const uint64_t alloc_cycles_base = smoke ? 100 : 500;

  std::vector<MicroResult> sched_rows, alloc_rows, colour_rows;
  for (int n : tenant_counts) {
    // Cycle count scales with N so teardown churn (dead client slots) stays
    // proportional to the fleet.
    const uint64_t cycles = std::max<uint64_t>(alloc_cycles_base, static_cast<uint64_t>(n) / 2);
    sched_rows.push_back(SchedMicro(n, sched_picks));
    alloc_rows.push_back(AllocMicro(n, cycles));
    colour_rows.push_back(ColourMicro(n));
  }
  const double sched_growth = CostGrowth("sched pick", tenant_counts, sched_rows);
  const double alloc_growth = CostGrowth("alloc steal", tenant_counts, alloc_rows);
  CostGrowth("alloc colour", tenant_counts, colour_rows);

  // Fleet realism: the scenario layer's tenant storm (admission waves, Zipf
  // bursts, teardown storms, hangs) at full density, judged by the
  // cross-layer oracles.
  const int storm_tenants = smoke ? 100 : 1000;
  std::printf("  %d-tenant storm (scenario layer, indexed):\n", storm_tenants);
  const ScenarioResult storm = RunScenario(GenerateTenantStorm(1, storm_tenants));
  std::printf("    %s: faults=%" PRIu64 " revocations=%" PRIu64 "/%" PRIu64
              " cancelled=%" PRIu64 " killed=%" PRIu64 "\n\n",
              storm.ok ? "clean" : "AUDIT VIOLATION", storm.faults,
              storm.revocations_transparent, storm.revocations_intrusive,
              storm.revocations_cancelled, storm.domains_killed);

  bool ok = storm.ok && storm.revocations_intrusive >= 1;
  // Wall-clock gate only in full mode: under sanitizers (the smoke runs)
  // ratios measure instrumentation, not the structures.
  if (!smoke) {
    ok = ok && sched_growth <= 8.0 && alloc_growth <= 8.0;
  }
  std::printf("  shape check: %s (audit-clean storm with intrusive revocations; %s)\n",
              ok ? "PASS" : "FAIL",
              smoke ? "smoke mode: wall-clock gate skipped"
                    : "near-flat sched/alloc cost 10->1000 domains, <=8x");
  return ok ? 0 : 1;
}
