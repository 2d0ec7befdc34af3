// Linear-vs-indexed equivalence suite (DESIGN.md "Indexed scheduler and
// allocator structures"): the EDF heap and the O(1) frame accounting must be
// bit-identical to the linear scans they replace. Covered here:
//   * generated scenarios, 20 seeds: identical trace CSVs and outcome
//     counters under ScenarioOptions::linear_structures
//   * a tenant-storm spec (the fleet-density preset) under the same flag
//   * EDF heap decrease/increase-key across Charge and periodic refresh,
//     checked pick-by-pick against a linear twin
//   * reclaimable counters and victim/colour/region choices across
//     nail/unnail, steals, frees, and client teardown, against a linear twin
//   * the auditor's indexed-structures rule trips on injected corruption
#include <gtest/gtest.h>

#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "src/check/invariants.h"
#include "src/core/scenario_runner.h"
#include "src/core/system.h"
#include "src/kernel/ramtab.h"
#include "src/mm/frames_allocator.h"
#include "src/sched/atropos.h"
#include "src/sim/scenario_gen.h"
#include "src/sim/simulator.h"

namespace nemesis {
namespace {

// --- Scenario-level equivalence ---------------------------------------------

// Small-but-adversarial generator shape (as in scenario_test.cc): enough
// pressure to revoke and kill, small enough for 20x4 runs in tier-1 budgets.
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

std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

// Counters in one comparable string (also the failure message on mismatch).
std::string Fingerprint(const ScenarioResult& r) {
  std::ostringstream out;
  out << "ok=" << r.ok << " faults=" << r.faults << " transparent=" << r.revocations_transparent
      << " intrusive=" << r.revocations_intrusive << " cancelled=" << r.revocations_cancelled
      << " killed=" << r.domains_killed;
  return out.str();
}

struct RunOutput {
  ScenarioResult result;
  std::string trace;
};

RunOutput RunVariant(const ScenarioSpec& spec, bool linear) {
  static int run_counter = 0;
  ScenarioOptions options;
  options.linear_structures = linear;
  options.trace_path = ::testing::TempDir() + "/equivalence_trace_" +
                       std::to_string(run_counter++) + ".csv";
  RunOutput out;
  out.result = RunScenario(spec, options);
  out.trace = ReadFile(options.trace_path);
  EXPECT_FALSE(out.trace.empty());
  return out;
}

TEST(ScenarioEquivalence, TwentySeedsLinearAndIndexed) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    const ScenarioSpec spec = GenerateScenario(seed, FastConfig());
    const RunOutput linear = RunVariant(spec, /*linear=*/true);
    const RunOutput indexed = RunVariant(spec, /*linear=*/false);
    EXPECT_TRUE(indexed.result.ok) << "seed " << seed << ": " << indexed.result.failure;
    EXPECT_EQ(Fingerprint(linear.result), Fingerprint(indexed.result)) << "seed " << seed;
    // The trace is the full pick/fault/revocation record, so equality here
    // means identical decision sequences.
    EXPECT_EQ(linear.trace, indexed.trace) << "seed " << seed;
  }
}

TEST(ScenarioEquivalence, TenantStormMatches) {
  // The fleet-density preset (>10 domains engages the scaled disk QoS and
  // exact swap sizing), small enough for a unit-test budget.
  const ScenarioSpec spec = GenerateTenantStorm(1, 32, Milliseconds(200));
  const RunOutput linear = RunVariant(spec, /*linear=*/true);
  const RunOutput indexed = RunVariant(spec, /*linear=*/false);
  EXPECT_TRUE(indexed.result.ok) << indexed.result.failure;
  EXPECT_EQ(Fingerprint(linear.result), Fingerprint(indexed.result));
  EXPECT_EQ(linear.trace, indexed.trace);
}

// --- EDF heap unit tests ----------------------------------------------------

QosSpec Spec(int64_t period_ms, int64_t slice_ms, int64_t laxity_ms = 0, bool extra = false) {
  return QosSpec{Milliseconds(period_ms), Milliseconds(slice_ms), extra, Milliseconds(laxity_ms)};
}

// Twin schedulers (one linear, one indexed) fed identical operations. Every
// Charge is a heap increase-key (deadline advances on refresh) and every
// periodic reallocation a decrease-key relative to peers; the pick sequence
// is the observable that proves the keys stayed right.
struct SchedTwins {
  Simulator sim_linear;
  Simulator sim_indexed;
  AtroposScheduler linear{sim_linear};
  AtroposScheduler indexed{sim_indexed};

  SchedTwins() {
    linear.set_indexed(false);
    // indexed mode is the default; assert rather than assume.
    EXPECT_TRUE(indexed.indexed());
  }

  SchedClientId AdmitBoth(const std::string& name, QosSpec spec) {
    auto a = linear.Admit(name, spec);
    auto b = indexed.Admit(name, spec);
    EXPECT_TRUE(a.has_value() && b.has_value());
    EXPECT_EQ(*a, *b);
    return *a;
  }

  void RunUntilBoth(SimTime t) {
    sim_linear.RunUntil(t);
    sim_indexed.RunUntil(t);
  }

  // One pick+charge step on both; returns false when both were nullopt.
  // Asserts the picks (and slack fallbacks) are identical.
  bool Step() {
    auto a = linear.PickNext();
    auto b = indexed.PickNext();
    EXPECT_EQ(a.has_value(), b.has_value());
    if (a.has_value() && b.has_value()) {
      EXPECT_EQ(a->client, b->client);
      EXPECT_EQ(a->lax, b->lax);
      EXPECT_EQ(a->deadline, b->deadline);
      EXPECT_EQ(a->budget, b->budget);
      linear.Charge(a->client, a->budget, a->lax);
      indexed.Charge(b->client, b->budget, b->lax);
      EXPECT_EQ(indexed.AuditIndexes(), "");
      return true;
    }
    auto sa = linear.PickSlack();
    auto sb = indexed.PickSlack();
    EXPECT_EQ(sa.has_value(), sb.has_value());
    if (sa.has_value() && sb.has_value()) {
      EXPECT_EQ(*sa, *sb);
    }
    return false;
  }
};

TEST(EdfHeapEquivalence, ChargeAndRefreshKeepPicksIdentical) {
  SchedTwins twins;
  std::vector<SchedClientId> ids;
  for (int i = 0; i < 6; ++i) {
    ids.push_back(twins.AdmitBoth("c" + std::to_string(i),
                                  Spec(20 + 5 * (i % 3), 2, /*laxity_ms=*/1, i % 2 == 0)));
  }
  for (SchedClientId id : ids) {
    twins.linear.SetQueued(id, 4);
    twins.indexed.SetQueued(id, 4);
  }
  ASSERT_EQ(twins.indexed.AuditIndexes(), "");
  // Interleave picks with time: exhaustion parks clients (heap removal),
  // periodic refresh re-arms them (heap insert with a new key).
  SimTime t = 0;
  for (int round = 0; round < 200; ++round) {
    while (twins.Step()) {
    }
    t += Microseconds(500);
    twins.RunUntilBoth(t);
    EXPECT_EQ(twins.indexed.AuditIndexes(), "") << "round " << round;
  }
  for (SchedClientId id : ids) {
    EXPECT_EQ(twins.linear.total_charged(id), twins.indexed.total_charged(id)) << "client " << id;
    EXPECT_EQ(twins.linear.deadline(id), twins.indexed.deadline(id)) << "client " << id;
  }
}

TEST(EdfHeapEquivalence, WorkArrivalAndRemovalKeepPicksIdentical) {
  SchedTwins twins;
  const SchedClientId a = twins.AdmitBoth("a", Spec(50, 5));
  const SchedClientId b = twins.AdmitBoth("b", Spec(30, 3));
  const SchedClientId c = twins.AdmitBoth("c", Spec(40, 4, /*laxity_ms=*/2, /*extra=*/true));
  for (SchedClientId id : {a, b, c}) {
    twins.linear.SetQueued(id, 2);
    twins.indexed.SetQueued(id, 2);
  }
  while (twins.Step()) {
  }
  // Drain one client's queue, then remove another mid-stream.
  twins.linear.SetQueued(a, 0);
  twins.indexed.SetQueued(a, 0);
  twins.RunUntilBoth(Milliseconds(60));
  while (twins.Step()) {
  }
  twins.linear.Remove(b);
  twins.indexed.Remove(b);
  EXPECT_EQ(twins.indexed.AuditIndexes(), "");
  twins.linear.SetQueued(a, 3);
  twins.indexed.SetQueued(a, 3);
  twins.RunUntilBoth(Milliseconds(120));
  while (twins.Step()) {
  }
  EXPECT_EQ(twins.indexed.AuditIndexes(), "");
}

TEST(EdfHeapEquivalence, AuditIndexesDetectsCorruptKey) {
  Simulator sim;
  AtroposScheduler sched(sim);
  auto id = sched.Admit("victim", Spec(100, 10));
  ASSERT_TRUE(id.has_value());
  sched.SetQueued(*id, 1);
  ASSERT_EQ(sched.AuditIndexes(), "");
  sched.TestOnlyCorruptEdfKey();
  EXPECT_NE(sched.AuditIndexes(), "");
}

// --- Frame accounting unit tests --------------------------------------------

// Twin allocators (one linear, one indexed) fed identical operations; the
// observables are victim choices, granted pfns, and the indexed self-audit.
class FramesTwins : public ::testing::Test {
 protected:
  static constexpr uint64_t kTotal = 24;

  FramesTwins()
      : ramtab_linear_(kTotal),
        ramtab_indexed_(kTotal),
        linear_(sim_linear_, ramtab_linear_, kTotal),
        indexed_(sim_indexed_, ramtab_indexed_, kTotal) {
    linear_.set_indexed(false);
    EXPECT_TRUE(indexed_.indexed());
  }

  void AdmitBoth(DomainId dom, FramesContract contract) {
    ASSERT_TRUE(linear_.AdmitClient(dom, contract).ok());
    ASSERT_TRUE(indexed_.AdmitClient(dom, contract).ok());
  }

  void RemoveBoth(DomainId dom) {
    ASSERT_TRUE(linear_.RemoveClient(dom).ok());
    ASSERT_TRUE(indexed_.RemoveClient(dom).ok());
    EXPECT_EQ(indexed_.AuditIndexes(), "");
  }

  // Allocates on both twins, asserting the same pfn (or the same error).
  Pfn AllocBoth(DomainId dom) {
    auto a = linear_.AllocFrame(dom);
    auto b = indexed_.AllocFrame(dom);
    EXPECT_EQ(a.has_value(), b.has_value());
    EXPECT_EQ(indexed_.AuditIndexes(), "");
    if (!a.has_value() || !b.has_value()) return kNoPfn;
    EXPECT_EQ(*a, *b);
    return *a;
  }

  void ExpectSameVictim() { EXPECT_EQ(linear_.PeekVictim(), indexed_.PeekVictim()); }

  static constexpr Pfn kNoPfn = static_cast<Pfn>(-1);

  Simulator sim_linear_;
  Simulator sim_indexed_;
  RamTab ramtab_linear_;
  RamTab ramtab_indexed_;
  FramesAllocator linear_;
  FramesAllocator indexed_;
};

TEST_F(FramesTwins, VictimChoiceMatchesAcrossStealsAndTeardown) {
  AdmitBoth(1, {2, 10});
  AdmitBoth(2, {2, 10});
  // Alternate optimistic fills so both hogs own interleaved pfns.
  for (int i = 0; i < 10; ++i) {
    ASSERT_NE(AllocBoth(1 + (i % 2)), kNoPfn);
  }
  ExpectSameVictim();
  // A guaranteed newcomer steals from the surplus-largest hog: every steal
  // changes both surplus keys, so victim order is re-derived each time.
  AdmitBoth(3, {6, 0});
  for (int i = 0; i < 6; ++i) {
    ExpectSameVictim();
    ASSERT_NE(AllocBoth(3), kNoPfn);
  }
  ExpectSameVictim();
  // Teardown returns the newcomer's frames; the hogs re-absorb them.
  RemoveBoth(3);
  for (int i = 0; i < 6; ++i) {
    ASSERT_NE(AllocBoth(1 + (i % 2)), kNoPfn);
  }
  ExpectSameVictim();
  RemoveBoth(1);
  ExpectSameVictim();
  RemoveBoth(2);
  EXPECT_EQ(linear_.PeekVictim(), kNoDomain);
  EXPECT_EQ(indexed_.PeekVictim(), kNoDomain);
}

TEST_F(FramesTwins, ReclaimableCountersTrackNailTransitions) {
  AdmitBoth(1, {2, 10});
  std::vector<Pfn> owned;
  for (int i = 0; i < 8; ++i) {
    owned.push_back(AllocBoth(1));
    ASSERT_NE(owned.back(), kNoPfn);
  }
  // Nail half: each kNailed entry must decrement the reclaimable counter via
  // the RamTab observer (the indexed self-audit recomputes ground truth).
  for (int i = 0; i < 4; ++i) {
    ramtab_linear_.SetNailed(owned[i]);
    ramtab_indexed_.SetNailed(owned[i]);
    EXPECT_EQ(indexed_.AuditIndexes(), "") << "after nailing " << owned[i];
  }
  ExpectSameVictim();
  // A guaranteed newcomer can only steal the 4 unnailed frames (plus the 12
  // still-free ones). Exhaust free memory first so steals actually happen.
  AdmitBoth(2, {2, 14});  // limit 16 == the frames still free at this point
  while (linear_.free_frames() > 0) {
    ASSERT_NE(AllocBoth(2), kNoPfn);
  }
  AdmitBoth(3, {4, 0});
  for (int i = 0; i < 4; ++i) {
    ExpectSameVictim();
    ASSERT_NE(AllocBoth(3), kNoPfn);
  }
  // Unnail: frames become reclaimable again on both sides.
  for (int i = 0; i < 4; ++i) {
    ramtab_linear_.SetUnused(owned[i]);
    ramtab_indexed_.SetUnused(owned[i]);
    EXPECT_EQ(indexed_.AuditIndexes(), "") << "after unnailing " << owned[i];
  }
  ExpectSameVictim();
  RemoveBoth(3);
  RemoveBoth(2);
  RemoveBoth(1);
}

TEST_F(FramesTwins, ColourAndRegionPlacementMatches) {
  AdmitBoth(1, {0, 24});
  // Colour allocations from a fresh pool, with interleaved frees so the
  // colour buckets see both pops and pushes (lazy rebuild on the indexed
  // side; linear twin scans the stack).
  std::vector<Pfn> got;
  for (int i = 0; i < 12; ++i) {
    auto a = linear_.AllocFrameWithColour(1, i % 4, 4);
    auto b = indexed_.AllocFrameWithColour(1, i % 4, 4);
    ASSERT_EQ(a.has_value(), b.has_value()) << "i=" << i;
    if (a.has_value()) {
      EXPECT_EQ(*a, *b) << "i=" << i;
      got.push_back(*a);
    }
    EXPECT_EQ(indexed_.AuditIndexes(), "");
  }
  for (size_t i = 0; i < got.size(); i += 2) {
    ASSERT_TRUE(linear_.FreeFrame(1, got[i]).ok());
    ASSERT_TRUE(indexed_.FreeFrame(1, got[i]).ok());
    EXPECT_EQ(indexed_.AuditIndexes(), "");
  }
  for (int i = 0; i < 6; ++i) {
    auto a = linear_.AllocFrameInRegion(1, 4, 16);
    auto b = indexed_.AllocFrameInRegion(1, 4, 16);
    ASSERT_EQ(a.has_value(), b.has_value()) << "i=" << i;
    if (a.has_value()) {
      EXPECT_EQ(*a, *b) << "i=" << i;
    }
    EXPECT_EQ(indexed_.AuditIndexes(), "");
  }
}

TEST_F(FramesTwins, AuditIndexesDetectsCorruptCounter) {
  AdmitBoth(1, {2, 2});
  ASSERT_NE(AllocBoth(1), kNoPfn);
  ASSERT_EQ(indexed_.AuditIndexes(), "");
  indexed_.TestOnlyCorruptReclaimable(1, +1);
  EXPECT_NE(indexed_.AuditIndexes(), "");
}

// --- System-level auditor rule ----------------------------------------------

TEST(IndexedStructuresRule, FullAuditFlagsCorruptedAllocatorIndex) {
  SystemConfig cfg;
  cfg.phys_frames = 64;
  cfg.audit = false;  // corrupt by hand, audit by hand
  System system(cfg);
  ASSERT_TRUE(system.frames().AdmitClient(7, FramesContract{4, 4}).ok());
  ASSERT_TRUE(system.frames().AllocFrame(7).has_value());
  ASSERT_TRUE(system.AuditNow(InvariantAuditor::Depth::kFull).ok());
  system.frames().TestOnlyCorruptReclaimable(7, -1);
  const AuditReport fast = system.AuditNow(InvariantAuditor::Depth::kFast);
  EXPECT_FALSE(fast.HasRule("indexed-structures")) << fast.Summary();  // full depth only
  const AuditReport full = system.AuditNow(InvariantAuditor::Depth::kFull);
  EXPECT_FALSE(full.ok());
  EXPECT_TRUE(full.HasRule("indexed-structures")) << full.Summary();
}

}  // namespace
}  // namespace nemesis
