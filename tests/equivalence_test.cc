// Reference-model suite (DESIGN.md "Indexed scheduler and allocator
// structures"): the Atropos heaps and the frames allocator's counters, victim
// heaps and free-frame index are the only implementation of each decision.
// Each test drives one production instance and, after every decision,
// compares the result with a brute-force scan computed here from public
// views only:
//   * EDF pick: minimum (deadline, id) over live clients that are runnable
//     with time remaining
//   * slack pick: minimum (deadline, id) over extra-time clients with queued
//     work (the test records the queued counts it sets)
//   * victim: largest optimistic surplus in admission order, a client owning
//     a frame the RamTab does not show as nailed beating any fully-nailed one,
//     skipping the victim of an in-flight intrusive revocation
//   * granted pfn: the back of the free list, or the victim's stack top when
//     the pool is empty
//   * colour/region placement: the first match in free-list order
// AuditIndexes() runs after every step, and the auditor's
// indexed-structures rule must trip on injected corruption.
#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "src/check/invariants.h"
#include "src/core/system.h"
#include "src/kernel/ramtab.h"
#include "src/mm/frames_allocator.h"
#include "src/sched/atropos.h"
#include "src/sim/simulator.h"

namespace nemesis {
namespace {

// --- Atropos against its reference scans ------------------------------------

QosSpec Spec(int64_t period_ms, int64_t slice_ms, int64_t laxity_ms = 0, bool extra = false) {
  return QosSpec{Milliseconds(period_ms), Milliseconds(slice_ms), extra, Milliseconds(laxity_ms)};
}

// One scheduler plus the bookkeeping the reference scans need: the live ids
// and the queued count last set for each. Every Charge is a heap
// increase-key (deadline advances on refresh) and every periodic
// reallocation a decrease-key relative to peers; the pick sequence is the
// observable that proves the keys stayed right.
struct SchedReference {
  Simulator sim;
  AtroposScheduler sched{sim};
  std::vector<SchedClientId> ids;
  std::map<SchedClientId, uint32_t> queued;

  SchedClientId Admit(const std::string& name, QosSpec spec) {
    auto id = sched.Admit(name, spec);
    EXPECT_TRUE(id.has_value());
    ids.push_back(*id);
    return *id;
  }

  void SetQueued(SchedClientId id, uint32_t n) {
    sched.SetQueued(id, n);
    queued[id] = n;
  }

  void Remove(SchedClientId id) {
    sched.Remove(id);
    std::erase(ids, id);
    queued.erase(id);
  }

  // Minimum (deadline, id) over the live clients `eligible` accepts.
  template <typename Pred>
  std::optional<SchedClientId> ScanMin(Pred eligible) const {
    std::optional<std::pair<SimTime, SchedClientId>> best;
    for (const SchedClientId id : ids) {
      const std::pair<SimTime, SchedClientId> key{sched.deadline(id), id};
      if (eligible(id) && (!best.has_value() || key < *best)) {
        best = key;
      }
    }
    if (!best.has_value()) {
      return std::nullopt;
    }
    return best->second;
  }

  // PickNext applies the lazy exhausted/idle transitions before it reads the
  // heap, so the reference reads the client states after the call.
  std::optional<SchedClientId> ReferenceEdf() const {
    return ScanMin([this](SchedClientId id) {
      return sched.state(id) == SchedClientState::kRunnable && sched.remaining(id) > 0;
    });
  }

  std::optional<SchedClientId> ReferenceSlack() const {
    return ScanMin([this](SchedClientId id) {
      const auto it = queued.find(id);
      return sched.spec(id).extra && it != queued.end() && it->second > 0;
    });
  }

  // One pick+charge step; returns false when PickNext had nothing. Asserts
  // the pick (or the slack fallback) matches the reference.
  bool Step() {
    const auto pick = sched.PickNext();
    const auto want = ReferenceEdf();
    EXPECT_EQ(pick.has_value(), want.has_value());
    if (pick.has_value() && want.has_value()) {
      EXPECT_EQ(pick->client, *want);
      EXPECT_EQ(pick->deadline, sched.deadline(pick->client));
      EXPECT_EQ(pick->slice_remaining, sched.remaining(pick->client));
      EXPECT_EQ(pick->lax, queued[pick->client] == 0);
      if (!pick->lax) {
        EXPECT_EQ(pick->budget, sched.remaining(pick->client));
      }
      sched.Charge(pick->client, pick->budget, pick->lax);
      EXPECT_EQ(sched.AuditIndexes(), "");
      return true;
    }
    EXPECT_EQ(sched.PickSlack(), ReferenceSlack());
    return false;
  }
};

TEST(EdfHeapEquivalence, ChargeAndRefreshKeepPicksIdentical) {
  SchedReference ref;
  for (int i = 0; i < 6; ++i) {
    const SchedClientId id = ref.Admit("c" + std::to_string(i),
                                       Spec(20 + 5 * (i % 3), 2, /*laxity_ms=*/1, i % 2 == 0));
    ref.SetQueued(id, 4);
  }
  ASSERT_EQ(ref.sched.AuditIndexes(), "");
  // Interleave picks with time: exhaustion parks clients (heap removal),
  // periodic refresh re-arms them (heap insert with a new key).
  SimTime t = 0;
  for (int round = 0; round < 200; ++round) {
    while (ref.Step()) {
    }
    t += Microseconds(500);
    ref.sim.RunUntil(t);
    EXPECT_EQ(ref.sched.AuditIndexes(), "") << "round " << round;
  }
}

TEST(EdfHeapEquivalence, WorkArrivalAndRemovalKeepPicksIdentical) {
  SchedReference ref;
  const SchedClientId a = ref.Admit("a", Spec(50, 5));
  const SchedClientId b = ref.Admit("b", Spec(30, 3));
  const SchedClientId c = ref.Admit("c", Spec(40, 4, /*laxity_ms=*/2, /*extra=*/true));
  for (SchedClientId id : {a, b, c}) {
    ref.SetQueued(id, 2);
  }
  while (ref.Step()) {
  }
  // Drain one client's queue, then remove another mid-stream.
  ref.SetQueued(a, 0);
  ref.sim.RunUntil(Milliseconds(60));
  while (ref.Step()) {
  }
  ref.Remove(b);
  EXPECT_EQ(ref.sched.AuditIndexes(), "");
  ref.SetQueued(a, 3);
  ref.sim.RunUntil(Milliseconds(120));
  while (ref.Step()) {
  }
  EXPECT_EQ(ref.sched.AuditIndexes(), "");
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

// --- Frames allocator against its reference scans ---------------------------

// One allocator, checked after every decision against the scans below; the
// observables are victim choices, granted pfns, and the allocator's
// self-audit.
class FramesTwins : public ::testing::Test {
 protected:
  static constexpr uint64_t kTotal = 24;
  static constexpr Pfn kNoPfn = static_cast<Pfn>(-1);

  FramesTwins() : ramtab_(kTotal), alloc_(sim_, ramtab_, kTotal) {
    alloc_.set_revocation_notifier(
        [this](DomainId victim, uint64_t, SimTime) { revoking_ = victim; });
  }

  void Admit(DomainId dom, FramesContract contract) {
    ASSERT_TRUE(alloc_.AdmitClient(dom, contract).ok());
  }

  void Remove(DomainId dom) {
    ASSERT_TRUE(alloc_.RemoveClient(dom).ok());
    EXPECT_EQ(alloc_.AuditIndexes(), "");
  }

  // Largest optimistic surplus, first in admission order on ties; a client
  // owning a frame that is not nailed beats any fully-nailed one; the victim
  // of an in-flight intrusive revocation is skipped.
  DomainId ReferenceVictim() const {
    const DomainId skip = alloc_.revocation_in_progress() ? revoking_ : kNoDomain;
    DomainId best = kNoDomain;
    uint64_t best_surplus = 0;
    DomainId fallback = kNoDomain;
    uint64_t fallback_surplus = 0;
    alloc_.ForEachClient([&](const FramesAllocator::ClientView& c) {
      if (c.domain == skip || c.allocated <= c.contract.guaranteed) {
        return;
      }
      const uint64_t surplus = c.allocated - c.contract.guaranteed;
      const auto& frames = c.stack->frames();
      const bool reclaimable = std::any_of(frames.begin(), frames.end(), [this](Pfn pfn) {
        return ramtab_.StateOf(pfn) != FrameState::kNailed;
      });
      if (reclaimable && surplus > best_surplus) {
        best = c.domain;
        best_surplus = surplus;
      } else if (!reclaimable && surplus > fallback_surplus) {
        fallback = c.domain;
        fallback_surplus = surplus;
      }
    });
    return best != kNoDomain ? best : fallback;
  }

  void ExpectReferenceVictim() { EXPECT_EQ(alloc_.PeekVictim(), ReferenceVictim()); }

  // The pfn AllocFrame grants: the back of the free list, else the top of the
  // victim's stack (a transparent steal pushes it, the grant pops it).
  Pfn ReferenceGrant() {
    Pfn back = kNoPfn;
    alloc_.ForEachFreeFrame([&back](Pfn pfn) { back = pfn; });
    if (back != kNoPfn) {
      return back;
    }
    const DomainId victim = ReferenceVictim();
    return victim == kNoDomain ? kNoPfn : alloc_.StackOf(victim)->Top();
  }

  // First free frame in list order that `match` accepts.
  template <typename Pred>
  Pfn ReferencePlacement(Pred match) const {
    Pfn first = kNoPfn;
    alloc_.ForEachFreeFrame([&](Pfn pfn) {
      if (first == kNoPfn && match(pfn)) {
        first = pfn;
      }
    });
    return first;
  }

  // Allocates, asserting the granted pfn matches the reference.
  Pfn Alloc(DomainId dom) {
    ExpectReferenceVictim();
    const Pfn want = ReferenceGrant();
    auto got = alloc_.AllocFrame(dom);
    EXPECT_EQ(alloc_.AuditIndexes(), "");
    if (!got.has_value()) return kNoPfn;
    EXPECT_EQ(*got, want);
    return *got;
  }

  Simulator sim_;
  RamTab ramtab_;
  FramesAllocator alloc_;
  DomainId revoking_ = kNoDomain;  // last victim handed to the notifier
};

TEST_F(FramesTwins, VictimChoiceMatchesAcrossStealsAndTeardown) {
  Admit(1, {2, 10});
  Admit(2, {2, 10});
  // Alternate optimistic fills so both hogs own interleaved pfns.
  for (int i = 0; i < 10; ++i) {
    ASSERT_NE(Alloc(1 + (i % 2)), kNoPfn);
  }
  ExpectReferenceVictim();
  // A guaranteed newcomer steals from the surplus-largest hog: every steal
  // changes both surplus keys, so victim order is re-derived each time.
  Admit(3, {6, 0});
  for (int i = 0; i < 6; ++i) {
    ASSERT_NE(Alloc(3), kNoPfn);
  }
  ExpectReferenceVictim();
  // Teardown returns the newcomer's frames; the hogs re-absorb them.
  Remove(3);
  for (int i = 0; i < 6; ++i) {
    ASSERT_NE(Alloc(1 + (i % 2)), kNoPfn);
  }
  ExpectReferenceVictim();
  Remove(1);
  ExpectReferenceVictim();
  Remove(2);
  EXPECT_EQ(alloc_.PeekVictim(), kNoDomain);
}

TEST_F(FramesTwins, ReclaimableCountersTrackNailTransitions) {
  Admit(1, {2, 10});
  std::vector<Pfn> owned;
  for (int i = 0; i < 8; ++i) {
    owned.push_back(Alloc(1));
    ASSERT_NE(owned.back(), kNoPfn);
  }
  // Nail half: each kNailed entry must decrement the reclaimable counter via
  // the RamTab observer (the self-audit recomputes ground truth).
  for (int i = 0; i < 4; ++i) {
    ramtab_.SetNailed(owned[i]);
    EXPECT_EQ(alloc_.AuditIndexes(), "") << "after nailing " << owned[i];
  }
  ExpectReferenceVictim();
  // A guaranteed newcomer can only steal the 4 unnailed frames (plus the 12
  // still-free ones). Exhaust free memory first so steals actually happen.
  Admit(2, {2, 14});  // limit 16 == the frames still free at this point
  while (alloc_.free_frames() > 0) {
    ASSERT_NE(Alloc(2), kNoPfn);
  }
  Admit(3, {4, 0});
  for (int i = 0; i < 4; ++i) {
    ASSERT_NE(Alloc(3), kNoPfn);
  }
  // Unnail: frames become reclaimable again.
  for (int i = 0; i < 4; ++i) {
    ramtab_.SetUnused(owned[i]);
    EXPECT_EQ(alloc_.AuditIndexes(), "") << "after unnailing " << owned[i];
  }
  ExpectReferenceVictim();
  Remove(3);
  Remove(2);
  Remove(1);
}

TEST_F(FramesTwins, VictimSkipsIntrusiveRevocationInFlight) {
  Admit(1, {2, 12});  // fills to 14: surplus 12, the first victim
  Admit(2, {2, 8});   // fills to 10: surplus 8, the runner-up
  for (int i = 0; i < 14; ++i) {
    ASSERT_NE(Alloc(1), kNoPfn);
  }
  for (int i = 0; i < 10; ++i) {
    ASSERT_NE(Alloc(2), kNoPfn);
  }
  ASSERT_EQ(alloc_.free_frames(), 0u);
  ASSERT_EQ(alloc_.PeekVictim(), 1u);
  // A mapped top frame cannot be stolen transparently, so the newcomer's
  // guaranteed fault starts an intrusive revocation against domain 1.
  ramtab_.SetMapped(alloc_.StackOf(1)->Top(), /*vpn=*/0x40);
  Admit(3, {4, 0});
  ExpectReferenceVictim();
  const auto pending = alloc_.AllocFrame(3);
  ASSERT_FALSE(pending.has_value());
  EXPECT_EQ(pending.error(), FramesError::kRevocationPending);
  ASSERT_TRUE(alloc_.revocation_in_progress());
  ASSERT_EQ(revoking_, 1u);
  EXPECT_EQ(alloc_.revocations_intrusive(), 1u);
  // While it is in flight the reclaimable heap's top is skipped: the next
  // victim is the runner-up.
  EXPECT_EQ(ReferenceVictim(), 2u);
  ExpectReferenceVictim();
  EXPECT_EQ(alloc_.AuditIndexes(), "");
  // Domain 1 never unmaps its frame: past the deadline it is killed and all
  // of its frames return to the pool.
  sim_.RunUntil(Milliseconds(150));
  EXPECT_FALSE(alloc_.revocation_in_progress());
  EXPECT_EQ(alloc_.domains_killed(), 1u);
  EXPECT_FALSE(alloc_.IsClient(1));
  EXPECT_EQ(ReferenceVictim(), 2u);
  ExpectReferenceVictim();
  EXPECT_EQ(alloc_.AuditIndexes(), "");
  ASSERT_NE(Alloc(3), kNoPfn);
}

TEST_F(FramesTwins, ColourAndRegionPlacementMatches) {
  Admit(1, {0, 24});
  // Colour allocations from a fresh pool, with interleaved frees so the
  // colour buckets see both pops and pushes (and a lazy rebuild).
  std::vector<Pfn> got;
  for (int i = 0; i < 12; ++i) {
    const uint64_t colour = i % 4;
    const Pfn want = ReferencePlacement([colour](Pfn pfn) { return pfn % 4 == colour; });
    auto pfn = alloc_.AllocFrameWithColour(1, colour, 4);
    ASSERT_EQ(pfn.has_value(), want != kNoPfn) << "i=" << i;
    if (pfn.has_value()) {
      EXPECT_EQ(*pfn, want) << "i=" << i;
      got.push_back(*pfn);
    }
    EXPECT_EQ(alloc_.AuditIndexes(), "");
  }
  for (size_t i = 0; i < got.size(); i += 2) {
    ASSERT_TRUE(alloc_.FreeFrame(1, got[i]).ok());
    EXPECT_EQ(alloc_.AuditIndexes(), "");
  }
  for (int i = 0; i < 6; ++i) {
    const Pfn want = ReferencePlacement([](Pfn pfn) { return pfn >= 4 && pfn < 4 + 16; });
    auto pfn = alloc_.AllocFrameInRegion(1, 4, 16);
    ASSERT_EQ(pfn.has_value(), want != kNoPfn) << "i=" << i;
    if (pfn.has_value()) {
      EXPECT_EQ(*pfn, want) << "i=" << i;
    }
    EXPECT_EQ(alloc_.AuditIndexes(), "");
  }
}

TEST_F(FramesTwins, AuditIndexesDetectsCorruptCounter) {
  Admit(1, {2, 2});
  ASSERT_NE(Alloc(1), kNoPfn);
  ASSERT_EQ(alloc_.AuditIndexes(), "");
  alloc_.TestOnlyCorruptReclaimable(1, +1);
  EXPECT_NE(alloc_.AuditIndexes(), "");
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
