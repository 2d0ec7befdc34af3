// Unit tests for the memory-management layer: protection domains, stretch
// allocation, high-level translation, frame stacks, and the frames allocator
// with its revocation protocol.
#include <gtest/gtest.h>

#include <string>

#include "src/hw/mmu.h"
#include "src/hw/page_table.h"
#include "src/kernel/ramtab.h"
#include "src/mm/frame_stack.h"
#include "src/mm/frames_allocator.h"
#include "src/mm/prot_domain.h"
#include "src/mm/stretch.h"
#include "src/mm/stretch_allocator.h"
#include "src/mm/translation.h"
#include "src/sim/simulator.h"

namespace nemesis {
namespace {

TEST(ProtDomain, DefaultHasNoEntries) {
  ProtectionDomain pd(1);
  EXPECT_FALSE(pd.RightsFor(3).has_value());
  EXPECT_FALSE(pd.HasEntry(3));
}

TEST(ProtDomain, SetAndRemove) {
  ProtectionDomain pd(1);
  pd.SetRights(3, kRightRead | kRightWrite);
  ASSERT_TRUE(pd.RightsFor(3).has_value());
  EXPECT_EQ(*pd.RightsFor(3), kRightRead | kRightWrite);
  pd.RemoveEntry(3);
  EXPECT_FALSE(pd.RightsFor(3).has_value());
}

TEST(ProtDomain, ChangeRightsRequiresMeta) {
  ProtectionDomain target(1);
  ProtectionDomain caller(2);
  caller.SetRights(3, kRightRead);  // no meta
  auto s = target.ChangeRights(caller, 3, kRightRead);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error(), VmError::kNoMeta);
  caller.SetRights(3, kRightRead | kRightMeta);
  EXPECT_TRUE(target.ChangeRights(caller, 3, kRightRead).ok());
  EXPECT_EQ(*target.RightsFor(3), kRightRead);
}

TEST(ProtDomain, IdempotentChangeDetected) {
  ProtectionDomain target(1);
  ProtectionDomain caller(2);
  caller.SetRights(3, kRightAll);
  ASSERT_TRUE(target.ChangeRights(caller, 3, kRightRead).ok());
  const uint64_t changes = target.changes();
  ASSERT_TRUE(target.ChangeRights(caller, 3, kRightRead).ok());
  EXPECT_EQ(target.changes(), changes);  // no-op change not counted
}

class MmTest : public ::testing::Test {
 protected:
  static constexpr size_t kPage = kDefaultPageSize;

  MmTest()
      : pt_(1 << 16),
        mmu_(&pt_),
        translation_(mmu_),
        salloc_(translation_, 16 * kPage, (16 + 1024) * kPage, kPage) {}

  PageTable pt_;
  Mmu mmu_;
  TranslationSystem translation_;
  StretchAllocator salloc_;
};

TEST_F(MmTest, NewStretchIsPageAlignedAndSized) {
  auto s = salloc_.New(1, nullptr, 3 * kPage + 1);
  ASSERT_TRUE(s.has_value());
  Stretch* st = *s;
  EXPECT_TRUE(IsAligned(st->base(), kPage));
  EXPECT_EQ(st->length(), 4 * kPage);
  EXPECT_EQ(st->page_count(), 4u);
  EXPECT_EQ(st->owner(), 1u);
}

TEST_F(MmTest, NewStretchCreatesNullMappings) {
  auto s = salloc_.New(1, nullptr, 2 * kPage);
  ASSERT_TRUE(s.has_value());
  Pte* pte = pt_.Lookup((*s)->base() / kPage);
  ASSERT_NE(pte, nullptr);
  EXPECT_FALSE(pte->valid);
  EXPECT_EQ(pte->sid, (*s)->sid());
  // Access raises a page fault (TNV), not "unallocated".
  ProtectionDomain pd(1);
  pd.SetRights((*s)->sid(), kRightAll);
  EXPECT_EQ(mmu_.Translate((*s)->base(), AccessType::kRead, &pd).fault, FaultType::kFaultTnv);
}

TEST_F(MmTest, OwnerGetsFullRights) {
  ProtectionDomain pd(1);
  auto s = salloc_.New(1, &pd, kPage);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ(*pd.RightsFor((*s)->sid()), kRightAll);
}

TEST_F(MmTest, StretchesDoNotOverlap) {
  auto a = salloc_.New(1, nullptr, 4 * kPage);
  auto b = salloc_.New(1, nullptr, 4 * kPage);
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  const VirtAddr a_end = (*a)->base() + (*a)->length();
  const VirtAddr b_end = (*b)->base() + (*b)->length();
  EXPECT_TRUE(a_end <= (*b)->base() || b_end <= (*a)->base());
}

TEST_F(MmTest, FixedAddressRespected) {
  const VirtAddr want = 32 * kPage;
  auto s = salloc_.New(1, nullptr, kPage, want);
  ASSERT_TRUE(s.has_value());
  EXPECT_EQ((*s)->base(), want);
  // The same address is now busy.
  auto clash = salloc_.New(1, nullptr, kPage, want);
  ASSERT_FALSE(clash.has_value());
  EXPECT_EQ(clash.error(), StretchError::kRangeBusy);
}

TEST_F(MmTest, DestroyReleasesRangeAndTranslations) {
  auto s = salloc_.New(1, nullptr, 2 * kPage);
  ASSERT_TRUE(s.has_value());
  const VirtAddr base = (*s)->base();
  const Sid sid = (*s)->sid();
  ASSERT_TRUE(salloc_.Destroy(sid).ok());
  EXPECT_EQ(pt_.Lookup(base / kPage), nullptr);
  EXPECT_EQ(salloc_.FindByAddr(base), nullptr);
  EXPECT_EQ(salloc_.stretch_count(), 0u);
  // The range can be reused.
  auto again = salloc_.New(1, nullptr, 2 * kPage, base);
  EXPECT_TRUE(again.has_value());
}

TEST_F(MmTest, DestroyRemovesRightsFromOwnerPdom) {
  // Regression: Destroy used to leave the sid's rights entries behind, so a
  // later stretch reusing the sid inherited another domain's rights (the
  // auditor's pdom-rights dead-sid rule catches the leak).
  ProtectionDomain* pd = translation_.CreateProtectionDomain();
  auto s = salloc_.New(1, pd, 2 * kPage);
  ASSERT_TRUE(s.has_value());
  const Sid sid = (*s)->sid();
  ASSERT_TRUE(pd->HasEntry(sid));
  ASSERT_TRUE(salloc_.Destroy(sid).ok());
  EXPECT_FALSE(pd->HasEntry(sid));
}

TEST_F(MmTest, DestroyRemovesRightsGrantedToOtherPdoms) {
  ProtectionDomain* owner = translation_.CreateProtectionDomain();
  ProtectionDomain* peer = translation_.CreateProtectionDomain();
  auto s = salloc_.New(1, owner, 2 * kPage);
  ASSERT_TRUE(s.has_value());
  const Sid sid = (*s)->sid();
  // Owner (holding meta) grants the peer read access.
  ASSERT_TRUE(peer->ChangeRights(*owner, sid, kRightRead).ok());
  ASSERT_TRUE(peer->HasEntry(sid));
  ASSERT_TRUE(salloc_.Destroy(sid).ok());
  EXPECT_FALSE(peer->HasEntry(sid));
}

TEST_F(MmTest, DeletedPdomRightsDoNotOutliveIt) {
  // A protection domain created after another is deleted (possibly at the
  // same address) starts with no entries: the translation takes the PTE's
  // global rights, not the dead domain's.
  ProtectionDomain* owner = translation_.CreateProtectionDomain();
  auto s = salloc_.New(1, owner, kPage);
  ASSERT_TRUE(s.has_value());
  const VirtAddr va = (*s)->base();
  Pte* pte = pt_.Lookup(va / kPage);
  ASSERT_NE(pte, nullptr);
  pte->valid = true;
  pte->pfn = 3;
  EXPECT_EQ(mmu_.Translate(va, AccessType::kRead, owner).fault, FaultType::kNone);

  translation_.DeleteProtectionDomain(owner->id());
  ProtectionDomain* fresh = translation_.CreateProtectionDomain();
  EXPECT_FALSE(fresh->HasEntry((*s)->sid()));
  EXPECT_EQ(mmu_.Translate(va, AccessType::kRead, fresh).fault, FaultType::kFaultAcv);
}

TEST_F(MmTest, FindByAddr) {
  auto s = salloc_.New(1, nullptr, 4 * kPage);
  ASSERT_TRUE(s.has_value());
  const VirtAddr base = (*s)->base();
  EXPECT_EQ(salloc_.FindByAddr(base), *s);
  EXPECT_EQ(salloc_.FindByAddr(base + 3 * kPage + 5), *s);
  EXPECT_EQ(salloc_.FindByAddr(base + 4 * kPage), nullptr);
  EXPECT_EQ(salloc_.FindByAddr(base - 1), nullptr);
  // A second stretch past a gap: the gap and the end of each stretch miss.
  auto t = salloc_.New(1, nullptr, 2 * kPage, base + 8 * kPage);
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(salloc_.FindByAddr(base + 6 * kPage), nullptr);
  EXPECT_EQ(salloc_.FindByAddr(base + 8 * kPage), *t);
  EXPECT_EQ(salloc_.FindByAddr(base + 10 * kPage - 1), *t);
  EXPECT_EQ(salloc_.FindByAddr(base + 10 * kPage), nullptr);
  ASSERT_TRUE(salloc_.Destroy((*t)->sid()).ok());
  EXPECT_EQ(salloc_.FindByAddr(base + 8 * kPage), nullptr);
  EXPECT_EQ(salloc_.FindByAddr(base + kPage), *s);
}

TEST_F(MmTest, ExhaustsVirtualSpace) {
  // The arena holds 1024 pages.
  auto big = salloc_.New(1, nullptr, 1024 * kPage);
  ASSERT_TRUE(big.has_value());
  auto more = salloc_.New(1, nullptr, kPage);
  ASSERT_FALSE(more.has_value());
  EXPECT_EQ(more.error(), StretchError::kNoVirtualSpace);
}

TEST_F(MmTest, TranslationPdomLifecycle) {
  ProtectionDomain* a = translation_.CreateProtectionDomain();
  ProtectionDomain* b = translation_.CreateProtectionDomain();
  EXPECT_NE(a->id(), b->id());
  EXPECT_EQ(translation_.pdom_count(), 2u);
  EXPECT_EQ(translation_.FindProtectionDomain(a->id()), a);
  const PdomId a_id = a->id();  // `a` is freed by the delete below
  translation_.DeleteProtectionDomain(a_id);
  EXPECT_EQ(translation_.pdom_count(), 1u);
  EXPECT_EQ(translation_.FindProtectionDomain(a_id), nullptr);
}

TEST(FrameStackTest, PushAndOrder) {
  FrameStack fs;
  fs.PushTop(1);
  fs.PushTop(2);  // 2 is now most revocable
  fs.PushBottom(3);
  EXPECT_EQ(fs.size(), 3u);
  EXPECT_EQ(fs.Top(), 2u);
  EXPECT_EQ(fs.At(0), 2u);
  EXPECT_EQ(fs.At(1), 1u);
  EXPECT_EQ(fs.At(2), 3u);
}

TEST(FrameStackTest, MoveToTopAndBottom) {
  FrameStack fs;
  fs.PushBottom(1);
  fs.PushBottom(2);
  fs.PushBottom(3);
  fs.MoveToTop(3);
  EXPECT_EQ(fs.Top(), 3u);
  fs.MoveToBottom(3);
  EXPECT_EQ(fs.At(2), 3u);
}

TEST(FrameStackTest, PopAndRemove) {
  FrameStack fs;
  fs.PushBottom(1);
  fs.PushBottom(2);
  EXPECT_EQ(fs.PopTop(), 1u);
  fs.Remove(2);
  EXPECT_TRUE(fs.empty());
}

class FramesTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kTotal = 16;

  FramesTest() : ramtab_(kTotal), frames_(sim_, ramtab_, kTotal) {}

  Simulator sim_;
  RamTab ramtab_;
  FramesAllocator frames_;
};

TEST_F(FramesTest, AdmissionControlSumOfGuarantees) {
  EXPECT_TRUE(frames_.AdmitClient(1, {10, 0}).ok());
  EXPECT_TRUE(frames_.AdmitClient(2, {6, 4}).ok());
  auto s = frames_.AdmitClient(3, {1, 0});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error(), FramesError::kAdmissionFailed);
}

TEST_F(FramesTest, DoubleAdmitRejected) {
  EXPECT_TRUE(frames_.AdmitClient(1, {2, 0}).ok());
  auto s = frames_.AdmitClient(1, {2, 0});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error(), FramesError::kAlreadyClient);
}

TEST_F(FramesTest, GuaranteedAllocationSucceeds) {
  ASSERT_TRUE(frames_.AdmitClient(1, {4, 0}).ok());
  for (int i = 0; i < 4; ++i) {
    auto f = frames_.AllocFrame(1);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(ramtab_.OwnerOf(*f), 1u);
  }
  EXPECT_EQ(frames_.AllocatedCount(1), 4u);
  EXPECT_EQ(frames_.StackOf(1)->size(), 4u);
}

TEST_F(FramesTest, QuotaEnforced) {
  ASSERT_TRUE(frames_.AdmitClient(1, {2, 1}).ok());
  ASSERT_TRUE(frames_.AllocFrame(1).has_value());
  ASSERT_TRUE(frames_.AllocFrame(1).has_value());
  ASSERT_TRUE(frames_.AllocFrame(1).has_value());  // optimistic
  auto f = frames_.AllocFrame(1);
  ASSERT_FALSE(f.has_value());
  EXPECT_EQ(f.error(), FramesError::kQuotaExceeded);
}

TEST_F(FramesTest, NonClientRejected) {
  auto f = frames_.AllocFrame(9);
  ASSERT_FALSE(f.has_value());
  EXPECT_EQ(f.error(), FramesError::kNotClient);
}

TEST_F(FramesTest, OptimisticDeniedWhenGuaranteesOutstanding) {
  // Client 1 reserves all 16 frames but has allocated none; client 2's
  // optimistic requests must not eat into that reserve.
  ASSERT_TRUE(frames_.AdmitClient(1, {16, 0}).ok());
  ASSERT_TRUE(frames_.AdmitClient(2, {0, 4}).ok());
  auto f = frames_.AllocFrame(2);
  ASSERT_FALSE(f.has_value());
  EXPECT_EQ(f.error(), FramesError::kNoMemory);
}

TEST_F(FramesTest, OptimisticGrantedFromSpareMemory) {
  ASSERT_TRUE(frames_.AdmitClient(1, {4, 0}).ok());
  ASSERT_TRUE(frames_.AdmitClient(2, {0, 4}).ok());
  // 16 total, 4 reserved -> plenty spare.
  EXPECT_TRUE(frames_.AllocFrame(2).has_value());
}

TEST_F(FramesTest, FreeFrameReturnsToPool) {
  ASSERT_TRUE(frames_.AdmitClient(1, {4, 0}).ok());
  auto f = frames_.AllocFrame(1);
  ASSERT_TRUE(f.has_value());
  const uint64_t before = frames_.free_frames();
  ASSERT_TRUE(frames_.FreeFrame(1, *f).ok());
  EXPECT_EQ(frames_.free_frames(), before + 1);
  EXPECT_EQ(frames_.AllocatedCount(1), 0u);
  EXPECT_EQ(ramtab_.OwnerOf(*f), kNoDomain);
}

TEST_F(FramesTest, FreeMappedFrameRejected) {
  ASSERT_TRUE(frames_.AdmitClient(1, {4, 0}).ok());
  auto f = frames_.AllocFrame(1);
  ASSERT_TRUE(f.has_value());
  ramtab_.SetMapped(*f, 7);
  auto s = frames_.FreeFrame(1, *f);
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error(), FramesError::kFrameBusy);
}

TEST_F(FramesTest, TransparentRevocationReclaimsUnusedFrames) {
  // Victim holds all 16 frames (4 guaranteed + 12 optimistic), all unused.
  ASSERT_TRUE(frames_.AdmitClient(1, {4, 12}).ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(frames_.AllocFrame(1).has_value());
  }
  ASSERT_TRUE(frames_.AdmitClient(2, {4, 0}).ok());
  auto f = frames_.AllocFrame(2);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(frames_.revocations_transparent(), 1u);
  EXPECT_EQ(frames_.AllocatedCount(1), 15u);
}

TEST_F(FramesTest, IntrusiveRevocationNotifiesVictim) {
  ASSERT_TRUE(frames_.AdmitClient(1, {4, 12}).ok());
  for (int i = 0; i < 16; ++i) {
    auto f = frames_.AllocFrame(1);
    ASSERT_TRUE(f.has_value());
    ramtab_.SetMapped(*f, 100 + i);  // every frame in use
  }
  DomainId notified = kNoDomain;
  uint64_t asked_k = 0;
  frames_.set_revocation_notifier([&](DomainId victim, uint64_t k, SimTime) {
    notified = victim;
    asked_k = k;
  });
  ASSERT_TRUE(frames_.AdmitClient(2, {4, 0}).ok());
  auto f = frames_.AllocFrame(2);
  ASSERT_FALSE(f.has_value());
  EXPECT_EQ(f.error(), FramesError::kRevocationPending);
  EXPECT_EQ(notified, 1u);
  EXPECT_EQ(asked_k, 1u);
  EXPECT_TRUE(frames_.revocation_in_progress());
}

TEST_F(FramesTest, IntrusiveRevocationCompletesWhenVictimComplies) {
  ASSERT_TRUE(frames_.AdmitClient(1, {4, 12}).ok());
  std::vector<Pfn> owned;
  for (int i = 0; i < 16; ++i) {
    auto f = frames_.AllocFrame(1);
    ASSERT_TRUE(f.has_value());
    ramtab_.SetMapped(*f, 100 + i);
    owned.push_back(*f);
  }
  frames_.set_revocation_notifier([&](DomainId, uint64_t k, SimTime) {
    // The victim unmaps the top k frames and replies.
    FrameStack* stack = frames_.StackOf(1);
    for (uint64_t i = 0; i < k; ++i) {
      ramtab_.SetUnused(stack->At(i));
    }
    frames_.RevocationComplete(1);
  });
  ASSERT_TRUE(frames_.AdmitClient(2, {4, 0}).ok());
  // The victim complies synchronously from the notifier, so the request is
  // granted on the spot.
  auto f = frames_.AllocFrame(2);
  ASSERT_TRUE(f.has_value());
  EXPECT_FALSE(frames_.revocation_in_progress());
  EXPECT_EQ(frames_.AllocatedCount(1), 15u);
  EXPECT_EQ(frames_.domains_killed(), 0u);
}

TEST_F(FramesTest, VictimMissingDeadlineIsKilled) {
  ASSERT_TRUE(frames_.AdmitClient(1, {4, 12}).ok());
  for (int i = 0; i < 16; ++i) {
    auto f = frames_.AllocFrame(1);
    ASSERT_TRUE(f.has_value());
    ramtab_.SetMapped(*f, 100 + i);
  }
  DomainId killed = kNoDomain;
  frames_.set_kill_handler([&](DomainId victim) { killed = victim; });
  int force_unmaps = 0;
  frames_.set_force_unmap([&](Vpn) { ++force_unmaps; });
  ASSERT_TRUE(frames_.AdmitClient(2, {4, 0}).ok());
  ASSERT_FALSE(frames_.AllocFrame(2).has_value());
  // Victim never replies; the deadline (100 ms) passes.
  sim_.RunUntil(Milliseconds(150));
  EXPECT_EQ(killed, 1u);
  EXPECT_EQ(frames_.domains_killed(), 1u);
  EXPECT_EQ(force_unmaps, 16);
  EXPECT_FALSE(frames_.IsClient(1));
  // All frames reclaimed: client 2 can now allocate its guarantee.
  for (int i = 0; i < 4; ++i) {
    EXPECT_TRUE(frames_.AllocFrame(2).has_value());
  }
}

TEST_F(FramesTest, FramesAvailableSignalledAfterRevocation) {
  ASSERT_TRUE(frames_.AdmitClient(1, {4, 12}).ok());
  for (int i = 0; i < 16; ++i) {
    auto f = frames_.AllocFrame(1);
    ASSERT_TRUE(f.has_value());
    ramtab_.SetMapped(*f, 100 + i);
  }
  frames_.set_revocation_notifier([&](DomainId, uint64_t k, SimTime) {
    FrameStack* stack = frames_.StackOf(1);
    for (uint64_t i = 0; i < k; ++i) {
      ramtab_.SetUnused(stack->At(i));
    }
    frames_.RevocationComplete(1);
  });
  ASSERT_TRUE(frames_.AdmitClient(2, {4, 0}).ok());

  struct Alloc {
    static Task Run(FramesAllocator* fa, DomainId d, bool* got) {
      for (;;) {
        auto f = fa->AllocFrame(d);
        if (f.has_value()) {
          *got = true;
          co_return;
        }
        if (f.error() != FramesError::kRevocationPending) {
          co_return;
        }
        co_await fa->frames_available().Wait();
      }
    }
  };
  bool got = false;
  sim_.Spawn(Alloc::Run(&frames_, 2, &got), "alloc");
  sim_.Run();
  EXPECT_TRUE(got);
}

TEST_F(FramesTest, RevocationTimeoutConfigurable) {
  frames_.set_revocation_timeout(Milliseconds(10));
  ASSERT_TRUE(frames_.AdmitClient(1, {4, 12}).ok());
  for (int i = 0; i < 16; ++i) {
    auto f = frames_.AllocFrame(1);
    ASSERT_TRUE(f.has_value());
    ramtab_.SetMapped(*f, 100 + i);
  }
  ASSERT_TRUE(frames_.AdmitClient(2, {4, 0}).ok());
  ASSERT_FALSE(frames_.AllocFrame(2).has_value());
  sim_.RunUntil(Milliseconds(11));
  EXPECT_EQ(frames_.domains_killed(), 1u);
}

TEST_F(FramesTest, AllocSpecificFrame) {
  ASSERT_TRUE(frames_.AdmitClient(1, {4, 0}).ok());
  auto f = frames_.AllocSpecificFrame(1, 7);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(*f, 7u);
  EXPECT_EQ(ramtab_.OwnerOf(7), 1u);
  // The same frame cannot be granted twice.
  ASSERT_TRUE(frames_.AdmitClient(2, {4, 0}).ok());
  auto again = frames_.AllocSpecificFrame(2, 7);
  ASSERT_FALSE(again.has_value());
  EXPECT_EQ(again.error(), FramesError::kNoMemory);
}

TEST_F(FramesTest, AllocSpecificFrameRespectsQuota) {
  ASSERT_TRUE(frames_.AdmitClient(1, {1, 0}).ok());
  ASSERT_TRUE(frames_.AllocSpecificFrame(1, 3).has_value());
  auto f = frames_.AllocSpecificFrame(1, 4);
  ASSERT_FALSE(f.has_value());
  EXPECT_EQ(f.error(), FramesError::kQuotaExceeded);
}

TEST_F(FramesTest, AllocFrameInRegion) {
  ASSERT_TRUE(frames_.AdmitClient(1, {4, 0}).ok());
  // A "special region" (e.g. DMA-able memory) covering frames [8, 12).
  auto f = frames_.AllocFrameInRegion(1, 8, 4);
  ASSERT_TRUE(f.has_value());
  EXPECT_GE(*f, 8u);
  EXPECT_LT(*f, 12u);
  // Exhaust the region.
  for (int i = 0; i < 3; ++i) {
    ASSERT_TRUE(frames_.AllocFrameInRegion(1, 8, 4).has_value());
  }
  ASSERT_TRUE(frames_.AdmitClient(2, {4, 0}).ok());
  auto none = frames_.AllocFrameInRegion(2, 8, 4);
  ASSERT_FALSE(none.has_value());
  EXPECT_EQ(none.error(), FramesError::kNoMemory);
}

TEST_F(FramesTest, PlacementRegionBounds) {
  ASSERT_TRUE(frames_.AdmitClient(1, {4, 0}).ok());
  // A region past the last frame, and a zero-length region, hold no frame.
  auto past = frames_.AllocFrameInRegion(1, kTotal, 4);
  ASSERT_FALSE(past.has_value());
  EXPECT_EQ(past.error(), FramesError::kNoMemory);
  auto empty = frames_.AllocFrameInRegion(1, 3, 0);
  ASSERT_FALSE(empty.has_value());
  EXPECT_EQ(empty.error(), FramesError::kNoMemory);
  // A region length that would overflow base + len: first match in push
  // order (15 was pushed first), then the next, then nothing.
  auto first = frames_.AllocFrameInRegion(1, 14, UINT64_MAX);
  ASSERT_TRUE(first.has_value());
  EXPECT_EQ(*first, 15u);
  auto second = frames_.AllocFrameInRegion(1, 14, UINT64_MAX);
  ASSERT_TRUE(second.has_value());
  EXPECT_EQ(*second, 14u);
  EXPECT_FALSE(frames_.AllocFrameInRegion(1, 14, UINT64_MAX).has_value());
}

TEST_F(FramesTest, AllocFrameWithColour) {
  ASSERT_TRUE(frames_.AdmitClient(1, {8, 0}).ok());
  // Page colouring: request frames of colour 3 (mod 4).
  for (int i = 0; i < 4; ++i) {
    auto f = frames_.AllocFrameWithColour(1, 3, 4);
    ASSERT_TRUE(f.has_value());
    EXPECT_EQ(*f % 4, 3u);
  }
  // Only 4 frames of that colour exist in a 16-frame machine.
  auto none = frames_.AllocFrameWithColour(1, 3, 4);
  ASSERT_FALSE(none.has_value());
}

TEST_F(FramesTest, PlacementNeverTriggersRevocation) {
  // Victim holds everything optimistically and unused.
  ASSERT_TRUE(frames_.AdmitClient(1, {4, 12}).ok());
  for (int i = 0; i < 16; ++i) {
    ASSERT_TRUE(frames_.AllocFrame(1).has_value());
  }
  ASSERT_TRUE(frames_.AdmitClient(2, {4, 0}).ok());
  // Specific placement fails rather than revoking (footnote 5: fragmentation
  // means such requests may or may not succeed).
  auto f = frames_.AllocSpecificFrame(2, 3);
  ASSERT_FALSE(f.has_value());
  EXPECT_EQ(frames_.revocations_transparent(), 0u);
  EXPECT_EQ(frames_.revocations_intrusive(), 0u);
}

TEST_F(FramesTest, StaleDeadlineTimerCancelledOnVictimTeardown) {
  // Regression: the victim is torn down (RemoveClient, as AppDomain::Shutdown
  // does) while an intrusive revocation is pending against it. The armed
  // deadline timer must die with the client — before the fix it fired
  // FinishRevocation against whoever held domain id 1 by then, killing an
  // innocent re-admission of the same id.
  ASSERT_TRUE(frames_.AdmitClient(1, {4, 12}).ok());
  for (int i = 0; i < 16; ++i) {
    auto f = frames_.AllocFrame(1);
    ASSERT_TRUE(f.has_value());
    ramtab_.SetMapped(*f, 100 + i);
  }
  DomainId killed = kNoDomain;
  frames_.set_kill_handler([&](DomainId victim) { killed = victim; });
  ASSERT_TRUE(frames_.AdmitClient(2, {4, 0}).ok());
  ASSERT_FALSE(frames_.AllocFrame(2).has_value());
  ASSERT_TRUE(frames_.revocation_in_progress());

  // Teardown mid-revocation, then re-admit the same domain id.
  ASSERT_TRUE(frames_.RemoveClient(1).ok());
  EXPECT_FALSE(frames_.revocation_in_progress());
  EXPECT_EQ(frames_.revocations_cancelled(), 1u);
  ASSERT_TRUE(frames_.AdmitClient(1, {2, 0}).ok());
  ASSERT_TRUE(frames_.AllocFrame(1).has_value());

  // Run well past the original deadline: the stale timer must not fire.
  sim_.RunUntil(Milliseconds(500));
  EXPECT_EQ(killed, kNoDomain);
  EXPECT_EQ(frames_.domains_killed(), 0u);
  EXPECT_TRUE(frames_.IsClient(1));
}

TEST_F(FramesTest, VictimRemovalUnblocksNextRevocation) {
  // Regression: RemoveClient on the in-flight victim used to leave
  // revocation_active_ set, so every later guaranteed request bounced with
  // kRevocationPending and no new revocation could ever start.
  ASSERT_TRUE(frames_.AdmitClient(1, {2, 6}).ok());
  for (int i = 0; i < 8; ++i) {
    auto f = frames_.AllocFrame(1);
    ASSERT_TRUE(f.has_value());
    ramtab_.SetMapped(*f, 100 + i);
  }
  ASSERT_TRUE(frames_.AdmitClient(2, {2, 6}).ok());
  for (int i = 0; i < 8; ++i) {
    auto f = frames_.AllocFrame(2);
    ASSERT_TRUE(f.has_value());
    ramtab_.SetMapped(*f, 200 + i);
  }
  ASSERT_TRUE(frames_.AdmitClient(3, {4, 0}).ok());
  ASSERT_FALSE(frames_.AllocFrame(3).has_value());
  ASSERT_TRUE(frames_.revocation_in_progress());

  // The victim (1, largest surplus) disappears mid-flight. Its 8 frames fund
  // the waiter, and the next guaranteed request may revoke afresh against 2.
  ASSERT_TRUE(frames_.RemoveClient(1).ok());
  EXPECT_FALSE(frames_.revocation_in_progress());
  auto f = frames_.AllocFrame(3);
  ASSERT_TRUE(f.has_value());
}

TEST_F(FramesTest, WaiterQueueIsFifoUnderStorm) {
  // Regression: a freed frame used to go to whichever guaranteed requester
  // called AllocFrame first after the NotifyAll, so a newcomer arriving at
  // just the right moment starved an older waiter indefinitely. Freed frames
  // are now reserved for the waiter queue in FIFO order.
  ASSERT_TRUE(frames_.AdmitClient(1, {4, 12}).ok());
  for (int i = 0; i < 16; ++i) {
    auto f = frames_.AllocFrame(1);
    ASSERT_TRUE(f.has_value());
    ramtab_.SetMapped(*f, 100 + i);
  }
  ASSERT_TRUE(frames_.AdmitClient(2, {4, 0}).ok());
  ASSERT_TRUE(frames_.AdmitClient(3, {4, 0}).ok());

  // Domain 2 asks first and is queued behind an intrusive revocation.
  ASSERT_FALSE(frames_.AllocFrame(2).has_value());
  ASSERT_TRUE(frames_.revocation_in_progress());
  EXPECT_EQ(frames_.guaranteed_waiters(), 1u);

  // The victim complies: exactly one frame comes free.
  FrameStack* stack = frames_.StackOf(1);
  ramtab_.SetUnused(stack->At(0));
  frames_.RevocationComplete(1);
  ASSERT_EQ(frames_.free_frames(), 1u);

  // Newcomer 3 races in before 2 retries: the free frame is reserved for 2,
  // so 3 must queue (and trigger the next revocation), not steal the frame.
  auto f3 = frames_.AllocFrame(3);
  ASSERT_FALSE(f3.has_value());
  EXPECT_EQ(f3.error(), FramesError::kRevocationPending);
  EXPECT_EQ(frames_.guaranteed_waiters(), 2u);

  auto f2 = frames_.AllocFrame(2);
  ASSERT_TRUE(f2.has_value());
  EXPECT_EQ(frames_.guaranteed_waiters(), 1u);
}

TEST_F(FramesTest, PickVictimPrefersReclaimableOverNailed) {
  // Regression: the victim scan took the largest optimistic surplus even when
  // every frame of that domain was nailed — the revocation could only end in
  // a kill, while a smaller victim with unused frames was available for a
  // transparent reclaim.
  ASSERT_TRUE(frames_.AdmitClient(1, {2, 10}).ok());
  for (int i = 0; i < 12; ++i) {
    auto f = frames_.AllocFrame(1);
    ASSERT_TRUE(f.has_value());
    ramtab_.SetNailed(*f);  // all-nailed aggressor, surplus 10
  }
  ASSERT_TRUE(frames_.AdmitClient(2, {2, 2}).ok());
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(frames_.AllocFrame(2).has_value());  // unused, surplus 2
  }
  ASSERT_TRUE(frames_.AdmitClient(3, {2, 0}).ok());
  auto f = frames_.AllocFrame(3);
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(frames_.revocations_transparent(), 1u);
  EXPECT_EQ(frames_.revocations_intrusive(), 0u);
  sim_.RunUntil(Milliseconds(500));
  EXPECT_EQ(frames_.domains_killed(), 0u);
  EXPECT_EQ(frames_.AllocatedCount(1), 12u);  // the nailed domain kept its frames
}

TEST_F(FramesTest, AllNailedVictimStillKillableAsLastResort) {
  // When *every* optimistic holder is fully nailed, the allocator must still
  // make progress for the guarantee: the nailed domain is picked as the last
  // resort and the deadline kill path reclaims its frames.
  ASSERT_TRUE(frames_.AdmitClient(1, {4, 12}).ok());
  for (int i = 0; i < 16; ++i) {
    auto f = frames_.AllocFrame(1);
    ASSERT_TRUE(f.has_value());
    ramtab_.SetNailed(*f);
  }
  frames_.set_force_unmap([](Vpn) {});
  ASSERT_TRUE(frames_.AdmitClient(2, {4, 0}).ok());
  ASSERT_FALSE(frames_.AllocFrame(2).has_value());
  ASSERT_TRUE(frames_.revocation_in_progress());
  sim_.RunUntil(Milliseconds(500));
  EXPECT_EQ(frames_.domains_killed(), 1u);
  EXPECT_TRUE(frames_.AllocFrame(2).has_value());
}

}  // namespace
}  // namespace nemesis
