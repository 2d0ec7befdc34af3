// Unit tests for the kernel substrate: domains, event channels, fault
// dispatch, RamTab, and validated map/unmap/trans syscalls.
#include <gtest/gtest.h>

#include <vector>

#include "src/hw/mmu.h"
#include "src/hw/page_table.h"
#include "src/kernel/domain.h"
#include "src/kernel/kernel.h"
#include "src/kernel/ramtab.h"
#include "src/kernel/syscalls.h"
#include "src/mm/prot_domain.h"
#include "src/sim/simulator.h"

namespace nemesis {
namespace {

class KernelTest : public ::testing::Test {
 protected:
  static constexpr uint64_t kFrames = 64;

  KernelTest() : pt_(4096), mmu_(&pt_), kernel_(sim_, mmu_, kFrames) {}

  // Builds a NULL mapping for `vpn` belonging to stretch `sid`.
  Pte* AddNullMapping(Vpn vpn, Sid sid, uint8_t rights = kRightNone) {
    Pte* pte = pt_.Ensure(vpn);
    pte->sid = sid;
    pte->rights = rights;
    return pte;
  }

  Simulator sim_;
  PageTable pt_;
  Mmu mmu_;
  Kernel kernel_;
};

TEST_F(KernelTest, CreateDomainAssignsIds) {
  Domain* a = kernel_.CreateDomain("a");
  Domain* b = kernel_.CreateDomain("b");
  EXPECT_NE(a->id(), b->id());
  EXPECT_EQ(kernel_.FindDomain(a->id()), a);
  EXPECT_EQ(kernel_.FindDomain(b->id()), b);
  EXPECT_EQ(kernel_.FindDomain(999), nullptr);
  EXPECT_EQ(kernel_.FindDomain(b->id() + 1), nullptr);
  EXPECT_EQ(kernel_.FindDomain(kNoDomain), nullptr);
  EXPECT_EQ(kernel_.domain_count(), 2u);
}

TEST_F(KernelTest, DomainHasFaultEndpoint) {
  Domain* d = kernel_.CreateDomain("d");
  EXPECT_LT(d->fault_endpoint(), d->endpoint_count());
}

TEST_F(KernelTest, SendEventIncrementsCounter) {
  Domain* d = kernel_.CreateDomain("d");
  EndpointId ep = d->AllocEndpoint();
  EXPECT_EQ(d->EventValue(ep), 0u);
  kernel_.SendEvent(d->id(), ep);
  kernel_.SendEvent(d->id(), ep);
  EXPECT_EQ(d->EventValue(ep), 2u);
  EXPECT_EQ(d->EventAcked(ep), 0u);
  EXPECT_TRUE(d->HasPendingEvents());
}

TEST_F(KernelTest, DispatchRunsHandlersAndAcks) {
  Domain* d = kernel_.CreateDomain("d");
  EndpointId ep = d->AllocEndpoint();
  std::vector<uint64_t> seen;
  d->SetNotificationHandler(ep, [&](EndpointId, uint64_t value) { seen.push_back(value); });
  kernel_.SendEvent(d->id(), ep);
  kernel_.SendEvent(d->id(), ep);
  d->DispatchPendingEvents();
  EXPECT_EQ(seen, (std::vector<uint64_t>{1, 2}));
  EXPECT_FALSE(d->HasPendingEvents());
  EXPECT_EQ(d->EventAcked(ep), 2u);
}

TEST_F(KernelTest, DispatchWithoutHandlerJustAcks) {
  Domain* d = kernel_.CreateDomain("d");
  EndpointId ep = d->AllocEndpoint();
  kernel_.SendEvent(d->id(), ep);
  d->DispatchPendingEvents();
  EXPECT_FALSE(d->HasPendingEvents());
}

TEST_F(KernelTest, EventWakesActivationCondition) {
  Domain* d = kernel_.CreateDomain("d");
  EndpointId ep = d->AllocEndpoint();
  int wakeups = 0;
  struct Waiter {
    static Task Run(Domain* d, int* wakeups) {
      co_await d->activation_condition().Wait();
      ++*wakeups;
    }
  };
  sim_.Spawn(Waiter::Run(d, &wakeups), "act");
  sim_.RunUntil(Milliseconds(1));
  EXPECT_EQ(wakeups, 0);
  kernel_.SendEvent(d->id(), ep);
  sim_.Run();
  EXPECT_EQ(wakeups, 1);
}

TEST_F(KernelTest, RaiseFaultQueuesRecordAndSendsEvent) {
  Domain* d = kernel_.CreateDomain("d");
  sim_.RunUntil(Milliseconds(3));
  kernel_.RaiseFault(d->id(), FaultRecord{0x8000, FaultType::kFaultTnv, AccessType::kWrite});
  ASSERT_EQ(d->fault_queue().size(), 1u);
  EXPECT_EQ(d->fault_queue().front().va, 0x8000u);
  EXPECT_EQ(d->fault_queue().front().type, FaultType::kFaultTnv);
  EXPECT_EQ(d->fault_queue().front().time, Milliseconds(3));
  EXPECT_EQ(d->EventValue(d->fault_endpoint()), 1u);
  EXPECT_EQ(kernel_.faults_dispatched(), 1u);
}

TEST_F(KernelTest, FaultToDeadDomainDropped) {
  Domain* d = kernel_.CreateDomain("d");
  d->MarkDead();
  kernel_.RaiseFault(d->id(), FaultRecord{0x8000, FaultType::kFaultTnv, AccessType::kRead});
  EXPECT_TRUE(d->fault_queue().empty());
}

TEST(RamTabTest, OwnershipAndState) {
  RamTab rt(8);
  EXPECT_EQ(rt.OwnerOf(3), kNoDomain);
  rt.SetOwner(3, 7);
  EXPECT_EQ(rt.OwnerOf(3), 7u);
  EXPECT_EQ(rt.StateOf(3), FrameState::kUnused);
  rt.SetMapped(3, 100);
  EXPECT_EQ(rt.StateOf(3), FrameState::kMapped);
  EXPECT_EQ(rt.Get(3).mapped_vpn, 100u);
  rt.SetUnused(3);
  EXPECT_EQ(rt.StateOf(3), FrameState::kUnused);
  rt.SetNailed(3);
  EXPECT_EQ(rt.StateOf(3), FrameState::kNailed);
}

TEST(RamTabTest, CountOwnedBy) {
  RamTab rt(8);
  rt.SetOwner(1, 5);
  rt.SetOwner(2, 5);
  rt.SetOwner(3, 6);
  EXPECT_EQ(rt.CountOwnedBy(5), 2u);
  EXPECT_EQ(rt.CountOwnedBy(6), 1u);
  EXPECT_EQ(rt.CountOwnedBy(7), 0u);
}

class SyscallTest : public KernelTest {
 protected:
  SyscallTest() : pdom_(1) {
    domain_ = kernel_.CreateDomain("app");
    // Stretch 5 covers vpns [10, 20); the domain holds full rights on it.
    for (Vpn vpn = 10; vpn < 20; ++vpn) {
      AddNullMapping(vpn, 5);
    }
    pdom_.SetRights(5, kRightAll);
    // Give the domain frame 3.
    kernel_.ramtab().SetOwner(3, domain_->id());
  }

  VirtAddr Va(Vpn vpn) const { return vpn * kDefaultPageSize; }

  Domain* domain_;
  ProtectionDomain pdom_;
};

TEST_F(SyscallTest, MapSucceedsWithMetaAndOwnedFrame) {
  auto s = kernel_.syscalls().Map(domain_->id(), &pdom_, Va(10), 3, MapAttrs{kRightRead});
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(kernel_.ramtab().StateOf(3), FrameState::kMapped);
  auto t = kernel_.syscalls().Trans(Va(10));
  ASSERT_TRUE(t.has_value());
  EXPECT_EQ(t->pfn, 3u);
}

TEST_F(SyscallTest, MapOutsideStretchFails) {
  auto s = kernel_.syscalls().Map(domain_->id(), &pdom_, Va(50), 3, MapAttrs{});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error(), VmError::kNoStretch);
}

TEST_F(SyscallTest, MapWithoutMetaFails) {
  ProtectionDomain weak(2);
  weak.SetRights(5, kRightRead | kRightWrite);
  auto s = kernel_.syscalls().Map(domain_->id(), &weak, Va(10), 3, MapAttrs{});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error(), VmError::kNoMeta);
}

TEST_F(SyscallTest, MapUnownedFrameFails) {
  kernel_.ramtab().SetOwner(4, 999);
  auto s = kernel_.syscalls().Map(domain_->id(), &pdom_, Va(10), 4, MapAttrs{});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error(), VmError::kNotOwner);
}

TEST_F(SyscallTest, MapAlreadyMappedFrameFails) {
  ASSERT_TRUE(kernel_.syscalls().Map(domain_->id(), &pdom_, Va(10), 3, MapAttrs{}).ok());
  auto s = kernel_.syscalls().Map(domain_->id(), &pdom_, Va(11), 3, MapAttrs{});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error(), VmError::kFrameMapped);
}

TEST_F(SyscallTest, MapNailedFrameFails) {
  kernel_.ramtab().SetNailed(3);
  auto s = kernel_.syscalls().Map(domain_->id(), &pdom_, Va(10), 3, MapAttrs{});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error(), VmError::kFrameNailed);
}

TEST_F(SyscallTest, MapOverValidMappingFails) {
  ASSERT_TRUE(kernel_.syscalls().Map(domain_->id(), &pdom_, Va(10), 3, MapAttrs{}).ok());
  kernel_.ramtab().SetOwner(4, domain_->id());
  auto s = kernel_.syscalls().Map(domain_->id(), &pdom_, Va(10), 4, MapAttrs{});
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error(), VmError::kAlreadyMapped);
}

TEST_F(SyscallTest, UnmapReturnsFrame) {
  ASSERT_TRUE(kernel_.syscalls().Map(domain_->id(), &pdom_, Va(10), 3, MapAttrs{}).ok());
  Pfn freed = 0;
  auto s = kernel_.syscalls().Unmap(domain_->id(), &pdom_, Va(10), &freed);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(freed, 3u);
  EXPECT_EQ(kernel_.ramtab().StateOf(3), FrameState::kUnused);
  EXPECT_FALSE(kernel_.syscalls().Trans(Va(10)).has_value());
}

TEST_F(SyscallTest, UnmapOfUnmappedFails) {
  auto s = kernel_.syscalls().Unmap(domain_->id(), &pdom_, Va(10));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error(), VmError::kNotMapped);
}

TEST_F(SyscallTest, TransReportsDirty) {
  ASSERT_TRUE(kernel_.syscalls()
                  .Map(domain_->id(), &pdom_, Va(10), 3, MapAttrs{kRightRead | kRightWrite})
                  .ok());
  mmu_.Translate(Va(10), AccessType::kWrite, &pdom_);
  auto t = kernel_.syscalls().Trans(Va(10));
  ASSERT_TRUE(t.has_value());
  EXPECT_TRUE(t->dirty);
  EXPECT_TRUE(t->referenced);
}

TEST_F(SyscallTest, MapWithFowArmsDirtyTracking) {
  MapAttrs attrs;
  attrs.rights = kRightRead | kRightWrite;
  attrs.fault_on_write = true;
  ASSERT_TRUE(kernel_.syscalls().Map(domain_->id(), &pdom_, Va(10), 3, attrs).ok());
  auto t = kernel_.syscalls().Trans(Va(10));
  ASSERT_TRUE(t.has_value());
  EXPECT_FALSE(t->dirty);
  mmu_.Translate(Va(10), AccessType::kWrite, &pdom_);
  t = kernel_.syscalls().Trans(Va(10));
  EXPECT_TRUE(t->dirty);
}

TEST_F(SyscallTest, SetPteRightsChangesProtection) {
  ASSERT_TRUE(kernel_.syscalls()
                  .Map(domain_->id(), &pdom_, Va(10), 3, MapAttrs{kRightRead | kRightWrite})
                  .ok());
  // Drop the pdom override so the PTE's global rights are authoritative,
  // keeping meta so the domain may still change protections.
  pdom_.RemoveEntry(5);
  auto s = kernel_.syscalls().SetPteRights(domain_->id(), nullptr, Va(10), kRightRead | kRightMeta);
  ASSERT_FALSE(s.ok());  // rights were R|W, no meta -> denied
  // With meta in the global rights the change is allowed.
  Pte* pte = pt_.Lookup(10);
  pte->rights = kRightAll;
  s = kernel_.syscalls().SetPteRights(domain_->id(), nullptr, Va(10), kRightRead | kRightMeta);
  ASSERT_TRUE(s.ok());
  EXPECT_EQ(mmu_.Translate(Va(10), AccessType::kWrite, nullptr).fault, FaultType::kFaultAcv);
}

TEST_F(SyscallTest, MapInvalidatesTlb) {
  ASSERT_TRUE(kernel_.syscalls().Map(domain_->id(), &pdom_, Va(10), 3, MapAttrs{kRightAll}).ok());
  EXPECT_EQ(mmu_.Translate(Va(10), AccessType::kRead, &pdom_).fault, FaultType::kNone);
  Pfn freed = 0;
  ASSERT_TRUE(kernel_.syscalls().Unmap(domain_->id(), &pdom_, Va(10), &freed).ok());
  // After unmap, access faults again (stale TLB entry must not linger).
  EXPECT_EQ(mmu_.Translate(Va(10), AccessType::kRead, &pdom_).fault, FaultType::kFaultTnv);
}

TEST_F(SyscallTest, ArmDirtyTrackingResetsAndRearms) {
  ASSERT_TRUE(kernel_.syscalls()
                  .Map(domain_->id(), &pdom_, Va(10), 3, MapAttrs{kRightRead | kRightWrite})
                  .ok());
  mmu_.Translate(Va(10), AccessType::kWrite, &pdom_);
  ASSERT_TRUE(kernel_.syscalls().Trans(Va(10))->dirty);
  // Re-arm: dirty cleared, FOW set.
  ASSERT_TRUE(kernel_.syscalls().ArmDirtyTracking(domain_->id(), &pdom_, Va(10)).ok());
  EXPECT_FALSE(kernel_.syscalls().Trans(Va(10))->dirty);
  // The next write sets dirty again (the DFault path consumes the FOW bit).
  mmu_.Translate(Va(10), AccessType::kWrite, &pdom_);
  EXPECT_TRUE(kernel_.syscalls().Trans(Va(10))->dirty);
}

TEST_F(SyscallTest, ArmDirtyTrackingRequiresMapping) {
  auto s = kernel_.syscalls().ArmDirtyTracking(domain_->id(), &pdom_, Va(10));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error(), VmError::kNotMapped);
}

TEST_F(SyscallTest, ArmDirtyTrackingRequiresMeta) {
  ASSERT_TRUE(kernel_.syscalls().Map(domain_->id(), &pdom_, Va(10), 3, MapAttrs{}).ok());
  ProtectionDomain weak(3);
  weak.SetRights(5, kRightRead | kRightWrite);
  auto s = kernel_.syscalls().ArmDirtyTracking(domain_->id(), &weak, Va(10));
  ASSERT_FALSE(s.ok());
  EXPECT_EQ(s.error(), VmError::kNoMeta);
}

}  // namespace
}  // namespace nemesis
