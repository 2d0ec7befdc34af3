// Tests for the memory-model checker: every invariant-auditor rule must fire
// on deliberately corrupted state (and stay silent on healthy state), and the
// DomainAccessChecker must enforce the cross-domain access contract.
#include <gtest/gtest.h>

#include <memory>

#include "src/check/domain_access.h"
#include "src/check/invariants.h"
#include "src/core/system.h"
#include "src/kernel/syscalls.h"

namespace nemesis {
namespace {

constexpr size_t kPage = kDefaultPageSize;

// A system with one hand-built client domain (no AppDomain machinery), so
// tests can drive the allocator / syscalls directly and then corrupt the
// layers underneath the auditor.
class AuditorTest : public ::testing::Test {
 protected:
  static constexpr DomainId kDom = 7;

  AuditorTest() {
    SystemConfig cfg;
    cfg.phys_frames = 64;
    cfg.audit = false;  // corruption tests audit by hand
    system_ = std::make_unique<System>(cfg);
    pdom_ = system_->translation().CreateProtectionDomain();
    EXPECT_TRUE(system_->frames().AdmitClient(kDom, FramesContract{4, 4}).ok());
    auto stretch = system_->stretches().New(kDom, pdom_, 4 * kPage);
    EXPECT_TRUE(stretch.has_value());
    stretch_ = *stretch;
  }

  // Allocates a frame and maps it under `page` of the stretch.
  Pfn MapPage(size_t page) {
    auto pfn = system_->frames().AllocFrame(kDom);
    EXPECT_TRUE(pfn.has_value());
    EXPECT_TRUE(system_->kernel()
                    .syscalls()
                    .Map(kDom, pdom_, stretch_->PageBase(page), *pfn, MapAttrs{kRightRead})
                    .ok());
    return *pfn;
  }

  Vpn VpnOfPage(size_t page) const { return stretch_->PageBase(page) / kPage; }

  AuditReport Audit(InvariantAuditor::Depth depth = InvariantAuditor::Depth::kFull) {
    return system_->AuditNow(depth);
  }

  std::unique_ptr<System> system_;
  ProtectionDomain* pdom_ = nullptr;
  Stretch* stretch_ = nullptr;
};

TEST_F(AuditorTest, CleanAfterSetup) {
  const AuditReport report = Audit();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST_F(AuditorTest, CleanAfterMapNailAndTranslate) {
  const Pfn mapped = MapPage(0);
  auto reserved = system_->frames().AllocFrame(kDom);
  ASSERT_TRUE(reserved.has_value());
  ASSERT_TRUE(system_->kernel().syscalls().Nail(kDom, *reserved).ok());
  // Fill the TLB through a real translation so the tlb-derivable rule sees a
  // live entry.
  system_->mmu().Translate(stretch_->PageBase(0), AccessType::kRead, pdom_);
  AuditReport report = Audit();
  EXPECT_TRUE(report.ok()) << report.Summary();

  ASSERT_TRUE(system_->kernel().syscalls().Unnail(kDom, *reserved).ok());
  EXPECT_EQ(system_->kernel().ramtab().StateOf(*reserved), FrameState::kUnused);
  ASSERT_TRUE(system_->kernel().syscalls().Nail(kDom, mapped).ok());
  ASSERT_TRUE(system_->kernel().syscalls().Unnail(kDom, mapped).ok());
  // Unnail of a nailed-while-mapped frame restores kMapped.
  EXPECT_EQ(system_->kernel().ramtab().StateOf(mapped), FrameState::kMapped);
  report = Audit();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST_F(AuditorTest, ContractSumFiresOnCorruptGuaranteeTotal) {
  system_->frames().TestOnlySetGuaranteedTotal(9999);
  const AuditReport report = Audit();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule("contract-sum")) << report.Summary();
}

TEST_F(AuditorTest, ConservationFiresOnStackLeak) {
  const Pfn pfn = MapPage(0);
  system_->frames().StackOf(kDom)->Remove(pfn);  // stack no longer matches allocated
  const AuditReport report = Audit();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule("conservation")) << report.Summary();
  // The frame is still owned in the RamTab but on no stack.
  EXPECT_TRUE(report.HasRule("ramtab-owner")) << report.Summary();
}

TEST_F(AuditorTest, RamtabOwnerFiresOnOwnerMismatch) {
  const Pfn pfn = MapPage(0);
  system_->kernel().ramtab().SetOwner(pfn, 99);  // disagrees with the frame stack
  const AuditReport report = Audit();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule("ramtab-owner")) << report.Summary();
}

TEST_F(AuditorTest, StretchPteFiresOnCorruptPfn) {
  const Pfn pfn = MapPage(0);
  Pte* pte = system_->page_table().Lookup(VpnOfPage(0));
  ASSERT_NE(pte, nullptr);
  pte->pfn = pfn + 1;  // now maps a frame the domain does not own
  const AuditReport report = Audit();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule("stretch-pte")) << report.Summary();
  // The original frame's recorded vpn no longer maps it back.
  EXPECT_TRUE(report.HasRule("ramtab-backlink")) << report.Summary();
}

TEST_F(AuditorTest, StretchPteFiresOnCorruptSid) {
  MapPage(0);
  Pte* pte = system_->page_table().Lookup(VpnOfPage(0));
  ASSERT_NE(pte, nullptr);
  pte->sid = stretch_->sid() + 1;
  const AuditReport report = Audit();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule("stretch-pte")) << report.Summary();
}

TEST_F(AuditorTest, RamtabBacklinkFiresOnWrongVpn) {
  const Pfn pfn = MapPage(0);
  system_->kernel().ramtab().SetMapped(pfn, VpnOfPage(1));  // wrong backlink
  const AuditReport report = Audit();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule("ramtab-backlink")) << report.Summary();
}

TEST_F(AuditorTest, PdomRightsFiresOnMissingOwnerEntry) {
  pdom_->RemoveEntry(stretch_->sid());
  const AuditReport report = Audit();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule("pdom-rights")) << report.Summary();
}

TEST_F(AuditorTest, PdomRightsFiresOnDeadSidEntry) {
  pdom_->SetRights(stretch_->sid() + 100, kRightRead);  // no such stretch
  const AuditReport report = Audit();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule("pdom-rights")) << report.Summary();
}

TEST_F(AuditorTest, PdomRightsFiresOnPteRightsAboveOwner) {
  MapPage(0);
  pdom_->SetRights(stretch_->sid(), kRightRead);  // owner now holds read only
  Pte* pte = system_->page_table().Lookup(VpnOfPage(0));
  ASSERT_NE(pte, nullptr);
  pte->rights = kRightRead | kRightWrite;  // global floor exceeds the owner
  const AuditReport report = Audit();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule("pdom-rights")) << report.Summary();
}

TEST_F(AuditorTest, TlbDerivableFiresOnStaleEntry) {
  MapPage(0);
  system_->mmu().tlb().Fill(VpnOfPage(3), 42, kRightRead, stretch_->sid());  // no PTE behind it
  const AuditReport report = Audit();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule("tlb-derivable")) << report.Summary();
}

TEST_F(AuditorTest, TlbDerivableFiresOnSkippedInvalidation) {
  MapPage(0);
  system_->mmu().Translate(stretch_->PageBase(0), AccessType::kRead, pdom_);
  Pte* pte = system_->page_table().Lookup(VpnOfPage(0));
  ASSERT_NE(pte, nullptr);
  pte->rights = kRightRead | kRightWrite;  // protection change without TLB shootdown
  const AuditReport report = Audit();
  EXPECT_FALSE(report.ok());
  EXPECT_TRUE(report.HasRule("tlb-derivable")) << report.Summary();
}

TEST_F(AuditorTest, PteLivenessFiresOnlyAtFullDepth) {
  MapPage(0);
  Pte* pte = system_->page_table().Lookup(VpnOfPage(0));
  ASSERT_NE(pte, nullptr);
  const Sid dead = stretch_->sid() + 200;
  pte->sid = dead;
  const AuditReport fast = Audit(InvariantAuditor::Depth::kFast);
  EXPECT_FALSE(fast.HasRule("pte-liveness")) << fast.Summary();
  const AuditReport full = Audit(InvariantAuditor::Depth::kFull);
  EXPECT_TRUE(full.HasRule("pte-liveness")) << full.Summary();
}

TEST_F(AuditorTest, AuditOrDieAbortsOnViolation) {
  const Pfn pfn = MapPage(0);
  system_->kernel().ramtab().SetOwner(pfn, 99);
  EXPECT_DEATH(system_->auditor().AuditOrDie(), "invariant");
}

TEST_F(AuditorTest, StretchDestroyLeavesAuditCleanState) {
  MapPage(0);
  // Tear down through the sanctioned paths: unmap, free, destroy.
  Pfn pfn = 0;
  ASSERT_TRUE(
      system_->kernel().syscalls().Unmap(kDom, pdom_, stretch_->PageBase(0), &pfn).ok());
  ASSERT_TRUE(system_->frames().FreeFrame(kDom, pfn).ok());
  ASSERT_TRUE(system_->stretches().Destroy(stretch_->sid()).ok());
  stretch_ = nullptr;
  const AuditReport report = Audit();
  EXPECT_TRUE(report.ok()) << report.Summary();
}

TEST(AuditHooks, AuditRunsFromEventLoopWhenEnabled) {
  SystemConfig cfg;
  cfg.phys_frames = 64;
  cfg.audit = true;
  cfg.audit_stride = 1;
  System system(cfg);
  EXPECT_EQ(system.auditor().audits_run(), 0u);
  for (int i = 0; i < 3; ++i) {
    system.sim().CallAfter(Milliseconds(i), [] {});
  }
  system.sim().Run();
  // One audit per drained batch (three distinct timestamps).
  EXPECT_GE(system.auditor().audits_run(), 3u);
}

TEST(AuditHooks, AuditStrideSkipsBatches) {
  SystemConfig cfg;
  cfg.phys_frames = 64;
  cfg.audit = true;
  cfg.audit_stride = 4;
  System system(cfg);
  for (int i = 0; i < 8; ++i) {
    system.sim().CallAfter(Milliseconds(i), [] {});
  }
  system.sim().Run();
  EXPECT_EQ(system.auditor().audits_run(), 2u);
}

TEST(AuditHooks, DisabledByDefaultConfigRunsNoAudits) {
  SystemConfig cfg;
  cfg.phys_frames = 64;
  cfg.audit = false;
  System system(cfg);
  system.sim().CallAfter(Milliseconds(1), [] {});
  system.sim().Run();
  EXPECT_EQ(system.auditor().audits_run(), 0u);
}

// --- DomainAccessChecker ----------------------------------------------------

TEST(DomainAccess, SystemDomainAlwaysAllowed) {
  DomainAccessChecker checker;
  checker.Record(SharedStructure::kRamTab, DomainAccessChecker::kSystem);
  checker.Record(SharedStructure::kRamTab, 1);
  checker.Record(SharedStructure::kRamTab, DomainAccessChecker::kSystem);
  EXPECT_EQ(checker.violations(), 0u);
}

TEST(DomainAccess, SameDomainMayTouchRepeatedly) {
  DomainAccessChecker checker;
  checker.Record(SharedStructure::kPageTable, 3);
  checker.Record(SharedStructure::kPageTable, 3);
  EXPECT_EQ(checker.violations(), 0u);
}

TEST(DomainAccess, CrossDomainAccessInOneWindowViolates) {
  DomainAccessChecker checker;
  checker.set_abort_on_violation(false);
  checker.Record(SharedStructure::kRamTab, 1);
  checker.Record(SharedStructure::kRamTab, 2);
  EXPECT_EQ(checker.violations(), 1u);
}

TEST(DomainAccess, CrossDomainAccessAborts) {
  DomainAccessChecker checker;
  checker.Record(SharedStructure::kRamTab, 1);
  EXPECT_DEATH(checker.Record(SharedStructure::kRamTab, 2), "cross-domain");
}

TEST(DomainAccess, SyncPointClosesTheWindow) {
  DomainAccessChecker checker;
  checker.set_abort_on_violation(false);
  checker.Record(SharedStructure::kRamTab, 1);
  checker.SyncPoint();
  checker.Record(SharedStructure::kRamTab, 2);
  EXPECT_EQ(checker.violations(), 0u);
}

TEST(DomainAccess, StructuresHaveIndependentWindows) {
  DomainAccessChecker checker;
  checker.set_abort_on_violation(false);
  checker.Record(SharedStructure::kRamTab, 1);
  checker.Record(SharedStructure::kTlb, 2);
  EXPECT_EQ(checker.violations(), 0u);
}

TEST(DomainAccess, CrossDomainSectionSanctionsAccess) {
  DomainAccessChecker checker;
  checker.set_abort_on_violation(false);
  checker.Record(SharedStructure::kFramesAllocator, 1);
  {
    CrossDomainSection section(&checker);
    checker.Record(SharedStructure::kFramesAllocator, 2);  // revocation-style steal
  }
  EXPECT_EQ(checker.violations(), 0u);
  checker.Record(SharedStructure::kFramesAllocator, 2);  // section closed again
  EXPECT_EQ(checker.violations(), 1u);
}

TEST(DomainAccess, NullCheckerSectionIsNoOp) {
  CrossDomainSection section(nullptr);  // must not crash
}

}  // namespace
}  // namespace nemesis
