// Unit tests for the baseline systems: the centralised VM and the
// microkernel-style external pager.
#include <gtest/gtest.h>

#include "src/baseline/central_vm.h"
#include "src/baseline/external_pager.h"
#include "src/sim/simulator.h"

namespace nemesis {
namespace {

class CentralVmTest : public ::testing::Test {
 protected:
  static constexpr VirtAddr kBase = 16 * kDefaultPageSize;
  static constexpr size_t kLen = 8 * kDefaultPageSize;

  CentralVmTest() : vm_(1 << 16) {
    vm_.CreateRegion(kBase, kLen, kRightRead | kRightWrite);
    vm_.PopulateRegion(kBase, kLen, /*first_pfn=*/100);
  }

  CentralVm vm_;
};

TEST_F(CentralVmTest, AccessWithinRegionSucceeds) {
  EXPECT_EQ(vm_.Access(kBase + 5, AccessType::kRead), 0);
  EXPECT_EQ(vm_.Access(kBase + kLen - 1, AccessType::kWrite), 0);
}

TEST_F(CentralVmTest, AccessOutsideRegionFails) {
  EXPECT_EQ(vm_.Access(kBase + kLen + 1, AccessType::kRead), -1);
  EXPECT_EQ(vm_.Access(0, AccessType::kRead), -1);
}

TEST_F(CentralVmTest, MprotectChangesRights) {
  ASSERT_EQ(vm_.Mprotect(kBase, kDefaultPageSize, kRightRead), 0);
  EXPECT_EQ(vm_.Access(kBase, AccessType::kRead), 0);
  EXPECT_EQ(vm_.Access(kBase, AccessType::kWrite), -1);
  ASSERT_EQ(vm_.Mprotect(kBase, kDefaultPageSize, kRightRead | kRightWrite), 0);
  EXPECT_EQ(vm_.Access(kBase, AccessType::kWrite), 0);
}

TEST_F(CentralVmTest, MprotectValidatesRange) {
  EXPECT_EQ(vm_.Mprotect(kBase + 1, kDefaultPageSize, kRightRead), -1);        // unaligned
  EXPECT_EQ(vm_.Mprotect(kBase, kLen + kDefaultPageSize, kRightRead), -1);     // beyond VMA
  EXPECT_EQ(vm_.Mprotect(1024 * kDefaultPageSize, kDefaultPageSize, 0), -1);   // no VMA
}

TEST_F(CentralVmTest, SignalHandlerFixesFault) {
  ASSERT_EQ(vm_.Mprotect(kBase, kDefaultPageSize, kRightNone), 0);
  vm_.SetSignalHandler([this](const CentralVm::SigInfo& info) {
    EXPECT_TRUE(info.is_protection);
    return vm_.Mprotect(AlignDown(info.fault_va, kDefaultPageSize), kDefaultPageSize,
                        kRightRead | kRightWrite) == 0;
  });
  EXPECT_EQ(vm_.Access(kBase + 7, AccessType::kWrite), 0);
  EXPECT_EQ(vm_.signals_delivered(), 1u);
}

TEST_F(CentralVmTest, UnhandledFaultFails) {
  ASSERT_EQ(vm_.Mprotect(kBase, kDefaultPageSize, kRightNone), 0);
  EXPECT_EQ(vm_.Access(kBase, AccessType::kRead), -1);
  EXPECT_GT(vm_.faults(), 0u);
}

TEST_F(CentralVmTest, DirtyTracking) {
  EXPECT_FALSE(vm_.IsDirty(kBase));
  vm_.Access(kBase, AccessType::kWrite);
  EXPECT_TRUE(vm_.IsDirty(kBase));
  EXPECT_FALSE(vm_.IsDirty(kBase + kDefaultPageSize));
}

TEST(CentralVmDeathTest, PopulateBeyondA32BitFrameNumberAborts) {
  CentralVm vm(1 << 16);
  vm.CreateRegion(0, 2 * kDefaultPageSize, kRightRead);
  // The second page's frame number would wrap Pte::pfn.
  EXPECT_DEATH(vm.PopulateRegion(0, 2 * kDefaultPageSize, kMaxFrames - 1), "pfn < kMaxFrames");
}

TEST(ExternalPagerTest, ClientsProgressEquallyRegardlessOfNeeds) {
  // The crux of the crosstalk argument: with a shared FCFS pager, clients
  // that would hold different disk guarantees in Nemesis progress at the
  // same rate.
  Simulator sim;
  Disk disk;
  ExternalPagerSystem pager(sim, disk);
  pager.Start();
  ExternalPagerSystem::Client* clients[3];
  for (int i = 0; i < 3; ++i) {
    ExternalPagerSystem::ClientConfig cfg;
    cfg.name = "c" + std::to_string(i);
    cfg.frames = 2;
    cfg.pages = 128;
    cfg.swap_base_lba = 1000000ull * static_cast<uint64_t>(i + 1);
    cfg.primed = true;
    clients[i] = pager.AddClient(cfg);
    sim.Spawn(pager.SequentialLoop(clients[i], /*write=*/false, Seconds(20), Nanoseconds(2)),
              cfg.name);
  }
  sim.RunUntil(Seconds(20));
  const double a = static_cast<double>(clients[0]->bytes_processed());
  const double b = static_cast<double>(clients[1]->bytes_processed());
  const double c = static_cast<double>(clients[2]->bytes_processed());
  ASSERT_GT(a, 0.0);
  EXPECT_NEAR(b / a, 1.0, 0.2);
  EXPECT_NEAR(c / a, 1.0, 0.2);
  EXPECT_GT(pager.faults_served(), 100u);
}

TEST(ExternalPagerTest, ForgetfulClientWritesButNeverReads) {
  Simulator sim;
  Disk disk;
  ExternalPagerSystem pager(sim, disk);
  pager.Start();
  ExternalPagerSystem::ClientConfig cfg;
  cfg.name = "w";
  cfg.frames = 2;
  cfg.pages = 64;
  cfg.swap_base_lba = 500000;
  cfg.forgetful = true;
  auto* client = pager.AddClient(cfg);
  sim.Spawn(pager.SequentialLoop(client, /*write=*/true, Seconds(10), Nanoseconds(2)), "w");
  sim.RunUntil(Seconds(10));
  EXPECT_GT(disk.stats().writes, 50u);
  EXPECT_EQ(disk.stats().reads, 0u);
}

}  // namespace
}  // namespace nemesis
