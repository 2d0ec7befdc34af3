// Edge-case and robustness tests across subsystems: USD client lifecycle and
// extent edge conditions, unaligned VMem accesses, system configurations,
// disk geometry variants, task self-kill, and teardown paths.
#include <gtest/gtest.h>

#include <numeric>
#include <vector>

#include "src/core/system.h"
#include "src/core/workloads.h"
#include "src/sim/sync.h"
#include "src/usd/usd.h"

namespace nemesis {
namespace {

// --- USD lifecycle / extents -------------------------------------------------

TEST(UsdEdge, RequestCrossingExtentBoundaryRejected) {
  Simulator sim;
  Disk disk;
  Usd usd(sim, disk);
  usd.Start();
  auto c = usd.OpenClient("c", QosSpec{Milliseconds(100), Milliseconds(50), false, 0});
  ASSERT_TRUE(c.has_value());
  (*c)->AddExtent(Extent{1000, 32});
  struct Cross {
    static Task Run(UsdClient* client, bool* ok) {
      co_await client->AcquireSlot();
      UsdRequest req;
      req.id = 1;
      req.lba = 1024;  // starts inside, ends outside [1000, 1032)
      req.nblocks = 16;
      client->Push(std::move(req));
      UsdReply reply = co_await client->ReceiveReply();
      *ok = reply.ok;
    }
  };
  bool ok = true;
  sim.Spawn(Cross::Run(*c, &ok), "cross");
  sim.RunUntil(Seconds(1));
  EXPECT_FALSE(ok);
  EXPECT_EQ(disk.stats().reads, 0u);
}

TEST(UsdEdge, MultipleExtentsAllUsable) {
  Simulator sim;
  Disk disk;
  Usd usd(sim, disk);
  usd.Start();
  auto c = usd.OpenClient("c", QosSpec{Milliseconds(100), Milliseconds(50), false, 0}, 2);
  ASSERT_TRUE(c.has_value());
  (*c)->AddExtent(Extent{1000, 32});
  (*c)->AddExtent(Extent{9000, 32});
  struct Two {
    static Task Run(UsdClient* client, int* completed) {
      for (uint64_t lba : {uint64_t{1000}, uint64_t{9000}}) {
        co_await client->AcquireSlot();
        UsdRequest req;
        req.id = lba;
        req.lba = lba;
        req.nblocks = 16;
        client->Push(std::move(req));
        UsdReply reply = co_await client->ReceiveReply();
        if (reply.ok) {
          ++*completed;
        }
      }
    }
  };
  int completed = 0;
  sim.Spawn(Two::Run(*c, &completed), "two");
  sim.RunUntil(Seconds(1));
  EXPECT_EQ(completed, 2);
}

TEST(UsdEdge, CloseClientReleasesQosCapacity) {
  Simulator sim;
  Disk disk;
  Usd usd(sim, disk);
  usd.Start();
  auto a = usd.OpenClient("a", QosSpec{Milliseconds(100), Milliseconds(80), false, 0});
  ASSERT_TRUE(a.has_value());
  ASSERT_FALSE(usd.OpenClient("b", QosSpec{Milliseconds(100), Milliseconds(50), false, 0})
                   .has_value());
  usd.CloseClient(*a);
  EXPECT_TRUE(usd.OpenClient("b", QosSpec{Milliseconds(100), Milliseconds(50), false, 0})
                  .has_value());
}

// --- VMem unaligned accesses ---------------------------------------------------

class VmemEdgeTest : public ::testing::Test {
 protected:
  VmemEdgeTest() {
    SystemConfig sys_cfg;
    sys_cfg.phys_frames = 64;
    system_ = std::make_unique<System>(sys_cfg);
    AppConfig cfg;
    cfg.name = "edge";
    cfg.contract = {4, 0};
    cfg.driver_max_frames = 4;
    cfg.stretch_bytes = 8 * kDefaultPageSize;
    cfg.swap_bytes = kMiB;
    app_ = system_->CreateApp(cfg);
  }

  std::unique_ptr<System> system_;
  AppDomain* app_;
};

TEST_F(VmemEdgeTest, UnalignedWriteReadAcrossPageBoundary) {
  struct Unaligned {
    static Task Run(AppDomain* app, bool* ok) {
      // A write spanning pages 0..2 starting mid-page.
      const VirtAddr start = app->stretch()->base() + kDefaultPageSize / 2 + 7;
      std::vector<uint8_t> data(2 * kDefaultPageSize);
      std::iota(data.begin(), data.end(), 1);
      bool w = false;
      TaskHandle wh = app->SpawnWorkload(app->vmem().Write(start, data, &w), "w");
      co_await Join(wh);
      std::vector<uint8_t> back(data.size());
      bool r = false;
      TaskHandle rh = app->SpawnWorkload(app->vmem().Read(start, back, &r), "r");
      co_await Join(rh);
      *ok = w && r && back == data;
    }
  };
  bool ok = false;
  app_->SpawnWorkload(Unaligned::Run(app_, &ok), "unaligned");
  system_->sim().RunUntil(Seconds(10));
  EXPECT_TRUE(ok);
}

TEST_F(VmemEdgeTest, SingleByteAccess) {
  struct OneByte {
    static Task Run(AppDomain* app, bool* ok) {
      const VirtAddr last = app->stretch()->base() + app->stretch()->length() - 1;
      std::vector<uint8_t> b{0xA5};
      bool w = false;
      TaskHandle wh = app->SpawnWorkload(app->vmem().Write(last, b, &w), "w");
      co_await Join(wh);
      std::vector<uint8_t> back{0};
      bool r = false;
      TaskHandle rh = app->SpawnWorkload(app->vmem().Read(last, back, &r), "r");
      co_await Join(rh);
      *ok = w && r && back[0] == 0xA5;
    }
  };
  bool ok = false;
  app_->SpawnWorkload(OneByte::Run(app_, &ok), "one-byte");
  system_->sim().RunUntil(Seconds(10));
  EXPECT_TRUE(ok);
}

// --- System variants -----------------------------------------------------------

TEST(SystemVariants, SmallPagesSupported) {
  SystemConfig sys_cfg;
  sys_cfg.phys_frames = 64;
  sys_cfg.page_size = 4096;  // 4 KiB pages instead of the Alpha's 8 KiB
  System system(sys_cfg);
  AppConfig cfg;
  cfg.name = "4k";
  cfg.contract = {2, 0};
  cfg.stretch_bytes = 16 * 4096;
  cfg.swap_bytes = kMiB;
  AppDomain* app = system.CreateApp(cfg);
  bool ok = false;
  app->SpawnWorkload(SequentialPass(*app, AccessType::kWrite, &ok), "pass");
  system.sim().RunUntil(Seconds(30));
  EXPECT_TRUE(ok);
}

TEST(SystemVariants, SlowDiskGeometry) {
  SystemConfig sys_cfg;
  sys_cfg.phys_frames = 64;
  sys_cfg.disk.rpm = 3600;
  sys_cfg.disk.seek_max_ms = 30.0;
  sys_cfg.disk.read_cache_enabled = false;
  System system(sys_cfg);
  AppConfig cfg;
  cfg.name = "slow";
  cfg.contract = {2, 0};
  cfg.stretch_bytes = 8 * kDefaultPageSize;
  cfg.swap_bytes = kMiB;
  AppDomain* app = system.CreateApp(cfg);
  bool ok = false;
  app->SpawnWorkload(SequentialPass(*app, AccessType::kWrite, &ok), "pass");
  system.sim().RunUntil(Seconds(60));
  EXPECT_TRUE(ok);
  EXPECT_EQ(system.disk().stats().cache_hits, 0u);
}

// --- Task / sync edge cases ------------------------------------------------------

Task SelfKiller(Simulator& sim, TaskHandle* self, int* progress) {
  ++*progress;
  co_await SleepFor(sim, Milliseconds(1));
  self->Kill();  // suicide: torn down at the next suspension point
  ++*progress;
  co_await SleepFor(sim, Milliseconds(1));
  ++*progress;  // never reached
}

TEST(TaskEdge, SelfKillTearsDownAtNextSuspension) {
  Simulator sim;
  TaskHandle handle;
  int progress = 0;
  handle = sim.Spawn(SelfKiller(sim, &handle, &progress), "suicide");
  sim.Run();
  EXPECT_EQ(progress, 2);
  EXPECT_TRUE(handle.killed());
}

TEST(TaskEdge, DoubleCancelIsHarmless) {
  Simulator sim;
  bool ran = false;
  const uint64_t id = sim.CallAfter(Milliseconds(1), [&] { ran = true; });
  sim.Cancel(id);
  sim.Cancel(id);
  sim.Cancel(9999);  // unknown id
  sim.Run();
  EXPECT_FALSE(ran);
}

Task BlockedSender(Mailbox<int>& box) {
  co_await box.Send(1);
  co_await box.Send(2);  // blocks: capacity 1, nobody receiving
  co_await box.Send(3);
}

TEST(TaskEdge, KilledSenderMessageDropped) {
  Simulator sim;
  Mailbox<int> box(sim, 1);
  TaskHandle sender = sim.Spawn(BlockedSender(box), "sender");
  sim.RunUntil(Milliseconds(1));
  EXPECT_EQ(box.send_waiter_count(), 1u);  // value 2 parked
  sender.Kill();
  // Receive everything available: only the buffered value 1 remains; the
  // killed sender's parked value is dropped.
  auto v1 = box.TryRecv();
  ASSERT_TRUE(v1.has_value());
  EXPECT_EQ(*v1, 1);
  EXPECT_FALSE(box.TryRecv().has_value());
}

TEST(TaskEdge, StretchDestroyMakesRangeUnallocated) {
  SystemConfig sys_cfg;
  sys_cfg.phys_frames = 64;
  System system(sys_cfg);
  AppConfig cfg;
  cfg.name = "destroy";
  cfg.driver = AppConfig::DriverKind::kNailed;
  cfg.contract = {2, 0};
  cfg.stretch_bytes = 2 * kDefaultPageSize;
  AppDomain* app = system.CreateApp(cfg);
  const VirtAddr base = app->stretch()->base();
  // Frames are nailed; un-nail them so destroy can proceed cleanly.
  for (size_t i = 0; i < 2; ++i) {
    auto t = system.kernel().syscalls().Trans(app->stretch()->PageBase(i));
    ASSERT_TRUE(t.has_value());
    system.kernel().ramtab().SetMapped(t->pfn, base / kDefaultPageSize + i);
  }
  ASSERT_TRUE(system.stretches().Destroy(app->stretch()->sid()).ok());
  // The address is now outside any stretch: unallocated fault.
  EXPECT_EQ(system.mmu().Translate(base, AccessType::kRead, &app->pdom()).fault,
            FaultType::kFaultUnallocated);
}

TEST(Lifecycle, ShutdownReleasesEveryResource) {
  SystemConfig sys_cfg;
  sys_cfg.phys_frames = 16;
  System system(sys_cfg);
  AppConfig cfg;
  cfg.name = "transient";
  cfg.contract = {8, 0};
  cfg.driver_max_frames = 8;
  cfg.stretch_bytes = 16 * kDefaultPageSize;
  cfg.swap_bytes = kMiB;
  cfg.disk_qos = QosSpec{Milliseconds(250), Milliseconds(200), false, Milliseconds(10)};
  AppDomain* app = system.CreateApp(cfg);
  bool ok = false;
  app->SpawnWorkload(SequentialPass(*app, AccessType::kWrite, &ok), "pass");
  system.sim().RunUntil(Seconds(30));
  ASSERT_TRUE(ok);
  ASSERT_GT(system.frames().AllocatedCount(app->id()), 0u);

  const uint64_t sfs_free_before = system.sfs().free_blocks();
  app->Shutdown();

  // Frames returned.
  EXPECT_EQ(system.frames().free_frames(), 16u);
  EXPECT_FALSE(system.frames().IsClient(app->id()));
  // Swap extent returned.
  EXPECT_GT(system.sfs().free_blocks(), sfs_free_before);
  // Disk QoS capacity returned: an 80% client now fits.
  EXPECT_TRUE(system.usd()
                  .OpenClient("next", QosSpec{Milliseconds(250), Milliseconds(200), false, 0})
                  .has_value());
  // The full frames contract is admittable again.
  AppConfig next = cfg;
  next.name = "next-app";
  next.disk_qos = QosSpec{Milliseconds(250), Milliseconds(25), false, Milliseconds(10)};
  AppDomain* replacement = system.CreateApp(next);
  bool ok2 = false;
  replacement->SpawnWorkload(SequentialPass(*replacement, AccessType::kWrite, &ok2), "pass");
  system.sim().RunUntil(system.sim().Now() + Seconds(30));
  EXPECT_TRUE(ok2);
}

TEST(Lifecycle, ShutdownIsIdempotentEnough) {
  SystemConfig sys_cfg;
  sys_cfg.phys_frames = 16;
  System system(sys_cfg);
  AppConfig cfg;
  cfg.name = "idem";
  cfg.contract = {2, 0};
  cfg.stretch_bytes = 2 * kDefaultPageSize;
  cfg.swap_bytes = kMiB;
  AppDomain* app = system.CreateApp(cfg);
  app->Shutdown();
  app->Shutdown();  // second call is a no-op, not a crash
  EXPECT_FALSE(app->alive());
}

}  // namespace
}  // namespace nemesis
