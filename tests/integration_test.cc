// Full-stack integration tests: multi-domain paging with QoS isolation
// (a miniature Figure 7), end-to-end intrusive revocation through the paged
// driver (dirty pages cleaned to swap), the kill path for non-compliant
// domains, and fault accounting.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/core/workloads.h"
#include "src/sim/sync.h"

namespace nemesis {
namespace {

// Every scenario phase must leave the cross-layer memory state audit-clean
// (frames allocator vs RamTab vs page table vs TLB; see src/check).
void ExpectAuditClean(System& system, const char* phase) {
  const AuditReport report = system.AuditNow();
  EXPECT_TRUE(report.ok()) << phase << ": " << report.Summary();
}

AppConfig PagedApp(const std::string& name, int64_t slice_ms, size_t stretch_pages) {
  AppConfig cfg;
  cfg.name = name;
  cfg.contract = {2, 0};
  cfg.driver_max_frames = 2;
  cfg.stretch_bytes = stretch_pages * kDefaultPageSize;
  cfg.swap_bytes = 4 * kMiB;
  cfg.disk_qos = QosSpec{Milliseconds(250), Milliseconds(slice_ms), false, Milliseconds(10)};
  return cfg;
}

TEST(Integration, MiniFigure7PagingInRatios) {
  // Three self-paging apps with 10% / 20% / 40% disk guarantees reading
  // sequentially through tiny resident sets: progress ratio ≈ 1:2:4.
  System system;
  AppDomain* apps[3];
  const int64_t slices[3] = {25, 50, 100};
  for (int i = 0; i < 3; ++i) {
    apps[i] = system.CreateApp(PagedApp("app" + std::to_string(i), slices[i], 128));
  }
  // Prime: write every byte once so that every page has a swap copy.
  bool primed[3] = {false, false, false};
  for (int i = 0; i < 3; ++i) {
    apps[i]->SpawnWorkload(SequentialPass(*apps[i], AccessType::kWrite, &primed[i]), "prime");
  }
  system.sim().RunUntil(Seconds(60));
  ASSERT_TRUE(primed[0] && primed[1] && primed[2]);
  ExpectAuditClean(system, "fig7 prime");

  // Measure: sequential read loops for 30 simulated seconds.
  uint64_t bytes[3] = {0, 0, 0};
  bool ok[3] = {false, false, false};
  const SimTime until = system.sim().Now() + Seconds(30);
  for (int i = 0; i < 3; ++i) {
    apps[i]->SpawnWorkload(
        SequentialAccessLoop(*apps[i], AccessType::kRead, until, &bytes[i], &ok[i]), "loop");
  }
  system.sim().RunUntil(until);
  ExpectAuditClean(system, "fig7 measure");

  ASSERT_GT(bytes[0], 0u);
  const double r1 = static_cast<double>(bytes[1]) / static_cast<double>(bytes[0]);
  const double r2 = static_cast<double>(bytes[2]) / static_cast<double>(bytes[0]);
  EXPECT_NEAR(r1, 2.0, 0.5);
  EXPECT_NEAR(r2, 4.0, 1.0);
  // Each app really paged: faults and page-ins happened.
  for (int i = 0; i < 3; ++i) {
    EXPECT_GT(apps[i]->paged_driver()->pageins(), 100u);
    EXPECT_GT(apps[i]->vmem().faults_taken(), 100u);
  }
}

// The simulator's event ledger per demand fault on a fig7-shaped run: three
// self-paging domains with two frames each and 1:2:4 disk guarantees, reading
// sequentially for 20 simulated seconds after a write pass. Every count is
// deterministic, so each is pinned exactly; a change that moves one must say
// why. In-place hops are the child entry and exit hops that run inside the
// event that made them; a Step-driven run would queue each as an event.
TEST(EventLedger, Fig7ShapedCountsPerFaultArePinned) {
  System system;
  AppDomain* apps[3];
  const int64_t slices[3] = {25, 50, 100};
  for (int i = 0; i < 3; ++i) {
    apps[i] = system.CreateApp(PagedApp("app" + std::to_string(i), slices[i], 128));
  }
  bool primed[3] = {false, false, false};
  for (int i = 0; i < 3; ++i) {
    apps[i]->SpawnWorkload(SequentialPass(*apps[i], AccessType::kWrite, &primed[i]), "prime");
  }
  system.sim().RunUntil(Seconds(60));
  ASSERT_TRUE(primed[0] && primed[1] && primed[2]);

  struct Ledger {
    uint64_t faults = 0;
    uint64_t fired = 0;
    uint64_t held = 0;
    uint64_t in_place = 0;
    uint64_t scheduled = 0;
    uint64_t cancelled = 0;
  };
  auto take = [&] {
    Ledger l;
    for (AppDomain* app : apps) {
      l.faults += app->vmem().faults_taken();
    }
    const Simulator& sim = system.sim();
    l.fired = sim.events_executed();
    l.held = sim.resumes_held();
    l.in_place = sim.resumes_in_place();
    l.scheduled = sim.events_scheduled();
    l.cancelled = sim.events_cancelled();
    return l;
  };
  const Ledger before = take();
  uint64_t bytes[3] = {0, 0, 0};
  bool ok[3] = {false, false, false};
  const SimTime until = system.sim().Now() + Seconds(20);
  for (int i = 0; i < 3; ++i) {
    apps[i]->SpawnWorkload(
        SequentialAccessLoop(*apps[i], AccessType::kRead, until, &bytes[i], &ok[i]), "loop");
  }
  system.sim().RunUntil(until);
  const Ledger after = take();

  const uint64_t faults = after.faults - before.faults;
  const uint64_t fired = after.fired - before.fired;
  const uint64_t held = after.held - before.held;
  const uint64_t in_place = after.in_place - before.in_place;
  const uint64_t scheduled = after.scheduled - before.scheduled;
  const uint64_t cancelled = after.cancelled - before.cancelled;
  // Per fault: 9.03 events fired (5.99 of them held resumes), 8.00 hops in
  // place, 4.02 queue entries made and 0.98 cancelled. Every cancellation
  // here is the USD's laxity timeout (Usd::ServiceLoop's
  // arrival_cv_.WaitFor), armed and then cancelled by an arrival: the next
  // count to cut. Fired plus in-place (17.03) is what Step() would fire.
  EXPECT_EQ(faults, 12256u);
  EXPECT_EQ(fired, 110681u);
  EXPECT_EQ(held, 73470u);
  EXPECT_EQ(in_place, 98039u);
  EXPECT_EQ(scheduled, 49231u);
  EXPECT_EQ(cancelled, 12020u);
}

TEST(Integration, BatchedUsdClientCoalescesAndStaysAuditClean) {
  // End-to-end batching inside a full System: a paged app shares the USD with
  // a deep-pipelined file-system client (the Figure 9 workload) that has
  // request coalescing enabled. The paged app opts in too via
  // AppConfig::usd_batch, though its driver is a single-outstanding pager so
  // its queue never holds two requests at a pick — only the pipelined client
  // actually forms chains. Paging correctness, batch accounting (charge ==
  // disk busy, the usd-batch-charge rule) and the cross-layer audit must all
  // hold together.
  System system;
  AppConfig cfg = PagedApp("batched", 100, 64);
  cfg.usd_batch.enabled = true;
  AppDomain* app = system.CreateApp(cfg);

  auto fs = system.usd().OpenClient(
      "fs", QosSpec{Milliseconds(250), Milliseconds(50), false, Milliseconds(10)},
      /*depth=*/16);
  ASSERT_TRUE(fs.has_value());
  // Well clear of the swap partition ([512, ~1M)); see AppConfig::swap_partition.
  const Extent fs_extent{3000000, 100000};
  (*fs)->AddExtent(fs_extent);
  UsdBatchPolicy batch;
  batch.enabled = true;
  batch.max_requests = 16;
  (*fs)->set_batch_policy(batch);

  bool paged_ok = false;
  uint64_t fs_bytes = 0;
  const SimTime until = Seconds(30);
  app->SpawnWorkload(SequentialPass(*app, AccessType::kWrite, &paged_ok), "prime");
  system.sim().Spawn(
      PipelinedFsClient(system.sim(), *fs, fs_extent, /*depth=*/16, until, &fs_bytes), "fs");
  system.sim().RunUntil(until);

  EXPECT_TRUE(paged_ok);
  EXPECT_GT(fs_bytes, 0u);
  // Coalescing actually happened, and charged exactly the busy time it made.
  EXPECT_GT((*fs)->batches(), 0u);
  EXPECT_EQ(system.usd().batch_charged(), system.usd().batch_busy());
  EXPECT_GT(system.usd().batch_charged(), 0);
  ExpectAuditClean(system, "batched fs + paging");
}

TEST(Integration, FaultsAreChargedToTheFaultingDomain) {
  // The USD charges all paging transactions to each app's own QoS account:
  // nothing is billed to a system-wide pager.
  System system;
  AppDomain* app = system.CreateApp(PagedApp("solo", 100, 64));
  bool ok = false;
  app->SpawnWorkload(SequentialPass(*app, AccessType::kWrite, &ok), "pass");
  system.sim().RunUntil(Seconds(30));
  ASSERT_TRUE(ok);
  const SchedClientId sid = app->swap_client()->sched_id();
  EXPECT_GT(system.usd().scheduler().total_charged(sid), 0);
  EXPECT_EQ(app->swap_client()->transactions(), system.usd().transactions());
}

TEST(Integration, IntrusiveRevocationCleansDirtyPages) {
  SystemConfig sys_cfg;
  sys_cfg.phys_frames = 8;  // a tight machine
  System system(sys_cfg);

  // Hog: 2 guaranteed + up to 6 optimistic frames, all dirtied.
  AppConfig hog_cfg = PagedApp("hog", 50, 8);
  hog_cfg.contract = {2, 6};
  hog_cfg.driver_max_frames = 8;
  AppDomain* hog = system.CreateApp(hog_cfg);
  bool hog_ok = false;
  hog->SpawnWorkload(SequentialPass(*hog, AccessType::kWrite, &hog_ok), "hog-pass");
  system.sim().RunUntil(Seconds(10));
  ASSERT_TRUE(hog_ok);
  ASSERT_EQ(system.frames().AllocatedCount(hog->id()), 8u);
  ASSERT_EQ(system.frames().free_frames(), 0u);
  ExpectAuditClean(system, "fig8 hog filled memory");

  // Late-comer with a guarantee of 4: must trigger intrusive revocation (all
  // hog frames are mapped and dirty).
  AppConfig late_cfg = PagedApp("late", 50, 4);
  late_cfg.contract = {4, 0};
  late_cfg.driver_max_frames = 4;
  AppDomain* late = system.CreateApp(late_cfg);
  bool late_ok = false;
  late->SpawnWorkload(SequentialPass(*late, AccessType::kWrite, &late_ok), "late-pass");
  system.sim().RunUntil(Seconds(30));

  EXPECT_TRUE(late_ok);
  ExpectAuditClean(system, "fig8 after intrusive revocation");
  EXPECT_GE(system.frames().revocations_intrusive(), 1u);
  EXPECT_EQ(system.frames().domains_killed(), 0u);  // the hog complied
  EXPECT_TRUE(hog->alive());
  // The hog cleaned dirty pages to swap during relinquish.
  EXPECT_GT(hog->paged_driver()->pageouts(), 0u);
  // The late-comer got its guaranteed frames.
  EXPECT_EQ(system.frames().AllocatedCount(late->id()), 4u);
  // And the hog can still make progress afterwards (with a smaller pool).
  bool hog_again = false;
  hog->SpawnWorkload(SequentialPass(*hog, AccessType::kRead, &hog_again), "hog-again");
  system.sim().RunUntil(system.sim().Now() + Seconds(30));
  EXPECT_TRUE(hog_again);
  ExpectAuditClean(system, "fig8 hog recovered");
}

TEST(Integration, NonCompliantDomainIsKilled) {
  SystemConfig sys_cfg;
  sys_cfg.phys_frames = 8;
  System system(sys_cfg);

  AppConfig hog_cfg = PagedApp("buggy", 50, 8);
  hog_cfg.contract = {2, 6};
  hog_cfg.driver_max_frames = 8;
  AppDomain* hog = system.CreateApp(hog_cfg);
  bool hog_ok = false;
  hog->SpawnWorkload(SequentialPass(*hog, AccessType::kWrite, &hog_ok), "pass");
  system.sim().RunUntil(Seconds(10));
  ASSERT_TRUE(hog_ok);

  // Simulate a buggy/hung application: its MMEntry stops servicing events.
  hog->mm_entry().Stop();

  AppConfig late_cfg = PagedApp("late", 50, 4);
  late_cfg.contract = {4, 0};
  late_cfg.driver_max_frames = 4;
  AppDomain* late = system.CreateApp(late_cfg);
  bool late_ok = false;
  late->SpawnWorkload(SequentialPass(*late, AccessType::kWrite, &late_ok), "late-pass");
  system.sim().RunUntil(Seconds(30));

  // The hog missed the 100 ms deadline and was killed; its frames were
  // reclaimed and the late-comer proceeded.
  EXPECT_EQ(system.frames().domains_killed(), 1u);
  EXPECT_FALSE(hog->alive());
  EXPECT_FALSE(system.frames().IsClient(hog->id()));
  EXPECT_TRUE(late_ok);
  // The kill path force-unmapped the dead domain's frames; no stale PTE or
  // TLB entry may survive it.
  ExpectAuditClean(system, "after kill");
}

// --- Kill isolation of IO-channel buffers -------------------------------------
//
// A pager's swap requests name its nailed frames as their buffers, and the USD
// moves the bytes when a request completes. The frames allocator reclaims a
// killed domain's frames at once, while its swap requests may still be queued
// or in service; AppDomain::Kill detaches the channel first, so those
// requests are served and charged but never touch a frame that has meanwhile
// been handed to another domain.

constexpr uint8_t kNewOwnerPattern = 0xA5;

// Every transaction costs >= 300 ms of command overhead, so when the victim's
// 100 ms revocation deadline expires one of its swap requests is still in
// service and the other queued behind it.
SystemConfig SlowDiskMachine() {
  SystemConfig cfg;
  cfg.phys_frames = 8;
  cfg.disk.command_overhead_ms = 300.0;
  return cfg;
}

// Owns every frame optimistically and runs two MMEntry workers, so two
// faults can each have a swap request outstanding at once.
AppConfig KillVictim() {
  AppConfig cfg = PagedApp("victim", 0, 16);
  cfg.contract = {0, 8};
  cfg.driver_max_frames = 8;
  cfg.mm_workers = 2;
  cfg.usd_depth = 2;
  cfg.disk_qos = QosSpec{Milliseconds(1000), Milliseconds(700), false, Milliseconds(10)};
  return cfg;
}

// Guaranteed all eight frames: its first fault revokes the victim's.
AppConfig NewOwner() {
  AppConfig cfg = PagedApp("new-owner", 0, 8);
  cfg.contract = {8, 0};
  cfg.driver_max_frames = 8;
  cfg.swap_bytes = kMiB;
  cfg.disk_qos = QosSpec{Milliseconds(1000), Milliseconds(200), false, Milliseconds(10)};
  return cfg;
}

Task TouchPage(AppDomain* app, size_t page, AccessType access) {
  bool ok = false;
  TaskHandle h = app->SpawnWorkload(
      app->vmem().AccessRange(app->stretch()->PageBase(page), kDefaultPageSize, access, &ok),
      "touch");
  co_await Join(h);
}

Task WritePattern(AppDomain* app, std::vector<uint8_t>* pattern, bool* ok) {
  TaskHandle h = app->SpawnWorkload(app->vmem().Write(app->stretch()->base(), *pattern, ok),
                                    "write");
  co_await Join(h);
}

Task ReadBack(AppDomain* app, std::vector<uint8_t>* out, bool* ok) {
  TaskHandle h = app->SpawnWorkload(app->vmem().Read(app->stretch()->base(), *out, ok), "read");
  co_await Join(h);
}

// The victim's frames pinned as in-flight swap buffers.
std::vector<Pfn> NailedFramesOf(System& system, DomainId domain) {
  std::vector<Pfn> out;
  for (Pfn pfn : system.frames().StackOf(domain)->frames()) {
    if (system.kernel().ramtab().StateOf(pfn) == FrameState::kNailed) {
      out.push_back(pfn);
    }
  }
  return out;
}

// With the victim's two swap requests outstanding (one in service, one
// queued) and their frames nailed, a new domain's arrival revokes every
// frame; the victim cannot answer and is killed. The new owner then fills
// all eight frames — the two buffers among them — before the USD finishes
// the dead domain's requests. Returns the victim's nailed frames.
std::vector<Pfn> KillWithSwapIoInFlight(System& system, AppDomain* victim, AppDomain* owner,
                                        std::vector<uint8_t>* pattern, bool* wrote) {
  UsdClient* swap = victim->swap_client();
  system.sim().RunUntil(system.sim().Now() + Milliseconds(10));
  EXPECT_EQ(swap->queued(), 1u);  // the second request waits behind the first
  const uint64_t served_before = swap->transactions();
  const SimDuration charged_before = system.usd().scheduler().total_charged(swap->sched_id());
  std::vector<Pfn> buffers = NailedFramesOf(system, victim->id());
  EXPECT_EQ(buffers.size(), 2u);

  owner->SpawnWorkload(WritePattern(owner, pattern, wrote), "pattern");
  system.sim().RunUntil(system.sim().Now() + Milliseconds(150));
  EXPECT_EQ(system.frames().domains_killed(), 1u);
  EXPECT_FALSE(victim->alive());
  EXPECT_TRUE(swap->detached());
  EXPECT_TRUE(*wrote);
  EXPECT_EQ(swap->transactions(), served_before);  // still in flight at the kill
  for (Pfn pfn : buffers) {
    EXPECT_EQ(system.kernel().ramtab().OwnerOf(pfn), owner->id()) << "pfn " << pfn;
  }

  // Let the USD finish the dead domain's requests: served and charged.
  system.sim().RunUntil(system.sim().Now() + Seconds(2));
  EXPECT_EQ(swap->transactions(), served_before + 2);
  EXPECT_GT(system.usd().scheduler().total_charged(swap->sched_id()), charged_before);
  return buffers;
}

TEST(KillIsolation, ReclaimedReadTargetKeepsTheNewOwnersBytes) {
  System system(SlowDiskMachine());
  AppDomain* victim = system.CreateApp(KillVictim());
  // Write all 16 pages, then read back the first 8: pages 8-15 end up on
  // swap and pages 0-7 resident and clean.
  bool pass_ok = false;
  victim->SpawnWorkload(SequentialPass(*victim, AccessType::kWrite, &pass_ok), "write");
  system.sim().RunUntil(Seconds(60));
  ASSERT_TRUE(pass_ok);
  for (size_t page = 0; page < 8; ++page) {
    victim->SpawnWorkload(TouchPage(victim, page, AccessType::kRead), "read");
    system.sim().RunUntil(system.sim().Now() + Seconds(5));
  }
  // Two threads fault on swapped-out pages: each evicts a clean page (no IO)
  // and reads its own into the freed frame.
  victim->SpawnWorkload(TouchPage(victim, 8, AccessType::kRead), "t1");
  victim->SpawnWorkload(TouchPage(victim, 9, AccessType::kRead), "t2");

  AppDomain* owner = system.CreateApp(NewOwner());
  std::vector<uint8_t> pattern(8 * kDefaultPageSize, kNewOwnerPattern);
  bool wrote = false;
  KillWithSwapIoInFlight(system, victim, owner, &pattern, &wrote);

  // Had the reads landed, the victim's page contents would sit in two of the
  // new owner's frames.
  std::vector<uint8_t> back(pattern.size());
  bool read_ok = false;
  owner->SpawnWorkload(ReadBack(owner, &back, &read_ok), "read-back");
  system.sim().RunUntil(system.sim().Now() + Seconds(1));
  ASSERT_TRUE(read_ok);
  EXPECT_EQ(back, pattern);
  ExpectAuditClean(system, "after kill with reads in flight");
}

TEST(KillIsolation, ReclaimedWriteSourceNeverReachesTheDeadSwapFile) {
  System system(SlowDiskMachine());
  AppDomain* victim = system.CreateApp(KillVictim());
  // Fill all eight frames with dirty pages, no IO yet.
  for (size_t page = 0; page < 8; ++page) {
    victim->SpawnWorkload(TouchPage(victim, page, AccessType::kWrite), "write");
    system.sim().RunUntil(system.sim().Now() + Seconds(1));
  }
  // Two threads fault on fresh pages: each evicts a dirty page, whose frame
  // is the source of a swap write.
  victim->SpawnWorkload(TouchPage(victim, 8, AccessType::kWrite), "t1");
  victim->SpawnWorkload(TouchPage(victim, 9, AccessType::kWrite), "t2");

  AppDomain* owner = system.CreateApp(NewOwner());
  std::vector<uint8_t> pattern(8 * kDefaultPageSize, kNewOwnerPattern);
  bool wrote = false;
  KillWithSwapIoInFlight(system, victim, owner, &pattern, &wrote);

  // Had the writes gathered their bytes, the new owner's pattern would now
  // sit in the dead domain's swap file. The scan covers both swap files (the
  // new owner never pages out, so neither may hold the pattern).
  const Extent& partition = system.config().swap_partition;
  const uint64_t swap_blocks = (KillVictim().swap_bytes + NewOwner().swap_bytes) / 512;
  const std::vector<uint8_t> swap = system.disk().ReadData(partition.start, swap_blocks);
  for (size_t block = 0; block < swap_blocks; ++block) {
    const auto first = swap.begin() + static_cast<ptrdiff_t>(block * 512);
    ASSERT_FALSE(std::all_of(first, first + 512, [](uint8_t b) { return b == kNewOwnerPattern; }))
        << "block " << partition.start + block << " holds the new owner's bytes";
  }
  ExpectAuditClean(system, "after kill with writes in flight");
}

TEST(Integration, TransparentRevocationIsInvisibleToVictim) {
  SystemConfig sys_cfg;
  sys_cfg.phys_frames = 8;
  System system(sys_cfg);

  // Victim holds optimistic frames but keeps them UNUSED (physical driver,
  // allocate then relinquish naturally: use a paged app that only ever
  // touches 2 pages, then manually grow its pool? Simpler: admit a client
  // that allocates frames without mapping them).
  Domain* idle = system.kernel().CreateDomain("idle-holder");
  ASSERT_TRUE(system.frames().AdmitClient(idle->id(), {2, 6}).ok());
  for (int i = 0; i < 8; ++i) {
    ASSERT_TRUE(system.frames().AllocFrame(idle->id()).has_value());
  }
  ASSERT_EQ(system.frames().free_frames(), 0u);

  AppConfig late_cfg = PagedApp("late", 50, 4);
  late_cfg.contract = {4, 0};
  late_cfg.driver_max_frames = 4;
  AppDomain* late = system.CreateApp(late_cfg);
  bool late_ok = false;
  late->SpawnWorkload(SequentialPass(*late, AccessType::kWrite, &late_ok), "pass");
  system.sim().RunUntil(Seconds(10));

  EXPECT_TRUE(late_ok);
  EXPECT_GE(system.frames().revocations_transparent(), 1u);
  EXPECT_EQ(system.frames().revocations_intrusive(), 0u);
  EXPECT_EQ(system.frames().domains_killed(), 0u);
  ExpectAuditClean(system, "after transparent revocation");
}

TEST(Integration, FsClientUnaffectedByPagers) {
  // Miniature Figure 9: a pipelined FS client at 50% runs at the same
  // bandwidth alone and against two paging apps.
  auto RunFs = [](bool with_pagers) -> uint64_t {
    System system;
    auto fs = system.usd().OpenClient(
        "fs", QosSpec{Milliseconds(250), Milliseconds(125), false, Milliseconds(10)}, 8);
    EXPECT_TRUE(fs.has_value());
    const Extent fs_extent{2000000, 400000};
    (*fs)->AddExtent(fs_extent);
    uint64_t fs_bytes = 0;
    system.sim().Spawn(
        PipelinedFsClient(system.sim(), *fs, fs_extent, 8, Seconds(20), &fs_bytes), "fs");
    // The pager workloads write through these for the whole run, so they must
    // outlive the RunUntil below, not just the if-block.
    bool ok_a = false;
    bool ok_b = false;
    uint64_t ba = 0;
    uint64_t bb = 0;
    if (with_pagers) {
      AppDomain* a = system.CreateApp(PagedApp("pager-a", 25, 128));
      AppDomain* b = system.CreateApp(PagedApp("pager-b", 50, 128));
      a->SpawnWorkload(SequentialAccessLoop(*a, AccessType::kWrite, Seconds(20), &ba, &ok_a),
                       "loop");
      b->SpawnWorkload(SequentialAccessLoop(*b, AccessType::kWrite, Seconds(20), &bb, &ok_b),
                       "loop");
    }
    system.sim().RunUntil(Seconds(20));
    return fs_bytes;
  };
  const uint64_t alone = RunFs(false);
  const uint64_t contended = RunFs(true);
  ASSERT_GT(alone, 0u);
  // "the throughput observed by the file-system client remains almost
  // exactly the same despite the addition of two heavily paging applications"
  const double ratio = static_cast<double>(contended) / static_cast<double>(alone);
  EXPECT_GT(ratio, 0.85);
  EXPECT_LT(ratio, 1.15);
}

TEST(Integration, ConcurrentThreadsInOneDomain) {
  // Two "user threads" (the paper's ULTS) of one domain page through disjoint
  // halves of the stretch concurrently; the MMEntry serialises resolution and
  // both complete with intact data.
  System system;
  AppConfig cfg = PagedApp("multi", 100, 64);
  cfg.driver_max_frames = 4;
  cfg.contract = {4, 0};
  AppDomain* app = system.CreateApp(cfg);
  struct Half {
    static Task Run(AppDomain* app, size_t first_page, size_t pages, bool* ok) {
      TaskHandle h = app->SpawnWorkload(
          app->vmem().AccessRange(app->stretch()->PageBase(first_page),
                                  pages * kDefaultPageSize, AccessType::kWrite, ok, nullptr),
          "half");
      co_await Join(h);
    }
  };
  bool ok_a = false;
  bool ok_b = false;
  app->SpawnWorkload(Half::Run(app, 0, 32, &ok_a), "t1");
  app->SpawnWorkload(Half::Run(app, 32, 32, &ok_b), "t2");
  system.sim().RunUntil(Seconds(60));
  EXPECT_TRUE(ok_a);
  EXPECT_TRUE(ok_b);
  EXPECT_EQ(app->mm_entry().faults_failed(), 0u);
  ExpectAuditClean(system, "concurrent threads");
}

TEST(Integration, ConcurrentFaultsOnSamePageAreDeduplicated) {
  // Many threads touch the same page simultaneously: the MMEntry resolves the
  // fault once and wakes all of them.
  System system;
  AppConfig cfg = PagedApp("dedup", 100, 16);
  cfg.driver_max_frames = 4;
  cfg.contract = {4, 0};
  AppDomain* app = system.CreateApp(cfg);
  struct Toucher {
    static Task Run(AppDomain* app, bool* ok) {
      TaskHandle h = app->SpawnWorkload(
          app->vmem().AccessRange(app->stretch()->base(), kDefaultPageSize, AccessType::kRead,
                                  ok, nullptr),
          "touch");
      co_await Join(h);
    }
  };
  bool oks[8] = {};
  for (bool& ok : oks) {
    app->SpawnWorkload(Toucher::Run(app, &ok), "toucher");
  }
  system.sim().RunUntil(Seconds(10));
  for (bool ok : oks) {
    EXPECT_TRUE(ok);
  }
  // One page was needed; the MMEntry resolved it at most a couple of times
  // (not once per thread).
  EXPECT_LE(app->mm_entry().faults_fast_path() + app->mm_entry().faults_worker(), 2u);
}

TEST(Integration, EightDomainsStress) {
  // System-wide stress: eight self-paging domains with mixed configurations
  // run concurrently; everything completes and frame accounting balances.
  System system;
  AppDomain* apps[8];
  bool ok[8] = {};
  for (int i = 0; i < 8; ++i) {
    AppConfig cfg = PagedApp("s" + std::to_string(i), 20, 32 + 16 * (i % 3));
    cfg.driver_max_frames = 2 + (i % 3);
    cfg.contract = {2 + static_cast<uint64_t>(i % 3), 0};
    if (i % 2 == 0) {  // stream paging on every other domain
      cfg.pipeline_depth = 1;
      cfg.readahead_max_cluster = 1;
    }
    apps[i] = system.CreateApp(cfg);
    apps[i]->SpawnWorkload(SequentialPass(*apps[i], AccessType::kWrite, &ok[i]), "pass");
  }
  system.sim().RunUntil(Seconds(300));
  uint64_t held = 0;
  for (int i = 0; i < 8; ++i) {
    EXPECT_TRUE(ok[i]) << "domain " << i;
    held += system.frames().AllocatedCount(apps[i]->id());
  }
  EXPECT_EQ(system.frames().free_frames() + held, system.frames().total_frames());
  ExpectAuditClean(system, "eight-domain stress");
}

TEST(Integration, FowDirtyTrackingForIncrementalCheckpoint) {
  // The exposure principle in action: an application uses the FOW mechanism
  // to find exactly the pages written between two checkpoints.
  System system;
  AppConfig cfg;
  cfg.name = "ckpt";
  cfg.driver = AppConfig::DriverKind::kNailed;
  cfg.contract = {16, 0};
  cfg.stretch_bytes = 16 * kDefaultPageSize;
  AppDomain* app = system.CreateApp(cfg);
  struct Checkpointer {
    static Task Run(AppDomain* app, size_t* dirty_pages, bool* ok) {
      System& system = app->system();
      Stretch* stretch = app->stretch();
      // Touch everything once.
      bool pass_ok = false;
      TaskHandle h = app->SpawnWorkload(
          app->vmem().AccessRange(stretch->base(), stretch->length(), AccessType::kWrite,
                                  &pass_ok, nullptr),
          "fill");
      co_await Join(h);
      // "Checkpoint": re-arm dirty tracking on every page.
      for (size_t i = 0; i < stretch->page_count(); ++i) {
        if (!system.kernel().syscalls()
                 .ArmDirtyTracking(app->id(), &app->pdom(), stretch->PageBase(i))
                 .ok()) {
          *ok = false;
          co_return;
        }
      }
      // Touch only pages 3 and 7.
      bool t_ok = false;
      TaskHandle h3 = app->SpawnWorkload(
          app->vmem().AccessRange(stretch->PageBase(3), 16, AccessType::kWrite, &t_ok, nullptr),
          "t3");
      co_await Join(h3);
      TaskHandle h7 = app->SpawnWorkload(
          app->vmem().AccessRange(stretch->PageBase(7), 16, AccessType::kWrite, &t_ok, nullptr),
          "t7");
      co_await Join(h7);
      // Incremental scan: count dirty pages via the user-visible trans().
      size_t dirty = 0;
      for (size_t i = 0; i < stretch->page_count(); ++i) {
        auto t = system.kernel().syscalls().Trans(stretch->PageBase(i));
        if (t.has_value() && t->dirty) {
          ++dirty;
        }
      }
      *dirty_pages = dirty;
      *ok = pass_ok;
    }
  };
  size_t dirty_pages = 0;
  bool ok = false;
  app->SpawnWorkload(Checkpointer::Run(app, &dirty_pages, &ok), "ckpt");
  system.sim().RunUntil(Seconds(10));
  EXPECT_TRUE(ok);
  EXPECT_EQ(dirty_pages, 2u);
}

}  // namespace
}  // namespace nemesis
