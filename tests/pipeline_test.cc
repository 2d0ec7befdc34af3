// Tests for the async pager pipeline (DESIGN.md "Async pager pipeline"):
// multi-slot staging with reply demultiplexing at depth > 1 and at depth 0
// (the demand pager, with one or two MMEntry workers), clustered read-ahead
// across USD batch-cap and blok-fragmentation boundaries, batched victim
// writeback, the forgetful-mode no-op guarantee, and teardown / revocation
// racing in-flight speculative IO.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <span>
#include <string>
#include <vector>

#include "src/core/system.h"
#include "src/core/workloads.h"
#include "src/sim/sync.h"

namespace nemesis {
namespace {

void ExpectAuditClean(System& system, const char* phase) {
  const AuditReport report = system.AuditNow();
  EXPECT_TRUE(report.ok()) << phase << ": " << report.Summary();
}

SystemConfig SmallSystem(uint64_t frames = 64) {
  SystemConfig cfg;
  cfg.phys_frames = frames;
  return cfg;
}

AppConfig PipelineApp(const std::string& name, uint64_t frames, size_t stretch_pages) {
  AppConfig cfg;
  cfg.name = name;
  cfg.contract = {frames, 0};
  cfg.driver_max_frames = frames;
  cfg.stretch_bytes = stretch_pages * kDefaultPageSize;
  cfg.swap_bytes = 2 * kMiB;
  cfg.pipeline_depth = 4;
  cfg.readahead_min_cluster = 1;
  cfg.readahead_max_cluster = 8;
  cfg.writeback_batch = 4;
  return cfg;
}

// Write pass then read pass, joined in order.
Task WriteThenRead(AppDomain* app, bool* ok) {
  bool w = false;
  TaskHandle wh = app->SpawnWorkload(
      app->vmem().AccessRange(app->stretch()->base(), app->stretch()->length(),
                              AccessType::kWrite, &w, nullptr),
      "w");
  co_await Join(wh);
  bool r = false;
  TaskHandle rh = app->SpawnWorkload(
      app->vmem().AccessRange(app->stretch()->base(), app->stretch()->length(),
                              AccessType::kRead, &r, nullptr),
      "r");
  co_await Join(rh);
  *ok = w && r;
}

// Deterministic pattern write, then full readback compare by `readers`
// concurrent tasks, each reading its own slice of the stretch.
Task VerifyPattern(AppDomain* app, bool* ok, size_t readers = 1) {
  const size_t len = app->stretch()->length();
  std::vector<uint8_t> pattern(len);
  for (size_t i = 0; i < len; ++i) {
    pattern[i] = static_cast<uint8_t>((i * 131 + 17) & 0xFF);
  }
  bool w = false;
  TaskHandle wh = app->SpawnWorkload(app->vmem().Write(app->stretch()->base(), pattern, &w), "w");
  co_await Join(wh);
  std::vector<uint8_t> readback(len);
  auto r = std::make_unique<bool[]>(readers);  // value-initialised: all false
  std::vector<TaskHandle> rh;
  const size_t slice = len / readers;
  for (size_t k = 0; k < readers; ++k) {
    rh.push_back(app->SpawnWorkload(
        app->vmem().Read(app->stretch()->base() + k * slice,
                         std::span<uint8_t>(readback).subspan(k * slice, slice),
                         &r[k]),
        "r"));
  }
  for (TaskHandle& h : rh) {
    co_await Join(h);
  }
  *ok = w && std::all_of(r.get(), r.get() + readers, [](bool v) { return v; }) &&
        readback == pattern;
}

TEST(Pipeline, SequentialReadsHitStagedFrames) {
  System system(SmallSystem());
  AppDomain* app = system.CreateApp(PipelineApp("pipe", 8, 64));
  bool ok = false;
  app->SpawnWorkload(WriteThenRead(app, &ok), "passes");
  system.sim().RunUntil(Seconds(120));
  EXPECT_TRUE(ok);
  PagedStretchDriver* driver = app->paged_driver();
  EXPECT_GT(driver->prefetch_issued(), 10u);
  EXPECT_GT(driver->prefetch_hits(), driver->prefetch_issued() / 2);
  // Depth 4 staging must actually be used concurrently, not one-at-a-time.
  EXPECT_GT(driver->staging_highwater(), 1u);
  ExpectAuditClean(system, "pipeline sequential");
}

TEST(Pipeline, DataIntegrityUnderAllReplacementPolicies) {
  // Replies must route to the requests that issued them (not Recv order),
  // under every victim-selection policy: at depth 4 (staged reads and
  // writeback chains fan out), at depth 0 (the plain demand pager), and at
  // depth 0 with two MMEntry workers whose demand reads are in flight at once.
  struct Case {
    PagedStretchDriver::Replacement policy;
    uint32_t depth;
    size_t workers;
  };
  std::vector<Case> cases;
  for (const auto policy :
       {PagedStretchDriver::Replacement::kFifo, PagedStretchDriver::Replacement::kClock,
        PagedStretchDriver::Replacement::kRandom}) {
    for (const uint32_t depth : {0u, 4u}) {
      cases.push_back({policy, depth, 1});
    }
  }
  cases.push_back({PagedStretchDriver::Replacement::kFifo, 0, 2});
  for (const Case& c : cases) {
    System system(SmallSystem());
    AppConfig cfg = PipelineApp("pipe-verify", 4, 32);
    cfg.replacement = c.policy;
    cfg.pipeline_depth = c.depth;
    if (c.depth == 0) {
      cfg.writeback_batch = 0;
      cfg.mm_workers = c.workers;
      cfg.usd_depth = c.workers;
    }
    AppDomain* app = system.CreateApp(cfg);
    bool ok = false;
    app->SpawnWorkload(VerifyPattern(app, &ok, c.workers), "verify");
    system.sim().RunUntil(Seconds(120));
    const std::string label = "policy " + std::to_string(static_cast<int>(c.policy)) +
                              " depth " + std::to_string(c.depth) + " workers " +
                              std::to_string(c.workers);
    EXPECT_TRUE(ok) << label;
    PagedStretchDriver* driver = app->paged_driver();
    if (c.depth == 0) {
      EXPECT_EQ(driver->prefetch_issued(), 0u) << label;
      EXPECT_EQ(driver->staging_highwater(), 0u) << label;
      EXPECT_EQ(driver->writeback_batched(), 0u) << label;
    } else {
      EXPECT_GT(driver->prefetch_hits(), 0u) << label;
    }
    EXPECT_EQ(app->swap_client()->rejected(), 0u) << label;
    ExpectAuditClean(system, "pipeline policy integrity");
  }
}

TEST(Pipeline, ClusterReadsSplitAcrossBatchCaps) {
  // A tight per-chain request cap forces an 8-page cluster to split across
  // several chained transactions; correctness must not depend on a cluster
  // fitting one chain.
  System system(SmallSystem());
  AppConfig cfg = PipelineApp("pipe-caps", 8, 64);
  cfg.usd_batch.enabled = true;
  cfg.usd_batch.max_requests = 2;
  AppDomain* app = system.CreateApp(cfg);
  bool ok = false;
  app->SpawnWorkload(VerifyPattern(app, &ok), "verify");
  system.sim().RunUntil(Seconds(120));
  EXPECT_TRUE(ok);
  EXPECT_GT(app->paged_driver()->prefetch_hits(), 0u);
  EXPECT_EQ(app->swap_client()->rejected(), 0u);
  ExpectAuditClean(system, "pipeline batch caps");
}

TEST(Pipeline, ClusterReadsOverFragmentedBloks) {
  // Backwards priming maps sequential pages onto discontiguous swap bloks, so
  // a read-ahead cluster's LBAs are not contiguous and cannot coalesce into a
  // single chain (a chain is strictly LBA-contiguous); data must survive.
  System system(SmallSystem());
  AppConfig cfg = PipelineApp("pipe-frag", 4, 32);
  cfg.usd_batch.enabled = true;
  AppDomain* app = system.CreateApp(cfg);
  struct Frag {
    static Task Run(AppDomain* app, bool* ok) {
      // Prime pages in reverse so blok allocation order (first-fit,
      // ascending) is the reverse of page order.
      bool all_ok = true;
      for (size_t i = app->stretch()->page_count(); i > 0; --i) {
        bool w = false;
        TaskHandle wh = app->SpawnWorkload(
            app->vmem().AccessRange(app->stretch()->PageBase(i - 1), kDefaultPageSize,
                                    AccessType::kWrite, &w, nullptr),
            "w");
        co_await Join(wh);
        all_ok = all_ok && w;
      }
      // Forward sequential read: clusters span non-adjacent bloks.
      bool r = false;
      TaskHandle rh = app->SpawnWorkload(
          app->vmem().AccessRange(app->stretch()->base(), app->stretch()->length(),
                                  AccessType::kRead, &r, nullptr),
          "r");
      co_await Join(rh);
      *ok = all_ok && r;
    }
  };
  bool ok = false;
  app->SpawnWorkload(Frag::Run(app, &ok), "frag");
  system.sim().RunUntil(Seconds(240));
  EXPECT_TRUE(ok);
  EXPECT_EQ(app->swap_client()->rejected(), 0u);
  ExpectAuditClean(system, "pipeline fragmented bloks");
}

TEST(Pipeline, ForgetfulModeDisablesReadAhead) {
  // Forgetful (fig 8) pages are demand-zeroed on re-fault: there is nothing
  // useful to read ahead, and the pipeline must stay out of the way.
  System system(SmallSystem());
  AppConfig cfg = PipelineApp("pipe-forgetful", 4, 32);
  cfg.forgetful = true;
  AppDomain* app = system.CreateApp(cfg);
  bool ok = false;
  app->SpawnWorkload(WriteThenRead(app, &ok), "passes");
  system.sim().RunUntil(Seconds(120));
  EXPECT_TRUE(ok);
  EXPECT_EQ(app->paged_driver()->prefetch_issued(), 0u);
  EXPECT_EQ(app->paged_driver()->pageins(), 0u);
  ExpectAuditClean(system, "pipeline forgetful");
}

TEST(Pipeline, BatchedWritebackCleansVictimsOffTheFaultPath) {
  System system(SmallSystem());
  AppDomain* app = system.CreateApp(PipelineApp("pipe-wb", 8, 64));
  bool ok = false;
  app->SpawnWorkload(WriteThenRead(app, &ok), "passes");
  system.sim().RunUntil(Seconds(120));
  EXPECT_TRUE(ok);
  PagedStretchDriver* driver = app->paged_driver();
  // The write pass dirties every page: evictions must go through the batcher.
  EXPECT_GT(driver->writeback_batched(), 0u);
  // The read pass evicts clean pages: most of its evictions hand the frame
  // back without any disk write.
  EXPECT_GT(driver->cleaned_evictions(), 0u);
  // Every batched write completed (one pageout per write issued).
  EXPECT_GE(driver->pageouts(), driver->writeback_batched());
  ExpectAuditClean(system, "pipeline writeback");
}

TEST(Pipeline, ShutdownRacesInflightSpeculativeIo) {
  // Tear the domain down at several points mid-workload, racing in-flight
  // staged reads and writeback chains. No frame may leak and the cross-layer
  // state must stay audit-clean.
  for (const int64_t shutdown_ms : {20, 50, 120, 300, 700}) {
    SystemConfig sys_cfg;
    sys_cfg.phys_frames = 16;
    System system(sys_cfg);
    AppDomain* app = system.CreateApp(PipelineApp("pipe-teardown", 8, 64));
    bool ok = false;
    app->SpawnWorkload(WriteThenRead(app, &ok), "passes");
    system.sim().RunUntil(Milliseconds(shutdown_ms));
    app->Shutdown();
    // All 16 machine frames are back in the allocator's free pool.
    EXPECT_EQ(system.frames().free_frames(), 16u) << "shutdown at " << shutdown_ms << " ms";
    EXPECT_FALSE(system.frames().IsClient(app->id()));
    ExpectAuditClean(system, "pipeline shutdown race");
    // The machine is still fully usable afterwards.
    AppConfig next = PipelineApp("pipe-next", 8, 32);
    AppDomain* replacement = system.CreateApp(next);
    bool ok2 = false;
    replacement->SpawnWorkload(VerifyPattern(replacement, &ok2), "verify");
    system.sim().RunUntil(system.sim().Now() + Seconds(120));
    EXPECT_TRUE(ok2) << "shutdown at " << shutdown_ms << " ms";
    ExpectAuditClean(system, "pipeline successor app");
  }
}

TEST(Pipeline, RevocationRacesInflightSpeculativeIo) {
  // A late-coming domain with a guaranteed contract forces intrusive
  // revocation of the pipelined hog while staged reads and writeback chains
  // are in flight. The hog must comply (cancelling staged frames and waiting
  // out its chains) without leaking frames or corrupting its data.
  SystemConfig sys_cfg;
  sys_cfg.phys_frames = 8;
  System system(sys_cfg);

  AppConfig hog_cfg = PipelineApp("pipe-hog", 2, 32);
  hog_cfg.contract = {2, 6};
  hog_cfg.driver_max_frames = 8;
  // A domain that intends to survive intrusive revocation mid-pipeline needs
  // a worker free to run the revoke job (the other may be parked on an
  // in-flight chain) and enough disk guarantee to clean victims by the
  // 100 ms deadline.
  hog_cfg.mm_workers = 2;
  hog_cfg.disk_qos = QosSpec{Milliseconds(250), Milliseconds(100), false, Milliseconds(10)};
  AppDomain* hog = system.CreateApp(hog_cfg);
  bool hog_primed = false;
  hog->SpawnWorkload(SequentialPass(*hog, AccessType::kWrite, &hog_primed), "hog-prime");
  system.sim().RunUntil(Seconds(10));
  ASSERT_TRUE(hog_primed);
  ASSERT_EQ(system.frames().AllocatedCount(hog->id()), 8u);
  // Keep the pipeline busy while the revocation lands.
  bool hog_ok = false;
  hog->SpawnWorkload(WriteThenRead(hog, &hog_ok), "hog-churn");
  system.sim().RunUntil(system.sim().Now() + Milliseconds(50));

  AppConfig late_cfg = PipelineApp("pipe-late", 4, 16);
  late_cfg.contract = {4, 0};
  late_cfg.driver_max_frames = 4;
  AppDomain* late = system.CreateApp(late_cfg);
  bool late_ok = false;
  late->SpawnWorkload(VerifyPattern(late, &late_ok), "late-verify");
  system.sim().RunUntil(system.sim().Now() + Seconds(240));

  EXPECT_TRUE(hog_ok);
  EXPECT_TRUE(late_ok);
  EXPECT_GE(system.frames().revocations_intrusive(), 1u);
  EXPECT_EQ(system.frames().domains_killed(), 0u);  // the pipelined hog complied
  EXPECT_TRUE(hog->alive());
  EXPECT_EQ(system.frames().AllocatedCount(late->id()), 4u);
  ExpectAuditClean(system, "pipeline revocation race");
}

}  // namespace
}  // namespace nemesis
