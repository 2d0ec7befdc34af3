// Unit tests for the application-level layer: blok allocator, MMEntry fault
// demultiplexing, and the nailed/physical/paged stretch drivers (driven
// through the full System wiring).
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <numeric>
#include <set>
#include <vector>

#include "src/app/blok_allocator.h"
#include "src/app/nailed_driver.h"
#include "src/app/page_kernels.h"
#include "src/base/random.h"
#include "src/core/system.h"
#include "src/core/workloads.h"
#include "src/sim/sync.h"

namespace nemesis {
namespace {

TEST(BlokAllocator, AllocatesSequentiallyFirstFit) {
  BlokAllocator ba(100, 16);
  for (uint64_t i = 0; i < 10; ++i) {
    auto b = ba.Alloc();
    ASSERT_TRUE(b.has_value());
    EXPECT_EQ(*b, i);
  }
  EXPECT_EQ(ba.allocated(), 10u);
  EXPECT_EQ(ba.free_count(), 90u);
}

TEST(BlokAllocator, FreeAndReuseEarliest) {
  BlokAllocator ba(100, 16);
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(ba.Alloc().has_value());
  }
  ba.Free(3);
  ba.Free(20);
  // First fit: the earliest freed blok is reused first.
  auto b = ba.Alloc();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, 3u);
  b = ba.Alloc();
  EXPECT_EQ(*b, 20u);
}

TEST(BlokAllocator, ExhaustionReturnsNullopt) {
  BlokAllocator ba(5, 2);
  for (int i = 0; i < 5; ++i) {
    ASSERT_TRUE(ba.Alloc().has_value());
  }
  EXPECT_FALSE(ba.Alloc().has_value());
  ba.Free(2);
  auto b = ba.Alloc();
  ASSERT_TRUE(b.has_value());
  EXPECT_EQ(*b, 2u);
}

TEST(BlokAllocator, HintSkipsFullChunks) {
  BlokAllocator ba(64, 8);
  std::set<uint64_t> seen;
  for (int i = 0; i < 64; ++i) {
    auto b = ba.Alloc();
    ASSERT_TRUE(b.has_value());
    EXPECT_TRUE(seen.insert(*b).second) << "double allocation of blok " << *b;
  }
  EXPECT_EQ(seen.size(), 64u);
}

TEST(BlokAllocator, NoDoubleAllocationUnderChurn) {
  BlokAllocator ba(256, 32);
  Random rng(11);
  std::set<uint64_t> held;
  for (int step = 0; step < 2000; ++step) {
    if (held.empty() || (rng.NextBelow(2) == 0 && held.size() < 200)) {
      auto b = ba.Alloc();
      if (b.has_value()) {
        EXPECT_TRUE(held.insert(*b).second);
      }
    } else {
      auto it = held.begin();
      std::advance(it, rng.NextBelow(held.size()));
      ba.Free(*it);
      held.erase(it);
    }
    EXPECT_EQ(ba.allocated(), held.size());
  }
}

// --- Driver tests over the full System wiring ------------------------------

// Constructing a System touches none of its physical memory: the frames are
// backed by the host only once the simulation writes them.
TEST(SystemConstruction, LeavesPhysicalMemoryUnbacked) {
  System system{SystemConfig{}};
  const PhysicalMemory& phys = system.phys();
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> resident(phys.total_bytes() / page);
  ASSERT_EQ(mincore(const_cast<uint8_t*>(phys.FrameData(0).data()), phys.total_bytes(),
                    resident.data()),
            0);
  EXPECT_EQ(std::count_if(resident.begin(), resident.end(),
                          [](unsigned char v) { return (v & 1) != 0; }),
            0);
}

SystemConfig SmallSystem() {
  SystemConfig cfg;
  cfg.phys_frames = 64;  // 512 KiB
  return cfg;
}

TEST(NailedDriver, BindMapsAndNailsEverything) {
  System system(SmallSystem());
  AppConfig cfg;
  cfg.name = "nailed";
  cfg.driver = AppConfig::DriverKind::kNailed;
  cfg.contract = {8, 0};
  cfg.stretch_bytes = 8 * kDefaultPageSize;
  AppDomain* app = system.CreateApp(cfg);
  // All pages mapped at bind: no faults on access.
  bool ok = false;
  app->SpawnWorkload(SequentialPass(*app, AccessType::kWrite, &ok), "pass");
  system.sim().RunUntil(Seconds(1));
  EXPECT_TRUE(ok);
  EXPECT_EQ(app->vmem().faults_taken(), 0u);
  for (size_t i = 0; i < 8; ++i) {
    auto t = system.kernel().syscalls().Trans(app->stretch()->PageBase(i));
    ASSERT_TRUE(t.has_value());
    EXPECT_EQ(system.kernel().ramtab().StateOf(t->pfn), FrameState::kNailed);
  }
}

TEST(PhysicalDriver, DemandFaultsPopulateStretch) {
  System system(SmallSystem());
  AppConfig cfg;
  cfg.name = "phys";
  cfg.driver = AppConfig::DriverKind::kPhysical;
  cfg.contract = {8, 0};
  cfg.stretch_bytes = 8 * kDefaultPageSize;
  AppDomain* app = system.CreateApp(cfg);
  bool ok = false;
  app->SpawnWorkload(SequentialPass(*app, AccessType::kWrite, &ok), "pass");
  system.sim().RunUntil(Seconds(1));
  EXPECT_TRUE(ok);
  // One fault per page, all resolved by the application itself.
  EXPECT_EQ(app->vmem().faults_taken(), 8u);
  EXPECT_EQ(system.kernel().faults_dispatched(), 8u);
  EXPECT_EQ(system.frames().AllocatedCount(app->id()), 8u);
}

TEST(PhysicalDriver, QuotaExhaustionFailsFault) {
  System system(SmallSystem());
  AppConfig cfg;
  cfg.name = "phys";
  cfg.driver = AppConfig::DriverKind::kPhysical;
  cfg.contract = {2, 0};  // only 2 frames for a 4-page stretch
  cfg.stretch_bytes = 4 * kDefaultPageSize;
  AppDomain* app = system.CreateApp(cfg);
  bool ok = true;
  app->SpawnWorkload(SequentialPass(*app, AccessType::kWrite, &ok), "pass");
  system.sim().RunUntil(Seconds(1));
  // The physical driver cannot evict; the third page is unresolvable.
  EXPECT_FALSE(ok);
  EXPECT_GT(app->mm_entry().faults_failed(), 0u);
}

TEST(PagedDriver, PagesThroughTinyMemory) {
  System system(SmallSystem());
  AppConfig cfg;
  cfg.name = "paged";
  cfg.contract = {2, 0};
  cfg.driver_max_frames = 2;
  cfg.stretch_bytes = 16 * kDefaultPageSize;
  cfg.swap_bytes = kMiB;
  AppDomain* app = system.CreateApp(cfg);
  bool ok = false;
  app->SpawnWorkload(SequentialPass(*app, AccessType::kWrite, &ok), "pass");
  system.sim().RunUntil(Seconds(30));
  EXPECT_TRUE(ok);
  PagedStretchDriver* driver = app->paged_driver();
  ASSERT_NE(driver, nullptr);
  // 16 pages through 2 frames: at least 14 evictions, all dirty (writes).
  EXPECT_GE(driver->evictions(), 14u);
  EXPECT_GE(driver->pageouts(), 14u);
  EXPECT_EQ(driver->pool_size(), 2u);
  EXPECT_LE(driver->resident_pages(), 2u);
}

TEST(PagedDriver, DataSurvivesPagingCycle) {
  System system(SmallSystem());
  AppConfig cfg;
  cfg.name = "paged";
  cfg.contract = {2, 0};
  cfg.driver_max_frames = 2;
  cfg.stretch_bytes = 8 * kDefaultPageSize;
  cfg.swap_bytes = kMiB;
  AppDomain* app = system.CreateApp(cfg);

  struct Verify {
    static Task Run(AppDomain* app, bool* ok) {
      const VirtAddr base = app->stretch()->base();
      const size_t len = app->stretch()->length();
      // Write a distinctive pattern across the whole stretch (forces pages
      // of earlier data out to swap)...
      std::vector<uint8_t> pattern(len);
      for (size_t i = 0; i < len; ++i) {
        pattern[i] = static_cast<uint8_t>((i * 7 + 13) & 0xFF);
      }
      bool w_ok = false;
      TaskHandle wh = app->SpawnWorkload(app->vmem().Write(base, pattern, &w_ok), "w");
      co_await Join(wh);
      if (!w_ok) {
        *ok = false;
        co_return;
      }
      // ...then read it all back through page-ins and compare.
      std::vector<uint8_t> readback(len, 0);
      bool r_ok = false;
      TaskHandle rh = app->SpawnWorkload(app->vmem().Read(base, readback, &r_ok), "r");
      co_await Join(rh);
      *ok = r_ok && readback == pattern;
    }
  };
  bool ok = false;
  app->SpawnWorkload(Verify::Run(app, &ok), "verify");
  system.sim().RunUntil(Seconds(30));
  EXPECT_TRUE(ok);
  EXPECT_GT(app->paged_driver()->pageins(), 0u);
  EXPECT_GT(app->paged_driver()->pageouts(), 0u);
}

TEST(PagedDriver, SwapExhaustionKeepsDirtyVictim) {
  // Two frames, four pages and swap for two: writing pages 0-3 sends pages 0
  // and 1 to swap and leaves 2 and 3 resident and dirty. Paging 0 back in
  // needs a victim, and the dirty one has nowhere to go: the fault fails,
  // and the victim keeps its contents.
  System system(SmallSystem());
  AppConfig cfg;
  cfg.name = "paged";
  cfg.contract = {2, 0};
  cfg.driver_max_frames = 2;
  cfg.stretch_bytes = 4 * kDefaultPageSize;
  cfg.swap_bytes = 2 * kDefaultPageSize;
  AppDomain* app = system.CreateApp(cfg);

  struct Run {
    static Task Go(AppDomain* app, bool* wrote, bool* read0, bool* read2,
                   std::vector<uint8_t>* page2) {
      const VirtAddr base = app->stretch()->base();
      std::vector<uint8_t> pattern(4 * kDefaultPageSize);
      for (size_t i = 0; i < pattern.size(); ++i) {
        pattern[i] = static_cast<uint8_t>(0x10 + i / kDefaultPageSize);
      }
      TaskHandle w = app->SpawnWorkload(app->vmem().Write(base, pattern, wrote), "w");
      co_await Join(w);
      std::vector<uint8_t> page0(kDefaultPageSize);
      TaskHandle r0 = app->SpawnWorkload(app->vmem().Read(base, page0, read0), "r0");
      co_await Join(r0);
      TaskHandle r2 = app->SpawnWorkload(
          app->vmem().Read(base + 2 * kDefaultPageSize, *page2, read2), "r2");
      co_await Join(r2);
    }
  };
  bool wrote = false;
  bool read0 = true;
  bool read2 = false;
  std::vector<uint8_t> page2(kDefaultPageSize);
  app->SpawnWorkload(Run::Go(app, &wrote, &read0, &read2, &page2), "run");
  system.sim().RunUntil(Seconds(30));
  EXPECT_TRUE(wrote);
  EXPECT_FALSE(read0);
  ASSERT_TRUE(read2);
  EXPECT_EQ(page2, std::vector<uint8_t>(kDefaultPageSize, 0x12));
}

// AccessRange's page-touch kernels over an unaligned range that starts and
// ends mid-page and spans four pages of a two-frame domain, so the written
// bytes make a round trip through swap before they are summed.
TEST(VMemTest, AccessRangeKernelsOverUnalignedRange) {
  System system(SmallSystem());
  AppConfig cfg;
  cfg.name = "kernels";
  cfg.contract = {2, 0};
  cfg.driver_max_frames = 2;
  cfg.stretch_bytes = 8 * kDefaultPageSize;
  cfg.swap_bytes = kMiB;
  AppDomain* app = system.CreateApp(cfg);
  const VirtAddr first = app->stretch()->base() + 100;
  const VirtAddr end = app->stretch()->base() + 3 * kDefaultPageSize + 17;
  const size_t len = static_cast<size_t>(end - first);

  struct WriteReadBack {
    static Task Run(AppDomain* app, VirtAddr va, std::vector<uint8_t>* out, bool* ok) {
      bool w_ok = false;
      TaskHandle w = app->SpawnWorkload(
          app->vmem().AccessRange(va, out->size(), AccessType::kWrite, &w_ok), "write");
      co_await Join(w);
      bool r_ok = false;
      TaskHandle r = app->SpawnWorkload(
          app->vmem().AccessRange(va, out->size(), AccessType::kRead, &r_ok), "read");
      co_await Join(r);
      bool copy_ok = false;
      TaskHandle c = app->SpawnWorkload(app->vmem().Read(va, *out, &copy_ok), "copy");
      co_await Join(c);
      *ok = w_ok && r_ok && copy_ok;
    }
  };
  std::vector<uint8_t> bytes(len);
  bool ok = false;
  app->SpawnWorkload(WriteReadBack::Run(app, first, &bytes, &ok), "verify");
  system.sim().RunUntil(Seconds(30));
  ASSERT_TRUE(ok);
  EXPECT_GT(app->paged_driver()->pageouts(), 0u);

  uint64_t expected_sum = 0;
  for (size_t i = 0; i < len; ++i) {
    const auto expected = static_cast<uint8_t>((first + i) & 0xFF);
    ASSERT_EQ(bytes[i], expected) << "byte " << i;
    expected_sum += expected;
  }
  EXPECT_EQ(app->vmem().checksum(), expected_sum);
}

// All-0xFF bytes are the largest possible sum per byte for the read kernel: the
// checksum must still be the exact byte sum.
TEST(VMemTest, AccessRangeSumsAFullPageOfOnesExactly) {
  System system(SmallSystem());
  AppConfig cfg;
  cfg.name = "ones";
  cfg.contract = {2, 0};
  cfg.driver_max_frames = 2;
  cfg.stretch_bytes = 4 * kDefaultPageSize;
  cfg.swap_bytes = kMiB;
  AppDomain* app = system.CreateApp(cfg);
  const VirtAddr va = app->stretch()->base();
  const std::vector<uint8_t> ones(kDefaultPageSize, 0xFF);

  struct WriteThenSum {
    static Task Run(AppDomain* app, VirtAddr va, const std::vector<uint8_t>* data, bool* ok) {
      bool w_ok = false;
      TaskHandle w = app->SpawnWorkload(app->vmem().Write(va, *data, &w_ok), "write");
      co_await Join(w);
      bool r_ok = false;
      TaskHandle r = app->SpawnWorkload(
          app->vmem().AccessRange(va, data->size(), AccessType::kRead, &r_ok), "sum");
      co_await Join(r);
      *ok = w_ok && r_ok;
    }
  };
  bool ok = false;
  app->SpawnWorkload(WriteThenSum::Run(app, va, &ones, &ok), "verify");
  system.sim().RunUntil(Seconds(30));
  ASSERT_TRUE(ok);
  EXPECT_EQ(app->vmem().checksum(), uint64_t{255} * kDefaultPageSize);
}

// The read kernel (psadbw on x86-64, a byte loop elsewhere) against a scalar
// byte sum over random bytes: lengths 0-300 and whole pages, starting at
// offsets 0-15 into a page (a page-long range from a nonzero offset ends in
// the next page, so the sub-16-byte tails are covered too).
TEST(VMemTest, ChecksumMatchesScalarSumAtUnalignedOffsets) {
  System system(SmallSystem());
  AppConfig cfg;
  cfg.name = "sum";
  cfg.contract = {4, 0};
  cfg.driver_max_frames = 4;
  cfg.stretch_bytes = 4 * kDefaultPageSize;
  cfg.swap_bytes = kMiB;
  AppDomain* app = system.CreateApp(cfg);

  Random rng(11);
  std::vector<uint8_t> bytes(4 * kDefaultPageSize);
  for (uint8_t& b : bytes) {
    b = static_cast<uint8_t>(rng.Next());
  }
  struct Range {
    size_t start = 0;  // byte offset into the stretch
    size_t len = 0;
  };
  std::vector<Range> ranges;
  for (size_t offset = 0; offset < 16; ++offset) {
    const size_t page = offset % 3;
    for (int k = 0; k < 8; ++k) {
      ranges.push_back({page * kDefaultPageSize + offset, rng.NextBelow(301)});
    }
    ranges.push_back({page * kDefaultPageSize + offset, kDefaultPageSize});
  }

  struct SumEach {
    static Task Run(AppDomain* app, const std::vector<uint8_t>* bytes,
                    const std::vector<Range>* ranges, std::vector<uint64_t>* sums, bool* ok) {
      const VirtAddr base = app->stretch()->base();
      bool w_ok = false;
      TaskHandle w = app->SpawnWorkload(app->vmem().Write(base, *bytes, &w_ok), "fill");
      co_await Join(w);
      *ok = w_ok;
      for (const Range& r : *ranges) {
        const uint64_t before = app->vmem().checksum();
        bool r_ok = false;
        TaskHandle h = app->SpawnWorkload(
            app->vmem().AccessRange(base + r.start, r.len, AccessType::kRead, &r_ok), "sum");
        co_await Join(h);
        *ok = *ok && r_ok;
        sums->push_back(app->vmem().checksum() - before);
      }
    }
  };
  std::vector<uint64_t> sums;
  bool ok = false;
  app->SpawnWorkload(SumEach::Run(app, &bytes, &ranges, &sums, &ok), "verify");
  system.sim().RunUntil(Seconds(30));
  ASSERT_TRUE(ok);
  ASSERT_EQ(sums.size(), ranges.size());
  for (size_t i = 0; i < ranges.size(); ++i) {
    uint64_t expected = 0;
    for (size_t j = 0; j < ranges[i].len; ++j) {
      expected += bytes[ranges[i].start + j];
    }
    EXPECT_EQ(sums[i], expected) << "offset " << ranges[i].start << " length " << ranges[i].len;
  }
}

// Every SumBytes variant this host can run, not only the one the dispatch
// picks, against a plain accumulate: lengths 0-300, one page and two pages,
// starting at offsets 0-63 (so every vector tail and misalignment occurs), over
// random bytes and over all-0xFF bytes (the largest sum per byte).
TEST(PageKernels, EverySumVariantMatchesAScalarSum) {
  using SumFn = uint64_t (*)(std::span<const uint8_t>);
  std::vector<std::pair<const char*, SumFn>> variants = {
      {"dispatched", page_kernels::SumBytes},
      {"byte loop", page_kernels::SumBytesScalar},
  };
#if defined(__SSE2__)
  variants.emplace_back("sse2", page_kernels::SumBytesSse2);
#endif
#if defined(NEMESIS_HAVE_AVX2_KERNELS)
  if (page_kernels::CpuHasAvx2()) {
    variants.emplace_back("avx2", page_kernels::SumBytesAvx2);
  }
#endif
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 300; ++len) {
    lengths.push_back(len);
  }
  lengths.push_back(kDefaultPageSize);
  lengths.push_back(2 * kDefaultPageSize);

  std::vector<uint8_t> bytes(2 * kDefaultPageSize + 64);
  Random rng(5);
  for (const bool ones : {false, true}) {
    for (uint8_t& b : bytes) {
      b = ones ? uint8_t{0xFF} : static_cast<uint8_t>(rng.Next());
    }
    for (size_t offset = 0; offset < 64; ++offset) {
      for (const size_t len : lengths) {
        const std::span<const uint8_t> span(bytes.data() + offset, len);
        const uint64_t expected = std::accumulate(span.begin(), span.end(), uint64_t{0});
        for (const auto& [name, sum] : variants) {
          ASSERT_EQ(sum(span), expected)
              << name << " offset " << offset << " length " << len << " ones " << ones;
        }
      }
    }
  }
}

// The write kernel against the per-byte rule (va + i) & 0xFF for every low
// address byte, lengths 0-600 and one page; the byte past the span stays.
TEST(PageKernels, FillMatchesTheAddressByteRule) {
  constexpr uint8_t kGuard = 0xA5;
  std::vector<size_t> lengths;
  for (size_t len = 0; len <= 600; ++len) {
    lengths.push_back(len);
  }
  lengths.push_back(kDefaultPageSize);
  std::vector<uint8_t> bytes(kDefaultPageSize + 1);
  std::vector<uint8_t> expected(kDefaultPageSize);
  for (VirtAddr low = 0; low < 256; ++low) {
    const VirtAddr va = 0x7f3a12340000ull + low;
    for (size_t i = 0; i < expected.size(); ++i) {
      expected[i] = static_cast<uint8_t>((va + i) & 0xFF);
    }
    for (const size_t len : lengths) {
      std::fill(bytes.begin(), bytes.end(), kGuard);
      page_kernels::FillAddressBytes(std::span<uint8_t>(bytes.data(), len), va);
      ASSERT_TRUE(std::equal(bytes.begin(), bytes.begin() + len, expected.begin()))
          << "low byte " << low << " length " << len;
      ASSERT_EQ(bytes[len], kGuard) << "low byte " << low << " length " << len;
    }
  }
}

TEST(PagedDriver, ForgetfulModeNeverPagesIn) {
  System system(SmallSystem());
  AppConfig cfg;
  cfg.name = "forgetful";
  cfg.contract = {2, 0};
  cfg.driver_max_frames = 2;
  cfg.stretch_bytes = 16 * kDefaultPageSize;
  cfg.swap_bytes = kMiB;
  cfg.forgetful = true;
  AppDomain* app = system.CreateApp(cfg);
  bool ok1 = false;
  struct TwoPasses {
    static Task Run(AppDomain* app, bool* ok) {
      bool a = false;
      bool b = false;
      TaskHandle h1 = app->SpawnWorkload(
          app->vmem().AccessRange(app->stretch()->base(), app->stretch()->length(),
                                  AccessType::kWrite, &a, nullptr),
          "p1");
      co_await Join(h1);
      TaskHandle h2 = app->SpawnWorkload(
          app->vmem().AccessRange(app->stretch()->base(), app->stretch()->length(),
                                  AccessType::kWrite, &b, nullptr),
          "p2");
      co_await Join(h2);
      *ok = a && b;
    }
  };
  app->SpawnWorkload(TwoPasses::Run(app, &ok1), "two-passes");
  system.sim().RunUntil(Seconds(60));
  EXPECT_TRUE(ok1);
  // Dirty evictions happen (disk writes), but nothing is ever read back.
  EXPECT_GT(app->paged_driver()->pageouts(), 20u);
  EXPECT_EQ(app->paged_driver()->pageins(), 0u);
  // Bloks are recycled (forgotten), so swap usage stays bounded.
  EXPECT_LE(app->paged_driver()->bloks().allocated(), 2u);
}

TEST(MmEntryTest, FastPathUsedWhenFramesAvailable) {
  System system(SmallSystem());
  AppConfig cfg;
  cfg.name = "fast";
  cfg.contract = {4, 0};
  cfg.driver_max_frames = 4;
  cfg.stretch_bytes = 4 * kDefaultPageSize;
  cfg.swap_bytes = kMiB;
  AppDomain* app = system.CreateApp(cfg);
  bool ok = false;
  app->SpawnWorkload(SequentialPass(*app, AccessType::kWrite, &ok), "pass");
  system.sim().RunUntil(Seconds(5));
  EXPECT_TRUE(ok);
  // The first faults need worker allocation (pool empty); once the pool is
  // populated and pages unmapped... with 4 frames and 4 pages everything
  // stays resident, so exactly the worker path fills the pool.
  EXPECT_EQ(app->mm_entry().faults_worker(), 4u);
  EXPECT_EQ(app->mm_entry().faults_failed(), 0u);
}

// An application that resolves its own access violations (Table 1's appel
// pattern) does so through a stretch driver on the one dispatch path: this
// driver backs its stretch with nailed frames and, in the fast path, restores
// the rights an ACV reports missing.
class AcvRestoringDriver : public NailedStretchDriver {
 public:
  explicit AcvRestoringDriver(DriverEnv env) : NailedStretchDriver(env), pdom_(*env.pdom) {}

  FaultResult HandleFault(const FaultRecord& fault, Stretch& stretch) override {
    if (fault.type != FaultType::kFaultAcv) {
      return NailedStretchDriver::HandleFault(fault, stretch);
    }
    EXPECT_EQ(fault.sid, stretch.sid());  // the MMU's sid reached the driver
    ++acvs_;
    pdom_.SetRights(stretch.sid(), kRightAll);
    return FaultResult::kSuccess;
  }

  int acvs() const { return acvs_; }

 private:
  ProtectionDomain& pdom_;
  int acvs_ = 0;
};

TEST(MmEntryTest, DriverResolvesAccessViolationInFastPath) {
  System system(SmallSystem());
  AppConfig cfg;
  cfg.name = "appel";
  cfg.driver = AppConfig::DriverKind::kNailed;
  cfg.contract = {6, 0};
  cfg.stretch_bytes = 4 * kDefaultPageSize;
  AppDomain* app = system.CreateApp(cfg);
  auto second = system.stretches().New(app->id(), &app->pdom(), 2 * kDefaultPageSize);
  ASSERT_TRUE(second.has_value());
  DriverEnv env{&system.sim(), &system.kernel(), &system.frames(), &system.phys(), app->id(),
                &app->pdom()};
  AcvRestoringDriver driver(env);
  app->mm_entry().BindDriver(*second, &driver);
  // Drop all rights so the first access raises an ACV.
  app->pdom().SetRights((*second)->sid(), kRightNone);
  bool ok = false;
  app->SpawnWorkload(app->vmem().AccessRange((*second)->base(), (*second)->length(),
                                             AccessType::kRead, &ok, nullptr),
                     "pass");
  system.sim().RunUntil(Seconds(1));
  EXPECT_TRUE(ok);
  EXPECT_EQ(driver.acvs(), 1);
  EXPECT_EQ(app->mm_entry().faults_fast_path(), 1u);
  EXPECT_EQ(app->mm_entry().faults_failed(), 0u);
}

// A domain that touches another domain's stretch holds no binding for its
// sid: the fault fails in the faulting domain and never reaches the owner.
TEST(MmEntryTest, FaultInUnboundStretchFails) {
  System system(SmallSystem());
  AppConfig cfg;
  cfg.contract = {2, 0};
  cfg.driver_max_frames = 2;
  cfg.stretch_bytes = 4 * kDefaultPageSize;
  cfg.swap_bytes = kMiB;
  cfg.name = "a";
  AppDomain* a = system.CreateApp(cfg);
  cfg.name = "b";
  AppDomain* b = system.CreateApp(cfg);
  const auto b_counters = [b] {
    return std::vector<uint64_t>{
        b->vmem().faults_taken(),      b->mm_entry().faults_fast_path(),
        b->mm_entry().faults_worker(), b->mm_entry().faults_failed(),
        b->paged_driver()->pageins(),  b->paged_driver()->pageouts(),
        b->paged_driver()->evictions()};
  };
  const std::vector<uint64_t> b_before = b_counters();
  const uint64_t a_failed = a->mm_entry().faults_failed();
  bool ok = true;
  a->SpawnWorkload(a->vmem().AccessRange(b->stretch()->base(), 1, AccessType::kRead, &ok, nullptr),
                   "trespass");
  system.sim().RunUntil(Seconds(1));
  EXPECT_FALSE(ok);
  EXPECT_EQ(a->mm_entry().faults_failed(), a_failed + 1);
  EXPECT_EQ(b_counters(), b_before);
}

TEST(MmEntryTest, FaultOutsideAnyStretchFails) {
  System system(SmallSystem());
  AppConfig cfg;
  cfg.name = "oob";
  cfg.contract = {2, 0};
  cfg.stretch_bytes = 2 * kDefaultPageSize;
  AppDomain* app = system.CreateApp(cfg);
  bool ok = true;
  struct Oob {
    static Task Run(AppDomain* app, bool* ok) {
      // An address far outside the stretch arena.
      TaskHandle h = app->SpawnWorkload(
          app->vmem().AccessRange(4 * kDefaultPageSize, 1, AccessType::kRead, ok, nullptr), "oob");
      co_await Join(h);
    }
  };
  app->SpawnWorkload(Oob::Run(app, &ok), "oob");
  system.sim().RunUntil(Seconds(1));
  EXPECT_FALSE(ok);
}

// The worker runs the driver's slow path itself: a demand fault that pages in
// from swap spawns no task of its own, so once the domain is warm the task
// registry stays the same size however many faults it takes.
TEST(MmEntryTest, DemandFaultsSpawnNoTasks) {
  System system(SmallSystem());
  AppConfig cfg;
  cfg.name = "paged";
  cfg.contract = {2, 0};
  cfg.driver_max_frames = 2;
  cfg.stretch_bytes = 8 * kDefaultPageSize;
  cfg.swap_bytes = kMiB;
  AppDomain* app = system.CreateApp(cfg);
  struct Probe {
    static Task Run(AppDomain* app, size_t* warm, size_t* after, bool* ok) {
      const VirtAddr base = app->stretch()->base();
      const size_t len = app->stretch()->length();
      bool pass_ok = false;
      co_await app->vmem().AccessRange(base, len, AccessType::kWrite, &pass_ok);
      *warm = app->system().sim().task_registry_size();
      co_await app->vmem().AccessRange(base, len, AccessType::kRead, ok);
      *after = app->system().sim().task_registry_size();
      *ok = *ok && pass_ok;
    }
  };
  size_t warm = 0;
  size_t after = 0;
  bool ok = false;
  app->SpawnWorkload(Probe::Run(app, &warm, &after, &ok), "probe");
  system.sim().RunUntil(Seconds(30));
  ASSERT_TRUE(ok);
  // Both passes fault on every page; the read pass pages each one back in.
  EXPECT_GE(app->mm_entry().faults_worker(), 16u);
  EXPECT_GE(app->paged_driver()->pageins(), 8u);
  EXPECT_GT(warm, 0u);
  EXPECT_EQ(after, warm);
}

// Killing a domain while its worker is suspended inside ResolveFault, waiting
// on a swap read, destroys the worker frame and the driver's slow-path frames
// with it. The disk reply that lands afterwards must find nothing dangling
// (run under ASan in CI).
TEST(MmEntryTest, KillDuringSwapReadTearsDownTheSlowPath) {
  System system(SmallSystem());
  AppConfig cfg;
  cfg.name = "victim";
  cfg.contract = {2, 0};
  cfg.driver_max_frames = 2;
  cfg.stretch_bytes = 8 * kDefaultPageSize;
  cfg.swap_bytes = kMiB;
  AppDomain* app = system.CreateApp(cfg);
  bool wrote = false;
  app->SpawnWorkload(SequentialPass(*app, AccessType::kWrite, &wrote), "write");
  system.sim().RunUntil(Seconds(30));
  ASSERT_TRUE(wrote);

  // Read everything back. Once a few pages are in, the resident frames are
  // clean and evictions write nothing, so an outstanding swap request is a
  // read the worker is waiting on.
  bool read = false;
  app->SpawnWorkload(SequentialPass(*app, AccessType::kRead, &read), "read");
  PagedStretchDriver* driver = app->paged_driver();
  UsdClient* swap = app->swap_client();
  ASSERT_NE(driver, nullptr);
  ASSERT_NE(swap, nullptr);
  bool in_read = false;
  while (system.sim().Step()) {
    if (driver->pageins() >= 3 && swap->free_slots() < swap->depth()) {
      in_read = true;
      break;
    }
  }
  ASSERT_TRUE(in_read);
  const uint64_t pageins = driver->pageins();

  app->Shutdown();
  system.sim().RunUntil(system.sim().Now() + Seconds(5));
  EXPECT_FALSE(read);
  EXPECT_EQ(driver->pageins(), pageins);  // the read's frame was never filled
  EXPECT_FALSE(system.frames().IsClient(app->id()));
}

TEST(StreamPaging, SequentialReadsHitStagedFrames) {
  System system(SmallSystem());
  AppConfig cfg;
  cfg.name = "stream";
  cfg.contract = {4, 0};
  cfg.driver_max_frames = 4;
  cfg.stretch_bytes = 32 * kDefaultPageSize;
  cfg.swap_bytes = kMiB;
  cfg.pipeline_depth = 1;  // stream paging: one staged page, no wider window
  cfg.readahead_max_cluster = 1;
  AppDomain* app = system.CreateApp(cfg);
  struct Passes {
    static Task Run(AppDomain* app, bool* ok) {
      bool w = false;
      TaskHandle h1 = app->SpawnWorkload(
          app->vmem().AccessRange(app->stretch()->base(), app->stretch()->length(),
                                  AccessType::kWrite, &w, nullptr),
          "w");
      co_await Join(h1);
      bool r = false;
      TaskHandle h2 = app->SpawnWorkload(
          app->vmem().AccessRange(app->stretch()->base(), app->stretch()->length(),
                                  AccessType::kRead, &r, nullptr),
          "r");
      co_await Join(h2);
      *ok = w && r;
    }
  };
  bool ok = false;
  app->SpawnWorkload(Passes::Run(app, &ok), "passes");
  system.sim().RunUntil(Seconds(60));
  EXPECT_TRUE(ok);
  PagedStretchDriver* driver = app->paged_driver();
  // The sequential read pass should be served mostly from staged frames.
  EXPECT_GT(driver->prefetch_issued(), 10u);
  EXPECT_GT(driver->prefetch_hits(), driver->prefetch_issued() / 2);
}

TEST(StreamPaging, DataIntegrityPreserved) {
  System system(SmallSystem());
  AppConfig cfg;
  cfg.name = "stream-verify";
  cfg.contract = {2, 0};
  cfg.driver_max_frames = 2;
  cfg.stretch_bytes = 16 * kDefaultPageSize;
  cfg.swap_bytes = kMiB;
  cfg.pipeline_depth = 1;  // stream paging: one staged page, no wider window
  cfg.readahead_max_cluster = 1;
  AppDomain* app = system.CreateApp(cfg);
  struct Verify {
    static Task Run(AppDomain* app, bool* ok) {
      const size_t len = app->stretch()->length();
      std::vector<uint8_t> pattern(len);
      for (size_t i = 0; i < len; ++i) {
        pattern[i] = static_cast<uint8_t>((i * 31 + 5) & 0xFF);
      }
      bool w = false;
      TaskHandle wh = app->SpawnWorkload(app->vmem().Write(app->stretch()->base(), pattern, &w),
                                       "w");
      co_await Join(wh);
      std::vector<uint8_t> readback(len);
      bool r = false;
      TaskHandle rh = app->SpawnWorkload(app->vmem().Read(app->stretch()->base(), readback, &r),
                                       "r");
      co_await Join(rh);
      *ok = w && r && readback == pattern;
    }
  };
  bool ok = false;
  app->SpawnWorkload(Verify::Run(app, &ok), "verify");
  system.sim().RunUntil(Seconds(60));
  EXPECT_TRUE(ok);
  EXPECT_GT(app->paged_driver()->prefetch_hits(), 0u);
}

TEST(StreamPaging, RandomAccessWastesArePruned) {
  // A backwards-striding reader defeats the next-page predictor: prefetches
  // are issued but wasted, and correctness is unaffected.
  System system(SmallSystem());
  AppConfig cfg;
  cfg.name = "stream-rand";
  cfg.contract = {2, 0};
  cfg.driver_max_frames = 2;
  cfg.stretch_bytes = 16 * kDefaultPageSize;
  cfg.swap_bytes = kMiB;
  cfg.pipeline_depth = 1;  // stream paging: one staged page, no wider window
  cfg.readahead_max_cluster = 1;
  AppDomain* app = system.CreateApp(cfg);
  struct Backwards {
    static Task Run(AppDomain* app, bool* ok) {
      // Prime forwards.
      bool w = false;
      TaskHandle wh = app->SpawnWorkload(
          app->vmem().AccessRange(app->stretch()->base(), app->stretch()->length(),
                                  AccessType::kWrite, &w, nullptr),
          "w");
      co_await Join(wh);
      // Read pages in reverse order.
      bool all_ok = w;
      for (size_t i = app->stretch()->page_count(); i > 0; --i) {
        bool r = false;
        TaskHandle rh = app->SpawnWorkload(
            app->vmem().AccessRange(app->stretch()->PageBase(i - 1), kDefaultPageSize,
                                    AccessType::kRead, &r, nullptr),
            "r");
        co_await Join(rh);
        all_ok = all_ok && r;
      }
      *ok = all_ok;
    }
  };
  bool ok = false;
  app->SpawnWorkload(Backwards::Run(app, &ok), "backwards");
  system.sim().RunUntil(Seconds(120));
  EXPECT_TRUE(ok);
}

TEST(Replacement, ClockKeepsHotPagesResident) {
  // Hot/cold workload over a small resident set: CLOCK must take fewer
  // page-ins than FIFO for the same access sequence.
  auto RunPolicy = [](PagedStretchDriver::Replacement policy) -> uint64_t {
    System system(SmallSystem());
    AppConfig cfg;
    cfg.name = "repl";
    cfg.contract = {4, 0};
    cfg.driver_max_frames = 4;
    cfg.stretch_bytes = 16 * kDefaultPageSize;
    cfg.swap_bytes = kMiB;
    cfg.replacement = policy;
    AppDomain* app = system.CreateApp(cfg);
    struct Workload {
      static Task Run(AppDomain* app, bool* done) {
        // Prime all pages.
        bool ok = false;
        TaskHandle p = app->SpawnWorkload(
            app->vmem().AccessRange(app->stretch()->base(), app->stretch()->length(),
                                    AccessType::kWrite, &ok, nullptr),
            "prime");
        co_await Join(p);
        // 3 hot pages (fit in 4 frames) + periodic cold scans.
        Random rng(5);
        for (int i = 0; i < 400; ++i) {
          const size_t page = (i % 8 != 0) ? rng.NextBelow(3) : 3 + rng.NextBelow(13);
          bool t_ok = false;
          TaskHandle h = app->SpawnWorkload(
              app->vmem().AccessRange(app->stretch()->PageBase(page), 64, AccessType::kRead,
                                      &t_ok, nullptr),
              "touch");
          co_await Join(h);
        }
        *done = ok;
      }
    };
    bool done = false;
    app->SpawnWorkload(Workload::Run(app, &done), "w");
    system.sim().RunUntil(Seconds(300));
    EXPECT_TRUE(done);
    return app->paged_driver()->pageins();
  };
  const uint64_t fifo = RunPolicy(PagedStretchDriver::Replacement::kFifo);
  const uint64_t clock = RunPolicy(PagedStretchDriver::Replacement::kClock);
  EXPECT_LT(clock, fifo);
}

TEST(Replacement, RandomPolicyIsDeterministicWithSeed) {
  auto RunSeeded = [](uint64_t seed) -> uint64_t {
    System system(SmallSystem());
    AppConfig cfg;
    cfg.name = "rand";
    cfg.contract = {2, 0};
    cfg.driver_max_frames = 2;
    cfg.stretch_bytes = 8 * kDefaultPageSize;
    cfg.swap_bytes = kMiB;
    cfg.replacement = PagedStretchDriver::Replacement::kRandom;
    AppDomain* app = system.CreateApp(cfg);
    bool ok = false;
    struct Two {
      static Task Run(AppDomain* app, bool* ok) {
        bool a = false;
        bool b = false;
        TaskHandle h1 = app->SpawnWorkload(
            app->vmem().AccessRange(app->stretch()->base(), app->stretch()->length(),
                                    AccessType::kWrite, &a, nullptr),
            "p1");
        co_await Join(h1);
        TaskHandle h2 = app->SpawnWorkload(
            app->vmem().AccessRange(app->stretch()->base(), app->stretch()->length(),
                                    AccessType::kRead, &b, nullptr),
            "p2");
        co_await Join(h2);
        *ok = a && b;
      }
    };
    app->SpawnWorkload(Two::Run(app, &ok), "w");
    system.sim().RunUntil(Seconds(120));
    EXPECT_TRUE(ok);
    (void)seed;
    return app->paged_driver()->pageins();
  };
  EXPECT_EQ(RunSeeded(1), RunSeeded(1));  // determinism of the whole system
}

TEST(MmEntryTest, TwoStretchesTwoDriversOneDomain) {
  // "it cycles through each stretch driver" — a domain may hold several
  // stretches, each bound to its own driver.
  System system(SmallSystem());
  AppConfig cfg;
  cfg.name = "two";
  cfg.contract = {6, 0};
  cfg.driver_max_frames = 2;
  cfg.stretch_bytes = 8 * kDefaultPageSize;
  cfg.swap_bytes = kMiB;
  AppDomain* app = system.CreateApp(cfg);
  // Add a second stretch bound to a physical driver.
  auto second = system.stretches().New(app->id(), &app->pdom(), 4 * kDefaultPageSize);
  ASSERT_TRUE(second.has_value());
  DriverEnv env{&system.sim(), &system.kernel(), &system.frames(), &system.phys(), app->id(),
                &app->pdom()};
  PhysicalStretchDriver phys_driver(env);
  app->mm_entry().BindDriver(*second, &phys_driver);

  struct Both {
    static Task Run(AppDomain* app, Stretch* second, bool* ok) {
      bool a = false;
      bool b = false;
      TaskHandle h1 = app->SpawnWorkload(
          app->vmem().AccessRange(app->stretch()->base(), app->stretch()->length(),
                                  AccessType::kWrite, &a, nullptr),
          "paged");
      co_await Join(h1);
      TaskHandle h2 = app->SpawnWorkload(
          app->vmem().AccessRange(second->base(), second->length(), AccessType::kWrite, &b,
                                  nullptr),
          "physical");
      co_await Join(h2);
      *ok = a && b;
    }
  };
  bool ok = false;
  app->SpawnWorkload(Both::Run(app, *second, &ok), "both");
  system.sim().RunUntil(Seconds(60));
  EXPECT_TRUE(ok);
  EXPECT_GT(phys_driver.slow_maps() + phys_driver.fast_maps(), 0u);
  EXPECT_GT(app->paged_driver()->pageouts(), 0u);
}

}  // namespace
}  // namespace nemesis
