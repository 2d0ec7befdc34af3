// Unit tests for the simulated hardware: physical memory, page tables, TLB,
// MMU fault taxonomy, and the disk mechanism/cache model.
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <deque>
#include <functional>
#include <numeric>
#include <span>
#include <vector>

#include "src/base/random.h"
#include "src/base/zeroed_array.h"
#include "src/hw/disk.h"
#include "src/hw/mmu.h"
#include "src/hw/page_table.h"
#include "src/hw/phys_mem.h"
#include "src/hw/pte.h"
#include "src/hw/tlb.h"

namespace nemesis {
namespace {

TEST(PhysMem, FrameDataIsolated) {
  PhysicalMemory mem(4, 1024);
  auto f0 = mem.FrameData(0);
  auto f1 = mem.FrameData(1);
  f0[0] = 0xAA;
  f1[0] = 0xBB;
  EXPECT_EQ(mem.FrameData(0)[0], 0xAA);
  EXPECT_EQ(mem.FrameData(1)[0], 0xBB);
  EXPECT_EQ(mem.ReadByte(0), 0xAA);
  EXPECT_EQ(mem.ReadByte(1024), 0xBB);
}

TEST(PhysMem, ZeroFrame) {
  PhysicalMemory mem(2, 64);
  auto f = mem.FrameData(1);
  std::fill(f.begin(), f.end(), 0xFF);
  mem.ZeroFrame(1);
  for (uint8_t b : mem.FrameData(1)) {
    EXPECT_EQ(b, 0);
  }
}

TEST(PhysMemDeathTest, MoreFramesThanAPteCanNameAbort) {
  EXPECT_DEATH(PhysicalMemory(kMaxFrames + 1, 1), "num_frames <= kMaxFrames");
}

// Every Pte field, widened, for field-by-field comparison (the padding bits
// of a Pte are indeterminate, so its bytes are not compared).
std::array<uint64_t, 9> Fields(const Pte& p) {
  return {p.pfn,   p.sid,        p.rights,         p.allocated,    p.valid,
          p.dirty, p.referenced, p.fault_on_write, p.fault_on_read};
}

TEST(PteLayout, IsTheAlphasEightByteEntry) { EXPECT_EQ(sizeof(Pte), 8u); }

TEST(PteLayout, ZeroedStorageHoldsDefaultEntries) {
  ZeroedArray<Pte> table(1 << 12);
  EXPECT_EQ(Fields(table[0]), Fields(Pte{}));
  EXPECT_EQ(Fields(table[(1 << 12) - 1]), Fields(Pte{}));
}

TEST(PteLayout, EachFieldIsIndependent) {
  // Setting one field to its widest value moves no other field.
  const std::array<std::function<void(Pte&)>, 9> set = {
      [](Pte& p) { p.pfn = kMaxFrames - 1; },  [](Pte& p) { p.sid = 0xFFFF; },
      [](Pte& p) { p.rights = kRightAll; },    [](Pte& p) { p.allocated = true; },
      [](Pte& p) { p.valid = true; },          [](Pte& p) { p.dirty = true; },
      [](Pte& p) { p.referenced = true; },     [](Pte& p) { p.fault_on_write = true; },
      [](Pte& p) { p.fault_on_read = true; },
  };
  const std::array<uint64_t, 9> widest = {kMaxFrames - 1, 0xFFFF, kRightAll, 1, 1, 1, 1, 1, 1};
  for (size_t i = 0; i < set.size(); ++i) {
    Pte p;
    set[i](p);
    auto want = Fields(Pte{});
    want[i] = widest[i];
    EXPECT_EQ(Fields(p), want) << "field " << i;
  }
}

class PageTableTest : public ::testing::Test {
 public:
  PageTableTest() : pt_(1 << 20) {}
  PageTable pt_;
};

TEST_F(PageTableTest, LookupOnEmptyReturnsNull) {
  EXPECT_EQ(pt_.Lookup(0), nullptr);
  EXPECT_EQ(pt_.Lookup(12345), nullptr);
}

TEST_F(PageTableTest, EnsureThenLookup) {
  Pte* pte = pt_.Ensure(77);
  ASSERT_NE(pte, nullptr);
  pte->valid = true;
  pte->pfn = 5;
  pte->sid = 3;
  Pte* again = pt_.Lookup(77);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->pfn, 5u);
  EXPECT_EQ(again->sid, 3);
  EXPECT_EQ(again, pte);
}

TEST_F(PageTableTest, RemoveClearsEntry) {
  Pte* pte = pt_.Ensure(100);
  pte->valid = true;
  pt_.Remove(100);
  EXPECT_EQ(pt_.Lookup(100), nullptr);
}

TEST_F(PageTableTest, RemoveIsIdempotentAndSweepSeesOnlyLiveEntries) {
  pt_.Remove(9);                  // never allocated
  pt_.Remove(pt_.max_vpn() + 1);  // out of range
  EXPECT_EQ(pt_.Lookup(9), nullptr);

  for (Vpn vpn : {700, 3, 40, 41}) {
    Pte* pte = pt_.Ensure(vpn);
    ASSERT_NE(pte, nullptr);
    pte->pfn = vpn + 1;
  }
  pt_.Remove(40);
  pt_.Remove(40);  // repeated remove
  EXPECT_EQ(pt_.Lookup(40), nullptr);
  EXPECT_NE(pt_.Lookup(41), nullptr);

  std::vector<Vpn> seen;
  pt_.ForEachAllocated([&](Vpn vpn, const Pte& pte) {
    EXPECT_TRUE(pte.allocated);
    EXPECT_EQ(pte.pfn, vpn + 1);
    seen.push_back(vpn);
  });
  EXPECT_EQ(seen, (std::vector<Vpn>{3, 41, 700}));

  // A removed entry comes back zeroed.
  Pte* again = pt_.Ensure(40);
  ASSERT_NE(again, nullptr);
  EXPECT_EQ(again->pfn, 0u);
  EXPECT_EQ(pt_.Lookup(40), again);
}

TEST_F(PageTableTest, OutOfRangeVpn) {
  EXPECT_EQ(pt_.Lookup(pt_.max_vpn() + 1), nullptr);
  EXPECT_EQ(pt_.Ensure(pt_.max_vpn() + 1), nullptr);
}

TEST_F(PageTableTest, ManyRandomEntries) {
  Random rng(42);
  std::vector<Vpn> vpns;
  for (int i = 0; i < 500; ++i) {
    const Vpn vpn = rng.NextBelow(1 << 20);
    Pte* pte = pt_.Ensure(vpn);
    ASSERT_NE(pte, nullptr);
    pte->valid = true;
    pte->pfn = vpn % 97;
    vpns.push_back(vpn);
  }
  for (Vpn vpn : vpns) {
    Pte* pte = pt_.Lookup(vpn);
    ASSERT_NE(pte, nullptr);
    EXPECT_EQ(pte->pfn, vpn % 97);
  }
}

TEST(TlbModel, HitAfterFill) {
  Tlb tlb(4);
  EXPECT_EQ(tlb.Lookup(10), nullptr);
  tlb.Fill(10, 3, kRightRead, 1);
  const Tlb::Entry* e = tlb.Lookup(10);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->pfn, 3u);
  EXPECT_EQ(tlb.hits(), 1u);
  EXPECT_EQ(tlb.misses(), 1u);
}

TEST(TlbModel, FifoEviction) {
  Tlb tlb(2);
  tlb.Fill(1, 1, kRightRead, 1);
  tlb.Fill(2, 2, kRightRead, 1);
  tlb.Fill(3, 3, kRightRead, 1);  // evicts vpn 1
  EXPECT_EQ(tlb.Lookup(1), nullptr);
  EXPECT_NE(tlb.Lookup(2), nullptr);
  EXPECT_NE(tlb.Lookup(3), nullptr);
}

TEST(TlbModel, InvalidateSingle) {
  Tlb tlb(4);
  tlb.Fill(5, 1, kRightRead, 1);
  tlb.Invalidate(5);
  EXPECT_EQ(tlb.Lookup(5), nullptr);
}

TEST(TlbModel, RefillSameVpnReplaces) {
  Tlb tlb(4);
  tlb.Fill(5, 1, kRightRead, 1);
  tlb.Fill(5, 9, kRightRead | kRightWrite, 1);
  const Tlb::Entry* e = tlb.Lookup(5);
  ASSERT_NE(e, nullptr);
  EXPECT_EQ(e->pfn, 9u);
}

TEST(TlbModel, DefaultGeometryIsFourWaySixteenSets) {
  Tlb tlb;
  EXPECT_EQ(tlb.capacity(), 64u);
  EXPECT_EQ(tlb.ways(), 4u);
  EXPECT_EQ(tlb.sets(), 16u);
}

TEST(TlbModel, EvictionIsConfinedToOneSet) {
  // VPNs congruent mod `sets` share a set; overfilling that set must never
  // disturb entries that live in other sets.
  Tlb tlb;  // 4 ways x 16 sets
  const size_t sets = tlb.sets();
  tlb.Fill(1, 100, kRightRead, 1);      // set 1, stays resident throughout
  for (Vpn i = 0; i < 8; ++i) {
    tlb.Fill(i * sets, i, kRightRead, 1);  // 8 VPNs all mapping to set 0
  }
  // Set 0 holds only the 4 most recent of its 8 fills...
  int set0_resident = 0;
  for (Vpn i = 0; i < 8; ++i) {
    if (tlb.Lookup(i * sets) != nullptr) {
      ++set0_resident;
    }
  }
  EXPECT_EQ(set0_resident, 4);
  // ...and the round-robin victim is always the oldest fill.
  for (Vpn i = 0; i < 4; ++i) {
    EXPECT_EQ(tlb.Lookup(i * sets), nullptr) << "vpn " << i * sets;
    EXPECT_NE(tlb.Lookup((i + 4) * sets), nullptr) << "vpn " << (i + 4) * sets;
  }
  // ...while set 1 was never touched.
  EXPECT_NE(tlb.Lookup(1), nullptr);
}

TEST(TlbModel, InvalidateOnlyTouchesItsOwnSet) {
  Tlb tlb;
  const size_t sets = tlb.sets();
  tlb.Fill(7, 1, kRightRead, 1);             // set 7
  tlb.Fill(7 + sets, 2, kRightRead, 1);      // set 7, different tag
  tlb.Fill(8, 3, kRightRead, 1);             // set 8
  tlb.Invalidate(7);
  EXPECT_EQ(tlb.Lookup(7), nullptr);
  EXPECT_NE(tlb.Lookup(7 + sets), nullptr);  // same set, different VPN: kept
  EXPECT_NE(tlb.Lookup(8), nullptr);         // other set: untouched
}

TEST(TlbModel, InvalidateAllFlushesEverySetAndCountsFlush) {
  Tlb tlb;
  for (Vpn v = 0; v < 64; ++v) {
    tlb.Fill(v, v, kRightRead, 1);
  }
  EXPECT_EQ(tlb.flushes(), 0u);
  tlb.InvalidateAll();
  EXPECT_EQ(tlb.flushes(), 1u);
  for (Vpn v = 0; v < 64; ++v) {
    EXPECT_EQ(tlb.Lookup(v), nullptr);
  }
}

TEST(TlbModel, OddCapacityDegradesGracefully) {
  // Capacities that don't split into ways*2^k sets fall back toward fewer
  // sets; the TLB must still hold `capacity` entries and stay correct.
  Tlb tlb(9, 4);
  EXPECT_EQ(tlb.capacity(), 9u);
  EXPECT_EQ(tlb.sets() * tlb.ways(), tlb.capacity());
  for (Vpn v = 0; v < 9; ++v) {
    tlb.Fill(v, v + 1, kRightRead, 1);
  }
  for (Vpn v = 0; v < 9; ++v) {
    const Tlb::Entry* e = tlb.Lookup(v);
    ASSERT_NE(e, nullptr) << "vpn " << v;
    EXPECT_EQ(e->pfn, v + 1);
  }
}

TEST(TlbModel, AgreesWithFifoReferenceOnSingleSetConfig) {
  // With one set, the set-associative TLB is a fully-associative FIFO of its
  // capacity; drive it and a deque model of that FIFO with the same trace.
  Tlb tlb(8, 8);
  std::deque<Vpn> fifo;
  uint64_t hits = 0;
  uint64_t misses = 0;
  uint32_t x = 12345;
  for (int i = 0; i < 2000; ++i) {
    x = x * 1103515245 + 12345;  // deterministic LCG
    const Vpn vpn = (x >> 16) & 15;
    const bool want_hit = std::find(fifo.begin(), fifo.end(), vpn) != fifo.end();
    const auto* e = tlb.Lookup(vpn);
    ASSERT_EQ(e != nullptr, want_hit) << "step " << i << " vpn " << vpn;
    if (want_hit) {
      ++hits;
    } else {
      ++misses;
      tlb.Fill(vpn, vpn + 1, kRightRead, 1);
      fifo.push_back(vpn);
      if (fifo.size() > 8) {
        fifo.pop_front();
      }
    }
  }
  EXPECT_EQ(tlb.hits(), hits);
  EXPECT_EQ(tlb.misses(), misses);
}

class MmuTest : public ::testing::Test {
 protected:
  MmuTest() : pt_(1024), mmu_(&pt_, kDefaultPageSize) {}

  Pte* MapPage(Vpn vpn, Pfn pfn, uint8_t rights, Sid sid = 1) {
    Pte* pte = pt_.Ensure(vpn);
    pte->valid = true;
    pte->pfn = pfn;
    pte->rights = rights;
    pte->sid = sid;
    return pte;
  }

  PageTable pt_;
  Mmu mmu_;
};

TEST_F(MmuTest, UnallocatedFault) {
  auto r = mmu_.Translate(0x4000, AccessType::kRead, nullptr);
  EXPECT_EQ(r.fault, FaultType::kFaultUnallocated);
}

TEST_F(MmuTest, NullMappingRaisesTnv) {
  Pte* pte = pt_.Ensure(2);
  pte->rights = kRightRead | kRightWrite;
  pte->sid = 7;
  auto r = mmu_.Translate(2 * kDefaultPageSize, AccessType::kRead, nullptr);
  EXPECT_EQ(r.fault, FaultType::kFaultTnv);
  EXPECT_EQ(r.sid, 7);
}

TEST_F(MmuTest, ValidMappingTranslates) {
  MapPage(3, 11, kRightRead | kRightWrite);
  auto r = mmu_.Translate(3 * kDefaultPageSize + 100, AccessType::kRead, nullptr);
  EXPECT_EQ(r.fault, FaultType::kNone);
  EXPECT_EQ(r.pa, 11 * kDefaultPageSize + 100);
}

TEST_F(MmuTest, ProtectionFault) {
  MapPage(3, 11, kRightRead);
  auto r = mmu_.Translate(3 * kDefaultPageSize, AccessType::kWrite, nullptr);
  EXPECT_EQ(r.fault, FaultType::kFaultAcv);
}

TEST_F(MmuTest, ExecuteRight) {
  MapPage(4, 12, kRightRead | kRightExecute);
  EXPECT_EQ(mmu_.Translate(4 * kDefaultPageSize, AccessType::kExecute, nullptr).fault,
            FaultType::kNone);
  MapPage(5, 13, kRightRead);
  EXPECT_EQ(mmu_.Translate(5 * kDefaultPageSize, AccessType::kExecute, nullptr).fault,
            FaultType::kFaultAcv);
}

TEST_F(MmuTest, DirtyAndReferencedTracked) {
  Pte* pte = MapPage(3, 11, kRightRead | kRightWrite);
  EXPECT_FALSE(pte->referenced);
  mmu_.Translate(3 * kDefaultPageSize, AccessType::kRead, nullptr);
  EXPECT_TRUE(pte->referenced);
  EXPECT_FALSE(pte->dirty);
  mmu_.Translate(3 * kDefaultPageSize, AccessType::kWrite, nullptr);
  EXPECT_TRUE(pte->dirty);
}

TEST_F(MmuTest, FowClearedOnWrite) {
  Pte* pte = MapPage(3, 11, kRightRead | kRightWrite);
  pte->fault_on_write = true;
  pte->dirty = false;
  mmu_.Translate(3 * kDefaultPageSize, AccessType::kWrite, nullptr);
  EXPECT_FALSE(pte->fault_on_write);
  EXPECT_TRUE(pte->dirty);
}

class TestResolver : public RightsResolver {
 public:
  std::optional<uint8_t> RightsFor(Sid sid) const override {
    if (sid == 1) {
      return rights_;
    }
    return std::nullopt;
  }
  void set_rights(uint8_t rights) { rights_ = rights; }

 private:
  uint8_t rights_ = kRightNone;
};

TEST_F(MmuTest, ResolverOverridesPteRights) {
  MapPage(3, 11, kRightRead | kRightWrite, /*sid=*/1);
  TestResolver resolver;
  resolver.set_rights(kRightNone);
  auto r = mmu_.Translate(3 * kDefaultPageSize, AccessType::kRead, &resolver);
  EXPECT_EQ(r.fault, FaultType::kFaultAcv);
  resolver.set_rights(kRightRead);
  r = mmu_.Translate(3 * kDefaultPageSize, AccessType::kRead, &resolver);
  EXPECT_EQ(r.fault, FaultType::kNone);
}

TEST_F(MmuTest, ResolverSwitchIsImmediateDespiteTlb) {
  // Protection-domain changes take effect without a TLB flush because
  // entries are tagged with the stretch id and rights are re-resolved.
  MapPage(3, 11, kRightRead, /*sid=*/1);
  TestResolver resolver;
  resolver.set_rights(kRightRead);
  EXPECT_EQ(mmu_.Translate(3 * kDefaultPageSize, AccessType::kRead, &resolver).fault,
            FaultType::kNone);
  resolver.set_rights(kRightNone);  // revoke via "protection domain"
  EXPECT_EQ(mmu_.Translate(3 * kDefaultPageSize, AccessType::kRead, &resolver).fault,
            FaultType::kFaultAcv);
}

TEST_F(MmuTest, StaleTlbEntryDetected) {
  MapPage(3, 11, kRightRead);
  mmu_.Translate(3 * kDefaultPageSize, AccessType::kRead, nullptr);  // fills TLB
  // Remap the page to a different frame without touching the MMU.
  Pte* pte = pt_.Lookup(3);
  pte->pfn = 20;
  auto r = mmu_.Translate(3 * kDefaultPageSize, AccessType::kRead, nullptr);
  EXPECT_EQ(r.fault, FaultType::kNone);
  EXPECT_EQ(r.pa, 20 * kDefaultPageSize);
}

TEST_F(MmuTest, ProbeHasNoSideEffects) {
  Pte* pte = MapPage(3, 11, kRightRead | kRightWrite);
  auto r = mmu_.Probe(3 * kDefaultPageSize, AccessType::kWrite, nullptr);
  EXPECT_EQ(r.fault, FaultType::kNone);
  EXPECT_FALSE(pte->dirty);
  EXPECT_FALSE(pte->referenced);
}

TEST(DiskModel, GeometryDerivedQuantities) {
  DiskGeometry g;
  EXPECT_EQ(g.total_blocks, 4304536u);
  EXPECT_EQ(g.revolution_time(), Seconds(60) / 5400);
  EXPECT_GT(g.cylinders(), 1000u);
}

TEST(DiskModel, DataRoundTrip) {
  Disk disk;
  std::vector<uint8_t> in(1024);
  std::iota(in.begin(), in.end(), 0);
  disk.WriteData(1000, in);
  EXPECT_EQ(disk.ReadData(1000, 2), in);
}

TEST(DiskModel, UnwrittenBlocksReadZero) {
  Disk disk;
  const std::vector<uint8_t> out = disk.ReadData(99, 1);
  ASSERT_EQ(out.size(), 512u);
  for (uint8_t b : out) {
    EXPECT_EQ(b, 0);
  }
}

// Blocks 120-135 straddle the 64 KiB boundary, so the transfer spans host
// pages of the store.
TEST(DiskModel, RoundTripAcrossChunkBoundary) {
  Disk disk;
  std::vector<uint8_t> in(16 * 512);
  for (size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<uint8_t>(i * 31 + 7);
  }
  disk.WriteData(120, in);
  EXPECT_EQ(disk.ReadData(120, 16), in);
  // Each half reads back on its own, too.
  const std::vector<uint8_t> tail = disk.ReadData(128, 8);
  EXPECT_TRUE(std::equal(tail.begin(), tail.end(), in.begin() + 8 * 512));
}

TEST(DiskModel, UnwrittenBlockInWrittenChunkReadsZero) {
  Disk disk;
  std::vector<uint8_t> in(512, 0xAB);
  disk.WriteData(10, in);
  // Blocks 9 (unwritten), 10 (written), 11 (unwritten).
  const std::vector<uint8_t> out = disk.ReadData(9, 3);
  ASSERT_EQ(out.size(), 3u * 512);
  for (size_t i = 0; i < out.size(); ++i) {
    const uint8_t expected = (i >= 512 && i < 1024) ? 0xAB : 0;
    ASSERT_EQ(out[i], expected) << "byte " << i;
  }
}

TEST(DiskModel, ReadSpanningWrittenAndUnwrittenChunks) {
  Disk disk;
  std::vector<uint8_t> in(4 * 512, 0x5A);
  disk.WriteData(124, in);  // the four blocks below the 64 KiB boundary
  // Blocks 124-131: the written four, then four never written.
  const std::vector<uint8_t> out = disk.ReadData(124, 8);
  ASSERT_EQ(out.size(), 8u * 512);
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], i < 4 * 512 ? 0x5A : 0) << "byte " << i;
  }
  // A read far beyond every written block is all zeros as well.
  const std::vector<uint8_t> far = disk.ReadData(4000000, 1);
  EXPECT_TRUE(std::all_of(far.begin(), far.end(), [](uint8_t b) { return b == 0; }));
}

TEST(DiskModel, OverwriteReplacesOnlyTheWrittenBlocks) {
  Disk disk;
  std::vector<uint8_t> first(4 * 512, 0x11);
  disk.WriteData(126, first);  // 126-129, across the 64 KiB boundary
  std::vector<uint8_t> second(2 * 512, 0x22);
  disk.WriteData(127, second);  // 127-128
  const std::vector<uint8_t> out = disk.ReadData(126, 4);
  ASSERT_EQ(out.size(), 4u * 512);
  for (size_t i = 0; i < out.size(); ++i) {
    const uint8_t expected = (i >= 512 && i < 3 * 512) ? 0x22 : 0x11;
    ASSERT_EQ(out[i], expected) << "byte " << i;
  }
}

// ReadInto is the USD's completion-time transfer: it fills a caller-owned
// buffer in place, here one straddling the 64 KiB boundary.
TEST(DiskModel, ReadIntoAcrossChunkBoundary) {
  Disk disk;
  std::vector<uint8_t> in(16 * 512);
  for (size_t i = 0; i < in.size(); ++i) {
    in[i] = static_cast<uint8_t>(i * 13 + 5);
  }
  disk.WriteData(120, in);
  std::vector<uint8_t> out(16 * 512, 0xEE);
  disk.ReadInto(120, out);
  EXPECT_EQ(out, in);
  // A sub-span lands exactly where it is pointed and nowhere else.
  std::vector<uint8_t> framed(6 * 512, 0xEE);
  disk.ReadInto(126, std::span<uint8_t>(framed).subspan(512, 4 * 512));
  for (size_t i = 0; i < framed.size(); ++i) {
    const bool inside = i >= 512 && i < 5 * 512;
    ASSERT_EQ(framed[i], inside ? in[6 * 512 + (i - 512)] : 0xEE) << "byte " << i;
  }
}

// Blocks never written read as zeros through ReadInto too: stale bytes in the
// destination buffer are overwritten, next to a written block and far from one.
TEST(DiskModel, ReadIntoUnwrittenBlocksZeroTheBuffer) {
  Disk disk;
  std::vector<uint8_t> in(512, 0xAB);
  disk.WriteData(127, in);
  std::vector<uint8_t> out(4 * 512, 0xEE);
  disk.ReadInto(126, out);  // 126 unwritten, 127 written, 128-129 unwritten
  for (size_t i = 0; i < out.size(); ++i) {
    ASSERT_EQ(out[i], (i >= 512 && i < 1024) ? 0xAB : 0) << "byte " << i;
  }
  std::vector<uint8_t> far(512, 0xEE);
  disk.ReadInto(4000000, far);
  EXPECT_TRUE(std::all_of(far.begin(), far.end(), [](uint8_t b) { return b == 0; }));
}

TEST(DiskDeathTest, TransferOutsideTheDiskOrPartialBlockAborts) {
  Disk disk;
  const uint64_t end = disk.geometry().total_blocks;
  std::vector<uint8_t> two(2 * 512);
  EXPECT_DEATH(disk.WriteData(end - 1, two), "out of range");
  EXPECT_DEATH(disk.ReadInto(end, std::span<uint8_t>(two).first(512)), "out of range");
  EXPECT_DEATH(disk.WriteData(0, std::span<uint8_t>(two).first(100)), "whole blocks");
}

TEST(DiskModel, ScatteredAccessCostsSeekAndRotation) {
  Disk disk;
  // Two reads far apart: the second pays a long seek.
  SimDuration t1 = disk.Access(DiskRequest{0, 16, false}, 0);
  SimDuration t2 = disk.Access(DiskRequest{4000000, 16, false}, t1);
  EXPECT_GT(t2, FromMilliseconds(5.0));
  EXPECT_LT(t2, FromMilliseconds(40.0));
}

TEST(DiskModel, SequentialReadsHitCache) {
  Disk disk;
  SimTime now = 0;
  SimDuration first = disk.Access(DiskRequest{1000, 16, false}, now);
  now += first;
  // The next sequential 8 KiB falls inside the read-ahead window.
  EXPECT_TRUE(disk.WouldHitCache(DiskRequest{1016, 16, false}));
  SimDuration second = disk.Access(DiskRequest{1016, 16, false}, now);
  EXPECT_LT(second, first);
  EXPECT_LT(second, FromMilliseconds(2.5));
  EXPECT_EQ(disk.stats().cache_hits, 1u);
}

TEST(DiskModel, WritesNeverHitCache) {
  Disk disk;
  SimTime now = 0;
  now += disk.Access(DiskRequest{1000, 16, false}, now);  // populates cache
  SimDuration w = disk.Access(DiskRequest{1000, 16, true}, now);
  EXPECT_GT(w, FromMilliseconds(2.5));
  EXPECT_EQ(disk.stats().writes, 1u);
  EXPECT_EQ(disk.stats().cache_hits, 0u);
}

TEST(DiskModel, WriteInvalidatesOverlappingCache) {
  Disk disk;
  SimTime now = 0;
  now += disk.Access(DiskRequest{1000, 16, false}, now);
  EXPECT_TRUE(disk.WouldHitCache(DiskRequest{1016, 16, false}));
  now += disk.Access(DiskRequest{1016, 16, true}, now);
  EXPECT_FALSE(disk.WouldHitCache(DiskRequest{1016, 16, false}));
}

TEST(DiskModel, ScatteredWritesTakeAboutTenMilliseconds) {
  // The paper's Figure 8 discussion: paging-out transactions, separated in
  // time and space, each take on the order of 10 ms.
  Disk disk;
  Random rng(1);
  SimTime now = 0;
  SimDuration total = 0;
  const int kWrites = 50;
  for (int i = 0; i < kWrites; ++i) {
    const uint64_t lba = rng.NextBelow(4000000);
    const SimDuration t = disk.Access(DiskRequest{lba, 16, true}, now);
    now += t + Milliseconds(2);
    total += t;
  }
  const double avg_ms = ToMilliseconds(total) / kWrites;
  EXPECT_GT(avg_ms, 6.0);
  EXPECT_LT(avg_ms, 25.0);
}

TEST(DiskModel, BusyTimeAccumulates) {
  Disk disk;
  SimDuration t = disk.Access(DiskRequest{0, 16, false}, 0);
  EXPECT_EQ(disk.stats().busy_time, t);
  EXPECT_EQ(disk.stats().blocks_transferred, 16u);
}

TEST(DiskModel, OutOfRangeAccessAsserts) {
  Disk disk;
  EXPECT_DEATH(disk.Access(DiskRequest{4304536, 1, false}, 0), "out of range");
}

TEST(DiskModel, SingleSegmentChainMatchesAccess) {
  // A one-request chain is exactly a plain Access: same cost, same stats.
  for (const bool is_write : {false, true}) {
    Disk a;
    Disk b;
    const std::vector<DiskRequest> reqs{{123456, 16, is_write}};
    const SimDuration t_plain = a.Access(reqs[0], Milliseconds(3));
    DiskChainEval ev;
    const SimDuration t_chain = b.AccessChain(reqs, Milliseconds(3), ev);
    EXPECT_EQ(t_plain, t_chain);
    ASSERT_EQ(ev.per_request.size(), 1u);
    EXPECT_EQ(ev.per_request[0], t_chain);
    EXPECT_EQ(a.stats().seeks, b.stats().seeks);
    EXPECT_EQ(a.stats().busy_time, b.stats().busy_time);
    EXPECT_EQ(a.stats().blocks_transferred, b.stats().blocks_transferred);
  }
}

TEST(DiskModel, ChainedSequentialWritesStreamAtMediaRate) {
  // Eight sequential 8 KiB writes: issued separately, each pays the command
  // overhead and (usually) a missed revolution; chained, the tail segments
  // stream at the media rate. This is the mechanism behind the USD batching
  // win.
  Disk separate;
  SimTime now = 0;
  SimDuration separate_total = 0;
  std::vector<DiskRequest> reqs;
  for (int i = 0; i < 8; ++i) {
    reqs.push_back(DiskRequest{1000 + static_cast<uint64_t>(i) * 16, 16, true});
  }
  for (const auto& r : reqs) {
    const SimDuration t = separate.Access(r, now);
    now += t;
    separate_total += t;
  }
  Disk chained;
  DiskChainEval ev;
  const SimDuration chain_total = chained.AccessChain(reqs, 0, ev);
  EXPECT_LT(chain_total, separate_total / 2);
  // The per-request decomposition accounts for the whole chain.
  SimDuration sum = 0;
  for (const SimDuration t : ev.per_request) {
    sum += t;
  }
  EXPECT_EQ(sum, chain_total);
  EXPECT_EQ(chained.stats().busy_time, chain_total);
  EXPECT_EQ(chained.stats().blocks_transferred, 8u * 16u);
}

TEST(DiskModel, ChainedNonContiguousSeeksWithoutCommandOverhead) {
  // Two far-apart reads. The chain's first segment costs exactly what a plain
  // Access does, so both scenarios reach the second request at the same
  // absolute time and head position; the chained continuation then skips the
  // per-command overhead (though a rotation wait may absorb some of it, it
  // can never come out slower).
  const std::vector<DiskRequest> reqs{{0, 16, false}, {4000000, 16, false}};
  Disk chained;
  DiskChainEval ev;
  const SimDuration chain_total = chained.AccessChain(reqs, 0, ev);
  ASSERT_EQ(ev.per_request.size(), 2u);
  Disk separate;
  const SimDuration first = separate.Access(reqs[0], 0);
  EXPECT_EQ(ev.per_request[0], first);
  const SimDuration second = separate.Access(reqs[1], first);
  EXPECT_LE(ev.per_request[1], second);
  EXPECT_EQ(chain_total, ev.per_request[0] + ev.per_request[1]);
  EXPECT_GT(ev.seeks, 0u);
}

TEST(DiskModel, ChainPrefixCostsMatchTruncatedChains) {
  // The USD's slice-budget cutoff assumes a prefix sum of per-request chain
  // costs equals the true cost of the truncated chain. Verify against mixed
  // contiguous / gapped segments.
  const std::vector<DiskRequest> reqs{
      {2000, 16, true}, {2016, 16, true}, {2400, 16, true}, {2416, 16, true}};
  Disk probe;
  DiskChainEval full;
  probe.CostChain(reqs, Milliseconds(1), full);
  ASSERT_EQ(full.per_request.size(), reqs.size());
  SimDuration prefix = 0;
  for (size_t k = 1; k <= reqs.size(); ++k) {
    prefix += full.per_request[k - 1];
    DiskChainEval truncated;
    Disk fresh;
    fresh.CostChain(std::span<const DiskRequest>(reqs.data(), k), Milliseconds(1), truncated);
    EXPECT_EQ(truncated.total, prefix) << "prefix length " << k;
  }
}

}  // namespace
}  // namespace nemesis
