// Unit tests for src/base: bitmap, intrusive list, expected, random,
// small_function, zeroed_array.
#include <gtest/gtest.h>
#include <sys/mman.h>
#include <unistd.h>

#include <algorithm>
#include <array>
#include <memory>
#include <set>
#include <utility>
#include <vector>

#include "src/base/assert.h"
#include "src/base/bitmap.h"
#include "src/base/expected.h"
#include "src/base/intrusive_list.h"
#include "src/base/random.h"
#include "src/base/small_function.h"
#include "src/base/units.h"
#include "src/base/zeroed_array.h"

namespace nemesis {
namespace {

TEST(Assert, ComparisonAssertsPassOnTrueCondition) {
  int calls = 0;
  auto once = [&calls] { return ++calls; };
  NEM_ASSERT_EQ(once(), 1);  // operands evaluated exactly once
  EXPECT_EQ(calls, 1);
  NEM_ASSERT_NE(3, 4);
  NEM_ASSERT_LT(3u, 4u);
  NEM_ASSERT_LE(4u, 4u);
}

TEST(Assert, EqFailurePrintsBothOperands) {
  const uint64_t pfn = 2049;
  const uint64_t limit = 2048;
  EXPECT_DEATH(NEM_ASSERT_EQ(pfn, limit), "lhs=2049 rhs=2048");
}

TEST(Assert, LtFailurePrintsExpressionText) {
  const size_t index = 7;
  const size_t size = 4;
  EXPECT_DEATH(NEM_ASSERT_LT(index, size), "index < size");
}

TEST(Assert, NeFailurePrintsValues) {
  const int sid = 0;
  EXPECT_DEATH(NEM_ASSERT_NE(sid, 0), "lhs=0 rhs=0");
}

TEST(Assert, ValueStringRendersCommonKinds) {
  EXPECT_EQ(detail::AssertValueString(true), "true");
  EXPECT_EQ(detail::AssertValueString(42), "42");
  enum class E { kA = 3 };
  EXPECT_EQ(detail::AssertValueString(E::kA), "3");
  struct Opaque {} opaque;
  EXPECT_EQ(detail::AssertValueString(opaque), "<?>");
}

TEST(Bitmap, StartsClear) {
  Bitmap bm(130);
  EXPECT_EQ(bm.size(), 130u);
  EXPECT_EQ(bm.count_set(), 0u);
  for (size_t i = 0; i < 130; ++i) {
    EXPECT_FALSE(bm.Test(i));
  }
}

TEST(Bitmap, SetClearRoundTrip) {
  Bitmap bm(100);
  bm.Set(0);
  bm.Set(63);
  bm.Set(64);
  bm.Set(99);
  EXPECT_TRUE(bm.Test(0));
  EXPECT_TRUE(bm.Test(63));
  EXPECT_TRUE(bm.Test(64));
  EXPECT_TRUE(bm.Test(99));
  EXPECT_EQ(bm.count_set(), 4u);
  bm.Clear(63);
  EXPECT_FALSE(bm.Test(63));
  EXPECT_EQ(bm.count_set(), 3u);
}

TEST(Bitmap, SetIsIdempotentForCount) {
  Bitmap bm(10);
  bm.Set(3);
  bm.Set(3);
  EXPECT_EQ(bm.count_set(), 1u);
  bm.Clear(3);
  bm.Clear(3);
  EXPECT_EQ(bm.count_set(), 0u);
}

TEST(Bitmap, FindFirstClearSkipsSetPrefix) {
  Bitmap bm(200);
  bm.SetRange(0, 130);
  auto idx = bm.FindFirstClear();
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(*idx, 130u);
}

TEST(Bitmap, FindFirstClearHonoursFrom) {
  Bitmap bm(200);
  auto idx = bm.FindFirstClear(150);
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(*idx, 150u);
}

TEST(Bitmap, FindFirstClearFullBitmap) {
  Bitmap bm(64);
  bm.SetRange(0, 64);
  EXPECT_FALSE(bm.FindFirstClear().has_value());
}

TEST(Bitmap, FindClearRunAcrossWordBoundary) {
  Bitmap bm(256);
  bm.SetRange(0, 60);
  bm.SetRange(70, 100);
  // Clear gap is [60, 70): a run of 10 starting at 60.
  auto idx = bm.FindClearRun(10);
  ASSERT_TRUE(idx.has_value());
  EXPECT_EQ(*idx, 60u);
  // A run of 11 must skip the gap and land after 170.
  auto idx11 = bm.FindClearRun(11);
  ASSERT_TRUE(idx11.has_value());
  EXPECT_EQ(*idx11, 170u);
}

TEST(Bitmap, FindClearRunNoSpace) {
  Bitmap bm(32);
  bm.SetRange(0, 30);
  EXPECT_FALSE(bm.FindClearRun(3).has_value());
  EXPECT_TRUE(bm.FindClearRun(2).has_value());
}

TEST(Bitmap, RangeClearQueries) {
  Bitmap bm(100);
  bm.SetRange(40, 5);
  EXPECT_TRUE(bm.RangeClear(0, 40));
  EXPECT_FALSE(bm.RangeClear(38, 5));
  EXPECT_TRUE(bm.RangeClear(45, 55));
}

struct ListItem {
  explicit ListItem(int v) : value(v) {}
  int value;
  IntrusiveListNode node;
};

using ItemList = IntrusiveList<ListItem, &ListItem::node>;

TEST(IntrusiveList, PushPopFifo) {
  ItemList list;
  ListItem a(1), b(2), c(3);
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushBack(&c);
  EXPECT_EQ(list.size(), 3u);
  EXPECT_EQ(list.PopFront()->value, 1);
  EXPECT_EQ(list.PopFront()->value, 2);
  EXPECT_EQ(list.PopFront()->value, 3);
  EXPECT_TRUE(list.empty());
}

TEST(IntrusiveList, PushFrontPopBack) {
  ItemList list;
  ListItem a(1), b(2);
  list.PushFront(&a);
  list.PushFront(&b);
  EXPECT_EQ(list.PopBack()->value, 1);
  EXPECT_EQ(list.PopBack()->value, 2);
}

TEST(IntrusiveList, RemoveFromMiddle) {
  ItemList list;
  ListItem a(1), b(2), c(3);
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushBack(&c);
  list.Remove(&b);
  EXPECT_EQ(list.size(), 2u);
  EXPECT_FALSE(b.node.InContainer());
  EXPECT_EQ(list.PopFront()->value, 1);
  EXPECT_EQ(list.PopFront()->value, 3);
}

TEST(IntrusiveList, ContainsAndReinsert) {
  ItemList list;
  ListItem a(1);
  EXPECT_FALSE(list.Contains(&a));
  list.PushBack(&a);
  EXPECT_TRUE(list.Contains(&a));
  list.Remove(&a);
  list.PushBack(&a);
  EXPECT_TRUE(list.Contains(&a));
}

TEST(IntrusiveList, Iteration) {
  ItemList list;
  ListItem a(1), b(2), c(3);
  list.PushBack(&a);
  list.PushBack(&b);
  list.PushBack(&c);
  std::vector<int> seen;
  for (ListItem* item : list) {
    seen.push_back(item->value);
  }
  EXPECT_EQ(seen, (std::vector<int>{1, 2, 3}));
  list.Clear();
  EXPECT_TRUE(list.empty());
  EXPECT_FALSE(a.node.InContainer());
}

TEST(Expected, HoldsValue) {
  Expected<int, std::string> e(42);
  ASSERT_TRUE(e.has_value());
  EXPECT_EQ(*e, 42);
  EXPECT_EQ(e.value_or(7), 42);
}

TEST(Expected, HoldsError) {
  Expected<int, std::string> e = MakeUnexpected(std::string("nope"));
  EXPECT_FALSE(e.has_value());
  EXPECT_EQ(e.error(), "nope");
  EXPECT_EQ(e.value_or(7), 7);
}

TEST(Expected, SameValueAndErrorTypes) {
  Expected<int, int> ok(1);
  Expected<int, int> err = MakeUnexpected(2);
  EXPECT_TRUE(ok.has_value());
  EXPECT_FALSE(err.has_value());
  EXPECT_EQ(err.error(), 2);
}

TEST(StatusType, OkAndError) {
  Status<int> ok;
  EXPECT_TRUE(ok.ok());
  Status<int> bad = MakeUnexpected(5);
  EXPECT_FALSE(bad.ok());
  EXPECT_EQ(bad.error(), 5);
}

TEST(RandomGen, Deterministic) {
  Random a(123), b(123);
  for (int i = 0; i < 100; ++i) {
    EXPECT_EQ(a.Next(), b.Next());
  }
}

TEST(RandomGen, DifferentSeedsDiffer) {
  Random a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) {
    if (a.Next() == b.Next()) {
      ++same;
    }
  }
  EXPECT_LT(same, 2);
}

TEST(RandomGen, NextBelowInRange) {
  Random r(7);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_LT(r.NextBelow(17), 17u);
  }
}

TEST(RandomGen, NextBelowCoversRange) {
  Random r(7);
  std::set<uint64_t> seen;
  for (int i = 0; i < 200; ++i) {
    seen.insert(r.NextBelow(8));
  }
  EXPECT_EQ(seen.size(), 8u);
}

TEST(RandomGen, NextDoubleUnitInterval) {
  Random r(99);
  for (int i = 0; i < 1000; ++i) {
    const double d = r.NextDouble();
    EXPECT_GE(d, 0.0);
    EXPECT_LT(d, 1.0);
  }
}

TEST(Units, Alignment) {
  EXPECT_EQ(AlignDown(8191, kDefaultPageSize), 0u);
  EXPECT_EQ(AlignUp(8191, kDefaultPageSize), kDefaultPageSize);
  EXPECT_EQ(AlignUp(8192, kDefaultPageSize), kDefaultPageSize);
  EXPECT_TRUE(IsAligned(16384, kDefaultPageSize));
  EXPECT_FALSE(IsAligned(16385, kDefaultPageSize));
}

TEST(SmallFunction, EmptyAndAssignedStates) {
  SmallFunction<int()> fn;
  EXPECT_FALSE(fn);
  fn = [] { return 42; };
  ASSERT_TRUE(fn);
  EXPECT_EQ(fn(), 42);
  fn.Reset();
  EXPECT_FALSE(fn);
}

TEST(SmallFunction, PassesArgumentsAndReturnsValues) {
  SmallFunction<int(int, int)> add = [](int a, int b) { return a + b; };
  EXPECT_EQ(add(2, 3), 5);
  int side = 0;
  SmallFunction<void(int)> bump = [&side](int d) { side += d; };
  bump(7);
  bump(3);
  EXPECT_EQ(side, 10);
}

TEST(SmallFunction, MoveTransfersOwnership) {
  int calls = 0;
  SmallFunction<void()> a = [&calls] { ++calls; };
  SmallFunction<void()> b = std::move(a);
  EXPECT_FALSE(a);  // NOLINT(bugprone-use-after-move): testing moved-from state
  ASSERT_TRUE(b);
  b();
  EXPECT_EQ(calls, 1);
  SmallFunction<void()> c;
  c = std::move(b);
  c();
  EXPECT_EQ(calls, 2);
}

TEST(SmallFunction, DestroysCapturesExactlyOnce) {
  auto token = std::make_shared<int>(5);
  std::weak_ptr<int> watch = token;
  {
    SmallFunction<int()> fn = [token] { return *token; };
    token.reset();
    EXPECT_FALSE(watch.expired());  // capture keeps it alive
    EXPECT_EQ(fn(), 5);
    SmallFunction<int()> moved = std::move(fn);
    EXPECT_FALSE(watch.expired());  // move must not destroy the capture
    EXPECT_EQ(moved(), 5);
  }
  EXPECT_TRUE(watch.expired());  // destructor released it
}

TEST(SmallFunction, LargeCaptureFallsBackToHeapCorrectly) {
  // 128 bytes of captured state: over the 48-byte inline budget, so this
  // exercises the boxed heap path end to end (invoke, move, destroy).
  std::array<uint64_t, 16> big;
  for (size_t i = 0; i < big.size(); ++i) {
    big[i] = i * 3 + 1;
  }
  auto token = std::make_shared<int>(0);
  std::weak_ptr<int> watch = token;
  {
    SmallFunction<uint64_t()> fn = [big, token] {
      uint64_t sum = 0;
      for (uint64_t v : big) {
        sum += v;
      }
      return sum;
    };
    token.reset();
    const uint64_t expect = 16 * 0 + 3 * (15 * 16 / 2) + 16;  // sum of 3i+1
    EXPECT_EQ(fn(), expect);
    SmallFunction<uint64_t()> moved = std::move(fn);
    EXPECT_FALSE(fn);  // NOLINT(bugprone-use-after-move)
    EXPECT_EQ(moved(), expect);
    EXPECT_FALSE(watch.expired());
  }
  EXPECT_TRUE(watch.expired());
}

TEST(SmallFunction, ReassignmentDestroysPreviousCallable) {
  auto first = std::make_shared<int>(1);
  std::weak_ptr<int> watch = first;
  SmallFunction<void()> fn = [first] {};
  first.reset();
  EXPECT_FALSE(watch.expired());
  fn = [] {};  // overwriting must release the old capture
  EXPECT_TRUE(watch.expired());
  fn();
}

// Host pages of [p, p + bytes) resident in memory, by mincore(2).
size_t ResidentPages(const void* p, size_t bytes) {
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  std::vector<unsigned char> vec((bytes + page - 1) / page);
  EXPECT_EQ(mincore(const_cast<void*>(p), bytes, vec.data()), 0);
  return static_cast<size_t>(std::count_if(vec.begin(), vec.end(),
                                           [](unsigned char v) { return (v & 1) != 0; }));
}

TEST(ZeroedArray, BacksOnlyTouchedPagesAndReadsZero) {
  constexpr size_t kBytes = 64 * kMiB;
  ZeroedArray<uint8_t> a(kBytes);
  ASSERT_EQ(a.size(), kBytes);
  EXPECT_EQ(ResidentPages(a.data(), kBytes), 0u);
  a[kBytes / 2 + 5] = 0x7E;
  // One write backs one host page, or one huge page under THP "always".
  const size_t page = static_cast<size_t>(sysconf(_SC_PAGESIZE));
  EXPECT_LE(ResidentPages(a.data(), kBytes) * page, 2 * kMiB);
  EXPECT_EQ(a[kBytes / 2 + 5], 0x7E);
  EXPECT_EQ(static_cast<size_t>(std::count(a.data(), a.data() + kBytes, uint8_t{0})),
            kBytes - 1);
}

TEST(ZeroedArray, MoveTransfersTheMapping) {
  ZeroedArray<uint64_t> a(1000);
  a[999] = 42;
  const uint64_t* storage = a.data();
  ZeroedArray<uint64_t> b(std::move(a));
  EXPECT_EQ(a.size(), 0u);  // NOLINT(bugprone-use-after-move): moved-from state is specified
  EXPECT_EQ(a.data(), nullptr);
  EXPECT_EQ(b.data(), storage);
  EXPECT_EQ(b[999], 42u);

  ZeroedArray<uint64_t> c(10);
  c = std::move(b);
  EXPECT_EQ(c.size(), 1000u);
  EXPECT_EQ(c[999], 42u);
  // a (moved from), b (holding c's old mapping) and c all unmap safely.
}

TEST(ZeroedArray, SizeZeroMapsNothing) {
  ZeroedArray<uint32_t> empty(0);
  EXPECT_EQ(empty.size(), 0u);
  EXPECT_EQ(empty.data(), nullptr);
  const ZeroedArray<uint32_t> defaulted;
  EXPECT_EQ(defaulted.data(), nullptr);
}

}  // namespace
}  // namespace nemesis
