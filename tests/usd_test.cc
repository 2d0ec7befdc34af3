// Integration tests for the User-Safe Disk and the swap filesystem: QoS
// admission, extent safety, proportional sharing, laxity behaviour, and the
// data path (real bytes through the IO channel to the disk store).
#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <string>
#include <vector>

#include "src/base/random.h"
#include "src/base/units.h"
#include "src/hw/disk.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/trace.h"
#include "src/usd/io_channel.h"
#include "src/usd/sfs.h"
#include "src/usd/usd.h"

namespace nemesis {
namespace {

QosSpec Spec(int64_t period_ms, int64_t slice_ms, int64_t laxity_ms = 0, bool extra = false) {
  return QosSpec{Milliseconds(period_ms), Milliseconds(slice_ms), extra, Milliseconds(laxity_ms)};
}

class UsdTest : public ::testing::Test {
 protected:
  UsdTest() : usd_(sim_, disk_, &trace_) { usd_.Start(); }

  Simulator sim_;
  Disk disk_;
  TraceRecorder trace_;
  Usd usd_;
};

TEST_F(UsdTest, OpenClientAdmissionControl) {
  EXPECT_TRUE(usd_.OpenClient("a", Spec(250, 125)).has_value());
  EXPECT_TRUE(usd_.OpenClient("b", Spec(250, 100)).has_value());
  auto c = usd_.OpenClient("c", Spec(250, 50));
  ASSERT_FALSE(c.has_value());
  EXPECT_EQ(c.error(), UsdError::kOverCommitted);
}

TEST_F(UsdTest, InvalidSpecRejected) {
  auto c = usd_.OpenClient("bad", QosSpec{0, 0, false, 0});
  ASSERT_FALSE(c.has_value());
  EXPECT_EQ(c.error(), UsdError::kInvalidSpec);
}

// A simple client task: writes `count` transactions of 16 blocks each at
// sequential positions, waiting for each reply (no pipelining).
Task WriteLoop(Simulator& sim, UsdClient* client, uint64_t base_lba, int count, int* completed) {
  std::vector<uint8_t> buffer(16 * 512);  // one slot: reused once each reply is in
  for (int i = 0; i < count; ++i) {
    co_await client->AcquireSlot();
    std::fill(buffer.begin(), buffer.end(), static_cast<uint8_t>(i));
    UsdRequest req;
    req.id = static_cast<uint64_t>(i);
    req.lba = base_lba + static_cast<uint64_t>(i) * 16;
    req.nblocks = 16;
    req.is_write = true;
    req.buffer = buffer;
    client->Push(req);
    UsdReply reply = co_await client->ReceiveReply();
    if (reply.ok) {
      ++*completed;
    }
  }
  (void)sim;
}

TEST_F(UsdTest, SingleClientCompletesTransactions) {
  auto client = usd_.OpenClient("w", Spec(100, 50, 5));
  ASSERT_TRUE(client.has_value());
  (*client)->AddExtent(Extent{0, 100000});
  int completed = 0;
  sim_.Spawn(WriteLoop(sim_, *client, 1000, 10, &completed), "writer");
  sim_.RunUntil(Seconds(5));
  EXPECT_EQ(completed, 10);
  EXPECT_EQ((*client)->transactions(), 10u);
  EXPECT_EQ(usd_.transactions(), 10u);
}

TEST_F(UsdTest, ExtentViolationRejectedWithoutDiskAccess) {
  auto client = usd_.OpenClient("w", Spec(100, 50, 5));
  ASSERT_TRUE(client.has_value());
  (*client)->AddExtent(Extent{1000, 100});  // only blocks [1000, 1100)
  struct Violator {
    static Task Run(UsdClient* client, bool* ok_flag) {
      co_await client->AcquireSlot();
      UsdRequest req;
      req.id = 1;
      req.lba = 5000;  // outside the extent
      req.nblocks = 16;
      req.is_write = false;
      client->Push(req);
      UsdReply reply = co_await client->ReceiveReply();
      *ok_flag = reply.ok;
    }
  };
  bool ok = true;
  sim_.Spawn(Violator::Run(*client, &ok), "violator");
  sim_.RunUntil(Seconds(1));
  EXPECT_FALSE(ok);
  EXPECT_EQ((*client)->rejected(), 1u);
  EXPECT_EQ(disk_.stats().reads + disk_.stats().writes, 0u);
}

TEST_F(UsdTest, DataRoundTripsThroughUsd) {
  auto client = usd_.OpenClient("rw", Spec(100, 50, 5));
  ASSERT_TRUE(client.has_value());
  (*client)->AddExtent(Extent{2000, 1000});
  struct RoundTrip {
    static Task Run(UsdClient* client, bool* match) {
      std::vector<uint8_t> payload(16 * 512);
      std::iota(payload.begin(), payload.end(), 0);
      co_await client->AcquireSlot();
      UsdRequest w;
      w.id = 1;
      w.lba = 2048;
      w.nblocks = 16;
      w.is_write = true;
      w.buffer = payload;
      client->Push(w);
      (void)co_await client->ReceiveReply();
      std::vector<uint8_t> readback(16 * 512);
      co_await client->AcquireSlot();
      UsdRequest r;
      r.id = 2;
      r.lba = 2048;
      r.nblocks = 16;
      r.is_write = false;
      r.buffer = readback;
      client->Push(r);
      UsdReply reply = co_await client->ReceiveReply();
      *match = reply.ok && readback == payload;
    }
  };
  bool match = false;
  sim_.Spawn(RoundTrip::Run(*client, &match), "roundtrip");
  sim_.RunUntil(Seconds(1));
  EXPECT_TRUE(match);
}

// Saturating read client used for sharing tests: keeps `depth` transactions
// outstanding over a private disk region, either sequentially (uniform
// cache-friendly transaction times, as in the paper's paging-in experiment)
// or at random positions.
Task SaturatingReader(UsdClient* client, uint64_t base_lba, uint64_t region_blocks, int depth,
                      SimTime until, Simulator& sim, uint64_t seed, bool sequential = false) {
  Random rng(seed);
  int outstanding = 0;
  uint64_t next_id = 0;
  uint64_t cursor = 0;
  while (sim.Now() < until) {
    while (outstanding < depth) {
      co_await client->AcquireSlot();
      UsdRequest req;
      req.id = next_id++;
      if (sequential) {
        req.lba = base_lba + cursor;
        cursor = (cursor + 16) % (region_blocks - 16);
      } else {
        req.lba = base_lba + AlignDown(rng.NextBelow(region_blocks - 16), 16);
      }
      req.nblocks = 16;
      req.is_write = false;
      client->Push(req);
      ++outstanding;
    }
    (void)co_await client->ReceiveReply();
    --outstanding;
  }
}

TEST_F(UsdTest, ProportionalSharingUnderSaturation) {
  // Three always-busy clients with guarantees 25/50/100 ms per 250 ms reading
  // from different disk areas: bytes moved should be close to 1:2:4.
  struct ClientSetup {
    const char* name;
    int64_t slice_ms;
    uint64_t base;
  };
  const ClientSetup setups[3] = {{"a", 25, 0}, {"b", 50, 1000000}, {"c", 100, 2000000}};
  UsdClient* clients[3];
  for (int i = 0; i < 3; ++i) {
    auto c = usd_.OpenClient(setups[i].name, Spec(250, setups[i].slice_ms, 10), 4);
    ASSERT_TRUE(c.has_value());
    (*c)->AddExtent(Extent{setups[i].base, 500000});
    clients[i] = *c;
    sim_.Spawn(SaturatingReader(clients[i], setups[i].base, 500000, 4, Seconds(20), sim_,
                                static_cast<uint64_t>(i) + 1, /*sequential=*/true),
               setups[i].name);
  }
  sim_.RunUntil(Seconds(20));
  const double a = static_cast<double>(clients[0]->bytes_transferred());
  const double b = static_cast<double>(clients[1]->bytes_transferred());
  const double c = static_cast<double>(clients[2]->bytes_transferred());
  ASSERT_GT(a, 0.0);
  EXPECT_NEAR(b / a, 2.0, 0.4);
  EXPECT_NEAR(c / a, 4.0, 0.8);
}

TEST_F(UsdTest, SlackClientUsesIdleDisk) {
  auto c = usd_.OpenClient("x", Spec(250, 25, 0, /*extra=*/true), 4);
  ASSERT_TRUE(c.has_value());
  (*c)->AddExtent(Extent{0, 1000000});
  sim_.Spawn(SaturatingReader(*c, 0, 1000000, 4, Seconds(10), sim_, 7), "x");
  sim_.RunUntil(Seconds(10));
  // With the whole disk otherwise idle, a 10% client with the extra flag gets
  // far more than its guarantee.
  const double seconds_of_disk =
      ToSeconds(usd_.scheduler().total_charged((*c)->sched_id())) / 10.0;
  const double bytes = static_cast<double>((*c)->bytes_transferred());
  EXPECT_LT(seconds_of_disk, 0.15);     // charged only its guarantee
  EXPECT_GT(bytes, 4.0 * 1024 * 1024);  // but moved far more data via slack
  EXPECT_GT(trace_.Filter("usd", "slack-txn").size(), 0u);
}

TEST_F(UsdTest, NonSlackClientCappedAtGuarantee) {
  auto c = usd_.OpenClient("cap", Spec(250, 25, 0, /*extra=*/false), 4);
  ASSERT_TRUE(c.has_value());
  (*c)->AddExtent(Extent{0, 1000000});
  sim_.Spawn(SaturatingReader(*c, 0, 1000000, 4, Seconds(10), sim_, 8), "cap");
  sim_.RunUntil(Seconds(10));
  // Charged time can not exceed the reservation (10% of 10 s) by more than
  // one transaction of roll-over jitter.
  const double charged_s = ToSeconds(usd_.scheduler().total_charged((*c)->sched_id()));
  EXPECT_LT(charged_s, 1.0 + 0.05);
  EXPECT_GT(charged_s, 0.8);
}

// One-outstanding-transaction client, as a pager: issues the next read only
// after consuming the previous reply, with a small compute gap.
Task PagerLike(UsdClient* client, uint64_t base_lba, SimTime until, Simulator& sim,
               SimDuration gap) {
  uint64_t lba = base_lba;
  while (sim.Now() < until) {
    co_await client->AcquireSlot();
    UsdRequest req;
    req.id = lba;
    req.lba = lba;
    req.nblocks = 16;
    req.is_write = false;
    client->Push(req);
    (void)co_await client->ReceiveReply();
    lba += 16;
    co_await SleepFor(sim, gap);
  }
}

TEST_F(UsdTest, LaxityRescuesShortBlockClient) {
  // Two runs of the same single-outstanding pager with a competing saturating
  // client: with laxity 10 ms it achieves many transactions per period; with
  // laxity 0 it collapses to about one transaction per period (the paper's
  // short-block problem).
  auto RunOnce = [](int64_t laxity_ms) -> uint64_t {
    Simulator sim;
    Disk disk;
    Usd usd(sim, disk, nullptr);
    usd.Start();
    auto pager = usd.OpenClient("pager", Spec(250, 100, laxity_ms));
    auto hog = usd.OpenClient("hog", Spec(250, 100, 0), 8);
    EXPECT_TRUE(pager.has_value());
    EXPECT_TRUE(hog.has_value());
    (*pager)->AddExtent(Extent{0, 1000000});
    (*hog)->AddExtent(Extent{2000000, 1000000});
    sim.Spawn(PagerLike(*pager, 0, Seconds(10), sim, Microseconds(50)), "pager");
    sim.Spawn(SaturatingReader(*hog, 2000000, 1000000, 8, Seconds(10), sim, 3), "hog");
    sim.RunUntil(Seconds(10));
    return (*pager)->transactions();
  };
  const uint64_t with_laxity = RunOnce(10);
  const uint64_t without_laxity = RunOnce(0);
  EXPECT_GT(with_laxity, 4 * without_laxity);
  // Without laxity: roughly one transaction per 250 ms period (40 periods).
  EXPECT_LE(without_laxity, 80u);
}

TEST_F(UsdTest, LaxTimeNeverExceedsLaxityPerEpisode) {
  auto pager = usd_.OpenClient("pager", Spec(250, 100, 10));
  ASSERT_TRUE(pager.has_value());
  (*pager)->AddExtent(Extent{0, 1000000});
  sim_.Spawn(PagerLike(*pager, 0, Seconds(5), sim_, Milliseconds(2)), "pager");
  sim_.RunUntil(Seconds(5));
  for (const auto& rec : trace_.Filter("usd", "lax")) {
    EXPECT_LE(rec.value_a, 10.0 + 1e-6);  // ms
  }
  EXPECT_GT(trace_.Filter("usd", "lax").size(), 0u);
}

TEST_F(UsdTest, TraceContainsTransactionsAndAllocations) {
  auto client = usd_.OpenClient("t", Spec(100, 50, 5));
  ASSERT_TRUE(client.has_value());
  (*client)->AddExtent(Extent{0, 100000});
  int completed = 0;
  sim_.Spawn(WriteLoop(sim_, *client, 0, 5, &completed), "w");
  sim_.RunUntil(Seconds(2));
  EXPECT_EQ(trace_.Filter("usd", "txn").size(), 5u);
  EXPECT_GT(trace_.Filter("usd", "alloc").size(), 10u);  // one per 100 ms
}

// --- Batching -----------------------------------------------------------------

// Pushes `count` pipelined sequential 16-block requests in one burst (no
// waiting between pushes), each through its own buffer (a write's filled with
// i + 1), then drains the replies in order, recording ids and, for reads, the
// bytes that landed in each served request's buffer.
Task BurstAndDrain(UsdClient* client, uint64_t base_lba, int count, bool is_write,
                   std::vector<uint64_t>* reply_ids, std::vector<std::vector<uint8_t>>* payloads) {
  std::vector<std::vector<uint8_t>> buffers(static_cast<size_t>(count));
  for (int i = 0; i < count; ++i) {
    co_await client->AcquireSlot();
    std::vector<uint8_t>& buffer = buffers[static_cast<size_t>(i)];
    buffer.assign(16 * 512, is_write ? static_cast<uint8_t>(i + 1) : 0);
    UsdRequest req;
    req.id = static_cast<uint64_t>(i);
    req.lba = base_lba + static_cast<uint64_t>(i) * 16;
    req.nblocks = 16;
    req.is_write = is_write;
    req.buffer = buffer;
    client->Push(req);
  }
  for (int i = 0; i < count; ++i) {
    UsdReply reply = co_await client->ReceiveReply();
    if (reply.ok) {
      reply_ids->push_back(reply.id);
      if (payloads != nullptr) {
        payloads->push_back(std::move(buffers[reply.id]));
      }
    }
  }
}

UsdBatchPolicy BatchOn(uint32_t max_requests = 32) {
  UsdBatchPolicy policy;
  policy.enabled = true;
  policy.max_requests = max_requests;
  return policy;
}

TEST_F(UsdTest, BatchingCoalescesSequentialBurst) {
  auto client = usd_.OpenClient("b", Spec(250, 100), 8);
  ASSERT_TRUE(client.has_value());
  (*client)->AddExtent(Extent{0, 100000});
  (*client)->set_batch_policy(BatchOn());
  std::vector<uint64_t> ids;
  sim_.Spawn(BurstAndDrain(*client, 1000, 8, /*is_write=*/true, &ids, nullptr), "burst");
  sim_.RunUntil(Seconds(2));
  // All eight requests coalesced into one chain, one reply per request, FIFO.
  EXPECT_EQ((*client)->batches(), 1u);
  EXPECT_EQ((*client)->batched_requests(), 8u);
  EXPECT_EQ((*client)->transactions(), 8u);
  ASSERT_EQ(ids.size(), 8u);
  for (int i = 0; i < 8; ++i) {
    EXPECT_EQ(ids[static_cast<size_t>(i)], static_cast<uint64_t>(i));
  }
  const auto batch_recs = trace_.Filter("usd", "batch");
  ASSERT_EQ(batch_recs.size(), 1u);
  EXPECT_EQ(batch_recs[0].value_b, 8.0);
  // Per-request txn records still appear, one per member.
  EXPECT_EQ(trace_.Filter("usd", "txn").size(), 8u);
  // The batch accounting the auditor checks: charged == disk busy, exactly.
  EXPECT_EQ(usd_.batch_charged(), usd_.batch_busy());
  EXPECT_GT(usd_.batch_charged(), 0);
}

TEST_F(UsdTest, BatchedWritesLandOnDisk) {
  auto client = usd_.OpenClient("bw", Spec(250, 100), 4);
  ASSERT_TRUE(client.has_value());
  (*client)->AddExtent(Extent{0, 100000});
  (*client)->set_batch_policy(BatchOn());
  std::vector<uint64_t> ids;
  sim_.Spawn(BurstAndDrain(*client, 2000, 4, /*is_write=*/true, &ids, nullptr), "burst");
  sim_.RunUntil(Seconds(2));
  ASSERT_EQ(ids.size(), 4u);
  for (int i = 0; i < 4; ++i) {
    const std::vector<uint8_t> out = disk_.ReadData(2000 + static_cast<uint64_t>(i) * 16, 16);
    for (uint8_t byte : out) {
      ASSERT_EQ(byte, static_cast<uint8_t>(i + 1));
    }
  }
}

TEST_F(UsdTest, BatchingStopsAtExtentBoundary) {
  auto client = usd_.OpenClient("e", Spec(250, 100), 8);
  ASSERT_TRUE(client.has_value());
  // Two back-to-back extents: a chain must not cross from one to the other
  // even though the LBAs are contiguous.
  (*client)->AddExtent(Extent{1000, 48});
  (*client)->AddExtent(Extent{1048, 48});
  (*client)->set_batch_policy(BatchOn());
  std::vector<uint64_t> ids;
  sim_.Spawn(BurstAndDrain(*client, 1000, 6, /*is_write=*/true, &ids, nullptr), "burst");
  sim_.RunUntil(Seconds(2));
  EXPECT_EQ(ids.size(), 6u);
  EXPECT_EQ((*client)->transactions(), 6u);
  const auto batch_recs = trace_.Filter("usd", "batch");
  ASSERT_EQ(batch_recs.size(), 2u);
  EXPECT_EQ(batch_recs[0].value_b, 3.0);  // requests 0-2 live in the first extent
  EXPECT_EQ(batch_recs[1].value_b, 3.0);  // requests 3-5 in the second
}

TEST_F(UsdTest, BatchingRespectsMaxRequests) {
  auto client = usd_.OpenClient("m", Spec(250, 200), 8);
  ASSERT_TRUE(client.has_value());
  (*client)->AddExtent(Extent{0, 100000});
  (*client)->set_batch_policy(BatchOn(/*max_requests=*/3));
  std::vector<uint64_t> ids;
  sim_.Spawn(BurstAndDrain(*client, 0, 6, /*is_write=*/true, &ids, nullptr), "burst");
  sim_.RunUntil(Seconds(2));
  EXPECT_EQ(ids.size(), 6u);
  const auto batch_recs = trace_.Filter("usd", "batch");
  ASSERT_EQ(batch_recs.size(), 2u);
  EXPECT_EQ(batch_recs[0].value_b, 3.0);
  EXPECT_EQ(batch_recs[1].value_b, 3.0);
}

TEST_F(UsdTest, BatchingRespectsSliceBudget) {
  // A deep sequential burst against a small slice: the chain must stop once
  // the cumulative cost would exceed the remaining slice (only the FIRST
  // member may overrun — the roll-over rule), so no batch can carry all 32
  // requests even though the policy allows it.
  auto client = usd_.OpenClient("s", Spec(250, 10), 32);
  ASSERT_TRUE(client.has_value());
  (*client)->AddExtent(Extent{0, 100000});
  (*client)->set_batch_policy(BatchOn());
  std::vector<uint64_t> ids;
  sim_.Spawn(BurstAndDrain(*client, 0, 32, /*is_write=*/true, &ids, nullptr), "burst");
  sim_.RunUntil(Seconds(10));
  EXPECT_EQ(ids.size(), 32u);
  const auto batch_recs = trace_.Filter("usd", "batch");
  for (const auto& rec : batch_recs) {
    EXPECT_LT(rec.value_b, 32.0);
  }
  // Budget rule, reconstructed from the trace: within each batch, the members
  // after the first fit inside one slice (10 ms).
  const auto txn_recs = trace_.Filter("usd", "txn");
  for (const auto& batch : batch_recs) {
    double tail_ms = 0.0;
    int seen = 0;
    for (const auto& txn : txn_recs) {
      if (txn.time >= batch.time && txn.time < batch.time + FromMilliseconds(batch.value_a)) {
        if (seen++ > 0) {
          tail_ms += txn.value_a;
        }
      }
    }
    EXPECT_LE(tail_ms, 10.0 + 1e-6);
  }
}

TEST_F(UsdTest, RejectedRequestDoesNotPoisonBatch) {
  auto client = usd_.OpenClient("r", Spec(250, 100), 4);
  ASSERT_TRUE(client.has_value());
  (*client)->AddExtent(Extent{1000, 100});
  (*client)->set_batch_policy(BatchOn());
  struct Mixed {
    static Task Run(UsdClient* client, std::vector<uint64_t>* ok_ids, uint64_t* failed_id) {
      const uint64_t lbas[3] = {1000, 5000, 1016};  // middle one violates the extent
      std::vector<uint8_t> buffer(16 * 512, 0xAB);  // a shared write source
      for (int i = 0; i < 3; ++i) {
        co_await client->AcquireSlot();
        UsdRequest req;
        req.id = static_cast<uint64_t>(i);
        req.lba = lbas[i];
        req.nblocks = 16;
        req.is_write = true;
        req.buffer = buffer;
        client->Push(req);
      }
      for (int i = 0; i < 3; ++i) {
        UsdReply reply = co_await client->ReceiveReply();
        if (reply.ok) {
          ok_ids->push_back(reply.id);
        } else {
          *failed_id = reply.id;
        }
      }
    }
  };
  std::vector<uint64_t> ok_ids;
  uint64_t failed_id = 99;
  sim_.Spawn(Mixed::Run(*client, &ok_ids, &failed_id), "mixed");
  sim_.RunUntil(Seconds(2));
  // Only the out-of-extent request failed; the two valid (contiguous)
  // requests were served — and coalesced into one chain.
  EXPECT_EQ(failed_id, 1u);
  ASSERT_EQ(ok_ids.size(), 2u);
  EXPECT_EQ(ok_ids[0], 0u);
  EXPECT_EQ(ok_ids[1], 2u);
  EXPECT_EQ((*client)->rejected(), 1u);
  EXPECT_EQ((*client)->transactions(), 2u);
  EXPECT_EQ((*client)->batched_requests(), 2u);
}

TEST_F(UsdTest, BatchingOffByDefault) {
  auto client = usd_.OpenClient("off", Spec(250, 100), 8);
  ASSERT_TRUE(client.has_value());
  (*client)->AddExtent(Extent{0, 100000});
  std::vector<uint64_t> ids;
  sim_.Spawn(BurstAndDrain(*client, 1000, 8, /*is_write=*/true, &ids, nullptr), "burst");
  sim_.RunUntil(Seconds(2));
  EXPECT_EQ(ids.size(), 8u);
  EXPECT_EQ((*client)->batches(), 0u);
  EXPECT_TRUE(trace_.Filter("usd", "batch").empty());
}

// --- Lifetime / timing regression tests ----------------------------------------

Task CloseAt(Simulator& sim, Usd* usd, UsdClient* client, SimDuration when) {
  co_await SleepFor(sim, when);
  usd->CloseClient(client);
}

// Pushes `count` sequential writes from `source` and never waits for the
// replies — used by the close-mid-flight tests, where the handle must not be
// touched after CloseClient. `source` belongs to the test, so it outlives
// every request that names it.
Task PushAndForget(UsdClient* client, uint64_t base_lba, int count,
                   std::vector<uint8_t>* source) {
  for (int i = 0; i < count; ++i) {
    co_await client->AcquireSlot();
    UsdRequest req;
    req.id = static_cast<uint64_t>(i);
    req.lba = base_lba + static_cast<uint64_t>(i) * 16;
    req.nblocks = 16;
    req.is_write = true;
    req.buffer = *source;
    client->Push(req);
  }
}

TEST_F(UsdTest, CloseClientDuringInFlightTransactionIsSafe) {
  // Regression (use-after-free): the service loop holds the client pointer
  // across the co_await on the in-flight transaction; CloseClient arriving in
  // that window used to destroy the object under the loop's feet. Destruction
  // is now deferred until the transaction completes.
  auto client = usd_.OpenClient("uaf", Spec(100, 50, 5), 2);
  ASSERT_TRUE(client.has_value());
  (*client)->AddExtent(Extent{0, 100000});
  std::vector<uint8_t> source(16 * 512, 0x5A);
  sim_.Spawn(PushAndForget(*client, 4000, 2, &source), "pusher");
  // A 16-block transaction takes several ms; 1 ms is safely mid-service.
  sim_.Spawn(CloseAt(sim_, &usd_, *client, Milliseconds(1)), "closer");
  sim_.RunUntil(Seconds(1));
  // The in-flight transaction still completed and was accounted (the loop's
  // pointer stayed valid across the sleep — ASan-verified in CI); the queued
  // second request died with the client.
  EXPECT_EQ(usd_.transactions(), 1u);
}

TEST_F(UsdTest, CloseClientDuringLaxityIdleIsSafe) {
  // Same lifetime hazard on the other co_await: the laxity idle waits on a
  // condition owned by the client being idled for.
  auto client = usd_.OpenClient("laxuaf", Spec(100, 50, 20));
  ASSERT_TRUE(client.has_value());
  (*client)->AddExtent(Extent{0, 100000});
  int completed = 0;
  sim_.Spawn(WriteLoop(sim_, *client, 0, 1, &completed), "w");
  // The single transaction finishes within ~15 ms; the loop then lax-idles on
  // the client for up to 20 ms. Close in that window.
  sim_.Spawn(CloseAt(sim_, &usd_, *client, Milliseconds(18)), "closer");
  sim_.RunUntil(Seconds(1));
  EXPECT_EQ(completed, 1);
  EXPECT_EQ(usd_.transactions(), 1u);
}

TEST_F(UsdTest, LaxityIdleNotCutShortByOtherClientsArrival) {
  // Regression (QoS mischarge): the laxity idle reserved for the picked
  // client used to wake on ANY client's arrival, splitting the reserved
  // window. B pushing mid-window must not interrupt A's idle: A's laxity is
  // charged as one uninterrupted window.
  auto a = usd_.OpenClient("a", Spec(200, 100, 60));
  auto b = usd_.OpenClient("b", Spec(100, 20, 0));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  (*a)->AddExtent(Extent{0, 100000});
  (*b)->AddExtent(Extent{200000, 100000});
  // A issues one transaction at t=0 and goes quiet; the loop then idles on
  // A's behalf for its full 60 ms laxity.
  int a_done = 0;
  sim_.Spawn(WriteLoop(sim_, *a, 0, 1, &a_done), "a");
  // B pushes at t=30 ms — inside A's laxity window.
  struct LatePush {
    static Task Run(Simulator& sim, UsdClient* client) {
      co_await SleepFor(sim, Milliseconds(30));
      co_await client->AcquireSlot();
      UsdRequest req;
      req.id = 1;
      req.lba = 200000;
      req.nblocks = 16;
      req.is_write = false;
      client->Push(req);
      (void)co_await client->ReceiveReply();
    }
  };
  sim_.Spawn(LatePush::Run(sim_, *b), "b");
  sim_.RunUntil(Milliseconds(150));
  EXPECT_EQ(a_done, 1);
  // One uninterrupted 60 ms lax window, not two fragments split at B's push.
  const auto lax = trace_.Filter("usd", "lax");
  ASSERT_EQ(lax.size(), 1u);
  EXPECT_NEAR(lax[0].value_a, 60.0, 1e-9);
  EXPECT_EQ(usd_.scheduler().total_lax((*a)->sched_id()), Milliseconds(60));
}

TEST_F(UsdTest, WriteDataCommitsAtCompletionNotSubmission) {
  // Regression (time travel): write payloads used to land on the platter at
  // transaction START, so a concurrent observer could read data the head had
  // not finished writing.
  auto client = usd_.OpenClient("w", Spec(100, 50), 1);
  ASSERT_TRUE(client.has_value());
  (*client)->AddExtent(Extent{0, 100000});
  std::vector<uint64_t> ids;
  sim_.Spawn(BurstAndDrain(*client, 3000, 1, /*is_write=*/true, &ids, nullptr), "w");
  struct MidServiceProbe {
    static Task Run(Simulator& sim, Disk* disk, bool* saw_zeros) {
      co_await SleepFor(sim, Milliseconds(1));  // mid-service: txn takes several ms
      const std::vector<uint8_t> out = disk->ReadData(3000, 16);
      *saw_zeros = true;
      for (uint8_t byte : out) {
        if (byte != 0) {
          *saw_zeros = false;
          break;
        }
      }
    }
  };
  bool saw_zeros = false;
  sim_.Spawn(MidServiceProbe::Run(sim_, &disk_, &saw_zeros), "probe");
  sim_.RunUntil(Seconds(1));
  EXPECT_TRUE(saw_zeros);  // mid-service, the write is not visible yet
  ASSERT_EQ(ids.size(), 1u);
  const std::vector<uint8_t> out = disk_.ReadData(3000, 16);
  for (uint8_t byte : out) {
    ASSERT_EQ(byte, 1);  // after completion, it is
  }
}

TEST_F(UsdTest, ReadDataSnapshotsAtCompletionNotSubmission) {
  // Symmetric half of the fix: a read's payload is snapshotted when the
  // transaction completes, not when it is submitted.
  auto client = usd_.OpenClient("r", Spec(100, 50), 1);
  ASSERT_TRUE(client.has_value());
  (*client)->AddExtent(Extent{0, 100000});
  std::vector<uint64_t> ids;
  std::vector<std::vector<uint8_t>> payloads;
  sim_.Spawn(BurstAndDrain(*client, 3000, 1, /*is_write=*/false, &ids, &payloads), "r");
  struct MidServiceWrite {
    static Task Run(Simulator& sim, Disk* disk) {
      co_await SleepFor(sim, Milliseconds(1));
      std::vector<uint8_t> data(16 * 512, 0xCD);
      disk->WriteData(3000, data);
    }
  };
  sim_.Spawn(MidServiceWrite::Run(sim_, &disk_), "writer");
  sim_.RunUntil(Seconds(1));
  ASSERT_EQ(payloads.size(), 1u);
  ASSERT_EQ(payloads[0].size(), 16u * 512u);
  for (uint8_t byte : payloads[0]) {
    ASSERT_EQ(byte, 0xCD);
  }
}

// --- Client-owned buffers and detached channels ---------------------------------

// Regression: the slack path recorded "slack-txn" for a client closed while
// its transaction was in service; the pick path already suppressed "txn".
// Both now share one completion helper.
TEST(UsdBufferTest, SlackTxnNotRecordedForClientClosedMidFlight) {
  struct Result {
    size_t slack_records = 0;
    uint64_t transactions = 0;
  };
  auto RunOnce = [](bool close) {
    Simulator sim;
    Disk disk;
    TraceRecorder trace;
    Usd usd(sim, disk, &trace);
    usd.Start();
    // No laxity: with nothing queued at the first pick the client goes idle
    // until its next period (1 s away), so both transactions are served in
    // slack time (the extra flag).
    auto client = usd.OpenClient("x", Spec(1000, 1, 0, /*extra=*/true), 2);
    EXPECT_TRUE(client.has_value());
    (*client)->AddExtent(Extent{0, 100000});
    struct CloseAfterFirstReply {
      static Task Run(Usd* usd, UsdClient* client, bool close) {
        for (uint64_t i = 0; i < 2; ++i) {
          co_await client->AcquireSlot();
          UsdRequest req;
          req.id = i;
          req.lba = 1000 + i * 5000;
          req.nblocks = 16;
          client->Push(req);
        }
        (void)co_await client->ReceiveReply();
        if (close) {
          usd->CloseClient(client);  // the second transaction is in service now
        }
      }
    };
    sim.Spawn(CloseAfterFirstReply::Run(&usd, *client, close), "client");
    sim.RunUntil(Seconds(1));
    return Result{trace.Filter("usd", "slack-txn").size(), usd.transactions()};
  };
  const Result open = RunOnce(false);
  EXPECT_EQ(open.slack_records, 2u);
  EXPECT_EQ(open.transactions, 2u);
  const Result closed = RunOnce(true);
  EXPECT_EQ(closed.slack_records, 1u);  // the second is defunct: served, not traced
  EXPECT_EQ(closed.transactions, 2u);
}

// A detached client's queued and in-service requests are still served,
// replied to and charged — simulated time does not move — but no byte reaches
// the disk from its buffers or lands in them.
TEST_F(UsdTest, BufferOfDetachedClientIsNeitherReadNorWritten) {
  auto client = usd_.OpenClient("d", Spec(100, 50), 2);
  ASSERT_TRUE(client.has_value());
  (*client)->AddExtent(Extent{0, 100000});
  const std::vector<uint8_t> on_disk(16 * 512, 0x11);
  disk_.WriteData(6000, on_disk);
  std::vector<uint8_t> source(16 * 512, 0x77);  // write source for block 5000
  std::vector<uint8_t> dest(16 * 512, 0xEE);    // read destination from block 6000
  struct WriteThenRead {
    static Task Run(UsdClient* client, std::vector<uint8_t>* source, std::vector<uint8_t>* dest,
                    int* ok_replies) {
      co_await client->AcquireSlot();
      client->Push(UsdRequest{1, 5000, 16, /*is_write=*/true, 0, *source});
      co_await client->AcquireSlot();
      client->Push(UsdRequest{2, 6000, 16, /*is_write=*/false, 0, *dest});
      for (int i = 0; i < 2; ++i) {
        const UsdReply reply = co_await client->ReceiveReply();
        *ok_replies += reply.ok ? 1 : 0;
      }
    }
  };
  int ok_replies = 0;
  sim_.Spawn(WriteThenRead::Run(*client, &source, &dest, &ok_replies), "client");
  // 1 ms in: the write is in service, the read queued behind it.
  sim_.CallAt(Milliseconds(1), [c = *client] { c->Detach(); });
  sim_.RunUntil(Seconds(1));
  EXPECT_TRUE((*client)->detached());
  EXPECT_EQ(ok_replies, 2);
  EXPECT_EQ((*client)->transactions(), 2u);
  EXPECT_GT(usd_.scheduler().total_charged((*client)->sched_id()), 0);
  const std::vector<uint8_t> written = disk_.ReadData(5000, 16);
  EXPECT_TRUE(std::all_of(written.begin(), written.end(), [](uint8_t b) { return b == 0; }));
  EXPECT_TRUE(std::all_of(dest.begin(), dest.end(), [](uint8_t b) { return b == 0xEE; }));
}

TEST_F(UsdTest, BufferMustCoverExactlyTheRequestedBlocks) {
  auto client = usd_.OpenClient("s", Spec(100, 50), 1);
  ASSERT_TRUE(client.has_value());
  (*client)->AddExtent(Extent{0, 100000});
  std::vector<uint8_t> short_buffer(15 * 512);
  EXPECT_DEATH((*client)->Push(UsdRequest{1, 0, 16, false, 0, short_buffer}),
               "exactly the request's blocks");
}

class SfsTest : public ::testing::Test {
 protected:
  SfsTest() : usd_(sim_, disk_, nullptr), sfs_(usd_, Extent{100000, 200000}) { usd_.Start(); }

  Simulator sim_;
  Disk disk_;
  Usd usd_;
  SwapFilesystem sfs_;
};

TEST_F(SfsTest, CreateSwapFileAllocatesExtentAndClient) {
  auto f = sfs_.CreateSwapFile("swap0", 16 * kMiB, Spec(250, 25, 10));
  ASSERT_TRUE(f.has_value());
  EXPECT_EQ(f->extent.length, 16 * kMiB / 512);
  EXPECT_GE(f->extent.start, 100000u);
  EXPECT_NE(f->client, nullptr);
  EXPECT_EQ(sfs_.free_blocks(), 200000u - f->extent.length);
}

TEST_F(SfsTest, SwapFilesDoNotOverlap) {
  auto a = sfs_.CreateSwapFile("a", 8 * kMiB, Spec(250, 25, 10));
  auto b = sfs_.CreateSwapFile("b", 8 * kMiB, Spec(250, 25, 10));
  ASSERT_TRUE(a.has_value());
  ASSERT_TRUE(b.has_value());
  const uint64_t a_end = a->extent.start + a->extent.length;
  const uint64_t b_end = b->extent.start + b->extent.length;
  EXPECT_TRUE(a_end <= b->extent.start || b_end <= a->extent.start);
}

TEST_F(SfsTest, NoSpaceRejected) {
  auto big = sfs_.CreateSwapFile("big", 200000ull * 512, Spec(250, 25, 10));
  ASSERT_TRUE(big.has_value());
  auto more = sfs_.CreateSwapFile("more", 512, Spec(250, 25, 10));
  ASSERT_FALSE(more.has_value());
  EXPECT_EQ(more.error(), SfsError::kNoSpace);
}

TEST_F(SfsTest, QosRejectionPropagates) {
  auto a = sfs_.CreateSwapFile("a", kMiB, Spec(250, 200, 0));
  ASSERT_TRUE(a.has_value());
  auto b = sfs_.CreateSwapFile("b", kMiB, Spec(250, 100, 0));
  ASSERT_FALSE(b.has_value());
  EXPECT_EQ(b.error(), SfsError::kQosRejected);
}

TEST_F(SfsTest, DeleteSwapFileReleasesSpace) {
  auto a = sfs_.CreateSwapFile("a", 8 * kMiB, Spec(250, 25, 10));
  ASSERT_TRUE(a.has_value());
  const uint64_t free_before = sfs_.free_blocks();
  ASSERT_TRUE(sfs_.DeleteSwapFile(*a).ok());
  EXPECT_EQ(sfs_.free_blocks(), free_before + 8 * kMiB / 512);
  // QoS capacity was released too.
  auto b = sfs_.CreateSwapFile("b", kMiB, Spec(250, 240, 0));
  EXPECT_TRUE(b.has_value());
}

}  // namespace
}  // namespace nemesis
