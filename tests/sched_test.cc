// Unit tests for the Atropos scheduler core: admission control, EDF pick,
// periodic reallocation, laxity accounting, roll-over, and slack.
#include <gtest/gtest.h>

#include "src/sched/atropos.h"
#include "src/sim/simulator.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"

namespace nemesis {
namespace {

QosSpec Spec(int64_t period_ms, int64_t slice_ms, int64_t laxity_ms = 0, bool extra = false) {
  return QosSpec{Milliseconds(period_ms), Milliseconds(slice_ms), extra, Milliseconds(laxity_ms)};
}

TEST(Atropos, AdmissionAcceptsWithinCapacity) {
  Simulator sim;
  AtroposScheduler sched(sim);
  EXPECT_TRUE(sched.Admit("a", Spec(250, 100)).has_value());
  EXPECT_TRUE(sched.Admit("b", Spec(250, 100)).has_value());
  EXPECT_TRUE(sched.Admit("c", Spec(250, 50)).has_value());
  EXPECT_DOUBLE_EQ(sched.ReservedFraction(), 1.0);
}

TEST(Atropos, AdmissionRejectsOverCommit) {
  Simulator sim;
  AtroposScheduler sched(sim);
  EXPECT_TRUE(sched.Admit("a", Spec(250, 200)).has_value());
  auto r = sched.Admit("b", Spec(250, 100));
  EXPECT_FALSE(r.has_value());
  EXPECT_EQ(r.error(), AdmitError::kOverCommitted);
}

TEST(Atropos, AdmissionRejectsInvalidSpecs) {
  Simulator sim;
  AtroposScheduler sched(sim);
  EXPECT_FALSE(sched.Admit("zero-period", QosSpec{0, Milliseconds(1), false, 0}).has_value());
  EXPECT_FALSE(sched.Admit("slice>period", Spec(10, 20)).has_value());
  EXPECT_FALSE(sched.Admit("zero-slice", Spec(10, 0)).has_value());
}

TEST(Atropos, RemoveReleasesReservation) {
  Simulator sim;
  AtroposScheduler sched(sim);
  auto a = sched.Admit("a", Spec(250, 200));
  ASSERT_TRUE(a.has_value());
  sched.Remove(*a);
  EXPECT_NEAR(sched.ReservedFraction(), 0.0, 1e-12);
  EXPECT_TRUE(sched.Admit("b", Spec(250, 250)).has_value());
}

TEST(Atropos, PickPrefersEarliestDeadline) {
  Simulator sim;
  AtroposScheduler sched(sim);
  auto a = *sched.Admit("a", Spec(100, 10));  // deadline now+100ms
  auto b = *sched.Admit("b", Spec(50, 10));   // deadline now+50ms
  sched.SetQueued(a, 1);
  sched.SetQueued(b, 1);
  auto pick = sched.PickNext();
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->client, b);
  EXPECT_FALSE(pick->lax);
}

TEST(Atropos, NoWorkNoLaxityMeansNoPick) {
  Simulator sim;
  AtroposScheduler sched(sim);
  auto a = *sched.Admit("a", Spec(100, 10));
  EXPECT_FALSE(sched.PickNext().has_value());
  EXPECT_EQ(sched.state(a), SchedClientState::kIdle);
}

TEST(Atropos, LaxClientStaysEligible) {
  Simulator sim;
  AtroposScheduler sched(sim);
  auto a = *sched.Admit("a", Spec(100, 50, /*laxity_ms=*/10));
  auto pick = sched.PickNext();
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->client, a);
  EXPECT_TRUE(pick->lax);
  EXPECT_EQ(pick->budget, Milliseconds(10));
}

TEST(Atropos, LaxTimeIsChargedAndBounded) {
  Simulator sim;
  AtroposScheduler sched(sim);
  auto a = *sched.Admit("a", Spec(100, 50, /*laxity_ms=*/10));
  auto pick = sched.PickNext();
  ASSERT_TRUE(pick.has_value());
  sim.RunUntil(Milliseconds(10));
  sched.Charge(a, Milliseconds(10), /*was_lax=*/true);
  EXPECT_EQ(sched.remaining(a), Milliseconds(40));
  EXPECT_EQ(sched.total_lax(a), Milliseconds(10));
  // Laxity used up: the next pick idles the client.
  EXPECT_FALSE(sched.PickNext().has_value());
  EXPECT_EQ(sched.state(a), SchedClientState::kIdle);
}

TEST(Atropos, TransactionResetsLaxityClock) {
  Simulator sim;
  AtroposScheduler sched(sim);
  auto a = *sched.Admit("a", Spec(100, 50, /*laxity_ms=*/10));
  sched.Charge(a, Milliseconds(6), /*was_lax=*/true);
  sched.SetQueued(a, 1);
  sched.Charge(a, Milliseconds(5), /*was_lax=*/false);  // a real transaction
  sched.SetQueued(a, 0);
  auto pick = sched.PickNext();
  ASSERT_TRUE(pick.has_value());
  EXPECT_TRUE(pick->lax);
  EXPECT_EQ(pick->budget, Milliseconds(10));  // full laxity again
}

TEST(Atropos, ExhaustedClientWaitsForRefresh) {
  Simulator sim;
  AtroposScheduler sched(sim);
  auto a = *sched.Admit("a", Spec(100, 10));
  sched.SetQueued(a, 1);
  sched.Charge(a, Milliseconds(10), false);
  EXPECT_EQ(sched.state(a), SchedClientState::kWaiting);
  EXPECT_FALSE(sched.PickNext().has_value());
  // At the deadline, a new allocation arrives.
  sim.RunUntil(Milliseconds(100));
  EXPECT_EQ(sched.state(a), SchedClientState::kRunnable);
  EXPECT_EQ(sched.remaining(a), Milliseconds(10));
  auto pick = sched.PickNext();
  ASSERT_TRUE(pick.has_value());
  EXPECT_EQ(pick->client, a);
}

TEST(Atropos, RollOverCarriesDeficit) {
  Simulator sim;
  AtroposScheduler sched(sim);
  auto a = *sched.Admit("a", Spec(100, 10));
  sched.SetQueued(a, 1);
  // A transaction overruns the slice by 5 ms.
  sched.Charge(a, Milliseconds(15), false);
  EXPECT_EQ(sched.remaining(a), -Milliseconds(5));
  sim.RunUntil(Milliseconds(100));
  // Roll-over: next allocation is slice minus the deficit.
  EXPECT_EQ(sched.remaining(a), Milliseconds(5));
}

TEST(Atropos, RollOverDisabledForgivesDeficit) {
  Simulator sim;
  AtroposScheduler sched(sim);
  sched.set_rollover(false);
  auto a = *sched.Admit("a", Spec(100, 10));
  sched.SetQueued(a, 1);
  sched.Charge(a, Milliseconds(15), false);
  sim.RunUntil(Milliseconds(100));
  EXPECT_EQ(sched.remaining(a), Milliseconds(10));
}

TEST(Atropos, SurplusIsForfeited) {
  Simulator sim;
  AtroposScheduler sched(sim);
  auto a = *sched.Admit("a", Spec(100, 10));
  sched.SetQueued(a, 1);
  sched.Charge(a, Milliseconds(2), false);
  sim.RunUntil(Milliseconds(100));
  // Unused time does not accumulate.
  EXPECT_EQ(sched.remaining(a), Milliseconds(10));
}

TEST(Atropos, IdleClientIgnoredUntilNextAllocation) {
  Simulator sim;
  AtroposScheduler sched(sim);
  auto a = *sched.Admit("a", Spec(100, 10));
  EXPECT_FALSE(sched.PickNext().has_value());  // idles the client
  // Work arrives mid-period: per the paper's semantics the idled client stays
  // ignored until its next allocation.
  sched.SetQueued(a, 1);
  EXPECT_FALSE(sched.PickNext().has_value());
  sim.RunUntil(Milliseconds(100));
  EXPECT_TRUE(sched.PickNext().has_value());
}

TEST(Atropos, WakeupFiresOnWorkArrival) {
  Simulator sim;
  AtroposScheduler sched(sim);
  int wakeups = 0;
  sched.set_wakeup([&] { ++wakeups; });
  auto a = *sched.Admit("a", Spec(100, 10));
  sched.SetQueued(a, 1);
  EXPECT_EQ(wakeups, 1);
  sched.SetQueued(a, 2);  // already had work: no new wakeup
  EXPECT_EQ(wakeups, 1);
}

TEST(Atropos, WakeupFiresOnRefresh) {
  Simulator sim;
  AtroposScheduler sched(sim);
  int wakeups = 0;
  sched.set_wakeup([&] { ++wakeups; });
  (void)*sched.Admit("a", Spec(100, 10));
  sim.RunUntil(Milliseconds(350));
  EXPECT_EQ(wakeups, 3);  // refreshes at 100, 200, 300 ms
}

TEST(Atropos, SlackPickOnlyForExtraClients) {
  Simulator sim;
  AtroposScheduler sched(sim);
  auto a = *sched.Admit("a", Spec(100, 10, 0, /*extra=*/false));
  auto b = *sched.Admit("b", Spec(100, 10, 0, /*extra=*/true));
  sched.SetQueued(a, 1);
  sched.SetQueued(b, 1);
  auto slack = sched.PickSlack();
  ASSERT_TRUE(slack.has_value());
  EXPECT_EQ(*slack, b);
}

TEST(Atropos, SlackPickRequiresWork) {
  Simulator sim;
  AtroposScheduler sched(sim);
  (void)*sched.Admit("b", Spec(100, 10, 0, /*extra=*/true));
  EXPECT_FALSE(sched.PickSlack().has_value());
}

TEST(Atropos, TraceRecordsAllocationsAndLax) {
  Simulator sim;
  TraceRecorder trace;
  AtroposScheduler sched(sim, &trace);
  auto a = *sched.Admit("a", Spec(100, 50, 10));
  (void)sched.PickNext();
  sim.RunUntil(Milliseconds(5));
  sched.Charge(a, Milliseconds(5), true);
  sim.RunUntil(Milliseconds(100));
  EXPECT_EQ(trace.Filter("usd", "admit").size(), 1u);
  EXPECT_EQ(trace.Filter("usd", "lax").size(), 1u);
  EXPECT_EQ(trace.Filter("usd", "alloc").size(), 1u);
}

// Property-style sweep: under saturation with several clients, total charged
// time per client tracks its reservation s/p.
class AtroposShareTest : public ::testing::TestWithParam<int> {};

TEST_P(AtroposShareTest, ChargedSharesMatchReservations) {
  Simulator sim;
  AtroposScheduler sched(sim);
  const int variant = GetParam();
  // Three clients in ratio 1:2:4, scaled by variant.
  const int base = 10 + 5 * variant;
  SchedClientId ids[3];
  const int slices[3] = {base, 2 * base, 4 * base};
  for (int i = 0; i < 3; ++i) {
    ids[i] = *sched.Admit("c" + std::to_string(i), Spec(250, slices[i]));
    sched.SetQueued(ids[i], 100);  // always busy
  }
  // Emulate an executor: serve 1 ms transactions for 10 simulated seconds.
  while (sim.Now() < Seconds(10)) {
    auto pick = sched.PickNext();
    if (!pick.has_value()) {
      // Everyone exhausted: advance to the next event (a refresh).
      if (!sim.Step()) {
        break;
      }
      continue;
    }
    sim.RunUntil(sim.Now() + Milliseconds(1));
    sched.Charge(pick->client, Milliseconds(1), pick->lax);
  }
  const double c0 = ToMilliseconds(sched.total_charged(ids[0]));
  const double c1 = ToMilliseconds(sched.total_charged(ids[1]));
  const double c2 = ToMilliseconds(sched.total_charged(ids[2]));
  EXPECT_NEAR(c1 / c0, 2.0, 0.1);
  EXPECT_NEAR(c2 / c0, 4.0, 0.1);
}

INSTANTIATE_TEST_SUITE_P(ShareSweep, AtroposShareTest, ::testing::Values(0, 1, 2, 3));

}  // namespace
}  // namespace nemesis
