// Unit tests for the discrete-event simulator and coroutine layer.
#include <gtest/gtest.h>

#include <algorithm>
#include <coroutine>
#include <deque>
#include <map>
#include <memory>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "src/base/random.h"
#include "src/sim/simulator.h"
#include "src/sim/sync.h"
#include "src/sim/task.h"
#include "src/sim/time.h"
#include "src/sim/trace.h"

namespace nemesis {
namespace {

TEST(Simulator, CallbacksRunInTimeOrder) {
  Simulator sim;
  std::vector<int> order;
  sim.CallAt(Milliseconds(30), [&] { order.push_back(3); });
  sim.CallAt(Milliseconds(10), [&] { order.push_back(1); });
  sim.CallAt(Milliseconds(20), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Milliseconds(30));
}

TEST(Simulator, SameTimeIsFifo) {
  Simulator sim;
  std::vector<int> order;
  for (int i = 0; i < 10; ++i) {
    sim.CallAt(Milliseconds(5), [&order, i] { order.push_back(i); });
  }
  sim.Run();
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(order[i], i);
  }
}

TEST(Simulator, CancelPreventsExecution) {
  Simulator sim;
  bool ran = false;
  uint64_t id = sim.CallAt(Milliseconds(1), [&] { ran = true; });
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, RunUntilStopsAtDeadline) {
  Simulator sim;
  int count = 0;
  sim.CallAt(Milliseconds(10), [&] { ++count; });
  sim.CallAt(Milliseconds(20), [&] { ++count; });
  sim.CallAt(Milliseconds(30), [&] { ++count; });
  sim.RunUntil(Milliseconds(20));
  EXPECT_EQ(count, 2);
  EXPECT_EQ(sim.Now(), Milliseconds(20));
  sim.Run();
  EXPECT_EQ(count, 3);
}

TEST(Simulator, RunUntilAdvancesClockWhenIdle) {
  Simulator sim;
  sim.RunUntil(Seconds(5));
  EXPECT_EQ(sim.Now(), Seconds(5));
}

TEST(Simulator, NestedScheduling) {
  Simulator sim;
  int hits = 0;
  sim.CallAt(Milliseconds(1), [&] {
    ++hits;
    sim.CallAfter(Milliseconds(1), [&] { ++hits; });
  });
  sim.Run();
  EXPECT_EQ(hits, 2);
  EXPECT_EQ(sim.Now(), Milliseconds(2));
}

Task SimpleCounter(Simulator& sim, int* counter, int n) {
  for (int i = 0; i < n; ++i) {
    co_await SleepFor(sim, Milliseconds(10));
    ++*counter;
  }
}

TEST(Tasks, RunsToCompletion) {
  Simulator sim;
  int counter = 0;
  TaskHandle h = sim.Spawn(SimpleCounter(sim, &counter, 5), "counter");
  sim.Run();
  EXPECT_EQ(counter, 5);
  EXPECT_TRUE(h.done());
  EXPECT_EQ(sim.Now(), Milliseconds(50));
}

TEST(Tasks, KillStopsTask) {
  Simulator sim;
  int counter = 0;
  TaskHandle h = sim.Spawn(SimpleCounter(sim, &counter, 100), "counter");
  sim.CallAt(Milliseconds(35), [&] { h.Kill(); });
  sim.Run();
  EXPECT_EQ(counter, 3);
  EXPECT_TRUE(h.done());
  EXPECT_TRUE(h.killed());
}

TEST(Tasks, KillBeforeFirstResume) {
  Simulator sim;
  int counter = 0;
  TaskHandle h = sim.Spawn(SimpleCounter(sim, &counter, 5), "counter");
  h.Kill();
  sim.Run();
  EXPECT_EQ(counter, 0);
  EXPECT_TRUE(h.killed());
}

Task Joiner(Simulator& sim, TaskHandle target, bool* joined, SimTime* when) {
  co_await Join(target);
  *joined = true;
  *when = sim.Now();
}

TEST(Tasks, JoinWaitsForCompletion) {
  Simulator sim;
  int counter = 0;
  TaskHandle worker = sim.Spawn(SimpleCounter(sim, &counter, 3), "worker");
  bool joined = false;
  SimTime when = 0;
  sim.Spawn(Joiner(sim, worker, &joined, &when), "joiner");
  sim.Run();
  EXPECT_TRUE(joined);
  EXPECT_EQ(when, Milliseconds(30));
}

TEST(Tasks, JoinOnKilledTaskCompletes) {
  Simulator sim;
  int counter = 0;
  TaskHandle worker = sim.Spawn(SimpleCounter(sim, &counter, 100), "worker");
  bool joined = false;
  SimTime when = 0;
  sim.Spawn(Joiner(sim, worker, &joined, &when), "joiner");
  sim.CallAt(Milliseconds(15), [&] { worker.Kill(); });
  sim.Run();
  EXPECT_TRUE(joined);
  EXPECT_EQ(when, Milliseconds(15));
}

Task WaitOnCondition(Condition& cv, int* wakeups) {
  co_await cv.Wait();
  ++*wakeups;
}

TEST(Sync, ConditionNotifyAllWakesEveryWaiter) {
  Simulator sim;
  Condition cv(sim);
  int wakeups = 0;
  for (int i = 0; i < 4; ++i) {
    sim.Spawn(WaitOnCondition(cv, &wakeups), "waiter");
  }
  sim.RunUntil(Milliseconds(1));
  EXPECT_EQ(wakeups, 0);
  EXPECT_EQ(cv.waiter_count(), 4u);
  cv.NotifyAll();
  sim.Run();
  EXPECT_EQ(wakeups, 4);
}

TEST(Sync, ConditionNotifyOneWakesOne) {
  Simulator sim;
  Condition cv(sim);
  int wakeups = 0;
  for (int i = 0; i < 3; ++i) {
    sim.Spawn(WaitOnCondition(cv, &wakeups), "waiter");
  }
  sim.RunUntil(Milliseconds(1));
  cv.NotifyOne();
  sim.Run();
  EXPECT_EQ(wakeups, 1);
  cv.NotifyAll();
  sim.Run();
  EXPECT_EQ(wakeups, 3);
}

Task TimedWaiter(Simulator& sim, Condition& cv, SimDuration timeout, bool* notified,
                 SimTime* when) {
  *notified = co_await cv.WaitFor(timeout);
  *when = sim.Now();
}

TEST(Sync, TimedWaitTimesOut) {
  Simulator sim;
  Condition cv(sim);
  bool notified = true;
  SimTime when = 0;
  sim.Spawn(TimedWaiter(sim, cv, Milliseconds(25), &notified, &when), "tw");
  sim.Run();
  EXPECT_FALSE(notified);
  EXPECT_EQ(when, Milliseconds(25));
  EXPECT_EQ(cv.waiter_count(), 0u);
}

TEST(Sync, TimedWaitNotifiedBeforeTimeout) {
  Simulator sim;
  Condition cv(sim);
  bool notified = false;
  SimTime when = 0;
  sim.Spawn(TimedWaiter(sim, cv, Milliseconds(25), &notified, &when), "tw");
  sim.CallAt(Milliseconds(5), [&] { cv.NotifyAll(); });
  sim.Run();
  EXPECT_TRUE(notified);
  EXPECT_EQ(when, Milliseconds(5));
}

TEST(Sync, KilledWaiterLeavesConditionBeforeNotifyAll) {
  Simulator sim;
  Condition cv(sim);
  int wakeups = 0;
  std::vector<TaskHandle> waiters;
  for (int i = 0; i < 3; ++i) {
    waiters.push_back(sim.Spawn(WaitOnCondition(cv, &wakeups), "waiter"));
  }
  sim.RunUntil(Milliseconds(1));
  waiters[1].Kill();
  EXPECT_EQ(cv.waiter_count(), 2u);
  const uint64_t events_before = sim.events_executed();
  cv.NotifyAll();
  sim.Run();
  EXPECT_EQ(wakeups, 2);
  // One wakeup event per live waiter; none for the killed one.
  EXPECT_EQ(sim.events_executed() - events_before, 2u);
  EXPECT_TRUE(waiters[0].done());
  EXPECT_TRUE(waiters[1].killed());
  EXPECT_TRUE(waiters[2].done());
}

TEST(Sync, TimedWaiterKilledBeforeTimeoutCancelsItsTimer) {
  Simulator sim;
  Condition cv(sim);
  bool notified = false;
  SimTime when = -1;
  TaskHandle h = sim.Spawn(TimedWaiter(sim, cv, Milliseconds(25), &notified, &when), "tw");
  sim.CallAt(Milliseconds(5), [&] { h.Kill(); });
  sim.Run();
  EXPECT_TRUE(h.killed());
  EXPECT_EQ(when, -1);
  EXPECT_EQ(cv.waiter_count(), 0u);
  // The timeout was cancelled, so the queue drained at the kill.
  EXPECT_EQ(sim.Now(), Milliseconds(5));
  EXPECT_EQ(sim.pending_events(), 0u);
  cv.NotifyAll();
  EXPECT_EQ(sim.pending_events(), 0u);
}

Task RewaitingWaiter(Condition& cv, int rounds, int* wakeups) {
  for (int i = 0; i < rounds; ++i) {
    co_await cv.Wait();
    ++*wakeups;
  }
}

TEST(Sync, RewaitAfterWakeupNeedsAFreshNotify) {
  Simulator sim;
  Condition cv(sim);
  int a = 0;
  int b = 0;
  sim.Spawn(RewaitingWaiter(cv, 3, &a), "a");
  sim.Spawn(RewaitingWaiter(cv, 3, &b), "b");
  sim.RunUntil(Milliseconds(1));
  cv.NotifyAll();
  sim.Run();
  // Each woke once and waits again; the first notify did not wake them twice.
  EXPECT_EQ(a, 1);
  EXPECT_EQ(b, 1);
  EXPECT_EQ(cv.waiter_count(), 2u);
  cv.NotifyAll();
  sim.Run();
  EXPECT_EQ(a, 2);
  EXPECT_EQ(b, 2);
}

TEST(Sync, DestroyedConditionCancelsPendingTimeouts) {
  Simulator sim;
  auto cv = std::make_unique<Condition>(sim);
  bool notified = false;
  SimTime when = -1;
  TaskHandle h = sim.Spawn(TimedWaiter(sim, *cv, Milliseconds(25), &notified, &when), "tw");
  sim.RunUntil(Milliseconds(1));
  cv.reset();
  sim.Run();
  // The waiter stays suspended; its timeout never fires into the freed object.
  EXPECT_EQ(when, -1);
  EXPECT_FALSE(h.done());
  EXPECT_EQ(sim.pending_events(), 0u);
}

Task WaitForever(Condition& cv) {
  for (;;) {
    co_await cv.Wait();
  }
}

TEST(Tasks, OwnedTaskSetWithManyLiveTasks) {
  constexpr size_t kLive = 300;
  Simulator sim;
  Condition cv(sim);
  OwnedTaskSet set;
  std::vector<TaskHandle> live;
  for (size_t i = 0; i < kLive; ++i) {
    live.push_back(set.Adopt(sim.Spawn(WaitForever(cv), "live")));
  }
  sim.RunUntil(Milliseconds(1));
  EXPECT_EQ(set.size(), kLive);
  EXPECT_EQ(cv.waiter_count(), kLive);
  // Tasks that finish between adopts are pruned in batches: the set never
  // holds more than twice its live population.
  int counter = 0;
  for (int i = 0; i < 1000; ++i) {
    set.Adopt(sim.Spawn(SimpleCounter(sim, &counter, 1), "short"));
    sim.RunUntil(sim.Now() + Milliseconds(10));
    ASSERT_LE(set.size(), 2 * kLive + 1);
  }
  EXPECT_EQ(counter, 1000);
  EXPECT_GE(set.size(), kLive);
  set.KillAll();
  EXPECT_EQ(set.size(), 0u);
  EXPECT_TRUE(set.empty());
  for (const TaskHandle& h : live) {
    EXPECT_TRUE(h.killed());
    EXPECT_TRUE(h.done());
  }
  EXPECT_EQ(cv.waiter_count(), 0u);
}

// Sets *flag when destroyed; moving hands the duty to the new object, so a
// coroutine parameter signals exactly when its frame dies.
class DestructionFlag {
 public:
  explicit DestructionFlag(bool* flag) : flag_(flag) {}
  DestructionFlag(DestructionFlag&& other) noexcept : flag_(std::exchange(other.flag_, nullptr)) {}
  DestructionFlag& operator=(DestructionFlag&&) = delete;
  ~DestructionFlag() {
    if (flag_ != nullptr) {
      *flag_ = true;
    }
  }

 private:
  bool* flag_;
};

Task HoldsFlag([[maybe_unused]] DestructionFlag flag) { co_return; }

TEST(Tasks, DroppedUnspawnedTaskDestroysItsFrame) {
  bool destroyed = false;
  {
    Task task = HoldsFlag(DestructionFlag(&destroyed));
    EXPECT_FALSE(destroyed);
  }
  EXPECT_TRUE(destroyed);
}

// --- Inline sub-tasks (co_await of a Task) -----------------------------------

// Logs its steps and, just before it returns, queues a same-time event: the
// exit hop must run the parent after that event, as a Join wakeup did.
Task LoggingChild(Simulator& sim, std::vector<std::string>* log) {
  log->push_back("child runs");
  sim.CallAfter(0, [log] { log->push_back("event queued by child"); });
  co_return;
}

// Queues a same-time event, then runs LoggingChild inline or as a spawned
// task it joins: the entry hop must run the child after that event, as a
// spawned task's first resume did.
Task LoggingParent(Simulator& sim, bool inline_child, std::vector<std::string>* log) {
  log->push_back("parent starts");
  sim.CallAfter(0, [log] { log->push_back("event queued by parent"); });
  if (inline_child) {
    co_await LoggingChild(sim, log);
  } else {
    TaskHandle h = sim.Spawn(LoggingChild(sim, log), "child");
    co_await Join(h);
  }
  log->push_back("parent resumes");
}

TEST(Tasks, InlineChildInterleavesLikeSpawnAndJoin) {
  std::vector<std::string> logs[2];
  uint64_t events[2] = {};
  for (const bool inline_child : {false, true}) {
    Simulator sim;
    std::vector<std::string>& log = logs[inline_child];
    sim.Spawn(LoggingParent(sim, inline_child, &log), "parent");
    sim.Run();
    events[inline_child] = sim.events_executed();
    EXPECT_EQ(sim.task_registry_size(), inline_child ? 1u : 2u);
  }
  EXPECT_EQ(logs[1], logs[0]);
  EXPECT_EQ(logs[1], (std::vector<std::string>{"parent starts", "event queued by parent",
                                               "child runs", "event queued by child",
                                               "parent resumes"}));
  EXPECT_EQ(events[1], events[0]);
}

Task ChildWaitingOnCondition(Condition& cv, bool* woke) {
  co_await cv.WaitFor(Milliseconds(5));
  *woke = true;
}

Task ChildSleeping(Simulator& sim, bool* woke) {
  co_await SleepFor(sim, Milliseconds(5));
  *woke = true;
}

Task ParentOf(Task child, bool* resumed) {
  co_await std::move(child);
  *resumed = true;
}

TEST(Tasks, InlineKilledParentUnlinksChildConditionWait) {
  Simulator sim;
  Condition cv(sim);
  bool child_woke = false;
  bool parent_resumed = false;
  TaskHandle h = sim.Spawn(ParentOf(ChildWaitingOnCondition(cv, &child_woke), &parent_resumed),
                           "parent");
  bool joined = false;
  SimTime joined_at = -1;
  sim.Spawn(Joiner(sim, h, &joined, &joined_at), "joiner");
  sim.RunUntil(Milliseconds(1));
  ASSERT_EQ(cv.waiter_count(), 1u);
  h.Kill();
  // Destroying the parent destroyed the child: its wait entry and its
  // timeout are gone, so nothing fires into the freed frame at 5 ms.
  EXPECT_EQ(cv.waiter_count(), 0u);
  sim.Run();
  EXPECT_TRUE(h.killed());
  EXPECT_FALSE(child_woke);
  EXPECT_FALSE(parent_resumed);
  EXPECT_TRUE(joined);
  EXPECT_EQ(joined_at, Milliseconds(1));
  EXPECT_EQ(sim.Now(), Milliseconds(1));
  cv.NotifyAll();
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Tasks, InlineKilledParentTurnsChildDelayIntoNoOp) {
  Simulator sim;
  bool child_woke = false;
  bool parent_resumed = false;
  TaskHandle h = sim.Spawn(ParentOf(ChildSleeping(sim, &child_woke), &parent_resumed), "parent");
  bool joined = false;
  SimTime joined_at = -1;
  sim.Spawn(Joiner(sim, h, &joined, &joined_at), "joiner");
  sim.CallAt(Milliseconds(1), [&] { h.Kill(); });
  sim.Run();  // the child's 5 ms timer still fires, into a dead task
  EXPECT_TRUE(h.killed());
  EXPECT_FALSE(child_woke);
  EXPECT_FALSE(parent_resumed);
  EXPECT_TRUE(joined);
  EXPECT_EQ(joined_at, Milliseconds(1));
  EXPECT_EQ(sim.pending_events(), 0u);
}

Task SelfKillingChild(Simulator& sim, const TaskHandle* self, bool* before, bool* after) {
  co_await SleepFor(sim, Milliseconds(1));
  self->state()->Kill();  // takes effect at the next suspension
  *before = true;
  co_await SleepFor(sim, Milliseconds(1));
  *after = true;
}

TEST(Tasks, InlineChildKillsItsOwnTask) {
  Simulator sim;
  TaskHandle self;
  bool before = false;
  bool after = false;
  bool parent_resumed = false;
  self = sim.Spawn(ParentOf(SelfKillingChild(sim, &self, &before, &after), &parent_resumed),
                   "parent");
  bool joined = false;
  SimTime joined_at = -1;
  sim.Spawn(Joiner(sim, self, &joined, &joined_at), "joiner");
  sim.Run();
  EXPECT_TRUE(self.killed());
  EXPECT_TRUE(self.done());
  EXPECT_TRUE(before);
  EXPECT_FALSE(after);
  EXPECT_FALSE(parent_resumed);
  EXPECT_TRUE(joined);
  EXPECT_EQ(joined_at, Milliseconds(1));
}

struct Nest {
  Simulator* sim;
  Condition* cv;
  Mailbox<int>* box;
  std::vector<std::string>* log;

  void Note(const std::string& what) const {
    log->push_back(what + " @" + std::to_string(sim->Now() / Microseconds(1)));
  }
};

Task Leaf(Nest n) {
  co_await SleepFor(*n.sim, Microseconds(10));
  n.Note("leaf slept");
  co_await n.cv->Wait();
  n.Note("leaf notified");
  const int v = co_await n.box->Recv();
  n.Note("leaf got " + std::to_string(v));
}

Task Middle(Nest n) {
  co_await n.cv->Wait();
  n.Note("middle notified");
  co_await Leaf(n);
  n.Note("middle back");
  co_await SleepFor(*n.sim, Microseconds(5));
  n.Note("middle slept");
}

Task Top(Nest n) {
  co_await SleepFor(*n.sim, Microseconds(1));
  n.Note("top slept");
  co_await Middle(n);
  const int v = co_await n.box->Recv();
  n.Note("top got " + std::to_string(v));
}

TEST(Tasks, InlineThreeLevelsResumeThroughEveryWaitKind) {
  Simulator sim;
  Condition cv(sim);
  Mailbox<int> box(sim, 1);
  std::vector<std::string> log;
  const Nest n{&sim, &cv, &box, &log};
  TaskHandle h = sim.Spawn(Top(n), "top");
  sim.CallAt(Microseconds(2), [&] { cv.NotifyAll(); });
  sim.CallAt(Microseconds(20), [&] { cv.NotifyAll(); });
  sim.CallAt(Microseconds(30), [&] { EXPECT_TRUE(box.TrySend(7)); });
  sim.CallAt(Microseconds(40), [&] { EXPECT_TRUE(box.TrySend(8)); });
  sim.Run();
  EXPECT_TRUE(h.done());
  EXPECT_FALSE(h.killed());
  EXPECT_EQ(log, (std::vector<std::string>{"top slept @1", "middle notified @2",
                                           "leaf slept @12", "leaf notified @20",
                                           "leaf got 7 @30", "middle back @30",
                                           "middle slept @35", "top got 8 @40"}));
  EXPECT_EQ(sim.task_registry_size(), 1u);
}

Task SemWorker(Simulator& sim, Semaphore& sem, int* active, int* max_active) {
  co_await sem.Acquire();
  ++*active;
  *max_active = std::max(*max_active, *active);
  co_await SleepFor(sim, Milliseconds(10));
  --*active;
  sem.Release();
}

TEST(Sync, SemaphoreLimitsConcurrency) {
  Simulator sim;
  Semaphore sem(sim, 2);
  int active = 0;
  int max_active = 0;
  for (int i = 0; i < 6; ++i) {
    sim.Spawn(SemWorker(sim, sem, &active, &max_active), "sw");
  }
  sim.Run();
  EXPECT_EQ(active, 0);
  EXPECT_EQ(max_active, 2);
  EXPECT_EQ(sem.count(), 2);
}

Task Producer(Simulator& sim, Mailbox<int>& box, int n) {
  for (int i = 0; i < n; ++i) {
    co_await box.Send(i);
    co_await SleepFor(sim, Milliseconds(1));
  }
}

Task Consumer(Mailbox<int>& box, int n, std::vector<int>* out) {
  for (int i = 0; i < n; ++i) {
    int v = co_await box.Recv();
    out->push_back(v);
  }
}

TEST(Sync, MailboxDeliversInOrder) {
  Simulator sim;
  Mailbox<int> box(sim, 4);
  std::vector<int> got;
  sim.Spawn(Producer(sim, box, 10), "prod");
  sim.Spawn(Consumer(box, 10, &got), "cons");
  sim.Run();
  ASSERT_EQ(got.size(), 10u);
  for (int i = 0; i < 10; ++i) {
    EXPECT_EQ(got[i], i);
  }
}

Task BlockingProducer(Simulator& sim, Mailbox<int>& box, int n, SimTime* finished) {
  for (int i = 0; i < n; ++i) {
    co_await box.Send(i);
  }
  *finished = sim.Now();
}

Task SlowConsumer(Simulator& sim, Mailbox<int>& box, int n) {
  for (int i = 0; i < n; ++i) {
    co_await SleepFor(sim, Milliseconds(10));
    (void)co_await box.Recv();
  }
}

TEST(Sync, MailboxBackpressureBlocksSender) {
  Simulator sim;
  Mailbox<int> box(sim, 2);
  SimTime finished = 0;
  sim.Spawn(BlockingProducer(sim, box, 6, &finished), "prod");
  sim.Spawn(SlowConsumer(sim, box, 6), "cons");
  sim.Run();
  // With capacity 2 the producer cannot finish before 4 consumer receives.
  EXPECT_GE(finished, Milliseconds(40));
}

TEST(Sync, MailboxTryOperations) {
  Simulator sim;
  Mailbox<int> box(sim, 1);
  EXPECT_FALSE(box.TryRecv().has_value());
  EXPECT_TRUE(box.TrySend(7));
  EXPECT_FALSE(box.TrySend(8));
  auto v = box.TryRecv();
  ASSERT_TRUE(v.has_value());
  EXPECT_EQ(*v, 7);
}

TEST(Sync, MailboxRendezvousCapacityZero) {
  Simulator sim;
  Mailbox<int> box(sim, 0);
  std::vector<int> got;
  sim.Spawn(Producer(sim, box, 3), "prod");
  sim.Spawn(Consumer(box, 3, &got), "cons");
  sim.Run();
  EXPECT_EQ(got, (std::vector<int>{0, 1, 2}));
}

TEST(Trace, RecordsAndFilters) {
  TraceRecorder tr;
  tr.Record(Milliseconds(1), "usd", 0, "txn", 5.0, 1.0);
  tr.Record(Milliseconds(2), "usd", 1, "txn", 6.0, 2.0);
  tr.Record(Milliseconds(3), "usd", 0, "lax", 1.0, 0.0);
  tr.Record(Milliseconds(4), "mm", 0, "fault", 0.0, 0.0);
  EXPECT_EQ(tr.records().size(), 4u);
  EXPECT_EQ(tr.Filter("usd").size(), 3u);
  EXPECT_EQ(tr.Filter("usd", "txn").size(), 2u);
  EXPECT_EQ(tr.Filter("usd", "txn", 0).size(), 1u);
  EXPECT_EQ(tr.Filter("", "", 0).size(), 3u);
}

TEST(Trace, NamesInternOnceAndRoundTrip) {
  const TraceName a("round-trip-name");
  const TraceName b(std::string("round-trip-") + "name");
  EXPECT_EQ(a, b);
  EXPECT_EQ(a.id(), b.id());
  EXPECT_EQ(a.str(), "round-trip-name");
  EXPECT_NE(a, TraceName("round-trip-other"));
  EXPECT_TRUE(TraceName().empty());
  EXPECT_EQ(TraceName().str(), "");
  EXPECT_EQ(TraceName::Find("round-trip-name"), a);
  // A record carries the names by id and hands back the same text.
  TraceRecorder tr;
  tr.Record(Milliseconds(1), a, 3, "round-trip-event", 1.0, 2.0);
  ASSERT_EQ(tr.records().size(), 1u);
  EXPECT_EQ(tr.records()[0].category, a);
  EXPECT_EQ(tr.records()[0].event.str(), "round-trip-event");
  EXPECT_EQ(tr.Filter("round-trip-name", "round-trip-event").size(), 1u);
  // Filtering by a name never interned matches nothing and interns nothing.
  EXPECT_TRUE(tr.Filter("round-trip-never").empty());
  EXPECT_TRUE(TraceName::Find("round-trip-never").empty());
}

TEST(Trace, DisabledRecorderDropsRecords) {
  TraceRecorder tr;
  tr.set_enabled(false);
  tr.Record(0, "usd", 0, "txn");
  EXPECT_TRUE(tr.records().empty());
}

TEST(Trace, WritesCsv) {
  TraceRecorder tr;
  tr.Record(Milliseconds(1), "usd", 0, "txn", 5.0, 1.0);
  const std::string path = ::testing::TempDir() + "/trace_test.csv";
  ASSERT_TRUE(tr.WriteCsv(path));
  std::FILE* f = std::fopen(path.c_str(), "r");
  ASSERT_NE(f, nullptr);
  char line[256];
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  EXPECT_EQ(std::string(line), "time_ms,category,client,event,value_a,value_b\n");
  ASSERT_NE(std::fgets(line, sizeof(line), f), nullptr);
  EXPECT_NE(std::string(line).find("usd"), std::string::npos);
  std::fclose(f);
}

// ---------------------------------------------------------------------------
// Invariants the event loop must preserve exactly (the figure
// benches depend on scheduling order being bit-for-bit stable).
// ---------------------------------------------------------------------------

TEST(Simulator, InterleavedTimesStayFifoWithinEachTime) {
  Simulator sim;
  // Issue events over 4 timestamps in a scrambled order; within each
  // timestamp they must fire in issue order, and timestamps in time order.
  std::vector<std::pair<SimTime, int>> fired;
  std::vector<std::pair<SimTime, int>> issued;
  int issue = 0;
  for (int round = 0; round < 8; ++round) {
    for (SimTime t : {30, 10, 40, 20}) {
      issued.emplace_back(t, issue);
      sim.CallAt(t, [&fired, t, i = issue] { fired.emplace_back(t, i); });
      ++issue;
    }
  }
  sim.Run();
  std::stable_sort(issued.begin(), issued.end(),
                   [](const auto& a, const auto& b) { return a.first < b.first; });
  EXPECT_EQ(fired, issued);
}

TEST(Simulator, SameTimeEventScheduledMidBatchRunsLast) {
  Simulator sim;
  std::vector<int> order;
  sim.CallAt(Milliseconds(5), [&] {
    order.push_back(1);
    // Scheduled *for the running timestamp* during the batch: must fire
    // after every event that was already pending at t=5.
    sim.CallAt(Milliseconds(5), [&] { order.push_back(3); });
  });
  sim.CallAt(Milliseconds(5), [&] { order.push_back(2); });
  sim.Run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
  EXPECT_EQ(sim.Now(), Milliseconds(5));
}

TEST(Simulator, StepHonoursGlobalOrderAcrossTimes) {
  Simulator sim;
  std::vector<int> order;
  sim.CallAt(Milliseconds(2), [&] { order.push_back(3); });
  sim.CallAt(Milliseconds(1), [&] { order.push_back(1); });
  sim.CallAt(Milliseconds(1), [&] { order.push_back(2); });
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(sim.Now(), Milliseconds(1));
  EXPECT_TRUE(sim.Step());
  EXPECT_TRUE(sim.Step());
  EXPECT_EQ(sim.Now(), Milliseconds(2));
  EXPECT_FALSE(sim.Step());
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(Simulator, IdsAreNeverZero) {
  // Atropos and the frames allocator use id 0 as a "no timer pending"
  // sentinel, so CallAt may never hand out 0.
  Simulator sim;
  for (int i = 0; i < 100; ++i) {
    const uint64_t id = sim.CallAfter(1, [] {});
    EXPECT_NE(id, 0u);
  }
  sim.Run();
}

TEST(Simulator, CancelFiredIdIsNoOp) {
  Simulator sim;
  int count = 0;
  const uint64_t id = sim.CallAt(Milliseconds(1), [&] { ++count; });
  sim.Run();
  EXPECT_EQ(count, 1);
  sim.Cancel(id);  // already fired: must not disturb anything
  sim.CallAt(Milliseconds(2), [&] { ++count; });
  sim.Run();
  EXPECT_EQ(count, 2);
}

TEST(Simulator, CancelUnknownIdIsNoOp) {
  Simulator sim;
  sim.Cancel(0);                        // the sentinel
  sim.Cancel((1ull << 32) | 12345);     // never-issued slot/generation
  sim.Cancel((9999ull << 32) | 1);      // slot index out of range
  bool ran = false;
  sim.CallAt(Milliseconds(1), [&] { ran = true; });
  sim.Run();
  EXPECT_TRUE(ran);
}

TEST(Simulator, StaleIdCannotCancelRecycledSlot) {
  Simulator sim;
  bool second_ran = false;
  const uint64_t id1 = sim.CallAt(Milliseconds(1), [] {});
  sim.Run();  // id1 fires; its handle slot is recycled
  const uint64_t id2 = sim.CallAt(Milliseconds(2), [&] { second_ran = true; });
  EXPECT_NE(id1, id2);  // generation stamp differs even if the slot matches
  sim.Cancel(id1);      // stale id: must NOT cancel the recycled slot
  sim.Run();
  EXPECT_TRUE(second_ran);
}

TEST(Simulator, DoubleCancelIsNoOp) {
  Simulator sim;
  bool ran = false;
  const uint64_t id = sim.CallAt(Milliseconds(1), [&] { ran = true; });
  sim.Cancel(id);
  sim.Cancel(id);
  sim.Run();
  EXPECT_FALSE(ran);
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Simulator, CancelOwnIdDuringCallbackIsNoOp) {
  Simulator sim;
  uint64_t id = 0;
  bool after_ran = false;
  id = sim.CallAt(Milliseconds(1), [&] {
    sim.Cancel(id);  // the running event's id is already released
    sim.CallAt(Milliseconds(2), [&] { after_ran = true; });
  });
  sim.Run();
  EXPECT_TRUE(after_ran);
}

TEST(Simulator, PendingEventsTracksCancelAndFire) {
  Simulator sim;
  const uint64_t a = sim.CallAt(Milliseconds(1), [] {});
  sim.CallAt(Milliseconds(1), [] {});
  sim.CallAt(Milliseconds(2), [] {});
  EXPECT_EQ(sim.pending_events(), 3u);
  sim.Cancel(a);
  EXPECT_EQ(sim.pending_events(), 2u);
  sim.RunUntil(Milliseconds(1));
  EXPECT_EQ(sim.pending_events(), 1u);
  sim.Run();
  EXPECT_EQ(sim.pending_events(), 0u);
  EXPECT_EQ(sim.events_executed(), 2u);
}

TEST(Simulator, ManyColocatedTimestampsKeepOrder) {
  // Many live timestamps, each holding two events queued a pass apart: they
  // fire in time order, and FIFO within each time.
  Simulator sim;
  std::vector<int> order;
  const int kTimes = 300;
  for (int pass = 0; pass < 2; ++pass) {
    for (int i = 0; i < kTimes; ++i) {
      const SimTime t = 1000 + static_cast<SimTime>(i) * 64;  // alias-prone stride
      sim.CallAt(t, [&order, i, pass] { order.push_back(i * 2 + pass); });
    }
  }
  sim.Run();
  ASSERT_EQ(order.size(), static_cast<size_t>(kTimes * 2));
  for (int i = 0; i < kTimes; ++i) {
    EXPECT_EQ(order[i * 2], i * 2);          // pass-0 event first (FIFO)
    EXPECT_EQ(order[i * 2 + 1], i * 2 + 1);  // then the pass-1 event
  }
}

// A miniature workload recorded twice must produce identical traces: the
// golden-trace guard for the figure benches' determinism.
void RunGoldenScenario(TraceRecorder* tr) {
  Simulator sim;
  uint64_t cancel_me = 0;
  for (int lane = 0; lane < 4; ++lane) {
    sim.CallAt(Milliseconds(1 + lane % 2), [&sim, tr, lane] {
      tr->Record(sim.Now(), "sim", lane, "fire", lane, 0.0);
      sim.CallAfter(Milliseconds(2), [&sim, tr, lane] {
        tr->Record(sim.Now(), "sim", lane, "echo", lane, 1.0);
      });
    });
  }
  cancel_me = sim.CallAt(Milliseconds(2), [&sim, tr] {
    tr->Record(sim.Now(), "sim", -1, "never", 0.0, 0.0);
  });
  sim.Cancel(cancel_me);
  sim.RunUntil(Milliseconds(2));
  sim.Run();
}

TEST(Simulator, GoldenTraceIsDeterministic) {
  TraceRecorder a;
  TraceRecorder b;
  RunGoldenScenario(&a);
  RunGoldenScenario(&b);
  ASSERT_EQ(a.records().size(), b.records().size());
  for (size_t i = 0; i < a.records().size(); ++i) {
    const TraceRecord& ra = a.records()[i];
    const TraceRecord& rb = b.records()[i];
    EXPECT_EQ(ra.time, rb.time) << "record " << i;
    EXPECT_EQ(ra.client, rb.client) << "record " << i;
    EXPECT_EQ(ra.event, rb.event) << "record " << i;
    EXPECT_EQ(ra.value_a, rb.value_a) << "record " << i;
  }
  // Golden expectations: fires at t=1/t=2 in lane order, echoes 2ms later,
  // and the cancelled event never records.
  ASSERT_EQ(a.records().size(), 8u);
  EXPECT_EQ(a.Filter("sim", "fire").size(), 4u);
  EXPECT_EQ(a.Filter("sim", "echo").size(), 4u);
  EXPECT_EQ(a.Filter("sim", "never").size(), 0u);
  EXPECT_EQ(a.records()[0].event, "fire");   // lanes 0,2 at t=1
  EXPECT_EQ(a.records()[0].client, 0);
  EXPECT_EQ(a.records()[1].client, 2);
  EXPECT_EQ(a.records()[2].client, 1);       // lanes 1,3 at t=2
  EXPECT_EQ(a.records()[3].client, 3);
}

// --- Zero-delay wakeups through the handoff register -------------------------
//
// Simulator::ResumeNow may run a same-time resume from a one-entry register
// instead of the queue. Every case below pins an order or a count that a
// queued CallAfter(0, Resume) produced, and checks resumes_held() so the case
// provably exercises the path it names.

Task LogAfterWait(Condition& cv, std::vector<std::string>* log, std::string name) {
  co_await cv.Wait();
  log->push_back(std::move(name));
}

TEST(Handoff, WakeThenSameTimeEventRunsTheWaiterFirst) {
  for (const bool queue_event : {false, true}) {
    Simulator sim;
    Condition cv(sim);
    std::vector<std::string> log;
    sim.Spawn(LogAfterWait(cv, &log, "waiter"), "waiter");
    sim.CallAt(Microseconds(1), [&] {
      cv.NotifyOne();
      if (queue_event) {
        sim.CallAfter(0, [&] { log.push_back("event"); });
      }
    });
    sim.Run();
    // The waiter's resume is held either way; the event queued behind it
    // must not overtake it.
    EXPECT_EQ(sim.resumes_held(), 1u);
    EXPECT_EQ(log, (queue_event ? std::vector<std::string>{"waiter", "event"}
                                : std::vector<std::string>{"waiter"}));
  }
}

TEST(Handoff, SameTimeEventThenWakeRunsTheEventFirst) {
  Simulator sim;
  Condition cv(sim);
  std::vector<std::string> log;
  sim.Spawn(LogAfterWait(cv, &log, "waiter"), "waiter");
  sim.CallAt(Microseconds(1), [&] {
    sim.CallAfter(0, [&] { log.push_back("event"); });
    cv.NotifyOne();  // an entry is queued behind the running event: no hold
  });
  sim.Run();
  EXPECT_EQ(sim.resumes_held(), 0u);
  EXPECT_EQ(log, (std::vector<std::string>{"event", "waiter"}));
}

TEST(Handoff, NotifyAllHoldsOnlyTheFirstWaiterAndKeepsFifo) {
  Simulator sim;
  Condition cv(sim);
  std::vector<std::string> log;
  for (const char* name : {"w1", "w2", "w3"}) {
    sim.Spawn(LogAfterWait(cv, &log, name), name);
  }
  sim.CallAt(Microseconds(1), [&] {
    cv.NotifyAll();
    sim.CallAfter(0, [&] { log.push_back("event"); });
  });
  sim.Run();
  EXPECT_EQ(sim.resumes_held(), 1u);
  EXPECT_EQ(log, (std::vector<std::string>{"w1", "w2", "w3", "event"}));
}

TEST(Handoff, TaskKilledWhileItsResumeIsHeldGetsANoOpResume) {
  Simulator sim;
  Condition cv(sim);
  std::vector<std::string> log;
  bool frame_destroyed = false;
  TaskHandle h = sim.Spawn(
      [](Condition& c, std::vector<std::string>* l,
         [[maybe_unused]] DestructionFlag flag) -> Task {
        co_await c.Wait();
        l->push_back("woke");
      }(cv, &log, DestructionFlag(&frame_destroyed)),
      "victim");
  sim.CallAt(Microseconds(1), [&] {
    cv.NotifyOne();
    EXPECT_EQ(sim.pending_events(), 1u);  // the held resume
    h.Kill();
    EXPECT_TRUE(frame_destroyed);
  });
  sim.Run();
  EXPECT_EQ(sim.resumes_held(), 1u);  // ran from the register, as a no-op
  EXPECT_TRUE(h.killed());
  EXPECT_TRUE(h.done());
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(sim.pending_events(), 0u);
}

TEST(Handoff, TaskKilledWhileItsResumeIsHeldFiresItsJoinWatcherOnce) {
  Simulator sim;
  Condition cv(sim);
  std::vector<std::string> log;
  TaskHandle h = sim.Spawn(LogAfterWait(cv, &log, "woke"), "victim");
  int joins = 0;
  SimTime joined_at = -1;
  sim.Spawn(
      [](Simulator& s, TaskHandle target, int* n, SimTime* at) -> Task {
        co_await Join(target);
        ++*n;
        *at = s.Now();
      }(sim, h, &joins, &joined_at),
      "joiner");
  sim.CallAt(Microseconds(1), [&] {
    cv.NotifyOne();
    h.Kill();  // queues the Join wakeup behind the held resume
  });
  sim.Run();
  EXPECT_TRUE(log.empty());
  EXPECT_EQ(joins, 1);
  EXPECT_EQ(joined_at, Microseconds(1));
  EXPECT_GE(sim.resumes_held(), 1u);
}

// From inside the only event at Now(), queues 1024 events at later
// timestamps: whether a wake is held depends only on what is queued for
// Now(), never on how many later timestamps are pending.
void QueueManyLaterTimestamps(Simulator& sim) {
  for (int i = 1; i <= 1024; ++i) {
    sim.CallAfter(i, [] {});
  }
}

TEST(Handoff, WakeAmongManyPendingTimestampsKeepsFifo) {
  // Nothing else is queued for Now(): the wake is held.
  {
    Simulator sim;
    Condition cv(sim);
    std::vector<std::string> log;
    sim.Spawn(LogAfterWait(cv, &log, "waiter"), "waiter");
    sim.CallAt(Microseconds(1), [&] {
      QueueManyLaterTimestamps(sim);
      cv.NotifyOne();
    });
    sim.Run();
    EXPECT_EQ(sim.resumes_held(), 1u);
    EXPECT_EQ(log, (std::vector<std::string>{"waiter"}));
  }
  // An event queued for Now() before the wake runs before the waiter; holding
  // the wake would have overtaken it.
  {
    Simulator sim;
    Condition cv(sim);
    std::vector<std::string> log;
    sim.Spawn(LogAfterWait(cv, &log, "waiter"), "waiter");
    sim.CallAt(Microseconds(1), [&] {
      QueueManyLaterTimestamps(sim);
      sim.CallAfter(0, [&] { log.push_back("event"); });
      cv.NotifyOne();
    });
    sim.Run();
    EXPECT_EQ(sim.resumes_held(), 0u);
    EXPECT_EQ(log, (std::vector<std::string>{"event", "waiter"}));
  }
  // Events queued after the hold, for later times and for Now(), cannot
  // overtake the held resume.
  {
    Simulator sim;
    Condition cv(sim);
    std::vector<std::string> log;
    sim.Spawn(LogAfterWait(cv, &log, "waiter"), "waiter");
    sim.CallAt(Microseconds(1), [&] {
      cv.NotifyOne();
      QueueManyLaterTimestamps(sim);
      sim.CallAfter(0, [&] { log.push_back("event"); });
    });
    sim.Run();
    EXPECT_EQ(sim.resumes_held(), 1u);
    EXPECT_EQ(log, (std::vector<std::string>{"waiter", "event"}));
  }
}

// Two tasks handing a token back and forth through Conditions, with inline
// children on one side: every step is a same-time resume.
struct PingPong {
  Simulator* sim;
  Condition* ping;
  Condition* pong;
  std::vector<std::string>* log;
  int rounds;
};

Task PingChild(PingPong p, int round) {
  p.log->push_back("child " + std::to_string(round));
  co_return;
}

Task Pinger(PingPong p) {
  for (int i = 0; i < p.rounds; ++i) {
    co_await p.ping->Wait();
    p.log->push_back("ping " + std::to_string(i));
    co_await PingChild(p, i);
    p.pong->NotifyOne();
  }
}

Task Ponger(PingPong p) {
  for (int i = 0; i < p.rounds; ++i) {
    p.ping->NotifyOne();
    co_await p.pong->Wait();
    p.log->push_back("pong " + std::to_string(i));
  }
}

struct PingPongRun {
  std::vector<std::string> log;
  uint64_t events = 0;
  uint64_t held = 0;
  uint64_t in_place = 0;
  uint64_t hooks = 0;
};

PingPongRun RunPingPong(bool step) {
  PingPongRun r;
  Simulator sim;
  Condition ping(sim);
  Condition pong(sim);
  sim.set_post_event_hook([&r] { ++r.hooks; });
  const PingPong p{&sim, &ping, &pong, &r.log, 5};
  sim.CallAt(Microseconds(1), [&] {
    sim.Spawn(Pinger(p), "pinger");
    sim.Spawn(Ponger(p), "ponger");
  });
  if (step) {
    while (sim.Step()) {
    }
  } else {
    sim.Run();
  }
  r.events = sim.events_executed();
  r.held = sim.resumes_held();
  r.in_place = sim.resumes_in_place();
  EXPECT_EQ(sim.pending_events(), 0u);
  return r;
}

TEST(Handoff, StepNeverHoldsAResume) {
  const PingPongRun stepped = RunPingPong(/*step=*/true);
  const PingPongRun ran = RunPingPong(/*step=*/false);
  EXPECT_EQ(stepped.held, 0u);
  EXPECT_EQ(stepped.in_place, 0u);
  EXPECT_GT(ran.held, 0u);
  EXPECT_GT(ran.in_place, 0u);
  EXPECT_EQ(ran.log, stepped.log);
  // Every hop Run ran in place is an event Step queued.
  EXPECT_EQ(ran.events + ran.in_place, stepped.events);
  EXPECT_EQ(ran.log.front(), "ping 0");
  EXPECT_EQ(ran.log.back(), "pong 4");
}

TEST(Handoff, HeldResumesCountLikeQueuedOnes) {
  const PingPongRun stepped = RunPingPong(/*step=*/true);
  const PingPongRun ran = RunPingPong(/*step=*/false);
  // Every resume is an executed event and passes the post-event hook,
  // whether it ran from the register or from the queue.
  EXPECT_EQ(ran.hooks, ran.events);
  EXPECT_EQ(stepped.hooks, stepped.events);
  EXPECT_EQ(ran.events + ran.in_place, stepped.events);

  // pending_events() sees a held resume until it runs.
  Simulator sim;
  Condition cv(sim);
  std::vector<std::string> log;
  sim.Spawn(LogAfterWait(cv, &log, "waiter"), "waiter");
  sim.CallAt(Microseconds(1), [&] {
    const uint64_t executed = sim.events_executed();
    EXPECT_EQ(sim.pending_events(), 1u);  // the event at 2 us
    cv.NotifyOne();
    EXPECT_EQ(sim.pending_events(), 2u);
    EXPECT_EQ(sim.events_executed(), executed);
  });
  sim.CallAt(Microseconds(2), [] {});
  EXPECT_EQ(sim.RunUntil(Microseconds(1)), 3u);  // the spawn, the notifier, the held resume
  EXPECT_EQ(sim.resumes_held(), 1u);
  EXPECT_EQ(sim.pending_events(), 1u);
  EXPECT_EQ(log, (std::vector<std::string>{"waiter"}));
}

// --- Child hops run in place --------------------------------------------------
//
// A child's entry or exit hop that ResumeNow would hold runs in place instead:
// the awaiter transfers to the child (or back to the parent) inside the
// running event. Step() never transfers, so a Step-driven run is the
// all-queued reference: its events are Run's events plus Run's in-place hops.

Task AppendThenReturn(std::vector<std::string>* log, std::string what) {
  log->push_back(std::move(what));
  co_return;
}

struct HopRun {
  std::vector<std::string> log;
  uint64_t events = 0;
  uint64_t in_place = 0;
};

HopRun RunChildBehindQueuedEvent(bool step) {
  HopRun r;
  Simulator sim;
  sim.Spawn(
      [](Simulator& s, std::vector<std::string>* log) -> Task {
        s.CallAfter(0, [log] { log->push_back("event"); });
        // The event above is queued for Now(): the entry hop queues behind it.
        co_await AppendThenReturn(log, "child");
        log->push_back("parent back");
      }(sim, &r.log),
      "parent");
  if (step) {
    while (sim.Step()) {
    }
  } else {
    sim.Run();
  }
  r.events = sim.events_executed();
  r.in_place = sim.resumes_in_place();
  return r;
}

TEST(Handoff, ChildEnteredBehindAQueuedEventStaysQueued) {
  const HopRun ran = RunChildBehindQueuedEvent(/*step=*/false);
  const HopRun stepped = RunChildBehindQueuedEvent(/*step=*/true);
  EXPECT_EQ(ran.log, (std::vector<std::string>{"event", "child", "parent back"}));
  EXPECT_EQ(ran.log, stepped.log);
  // Only the exit hop ran in place: nothing was queued for Now() by then.
  EXPECT_EQ(ran.in_place, 1u);
  EXPECT_EQ(stepped.in_place, 0u);
  EXPECT_EQ(ran.events + ran.in_place, stepped.events);
}

Task NestedChain(int depth, int* deepest) {
  if (depth == 0) {
    ++*deepest;
    co_return;
  }
  co_await NestedChain(depth - 1, deepest);
}

TEST(Handoff, DeepChildChainRunsInPlaceWithinTheBound) {
  // 100,000 nested children whose innermost returns at once: 200,000 hops at
  // one timestamp. Past kMaxInPlaceHops hops in one event a hop is held, which
  // unwinds the stack where symmetric transfer is not a tail call.
  constexpr int kDepth = 100000;
  constexpr uint64_t kHops = 2 * kDepth;
  Simulator sim;
  int deepest = 0;
  TaskHandle h = sim.Spawn(NestedChain(kDepth, &deepest), "chain");
  sim.Run();
  EXPECT_TRUE(h.done());
  EXPECT_EQ(deepest, 1);
  EXPECT_EQ(sim.Now(), 0);
  // Event 1 is the spawn's first resume; every later event is a held hop
  // that starts a fresh run of in-place hops.
  const uint64_t held_hops = sim.events_executed() - 1;
  EXPECT_EQ(sim.resumes_held(), held_hops);
  EXPECT_EQ(sim.resumes_in_place() + held_hops, kHops);
  // The first event runs 64 hops in place, and each held hop runs itself
  // and up to 64 more: ceil((200,000 - 64) / 65) held hops.
  EXPECT_EQ(Simulator::kMaxInPlaceHops, 64u);
  EXPECT_EQ(held_hops, 3076u);
}

TEST(Handoff, TaskKilledBeforeItsHopIsNotTransferredTo) {
  for (const bool kill_in_child : {false, true}) {
    Simulator sim;
    std::vector<std::string> log;
    bool frame_destroyed = false;
    TaskHandle self;
    self = sim.Spawn(
        [](TaskHandle* me, std::vector<std::string>* l, bool in_child,
           [[maybe_unused]] DestructionFlag flag) -> Task {
          if (!in_child) {
            me->Kill();  // before the entry hop
          }
          co_await [](TaskHandle* me2, std::vector<std::string>* l2, bool in_child2) -> Task {
            l2->push_back("child");
            if (in_child2) {
              me2->Kill();  // before the exit hop
            }
            co_return;
          }(me, l, in_child);
          l->push_back("parent back");
        }(&self, &log, kill_in_child, DestructionFlag(&frame_destroyed)),
        "victim");
    sim.Run();
    EXPECT_TRUE(self.killed());
    EXPECT_TRUE(frame_destroyed);
    EXPECT_EQ(log, kill_in_child ? std::vector<std::string>{"child"}
                                 : std::vector<std::string>{});
    // The entry hop of the child that kills the task may run in place; the
    // hop after a kill never does.
    EXPECT_EQ(sim.resumes_in_place(), kill_in_child ? 1u : 0u);
    EXPECT_EQ(sim.pending_events(), 0u);
  }
}

// --- Differential wake test ---------------------------------------------------
//
// Seeded random task programs over every wait kind the simulator offers run
// three ways: (a) Run() with a test-local Gate whose wake is ResumeNow, (b)
// Run() with the Gate's wake an explicit CallAfter(0, Resume), and (c) the
// same as (b) but driven by Step(), which never holds a resume, so every
// wakeup in the library (Condition, Mailbox, child hops, Spawn) is queued
// too. All three must log the same steps at the same times, and each Run's
// events plus its in-place child hops must equal Step's events.

class Gate {
 public:
  Gate(Simulator& sim, bool resume_now) : sim_(&sim), resume_now_(resume_now) {}

  struct Awaiter {
    Gate* gate;
    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<Task::promise_type> h) {
      gate->waiters_.push_back(StateOf(h));
    }
    void await_resume() const noexcept {}
  };
  Awaiter Wait() { return Awaiter{this}; }

  void OpenAll() {
    std::vector<std::shared_ptr<TaskState>> woken;
    woken.swap(waiters_);
    for (std::shared_ptr<TaskState>& st : woken) {
      if (resume_now_) {
        sim_->ResumeNow(std::move(st));
      } else {
        sim_->CallAfter(0, [st = std::move(st)] { st->Resume(); });
      }
    }
  }

 private:
  Simulator* sim_;
  bool resume_now_;
  std::vector<std::shared_ptr<TaskState>> waiters_;
};

enum class OpKind {
  kGateWait,
  kGateOpen,
  kCondWait,
  kCondTimedWait,
  kCondNotifyOne,
  kCondNotifyAll,
  kSleep,
  kInlineChild,
  kSpawnJoin,
  kSend,
  kRecv,
  kQueueEvent,
  kKill,
  kCount,
};

struct Op {
  OpKind kind;
  int arg = 0;
  std::vector<Op> body;  // kInlineChild / kSpawnJoin
};

std::vector<Op> GenProgram(Random& rng, int depth) {
  std::vector<Op> ops(3 + rng.NextBelow(depth == 0 ? 10 : 4));
  for (Op& op : ops) {
    op.kind = static_cast<OpKind>(rng.NextBelow(static_cast<uint64_t>(OpKind::kCount)));
    op.arg = static_cast<int>(rng.NextBelow(4));
    if (op.kind == OpKind::kInlineChild || op.kind == OpKind::kSpawnJoin) {
      if (depth >= 2) {
        op.kind = OpKind::kQueueEvent;
      } else {
        op.body = GenProgram(rng, depth + 1);
      }
    }
  }
  return ops;
}

struct World {
  Simulator* sim;
  Gate* gate;
  Condition* cv;
  Mailbox<int>* box;
  std::vector<TaskHandle>* roots;
  std::vector<std::string>* log;

  void Note(const std::string& who, const std::string& what) const {
    log->push_back(std::to_string(sim->Now()) + " " + who + " " + what);
  }
};

Task RunProgram(World w, std::string who, const std::vector<Op>* ops) {
  for (size_t i = 0; i < ops->size(); ++i) {
    const Op& op = (*ops)[i];
    const std::string step = who + "." + std::to_string(i);
    switch (op.kind) {
      case OpKind::kGateWait:
        co_await w.gate->Wait();
        w.Note(step, "gate");
        break;
      case OpKind::kGateOpen:
        w.gate->OpenAll();
        break;
      case OpKind::kCondWait:
        co_await w.cv->Wait();
        w.Note(step, "cond");
        break;
      case OpKind::kCondTimedWait: {
        const bool notified = co_await w.cv->WaitFor(op.arg);
        w.Note(step, notified ? "cond notified" : "cond timeout");
        break;
      }
      case OpKind::kCondNotifyOne:
        w.cv->NotifyOne();
        break;
      case OpKind::kCondNotifyAll:
        w.cv->NotifyAll();
        break;
      case OpKind::kSleep:
        co_await SleepFor(*w.sim, op.arg);
        w.Note(step, "slept");
        break;
      case OpKind::kInlineChild:
        co_await RunProgram(w, step + "/i", &op.body);
        w.Note(step, "child back");
        break;
      case OpKind::kSpawnJoin: {
        TaskHandle h = w.sim->Spawn(RunProgram(w, step + "/s", &op.body), step);
        co_await Join(h);
        w.Note(step, "joined");
        break;
      }
      case OpKind::kSend:
        co_await w.box->Send(static_cast<int>(i));
        w.Note(step, "sent");
        break;
      case OpKind::kRecv: {
        const int v = co_await w.box->Recv();
        w.Note(step, "got " + std::to_string(v));
        break;
      }
      case OpKind::kQueueEvent:
        w.sim->CallAfter(op.arg % 2, [w, step] { w.Note(step, "event"); });
        break;
      case OpKind::kKill:
        (*w.roots)[static_cast<size_t>(op.arg) % w.roots->size()].Kill();
        w.Note(step, "killed " + std::to_string(op.arg % w.roots->size()));
        break;
      case OpKind::kCount:
        break;
    }
  }
  w.Note(who, "done");
}

struct DiffRun {
  std::vector<std::string> log;
  uint64_t events = 0;
  uint64_t held = 0;
  uint64_t in_place = 0;
};

DiffRun RunDifferential(const std::vector<std::vector<Op>>& programs, bool resume_now,
                        bool step) {
  DiffRun r;
  Simulator sim;
  Gate gate(sim, resume_now);
  Condition cv(sim);
  Mailbox<int> box(sim, 1);
  std::vector<TaskHandle> roots;
  const World w{&sim, &gate, &cv, &box, &roots, &r.log};
  for (size_t t = 0; t < programs.size(); ++t) {
    std::string who = "t";
    who += std::to_string(t);
    roots.push_back(sim.Spawn(RunProgram(w, std::move(who), &programs[t])));
  }
  // Outside pokes keep waits moving: at each tick, open the gate, notify the
  // condition and offer the mailbox a value.
  for (int tick = 1; tick <= 12; ++tick) {
    sim.CallAt(tick, [&, tick] {
      gate.OpenAll();
      cv.NotifyAll();
      box.TrySend(1000 + tick);
      (void)box.TryRecv();
    });
  }
  if (step) {
    while (sim.Step()) {
    }
  } else {
    sim.Run();
  }
  r.events = sim.events_executed();
  r.held = sim.resumes_held();
  r.in_place = sim.resumes_in_place();
  return r;
}

TEST(Handoff, RandomProgramsMatchQueuedWakes) {
  uint64_t held_total = 0;
  uint64_t events_total = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    Random rng(seed);
    std::vector<std::vector<Op>> programs(2 + rng.NextBelow(4));
    for (std::vector<Op>& p : programs) {
      p = GenProgram(rng, 0);
    }
    const DiffRun held = RunDifferential(programs, /*resume_now=*/true, /*step=*/false);
    const DiffRun queued = RunDifferential(programs, /*resume_now=*/false, /*step=*/false);
    const DiffRun stepped = RunDifferential(programs, /*resume_now=*/false, /*step=*/true);
    ASSERT_EQ(held.log, queued.log) << "seed " << seed;
    ASSERT_EQ(held.log, stepped.log) << "seed " << seed;
    ASSERT_EQ(held.events, queued.events) << "seed " << seed;
    ASSERT_EQ(held.events + held.in_place, stepped.events) << "seed " << seed;
    ASSERT_EQ(queued.events + queued.in_place, stepped.events) << "seed " << seed;
    EXPECT_EQ(stepped.held, 0u);
    EXPECT_EQ(stepped.in_place, 0u);
    held_total += held.held;
    events_total += held.events;
  }
  // The programs do exercise the register (about 15% of their events).
  EXPECT_GT(held_total * 10, events_total);
}


// --- Differential queue test --------------------------------------------------
//
// Seeded random schedules run through the Simulator and through a reference
// queue: a std::multimap keyed on time, which keeps equal keys in insertion
// order, so it pops in the (time, scheduling order) order the simulator
// promises. Events, task starts and task wakes each draw their actions from a
// stream seeded by their own key, so both sides act alike as long as they fire
// the same entries in the same order. Every firing records its key, Now(),
// pending_events() and events_executed(), and every driving call (Run,
// RunUntil, Step) its result; both records must match.

enum class QAct {
  kAtNow,
  kNear,
  kFar,
  kCancel,
  kCancelTwice,
  kNotifyOne,
  kNotifyAll,
  kSpawn,
  kCount,
};

struct QAction {
  QAct act;
  uint64_t arg = 0;
};

struct Firing {
  uint64_t key;
  SimTime now;
  size_t pending;
  uint64_t executed;
  bool operator==(const Firing&) const = default;
};

void PrintTo(const Firing& f, std::ostream* os) {
  *os << "{key " << f.key << " at " << f.now << ", pending " << f.pending << ", executed "
      << f.executed << "}";
}

// Caps that keep every program finite: scheduling stops after kMaxLabels
// events, notifying after kMaxFirings firings, spawning after kMaxTasks tasks.
constexpr uint64_t kMaxLabels = 250;
constexpr uint64_t kMaxFirings = 600;
constexpr uint64_t kMaxTasks = 6;

// Firing keys: event labels count up from 0; task k starts as StartKey(k) and
// its n-th wake is StartKey(k) + n. Actions from outside the run loop draw
// from ExternalKey(round).
constexpr uint64_t StartKey(uint64_t k) { return (k + 1) << 20; }
constexpr uint64_t ExternalKey(uint64_t round) { return (uint64_t{1} << 40) + round; }

// The actions of the firing `key` when `issued` event labels exist.
std::vector<QAction> QueueActions(uint64_t seed, uint64_t key, uint64_t issued) {
  Random rng(seed * 0x9E3779B97F4A7C15ull + key);
  std::vector<QAction> acts(rng.NextBelow(5));
  for (QAction& a : acts) {
    a.act = static_cast<QAct>(rng.NextBelow(static_cast<uint64_t>(QAct::kCount)));
    switch (a.act) {
      case QAct::kNear:
        a.arg = 1 + rng.NextBelow(8);
        break;
      case QAct::kFar:
        a.arg = 1000 + rng.NextBelow(100000);
        break;
      case QAct::kCancel:
      case QAct::kCancelTwice: {
        // A recent label (often live, often at Now()), any issued label (live,
        // fired, cancelled, or a stale id whose slot was recycled), or a
        // label never issued.
        const uint64_t r = rng.NextBelow(4);
        if (issued == 0 || r == 0) {
          a.arg = issued + rng.NextBelow(2);
        } else if (r == 1) {
          a.arg = rng.NextBelow(issued);
        } else {
          a.arg = issued - 1 - rng.NextBelow(std::min<uint64_t>(issued, 8));
        }
        break;
      }
      default:
        break;
    }
  }
  return acts;
}

// Q is SimQueue or RefQueue.
template <typename Q>
void ApplyActions(Q& q, uint64_t seed, uint64_t key) {
  for (const QAction& a : QueueActions(seed, key, q.issued())) {
    switch (a.act) {
      case QAct::kAtNow:
      case QAct::kNear:
      case QAct::kFar:
        if (q.issued() < kMaxLabels) {
          q.Schedule(q.Now() + static_cast<SimDuration>(a.arg));
        }
        break;
      case QAct::kCancelTwice:
        q.Cancel(a.arg);
        [[fallthrough]];
      case QAct::kCancel:
        q.Cancel(a.arg);
        break;
      case QAct::kNotifyOne:
        if (q.executed() < kMaxFirings) {
          q.NotifyOne();
        }
        break;
      case QAct::kNotifyAll:
        if (q.executed() < kMaxFirings) {
          q.NotifyAll();
        }
        break;
      case QAct::kSpawn:
        if (q.tasks() < kMaxTasks) {
          q.Spawn();
        }
        break;
      case QAct::kCount:
        break;
    }
  }
}

class SimQueue {
 public:
  explicit SimQueue(uint64_t seed) : seed_(seed) {}

  SimTime Now() const { return sim_.Now(); }
  uint64_t issued() const { return ids_.size(); }
  uint64_t tasks() const { return wakes_.size(); }
  uint64_t executed() const { return sim_.events_executed(); }
  size_t pending() const { return sim_.pending_events(); }
  uint64_t held() const { return sim_.resumes_held(); }
  const std::vector<Firing>& log() const { return log_; }

  void Schedule(SimTime t) {
    const uint64_t label = ids_.size();
    ids_.push_back(sim_.CallAt(t, [this, label] { Fire(label); }));
  }
  // A label never issued maps to an id no CallAt returned: 0, or a slot far
  // beyond the handle table.
  void Cancel(uint64_t label) {
    if (label < ids_.size()) {
      sim_.Cancel(ids_[label]);
    } else {
      sim_.Cancel(label == ids_.size() ? 0 : (uint64_t{1} << 62) | 1);
    }
  }
  void NotifyOne() { cv_.NotifyOne(); }
  void NotifyAll() { cv_.NotifyAll(); }
  void Spawn() {
    wakes_.push_back(0);
    sim_.Spawn(Waiter(this, wakes_.size() - 1));
  }

  bool Step() { return sim_.Step(); }
  uint64_t RunUntil(SimTime deadline) { return sim_.RunUntil(deadline); }
  uint64_t Run() { return sim_.Run(); }

 private:
  static Task Waiter(SimQueue* q, uint64_t k) {
    q->Fire(StartKey(k));
    for (;;) {
      co_await q->cv_.Wait();
      q->Fire(StartKey(k) + ++q->wakes_[k]);
    }
  }

  void Fire(uint64_t key) {
    log_.push_back(Firing{key, sim_.Now(), sim_.pending_events(), sim_.events_executed()});
    ApplyActions(*this, seed_, key);
  }

  uint64_t seed_;
  Simulator sim_;
  Condition cv_{sim_};
  std::vector<uint64_t> ids_;    // by label
  std::vector<uint64_t> wakes_;  // by task
  std::vector<Firing> log_;
};

class RefQueue {
 public:
  explicit RefQueue(uint64_t seed) : seed_(seed) {}

  SimTime Now() const { return now_; }
  uint64_t issued() const { return live_.size(); }
  uint64_t tasks() const { return wakes_.size(); }
  uint64_t executed() const { return executed_; }
  size_t pending() const { return queue_.size(); }
  uint64_t live_cancels() const { return live_cancels_; }
  const std::vector<Firing>& log() const { return log_; }

  void Schedule(SimTime t) {
    live_.push_back(queue_.emplace(t, Entry{Entry::kEvent, live_.size()}));
  }
  void Cancel(uint64_t label) {
    if (label < live_.size() && live_[label] != queue_.end()) {
      queue_.erase(live_[label]);
      live_[label] = queue_.end();
      ++live_cancels_;
    }
  }
  void NotifyOne() {
    if (!waiters_.empty()) {
      queue_.emplace(now_, Entry{Entry::kWake, waiters_.front()});
      waiters_.pop_front();
    }
  }
  void NotifyAll() {
    while (!waiters_.empty()) {
      NotifyOne();
    }
  }
  void Spawn() {
    wakes_.push_back(0);
    queue_.emplace(now_, Entry{Entry::kStart, wakes_.size() - 1});
  }

  bool Step() {
    if (queue_.empty()) {
      return false;
    }
    const auto top = queue_.begin();
    now_ = top->first;
    const Entry e = top->second;
    queue_.erase(top);
    ++executed_;
    uint64_t key = e.id;
    if (e.kind == Entry::kEvent) {
      live_[e.id] = queue_.end();
    } else {
      key = StartKey(e.id) + (e.kind == Entry::kWake ? ++wakes_[e.id] : 0);
    }
    log_.push_back(Firing{key, now_, queue_.size(), executed_});
    ApplyActions(*this, seed_, key);
    if (e.kind != Entry::kEvent) {
      waiters_.push_back(e.id);  // the task waits again
    }
    return true;
  }
  uint64_t RunUntil(SimTime deadline) {
    uint64_t n = 0;
    while (!queue_.empty() && queue_.begin()->first <= deadline) {
      Step();
      ++n;
    }
    now_ = std::max(now_, deadline);
    return n;
  }
  uint64_t Run() {
    uint64_t n = 0;
    while (Step()) {
      ++n;
    }
    return n;
  }

 private:
  struct Entry {
    enum Kind { kEvent, kStart, kWake } kind;
    uint64_t id;  // the label of an event, the task of a start or wake
  };
  using Queue = std::multimap<SimTime, Entry>;

  uint64_t seed_;
  Queue queue_;
  std::vector<Queue::iterator> live_;  // by label; end() once fired or cancelled
  std::deque<uint64_t> waiters_;
  std::vector<uint64_t> wakes_;
  SimTime now_ = 0;
  uint64_t executed_ = 0;
  uint64_t live_cancels_ = 0;
  std::vector<Firing> log_;
};

// Drives `q` through 24 rounds of outside actions, each followed by a Step, a
// RunUntil (a few ns or far ahead) or a Run, then drains it. Returns what each
// call returned and the clock and counters after it.
template <typename Q>
std::vector<int64_t> DriveQueue(Q& q, uint64_t seed) {
  Random rng(seed);
  std::vector<int64_t> seen;
  q.Spawn();
  q.Spawn();
  for (uint64_t round = 0; round < 24; ++round) {
    ApplyActions(q, seed, ExternalKey(round));
    const uint64_t r = rng.NextBelow(8);
    if (r < 4) {
      seen.push_back(q.Step() ? 1 : 0);
    } else if (r < 7) {
      const SimDuration ahead = static_cast<SimDuration>(
          rng.NextBelow(2) == 0 ? rng.NextBelow(16) : rng.NextBelow(200000));
      seen.push_back(static_cast<int64_t>(q.RunUntil(q.Now() + ahead)));
    } else {
      seen.push_back(static_cast<int64_t>(q.Run()));
    }
    seen.push_back(q.Now());
    seen.push_back(static_cast<int64_t>(q.pending()));
    seen.push_back(static_cast<int64_t>(q.executed()));
  }
  seen.push_back(static_cast<int64_t>(q.Run()));
  seen.push_back(static_cast<int64_t>(q.pending()));
  return seen;
}

TEST(EventQueue, RandomSchedulesMatchReferenceOrder) {
  uint64_t firings = 0;
  uint64_t held = 0;
  uint64_t live_cancels = 0;
  for (uint64_t seed = 1; seed <= 300; ++seed) {
    SimQueue sim(seed);
    RefQueue ref(seed);
    const std::vector<int64_t> sim_seen = DriveQueue(sim, seed);
    const std::vector<int64_t> ref_seen = DriveQueue(ref, seed);
    ASSERT_EQ(sim.log(), ref.log()) << "seed " << seed;
    ASSERT_EQ(sim_seen, ref_seen) << "seed " << seed;
    firings += ref.log().size();
    held += sim.held();
    live_cancels += ref.live_cancels();
  }
  // The schedules are not trivial: they fire many entries, cancel live ones
  // and run some wakes from the handoff register.
  EXPECT_GT(firings, 300u * 100);
  EXPECT_GT(live_cancels, 300u * 10);
  EXPECT_GT(held, 300u * 5);
}

}  // namespace
}  // namespace nemesis
