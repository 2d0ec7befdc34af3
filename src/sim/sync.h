// Synchronisation primitives for simulator coroutines: Condition (with timed
// waits), Semaphore (direct-handoff), and Mailbox<T> (bounded FIFO channel —
// the substrate for Nemesis IO channels / rbufs).
//
// All wakeups go through Simulator::ResumeNow: the waiter resumes at the
// current simulated time, in the FIFO position a queued zero-delay event would
// take, and never re-entrantly inside the notifier.
#ifndef SRC_SIM_SYNC_H_
#define SRC_SIM_SYNC_H_

#include <deque>
#include <memory>
#include <optional>
#include <utility>

#include "src/base/assert.h"
#include "src/base/intrusive_list.h"
#include "src/sim/simulator.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace nemesis {

// Suspends the calling task for `d` simulated time.
inline DelayAwaiter SleepFor(Simulator& sim, SimDuration d) { return DelayAwaiter{&sim, d}; }

// Waits for `handle`'s task to finish (complete or be killed).
inline JoinAwaiter Join(const TaskHandle& handle) { return JoinAwaiter{handle.state()}; }

inline bool TaskDead(const std::shared_ptr<TaskState>& st) {
  return st == nullptr || st->done || st->destroyed || st->killed;
}

// Condition variable. Waiters must re-check their predicate after waking
// (standard condition-variable idiom); NotifyAll wakes everyone currently
// waiting.
class Condition {
 public:
  explicit Condition(Simulator& sim) : sim_(&sim) {}
  Condition(const Condition&) = delete;
  Condition& operator=(const Condition&) = delete;
  // Tasks still waiting here stay suspended for good: they leave the queue
  // and lose their timeouts, so neither a later timeout nor the teardown of
  // their frames touches this object.
  ~Condition() {
    while (!waiters_.empty()) {
      WaitAwaiter* w = waiters_.PopFront();
      CancelTimeout(w);
    }
  }

  // Awaitable for Wait and WaitFor. The awaiter is the task's wait-queue
  // entry: it lives in the suspended coroutine's frame, so waiting never
  // allocates. A task killed mid-wait has its frame, and with it the awaiter,
  // destroyed; the awaiter then leaves the queue and cancels its timeout.
  class WaitAwaiter {
   public:
    WaitAwaiter(Condition* cv, SimDuration timeout) : cv_(cv), timeout_(timeout) {}
    WaitAwaiter(const WaitAwaiter&) = delete;
    WaitAwaiter& operator=(const WaitAwaiter&) = delete;
    // Only a queued waiter can have a pending timeout, and only a queued
    // waiter may touch cv_: the Condition may be gone once it is dequeued.
    ~WaitAwaiter() {
      if (node_.InContainer()) {
        cv_->waiters_.Remove(this);
        cv_->CancelTimeout(this);
      }
    }

    bool await_ready() const noexcept { return false; }
    void await_suspend(std::coroutine_handle<Task::promise_type> h) {
      st_ = StateOf(h);
      if (timeout_ >= 0) {
        timer_id_ = cv_->sim_->CallAfter(timeout_, [this, st = st_] {
          // Timed out: drop from the wait list and resume un-notified.
          timer_id_ = 0;
          cv_->waiters_.Remove(this);
          st->Resume();
        });
      }
      cv_->waiters_.PushBack(this);
    }
    // True when the wait ended by notification rather than by timeout.
    bool await_resume() const noexcept { return notified_; }

   private:
    friend class Condition;

    Condition* cv_;
    SimDuration timeout_;  // negative: no timeout
    std::shared_ptr<TaskState> st_;
    IntrusiveListNode node_;
    uint64_t timer_id_ = 0;  // pending timeout event; 0 = none (ids are never 0)
    bool notified_ = false;
  };

  // Waits until notified.
  WaitAwaiter Wait() { return WaitAwaiter(this, -1); }

  // Waits until notified or `timeout` (>= 0) elapses; co_await yields true
  // when the wait ended by notification.
  WaitAwaiter WaitFor(SimDuration timeout) {
    NEM_ASSERT(timeout >= 0);
    return WaitAwaiter(this, timeout);
  }

  void NotifyAll() {
    // Woken tasks resume only after the notifier's event returns, so none runs
    // (or waits again) inside this loop: it drains exactly the tasks waiting
    // now.
    while (!waiters_.empty()) {
      Wake(waiters_.PopFront());
    }
  }

  void NotifyOne() {
    if (!waiters_.empty()) {
      Wake(waiters_.PopFront());
    }
  }

  size_t waiter_count() const { return waiters_.size(); }

 private:
  void Wake(WaitAwaiter* w) {
    w->notified_ = true;
    CancelTimeout(w);
    // The dequeued awaiter never reads st_ again: hand its reference over.
    sim_->ResumeNow(std::move(w->st_));
  }

  void CancelTimeout(WaitAwaiter* w) {
    if (w->timer_id_ != 0) {
      sim_->Cancel(w->timer_id_);
      w->timer_id_ = 0;
    }
  }

  Simulator* sim_;
  IntrusiveList<WaitAwaiter, &WaitAwaiter::node_> waiters_;
};

// Counting semaphore with direct handoff: V() transfers the token to the
// first live waiter. (If a task is killed in the narrow window between being
// chosen and resuming, that token is dropped — no Nemesis code path kills a
// semaphore waiter.)
class Semaphore {
 public:
  Semaphore(Simulator& sim, int64_t initial) : sim_(&sim), count_(initial) {
    NEM_ASSERT(initial >= 0);
  }

  struct AcquireAwaiter {
    Semaphore* sem;
    bool await_ready() const noexcept {
      if (sem->count_ > 0) {
        --sem->count_;
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<Task::promise_type> h) {
      sem->waiters_.push_back(StateOf(h));
    }
    void await_resume() const noexcept {}
  };

  AcquireAwaiter Acquire() { return AcquireAwaiter{this}; }

  void Release() {
    while (!waiters_.empty()) {
      std::shared_ptr<TaskState> st = std::move(waiters_.front());
      waiters_.pop_front();
      if (TaskDead(st)) {
        continue;
      }
      sim_->ResumeNow(std::move(st));
      return;
    }
    ++count_;
  }

  int64_t count() const { return count_; }
  size_t waiter_count() const { return waiters_.size(); }

 private:
  Simulator* sim_;
  int64_t count_;
  std::deque<std::shared_ptr<TaskState>> waiters_;
};

// Bounded FIFO channel with rendezvous semantics. Values from senders that
// are killed while waiting are dropped. Capacity 0 gives pure rendezvous.
template <typename T>
class Mailbox {
 public:
  Mailbox(Simulator& sim, size_t capacity) : sim_(&sim), capacity_(capacity) {}
  Mailbox(const Mailbox&) = delete;
  Mailbox& operator=(const Mailbox&) = delete;

  struct SendWaiter {
    std::shared_ptr<TaskState> st;
    T value;
  };
  struct RecvWaiter {
    std::shared_ptr<TaskState> st;
    std::optional<T>* slot;
  };

  struct SendAwaiter {
    Mailbox* box;
    T value;

    bool await_ready() {
      // Direct handoff to a waiting receiver if one exists.
      while (!box->recv_waiters_.empty()) {
        RecvWaiter w = std::move(box->recv_waiters_.front());
        box->recv_waiters_.pop_front();
        if (TaskDead(w.st)) {
          continue;
        }
        *w.slot = std::move(value);
        box->Wake(w.st);
        return true;
      }
      if (box->items_.size() < box->capacity_) {
        box->items_.push_back(std::move(value));
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<Task::promise_type> h) {
      box->send_waiters_.push_back(SendWaiter{StateOf(h), std::move(value)});
    }
    void await_resume() const noexcept {}
  };

  struct RecvAwaiter {
    Mailbox* box;
    std::optional<T> result;

    bool await_ready() {
      if (!box->items_.empty()) {
        result = std::move(box->items_.front());
        box->items_.pop_front();
        box->AdmitBlockedSender();
        return true;
      }
      // Empty buffer: take directly from a waiting sender (capacity 0 path).
      while (!box->send_waiters_.empty()) {
        SendWaiter s = std::move(box->send_waiters_.front());
        box->send_waiters_.pop_front();
        if (TaskDead(s.st)) {
          continue;
        }
        result = std::move(s.value);
        box->Wake(s.st);
        return true;
      }
      return false;
    }
    void await_suspend(std::coroutine_handle<Task::promise_type> h) {
      box->recv_waiters_.push_back(RecvWaiter{StateOf(h), &result});
    }
    T await_resume() {
      NEM_ASSERT_MSG(result.has_value(), "Mailbox receive resumed without a value");
      return std::move(*result);
    }
  };

  // co_await box.Send(v): blocks while the channel is full.
  SendAwaiter Send(T value) { return SendAwaiter{this, std::move(value)}; }

  // co_await box.Recv(): blocks while the channel is empty; yields the value.
  RecvAwaiter Recv() { return RecvAwaiter{this, std::nullopt}; }

  // Non-blocking variants.
  bool TrySend(T value) {
    SendAwaiter aw{this, std::move(value)};
    return aw.await_ready();
  }
  std::optional<T> TryRecv() {
    RecvAwaiter aw{this, std::nullopt};
    if (aw.await_ready()) {
      return std::move(aw.result);
    }
    return std::nullopt;
  }

  size_t size() const { return items_.size(); }
  size_t capacity() const { return capacity_; }
  bool empty() const { return items_.empty() && send_waiters_.empty(); }
  size_t send_waiter_count() const { return send_waiters_.size(); }
  size_t recv_waiter_count() const { return recv_waiters_.size(); }

 private:
  void Wake(const std::shared_ptr<TaskState>& st) { sim_->ResumeNow(st); }

  // After freeing a buffer slot, move one blocked sender's value in.
  void AdmitBlockedSender() {
    while (!send_waiters_.empty() && items_.size() < capacity_) {
      SendWaiter s = std::move(send_waiters_.front());
      send_waiters_.pop_front();
      if (TaskDead(s.st)) {
        continue;
      }
      items_.push_back(std::move(s.value));
      Wake(s.st);
      return;
    }
  }

  Simulator* sim_;
  size_t capacity_;
  std::deque<T> items_;
  std::deque<SendWaiter> send_waiters_;
  std::deque<RecvWaiter> recv_waiters_;
};

}  // namespace nemesis

#endif  // SRC_SIM_SYNC_H_
