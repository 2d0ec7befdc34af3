// Coroutine tasks for the discrete-event simulator.
//
// A simulated thread of control is a C++20 coroutine returning sim::Task. It
// suspends on awaitables (Delay, Condition::Wait, Mailbox operations) and is
// resumed by the Simulator's run loop — never nested inside another task's
// execution, which keeps re-entrancy out of the model.
//
// A Task runs in one of two ways. Simulator::Spawn makes it the root of a new
// task (its own TaskState and handle). `co_await SomeTask(...)` runs it
// as a *child* of the awaiting task instead — a procedure call, as in the
// paper's worker thread calling into its stretch driver: the child shares the
// parent's TaskState, its frame is owned by the parent's frame, and killing
// the task kills the child with it. Entering and leaving a child are each
// one resume at the current time, in the slots a Spawn's first resume and a
// Join's completion wakeup used, so replacing a Spawn-then-Join pair with a
// co_await moves no event. When that slot is the batch's next event anyway,
// the awaiter transfers to the child (or back to the parent) in place, and
// the hop is no event; otherwise it is scheduled through
// Simulator::ResumeNow — counted, ordered FIFO among same-time events and
// seen by the post-event hook (see src/sim/simulator.h).
//
// Tasks can be killed (the Nemesis frames allocator kills domains that do not
// honour an intrusive revocation deadline). Killing destroys the root frame,
// and with it every awaited child, at the task's next scheduling point; stale
// wakeups hold the shared TaskState and become no-ops.
#ifndef SRC_SIM_TASK_H_
#define SRC_SIM_TASK_H_

#include <algorithm>
#include <coroutine>
#include <exception>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "src/base/assert.h"
#include "src/base/small_function.h"

namespace nemesis {

class Simulator;

// Shared between the coroutine promises (the root's and every awaited
// child's), the TaskHandle given to the spawner, and every pending wakeup
// referencing the task.
struct TaskState {
  std::coroutine_handle<> handle{};  // root frame; owns any awaited children
  std::coroutine_handle<> leaf{};    // innermost frame: the one Resume() runs
  Simulator* sim = nullptr;
  std::string name;
  bool started = false;
  bool running = false;
  bool done = false;
  bool killed = false;
  bool destroyed = false;
  // Callbacks run (via the event queue), in registration order, when the task
  // completes or is killed. The first is stored inline: a task rarely has
  // more than one joiner, so registering one never allocates.
  SmallFunction<void()> first_watcher;  // empty: no watchers registered
  std::vector<SmallFunction<void()>> more_watchers;

  void AddCompletionWatcher(SmallFunction<void()> fn);

  // Resumes the innermost frame if the task is still alive; destroys the
  // task if it was killed.
  void Resume();

  // Requests termination. Safe to call at any time, including from the task
  // itself; the frame is destroyed at the next safe point.
  void Kill();

  // Teardown for a task abandoned at simulation end: destroys the frame and
  // drops completion watchers without scheduling anything (the simulator is
  // going away). The coroutine frame's promise holds a shared_ptr to this
  // state while the state holds the frame handle, so an abandoned suspended
  // task is a frame↔state cycle nothing else can reclaim.
  void Abandon();

  ~TaskState();

 private:
  void DestroyFrame();
  void FireCompletionWatchers();
};

// Coroutine return object. Move-only; it owns the coroutine frame until it is
// either passed to Simulator::Spawn (a new task) or co_awaited (a child run
// inline in the awaiting task). A Task dropped unstarted destroys its frame.
class Task {
 public:
  struct promise_type {
    // Null until Spawn (a fresh state) or co_await (the parent's state).
    std::shared_ptr<TaskState> state;
    // The awaiting frame a child returns to; null for a spawned root.
    std::coroutine_handle<promise_type> parent{};

    Task get_return_object() {
      return Task(std::coroutine_handle<promise_type>::from_promise(*this));
    }
    std::suspend_always initial_suspend() noexcept { return {}; }

    // A root marks its task done; a child resumes its parent (the exit hop,
    // in place or scheduled) and stays suspended until the parent destroys
    // it.
    struct FinalAwaiter {
      bool await_ready() noexcept { return false; }
      std::coroutine_handle<> await_suspend(std::coroutine_handle<promise_type> h) noexcept;
      void await_resume() noexcept {}
    };
    FinalAwaiter final_suspend() noexcept { return {}; }

    void return_void() {}
    void unhandled_exception() {
      // Simulation tasks model OS code paths that do not throw; an escaped
      // exception is a bug in the reproduction itself.
      NEM_UNREACHABLE("exception escaped a sim::Task");
    }
  };
  using Handle = std::coroutine_handle<promise_type>;

  // `co_await task`: runs the task as a child of the awaiting one. The entry
  // hop starts the child, in place or scheduled; the awaiter owns the child
  // frame, so the frame dies when the parent resumes past the co_await — or
  // when the parent's own frame is destroyed.
  class InlineAwaiter {
   public:
    explicit InlineAwaiter(Handle child) : child_(child) {}
    InlineAwaiter(const InlineAwaiter&) = delete;
    InlineAwaiter& operator=(const InlineAwaiter&) = delete;
    ~InlineAwaiter() {
      if (child_) {
        child_.destroy();
      }
    }

    bool await_ready() const noexcept { return false; }
    std::coroutine_handle<> await_suspend(Handle parent);
    void await_resume() const noexcept {}

   private:
    Handle child_;
  };

  explicit Task(Handle handle) : handle_(handle) {}
  Task(Task&& other) noexcept : handle_(std::exchange(other.handle_, {})) {}
  Task& operator=(Task&& other) noexcept {
    if (this != &other) {
      Reset();
      handle_ = std::exchange(other.handle_, {});
    }
    return *this;
  }
  Task(const Task&) = delete;
  Task& operator=(const Task&) = delete;
  ~Task() { Reset(); }

  // Hands the frame over to a new owner (Spawn or an InlineAwaiter).
  Handle Release() { return std::exchange(handle_, {}); }

  InlineAwaiter operator co_await() && { return InlineAwaiter(Release()); }

 private:
  void Reset() {
    if (handle_) {
      handle_.destroy();
      handle_ = {};
    }
  }

  Handle handle_;
};

// Observer/controller for a spawned task.
class TaskHandle {
 public:
  TaskHandle() = default;
  explicit TaskHandle(std::shared_ptr<TaskState> state) : state_(std::move(state)) {}

  bool valid() const { return state_ != nullptr; }
  bool done() const { return state_ && (state_->done || state_->destroyed); }
  bool killed() const { return state_ && state_->killed; }
  const std::string& name() const {
    static const std::string kEmpty;
    return state_ ? state_->name : kEmpty;
  }

  // Terminates the task at its next safe point.
  void Kill() {
    if (state_) {
      state_->Kill();
    }
  }

  std::shared_ptr<TaskState> state() const { return state_; }

 private:
  std::shared_ptr<TaskState> state_;
};

// Owned set of spawned-task handles: the owned-handle discipline that closes
// the orphan-task bug class (an un-owned spawned task outliving its spawner
// and writing through pointers into the spawner's destroyed coroutine frame —
// the async pager's teardown bug). Adopt() every Spawn result whose task
// captures `this` or stack references, and KillAll() from the owner's Stop()
// or destructor, *after* killing any task that joins on the adopted ones (the
// joiners' frames hold the result pointers). Completed handles are pruned
// lazily once the set reaches a threshold, so steady-state adoption stays a
// plain vector append. tools/analyze.py's task-lifetime rule checks both
// halves statically: no discarded Spawn results, and every recording member
// killed in its owner's teardown.
class OwnedTaskSet {
 public:
  // Records `handle` and returns it (so adoption wraps a Spawn in place).
  TaskHandle Adopt(TaskHandle handle) {
    if (handles_.size() >= prune_threshold_) {
      // The threshold doubles past the survivors, as in Simulator::Spawn,
      // so many live tasks cost amortised O(1) per adopt rather than a full
      // rescan each time.
      std::erase_if(handles_, [](const TaskHandle& h) { return h.done(); });
      prune_threshold_ = std::max(kMinPruneThreshold, handles_.size() * 2);
    }
    handles_.push_back(handle);
    return handle;
  }

  // Kills every recorded task (no-op for those already completed).
  void KillAll() {
    for (TaskHandle& h : handles_) {
      h.Kill();
    }
    handles_.clear();
    prune_threshold_ = kMinPruneThreshold;
  }

  // Recorded handles, including completed ones not yet pruned.
  size_t size() const { return handles_.size(); }
  bool empty() const { return handles_.empty(); }

 private:
  static constexpr size_t kMinPruneThreshold = 16;
  std::vector<TaskHandle> handles_;
  size_t prune_threshold_ = kMinPruneThreshold;
};

// Helper used by awaitables: extracts the TaskState of the suspending task
// (for an awaited child, the state it shares with its parent).
inline std::shared_ptr<TaskState> StateOf(std::coroutine_handle<Task::promise_type> h) {
  return h.promise().state;
}

// Awaitable that suspends the current task for a fixed simulated duration.
// Obtain via Simulator-aware helpers (e.g. SleepFor in sim/sync.h) or directly.
struct DelayAwaiter {
  Simulator* sim;
  int64_t duration_ns;

  bool await_ready() const noexcept { return duration_ns <= 0; }
  void await_suspend(std::coroutine_handle<Task::promise_type> h);
  void await_resume() const noexcept {}
};

// Awaitable that waits for another task to complete (or be killed).
struct JoinAwaiter {
  std::shared_ptr<TaskState> target;

  bool await_ready() const noexcept { return !target || target->done || target->destroyed; }
  void await_suspend(std::coroutine_handle<Task::promise_type> h);
  void await_resume() const noexcept {}
};

}  // namespace nemesis

#endif  // SRC_SIM_TASK_H_
