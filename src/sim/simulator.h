// Discrete-event simulator core.
//
// The simulator owns a queue of timestamped callbacks and a registry of
// coroutine tasks (see src/sim/task.h). Everything in the reproduction that
// consumes simulated time — domain workloads, fault handling, the USD service
// loop, the disk mechanism — is driven from this loop, which makes every
// experiment deterministic.
//
// The event loop is allocation-free in the steady state: callback bodies live
// inline in recycled handle-table slots (SmallFunction, 48-byte small-buffer
// storage — no unordered_map, no per-callback heap node). The queue is one
// binary heap of (time, seq, slot) entries kept by std::push_heap/pop_heap.
// `seq` is a global scheduling counter, so same-time events fire in
// scheduling (FIFO) order by construction. Cancel is lazy — it flags the
// generation-stamped slot, destroys the callback eagerly, and the entry is
// dropped when it reaches the heap top.
//
// Zero-delay task wakeups (a Condition notify, a Spawn's first resume, the
// hops into and out of an awaited child) take a shortcut: ResumeNow. While a
// batch drains, the register is empty and the heap top is not at Now() (so
// nothing else is queued for the running timestamp), the resume it schedules
// is provably the next event the batch would run. It is held in a one-entry
// register (no slot, no callback body, no heap push) and run straight after
// the current event returns. The order rule: a held resume runs exactly where
// CallAfter(0, ...) would have put it — next. Everything the current event
// schedules for Now() after it, including a second ResumeNow while the
// register is full, gets a later seq, so nothing can overtake it. Step(), and
// a heap top at Now() (live or cancelled), never hold; they fall back to
// CallAt. A held resume counts in pending_events() and events_executed() and
// passes through the post-event hook exactly as a queued one does.
//
// The entry and exit hops of an awaited child (src/sim/task.h) go one step
// further. When ResumeNow would hold such a hop, the awaiter transfers to the
// child or back to the parent in place (symmetric transfer, TakeInPlaceHop)
// and the hop is no event at all: it would have run next, with only the
// task's own no-op Resume epilogue and the post-event hook in between, so the
// order cannot change. In-place hops count in resumes_in_place(), not in
// events_executed(), and at most kMaxInPlaceHops run per event. Step() never
// transfers, so a Step-driven run's events are a Run's events plus its
// in-place hops.
#ifndef SRC_SIM_SIMULATOR_H_
#define SRC_SIM_SIMULATOR_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "src/base/small_function.h"
#include "src/sim/task.h"
#include "src/sim/time.h"

namespace nemesis {

class Simulator {
 public:
  using Callback = SmallFunction<void()>;

  // Bound on in-place hops per event. Where the compiler emits no tail call
  // for a symmetric transfer (sanitizer and -O0 builds), each in-place hop
  // nests a stack frame until the task next suspends; past the bound a hop
  // is held instead, which unwinds the stack.
  static constexpr uint32_t kMaxInPlaceHops = 64;

  Simulator() = default;
  Simulator(const Simulator&) = delete;
  Simulator& operator=(const Simulator&) = delete;
  ~Simulator();

  SimTime Now() const { return now_; }

  // Schedules `fn` to run at absolute simulated time `t` (>= Now()). Returns
  // an id usable with Cancel(); ids are never 0, so 0 is a safe sentinel.
  uint64_t CallAt(SimTime t, Callback fn);

  // Schedules `fn` to run `d` after Now().
  uint64_t CallAfter(SimDuration d, Callback fn);

  // Cancels a pending callback; cancelling an already-fired or unknown id is a
  // no-op (ids carry a generation stamp, so a recycled handle slot can never
  // be cancelled through a stale id).
  void Cancel(uint64_t id);

  // Schedules `st->Resume()` at Now(), in the FIFO position CallAfter(0, ...)
  // would give it (see the header comment for when it skips the queue). The
  // wake primitive of every same-time task resume; it cannot be cancelled.
  void ResumeNow(std::shared_ptr<TaskState> st) {
    if (CanHold()) [[likely]] {
      handoff_ = std::move(st);
      ++live_pending_;
      return;
    }
    QueueResume(std::move(st));
  }

  // Asked by the running task at a child entry or exit hop: true when the hop
  // may run in place, by symmetric transfer, instead of through ResumeNow.
  // That is exactly when ResumeNow would hold it, so the hop would be the
  // batch's next event anyway; at most kMaxInPlaceHops hops per event run in
  // place (see the header comment). Counts the hop when it returns true.
  bool TakeInPlaceHop() {
    if (CanHold() && in_place_this_event_ < kMaxInPlaceHops) [[likely]] {
      ++in_place_this_event_;
      ++resumes_in_place_;
      return true;
    }
    return false;
  }

  // Starts a coroutine task. The first resume happens from the run loop at the
  // current simulated time. The returned handle can observe completion and
  // kill the task.
  TaskHandle Spawn(Task task, std::string name = "");

  // Executes events until the queue drains. Returns the number of events run.
  uint64_t Run();

  // Executes events with time <= deadline; leaves later events pending and
  // advances the clock to `deadline` if the queue outlives it.
  uint64_t RunUntil(SimTime deadline);

  // Executes a single event if one is pending. Returns false when idle.
  bool Step();

  size_t pending_events() const { return live_pending_; }
  // Events run: queued callbacks and held resumes. In-place hops are not
  // events.
  uint64_t events_executed() const { return events_executed_; }
  // Resumes that ran straight from the handoff register, not from the queue
  // (a subset of events_executed()).
  uint64_t resumes_held() const { return resumes_held_; }
  // Child entry and exit hops that ran in place, inside the event that made
  // them (not among events_executed()).
  uint64_t resumes_in_place() const { return resumes_in_place_; }
  // Queue entries made by CallAt (held resumes and in-place hops make none),
  // and those cancelled while still pending.
  uint64_t events_scheduled() const { return events_scheduled_; }
  uint64_t events_cancelled() const { return events_cancelled_; }
  // Observability for the task-prune heuristic (tests): current registry size
  // including dead entries not yet pruned.
  size_t task_registry_size() const { return tasks_.size(); }

  // Checker hooks (NEMESIS_AUDIT builds; both empty by default). The
  // post-event hook runs after every event callback, where it closes the
  // access checker's window (see src/check/domain_access.h). The post-batch
  // hook runs after each same-timestamp batch drains (and after every Step) —
  // the quiescent point where the invariant auditor walks cross-layer state.
  void set_post_event_hook(Callback hook) { post_event_hook_ = std::move(hook); }
  void set_post_batch_hook(Callback hook) { post_batch_hook_ = std::move(hook); }

 private:
  static constexpr size_t kMinPruneThreshold = 64;

  // Heap entry, one per scheduled event. `seq` is the global scheduling
  // stamp, so (time, seq) orders events by time and FIFO within a time.
  struct Event {
    SimTime time;
    uint64_t seq;
    uint32_t slot;
  };

  // Handle-table slot: owns the callback body and the cancellation state. An
  // id is (slot << 32) | generation; the generation is bumped every time the
  // slot is released, so stale ids never match.
  struct Slot {
    Callback fn;
    uint32_t gen = 1;
    bool pending = false;
    bool cancelled = false;
  };

  // The std heap algorithms keep the greatest element on top, so "later"
  // puts the earliest (time, seq) there. A function object, not a function
  // pointer, so the heap algorithms inline the comparison.
  struct Later {
    bool operator()(const Event& a, const Event& b) const {
      return a.time > b.time || (a.time == b.time && a.seq > b.seq);
    }
  };

  uint32_t AllocSlot();
  void ReleaseSlot(uint32_t slot);

  // Removes and returns the heap top.
  Event PopEarliest();

  // Pops cancelled entries (releasing their slots) off the heap top; returns
  // false when no live event is pending.
  bool FindLiveTop();

  // Executes every event at the earliest pending timestamp (including events
  // scheduled *for that same timestamp* while the batch runs). Returns the
  // number of events executed (0 when idle).
  uint64_t DrainBatch();

  // Runs one dequeued event: accounting, then the callback, then the
  // post-event hook.
  void Execute(uint32_t slot);

  // Runs the held resume with the same accounting and hook as Execute.
  void ExecuteHandoff();

  // True when CallAt(Now()) would make a resume the batch's next event: a
  // batch is draining, the register is free and nothing else is queued for
  // Now().
  bool CanHold() const {
    return draining_ && !handoff_ && (heap_.empty() || heap_.front().time != now_);
  }

  // ResumeNow's fallback: an ordinary CallAt(Now()).
  void QueueResume(std::shared_ptr<TaskState> st);

  void PruneTasks();

  SimTime now_ = 0;
  uint64_t next_seq_ = 0;
  uint64_t events_executed_ = 0;
  uint64_t resumes_held_ = 0;
  uint64_t resumes_in_place_ = 0;
  uint64_t events_scheduled_ = 0;
  uint64_t events_cancelled_ = 0;
  uint32_t in_place_this_event_ = 0;
  size_t live_pending_ = 0;
  std::vector<Event> heap_;
  std::vector<Slot> slots_;
  std::vector<uint32_t> free_slots_;
  std::vector<std::shared_ptr<TaskState>> tasks_;
  // Whether DrainBatch is running, and the held resume (null: the register
  // is empty). A held resume is counted in live_pending_.
  bool draining_ = false;
  std::shared_ptr<TaskState> handoff_;
  size_t prune_threshold_ = kMinPruneThreshold;
  Callback post_event_hook_;
  Callback post_batch_hook_;
};

}  // namespace nemesis

#endif  // SRC_SIM_SIMULATOR_H_
