#include "src/sim/simulator.h"

#include <algorithm>
#include <utility>

#include "src/base/assert.h"

namespace nemesis {

Simulator::~Simulator() {
  // Tasks still suspended when the simulation ends are frame↔state reference
  // cycles (the coroutine promise owns a shared_ptr to the TaskState that
  // owns the frame handle); destroy their frames explicitly or they leak.
  for (auto& st : tasks_) {
    if (!st->done && !st->destroyed) {
      st->Abandon();
    }
  }
}

uint32_t Simulator::AllocSlot() {
  if (!free_slots_.empty()) {
    const uint32_t slot = free_slots_.back();
    free_slots_.pop_back();
    return slot;
  }
  NEM_ASSERT_MSG(slots_.size() < UINT32_MAX, "handle table exhausted");
  slots_.push_back(Slot{});
  return static_cast<uint32_t>(slots_.size() - 1);
}

void Simulator::ReleaseSlot(uint32_t slot) {
  Slot& s = slots_[slot];
  s.fn.Reset();
  s.pending = false;
  s.cancelled = false;
  if (++s.gen == 0) {
    s.gen = 1;  // keep ids nonzero so 0 stays a safe "no timer" sentinel
  }
  free_slots_.push_back(slot);
}

Simulator::Event Simulator::PopEarliest() {
  std::pop_heap(heap_.begin(), heap_.end(), Later{});
  const Event ev = heap_.back();
  heap_.pop_back();
  return ev;
}

bool Simulator::FindLiveTop() {
  while (!heap_.empty()) {
    const uint32_t slot = heap_.front().slot;
    if (!slots_[slot].cancelled) {
      return true;
    }
    PopEarliest();
    ReleaseSlot(slot);
  }
  return false;
}

uint64_t Simulator::CallAt(SimTime t, Callback fn) {
  NEM_ASSERT_MSG(t >= now_, "cannot schedule into the past");
  const uint32_t slot = AllocSlot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.pending = true;
  const uint64_t id = (static_cast<uint64_t>(slot) << 32) | s.gen;
  heap_.push_back(Event{t, next_seq_++, slot});
  std::push_heap(heap_.begin(), heap_.end(), Later{});
  ++live_pending_;
  ++events_scheduled_;
  return id;
}

uint64_t Simulator::CallAfter(SimDuration d, Callback fn) {
  NEM_ASSERT_MSG(d >= 0, "negative delay");
  return CallAt(now_ + d, std::move(fn));
}

void Simulator::QueueResume(std::shared_ptr<TaskState> st) {
  CallAt(now_, [st = std::move(st)] { st->Resume(); });
}

void Simulator::Cancel(uint64_t id) {
  const uint32_t slot = static_cast<uint32_t>(id >> 32);
  const uint32_t gen = static_cast<uint32_t>(id);
  if (slot >= slots_.size()) {
    return;
  }
  Slot& s = slots_[slot];
  if (s.gen != gen || !s.pending || s.cancelled) {
    return;  // already fired, already cancelled, or never issued
  }
  s.cancelled = true;
  s.fn.Reset();  // destroy captures now, as the map erase in the old loop did
  --live_pending_;
  ++events_cancelled_;
}

TaskHandle Simulator::Spawn(Task task, std::string name) {
  const Task::Handle frame = task.Release();
  NEM_ASSERT(frame);
  auto state = std::make_shared<TaskState>();
  frame.promise().state = state;
  state->handle = frame;
  state->leaf = frame;
  state->sim = this;
  state->name = std::move(name);
  state->started = true;
  // Prune when the registry doubles past its last post-prune size: dead tasks
  // then outnumber live ones, and the scan amortizes to O(1) per spawn
  // (rather than the old fixed 4096 threshold, which rescanned every spawn
  // once a long-running many-domain experiment kept >4096 tasks live).
  if (tasks_.size() >= prune_threshold_) {
    PruneTasks();
    prune_threshold_ = std::max(kMinPruneThreshold, tasks_.size() * 2);
  }
  tasks_.push_back(state);
  ResumeNow(state);
  return TaskHandle(std::move(state));
}

void Simulator::Execute(uint32_t slot) {
  // Release before invoking: Cancel() of the now-running id is a no-op, and
  // the callback is free to schedule into the recycled slot.
  Callback fn = std::move(slots_[slot].fn);
  ReleaseSlot(slot);
  ++events_executed_;
  --live_pending_;
  in_place_this_event_ = 0;
  fn();
  if (post_event_hook_) [[unlikely]] {
    post_event_hook_();
  }
}

void Simulator::ExecuteHandoff() {
  const std::shared_ptr<TaskState> st = std::move(handoff_);
  ++events_executed_;
  ++resumes_held_;
  --live_pending_;
  in_place_this_event_ = 0;
  st->Resume();
  if (post_event_hook_) [[unlikely]] {
    post_event_hook_();
  }
}

uint64_t Simulator::DrainBatch() {
  if (!FindLiveTop()) {
    return 0;
  }
  const SimTime t = heap_.front().time;
  NEM_ASSERT(t >= now_);
  now_ = t;
  uint64_t n = 0;
  draining_ = true;
  // Events scheduled for `t` during the batch get later seqs than every entry
  // already queued, so they join the batch in FIFO order; a held resume runs
  // before the next entry, which is where its seq would have put it.
  while (!heap_.empty() && heap_.front().time == t) {
    const uint32_t slot = PopEarliest().slot;
    if (slots_[slot].cancelled) {
      ReleaseSlot(slot);
      continue;
    }
    Execute(slot);
    ++n;
    while (handoff_) {
      ExecuteHandoff();
      ++n;
    }
  }
  draining_ = false;
  if (post_batch_hook_) [[unlikely]] {
    post_batch_hook_();
  }
  return n;
}

uint64_t Simulator::Run() {
  uint64_t n = 0;
  for (;;) {
    const uint64_t batch = DrainBatch();
    if (batch == 0) {
      return n;
    }
    n += batch;
  }
}

uint64_t Simulator::RunUntil(SimTime deadline) {
  uint64_t n = 0;
  while (FindLiveTop() && heap_.front().time <= deadline) {
    n += DrainBatch();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return n;
}

bool Simulator::Step() {
  if (!FindLiveTop()) {
    return false;
  }
  const Event ev = PopEarliest();
  NEM_ASSERT(ev.time >= now_);
  now_ = ev.time;
  Execute(ev.slot);  // FindLiveTop ensured liveness
  if (post_batch_hook_) [[unlikely]] {
    post_batch_hook_();
  }
  return true;
}

void Simulator::PruneTasks() {
  std::erase_if(tasks_, [](const std::shared_ptr<TaskState>& t) {
    return t->done || t->destroyed;
  });
}

}  // namespace nemesis
