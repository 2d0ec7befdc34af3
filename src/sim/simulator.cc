#include "src/sim/simulator.h"

#include <algorithm>
#include <utility>

#include "src/base/assert.h"

namespace nemesis {

namespace {
constexpr size_t kArity = 4;
}  // namespace

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

uint32_t Simulator::BucketFor(SimTime t) {
  const size_t h = TimeCacheIndex(t);
  const uint32_t cached = time_cache_[h];
  if (cached != kNoBucket && buckets_[cached].time == t) {
    return cached;
  }
  // Cache miss: open a new bucket for `t` and make it the routing target. Any
  // older bucket for the same time (evicted by a colliding timestamp) can no
  // longer receive events, so it holds strictly earlier arrivals and drains
  // first via its smaller bseq.
  uint32_t bidx;
  if (!free_buckets_.empty()) {
    bidx = free_buckets_.back();
    free_buckets_.pop_back();
  } else {
    NEM_ASSERT_MSG(buckets_.size() < kNoBucket, "bucket table exhausted");
    buckets_.push_back(Bucket{});
    bidx = static_cast<uint32_t>(buckets_.size() - 1);
  }
  Bucket& b = buckets_[bidx];
  b.time = t;
  b.head = 0;
  NEM_ASSERT(b.entries.empty());
  HeapPush(Event{t, next_bucket_seq_++, bidx});
  time_cache_[h] = bidx;
  return bidx;
}

void Simulator::FreeBucket(uint32_t bidx) {
  Bucket& b = buckets_[bidx];
  const size_t h = TimeCacheIndex(b.time);
  if (time_cache_[h] == bidx) {
    time_cache_[h] = kNoBucket;  // stop CallAt from appending to a dead bucket
  }
  b.entries.clear();  // keeps capacity for reuse
  b.head = 0;
  free_buckets_.push_back(bidx);
}

void Simulator::HeapPush(Event ev) {
  size_t i = heap_.size();
  heap_.push_back(ev);
  // Sift up with a hole to avoid per-level swaps.
  while (i > 0) {
    const size_t parent = (i - 1) / kArity;
    if (!EarlierThan(ev, heap_[parent])) {
      break;
    }
    heap_[i] = heap_[parent];
    i = parent;
  }
  heap_[i] = ev;
}

void Simulator::SiftDownFromTop() {
  const size_t n = heap_.size();
  if (n == 0) {
    return;
  }
  size_t i = 0;
  const Event tmp = heap_[0];
  for (;;) {
    const size_t first_child = kArity * i + 1;
    if (first_child >= n) {
      break;
    }
    const size_t end = std::min(first_child + kArity, n);
    size_t best = first_child;
    for (size_t c = first_child + 1; c < end; ++c) {
      if (EarlierThan(heap_[c], heap_[best])) {
        best = c;
      }
    }
    if (!EarlierThan(heap_[best], tmp)) {
      break;
    }
    heap_[i] = heap_[best];
    i = best;
  }
  heap_[i] = tmp;
}

void Simulator::HeapPopTop() {
  heap_.front() = heap_.back();
  heap_.pop_back();
  SiftDownFromTop();
}

uint32_t Simulator::FindLiveTop() {
  while (!heap_.empty()) {
    const uint32_t bidx = heap_.front().bucket;
    Bucket& b = buckets_[bidx];
    // Drop cancelled entries off the front of the bucket.
    while (b.head < b.entries.size() && slots_[b.entries[b.head]].cancelled) {
      ReleaseSlot(b.entries[b.head]);
      ++b.head;
    }
    if (b.head < b.entries.size()) {
      return bidx;
    }
    HeapPopTop();
    FreeBucket(bidx);
  }
  return kNoBucket;
}

uint64_t Simulator::CallAt(SimTime t, Callback fn) {
  NEM_ASSERT_MSG(t >= now_, "cannot schedule into the past");
  const uint32_t slot = AllocSlot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.pending = true;
  const uint64_t id = (static_cast<uint64_t>(slot) << 32) | s.gen;
  buckets_[BucketFor(t)].entries.push_back(slot);
  ++live_pending_;
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
  st->Resume();
  if (post_event_hook_) [[unlikely]] {
    post_event_hook_();
  }
}

uint64_t Simulator::DrainBatch() {
  const uint32_t top = FindLiveTop();
  if (top == kNoBucket) {
    return 0;
  }
  const SimTime t = buckets_[top].time;
  NEM_ASSERT(t >= now_);
  now_ = t;
  uint64_t n = 0;
  draining_ = top;
  // Events scheduled for `t` during the batch append behind `head`, so the
  // bucket keeps handing them out in FIFO order; a held resume runs before
  // the next entry, which is where it would have been appended. Re-deref
  // `buckets_[top]` every iteration: a callback may open a new bucket and
  // grow the vector.
  for (;;) {
    Bucket& b = buckets_[top];
    if (b.head == b.entries.size()) {
      break;
    }
    const uint32_t slot = b.entries[b.head++];
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
  draining_ = kNoBucket;
  // The bucket drained dry; it is still the heap top (nothing earlier can
  // appear while it runs, and a same-time sibling has a later bseq).
  NEM_ASSERT(!heap_.empty() && heap_.front().bucket == top);
  HeapPopTop();
  FreeBucket(top);
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
  for (;;) {
    const uint32_t bidx = FindLiveTop();
    if (bidx == kNoBucket || buckets_[bidx].time > deadline) {
      break;
    }
    n += DrainBatch();
  }
  if (now_ < deadline) {
    now_ = deadline;
  }
  return n;
}

bool Simulator::Step() {
  const uint32_t bidx = FindLiveTop();
  if (bidx == kNoBucket) {
    return false;
  }
  Bucket& b = buckets_[bidx];
  NEM_ASSERT(b.time >= now_);
  now_ = b.time;
  Execute(b.entries[b.head++]);  // FindLiveTop ensured liveness
  if (post_batch_hook_) [[unlikely]] {
    post_batch_hook_();
  }
  // A drained bucket is left on the heap: a later CallAt at the same time may
  // still revive it, and FindLiveTop reclaims it otherwise.
  return true;
}

void Simulator::PruneTasks() {
  std::erase_if(tasks_, [](const std::shared_ptr<TaskState>& t) {
    return t->done || t->destroyed;
  });
}

}  // namespace nemesis
