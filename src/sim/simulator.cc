#include "src/sim/simulator.h"

#include <algorithm>
#include <utility>

#include "src/base/assert.h"

namespace nemesis {

namespace {
constexpr size_t kArity = 4;
}  // namespace

Simulator::~Simulator() {
  StopParallel();
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
  s.shard = kSystemShard;
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

uint64_t Simulator::CallAtOn(ShardId shard, SimTime t, Callback fn) {
  NEM_ASSERT_MSG(t >= now_, "cannot schedule into the past");
  ShardLane& lane = ShardLane::Current();
  const ShardId resolved = (shard == kInheritShard) ? lane.shard : shard;
  if (lane.sink != nullptr) [[unlikely]] {
    // On a parallel worker: allocate a real slot under the mutex (slot-table
    // and free-list order are unobservable — execution order comes solely
    // from bucket entry order), but buffer the bucket append so the merge
    // lands it in FIFO scheduling order.
    WorkerCtx* ctx = static_cast<WorkerCtx*>(lane.sink);
    uint32_t slot;
    uint64_t id;
    {
      MutexLock lk(parallel_->slot_mu);
      slot = AllocSlot();
      Slot& s = slots_[slot];
      s.fn = std::move(fn);
      s.pending = true;
      s.shard = resolved;
      id = (static_cast<uint64_t>(slot) << 32) | s.gen;
      ++live_pending_;
    }
    ctx->PushSchedule(ctx->entry_pos, t, slot);
    return id;
  }
  const uint32_t slot = AllocSlot();
  Slot& s = slots_[slot];
  s.fn = std::move(fn);
  s.pending = true;
  s.shard = resolved;
  const uint64_t id = (static_cast<uint64_t>(slot) << 32) | s.gen;
  buckets_[BucketFor(t)].entries.push_back(slot);
  ++live_pending_;
  return id;
}

uint64_t Simulator::CallAfterOn(ShardId shard, SimDuration d, Callback fn) {
  NEM_ASSERT_MSG(d >= 0, "negative delay");
  return CallAtOn(shard, now_ + d, std::move(fn));
}

void Simulator::CancelLocked(uint64_t id) {
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

void Simulator::Cancel(uint64_t id) {
  if (ShardLane::Current().sink != nullptr) [[unlikely]] {
    // Eager cancel from a worker, under the slot mutex. Deterministic for
    // future-timestamp targets and same-shard targets (the only kinds the
    // tree produces; see the header comment on the cross-shard limitation).
    MutexLock lk(parallel_->slot_mu);
    CancelLocked(id);
    return;
  }
  CancelLocked(id);
}

TaskHandle Simulator::Spawn(Task task, std::string name, ShardId shard) {
  const Task::Handle frame = task.Release();
  NEM_ASSERT(frame);
  auto state = std::make_shared<TaskState>();
  frame.promise().state = state;
  state->handle = frame;
  state->leaf = frame;
  ShardLane& lane = ShardLane::Current();
  state->sim = this;
  state->name = std::move(name);
  state->started = true;
  state->shard = (shard == kInheritShard) ? lane.shard : shard;
  if (lane.sink != nullptr) [[unlikely]] {
    // Registration and first resume are cross-shard effects; buffer them so
    // the registry order and resume scheduling order match serial mode.
    WorkerCtx* ctx = static_cast<WorkerCtx*>(lane.sink);
    ctx->PushSpawn(ctx->entry_pos, state);
    return TaskHandle(state);
  }
  RegisterTask(state);
  return TaskHandle(state);
}

void Simulator::RegisterTask(const std::shared_ptr<TaskState>& state) {
  // Prune when the registry doubles past its last post-prune size: dead tasks
  // then outnumber live ones, and the scan amortizes to O(1) per spawn
  // (rather than the old fixed 4096 threshold, which rescanned every spawn
  // once a long-running many-domain experiment kept >4096 tasks live).
  if (tasks_.size() >= prune_threshold_) {
    PruneTasks();
    prune_threshold_ = std::max(kMinPruneThreshold, tasks_.size() * 2);
  }
  tasks_.push_back(state);
  const auto& st = state;
  CallAfterOn(st->shard, 0, [st] { st->Resume(); });
}

void Simulator::EnableParallel(size_t executors) {
  NEM_ASSERT_MSG(parallel_ == nullptr, "parallel mode already enabled");
  NEM_ASSERT_MSG(executors >= 1, "need at least one executor");
  parallel_ = std::make_unique<Parallel>();
  parallel_->executors = executors;
  parallel_->ctxs.resize(executors);
  for (size_t i = 1; i < executors; ++i) {
    parallel_->threads.emplace_back([this, i] { WorkerThread(i); });
  }
}

uint64_t Simulator::parallel_segments() const {
  return parallel_ ? parallel_->segments : 0;
}

uint64_t Simulator::parallel_events() const {
  return parallel_ ? parallel_->parallel_events : 0;
}

void Simulator::StopParallel() {
  if (parallel_ == nullptr) {
    return;
  }
  {
    MutexLock lk(parallel_->mu);
    parallel_->stop = true;
  }
  parallel_->work_cv.notify_all();
  for (std::thread& th : parallel_->threads) {
    th.join();
  }
  parallel_->threads.clear();
}

void Simulator::WorkerThread(size_t idx) {
  Parallel& p = *parallel_;
  uint64_t seen_gen = 0;
  for (;;) {
    {
      CondLock lk(p.mu);
      p.work_cv.wait(lk.native(), [&] { return p.stop || p.job_gen != seen_gen; });
      if (p.stop) {
        return;
      }
      seen_gen = p.job_gen;
    }
    RunGroups(p.ctxs[idx]);
    {
      MutexLock lk(p.mu);
      ++p.done_count;
    }
    p.done_cv.notify_one();
  }
}

void Simulator::RunGroups(WorkerCtx& ctx) {
  Parallel& p = *parallel_;
  ShardLane& lane = ShardLane::Current();
  for (;;) {
    const size_t gi = p.next_group.fetch_add(1, std::memory_order_relaxed);
    if (gi >= p.ngroups) {
      break;
    }
    SegmentGroup& g = p.groups[gi];
    for (size_t i = 0; i < g.slots.size(); ++i) {
      const uint32_t slot = g.slots[i];
      Callback fn;
      {
        MutexLock lk(p.slot_mu);
        Slot& s = slots_[slot];
        if (s.cancelled) {
          continue;  // surfaced cancelled; retired (executed flag stays 0)
        }
        fn = std::move(s.fn);
        s.pending = false;  // running: Cancel() becomes a no-op, as in serial
      }
      ctx.entry_pos = g.positions[i];
      p.executed[g.positions[i] - p.seg_base] = 1;
      lane.shard = g.shard;
      lane.sink = &ctx;
      fn();
      lane.sink = nullptr;
      lane.shard = kSystemShard;
    }
  }
}

uint64_t Simulator::ExecuteSegment() {
  Parallel& p = *parallel_;
  // Group the run by shard, preserving FIFO order within each shard. The
  // distinct-shard count per segment is small (one per ready domain), so a
  // linear scan beats a map.
  p.ngroups = 0;
  for (const RunEntry& e : run_scratch_) {
    SegmentGroup* g = nullptr;
    for (size_t i = 0; i < p.ngroups; ++i) {
      if (p.groups[i].shard == e.shard) {
        g = &p.groups[i];
        break;
      }
    }
    if (g == nullptr) {
      g = &p.AddGroup(e.shard);
    }
    g->slots.push_back(e.slot);
    g->positions.push_back(e.pos);
  }
  p.seg_base = run_scratch_.front().pos;
  p.executed.assign(run_scratch_.size(), 0);
  p.next_group.store(0, std::memory_order_relaxed);
  {
    MutexLock lk(p.mu);
    ++p.job_gen;
    p.done_count = 0;
  }
  p.work_cv.notify_all();
  RunGroups(p.ctxs[0]);  // the driving thread is executor 0
  {
    CondLock lk(p.mu);
    p.done_cv.wait(lk.native(), [&] { return p.done_count == p.threads.size(); });
  }

  // --- single-threaded from here on ---
  // Retire run entries in FIFO order: accounting, slot release, event probe.
  uint64_t n = 0;
  for (const RunEntry& e : run_scratch_) {
    const bool ran = p.executed[e.pos - p.seg_base] != 0;
    ReleaseSlot(e.slot);
    if (ran) {
      ++events_executed_;
      --live_pending_;
      ++n;
      if (probe_) [[unlikely]] {
        probe_(now_, e.shard);
      }
    }
    // else: cancelled mid-segment; Cancel() already uncounted it.
  }
  // Merge buffered effects in ascending FIFO position of the producing entry
  // (stable within one entry: a worker's buffer is already in call order, and
  // one entry's effects live contiguously in exactly one buffer).
  merge_scratch_.clear();
  for (WorkerCtx& ctx : p.ctxs) {
    for (Effect& eff : ctx.effects) {
      merge_scratch_.push_back(&eff);
    }
  }
  std::stable_sort(merge_scratch_.begin(), merge_scratch_.end(),
                   [](const Effect* a, const Effect* b) {
                     return a->entry_pos < b->entry_pos;
                   });
  for (Effect* eff : merge_scratch_) {
    ApplyEffect(*eff);
  }
  for (WorkerCtx& ctx : p.ctxs) {
    ctx.effects.clear();
  }
  ++p.segments;
  p.parallel_events += n;
  // The barrier closes the checker's access window for the segment as a unit
  // (worker-side accesses were lane-enforced instead of window-tracked).
  if (post_event_hook_) [[unlikely]] {
    post_event_hook_();
  }
  return n;
}

void Simulator::ApplyEffect(Effect& eff) {
  switch (eff.kind) {
    case Effect::Kind::kSchedule:
      // live_pending_ and the slot body were set at CallAtOn time; only the
      // FIFO-ordered bucket append was deferred.
      buckets_[BucketFor(eff.time)].entries.push_back(eff.slot);
      break;
    case Effect::Kind::kSpawn:
      RegisterTask(eff.spawn);
      break;
    case Effect::Kind::kGeneric:
      eff.generic();
      break;
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
  ShardLane& lane = ShardLane::Current();
  // Entries below this index are known to form single-shard (or cancelled)
  // runs — no need to rescan them for segment formation.
  size_t scanned_until = 0;
  // Events scheduled for `t` during the batch append behind `head`, so the
  // bucket keeps handing them out in FIFO order. Re-deref `buckets_[top]`
  // every iteration: a callback may open a new bucket and grow the vector.
  for (;;) {
    Bucket& b = buckets_[top];
    if (b.head == b.entries.size()) {
      break;
    }
    const uint32_t slot = b.entries[b.head];
    Slot& s = slots_[slot];
    if (s.cancelled) {
      ReleaseSlot(slot);
      ++b.head;
      continue;
    }
    if (parallel_ != nullptr && s.shard != kSystemShard &&
        b.head >= scanned_until) {
      // Scan the maximal run of consecutive domain-shard (or cancelled)
      // entries; a run spanning >= 2 distinct live shards becomes a segment.
      const ShardId first = s.shard;
      bool multi = false;
      size_t j = b.head;
      while (j < b.entries.size()) {
        const Slot& e = slots_[b.entries[j]];
        if (!e.cancelled && e.shard == kSystemShard) {
          break;
        }
        if (!e.cancelled && e.shard != first) {
          multi = true;
        }
        ++j;
      }
      scanned_until = j;
      if (multi) {
        run_scratch_.clear();
        for (size_t k = b.head; k < j; ++k) {
          const uint32_t rs = b.entries[k];
          run_scratch_.push_back(
              RunEntry{rs, static_cast<uint32_t>(k), slots_[rs].shard});
        }
        b.head = j;
        n += ExecuteSegment();
        continue;
      }
      // Single-shard run: fall through and execute inline (serial semantics);
      // scanned_until spares the rescan for the rest of the run.
    }
    // Release before invoking: Cancel() of the now-running id is a no-op, and
    // the callback is free to schedule into the recycled slot.
    const ShardId shard = s.shard;
    Callback fn = std::move(s.fn);
    ReleaseSlot(slot);
    ++b.head;
    ++events_executed_;
    --live_pending_;
    ++n;
    lane.shard = shard;
    fn();
    lane.shard = kSystemShard;
    if (probe_) [[unlikely]] {
      probe_(now_, shard);
    }
    if (post_event_hook_) [[unlikely]] {
      post_event_hook_();
    }
  }
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
  const uint32_t slot = b.entries[b.head++];  // FindLiveTop ensured liveness
  const ShardId shard = slots_[slot].shard;
  Callback fn = std::move(slots_[slot].fn);
  ReleaseSlot(slot);
  ++events_executed_;
  --live_pending_;
  ShardLane& lane = ShardLane::Current();
  lane.shard = shard;
  fn();
  lane.shard = kSystemShard;
  if (probe_) [[unlikely]] {
    probe_(now_, shard);
  }
  if (post_event_hook_) [[unlikely]] {
    post_event_hook_();
  }
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
