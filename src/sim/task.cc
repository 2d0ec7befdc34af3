#include "src/sim/task.h"

#include "src/sim/simulator.h"

namespace nemesis {

void TaskState::Resume() {
  if (destroyed || done) {
    return;
  }
  if (killed) {
    DestroyFrame();
    FireCompletionWatchers();
    return;
  }
  running = true;
  leaf.resume();
  running = false;
  if (done) {
    // The coroutine reached final_suspend; the frame can be reclaimed now.
    DestroyFrame();
    FireCompletionWatchers();
  } else if (killed) {
    // The task killed itself (or was killed re-entrantly) and then suspended.
    DestroyFrame();
    FireCompletionWatchers();
  }
}

void TaskState::Kill() {
  if (done || destroyed || killed) {
    return;
  }
  killed = true;
  if (running) {
    // Torn down when control returns to Resume().
    return;
  }
  DestroyFrame();
  FireCompletionWatchers();
}

void TaskState::Abandon() {
  NEM_ASSERT_MSG(!running, "cannot abandon a running task");
  killed = true;
  first_watcher.fn.Reset();
  more_watchers.clear();
  DestroyFrame();
}

void TaskState::DestroyFrame() {
  if (!destroyed && handle) {
    destroyed = true;
    // Destroying the root frame destroys every awaited child with it: each
    // InlineAwaiter, a local of its parent's frame, owns its child.
    handle.destroy();
    handle = nullptr;
    leaf = nullptr;
  }
}

void TaskState::AddCompletionWatcher(SmallFunction<void()> fn, ShardId on) {
  if (!first_watcher.fn) {
    first_watcher = Watcher{std::move(fn), on};
  } else {
    more_watchers.push_back(Watcher{std::move(fn), on});
  }
}

void TaskState::FireCompletionWatchers() {
  if (!first_watcher.fn) {
    return;
  }
  Watcher first = std::move(first_watcher);
  std::vector<Watcher> more;
  more.swap(more_watchers);
  auto fire = [this](Watcher& w) {
    if (sim != nullptr) {
      sim->CallAfterOn(w.shard, 0, std::move(w.fn));
    } else {
      w.fn();
    }
  };
  fire(first);
  for (Watcher& w : more) {
    fire(w);
  }
}

TaskState::~TaskState() {
  // Reclaim a frame that never ran to completion (e.g. simulation ended while
  // the task was blocked).
  if (!destroyed && handle) {
    handle.destroy();
  }
}

void Task::promise_type::FinalAwaiter::await_suspend(
    std::coroutine_handle<promise_type> h) noexcept {
  promise_type& p = h.promise();
  TaskState& st = *p.state;
  if (!p.parent) {
    st.done = true;
    return;
  }
  // Exit hop: the parent resumes from the event queue, in the slot a Join
  // watcher's wakeup took when the child was a spawned task of its own.
  st.leaf = p.parent;
  st.sim->CallAfterOn(st.shard, 0, [s = p.state] { s->Resume(); });
}

void Task::InlineAwaiter::await_suspend(Handle parent) {
  promise_type& p = child_.promise();
  p.state = parent.promise().state;
  p.parent = parent;
  TaskState& st = *p.state;
  st.leaf = child_;
  // Entry hop: the child's first resume is queued at the current time on the
  // task's shard, in the slot a Spawn's first resume took.
  st.sim->CallAfterOn(st.shard, 0, [s = p.state] { s->Resume(); });
}

void DelayAwaiter::await_suspend(std::coroutine_handle<Task::promise_type> h) {
  const ShardId shard = h.promise().state->shard;
  sim->CallAfterOn(shard, duration_ns, [st = StateOf(h)] { st->Resume(); });
}

void JoinAwaiter::await_suspend(std::coroutine_handle<Task::promise_type> h) {
  const ShardId shard = h.promise().state->shard;
  target->AddCompletionWatcher([st = StateOf(h)] { st->Resume(); }, shard);
}

}  // namespace nemesis
