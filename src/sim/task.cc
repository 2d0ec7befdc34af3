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
  first_watcher.Reset();
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

void TaskState::AddCompletionWatcher(SmallFunction<void()> fn) {
  if (!first_watcher) {
    first_watcher = std::move(fn);
  } else {
    more_watchers.push_back(std::move(fn));
  }
}

void TaskState::FireCompletionWatchers() {
  if (!first_watcher) {
    return;
  }
  SmallFunction<void()> first = std::move(first_watcher);
  std::vector<SmallFunction<void()>> more;
  more.swap(more_watchers);
  auto fire = [this](SmallFunction<void()>& fn) {
    if (sim != nullptr) {
      sim->CallAfter(0, std::move(fn));
    } else {
      fn();
    }
  };
  fire(first);
  for (SmallFunction<void()>& fn : more) {
    fire(fn);
  }
}

TaskState::~TaskState() {
  // Reclaim a frame that never ran to completion (e.g. simulation ended while
  // the task was blocked).
  if (!destroyed && handle) {
    handle.destroy();
  }
}

std::coroutine_handle<> Task::promise_type::FinalAwaiter::await_suspend(
    std::coroutine_handle<promise_type> h) noexcept {
  promise_type& p = h.promise();
  TaskState& st = *p.state;
  if (!p.parent) {
    st.done = true;
    return std::noop_coroutine();
  }
  // Exit hop: the parent resumes at the current time, in the slot a Join
  // watcher's wakeup took when the child was a spawned task of its own; in
  // place when that slot is next anyway.
  st.leaf = p.parent;
  if (!st.killed && st.sim->TakeInPlaceHop()) {
    return p.parent;
  }
  // The finished child never reads its state again: the hop takes its
  // reference.
  st.sim->ResumeNow(std::move(p.state));
  return std::noop_coroutine();
}

std::coroutine_handle<> Task::InlineAwaiter::await_suspend(Handle parent) {
  promise_type& p = child_.promise();
  p.state = parent.promise().state;
  p.parent = parent;
  TaskState& st = *p.state;
  st.leaf = child_;
  // Entry hop: the child's first resume is scheduled at the current time, in
  // the slot a Spawn's first resume took; in place when that slot is next
  // anyway.
  if (!st.killed && st.sim->TakeInPlaceHop()) {
    return child_;
  }
  st.sim->ResumeNow(p.state);
  return std::noop_coroutine();
}

void DelayAwaiter::await_suspend(std::coroutine_handle<Task::promise_type> h) {
  sim->CallAfter(duration_ns, [st = StateOf(h)] { st->Resume(); });
}

void JoinAwaiter::await_suspend(std::coroutine_handle<Task::promise_type> h) {
  target->AddCompletionWatcher([st = StateOf(h)] { st->Resume(); });
}

}  // namespace nemesis
