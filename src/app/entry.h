// Generic entry (paper §6.5, after ANSAware/RT): "The combination of
// notification handler and worker threads is called an entry ... Entries
// encapsulate a scheduling policy on event handling, and may be used for a
// variety of IDC services."
//
// An Entry owns a domain's activation loop: it waits for events, runs the
// registered notification handlers with activations off, and feeds jobs to a
// pool of worker coroutines where blocking operations (IDC) are allowed.
// The MMEntry is the memory-management specialisation of this pattern; this
// generic form underlies arbitrary inter-domain services (see src/app/idc.h).
#ifndef SRC_APP_ENTRY_H_
#define SRC_APP_ENTRY_H_

#include <cstdint>
#include <deque>
#include <functional>
#include <vector>

#include "src/kernel/domain.h"
#include "src/kernel/kernel.h"
#include "src/sim/sync.h"

namespace nemesis {

class Entry {
 public:
  // A job is a factory for a worker coroutine; it runs with IDC allowed.
  using Job = std::function<Task()>;

  Entry(Simulator& sim, Domain& domain, size_t num_workers = 1);
  ~Entry();
  Entry(const Entry&) = delete;
  Entry& operator=(const Entry&) = delete;

  // Registers a notification handler for `ep` (runs activations-off; it must
  // not block — queue a job for anything that needs to).
  void Attach(EndpointId ep, Domain::NotificationHandler handler);

  // Enqueues work for the worker pool (callable from handlers).
  void QueueJob(Job job);

  // Spawns the activation loop and workers.
  void Start();
  void Stop();

  uint64_t jobs_run() const { return jobs_run_; }
  size_t jobs_queued() const { return jobs_.size(); }

 private:
  Task ActivationLoop();
  Task Worker();

  Simulator& sim_;
  Domain& domain_;
  size_t num_workers_;
  std::deque<Job> jobs_;
  Condition work_cv_;
  std::vector<TaskHandle> tasks_;
  OwnedTaskSet job_tasks_;  // in-flight worker jobs (joined by the workers)
  bool started_ = false;
  uint64_t jobs_run_ = 0;
};

}  // namespace nemesis

#endif  // SRC_APP_ENTRY_H_
