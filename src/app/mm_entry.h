// The MMEntry (paper §6.5): the entry — notification handler plus worker
// threads — that coordinates a domain's stretch drivers.
//
//   * On a memory-fault event it demultiplexes the faulting stretch to the
//     bound stretch driver and invokes it: first the fast path inside the
//     notification handler (activations off, no IDC), then, if that returns
//     Retry, from a worker thread where IDC is possible. The stretch is named
//     by the sid the MMU read from the faulting PTE (the stretch allocator
//     writes it into every NULL mapping), so dispatch searches only this
//     domain's own bindings, never the system's address map.
//   * On a revocation notification from the frames allocator it cycles
//     through the domain's stretch drivers requesting that they relinquish
//     frames until enough have been freed, then replies to the allocator.
//
// Faulting threads synchronise through resolved_cv(): they re-probe their
// address and wait while the fault is pending (concurrent faults on one page
// are deduplicated here).
#ifndef SRC_APP_MM_ENTRY_H_
#define SRC_APP_MM_ENTRY_H_

#include <algorithm>
#include <cstdint>
#include <deque>
#include <unordered_set>
#include <vector>

#include "src/app/driver_env.h"
#include "src/app/stretch_driver.h"
#include "src/kernel/domain.h"
#include "src/sim/sync.h"

namespace nemesis {

class MmEntry {
 public:
  MmEntry(DriverEnv env, Domain& domain, size_t num_workers = 1);
  ~MmEntry();
  MmEntry(const MmEntry&) = delete;
  MmEntry& operator=(const MmEntry&) = delete;

  // Installs the notification handlers and spawns the activation loop and
  // worker threads.
  void Start();

  // Stops all tasks (used on domain kill).
  void Stop();

  // "Before the virtual address may be referred to the stretch must be bound
  // to a stretch driver." Rebinding a stretch replaces its binding in place.
  void BindDriver(Stretch* stretch, StretchDriver* driver);

  // --- Faulting-thread interface -------------------------------------------

  Condition& resolved_cv() { return resolved_cv_; }
  bool IsPending(Vpn vpn) const {
    return std::find(pending_.begin(), pending_.end(), vpn) != pending_.end();
  }
  // Returns true (and clears the flag) if the last resolution of `vpn` failed.
  bool ConsumeFailure(Vpn vpn);

  // --- Revocation interface -------------------------------------------------

  // Called (by the system wiring) when the frames allocator starts an
  // intrusive revocation against this domain; sends the event that the
  // notification handler picks up.
  void NotifyRevocation(uint64_t k, SimTime deadline);

  // --- Stats ----------------------------------------------------------------

  uint64_t faults_fast_path() const { return faults_fast_path_.value(); }
  uint64_t faults_worker() const { return faults_worker_.value(); }
  uint64_t faults_failed() const { return faults_failed_.value(); }
  uint64_t revocations_handled() const { return revocations_handled_.value(); }

 private:
  struct Job {
    enum class Kind { kFault, kRevoke } kind;
    FaultRecord fault;
    Stretch* stretch = nullptr;
    StretchDriver* driver = nullptr;
    uint64_t revoke_k = 0;
    SimTime enqueued_at = 0;  // for the queue-wait span
  };

  struct Binding {
    Stretch* stretch;
    StretchDriver* driver;  // null: bound to no driver, its faults fail
  };

  Binding* FindBinding(Sid sid) {
    auto it = std::find_if(bindings_.begin(), bindings_.end(),
                           [sid](const Binding& b) { return b.stretch->sid() == sid; });
    return it != bindings_.end() ? &*it : nullptr;
  }

  void OnFaultEvent();
  void OnRevokeEvent();
  Task ActivationLoop();
  Task Worker();
  void CompleteFault(Vpn vpn, FaultResult result);

  DriverEnv env_;
  Domain& domain_;
  size_t num_workers_;

  // In bind order: a domain binds a handful of stretches, so a scan is the
  // lookup, and Stop and revocation visit the drivers in a fixed order.
  std::vector<Binding> bindings_;

  EndpointId revoke_endpoint_ = 0;
  uint64_t pending_revoke_k_ = 0;

  // Pages with a fault in hand. A flat list whose capacity is reused: it
  // holds at most one entry per faulting thread, so a scan beats hashing and
  // a demand fault allocates nothing here.
  std::vector<Vpn> pending_;
  std::unordered_set<Vpn> failed_;
  Condition resolved_cv_;

  std::deque<Job> jobs_;
  Condition work_cv_;

  std::vector<TaskHandle> tasks_;
  bool started_ = false;

  StatCounter faults_fast_path_;
  StatCounter faults_worker_;
  StatCounter faults_failed_;
  StatCounter revocations_handled_;
};

}  // namespace nemesis

#endif  // SRC_APP_MM_ENTRY_H_
