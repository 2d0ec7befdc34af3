// The (minimal) Nemesis kernel: domain table, event transmission, and fault
// dispatching. True to the paper, the kernel performs no paging whatsoever —
// "All paging operations are removed from the kernel; instead the kernel is
// simply responsible for dispatching fault notifications."
#ifndef SRC_KERNEL_KERNEL_H_
#define SRC_KERNEL_KERNEL_H_

#include <memory>
#include <string>
#include <vector>

#include "src/hw/mmu.h"
#include "src/kernel/domain.h"
#include "src/kernel/ramtab.h"
#include "src/kernel/syscalls.h"
#include "src/kernel/types.h"
#include "src/obs/counter.h"
#include "src/sim/simulator.h"

namespace nemesis {

class Obs;

class Kernel {
 public:
  Kernel(Simulator& sim, Mmu& mmu, uint64_t num_frames,
         KernelCostModel costs = KernelCostModel{});

  Simulator& sim() { return sim_; }
  Mmu& mmu() { return mmu_; }
  RamTab& ramtab() { return ramtab_; }
  TranslationSyscalls& syscalls() { return syscalls_; }
  const KernelCostModel& costs() const { return costs_; }

  Domain* CreateDomain(std::string name);
  Domain* FindDomain(DomainId id);
  size_t domain_count() const { return domains_.size(); }

  // Event transmission: counter increment plus a wakeup of the target's
  // activation loop after the (tiny) kernel send cost.
  void SendEvent(DomainId target, EndpointId ep);

  // Saves the fault record into the faulting domain's state and sends the
  // fault event. The dispatch latency (send + context save + activation) is
  // borne by the faulting domain, never by a third party. Returns the fault
  // trace id (assigning one when record.id is 0); returns 0 when the domain
  // is gone.
  uint64_t RaiseFault(DomainId domain, FaultRecord record);

  // Observability hook; spans are emitted only while obs->enabled().
  void set_obs(Obs* obs) { obs_ = obs; }

  uint64_t events_sent() const { return events_sent_.value(); }
  uint64_t faults_dispatched() const { return faults_dispatched_.value(); }

 private:
  Simulator& sim_;
  Mmu& mmu_;
  RamTab ramtab_;
  TranslationSyscalls syscalls_;
  KernelCostModel costs_;
  DomainId next_domain_id_ = 1;
  std::vector<std::unique_ptr<Domain>> domains_;
  Obs* obs_ = nullptr;
  StatCounter events_sent_;
  StatCounter faults_dispatched_;
};

}  // namespace nemesis

#endif  // SRC_KERNEL_KERNEL_H_
