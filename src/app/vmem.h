// Application-side virtual memory accessor.
//
// Workload coroutines touch memory through VMem. Every access goes through
// the MMU under the domain's protection domain; a fault follows the paper's
// full path: the kernel saves the fault record and dispatches an event, the
// domain is activated, the MMEntry demultiplexes to the stretch driver, and
// the faulting "thread" (the calling coroutine) blocks until the fault is
// resolved, paying the kernel dispatch cost and the user-level handling cost
// out of its own simulated time.
#ifndef SRC_APP_VMEM_H_
#define SRC_APP_VMEM_H_

#include <cstdint>
#include <span>

#include "src/app/driver_env.h"
#include "src/app/mm_entry.h"
#include "src/hw/mmu.h"
#include "src/sim/task.h"

namespace nemesis {

// CPU-time model for application memory activity. Defaults follow the paper:
// "a trivial amount of computation is performed per page", and roughly 3 µs
// are spent in the unoptimised user-level notification handlers, stretch
// drivers and thread scheduler per fault.
struct AppCostModel {
  SimDuration per_byte_cpu = Nanoseconds(2);
  SimDuration fault_user_cost = Microseconds(3);
};

class VMem {
 public:
  VMem(DriverEnv env, Domain& domain, MmEntry& mm_entry, Mmu& mmu,
       AppCostModel costs = AppCostModel{})
      : env_(env), domain_(domain), mm_entry_(mm_entry), mmu_(mmu), costs_(costs) {}

  // Touches every byte in [va, va + len) with `access`, page by page,
  // charging per-byte CPU cost; *ok = false if a fault was unresolvable.
  // *bytes_done (optional) is updated continuously so watcher threads can
  // log progress, as the paper's experiments do.
  Task AccessRange(VirtAddr va, size_t len, AccessType access, bool* ok,
                   uint64_t* bytes_done = nullptr);

  // Copies memory out of / into the address space (faulting as needed).
  Task Read(VirtAddr va, std::span<uint8_t> out, bool* ok);
  Task Write(VirtAddr va, std::span<const uint8_t> data, bool* ok);

  uint64_t faults_taken() const { return faults_taken_.value(); }
  uint64_t checksum() const { return checksum_; }
  // Total simulated time this domain's threads spent stalled on faults (from
  // raise to resolution), and the mean per fault.
  SimDuration fault_stall_time() const { return fault_stall_time_; }
  double MeanFaultStallUs() const {
    return faults_taken() > 0
               ? ToMicroseconds(fault_stall_time_) / static_cast<double>(faults_taken())
               : 0.0;
  }

 private:
  DriverEnv env_;
  Domain& domain_;
  MmEntry& mm_entry_;
  Mmu& mmu_;
  AppCostModel costs_;
  StatCounter faults_taken_;
  SimDuration fault_stall_time_ = 0;
  uint64_t checksum_ = 0;  // defeats dead-read elimination; exposed for tests

  friend struct VMemDetail;
};

}  // namespace nemesis

#endif  // SRC_APP_VMEM_H_
