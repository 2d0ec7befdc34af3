// Shared kernel-level identifiers and records.
#ifndef SRC_KERNEL_TYPES_H_
#define SRC_KERNEL_TYPES_H_

#include <cstdint>

#include "src/base/units.h"
#include "src/hw/mmu.h"
#include "src/sim/time.h"

namespace nemesis {

// A domain is the Nemesis analogue of a process or task (paper footnote 2).
using DomainId = uint32_t;
constexpr DomainId kNoDomain = 0;

// Index of an event endpoint within a domain.
using EndpointId = uint32_t;

// Information the kernel saves on a memory fault before dispatching an event
// to the faulting domain ("sufficient information (e.g. faulting address,
// cause, etc.) is made available to the application").
struct FaultRecord {
  VirtAddr va = 0;
  FaultType type = FaultType::kNone;
  AccessType access = AccessType::kRead;
  // The stretch the MMU read from the faulting PTE (kNoSid: outside any
  // stretch). The MMEntry demultiplexes the fault to its driver by this sid.
  Sid sid = kNoSid;
  SimTime time = 0;
  // Fault trace id ((domain << 32) | per-domain sequence), assigned by
  // Kernel::RaiseFault when 0. Threads the fault-lifecycle span through
  // MmEntry, the stretch driver, the USD, and back to resume.
  uint64_t id = 0;
};
// sid sits in the padding after `access`: the fault and job deques hold these
// by value, and a larger record allocates more deque blocks per fault.
static_assert(sizeof(FaultRecord) == 32);

// Costs of the kernel's part of fault handling, taken from the paper's trap
// breakdown: "the kernel send an event (<50ns), do a full context save
// (~750ns), and then activate the faulting domain (<200ns)".
struct KernelCostModel {
  SimDuration event_send = Nanoseconds(50);
  SimDuration context_save = Nanoseconds(750);
  SimDuration activation = Nanoseconds(200);

  SimDuration FaultDispatchCost() const { return event_send + context_save + activation; }
};

enum class VmError {
  kNoStretch,     // VA is not part of any stretch
  kNoMeta,        // caller lacks the meta right on the stretch
  kNotOwner,      // frame not owned by the calling domain
  kFrameMapped,   // frame already mapped elsewhere
  kFrameNailed,   // frame is nailed
  kBadFrame,      // PFN out of range
  kNotMapped,     // unmap/trans of an unmapped VA
  kAlreadyMapped, // map over an existing valid mapping
  kNotNailed,     // unnail of a frame that is not nailed
};

const char* VmErrorName(VmError error);

}  // namespace nemesis

#endif  // SRC_KERNEL_TYPES_H_
