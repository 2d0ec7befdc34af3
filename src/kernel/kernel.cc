#include "src/kernel/kernel.h"

#include <utility>

#include "src/base/assert.h"
#include "src/base/log.h"
#include "src/obs/obs.h"

namespace nemesis {

const char* VmErrorName(VmError error) {
  switch (error) {
    case VmError::kNoStretch:
      return "no-stretch";
    case VmError::kNoMeta:
      return "no-meta";
    case VmError::kNotOwner:
      return "not-owner";
    case VmError::kFrameMapped:
      return "frame-mapped";
    case VmError::kFrameNailed:
      return "frame-nailed";
    case VmError::kBadFrame:
      return "bad-frame";
    case VmError::kNotMapped:
      return "not-mapped";
    case VmError::kAlreadyMapped:
      return "already-mapped";
    case VmError::kNotNailed:
      return "not-nailed";
  }
  return "?";
}

Kernel::Kernel(Simulator& sim, Mmu& mmu, uint64_t num_frames, KernelCostModel costs)
    : sim_(sim), mmu_(mmu), ramtab_(num_frames), syscalls_(mmu, ramtab_), costs_(costs) {}

Domain* Kernel::CreateDomain(std::string name) {
  const DomainId id = next_domain_id_++;
  domains_.push_back(std::make_unique<Domain>(*this, id, std::move(name), sim_));
  NEM_ASSERT(domains_.size() == id);  // FindDomain indexes by id - 1
  return domains_.back().get();
}

Domain* Kernel::FindDomain(DomainId id) {
  // Ids are handed out densely from 1 and domains are never removed, so the
  // table index is id - 1 (id 0 wraps to a huge index and misses).
  const size_t index = static_cast<size_t>(id) - 1;
  return index < domains_.size() ? domains_[index].get() : nullptr;
}

void Kernel::SendEvent(DomainId target, EndpointId ep) {
  Domain* domain = FindDomain(target);
  if (domain == nullptr || !domain->alive()) {
    NEM_LOG_WARN("kernel", "event to missing/dead domain %u dropped", target);
    return;
  }
  NEM_ASSERT_MSG(ep < domain->endpoint_count(), "event to unallocated endpoint");
  events_sent_.Inc();
  ++domain->endpoints_[ep].value;
  domain->activation_condition().NotifyAll();
}

uint64_t Kernel::RaiseFault(DomainId id, FaultRecord record) {
  Domain* domain = FindDomain(id);
  NEM_ASSERT_MSG(domain != nullptr, "fault raised for unknown domain");
  if (!domain->alive()) {
    return 0;
  }
  faults_dispatched_.Inc();
  record.time = sim_.Now();
  if (record.id == 0) {
    record.id = domain->NextFaultId();
  }
  if (obs_ != nullptr) {
    obs_->Span(record.time, id, stage::kRaise, 0.0, record.id);
  }
  // "the kernel saves the current context in the domain's activation context
  // and sends an event to the faulting domain."
  domain->fault_queue().push_back(record);
  SendEvent(id, domain->fault_endpoint());
  return record.id;
}

}  // namespace nemesis
