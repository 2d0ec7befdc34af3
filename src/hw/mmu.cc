#include "src/hw/mmu.h"

namespace nemesis {

const char* FaultTypeName(FaultType type) {
  switch (type) {
    case FaultType::kNone:
      return "none";
    case FaultType::kFaultUnallocated:
      return "unallocated";
    case FaultType::kFaultTnv:
      return "tnv";
    case FaultType::kFaultAcv:
      return "acv";
  }
  return "?";
}

TranslateResult Mmu::Translate(VirtAddr va, AccessType access, const RightsResolver* resolver) {
  const Vpn vpn = VpnOf(va);
  // The hot loop: one iteration normally; a second only when a stale TLB
  // entry is dropped and the translation retries as a miss (kept as a loop,
  // not recursion, so the fast path stays flat).
  for (;;) {
    ++translations_;
    Pte* pte;
    // TLB hit path first: rights are re-resolved because protection-domain
    // switches do not flush the TLB in this model (entries carry the sid),
    // and the PTE is re-read to catch a mapping changed underneath.
    const Tlb::Entry* tlb_entry = tlb_.Lookup(vpn);
    if (tlb_entry != nullptr) [[likely]] {
      pte = page_table_->Lookup(vpn);
      if (pte == nullptr || !pte->valid || pte->pfn != tlb_entry->pfn) [[unlikely]] {
        // Stale entry (mapping changed underneath); drop it and retry.
        tlb_.Invalidate(vpn);
        continue;
      }
    } else {
      pte = page_table_->Lookup(vpn);
      if (pte == nullptr) {
        ++faults_;
        return TranslateResult{FaultType::kFaultUnallocated, 0, kNoSid};
      }
      if (pte->valid) {
        tlb_.Fill(vpn, pte->pfn, pte->rights, pte->sid);
      }
    }

    const Sid sid = pte->sid;
    const uint8_t rights = EffectiveRights(resolver, *pte);

    if (!RightsAllow(rights, access)) [[unlikely]] {
      ++faults_;
      return TranslateResult{FaultType::kFaultAcv, 0, sid};
    }
    if (!pte->valid) [[unlikely]] {
      ++faults_;
      return TranslateResult{FaultType::kFaultTnv, 0, sid};
    }

    // DFault path: consume the FOR/FOW bit and record the access inline, as
    // Nemesis' PALcode does; neither is delivered as a fault.
    if (pte->fault_on_read && access == AccessType::kRead) [[unlikely]] {
      pte->fault_on_read = false;
    }
    if (pte->fault_on_write && access == AccessType::kWrite) [[unlikely]] {
      pte->fault_on_write = false;
    }
    pte->referenced = true;
    if (access == AccessType::kWrite) {
      pte->dirty = true;
    }

    return TranslateResult{FaultType::kNone, pte->pfn * page_size_ + OffsetOf(va), sid};
  }
}

TranslateResult Mmu::Probe(VirtAddr va, AccessType access, const RightsResolver* resolver) const {
  const Vpn vpn = va / page_size_;
  const Pte* pte = page_table_->Lookup(vpn);
  if (pte == nullptr) {
    return TranslateResult{FaultType::kFaultUnallocated, 0, kNoSid};
  }
  if (!RightsAllow(EffectiveRights(resolver, *pte), access)) {
    return TranslateResult{FaultType::kFaultAcv, 0, pte->sid};
  }
  if (!pte->valid) {
    return TranslateResult{FaultType::kFaultTnv, 0, pte->sid};
  }
  return TranslateResult{FaultType::kNone, pte->pfn * page_size_ + va % page_size_, pte->sid};
}

}  // namespace nemesis
