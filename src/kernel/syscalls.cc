#include "src/kernel/syscalls.h"

namespace nemesis {

Expected<Pte*, VmError> TranslationSyscalls::ValidateMeta(const RightsResolver* pdom,
                                                          VirtAddr va) {
  Pte* pte = mmu_.page_table()->Lookup(mmu_.VpnOf(va));
  if (pte == nullptr || pte->sid == kNoSid) {
    // "it is not possible to map a virtual address which is not part of some
    // stretch."
    return MakeUnexpected(VmError::kNoStretch);
  }
  if (!HasRights(EffectiveRights(pdom, *pte), kRightMeta)) {
    return MakeUnexpected(VmError::kNoMeta);
  }
  return pte;
}

Status<VmError> TranslationSyscalls::Map(DomainId caller, const RightsResolver* pdom, VirtAddr va,
                                         Pfn pfn, MapAttrs attrs) {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  auto pte_or = ValidateMeta(pdom, va);
  if (!pte_or.has_value()) {
    return MakeUnexpected(pte_or.error());
  }
  Pte* pte = *pte_or;
  if (pte->valid) {
    return MakeUnexpected(VmError::kAlreadyMapped);
  }
  // Frame validation against the RamTab.
  if (!ramtab_.ValidPfn(pfn)) {
    return MakeUnexpected(VmError::kBadFrame);
  }
  if (ramtab_.OwnerOf(pfn) != caller) {
    return MakeUnexpected(VmError::kNotOwner);
  }
  if (ramtab_.StateOf(pfn) == FrameState::kMapped) {
    return MakeUnexpected(VmError::kFrameMapped);
  }
  if (ramtab_.StateOf(pfn) == FrameState::kNailed) {
    return MakeUnexpected(VmError::kFrameNailed);
  }

  RecordAccess(SharedStructure::kPageTable, caller);
  RecordAccess(SharedStructure::kRamTab, caller);
  pte->valid = true;
  pte->pfn = pfn;
  if (attrs.rights != kRightNone) {
    pte->rights = attrs.rights;
  }
  pte->fault_on_read = attrs.fault_on_read;
  pte->fault_on_write = attrs.fault_on_write;
  pte->dirty = false;
  pte->referenced = false;
  ramtab_.SetMapped(pfn, mmu_.VpnOf(va));
  mmu_.tlb().Invalidate(mmu_.VpnOf(va));
  ++map_count_;
  return Status<VmError>::Ok();
}

Status<VmError> TranslationSyscalls::Unmap(DomainId caller, const RightsResolver* pdom,
                                           VirtAddr va, Pfn* out_pfn) {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  auto pte_or = ValidateMeta(pdom, va);
  if (!pte_or.has_value()) {
    return MakeUnexpected(pte_or.error());
  }
  Pte* pte = *pte_or;
  if (!pte->valid) {
    return MakeUnexpected(VmError::kNotMapped);
  }
  const Pfn pfn = pte->pfn;
  if (ramtab_.OwnerOf(pfn) != caller) {
    return MakeUnexpected(VmError::kNotOwner);
  }
  if (ramtab_.StateOf(pfn) == FrameState::kNailed) {
    return MakeUnexpected(VmError::kFrameNailed);
  }
  RecordAccess(SharedStructure::kPageTable, caller);
  RecordAccess(SharedStructure::kRamTab, caller);
  pte->valid = false;
  pte->pfn = 0;
  ramtab_.SetUnused(pfn);
  mmu_.tlb().Invalidate(mmu_.VpnOf(va));
  ++unmap_count_;
  if (out_pfn != nullptr) {
    *out_pfn = pfn;
  }
  return Status<VmError>::Ok();
}

Status<VmError> TranslationSyscalls::Nail(DomainId caller, Pfn pfn) {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  if (!ramtab_.ValidPfn(pfn)) {
    return MakeUnexpected(VmError::kBadFrame);
  }
  if (ramtab_.OwnerOf(pfn) != caller) {
    return MakeUnexpected(VmError::kNotOwner);
  }
  if (ramtab_.StateOf(pfn) == FrameState::kNailed) {
    return MakeUnexpected(VmError::kFrameNailed);
  }
  RecordAccess(SharedStructure::kRamTab, caller);
  // SetNailed preserves mapped_vpn, so a nailed-while-mapped frame can return
  // to kMapped on unnail.
  ramtab_.SetNailed(pfn);
  return Status<VmError>::Ok();
}

Status<VmError> TranslationSyscalls::Unnail(DomainId caller, Pfn pfn) {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  if (!ramtab_.ValidPfn(pfn)) {
    return MakeUnexpected(VmError::kBadFrame);
  }
  if (ramtab_.OwnerOf(pfn) != caller) {
    return MakeUnexpected(VmError::kNotOwner);
  }
  if (ramtab_.StateOf(pfn) != FrameState::kNailed) {
    return MakeUnexpected(VmError::kNotNailed);
  }
  RecordAccess(SharedStructure::kRamTab, caller);
  const Vpn vpn = ramtab_.Get(pfn).mapped_vpn;
  const Pte* pte = vpn != 0 ? mmu_.page_table()->Lookup(vpn) : nullptr;
  if (pte != nullptr && pte->valid && pte->pfn == pfn) {
    ramtab_.SetMapped(pfn, vpn);
  } else {
    ramtab_.SetUnused(pfn);
  }
  return Status<VmError>::Ok();
}

bool TranslationSyscalls::ForceUnmap(Vpn vpn) {
  g_system_domain.AssertHeld();  // serialized system section (see thread_annotations.h)
  Pte* pte = mmu_.page_table()->Lookup(vpn);
  if (pte == nullptr || !pte->valid) {
    return false;
  }
  const Pfn pfn = pte->pfn;
  pte->valid = false;
  pte->pfn = 0;
  if (ramtab_.ValidPfn(pfn)) {
    ramtab_.SetUnused(pfn);
  }
  mmu_.tlb().Invalidate(vpn);
  ++unmap_count_;
  return true;
}

Expected<TransResult, VmError> TranslationSyscalls::Trans(VirtAddr va) const {
  const Pte* pte = mmu_.page_table()->Lookup(va / mmu_.page_size());
  if (pte == nullptr) {
    return MakeUnexpected(VmError::kNoStretch);
  }
  if (!pte->valid) {
    return MakeUnexpected(VmError::kNotMapped);
  }
  return TransResult{pte->pfn, pte->rights, pte->dirty, pte->referenced};
}

Status<VmError> TranslationSyscalls::ArmDirtyTracking(DomainId /*caller*/,
                                                      const RightsResolver* pdom, VirtAddr va,
                                                      bool fault_on_write, bool fault_on_read) {
  auto pte_or = ValidateMeta(pdom, va);
  if (!pte_or.has_value()) {
    return MakeUnexpected(pte_or.error());
  }
  Pte* pte = *pte_or;
  if (!pte->valid) {
    return MakeUnexpected(VmError::kNotMapped);
  }
  pte->fault_on_write = fault_on_write;
  pte->fault_on_read = fault_on_read;
  pte->dirty = false;
  pte->referenced = false;
  mmu_.tlb().Invalidate(mmu_.VpnOf(va));
  return Status<VmError>::Ok();
}

Status<VmError> TranslationSyscalls::ClearReferenced(DomainId /*caller*/,
                                                     const RightsResolver* pdom, VirtAddr va) {
  auto pte_or = ValidateMeta(pdom, va);
  if (!pte_or.has_value()) {
    return MakeUnexpected(pte_or.error());
  }
  Pte* pte = *pte_or;
  if (!pte->valid) {
    return MakeUnexpected(VmError::kNotMapped);
  }
  pte->referenced = false;
  return Status<VmError>::Ok();
}

Status<VmError> TranslationSyscalls::SetPteRights(DomainId /*caller*/, const RightsResolver* pdom,
                                                  VirtAddr va, uint8_t rights) {
  auto pte_or = ValidateMeta(pdom, va);
  if (!pte_or.has_value()) {
    return MakeUnexpected(pte_or.error());
  }
  Pte* pte = *pte_or;
  if (pte->rights == rights) {
    // Idempotent change detection (the paper: "the protection scheme detects
    // idempotent changes", making repeated identical protects ~free).
    return Status<VmError>::Ok();
  }
  pte->rights = rights;
  mmu_.tlb().Invalidate(mmu_.VpnOf(va));
  return Status<VmError>::Ok();
}

}  // namespace nemesis
