#include "src/mm/translation.h"

#include "src/base/assert.h"

namespace nemesis {

void TranslationSystem::AddRange(VirtAddr base, size_t npages, Sid sid, uint8_t global_rights) {
  NEM_ASSERT(IsAligned(base, mmu_.page_size()));
  const Vpn first = base / mmu_.page_size();
  for (size_t i = 0; i < npages; ++i) {
    Pte* pte = mmu_.page_table()->Ensure(first + i);
    NEM_ASSERT_MSG(pte != nullptr, "virtual address outside the translated region");
    NEM_ASSERT_MSG(!pte->valid && pte->sid == kNoSid, "range already in use");
    pte->sid = sid;
    pte->rights = global_rights;
    pte->valid = false;  // NULL mapping: fault on first access
  }
}

void TranslationSystem::RemoveRange(VirtAddr base, size_t npages) {
  const Vpn first = base / mmu_.page_size();
  for (size_t i = 0; i < npages; ++i) {
    mmu_.page_table()->Remove(first + i);
    mmu_.tlb().Invalidate(first + i);
  }
}

ProtectionDomain* TranslationSystem::CreateProtectionDomain() {
  pdoms_.push_back(std::make_unique<ProtectionDomain>(next_pdom_id_++));
  return pdoms_.back().get();
}

void TranslationSystem::DeleteProtectionDomain(PdomId id) {
  std::erase_if(pdoms_, [id](const auto& p) { return p->id() == id; });
}

ProtectionDomain* TranslationSystem::FindProtectionDomain(PdomId id) {
  for (auto& p : pdoms_) {
    if (p->id() == id) {
      return p.get();
    }
  }
  return nullptr;
}

const ProtectionDomain* TranslationSystem::FindProtectionDomain(PdomId id) const {
  return const_cast<TranslationSystem*>(this)->FindProtectionDomain(id);
}

void TranslationSystem::RemoveSidRights(Sid sid) {
  for (auto& p : pdoms_) {
    if (p->HasEntry(sid)) {
      p->RemoveEntry(sid);
    }
  }
}

void TranslationSystem::ForEachProtectionDomain(
    const std::function<void(const ProtectionDomain&)>& fn) const {
  for (const auto& p : pdoms_) {
    fn(*p);
  }
}

size_t TranslationSystem::pdom_count() const { return pdoms_.size(); }

}  // namespace nemesis
