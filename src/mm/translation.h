// High-level translation system (paper §6.3): private to the system domain,
// responsible for page-table construction, NULL mappings for freshly
// allocated virtual addresses, and protection-domain lifecycle. Placing this
// in the system domain means the low-level translation system never allocates
// page-table memory.
#ifndef SRC_MM_TRANSLATION_H_
#define SRC_MM_TRANSLATION_H_

#include <functional>
#include <memory>
#include <vector>

#include "src/hw/mmu.h"
#include "src/mm/prot_domain.h"

namespace nemesis {

class TranslationSystem {
 public:
  explicit TranslationSystem(Mmu& mmu) : mmu_(mmu) {}

  Mmu& mmu() { return mmu_; }

  // Installs NULL mappings for [base, base + npages * page_size): allocated,
  // invalid (so first touch page-faults), carrying the stretch id and the
  // initial global rights.
  void AddRange(VirtAddr base, size_t npages, Sid sid, uint8_t global_rights);

  // Removes the entries entirely (addresses become "unallocated").
  void RemoveRange(VirtAddr base, size_t npages);

  ProtectionDomain* CreateProtectionDomain();
  void DeleteProtectionDomain(PdomId id);
  ProtectionDomain* FindProtectionDomain(PdomId id);
  const ProtectionDomain* FindProtectionDomain(PdomId id) const;
  size_t pdom_count() const;

  // Strips `sid` from every protection domain (stretch destruction).
  void RemoveSidRights(Sid sid);

  // Auditor/debug sweep over all protection domains.
  void ForEachProtectionDomain(const std::function<void(const ProtectionDomain&)>& fn) const;

 private:
  Mmu& mmu_;
  PdomId next_pdom_id_ = 1;
  std::vector<std::unique_ptr<ProtectionDomain>> pdoms_;
};

}  // namespace nemesis

#endif  // SRC_MM_TRANSLATION_H_
