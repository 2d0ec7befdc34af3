// MMU model: virtual-to-physical translation with Alpha-style fault types.
//
// Fault taxonomy (matching the paper's requirement that protection faults,
// page faults and "unallocated address" faults be distinguished and
// dispatched to the faulting application):
//   kFaultUnallocated — the VA is not part of any stretch (no PTE).
//   kFaultTnv         — NULL mapping / translation not valid (page fault).
//   kFaultAcv         — access-violation (insufficient rights).
// The PTE's fault-on-read/write bits (software referenced/dirty tracking) are
// not faults here: the MMU's DFault path clears the bit, records the access
// and continues, as Nemesis' PALcode DFault routine does.
#ifndef SRC_HW_MMU_H_
#define SRC_HW_MMU_H_

#include <cstdint>
#include <optional>

#include "src/base/units.h"
#include "src/hw/page_table.h"
#include "src/hw/pte.h"
#include "src/hw/tlb.h"

namespace nemesis {

enum class AccessType : uint8_t { kRead, kWrite, kExecute };

enum class FaultType : uint8_t {
  kNone = 0,
  kFaultUnallocated,
  kFaultTnv,
  kFaultAcv,
};

const char* FaultTypeName(FaultType type);

// Resolves stretch-granularity rights for the currently executing protection
// domain. Implemented by mm::ProtectionDomain; a null resolver falls back to
// the global rights stored in the PTE.
class RightsResolver {
 public:
  virtual ~RightsResolver() = default;
  // Returns the rights the current protection domain holds on stretch `sid`,
  // or std::nullopt to defer to the PTE's global rights.
  virtual std::optional<uint8_t> RightsFor(Sid sid) const = 0;
};

// The rights rule (paper §6.1): the protection domain's entry for the PTE's
// stretch if it has one, else the PTE's global rights.
inline uint8_t EffectiveRights(const RightsResolver* resolver, const Pte& pte) {
  if (resolver != nullptr) {
    if (std::optional<uint8_t> r = resolver->RightsFor(pte.sid); r.has_value()) {
      return *r;
    }
  }
  return pte.rights;
}

struct TranslateResult {
  FaultType fault = FaultType::kNone;
  PhysAddr pa = 0;
  Sid sid = kNoSid;  // stretch the VA belongs to (when known)
};

class Mmu {
 public:
  Mmu(PageTable* page_table, size_t page_size = kDefaultPageSize, size_t tlb_entries = 64)
      : page_table_(page_table), page_size_(page_size), tlb_(tlb_entries) {}

  // Translates `va` for `access` under `resolver`'s protection view. Performs
  // the DFault referenced/dirty update (consuming any FOR/FOW bit) on
  // success.
  TranslateResult Translate(VirtAddr va, AccessType access, const RightsResolver* resolver);

  // Lookup without side effects (no TLB fill, no dirty/referenced update).
  TranslateResult Probe(VirtAddr va, AccessType access, const RightsResolver* resolver) const;

  Tlb& tlb() { return tlb_; }
  const Tlb& tlb() const { return tlb_; }
  PageTable* page_table() { return page_table_; }
  const PageTable* page_table() const { return page_table_; }
  size_t page_size() const { return page_size_; }

  Vpn VpnOf(VirtAddr va) const { return va / page_size_; }
  uint64_t OffsetOf(VirtAddr va) const { return va % page_size_; }

  uint64_t translations() const { return translations_; }
  uint64_t faults() const { return faults_; }

 private:
  static bool RightsAllow(uint8_t rights, AccessType access) {
    switch (access) {
      case AccessType::kRead:
        return HasRights(rights, kRightRead);
      case AccessType::kWrite:
        return HasRights(rights, kRightWrite);
      case AccessType::kExecute:
        return HasRights(rights, kRightExecute);
    }
    return false;
  }

  PageTable* page_table_;
  size_t page_size_;
  Tlb tlb_;
  uint64_t translations_ = 0;
  uint64_t faults_ = 0;
};

}  // namespace nemesis

#endif  // SRC_HW_MMU_H_
