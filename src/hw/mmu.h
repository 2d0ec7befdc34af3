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
//
// The MMU caches the last (resolver, sid) -> rights resolution to keep the
// virtual call off the TLB-hit path, keyed by `version()`: implementations
// MUST call BumpVersion() whenever any answer RightsFor() would give changes
// (i.e. on every protection change), or cached translations will use stale
// rights.
class RightsResolver {
 public:
  virtual ~RightsResolver() = default;
  // Returns the rights the current protection domain holds on stretch `sid`,
  // or std::nullopt to defer to the PTE's global rights.
  virtual std::optional<uint8_t> RightsFor(Sid sid) const = 0;

  // Monotonic protection-change counter (non-virtual: read on the fast path).
  uint64_t version() const { return version_; }

 protected:
  void BumpVersion() { ++version_; }

 private:
  uint64_t version_ = 0;
};

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

  // Drops the MMU-internal translation caches (the last-PTE walk cache and
  // the last-resolved rights cache). Must be called whenever page-table
  // entries are removed (the translation system does this in RemoveRange);
  // TLB invalidation is separate.
  void InvalidateTranslationCaches() {
    last_walk_pte_ = nullptr;
    rights_cache_resolver_ = nullptr;
  }

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

  // Walks the page table with a single-entry last-PTE cache: repeated walks
  // of the same VPN (the common case — validating a TLB hit, or re-walking
  // after a FOR/FOW retry) skip the table entirely. PTE pointers are stable
  // until the entry is removed; removal paths call
  // InvalidateTranslationCaches().
  Pte* Walk(Vpn vpn) {
    if (last_walk_pte_ != nullptr && last_walk_vpn_ == vpn && last_walk_pte_->allocated) {
      return last_walk_pte_;
    }
    Pte* pte = page_table_->Lookup(vpn);
    last_walk_vpn_ = vpn;
    last_walk_pte_ = pte;
    return pte;
  }

  // Resolves `sid` under `resolver`, consulting a single-entry cache so the
  // virtual RightsFor() call is skipped on repeat hits. The cache is keyed by
  // the resolver's protection-change version, so any protection change
  // invalidates it.
  uint8_t ResolveRights(const RightsResolver* resolver, Sid sid, uint8_t pte_rights) {
    if (resolver == nullptr) {
      return pte_rights;
    }
    if (resolver == rights_cache_resolver_ && sid == rights_cache_sid_ &&
        resolver->version() == rights_cache_version_) {
      return rights_cache_has_override_ ? rights_cache_rights_ : pte_rights;
    }
    const std::optional<uint8_t> r = resolver->RightsFor(sid);
    rights_cache_resolver_ = resolver;
    rights_cache_sid_ = sid;
    rights_cache_version_ = resolver->version();
    rights_cache_has_override_ = r.has_value();
    rights_cache_rights_ = r.value_or(0);
    return r.has_value() ? *r : pte_rights;
  }

  PageTable* page_table_;
  size_t page_size_;
  Tlb tlb_;
  uint64_t translations_ = 0;
  uint64_t faults_ = 0;

  Vpn last_walk_vpn_ = 0;
  Pte* last_walk_pte_ = nullptr;

  const RightsResolver* rights_cache_resolver_ = nullptr;
  Sid rights_cache_sid_ = kNoSid;
  uint64_t rights_cache_version_ = 0;
  bool rights_cache_has_override_ = false;
  uint8_t rights_cache_rights_ = 0;
};

}  // namespace nemesis

#endif  // SRC_HW_MMU_H_
