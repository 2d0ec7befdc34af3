// Low-level translation system: the map / unmap / trans system calls
// (paper §6.3) plus the page-table protection update used by Table 1.
//
// Validation is exactly the paper's: mapping or unmapping a VA requires that
// the caller's protection domain holds the meta right on the stretch
// containing the VA (so one cannot map a VA outside any stretch), and the
// frame involved must be owned by the caller and neither mapped nor nailed —
// checked against the RamTab.
#ifndef SRC_KERNEL_SYSCALLS_H_
#define SRC_KERNEL_SYSCALLS_H_

#include <cstdint>

#include "src/base/expected.h"
#include "src/check/domain_access.h"
#include "src/hw/mmu.h"
#include "src/kernel/ramtab.h"
#include "src/kernel/types.h"

namespace nemesis {

// PTE attributes an application may set when mapping.
struct MapAttrs {
  uint8_t rights = kRightNone;   // global (page-table) rights
  bool fault_on_read = false;    // re-arm referenced tracking
  bool fault_on_write = false;   // re-arm dirty tracking
};

struct TransResult {
  Pfn pfn = 0;
  uint8_t rights = kRightNone;
  bool dirty = false;
  bool referenced = false;
};

class TranslationSyscalls {
 public:
  TranslationSyscalls(Mmu& mmu, RamTab& ramtab) : mmu_(mmu), ramtab_(ramtab) {}

  // map(va, pa, attr): installs the translation va -> pfn.
  Status<VmError> Map(DomainId caller, const RightsResolver* pdom, VirtAddr va, Pfn pfn,
                      MapAttrs attrs);

  // unmap(va): removes the translation; the frame returns to kUnused.
  // On success *out_pfn (if non-null) receives the frame that was mapped.
  Status<VmError> Unmap(DomainId caller, const RightsResolver* pdom, VirtAddr va,
                        Pfn* out_pfn = nullptr);

  // trans(va): retrieves the current mapping, if any. Requires no rights (the
  // paper's trans is a read-only query).
  Expected<TransResult, VmError> Trans(VirtAddr va) const;

  // Updates the global (page-table) rights of one page. Used by the stretch
  // interface's page-table protection mechanism.
  Status<VmError> SetPteRights(DomainId caller, const RightsResolver* pdom, VirtAddr va,
                               uint8_t rights);

  // Re-arms software dirty/referenced tracking on a mapped page: sets the
  // FOW/FOR bits and clears the current dirty/referenced state (the paper's
  // footnote 8 mechanism, exposed to applications for uses like incremental
  // checkpointing or concurrent GC). Requires the meta right.
  Status<VmError> ArmDirtyTracking(DomainId caller, const RightsResolver* pdom, VirtAddr va,
                                   bool fault_on_write = true, bool fault_on_read = false);

  // Clears the referenced bit of a mapped page (the MMU sets it again on the
  // next access). Used by CLOCK-style replacement policies in stretch
  // drivers. Requires the meta right.
  Status<VmError> ClearReferenced(DomainId caller, const RightsResolver* pdom, VirtAddr va);

  // nail(pfn): pins a frame the caller owns. A nailed frame may not be mapped
  // or unmapped until unnailed; stretch drivers use it both to pin mapped
  // frames (physically-addressed DMA) and to reserve unmapped frames for
  // in-flight paging IO. A mapped frame keeps its mapping (and mapped_vpn)
  // while nailed.
  Status<VmError> Nail(DomainId caller, Pfn pfn);

  // unnail(pfn): releases the pin. The frame returns to kMapped when its
  // recorded mapping is still installed in the page table, else to kUnused.
  Status<VmError> Unnail(DomainId caller, Pfn pfn);

  // System-domain teardown path (revocation, kill): removes any valid
  // translation at `vpn` without rights checks and returns the frame to
  // kUnused. Returns true when a valid mapping was removed. This is the only
  // sanctioned way to strip a mapping from an uncooperative domain.
  bool ForceUnmap(Vpn vpn);

  // Wires the ownership/race checker (audit builds). Null disables recording.
  void set_access_checker(DomainAccessChecker* checker) { access_checker_ = checker; }

  uint64_t map_count() const { return map_count_; }
  uint64_t unmap_count() const { return unmap_count_; }

 private:
  // Common validation: returns the PTE when the caller holds meta on the
  // stretch containing va.
  Expected<Pte*, VmError> ValidateMeta(const RightsResolver* pdom, VirtAddr va);

  void RecordAccess(SharedStructure structure, DomainId caller) {
    if (access_checker_ != nullptr) {
      access_checker_->Record(structure, caller);
    }
  }

  Mmu& mmu_;
  RamTab& ramtab_;
  DomainAccessChecker* access_checker_ = nullptr;
  uint64_t map_count_ = 0;
  uint64_t unmap_count_ = 0;
};

}  // namespace nemesis

#endif  // SRC_KERNEL_SYSCALLS_H_
