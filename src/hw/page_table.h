// The page table.
//
// The paper's Nemesis uses a linear page table ("an 8 GB array in the virtual
// address space with a secondary page table used to map it on double faults")
// and notes that an earlier guarded-page-table implementation was about three
// times slower. This is that linear table: a flat array of PTEs indexed by
// VPN over a bounded VA range. Like the paper's, it is backed only where
// touched: the entries live in a ZeroedArray, and an all-zero Pte is
// unallocated.
#ifndef SRC_HW_PAGE_TABLE_H_
#define SRC_HW_PAGE_TABLE_H_

#include <functional>

#include "src/base/units.h"
#include "src/base/zeroed_array.h"
#include "src/hw/pte.h"

namespace nemesis {

class PageTable {
 public:
  explicit PageTable(Vpn max_vpn) : entries_(max_vpn) {}

  // Returns the PTE for `vpn` or nullptr if no entry exists (unallocated).
  Pte* Lookup(Vpn vpn) {
    if (vpn >= entries_.size() || !entries_[vpn].allocated) {
      return nullptr;
    }
    return &entries_[vpn];
  }
  const Pte* Lookup(Vpn vpn) const { return const_cast<PageTable*>(this)->Lookup(vpn); }

  // Returns the PTE for `vpn`, creating a zeroed entry if necessary.
  Pte* Ensure(Vpn vpn) {
    if (vpn >= entries_.size()) {
      return nullptr;
    }
    entries_[vpn].allocated = true;
    return &entries_[vpn];
  }

  // Removes the entry (returns it to the unallocated state).
  void Remove(Vpn vpn) {
    if (vpn < entries_.size()) {
      entries_[vpn] = Pte{};
    }
  }

  Vpn max_vpn() const { return entries_.size(); }

  // Visits every allocated PTE in ascending VPN order. Audit/debug path only:
  // a full sweep is O(VA space), so the hot simulation loop never calls it.
  void ForEachAllocated(const std::function<void(Vpn, const Pte&)>& fn) const {
    for (Vpn vpn = 0; vpn < entries_.size(); ++vpn) {
      if (entries_[vpn].allocated) {
        fn(vpn, entries_[vpn]);
      }
    }
  }

 private:
  ZeroedArray<Pte> entries_;
};

}  // namespace nemesis

#endif  // SRC_HW_PAGE_TABLE_H_
