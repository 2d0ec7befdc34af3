// RamTab: "a simple data structure maintaining information about the current
// use of frames of main memory" (paper §6.3). The frames allocator records
// frame ownership here; the low-level translation system validates map/unmap
// requests against it ("ensuring that the calling domain owns the frame, and
// that the frame is not currently mapped or nailed").
//
// Mutation is confined to the ownership authorities — the frames allocator
// (src/mm/frames_allocator.cc) and the translation syscalls
// (src/kernel/syscalls.cc); tools/analyze.py enforces the confinement and the
// invariant auditor (src/check/invariants.h) cross-checks the contents
// against the allocator, page table and TLB.
#ifndef SRC_KERNEL_RAMTAB_H_
#define SRC_KERNEL_RAMTAB_H_

#include <cstdint>
#include <functional>
#include <utility>
#include <vector>

#include "src/base/assert.h"
#include "src/base/thread_annotations.h"
#include "src/base/units.h"
#include "src/kernel/types.h"

namespace nemesis {

enum class FrameState : uint8_t {
  kUnused,  // owned (or free) but not mapped
  kMapped,  // backing some virtual page
  kNailed,  // pinned: may not be mapped/unmapped by applications
};

struct RamTabEntry {
  DomainId owner = kNoDomain;
  FrameState state = FrameState::kUnused;
  // Logical frame width (log2 of frame size in base pages); kept for fidelity
  // with the paper's description, always 0 (one base page) in this model.
  uint8_t width = 0;
  // The virtual page currently mapping this frame (valid when kMapped).
  Vpn mapped_vpn = 0;
};

class RamTab {
 public:
  explicit RamTab(uint64_t num_frames) : entries_(num_frames) {}

  uint64_t size() const { return entries_.size(); }

  bool ValidPfn(Pfn pfn) const { return pfn < entries_.size(); }

  const RamTabEntry& Get(Pfn pfn) const {
    NEM_ASSERT_LT(pfn, entries_.size());
    return entries_[pfn];
  }

  DomainId OwnerOf(Pfn pfn) const { return Get(pfn).owner; }
  FrameState StateOf(Pfn pfn) const { return Get(pfn).state; }

  void SetOwner(Pfn pfn, DomainId owner) NEM_REQUIRES(g_system_domain) {
    NEM_ASSERT_LT(pfn, entries_.size());
    entries_[pfn].owner = owner;
  }

  void SetMapped(Pfn pfn, Vpn vpn) NEM_REQUIRES(g_system_domain) {
    NEM_ASSERT_LT(pfn, entries_.size());
    const bool was_nailed = entries_[pfn].state == FrameState::kNailed;
    entries_[pfn].state = FrameState::kMapped;
    entries_[pfn].mapped_vpn = vpn;
    if (was_nailed && nail_observer_) {
      nail_observer_(pfn, entries_[pfn].owner, /*nailed=*/false);
    }
  }

  void SetUnused(Pfn pfn) NEM_REQUIRES(g_system_domain) {
    NEM_ASSERT_LT(pfn, entries_.size());
    const bool was_nailed = entries_[pfn].state == FrameState::kNailed;
    entries_[pfn].state = FrameState::kUnused;
    entries_[pfn].mapped_vpn = 0;
    if (was_nailed && nail_observer_) {
      nail_observer_(pfn, entries_[pfn].owner, /*nailed=*/false);
    }
  }

  void SetNailed(Pfn pfn) NEM_REQUIRES(g_system_domain) {
    NEM_ASSERT_LT(pfn, entries_.size());
    const bool was_nailed = entries_[pfn].state == FrameState::kNailed;
    entries_[pfn].state = FrameState::kNailed;
    if (!was_nailed && nail_observer_) {
      nail_observer_(pfn, entries_[pfn].owner, /*nailed=*/true);
    }
  }

  // Nail-transition observer: fired whenever a frame enters or leaves
  // kNailed, with the owner at transition time. The frames allocator uses it
  // to maintain per-client reclaimable-frame counters (the victim heaps'
  // nailed/reclaimable split) without putting the allocator on the map/unmap
  // hot path: kUnused <-> kMapped transitions cost one predicted branch. Not a
  // mutation authority — the observer only mirrors state the RamTab already
  // committed.
  using NailObserver = std::function<void(Pfn pfn, DomainId owner, bool nailed)>;
  void set_nail_observer(NailObserver observer) { nail_observer_ = std::move(observer); }

  uint64_t CountOwnedBy(DomainId owner) const {
    uint64_t n = 0;
    for (const auto& e : entries_) {
      if (e.owner == owner) {
        ++n;
      }
    }
    return n;
  }

 private:
  // The frame-use table is shared by every domain's fault path under the
  // threaded design: reads are sanctioned from any context (the paper's
  // user-readable translation structures), so the vector itself carries no
  // GUARDED_BY — mutation confinement is expressed on the Set* entry points
  // (NEM_REQUIRES(g_system_domain)) and enforced by tools/analyze.py's
  // authority-confinement rule plus the runtime DomainAccessChecker.
  std::vector<RamTabEntry> entries_;
  NailObserver nail_observer_;
};

}  // namespace nemesis

#endif  // SRC_KERNEL_RAMTAB_H_
