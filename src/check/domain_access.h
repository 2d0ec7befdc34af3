// DomainAccessChecker: the runtime half of the ownership/race layer (the
// static half is src/base/thread_annotations.h).
//
// Every access to a shared memory-system structure (the frames allocator's
// accounting, the RamTab, the page table, the TLB) must either stay within
// one domain between synchronization points or go through one of the
// sanctioned cross-domain interfaces: the USD request path and the frames
// allocator's frame-stealing/revocation path.
//
//   * Windows: Record(structure, domain) notes that `domain` touched
//     `structure` in the current window; SyncPoint() closes the window after
//     every event callback. Two different non-system domains touching the
//     same structure inside one window is a violation — one event acting on
//     behalf of two domains' private state outside a sanctioned interface.
//   * CrossDomainSection marks the sanctioned interfaces: while one is open,
//     accesses on behalf of another domain are legal (e.g. the allocator
//     popping a victim's frame stack during revocation).
//
// By default a violation NEM_ASSERTs; tests flip abort_on_violation off and
// count instead.
//
// Header-only on purpose: kernel/ and mm/ code calls Record() from layers
// below the check library, so this must not add a link-time dependency.
#ifndef SRC_CHECK_DOMAIN_ACCESS_H_
#define SRC_CHECK_DOMAIN_ACCESS_H_

#include <cstdint>
#include <cstdio>

#include "src/base/assert.h"

namespace nemesis {

enum class SharedStructure : uint8_t {
  kFramesAllocator = 0,
  kRamTab,
  kPageTable,
  kTlb,
  kCount,
};

inline const char* SharedStructureName(SharedStructure s) {
  switch (s) {
    case SharedStructure::kFramesAllocator:
      return "frames-allocator";
    case SharedStructure::kRamTab:
      return "ramtab";
    case SharedStructure::kPageTable:
      return "page-table";
    case SharedStructure::kTlb:
      return "tlb";
    case SharedStructure::kCount:
      break;
  }
  return "?";
}

class DomainAccessChecker {
 public:
  // Matches DomainId / kNoDomain in src/kernel/types.h; plain integers here
  // keep this header below the kernel layer.
  using Domain = uint32_t;
  static constexpr Domain kSystem = 0;

  void Record(SharedStructure structure, Domain domain) {
    if (domain == kSystem || cross_domain_depth_ > 0) {
      return;
    }
    Domain& owner = window_owner_[static_cast<size_t>(structure)];
    if (owner == kSystem) {
      owner = domain;
      return;
    }
    if (owner != domain) {
      ++violations_;
      if (abort_on_violation_) {
        std::fprintf(stderr,
                     "DomainAccessChecker: domain %u touched %s while domain %u owns the "
                     "access window (no cross-domain section open)\n",
                     domain, SharedStructureName(structure), owner);
        NEM_ASSERT_MSG(false, "cross-domain access outside sanctioned interfaces");
      }
    }
  }

  // Closes the current access window (called after every event callback).
  void SyncPoint() {
    for (Domain& owner : window_owner_) {
      owner = kSystem;
    }
  }

  void EnterCrossDomainSection() { ++cross_domain_depth_; }
  void LeaveCrossDomainSection() {
    NEM_ASSERT_MSG(cross_domain_depth_ > 0, "unbalanced cross-domain section");
    --cross_domain_depth_;
  }

  void set_abort_on_violation(bool abort) { abort_on_violation_ = abort; }
  uint64_t violations() const { return violations_; }

 private:
  Domain window_owner_[static_cast<size_t>(SharedStructure::kCount)] = {};
  uint32_t cross_domain_depth_ = 0;
  uint64_t violations_ = 0;
  bool abort_on_violation_ = true;
};

// RAII marker for the sanctioned cross-domain interfaces (revocation /
// frame-stealing / kill). Null checker is fine: audit-off builds pass
// nullptr and the section is a no-op.
class CrossDomainSection {
 public:
  explicit CrossDomainSection(DomainAccessChecker* checker) : checker_(checker) {
    if (checker_ != nullptr) {
      checker_->EnterCrossDomainSection();
    }
  }
  ~CrossDomainSection() {
    if (checker_ != nullptr) {
      checker_->LeaveCrossDomainSection();
    }
  }
  CrossDomainSection(const CrossDomainSection&) = delete;
  CrossDomainSection& operator=(const CrossDomainSection&) = delete;

 private:
  DomainAccessChecker* checker_;
};

}  // namespace nemesis

#endif  // SRC_CHECK_DOMAIN_ACCESS_H_
