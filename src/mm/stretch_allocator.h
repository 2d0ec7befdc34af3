// Stretch allocator (paper §6.1): any domain may request a stretch of a given
// size (optionally at a fixed address); allocation is centralised in the
// system domain. The allocator sets up the NULL page-table entries via the
// high-level translation system and grants the owner full rights (including
// meta) in its protection domain.
#ifndef SRC_MM_STRETCH_ALLOCATOR_H_
#define SRC_MM_STRETCH_ALLOCATOR_H_

#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <optional>
#include <vector>

#include "src/base/expected.h"
#include "src/mm/stretch.h"
#include "src/mm/translation.h"

namespace nemesis {

enum class StretchError {
  kNoVirtualSpace,
  kBadSize,
  kBadAddress,
  kRangeBusy,
  kNoSuchStretch,
};

class StretchAllocator {
 public:
  // Manages virtual addresses in [va_base, va_limit).
  StretchAllocator(TranslationSystem& translation, VirtAddr va_base, VirtAddr va_limit,
                   size_t page_size);

  // Allocates a stretch of at least `bytes` (rounded up to whole pages) for
  // `owner`, granting `owner_pdom` full rights on it. `fixed_base`, if given,
  // must be page aligned and free.
  Expected<Stretch*, StretchError> New(DomainId owner, ProtectionDomain* owner_pdom, size_t bytes,
                                       std::optional<VirtAddr> fixed_base = std::nullopt,
                                       uint8_t global_rights = kRightNone);

  // Destroys the stretch, removing its translations and rights entries.
  Status<StretchError> Destroy(Sid sid);

  // The stretch containing `va`, if any. Fault dispatch does not need it:
  // the faulting PTE already names the stretch (FaultRecord::sid).
  Stretch* FindByAddr(VirtAddr va);
  size_t stretch_count() const { return stretches_.size(); }
  size_t page_size() const { return page_size_; }

  // Auditor/debug sweep over all live stretches.
  void ForEachStretch(const std::function<void(const Stretch&)>& fn) const {
    for (const auto& s : stretches_) {
      fn(*s);
    }
  }

 private:
  std::optional<VirtAddr> AllocateRange(size_t bytes);
  bool RangeFree(VirtAddr base, size_t bytes) const;

  TranslationSystem& translation_;
  VirtAddr va_base_;
  VirtAddr va_limit_;
  size_t page_size_;
  Sid next_sid_ = 1;
  // base -> live stretch: ordered for first-fit free-space search, and for
  // FindByAddr's upper_bound (stretches never overlap).
  std::map<VirtAddr, Stretch*> by_base_;
  std::vector<std::unique_ptr<Stretch>> stretches_;
};

}  // namespace nemesis

#endif  // SRC_MM_STRETCH_ALLOCATOR_H_
