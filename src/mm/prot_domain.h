// Protection domains: a mapping from valid stretches to a subset of
// {read, write, execute, meta} (paper §6.1). Implements the MMU's
// RightsResolver so that switching or editing a protection domain changes
// effective rights in O(1) without touching page tables — the mechanism
// behind the bracketed [0.30 µs] numbers in Table 1.
#ifndef SRC_MM_PROT_DOMAIN_H_
#define SRC_MM_PROT_DOMAIN_H_

#include <cstdint>
#include <optional>
#include <vector>

#include "src/base/expected.h"
#include "src/hw/mmu.h"
#include "src/hw/pte.h"
#include "src/kernel/types.h"

namespace nemesis {

using PdomId = uint32_t;

class ProtectionDomain : public RightsResolver {
 public:
  ProtectionDomain(PdomId id, size_t max_sids = 4096)
      : id_(id), rights_(max_sids, kNoEntry) {}

  PdomId id() const { return id_; }

  std::optional<uint8_t> RightsFor(Sid sid) const override {
    if (sid < rights_.size() && rights_[sid] != kNoEntry) {
      return rights_[sid];
    }
    return std::nullopt;
  }

  bool HasEntry(Sid sid) const { return sid < rights_.size() && rights_[sid] != kNoEntry; }

  // Visits every explicit (sid, rights) entry; auditor/debug path.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (Sid sid = 0; sid < rights_.size(); ++sid) {
      if (rights_[sid] != kNoEntry) {
        fn(sid, rights_[sid]);
      }
    }
  }

  // Unvalidated set, used by the system domain when constructing domains.
  void SetRights(Sid sid, uint8_t rights) {
    NEM_ASSERT(sid < rights_.size());
    rights_[sid] = rights;
  }

  void RemoveEntry(Sid sid) {
    NEM_ASSERT(sid < rights_.size());
    rights_[sid] = kNoEntry;
  }

  uint64_t changes() const { return changes_; }

  // Validated protection change: the caller (whose view is `caller_view`)
  // must hold the meta right on the stretch. This is the paper's
  // "light-weight validation process".
  Status<VmError> ChangeRights(const RightsResolver& caller_view, Sid sid, uint8_t rights) {
    auto held = caller_view.RightsFor(sid);
    if (!held.has_value() || !HasRights(*held, kRightMeta)) {
      return MakeUnexpected(VmError::kNoMeta);
    }
    if (sid >= rights_.size()) {
      return MakeUnexpected(VmError::kNoStretch);
    }
    if (rights_[sid] != rights) {  // idempotent-change detection
      rights_[sid] = rights;
      ++changes_;
    }
    return Status<VmError>::Ok();
  }

 private:
  static constexpr uint8_t kNoEntry = 0xFF;
  PdomId id_;
  std::vector<uint8_t> rights_;
  uint64_t changes_ = 0;
};

}  // namespace nemesis

#endif  // SRC_MM_PROT_DOMAIN_H_
