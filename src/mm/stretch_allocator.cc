#include "src/mm/stretch_allocator.h"

#include "src/base/assert.h"
#include "src/base/log.h"

namespace nemesis {

StretchAllocator::StretchAllocator(TranslationSystem& translation, VirtAddr va_base,
                                   VirtAddr va_limit, size_t page_size)
    : translation_(translation), va_base_(va_base), va_limit_(va_limit), page_size_(page_size) {
  NEM_ASSERT(IsAligned(va_base, page_size));
  NEM_ASSERT(IsAligned(va_limit, page_size));
  NEM_ASSERT(va_limit > va_base);
}

bool StretchAllocator::RangeFree(VirtAddr base, size_t bytes) const {
  if (base < va_base_ || base + bytes > va_limit_) {
    return false;
  }
  // Find the first used range that could overlap.
  auto it = by_base_.upper_bound(base);
  if (it != by_base_.begin()) {
    auto prev = std::prev(it);
    if (prev->first + prev->second->length() > base) {
      return false;
    }
  }
  if (it != by_base_.end() && it->first < base + bytes) {
    return false;
  }
  return true;
}

std::optional<VirtAddr> StretchAllocator::AllocateRange(size_t bytes) {
  // First fit over the gaps between used ranges.
  VirtAddr cursor = va_base_;
  for (const auto& [base, stretch] : by_base_) {
    if (base - cursor >= bytes) {
      return cursor;
    }
    cursor = base + stretch->length();
  }
  if (va_limit_ - cursor >= bytes) {
    return cursor;
  }
  return std::nullopt;
}

Expected<Stretch*, StretchError> StretchAllocator::New(DomainId owner,
                                                       ProtectionDomain* owner_pdom, size_t bytes,
                                                       std::optional<VirtAddr> fixed_base,
                                                       uint8_t global_rights) {
  if (bytes == 0) {
    return MakeUnexpected(StretchError::kBadSize);
  }
  bytes = AlignUp(bytes, page_size_);

  VirtAddr base;
  if (fixed_base.has_value()) {
    if (!IsAligned(*fixed_base, page_size_)) {
      return MakeUnexpected(StretchError::kBadAddress);
    }
    if (!RangeFree(*fixed_base, bytes)) {
      return MakeUnexpected(StretchError::kRangeBusy);
    }
    base = *fixed_base;
  } else {
    auto found = AllocateRange(bytes);
    if (!found.has_value()) {
      return MakeUnexpected(StretchError::kNoVirtualSpace);
    }
    base = *found;
  }

  const Sid sid = next_sid_++;
  // Sid is 16-bit and never reused; wrapping to kNoSid would alias the "no
  // stretch" sentinel and resurrect any leaked rights entries.
  NEM_ASSERT_NE(sid, kNoSid);
  translation_.AddRange(base, bytes / page_size_, sid, global_rights);
  stretches_.push_back(std::make_unique<Stretch>(
      sid, base, bytes, page_size_, owner, owner_pdom != nullptr ? owner_pdom->id() : 0));
  by_base_.emplace(base, stretches_.back().get());
  // "Should the request be successful ... The caller is now the owner of the
  // stretch": full rights including meta in the owner's protection domain.
  if (owner_pdom != nullptr) {
    owner_pdom->SetRights(sid, kRightAll);
  }
  NEM_LOG_DEBUG("salloc", "stretch sid=%u base=0x%llx len=%zu owner=%u", sid,
                static_cast<unsigned long long>(base), bytes, owner);
  return stretches_.back().get();
}

Status<StretchError> StretchAllocator::Destroy(Sid sid) {
  for (auto it = stretches_.begin(); it != stretches_.end(); ++it) {
    if ((*it)->sid() == sid) {
      translation_.RemoveRange((*it)->base(), (*it)->page_count());
      // Strip the sid from every protection domain: rights entries must not
      // outlive the stretch.
      translation_.RemoveSidRights(sid);
      by_base_.erase((*it)->base());
      stretches_.erase(it);
      return Status<StretchError>::Ok();
    }
  }
  return MakeUnexpected(StretchError::kNoSuchStretch);
}

Stretch* StretchAllocator::FindByAddr(VirtAddr va) {
  auto it = by_base_.upper_bound(va);
  if (it == by_base_.begin()) {
    return nullptr;
  }
  Stretch* s = std::prev(it)->second;
  return s->Contains(va) ? s : nullptr;
}

}  // namespace nemesis
