// Per-domain frame stack (paper §6.2): "a system-allocated data structure
// which is writable by the application domain. It contains a list of physical
// frame numbers owned by that application ordered by importance — the top of
// the stack holds the PFN of the frame which that domain is most prepared to
// have revoked." The frames allocator always revokes from the top; stretch
// drivers keep their preferred revocation order by reordering entries.
#ifndef SRC_MM_FRAME_STACK_H_
#define SRC_MM_FRAME_STACK_H_

#include <algorithm>
#include <cstdint>
#include <vector>

#include "src/base/assert.h"
#include "src/base/units.h"

namespace nemesis {

class FrameStack {
 public:
  size_t size() const { return frames_.size(); }
  bool empty() const { return frames_.empty(); }

  // Index 0 is the TOP of the stack (first to be revoked).
  Pfn At(size_t index) const {
    NEM_ASSERT_LT(index, frames_.size());
    return frames_[index];
  }

  const std::vector<Pfn>& frames() const { return frames_; }

  bool Contains(Pfn pfn) const {
    return std::find(frames_.begin(), frames_.end(), pfn) != frames_.end();
  }

  // Application-side operations -------------------------------------------

  // New frames enter at the top (least important) by default.
  void PushTop(Pfn pfn) {
    NEM_ASSERT_MSG(!Contains(pfn), "frame already on stack");
    frames_.insert(frames_.begin(), pfn);
  }

  void PushBottom(Pfn pfn) {
    NEM_ASSERT_MSG(!Contains(pfn), "frame already on stack");
    frames_.push_back(pfn);
  }

  void MoveToTop(Pfn pfn) {
    RemoveInternal(pfn);
    frames_.insert(frames_.begin(), pfn);
  }

  void MoveToBottom(Pfn pfn) {
    RemoveInternal(pfn);
    frames_.push_back(pfn);
  }

  // System-side (frames allocator) operations ------------------------------

  Pfn Top() const {
    NEM_ASSERT(!frames_.empty());
    return frames_.front();
  }

  Pfn PopTop() {
    NEM_ASSERT(!frames_.empty());
    const Pfn pfn = frames_.front();
    frames_.erase(frames_.begin());
    return pfn;
  }

  void Remove(Pfn pfn) {
    RemoveInternal(pfn);
  }

 private:
  void RemoveInternal(Pfn pfn) {
    auto it = std::find(frames_.begin(), frames_.end(), pfn);
    NEM_ASSERT_MSG(it != frames_.end(), "frame not on stack");
    frames_.erase(it);
  }

  std::vector<Pfn> frames_;
};

}  // namespace nemesis

#endif  // SRC_MM_FRAME_STACK_H_
