// Indexed free-frame pool for the frames allocator.
//
// The free list is a LIFO (TakeFreeFrame pops the back) whose placement
// paths — AllocFrameInRegion / AllocFrameWithColour — take the first match in
// push order. The container keeps that order explicitly (a doubly-linked list
// threaded through pfn slots, each stamped with a monotonically increasing
// push sequence), so the first match in list order is precisely the
// minimum-sequence member of the query set. Two indexes answer that in
// sublinear time:
//
//  * region queries: a segment tree over pfn space holding each free frame's
//    push sequence — FirstInRegion is a range-min, O(log frames);
//  * colour queries: per-residue buckets ordered by (sequence, pfn), rebuilt
//    lazily when a caller's colour modulus changes — FirstWithColour is a
//    bucket-front read, O(log frames) per mutation.
#ifndef SRC_MM_FREE_FRAME_INDEX_H_
#define SRC_MM_FREE_FRAME_INDEX_H_

#include <cstdint>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "src/base/units.h"

namespace nemesis {

inline constexpr Pfn kNoFreePfn = UINT64_MAX;

class FreeFrameIndex {
 public:
  explicit FreeFrameIndex(uint64_t total_frames);

  uint64_t size() const { return size_; }
  bool empty() const { return size_ == 0; }
  bool Contains(Pfn pfn) const { return pfn < seq_of_.size() && seq_of_[pfn] != kAbsent; }

  // Appends `pfn` at the back of the list order (the vector's push_back).
  void PushBack(Pfn pfn);
  // Most recently pushed frame (the vector's back()); the LIFO take path.
  Pfn Back() const { return tail_; }
  Pfn PopBack();
  // Middle removal (the vector's erase); false when `pfn` is not free.
  bool Erase(Pfn pfn);

  // First frame in list order with pfn in [region_base, region_base + len) —
  // what a front-to-back scan would return. kNoFreePfn when none.
  Pfn FirstInRegion(Pfn region_base, uint64_t region_len) const;
  // First frame in list order with pfn % num_colours == colour. Rebuilds the
  // residue buckets when `num_colours` differs from the last query's modulus.
  Pfn FirstWithColour(uint64_t colour, uint64_t num_colours);

  // Visits every free frame front-to-back (push order) — the auditor's
  // replacement for iterating the old vector.
  template <typename Fn>
  void ForEach(Fn fn) const {
    for (Pfn pfn = head_; pfn != kNoFreePfn; pfn = next_[pfn]) {
      fn(pfn);
    }
  }

  // Audit cross-check: list structure, sequence order, segment tree and
  // colour buckets must all describe the same set. Empty string when clean.
  std::string SelfCheck() const;

 private:
  static constexpr uint64_t kAbsent = UINT64_MAX;

  void TreeSet(Pfn pfn, uint64_t seq);
  // Minimum-sequence (seq, pfn) over free frames in [l, r); {kAbsent, kNoFreePfn}
  // when the range holds none.
  std::pair<uint64_t, Pfn> TreeMin(uint64_t l, uint64_t r) const;
  void RebuildBuckets(uint64_t num_colours);

  uint64_t total_frames_;
  uint64_t size_ = 0;
  uint64_t next_seq_ = 0;
  Pfn head_ = kNoFreePfn;
  Pfn tail_ = kNoFreePfn;
  std::vector<Pfn> next_;
  std::vector<Pfn> prev_;
  std::vector<uint64_t> seq_of_;  // kAbsent when the frame is not free

  // Segment tree over pfn space; leaf i holds seq_of_[i] (kAbsent when not
  // free), internal nodes the min (seq, pfn) of their children.
  uint64_t tree_cap_ = 1;
  std::vector<std::pair<uint64_t, Pfn>> tree_;

  // Residue buckets for the active colour modulus (0 = none built yet).
  uint64_t colour_modulus_ = 0;
  std::vector<std::set<std::pair<uint64_t, Pfn>>> buckets_;  // (seq, pfn)
};

}  // namespace nemesis

#endif  // SRC_MM_FREE_FRAME_INDEX_H_
