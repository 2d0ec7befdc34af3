#include "src/mm/free_frame_index.h"

#include <algorithm>

#include "src/base/assert.h"

namespace nemesis {

FreeFrameIndex::FreeFrameIndex(uint64_t total_frames) : total_frames_(total_frames) {
  next_.assign(total_frames, kNoFreePfn);
  prev_.assign(total_frames, kNoFreePfn);
  seq_of_.assign(total_frames, kAbsent);
  while (tree_cap_ < total_frames_ || tree_cap_ == 0) {
    tree_cap_ *= 2;
  }
  tree_.assign(2 * tree_cap_, {kAbsent, kNoFreePfn});
}

void FreeFrameIndex::TreeSet(Pfn pfn, uint64_t seq) {
  uint64_t i = tree_cap_ + pfn;
  tree_[i] = {seq, seq == kAbsent ? kNoFreePfn : pfn};
  for (i /= 2; i >= 1; i /= 2) {
    tree_[i] = std::min(tree_[2 * i], tree_[2 * i + 1]);
  }
}

std::pair<uint64_t, Pfn> FreeFrameIndex::TreeMin(uint64_t l, uint64_t r) const {
  std::pair<uint64_t, Pfn> best{kAbsent, kNoFreePfn};
  for (l += tree_cap_, r += tree_cap_; l < r; l /= 2, r /= 2) {
    if ((l & 1) != 0) {
      best = std::min(best, tree_[l++]);
    }
    if ((r & 1) != 0) {
      best = std::min(best, tree_[--r]);
    }
  }
  return best;
}

void FreeFrameIndex::PushBack(Pfn pfn) {
  NEM_ASSERT_LT(pfn, total_frames_);
  NEM_ASSERT(!Contains(pfn));
  const uint64_t seq = next_seq_++;
  seq_of_[pfn] = seq;
  next_[pfn] = kNoFreePfn;
  prev_[pfn] = tail_;
  if (tail_ != kNoFreePfn) {
    next_[tail_] = pfn;
  } else {
    head_ = pfn;
  }
  tail_ = pfn;
  ++size_;
  TreeSet(pfn, seq);
  if (colour_modulus_ != 0) {
    buckets_[pfn % colour_modulus_].insert({seq, pfn});
  }
}

Pfn FreeFrameIndex::PopBack() {
  NEM_ASSERT(size_ > 0);
  const Pfn pfn = tail_;
  Erase(pfn);
  return pfn;
}

bool FreeFrameIndex::Erase(Pfn pfn) {
  if (!Contains(pfn)) {
    return false;
  }
  const uint64_t seq = seq_of_[pfn];
  if (prev_[pfn] != kNoFreePfn) {
    next_[prev_[pfn]] = next_[pfn];
  } else {
    head_ = next_[pfn];
  }
  if (next_[pfn] != kNoFreePfn) {
    prev_[next_[pfn]] = prev_[pfn];
  } else {
    tail_ = prev_[pfn];
  }
  next_[pfn] = kNoFreePfn;
  prev_[pfn] = kNoFreePfn;
  seq_of_[pfn] = kAbsent;
  --size_;
  TreeSet(pfn, kAbsent);
  if (colour_modulus_ != 0) {
    buckets_[pfn % colour_modulus_].erase({seq, pfn});
  }
  return true;
}

Pfn FreeFrameIndex::FirstInRegion(Pfn region_base, uint64_t region_len) const {
  if (region_base >= total_frames_ || region_len == 0) {
    return kNoFreePfn;
  }
  const uint64_t end =
      region_len < total_frames_ - region_base ? region_base + region_len : total_frames_;
  return TreeMin(region_base, end).second;
}

void FreeFrameIndex::RebuildBuckets(uint64_t num_colours) {
  colour_modulus_ = num_colours;
  buckets_.assign(num_colours, {});
  ForEach([this, num_colours](Pfn pfn) {
    buckets_[pfn % num_colours].insert({seq_of_[pfn], pfn});
  });
}

Pfn FreeFrameIndex::FirstWithColour(uint64_t colour, uint64_t num_colours) {
  NEM_ASSERT(num_colours > 0 && colour < num_colours);
  if (colour_modulus_ != num_colours) {
    RebuildBuckets(num_colours);
  }
  const auto& bucket = buckets_[colour];
  return bucket.empty() ? kNoFreePfn : bucket.begin()->second;
}

std::string FreeFrameIndex::SelfCheck() const {
  uint64_t walked = 0;
  uint64_t last_seq = 0;
  bool first = true;
  for (Pfn pfn = head_; pfn != kNoFreePfn; pfn = next_[pfn]) {
    if (pfn >= total_frames_ || seq_of_[pfn] == kAbsent) {
      return "free-frame list links a non-free pfn";
    }
    if (!first && seq_of_[pfn] <= last_seq) {
      return "free-frame list order disagrees with push sequences";
    }
    if (tree_[tree_cap_ + pfn] != std::make_pair(seq_of_[pfn], pfn)) {
      return "segment-tree leaf disagrees with a free frame's sequence";
    }
    last_seq = seq_of_[pfn];
    first = false;
    if (++walked > size_) {
      return "free-frame list is longer than its size (cycle?)";
    }
  }
  if (walked != size_) {
    return "free-frame list length disagrees with size";
  }
  uint64_t leaves_present = 0;
  for (Pfn pfn = 0; pfn < total_frames_; ++pfn) {
    if (tree_[tree_cap_ + pfn].first != kAbsent) {
      ++leaves_present;
      if (seq_of_[pfn] != tree_[tree_cap_ + pfn].first) {
        return "segment-tree leaf marks a non-free pfn as free";
      }
    }
  }
  if (leaves_present != size_) {
    return "segment-tree population disagrees with size";
  }
  if (colour_modulus_ != 0) {
    uint64_t bucketed = 0;
    for (uint64_t colour = 0; colour < colour_modulus_; ++colour) {
      for (const auto& [seq, pfn] : buckets_[colour]) {
        if (!Contains(pfn) || seq_of_[pfn] != seq || pfn % colour_modulus_ != colour) {
          return "colour bucket holds a stale entry";
        }
        ++bucketed;
      }
    }
    if (bucketed != size_) {
      return "colour buckets do not partition the free list";
    }
  }
  return "";
}

}  // namespace nemesis
