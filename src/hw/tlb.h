// Software TLB model.
//
// Tlb is an N-way set-associative design (default 4-way x 16 sets, 64
// entries): Lookup/Fill probe only the VPN's set, so the cost is O(ways)
// instead of O(entries). Replacement is per-set round-robin (invalid slots
// are preferred), so Tlb(n, n) — one set — is the fully-associative FIFO
// model.
//
// Protection and mapping changes must invalidate affected entries (the cost
// of doing so is part of what Table 1's (un)protect benchmarks measure).
#ifndef SRC_HW_TLB_H_
#define SRC_HW_TLB_H_

#include <cstdint>
#include <vector>

#include "src/base/units.h"
#include "src/hw/pte.h"

namespace nemesis {

struct TlbEntry {
  bool valid = false;
  Vpn vpn = 0;
  Pfn pfn = 0;
  uint8_t rights = kRightNone;
  Sid sid = kNoSid;
};

class Tlb {
 public:
  using Entry = TlbEntry;

  explicit Tlb(size_t entries = 64, size_t ways = 4);

  // Returns the matching entry or nullptr. Probes one set.
  const Entry* Lookup(Vpn vpn) {
    Entry* slot = &slots_[SetBase(vpn)];
    for (size_t w = 0; w < ways_; ++w) {
      if (slot[w].valid && slot[w].vpn == vpn) {
        ++hits_;
        return &slot[w];
      }
    }
    ++misses_;
    return nullptr;
  }

  void Fill(Vpn vpn, Pfn pfn, uint8_t rights, Sid sid) {
    const size_t base = SetBase(vpn);
    Entry* slot = &slots_[base];
    // Reuse the slot already holding this VPN, else the first invalid one.
    size_t victim = ways_;
    for (size_t w = 0; w < ways_; ++w) {
      if (slot[w].valid && slot[w].vpn == vpn) {
        slot[w] = Entry{true, vpn, pfn, rights, sid};
        return;
      }
      if (!slot[w].valid && victim == ways_) {
        victim = w;
      }
    }
    if (victim == ways_) {
      victim = victims_[base / ways_];
      victims_[base / ways_] = static_cast<uint8_t>((victim + 1) % ways_);
    }
    slot[victim] = Entry{true, vpn, pfn, rights, sid};
  }

  void Invalidate(Vpn vpn);
  void InvalidateAll();

  // Read-only sweep over every slot (valid or not), for the invariant auditor
  // and debug dumps. Does not touch the hit/miss counters.
  template <typename Fn>
  void ForEachEntry(Fn&& fn) const {
    for (const Entry& e : slots_) {
      fn(e);
    }
  }

  uint64_t hits() const { return hits_; }
  uint64_t misses() const { return misses_; }
  uint64_t flushes() const { return flushes_; }
  size_t capacity() const { return slots_.size(); }
  size_t ways() const { return ways_; }
  size_t sets() const { return set_mask_ + 1; }

 private:
  size_t SetBase(Vpn vpn) const { return (static_cast<size_t>(vpn) & set_mask_) * ways_; }

  size_t ways_;
  size_t set_mask_;             // sets - 1; sets is a power of two
  std::vector<Entry> slots_;    // sets * ways, set-major
  std::vector<uint8_t> victims_;  // per-set round-robin pointer
  uint64_t hits_ = 0;
  uint64_t misses_ = 0;
  uint64_t flushes_ = 0;
};

}  // namespace nemesis

#endif  // SRC_HW_TLB_H_
