#include "src/hw/tlb.h"

#include "src/base/assert.h"

namespace nemesis {

namespace {

// Largest power of two <= n (n >= 1).
size_t FloorPow2(size_t n) {
  size_t p = 1;
  while (p * 2 <= n) {
    p *= 2;
  }
  return p;
}

}  // namespace

Tlb::Tlb(size_t entries, size_t ways) {
  NEM_ASSERT_MSG(entries > 0 && ways > 0, "TLB needs at least one entry");
  // Sets must be a power of two so the set index is a mask of the VPN, and
  // must divide the capacity evenly so every set has the same associativity.
  // The requested capacity is always preserved exactly: any remainder halves
  // the set count (down to 1 = fully associative) and widens the ways.
  size_t sets = FloorPow2(entries >= ways ? entries / ways : 1);
  while (entries % sets != 0) {
    sets /= 2;
  }
  ways_ = entries / sets;
  set_mask_ = sets - 1;
  slots_.resize(entries);
  victims_.assign(sets, 0);
}

void Tlb::Invalidate(Vpn vpn) {
  Entry* slot = &slots_[SetBase(vpn)];
  for (size_t w = 0; w < ways_; ++w) {
    if (slot[w].valid && slot[w].vpn == vpn) {
      slot[w].valid = false;
    }
  }
}

void Tlb::InvalidateAll() {
  for (auto& e : slots_) {
    e.valid = false;
  }
  ++flushes_;
}

}  // namespace nemesis
