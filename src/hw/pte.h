// Page-table entry and access-rights definitions for the simulated machine.
//
// The model follows the paper's Alpha 21164 platform: stretch-granularity
// protection (rights subset of {read, write, execute, meta}), NULL mappings
// that record the owning stretch for freshly allocated virtual addresses, and
// software-managed dirty/referenced bits driven by fault-on-read/write (the
// FOR/FOW mechanism the paper describes in footnote 8).
#ifndef SRC_HW_PTE_H_
#define SRC_HW_PTE_H_

#include <cstdint>

#include "src/base/units.h"

namespace nemesis {

// Stretch-granularity access rights. kMeta authorises changing protections
// and mappings on the stretch (the paper's "meta" right).
enum AccessRights : uint8_t {
  kRightNone = 0,
  kRightRead = 1 << 0,
  kRightWrite = 1 << 1,
  kRightExecute = 1 << 2,
  kRightMeta = 1 << 3,
  kRightAll = kRightRead | kRightWrite | kRightExecute | kRightMeta,
};

inline AccessRights operator|(AccessRights a, AccessRights b) {
  return static_cast<AccessRights>(static_cast<uint8_t>(a) | static_cast<uint8_t>(b));
}

inline bool HasRights(uint8_t held, uint8_t needed) { return (held & needed) == needed; }

// Stretch identifier carried by every PTE so faults can be demultiplexed to
// the owning stretch. kNoSid marks virtual addresses outside any stretch.
using Sid = uint16_t;
constexpr Sid kNoSid = 0;

// The Alpha 21164's 64-bit PTE: a 32-bit frame number, the 16-bit sid, four
// rights bits and six flag bits in one 8-byte word. The all-zero word is the
// unallocated entry, so a lazily zeroed table (ZeroedArray) starts empty.
struct Pte {
  Pfn pfn : 32 = 0;
  Sid sid = kNoSid;

  // Global (page-table level) rights; a protection domain may override these
  // per stretch. The paper benchmarks both mechanisms in Table 1.
  uint8_t rights : 4 = kRightNone;

  // A NULL mapping is allocated_ (part of a stretch) but not valid_ (no
  // physical frame behind it); access raises a translation-not-valid fault.
  bool allocated : 1 = false;
  bool valid : 1 = false;

  // Software dirty/referenced emulation. fault_on_write / fault_on_read are
  // set by software (stretch drivers re-arming the trap); the MMU's DFault
  // path clears them and sets dirty/referenced.
  bool dirty : 1 = false;
  bool referenced : 1 = false;
  bool fault_on_write : 1 = false;
  bool fault_on_read : 1 = false;
};
static_assert(sizeof(Pte) == 8, "Pte is the Alpha's 64-bit page-table entry");

// Pte::pfn holds 32 bits, so physical memory has at most 2^32 frames.
constexpr uint64_t kMaxFrames = uint64_t{1} << 32;

}  // namespace nemesis

#endif  // SRC_HW_PTE_H_
