// Simulated physical memory. Frames carry real bytes so that paging is not
// merely accounted but actually performed: the paged stretch driver copies
// page images between frames and the simulated disk, and tests verify data
// integrity across page-out/page-in cycles. The bytes live in a ZeroedArray,
// so the host backs only frames the simulation has touched.
#ifndef SRC_HW_PHYS_MEM_H_
#define SRC_HW_PHYS_MEM_H_

#include <cstdint>
#include <cstring>
#include <span>

#include "src/base/assert.h"
#include "src/base/units.h"
#include "src/base/zeroed_array.h"
#include "src/hw/pte.h"

namespace nemesis {

class PhysicalMemory {
 public:
  PhysicalMemory(uint64_t num_frames, size_t page_size = kDefaultPageSize)
      : num_frames_(num_frames), page_size_(page_size) {
    NEM_ASSERT_LE(num_frames, kMaxFrames);  // a Pte's pfn is 32 bits
    bytes_ = ZeroedArray<uint8_t>(num_frames * page_size);
  }

  uint64_t num_frames() const { return num_frames_; }
  size_t page_size() const { return page_size_; }
  uint64_t total_bytes() const { return bytes_.size(); }

  std::span<uint8_t> FrameData(Pfn pfn) {
    NEM_ASSERT(pfn < num_frames_);
    return std::span<uint8_t>(bytes_.data() + pfn * page_size_, page_size_);
  }
  std::span<const uint8_t> FrameData(Pfn pfn) const {
    NEM_ASSERT(pfn < num_frames_);
    return std::span<const uint8_t>(bytes_.data() + pfn * page_size_, page_size_);
  }

  uint8_t ReadByte(PhysAddr pa) const {
    NEM_ASSERT(pa < bytes_.size());
    return bytes_[pa];
  }
  void WriteByte(PhysAddr pa, uint8_t value) {
    NEM_ASSERT(pa < bytes_.size());
    bytes_[pa] = value;
  }

  void ZeroFrame(Pfn pfn) {
    auto data = FrameData(pfn);
    std::memset(data.data(), 0, data.size());
  }

 private:
  uint64_t num_frames_;
  size_t page_size_;
  ZeroedArray<uint8_t> bytes_;
};

}  // namespace nemesis

#endif  // SRC_HW_PHYS_MEM_H_
