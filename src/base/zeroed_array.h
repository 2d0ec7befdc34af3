// A fixed-size array of zeroed memory that the host backs only where touched
// (the page table, physical memory and the disk store). Storage is one
// anonymous private mmap, so construction costs O(1) whatever the size and
// the host zero-fills each page on first touch.
//
// Contract: the all-zero byte pattern must be T's default value (for Pte that
// is the unallocated entry), since elements are never constructed.
//
// mmap rather than calloc: glibc raises its dynamic mmap threshold after the
// first free of a large block, so a later calloc of the same size comes from
// the warm heap and pays a full memset again.
#ifndef SRC_BASE_ZEROED_ARRAY_H_
#define SRC_BASE_ZEROED_ARRAY_H_

#include <sys/mman.h>

#include <cstddef>
#include <cstdint>
#include <type_traits>
#include <utility>

#include "src/base/assert.h"

namespace nemesis {

template <typename T>
class ZeroedArray {
  static_assert(std::is_trivially_copyable_v<T> && std::is_trivially_destructible_v<T>,
                "ZeroedArray elements are never constructed or destroyed");

 public:
  ZeroedArray() = default;
  explicit ZeroedArray(size_t size) : size_(size) {
    if (size == 0) {
      return;
    }
    NEM_ASSERT_LE(size, SIZE_MAX / sizeof(T));
    void* p = mmap(nullptr, size * sizeof(T), PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_NORESERVE, -1, 0);
    NEM_ASSERT_MSG(p != MAP_FAILED, "mmap of zeroed storage failed");
    data_ = static_cast<T*>(p);
  }

  ZeroedArray(ZeroedArray&& other) noexcept
      : data_(std::exchange(other.data_, nullptr)), size_(std::exchange(other.size_, 0)) {}
  ZeroedArray& operator=(ZeroedArray&& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    return *this;
  }
  ~ZeroedArray() {
    if (data_ != nullptr) {
      munmap(data_, size_ * sizeof(T));
    }
  }

  size_t size() const { return size_; }
  T* data() { return data_; }
  const T* data() const { return data_; }
  T& operator[](size_t i) { return data_[i]; }
  const T& operator[](size_t i) const { return data_[i]; }

 private:
  T* data_ = nullptr;
  size_t size_ = 0;
};

}  // namespace nemesis

#endif  // SRC_BASE_ZEROED_ARRAY_H_
