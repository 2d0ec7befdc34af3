#include "perfbench/alloc_count.h"

#include <cstddef>
#include <cstdlib>
#include <new>

namespace nemesis::perfbench {

namespace {

// The benchmark runs the serial simulator on one thread, so plain globals
// suffice.
bool g_counting = false;
uint64_t g_allocs = 0;

void* Allocate(std::size_t size, std::size_t align) {
  if (g_counting) {
    ++g_allocs;
  }
  if (size == 0) {
    size = 1;
  }
  void* p = nullptr;
  if (align <= alignof(std::max_align_t)) {
    p = std::malloc(size);
  } else {
    // aligned_alloc wants a size that is a multiple of the alignment.
    p = std::aligned_alloc(align, (size + align - 1) / align * align);
  }
  if (p == nullptr) {
    throw std::bad_alloc();
  }
  return p;
}

}  // namespace

void SetAllocCounting(bool on) { g_counting = on; }
uint64_t AllocCount() { return g_allocs; }

}  // namespace nemesis::perfbench

using nemesis::perfbench::Allocate;

void* operator new(std::size_t size) { return Allocate(size, alignof(std::max_align_t)); }
void* operator new[](std::size_t size) { return Allocate(size, alignof(std::max_align_t)); }
void* operator new(std::size_t size, std::align_val_t align) {
  return Allocate(size, static_cast<std::size_t>(align));
}
void* operator new[](std::size_t size, std::align_val_t align) {
  return Allocate(size, static_cast<std::size_t>(align));
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept { std::free(p); }
