// The page-touch kernels behind VMem::AccessRange: a read sums the bytes it
// touches into the domain's checksum, and a write stores the low byte of
// each byte's own virtual address. They are plain functions rather than loops
// inside the AccessRange coroutine so the compiler keeps the loop state in
// registers (a coroutine body spills it to the frame on every byte).
//
// SumBytes picks the fastest variant the host CPU runs once, on its first
// call: AVX2, else SSE2 (baseline on x86-64), else the byte loop. Every
// variant is exposed here so tests can check each against a scalar sum,
// whichever one the CPU picks.
#ifndef SRC_APP_PAGE_KERNELS_H_
#define SRC_APP_PAGE_KERNELS_H_

#include <cstdint>
#include <span>

#include "src/base/units.h"

namespace nemesis::page_kernels {

// Returns the sum of `bytes` with the variant chosen at start-up.
uint64_t SumBytes(std::span<const uint8_t> bytes);

// The variants. Each accepts any length and any alignment.
uint64_t SumBytesScalar(std::span<const uint8_t> bytes);
#if defined(__SSE2__)
uint64_t SumBytesSse2(std::span<const uint8_t> bytes);
#endif
#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define NEMESIS_HAVE_AVX2_KERNELS 1
// Callable only when CpuHasAvx2().
uint64_t SumBytesAvx2(std::span<const uint8_t> bytes);
bool CpuHasAvx2();
#endif

// Writes bytes[i] = (va + i) & 0xFF.
void FillAddressBytes(std::span<uint8_t> bytes, VirtAddr va);

}  // namespace nemesis::page_kernels

#endif  // SRC_APP_PAGE_KERNELS_H_
