#include "src/app/page_kernels.h"

#include <algorithm>
#include <array>
#include <cstring>

#if defined(__SSE2__) || defined(NEMESIS_HAVE_AVX2_KERNELS)
#include <immintrin.h>
#endif

namespace nemesis::page_kernels {

uint64_t SumBytesScalar(std::span<const uint8_t> bytes) {
  uint64_t total = 0;
  for (const uint8_t b : bytes) {
    total += b;
  }
  return total;
}

#if defined(__SSE2__)
// Each psadbw (_mm_sad_epu8 against zero) sums 16 bytes into two 64-bit
// lanes; four independent accumulators keep four of them in flight per
// 64-byte step. Loads are unaligned: `bytes` can start anywhere in a page.
uint64_t SumBytesSse2(std::span<const uint8_t> bytes) {
  const uint8_t* p = bytes.data();
  size_t left = bytes.size();
  const __m128i zero = _mm_setzero_si128();
  __m128i acc[4] = {zero, zero, zero, zero};
  for (; left >= 64; left -= 64, p += 64) {
    for (int k = 0; k < 4; ++k) {
      const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p + 16 * k));
      acc[k] = _mm_add_epi64(acc[k], _mm_sad_epu8(v, zero));
    }
  }
  for (; left >= 16; left -= 16, p += 16) {
    const __m128i v = _mm_loadu_si128(reinterpret_cast<const __m128i*>(p));
    acc[0] = _mm_add_epi64(acc[0], _mm_sad_epu8(v, zero));
  }
  const __m128i sum =
      _mm_add_epi64(_mm_add_epi64(acc[0], acc[1]), _mm_add_epi64(acc[2], acc[3]));
  uint64_t lanes[2];
  _mm_storeu_si128(reinterpret_cast<__m128i*>(lanes), sum);
  return lanes[0] + lanes[1] + SumBytesScalar({p, left});
}
#endif

#if defined(NEMESIS_HAVE_AVX2_KERNELS)
// The SSE2 loop at twice the width: vpsadbw sums 32 bytes into four 64-bit
// lanes, four accumulators per 128-byte step.
__attribute__((target("avx2"))) uint64_t SumBytesAvx2(std::span<const uint8_t> bytes) {
  const uint8_t* p = bytes.data();
  size_t left = bytes.size();
  const __m256i zero = _mm256_setzero_si256();
  __m256i acc[4] = {zero, zero, zero, zero};
  for (; left >= 128; left -= 128, p += 128) {
    for (int k = 0; k < 4; ++k) {
      const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p + 32 * k));
      acc[k] = _mm256_add_epi64(acc[k], _mm256_sad_epu8(v, zero));
    }
  }
  for (; left >= 32; left -= 32, p += 32) {
    const __m256i v = _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
    acc[0] = _mm256_add_epi64(acc[0], _mm256_sad_epu8(v, zero));
  }
  const __m256i sum =
      _mm256_add_epi64(_mm256_add_epi64(acc[0], acc[1]), _mm256_add_epi64(acc[2], acc[3]));
  uint64_t lanes[4];
  _mm256_storeu_si256(reinterpret_cast<__m256i*>(lanes), sum);
  return lanes[0] + lanes[1] + lanes[2] + lanes[3] + SumBytesScalar({p, left});
}

bool CpuHasAvx2() {
  // The check also needs the OS to save the YMM state; libgcc's and
  // compiler-rt's CPU model test that before reporting AVX2.
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}
#endif

namespace {

using SumFn = uint64_t (*)(std::span<const uint8_t>);

SumFn PickSum() {
#if defined(NEMESIS_HAVE_AVX2_KERNELS)
  if (CpuHasAvx2()) {
    return SumBytesAvx2;
  }
#endif
#if defined(__SSE2__)
  return SumBytesSse2;
#else
  return SumBytesScalar;
#endif
}

// The fill's period is 256 bytes; the ramp holds i & 0xFF for every i a
// two-period window starting at any low address byte reaches.
constexpr size_t kPeriod = 256;
constexpr size_t kFirstCopy = 2 * kPeriod;
constexpr std::array<uint8_t, kPeriod - 1 + kFirstCopy> kRamp = [] {
  std::array<uint8_t, kPeriod - 1 + kFirstCopy> ramp{};
  for (size_t i = 0; i < ramp.size(); ++i) {
    ramp[i] = static_cast<uint8_t>(i);
  }
  return ramp;
}();

}  // namespace

uint64_t SumBytes(std::span<const uint8_t> bytes) {
  static const SumFn sum = PickSum();
  return sum(bytes);
}

// Copies two periods from the ramp, then doubles the written prefix: every
// prefix length is a multiple of the period, so the copy lands in phase. A
// page takes five memcpy calls.
void FillAddressBytes(std::span<uint8_t> bytes, VirtAddr va) {
  uint8_t* out = bytes.data();
  const size_t n = bytes.size();
  if (n == 0) {
    return;
  }
  size_t done = std::min(n, kFirstCopy);
  std::memcpy(out, kRamp.data() + (va & (kPeriod - 1)), done);
  while (done < n) {
    const size_t step = std::min(done, n - done);
    std::memcpy(out + done, out, step);
    done += step;
  }
}

}  // namespace nemesis::page_kernels
