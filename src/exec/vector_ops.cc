#include "exec/vector_ops.h"

#include <array>
#include <cmath>
#include <cstdlib>
#include <cstring>

#if defined(__x86_64__) && (defined(__GNUC__) || defined(__clang__))
#define TABULA_VEC_X86 1
#include <immintrin.h>
#endif

namespace tabula {
namespace vec {

void OrShiftU32Scalar(const uint32_t* codes, size_t n, uint32_t shift,
                      uint64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] |= static_cast<uint64_t>(codes[i]) << shift;
  }
}

void OrShiftGatherU32Scalar(const uint32_t* codes, const RowId* rows,
                            size_t n, uint32_t shift, uint64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] |= static_cast<uint64_t>(codes[rows[i]]) << shift;
  }
}

void MaskRollKeysScalar(const uint64_t* keys, size_t n, uint64_t keep,
                        uint64_t set, uint64_t* out) {
  for (size_t i = 0; i < n; ++i) {
    out[i] = (keys[i] & keep) | set;
  }
}

double MinDistGainScalar(const double* xs, const double* ys,
                         const double* cur_min, size_t n, double cx,
                         double cy, bool manhattan, double gain) {
  for (size_t i = 0; i < n; ++i) {
    double dx = xs[i] - cx;
    double dy = ys[i] - cy;
    double d = manhattan ? std::abs(dx) + std::abs(dy)
                         : std::sqrt(dx * dx + dy * dy);
    if (d < cur_min[i]) gain += cur_min[i] - d;
  }
  return gain;
}

namespace {

/// Byte-at-a-time lookup table of the reflected CRC32C polynomial.
constexpr std::array<uint32_t, 256> MakeCrc32cTable() {
  std::array<uint32_t, 256> table{};
  for (uint32_t i = 0; i < 256; ++i) {
    uint32_t crc = i;
    for (int bit = 0; bit < 8; ++bit) {
      crc = (crc >> 1) ^ ((crc & 1u) != 0 ? 0x82F63B78u : 0u);
    }
    table[i] = crc;
  }
  return table;
}

constexpr std::array<uint32_t, 256> kCrc32cTable = MakeCrc32cTable();

}  // namespace

uint32_t Crc32cScalar(const char* data, size_t n) {
  uint32_t crc = 0xFFFFFFFFu;
  for (size_t i = 0; i < n; ++i) {
    crc = kCrc32cTable[(crc ^ static_cast<unsigned char>(data[i])) & 0xFFu] ^
          (crc >> 8);
  }
  return ~crc;
}

#if defined(TABULA_VEC_X86)

namespace {

/// The kernels are compiled with per-function target("avx2") rather than a
/// global -march flag, so the rest of the binary stays baseline-x86-64 and
/// these bodies are only ever *called* after the __builtin_cpu_supports
/// check in SimdEnabled() — calling them on a non-AVX2 CPU would SIGILL.

__attribute__((target("avx2"))) void OrShiftU32Avx2(const uint32_t* codes,
                                                    size_t n, uint32_t shift,
                                                    uint64_t* out) {
  const __m128i count = _mm_cvtsi32_si128(static_cast<int>(shift));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    __m128i lo32 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i));
    __m128i hi32 =
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(codes + i + 4));
    __m256i lo = _mm256_sll_epi64(_mm256_cvtepu32_epi64(lo32), count);
    __m256i hi = _mm256_sll_epi64(_mm256_cvtepu32_epi64(hi32), count);
    __m256i out_lo = _mm256_loadu_si256(reinterpret_cast<__m256i*>(out + i));
    __m256i out_hi =
        _mm256_loadu_si256(reinterpret_cast<__m256i*>(out + i + 4));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_or_si256(out_lo, lo));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 4),
                        _mm256_or_si256(out_hi, hi));
  }
  OrShiftU32Scalar(codes + i, n - i, shift, out + i);
}

__attribute__((target("avx2"))) void OrShiftGatherU32Avx2(
    const uint32_t* codes, const RowId* rows, size_t n, uint32_t shift,
    uint64_t* out) {
  const __m128i count = _mm_cvtsi32_si128(static_cast<int>(shift));
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    // Row ids are uint32 but vpgatherdd indexes are signed; table row
    // counts are far below 2^31 (RowId vectors alone would exceed memory
    // long before), so the reinterpretation is safe.
    __m256i idx =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(rows + i));
    __m256i gathered = _mm256_i32gather_epi32(
        reinterpret_cast<const int*>(codes), idx, 4);
    __m256i lo = _mm256_sll_epi64(
        _mm256_cvtepu32_epi64(_mm256_castsi256_si128(gathered)), count);
    __m256i hi = _mm256_sll_epi64(
        _mm256_cvtepu32_epi64(_mm256_extracti128_si256(gathered, 1)), count);
    __m256i out_lo = _mm256_loadu_si256(reinterpret_cast<__m256i*>(out + i));
    __m256i out_hi =
        _mm256_loadu_si256(reinterpret_cast<__m256i*>(out + i + 4));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i),
                        _mm256_or_si256(out_lo, lo));
    _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + i + 4),
                        _mm256_or_si256(out_hi, hi));
  }
  OrShiftGatherU32Scalar(codes, rows + i, n - i, shift, out + i);
}

__attribute__((target("avx2"))) void MaskRollKeysAvx2(const uint64_t* keys,
                                                      size_t n, uint64_t keep,
                                                      uint64_t set,
                                                      uint64_t* out) {
  const __m256i keep_v = _mm256_set1_epi64x(static_cast<long long>(keep));
  const __m256i set_v = _mm256_set1_epi64x(static_cast<long long>(set));
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256i k =
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(keys + i));
    _mm256_storeu_si256(
        reinterpret_cast<__m256i*>(out + i),
        _mm256_or_si256(_mm256_and_si256(k, keep_v), set_v));
  }
  MaskRollKeysScalar(keys + i, n - i, keep, set, out + i);
}

/// target("avx2") enables AVX and AVX2 only, not FMA, so the separate
/// mul and add below cannot be contracted: every lane rounds exactly as
/// the scalar reference does.
__attribute__((target("avx2"))) double MinDistGainAvx2(
    const double* xs, const double* ys, const double* cur_min, size_t n,
    double cx, double cy, bool manhattan, double gain) {
  const __m256d cx_v = _mm256_set1_pd(cx);
  const __m256d cy_v = _mm256_set1_pd(cy);
  const __m256d abs_mask =
      _mm256_castsi256_pd(_mm256_set1_epi64x(0x7FFFFFFFFFFFFFFFLL));
  alignas(32) double terms[4];
  size_t i = 0;
  for (; i + 4 <= n; i += 4) {
    __m256d dx = _mm256_sub_pd(_mm256_loadu_pd(xs + i), cx_v);
    __m256d dy = _mm256_sub_pd(_mm256_loadu_pd(ys + i), cy_v);
    __m256d d =
        manhattan
            ? _mm256_add_pd(_mm256_and_pd(dx, abs_mask),
                            _mm256_and_pd(dy, abs_mask))
            : _mm256_sqrt_pd(_mm256_add_pd(_mm256_mul_pd(dx, dx),
                                           _mm256_mul_pd(dy, dy)));
    __m256d cur = _mm256_loadu_pd(cur_min + i);
    int gains = _mm256_movemask_pd(_mm256_cmp_pd(d, cur, _CMP_LT_OQ));
    if (gains == 0) continue;
    _mm256_store_pd(terms, _mm256_sub_pd(cur, d));
    for (int lane = 0; lane < 4; ++lane) {
      if (gains & (1 << lane)) gain += terms[lane];
    }
  }
  return MinDistGainScalar(xs + i, ys + i, cur_min + i, n - i, cx, cy,
                           manhattan, gain);
}

/// One dependent `crc32` per 8 bytes (unaligned loads through memcpy),
/// then byte steps for the tail. The instruction computes exactly the
/// table's reflected CRC32C step, so the result equals Crc32cScalar.
__attribute__((target("sse4.2"))) uint32_t Crc32cSse42(const char* data,
                                                      size_t n) {
  uint64_t crc = 0xFFFFFFFFu;
  size_t i = 0;
  for (; i + 8 <= n; i += 8) {
    uint64_t word;
    std::memcpy(&word, data + i, sizeof(word));
    crc = _mm_crc32_u64(crc, word);
  }
  uint32_t crc32 = static_cast<uint32_t>(crc);
  for (; i < n; ++i) {
    crc32 = _mm_crc32_u8(crc32, static_cast<unsigned char>(data[i]));
  }
  return ~crc32;
}

}  // namespace

bool SimdEnabled() {
  static const bool enabled = [] {
    const char* kill = std::getenv("TABULA_NO_SIMD");
    if (kill != nullptr && kill[0] != '\0' && kill[0] != '0') return false;
    return __builtin_cpu_supports("avx2") != 0;
  }();
  return enabled;
}

void OrShiftU32(const uint32_t* codes, size_t n, uint32_t shift,
                uint64_t* out) {
  if (SimdEnabled() && n >= 8) {
    OrShiftU32Avx2(codes, n, shift, out);
  } else {
    OrShiftU32Scalar(codes, n, shift, out);
  }
}

void OrShiftGatherU32(const uint32_t* codes, const RowId* rows, size_t n,
                      uint32_t shift, uint64_t* out) {
  if (SimdEnabled() && n >= 8) {
    OrShiftGatherU32Avx2(codes, rows, n, shift, out);
  } else {
    OrShiftGatherU32Scalar(codes, rows, n, shift, out);
  }
}

void MaskRollKeys(const uint64_t* keys, size_t n, uint64_t keep, uint64_t set,
                  uint64_t* out) {
  if (SimdEnabled() && n >= 4) {
    MaskRollKeysAvx2(keys, n, keep, set, out);
  } else {
    MaskRollKeysScalar(keys, n, keep, set, out);
  }
}

double MinDistGain(const double* xs, const double* ys, const double* cur_min,
                   size_t n, double cx, double cy, bool manhattan,
                   double gain) {
  if (SimdEnabled() && n >= 4) {
    return MinDistGainAvx2(xs, ys, cur_min, n, cx, cy, manhattan, gain);
  }
  return MinDistGainScalar(xs, ys, cur_min, n, cx, cy, manhattan, gain);
}

uint32_t Crc32c(const char* data, size_t n) {
  // Every AVX2 CPU has SSE4.2; the second check costs nothing after the
  // first call and keeps the guard honest on masked virtual CPUs.
  static const bool sse42 =
      SimdEnabled() && __builtin_cpu_supports("sse4.2") != 0;
  return sse42 ? Crc32cSse42(data, n) : Crc32cScalar(data, n);
}

#else  // !TABULA_VEC_X86: scalar-only build (other ISAs / compilers).

bool SimdEnabled() { return false; }

void OrShiftU32(const uint32_t* codes, size_t n, uint32_t shift,
                uint64_t* out) {
  OrShiftU32Scalar(codes, n, shift, out);
}

void OrShiftGatherU32(const uint32_t* codes, const RowId* rows, size_t n,
                      uint32_t shift, uint64_t* out) {
  OrShiftGatherU32Scalar(codes, rows, n, shift, out);
}

void MaskRollKeys(const uint64_t* keys, size_t n, uint64_t keep, uint64_t set,
                  uint64_t* out) {
  MaskRollKeysScalar(keys, n, keep, set, out);
}

double MinDistGain(const double* xs, const double* ys, const double* cur_min,
                   size_t n, double cx, double cy, bool manhattan,
                   double gain) {
  return MinDistGainScalar(xs, ys, cur_min, n, cx, cy, manhattan, gain);
}

uint32_t Crc32c(const char* data, size_t n) { return Crc32cScalar(data, n); }

#endif  // TABULA_VEC_X86

}  // namespace vec
}  // namespace tabula
