#ifndef TABULA_EXEC_VECTOR_OPS_H_
#define TABULA_EXEC_VECTOR_OPS_H_

#include <cstddef>
#include <cstdint>

#include "storage/table.h"

namespace tabula {

/// Rows per column-major morsel — the batch unit of the vectorized build
/// engine. One morsel's packed keys (8 bytes/row) plus one column's codes
/// (4 bytes/row) stay L1-resident, which is what lets the per-column
/// pack/filter passes run at memory speed instead of gather-miss speed.
/// 2048 also keeps the key scratch a comfortable stack allocation (16 KiB).
inline constexpr size_t kMorselRows = 2048;

namespace vec {

/// True when the explicit SIMD kernels are active: compiled on x86-64 with
/// a compiler that supports per-function target("avx2"), running on a CPU
/// with AVX2, and not disabled via TABULA_NO_SIMD=1. The scalar fallbacks
/// are always compiled and are the reference the differential tests pin
/// the SIMD path against.
bool SimdEnabled();

/// out[i] |= uint64(codes[i]) << shift — the contiguous (all-rows view)
/// key-packing inner loop: widen, shift, or, one column at a time.
void OrShiftU32(const uint32_t* codes, size_t n, uint32_t shift,
                uint64_t* out);

/// out[i] |= uint64(codes[rows[i]]) << shift — the gathering variant for
/// explicit row-id views (cell raw data, shard slices, samples).
void OrShiftGatherU32(const uint32_t* codes, const RowId* rows, size_t n,
                      uint32_t shift, uint64_t* out);

/// out[i] = (keys[i] & keep) | set — the roll-up/masked-key transform:
/// turns a finest-cuboid packed key into any coarser cuboid's key (grouped
/// columns kept, rolled-up columns replaced by their '*' pattern) in two
/// bitwise ops instead of a fresh multi-column gather. `out` may alias
/// `keys`.
void MaskRollKeys(const uint64_t* keys, size_t n, uint64_t keep,
                  uint64_t set, uint64_t* out);

/// Facility-location gain of a candidate at (cx, cy) over n points stored
/// as coordinate arrays `xs`, `ys` beside their current min-distances
/// `cur_min` — the inner loop of the min-distance greedy evaluator.
/// Returns `gain` plus cur_min[i] - d_i for every i with d_i < cur_min[i],
/// added in ascending i, where d_i is the Euclidean distance (Manhattan
/// when `manhattan`) from point i to the candidate, computed as
/// Distance() computes it. Both paths return bit-identical sums: each
/// lane does the same IEEE sub/mul/add/sqrt (no FMA), and the lanes'
/// terms are added one by one in index order.
double MinDistGain(const double* xs, const double* ys, const double* cur_min,
                   size_t n, double cx, double cy, bool manhattan,
                   double gain);

/// CRC32C (Castagnoli, reflected polynomial 0x82F63B78, initial and final
/// XOR 0xFFFFFFFF) of `n` bytes — the wire frame checksum. The SIMD body
/// feeds the SSE4.2 `crc32` instruction 8 bytes at a time; the scalar
/// reference is table-driven. Both return the same value for any input.
uint32_t Crc32c(const char* data, size_t n);

/// Scalar reference implementations (always used when SimdEnabled() is
/// false; exercised head-to-head by exec_vector_test, Crc32cScalar by
/// net_test).
void OrShiftU32Scalar(const uint32_t* codes, size_t n, uint32_t shift,
                      uint64_t* out);
void OrShiftGatherU32Scalar(const uint32_t* codes, const RowId* rows,
                            size_t n, uint32_t shift, uint64_t* out);
void MaskRollKeysScalar(const uint64_t* keys, size_t n, uint64_t keep,
                        uint64_t set, uint64_t* out);
double MinDistGainScalar(const double* xs, const double* ys,
                         const double* cur_min, size_t n, double cx,
                         double cy, bool manhattan, double gain);
uint32_t Crc32cScalar(const char* data, size_t n);

}  // namespace vec

}  // namespace tabula

#endif  // TABULA_EXEC_VECTOR_OPS_H_
