#ifndef TABULA_CUBE_DRY_RUN_H_
#define TABULA_CUBE_DRY_RUN_H_

#include <algorithm>
#include <vector>

#include "common/flat_hash.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "cube/lattice.h"
#include "exec/group_by.h"
#include "exec/vector_ops.h"
#include "loss/loss_function.h"
#include "storage/table.h"

namespace tabula {

/// Dry-run output for one cuboid: its iceberg cell table (paper Table I)
/// plus the exact cell count the cost model needs.
struct CuboidDryRunInfo {
  CuboidMask mask = 0;
  /// Exact number of (non-empty) cells in this cuboid.
  size_t total_cells = 0;
  /// Full-width packed keys of the cells whose
  /// loss(cell data, Sam_global) > θ.
  std::vector<uint64_t> iceberg_keys;
};

/// Result of the dry-run stage (Section III-B1).
struct DryRunResult {
  /// Indexed by cuboid mask (size 2^n).
  std::vector<CuboidDryRunInfo> cuboids;
  size_t total_cells = 0;
  size_t total_iceberg_cells = 0;
  /// Cuboids containing at least one iceberg cell.
  size_t iceberg_cuboids = 0;
  double millis = 0.0;
  /// Per-stage breakdown of `millis` (RunDryRun only; the legacy engine
  /// leaves them zero): the finest-cuboid fold, the lattice roll-up, and
  /// the θ finalize/classify pass.
  double fold_millis = 0.0;
  double rollup_millis = 0.0;
  double finalize_millis = 0.0;
  /// Finest-cuboid loss states over the scanned rows, ascending by packed
  /// key (RunDryRun only). A sharded coordinator merges these across its
  /// shard units instead of accumulating the rows a second time.
  GroupedStates<LossState> finest;
};

/// Minimum cells per pool worker before a roll-up level or the finalize
/// pass is worth fanning out. Merging or finalizing a cell costs on the
/// order of 100ns; waking a blocked worker costs tens of microseconds (and
/// far more when workers are oversubscribed), so a dispatch must hand each
/// worker thousands of cells to pay for itself.
inline constexpr size_t kCellsPerWorkerDispatch = 8192;

/// \brief Rolls the finest cuboid's cells up the whole lattice.
///
/// Returns one dense cell array per cuboid (index = CuboidMask); the
/// finest entry is `finest` itself. Each cuboid derives from the parent
/// that re-adds its lowest missing attribute by nulling that attribute's
/// key position and merging states — no table access. Cuboids at one
/// popcount level only read parent-level cells and write their own, so a
/// level's cuboids run in parallel without locking; each cuboid folds its
/// parent in array order, so the output (including every floating-point
/// Merge order) is a pure function of `finest` at any thread count.
///
/// \tparam State default-constructible, copyable, with Merge(const State&).
template <typename State>
std::vector<GroupedStates<State>> RollUpCuboids(GroupedStates<State> finest,
                                                const KeyPacker& packer,
                                                const Lattice& lattice) {
  const size_t n = lattice.num_attributes();
  // Cells live in dense parallel key/state arrays in insertion order; a
  // flat-hash index maps a packed key to its array position only while
  // the cuboid is being built. Hash-table slots stay 12 bytes — the probe
  // arrays stay cache-resident and a growth rehash moves uint32 indices —
  // while the states are only ever written sequentially, once each.
  std::vector<GroupedStates<State>> cells(lattice.num_cuboids());
  cells[lattice.finest()] = std::move(finest);
  std::vector<std::vector<CuboidMask>> levels(n);
  for (size_t m = 0; m < lattice.num_cuboids(); ++m) {
    CuboidMask mask = static_cast<CuboidMask>(m);
    if (mask == lattice.finest()) continue;
    size_t bits = 0;
    for (CuboidMask rest = mask; rest != 0; rest &= rest - 1) ++bits;
    levels[bits].push_back(mask);
  }
  auto parent_of = [n](CuboidMask mask, size_t* j) {
    *j = 0;
    while (*j < n && (mask & (CuboidMask{1} << *j))) ++*j;
    return static_cast<CuboidMask>(mask | (CuboidMask{1} << *j));
  };
  auto& pool = ThreadPool::Global();
  for (size_t level = n; level-- > 0;) {
    const std::vector<CuboidMask>& cuboids = levels[level];
    auto roll_up = [&](size_t begin, size_t end) {
      uint64_t rolled[kMorselRows];
      for (size_t i = begin; i < end; ++i) {
        size_t j = 0;
        const GroupedStates<State>& parent_cells =
            cells[parent_of(cuboids[i], &j)];
        GroupedStates<State>& my_cells = cells[cuboids[i]];
        // WithNull is (key & keep) | set with cuboid-constant operands,
        // so a whole morsel of parent keys rolls up in one batched
        // bitwise pass before the probe loop.
        const KeyPacker::MaskTransform t = packer.NullTransform(j);
        const size_t np = parent_cells.keys.size();
        FlatHashMap<uint32_t> index;
        for (size_t p0 = 0; p0 < np; p0 += kMorselRows) {
          const size_t pe = std::min(np, p0 + kMorselRows);
          vec::MaskRollKeys(parent_cells.keys.data() + p0, pe - p0, t.keep,
                            t.set, rolled);
          for (size_t p = p0; p < pe; ++p) {
            auto [slot, inserted] = index.TryEmplace(
                rolled[p - p0], static_cast<uint32_t>(my_cells.keys.size()));
            if (inserted) {
              my_cells.keys.push_back(rolled[p - p0]);
              my_cells.states.push_back(parent_cells.states[p]);
            } else {
              my_cells.states[*slot].Merge(parent_cells.states[p]);
            }
          }
        }
      }
    };
    // Fan a level out only when every worker gets enough cells to amortize
    // its wake-up; small levels run inline on the calling thread. Cuboid
    // sizes within a level can be badly skewed, so the dispatch steals
    // cuboid-at-a-time (grain 1): whoever finishes early takes the next
    // cuboid, and one giant cuboid never gates the level behind a static
    // partition. Cuboids are independent, so the result never depends on
    // which thread runs them.
    size_t level_cells = 0;
    for (CuboidMask mask : cuboids) {
      size_t j = 0;
      level_cells += cells[parent_of(mask, &j)].keys.size();
    }
    if (level_cells < kCellsPerWorkerDispatch * pool.num_threads()) {
      roll_up(0, cuboids.size());
    } else {
      pool.ParallelForGrains(
          cuboids.size(),
          [&roll_up](size_t, size_t begin, size_t end) { roll_up(begin, end); },
          /*grain_rows=*/1);
    }
  }
  return cells;
}

/// \brief Stage 1 of cube initialization: iceberg-cell lookup.
///
/// Because the loss function is algebraic while SAMPLING() is holistic,
/// Tabula first materializes only the loss measure: one full-table GroupBy
/// at the finest cuboid accumulates per-cell LossStates against the fixed
/// global sample, and every coarser cuboid is derived by merging states
/// along the lattice — the raw table is scanned exactly once. Cells whose
/// finalized loss exceeds θ are iceberg cells; everything else will be
/// answered by the global sample with the guarantee already verified.
///
/// The fold runs on the flat-hash engine (common/flat_hash.h) with
/// deterministic chunking, the lattice roll-up is parallel across
/// same-level cuboids, and every cuboid's iceberg_keys come out sorted —
/// so the result is byte-identical at any thread count.
///
/// \param rows the rows to cube (all rows of the table for a plain build;
///        a shard unit passes its ascending row list).
/// \param packer full-width packer over all cubed attributes.
Result<DryRunResult> RunDryRun(const DatasetView& rows,
                               const KeyEncoder& encoder,
                               const KeyPacker& packer, const Lattice& lattice,
                               const LossFunction& loss,
                               const DatasetView& global_sample, double theta);

/// RunDryRun over every row of `table`.
inline Result<DryRunResult> RunDryRun(const Table& table,
                                      const KeyEncoder& encoder,
                                      const KeyPacker& packer,
                                      const Lattice& lattice,
                                      const LossFunction& loss,
                                      const DatasetView& global_sample,
                                      double theta) {
  return RunDryRun(DatasetView(&table), encoder, packer, lattice, loss,
                   global_sample, theta);
}

/// The pre-flat-hash dry-run engine — std::unordered_map folds, serial
/// lattice roll-up, thread-count-dependent chunking — preserved as the
/// reference implementation for bench_fig10_cubing_overhead's
/// before/after comparison and as a differential oracle for the new
/// engine (iceberg-cell sets must match modulo ordering).
Result<DryRunResult> RunDryRunLegacy(const Table& table,
                                     const KeyEncoder& encoder,
                                     const KeyPacker& packer,
                                     const Lattice& lattice,
                                     const LossFunction& loss,
                                     const DatasetView& global_sample,
                                     double theta);

}  // namespace tabula

#endif  // TABULA_CUBE_DRY_RUN_H_
