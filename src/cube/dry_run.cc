#include "cube/dry_run.h"

#include <algorithm>

#include "common/flat_hash.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "exec/vector_ops.h"

namespace tabula {

GroupedStates<LossState> FoldFinestStates(const DatasetView& rows,
                                          const KeyEncoder& encoder,
                                          const KeyPacker& packer,
                                          const BoundLoss& bound) {
  return GroupAccumulateSorted<LossState>(
      encoder, packer, rows,
      [&bound](LossState* state, RowId row) { bound.Accumulate(state, row); });
}

Result<DryRunResult> RunDryRun(const DatasetView& rows,
                               const KeyEncoder& encoder,
                               const KeyPacker& packer, const Lattice& lattice,
                               const LossFunction& loss,
                               const DatasetView& global_sample,
                               double theta) {
  Stopwatch timer;
  TABULA_ASSIGN_OR_RETURN(std::unique_ptr<BoundLoss> bound,
                          loss.Bind(*rows.table(), global_sample));

  // The finest cuboid's cells arrive in ascending packed-key order, the
  // canonical parent order for the roll-up below.
  GroupedStates<LossState> finest =
      FoldFinestStates(rows, encoder, packer, *bound);
  DryRunResult result;
  result.fold_millis = timer.ElapsedMillis();

  // Roll up along the lattice — no further scans of the rows.
  std::vector<GroupedStates<LossState>> cells =
      RollUpCuboids(std::move(finest), packer, lattice);
  result.rollup_millis = timer.ElapsedMillis() - result.fold_millis;

  // Finalize every cuboid in parallel (BoundLoss::Finalize is const and
  // thread-compatible); iceberg keys are emitted in ascending packed-key
  // order — the deterministic output contract.
  result.cuboids.resize(lattice.num_cuboids());
  auto finalize = [&](size_t begin, size_t end) {
    for (size_t m = begin; m < end; ++m) {
      CuboidDryRunInfo& info = result.cuboids[m];
      info.mask = static_cast<CuboidMask>(m);
      info.total_cells = cells[m].keys.size();
      for (size_t i = 0; i < cells[m].keys.size(); ++i) {
        if (bound->Finalize(cells[m].states[i]) > theta) {
          info.iceberg_keys.push_back(cells[m].keys[i]);
        }
      }
      std::sort(info.iceberg_keys.begin(), info.iceberg_keys.end());
    }
  };
  size_t lattice_cells = 0;
  for (const auto& c : cells) lattice_cells += c.keys.size();
  auto& pool = ThreadPool::Global();
  if (lattice_cells < kCellsPerWorkerDispatch * pool.num_threads()) {
    finalize(0, lattice.num_cuboids());
  } else {
    pool.ParallelForGrains(
        lattice.num_cuboids(),
        [&finalize](size_t, size_t begin, size_t end) { finalize(begin, end); },
        /*grain_rows=*/1);
  }
  for (const CuboidDryRunInfo& info : result.cuboids) {
    result.total_cells += info.total_cells;
    result.total_iceberg_cells += info.iceberg_keys.size();
    if (!info.iceberg_keys.empty()) ++result.iceberg_cuboids;
  }
  result.finest = std::move(cells[lattice.finest()]);
  result.millis = timer.ElapsedMillis();
  result.finalize_millis =
      result.millis - result.fold_millis - result.rollup_millis;
  return result;
}

}  // namespace tabula
