#ifndef TABULA_CUBE_REAL_RUN_H_
#define TABULA_CUBE_REAL_RUN_H_

#include <vector>

#include "common/status.h"
#include "cube/cube_table.h"
#include "cube/dry_run.h"
#include "sampling/greedy_sampler.h"

namespace tabula {

/// How the real run fetches iceberg-cell raw data per cuboid. kAuto is
/// the paper's behaviour (Inequation 1 decides); the forced modes exist
/// for the cost-model ablation bench.
enum class RealRunPathPolicy { kAuto, kAlwaysJoin, kAlwaysGroupBy };

/// Per-cuboid diagnostics from the real-run stage.
struct CuboidRealRunInfo {
  CuboidMask mask = 0;
  size_t iceberg_cells = 0;
  /// Which side of Inequation 1 won: true = equi-join/prune path.
  bool used_join_path = false;
  double millis = 0.0;
};

/// Result of the real-run stage (Section III-B2, Algorithm 2).
struct RealRunResult {
  CubeTable cube;
  std::vector<CuboidRealRunInfo> per_cuboid;
  /// Tuples across all local samples (pre-selection).
  size_t local_sample_tuples = 0;
  double millis = 0.0;
  /// Per-stage breakdown of `millis`: the one-time finest-key packing
  /// pass, iceberg-row collection across all cuboids, and the greedy
  /// per-cell sampling.
  double pack_millis = 0.0;
  double collect_millis = 0.0;
  double sample_millis = 0.0;
};

/// \brief Stage 2 of cube initialization: sampling-cube construction.
///
/// Skips every cuboid without iceberg cells, and for each iceberg cuboid
/// fetches the raw data of its iceberg cells — via a full GroupBy or via
/// the iceberg-cell semi-join, whichever the cost model picks — then runs
/// the greedy SAMPLING() aggregate (Algorithm 1) per iceberg cell.
///
/// Every row's finest-cuboid key is packed once (batched columnar
/// PackRows); each cuboid's keys derive from it with the two-op mask
/// transform (KeyPacker::TransformFor).
///
/// `rows` are the rows the dry run scanned. Collection runs over view
/// positions; a view with explicit (ascending) row ids translates each
/// cell's positions to row ids once per cell, so an all-rows build pays
/// nothing for the indirection and every cell's raw rows stay ascending.
Result<RealRunResult> RunRealRun(
    const DatasetView& rows, const KeyEncoder& encoder,
    const KeyPacker& packer, const Lattice& lattice,
    const DryRunResult& dry_run, const LossFunction& loss, double theta,
    const GreedySamplerOptions& sampler_options,
    RealRunPathPolicy path_policy = RealRunPathPolicy::kAuto);

/// RunRealRun over every row of `table`.
inline Result<RealRunResult> RunRealRun(
    const Table& table, const KeyEncoder& encoder, const KeyPacker& packer,
    const Lattice& lattice, const DryRunResult& dry_run,
    const LossFunction& loss, double theta,
    const GreedySamplerOptions& sampler_options,
    RealRunPathPolicy path_policy = RealRunPathPolicy::kAuto) {
  return RunRealRun(DatasetView(&table), encoder, packer, lattice, dry_run,
                    loss, theta, sampler_options, path_policy);
}

}  // namespace tabula

#endif  // TABULA_CUBE_REAL_RUN_H_
