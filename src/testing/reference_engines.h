#ifndef TABULA_TESTING_REFERENCE_ENGINES_H_
#define TABULA_TESTING_REFERENCE_ENGINES_H_

#include "common/status.h"
#include "cube/dry_run.h"
#include "cube/real_run.h"

namespace tabula {

/// \brief The pre-flat-hash dry-run engine — std::unordered_map folds,
/// serial lattice roll-up, thread-count-dependent chunking — kept as the
/// reference for bench_fig10_cubing_overhead's before/after comparison
/// and as a differential oracle for RunDryRun (iceberg-cell sets must
/// match modulo ordering).
Result<DryRunResult> RunDryRunLegacy(const Table& table,
                                     const KeyEncoder& encoder,
                                     const KeyPacker& packer,
                                     const Lattice& lattice,
                                     const LossFunction& loss,
                                     const DatasetView& global_sample,
                                     double theta);

/// \brief The per-row scalar real run: every cuboid's cell keys come
/// from PackRowMasked on each row, collected by the semi-join or the
/// full GroupBy as `path_policy` and the cost model pick, then each
/// iceberg cell is sampled like RunRealRun does. Kept for head-to-head
/// benching and as the differential oracle for RunRealRun's collectors:
/// both must produce byte-identical cubes (raw rows and samples).
Result<RealRunResult> RunRealRunScalarReference(
    const Table& table, const KeyEncoder& encoder, const KeyPacker& packer,
    const DryRunResult& dry_run, const LossFunction& loss, double theta,
    const GreedySamplerOptions& sampler_options,
    RealRunPathPolicy path_policy = RealRunPathPolicy::kAuto);

}  // namespace tabula

#endif  // TABULA_TESTING_REFERENCE_ENGINES_H_
