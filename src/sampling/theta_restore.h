#ifndef TABULA_SAMPLING_THETA_RESTORE_H_
#define TABULA_SAMPLING_THETA_RESTORE_H_

#include <functional>
#include <vector>

#include "common/status.h"
#include "loss/loss_function.h"
#include "sampling/greedy_sampler.h"
#include "storage/table.h"

namespace tabula {

/// \brief Restoring `loss ≤ θ` on a sample composed from pieces
/// (DESIGN.md §7).
///
/// A grid parent, a bbox answer, a merged shard cell, a grown cube cell
/// and a promoted sample are each built from pieces of disjoint slices,
/// every piece within θ of its own slice or of an older version of it.
/// One argument makes such a sample θ-valid again, and it lives here:
/// accept the union when the loss is union-closed and every slice
/// contributed a θ-valid piece; otherwise check it, exactly from the
/// folded state when that state is reference-free and against the raw
/// rows when it is not; and re-draw with Algorithm 1 over the ascending
/// raw rows when the check fails.

/// The loss machinery every restoration reads. The engines build it in
/// one place (EngineFront::theta_context).
struct ThetaContext {
  const Table* table = nullptr;
  const LossFunction* loss = nullptr;
  double threshold = 0.0;
  /// Seeded with the build's seed, so a re-draw over the same ascending
  /// rows reproduces the bytes the build drew.
  GreedySamplerOptions sampler;
  /// The reference sample callers accumulate loss states against (the
  /// engine's global sample). The check and the re-draw never read it.
  DatasetView ref;
};

/// The check: loss(raw, candidate) ≤ θ. With a `state` (the folded
/// state of the raw rows) and a reference-free loss,
/// Bind(candidate)->Finalize(state) decides exactly and `raw` is not
/// read; otherwise the loss is evaluated over `raw`.
Result<bool> WithinTheta(const ThetaContext& ctx,
                         const std::vector<RowId>& candidate,
                         const LossState* state, const DatasetView& raw);

/// The re-draw: Algorithm 1 at ctx.threshold over `raw`, whose rows are
/// ascending, seeded with ctx.sampler — deterministic in the rows alone.
Result<std::vector<RowId>> Redraw(const ThetaContext& ctx,
                                  const DatasetView& raw);

/// Every raw row of a composed sample's slices, ascending.
using RawRowSource = std::function<Result<std::vector<RowId>>()>;

/// A sample composed from the pieces of disjoint slices, with what its
/// caller folded from them.
struct ComposedSample {
  /// The union of the pieces, in the caller's order.
  std::vector<RowId> candidate;
  /// The folded loss state of every raw row the slices hold.
  const LossState* state = nullptr;
  /// How many raw rows the slices hold.
  size_t raw_count = 0;
  /// Every slice contributed a piece within θ of the slice as it is now.
  bool pieces_valid = true;
  /// An accepted candidate above this many rows is re-drawn anyway, so a
  /// zoomed-out answer stays dashboard-sized; 0 never thins.
  size_t thin_cap = 0;
};

/// The restored sample.
struct RestoredSample {
  std::vector<RowId> sample;
  /// The candidate was every raw row (loss 0).
  bool exact = false;
  /// The sample was re-drawn from the raw rows.
  bool redrawn = false;
};

/// The ladder: exact → union-closed accept → check → thin cap →
/// re-draw. `raw_rows` is called at most once, and only when the check
/// or the re-draw reads raw rows: exact, union-closed and
/// reference-free accepts read none.
Result<RestoredSample> RestoreTheta(const ThetaContext& ctx,
                                    ComposedSample composed,
                                    const RawRowSource& raw_rows);

}  // namespace tabula

#endif  // TABULA_SAMPLING_THETA_RESTORE_H_
