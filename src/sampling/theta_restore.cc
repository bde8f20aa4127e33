#include "sampling/theta_restore.h"

#include <memory>
#include <utility>

namespace tabula {

Result<bool> WithinTheta(const ThetaContext& ctx,
                         const std::vector<RowId>& candidate,
                         const LossState* state, const DatasetView& raw) {
  if (state != nullptr && !ctx.loss->StateDependsOnReference()) {
    // The state summarizes the raw rows alone, so binding the candidate
    // as the reference makes Finalize the exact loss.
    TABULA_ASSIGN_OR_RETURN(
        std::unique_ptr<BoundLoss> bound,
        ctx.loss->Bind(*ctx.table, DatasetView(ctx.table, candidate)));
    return bound->Finalize(*state) <= ctx.threshold;
  }
  TABULA_ASSIGN_OR_RETURN(
      double loss, ctx.loss->Loss(raw, DatasetView(ctx.table, candidate)));
  return loss <= ctx.threshold;
}

Result<std::vector<RowId>> Redraw(const ThetaContext& ctx,
                                  const DatasetView& raw) {
  return GreedySampler(ctx.loss, ctx.threshold, ctx.sampler).Sample(raw);
}

Result<RestoredSample> RestoreTheta(const ThetaContext& ctx,
                                    ComposedSample composed,
                                    const RawRowSource& raw_rows) {
  RestoredSample out;
  // Disjoint slices hold distinct rows, so a candidate as large as the
  // slices IS every raw row.
  if (composed.candidate.size() == composed.raw_count) {
    out.exact = true;
    out.sample = std::move(composed.candidate);
    return out;
  }
  DatasetView raw;
  bool gathered = false;
  auto gather = [&]() -> Status {
    if (gathered) return Status::OK();
    TABULA_ASSIGN_OR_RETURN(std::vector<RowId> rows, raw_rows());
    raw = DatasetView(ctx.table, std::move(rows));
    gathered = true;
    return Status::OK();
  };
  bool accepted = composed.pieces_valid && ctx.loss->UnionClosed();
  if (!accepted) {
    if (ctx.loss->StateDependsOnReference()) TABULA_RETURN_NOT_OK(gather());
    TABULA_ASSIGN_OR_RETURN(
        accepted,
        WithinTheta(ctx, composed.candidate, composed.state, raw));
  }
  const bool thin =
      composed.thin_cap > 0 && composed.candidate.size() > composed.thin_cap;
  if (accepted && !thin) {
    out.sample = std::move(composed.candidate);
    return out;
  }
  TABULA_RETURN_NOT_OK(gather());
  TABULA_ASSIGN_OR_RETURN(out.sample, Redraw(ctx, raw));
  out.redrawn = true;
  return out;
}

}  // namespace tabula
