/// Scatter-gather bbox (pan/zoom) path of the sharded engine.
///
/// Each shard holds a spatial grid over its own rows (built against the
/// shared global reference sample), so a bbox answer is composed from
/// per-shard partials exactly the way a grid composes its cells: slices
/// are disjoint, every partial is within θ of its slice, and
/// RestoreTheta restores the composed bound. A shard whose every replica
/// is down or faulted degrades the answer the same way the equality path
/// degrades: the global sample stands in for the missing slice,
/// `unavailable_shards` + `shard_error` populate, and the θ bound is
/// voided — the request still succeeds.

#include <algorithm>
#include <string>
#include <utility>

#include "common/stopwatch.h"
#include "shard/sharded_tabula.h"
#include "storage/predicate.h"

namespace tabula {

Status ShardedTabula::QueryRange(const QueryRequest& request, bool has_pending,
                                 TabulaQueryResult* result) const {
  // Every unit's grid spans the same columns with the same options.
  const SpatialGrid& g0 = shards_[0].unit->spatial_grid();
  bool provably_empty = false;
  TABULA_ASSIGN_OR_RETURN(
      SpatialGrid::ResolvedBBox box,
      ValidateRange(g0, encoder_, request, &provably_empty));
  // Spatial cells live outside the cube's dirty-key space, so staleness
  // tagging is conservative, like the plain engine's range path.
  result->stale = has_pending;
  const ThetaContext ctx = theta_context();

  // One probed visit to shard `s`, shared by the pure and hybrid paths:
  // replica failover (behind the whole-group `shard.query` seam), then
  // the grid call (whose own `spatial.plan` / `spatial.scan` seams also
  // count as that shard failing). Failures degrade, not abort.
  auto visit_shard = [&](size_t s,
                         const std::function<Status()>& serve) -> void {
    Stopwatch shard_timer;
    Status shard_status = ProbeReplicas(s);
    if (shard_status.ok()) shard_status = serve();
    RecordShardVisit(s, shard_status, shard_timer.ElapsedMillis(), result);
  };
  // Degraded: serve what the healthy shards gathered plus the global
  // sample as the stand-in for the missing slices. θ is voided, which
  // the populated `unavailable_shards` signals.
  auto degrade = [&](std::vector<RowId> rows) {
    meters_.degraded->Increment();
    rows.insert(rows.end(), global_sample_rows_.begin(),
                global_sample_rows_.end());
    result->from_local_sample = true;
    result->sample = DatasetView(table_, std::move(rows));
    return Status::OK();
  };

  if (request.where.empty()) {
    Stopwatch fanout_timer;
    std::vector<SpatialGrid::RangeAnswer> partials;
    partials.reserve(shards_.size());
    for (size_t s = 0; s < shards_.size(); ++s) {
      visit_shard(s, [&]() -> Status {
        TABULA_ASSIGN_OR_RETURN(
            SpatialGrid::RangeAnswer partial,
            shards_[s].unit->spatial_grid().RangeQuery(ctx, box));
        partials.push_back(std::move(partial));
        return Status::OK();
      });
    }
    meters_.fanout->RecordMillis(fanout_timer.ElapsedMillis());
    if (!result->unavailable_shards.empty()) {
      std::vector<RowId> gathered;
      for (SpatialGrid::RangeAnswer& p : partials) {
        gathered.insert(gathered.end(), p.sample.begin(), p.sample.end());
      }
      return degrade(std::move(gathered));
    }
    // All slices present: compose the partials through RestoreTheta. A
    // re-draw reads the ascending union of every shard's matching rows —
    // the exact vector a single-instance scan produces, so re-drawn
    // samples are K-invariant.
    std::vector<RowId> candidate;
    LossState state;
    size_t raw_count = 0;
    for (const SpatialGrid::RangeAnswer& p : partials) {
      if (p.raw_count == 0) continue;
      candidate.insert(candidate.end(), p.sample.begin(), p.sample.end());
      state.Merge(p.state);
      raw_count += p.raw_count;
    }
    if (raw_count == 0) {
      result->empty_cell = true;
      result->sample = DatasetView(table_, {});
      return Status::OK();
    }
    auto gather_raw = [&]() -> Result<std::vector<RowId>> {
      std::vector<RowId> raw;
      for (const Shard& shard : shards_) {
        TABULA_ASSIGN_OR_RETURN(
            std::vector<RowId> rows,
            shard.unit->spatial_grid().GatherRangeRows(ctx, box));
        raw.insert(raw.end(), rows.begin(), rows.end());
      }
      std::sort(raw.begin(), raw.end());
      return raw;
    };
    TABULA_ASSIGN_OR_RETURN(
        RestoredSample composed,
        RestoreTheta(ctx, {std::move(candidate), &state, raw_count},
                     gather_raw));
    result->from_local_sample = true;
    result->sample = DatasetView(table_, std::move(composed.sample));
    return Status::OK();
  }

  // Hybrid bbox + equality: filter the union of the shards' bbox rows —
  // which equals the single-instance row set, so exact answers and
  // query-time re-draws are K-invariant byte for byte.
  std::vector<RowId> matching;
  if (!provably_empty) {
    Stopwatch fanout_timer;
    std::vector<RowId> rows;
    for (size_t s = 0; s < shards_.size(); ++s) {
      visit_shard(s, [&]() -> Status {
        TABULA_ASSIGN_OR_RETURN(
            std::vector<RowId> shard_rows,
            shards_[s].unit->spatial_grid().GatherRangeRows(ctx, box));
        rows.insert(rows.end(), shard_rows.begin(), shard_rows.end());
        return Status::OK();
      });
    }
    std::sort(rows.begin(), rows.end());
    meters_.fanout->RecordMillis(fanout_timer.ElapsedMillis());
    TABULA_ASSIGN_OR_RETURN(BoundPredicate pred,
                            BoundPredicate::Bind(*table_, request.where));
    matching = pred.FilterRows(rows);
    if (!result->unavailable_shards.empty()) {
      return degrade(std::move(matching));
    }
  }
  return ServeHybrid(ctx, g0.options().resample_cap, std::move(matching),
                     result);
}

}  // namespace tabula
