/// Scatter-gather bbox (pan/zoom) path of the sharded engine.
///
/// Each shard holds a spatial grid over its own rows (built against the
/// shared global reference sample), so a bbox answer is composed from
/// per-shard partials exactly the way the cell merge composes per-shard
/// samples: slices are disjoint, every partial is within θ of its slice,
/// and the union-closure / exact-state / re-sample ladder
/// (SpatialGrid::ComposePartials) restores the composed bound. A shard
/// whose every replica is down or faulted degrades the answer the same
/// way the equality path degrades: the global sample stands in for the
/// missing slice, `unavailable_shards` + `shard_error` populate, and the
/// θ bound is voided — the request still succeeds.

#include <algorithm>
#include <string>
#include <utility>

#include "common/stopwatch.h"
#include "shard/sharded_tabula.h"
#include "storage/predicate.h"
#include "testing/fault_injection.h"

namespace tabula {

SpatialGrid::Context ShardedTabula::SpatialContext() const {
  SpatialGrid::Context ctx;
  ctx.table = table_;
  ctx.loss = options_.base.effective_loss();
  ctx.threshold = options_.base.threshold;
  ctx.sampler = options_.base.sampler;
  ctx.sampler.seed = options_.base.seed;
  ctx.ref = global_sample_;
  return ctx;
}

Status ShardedTabula::QueryRange(const QueryRequest& request, bool has_pending,
                                 TabulaQueryResult* result) const {
  if (shards_.empty() || !shards_[0].unit->spatial_grid().present()) {
    return Status::InvalidArgument(
        "this engine has no spatial grid (enable TabulaOptions.spatial to "
        "serve bbox queries)");
  }
  const SpatialGrid& g0 = shards_[0].unit->spatial_grid();
  TABULA_ASSIGN_OR_RETURN(SpatialGrid::ResolvedBBox box,
                          g0.Resolve(request.range));
  for (const auto& term : request.where) {
    if (term.column == g0.options().x_column ||
        term.column == g0.options().y_column) {
      return Status::InvalidArgument(
          "cannot mix a spatial range and an equality predicate on '" +
          term.column + "'");
    }
  }
  // Spatial cells live outside the cube's dirty-key space, so staleness
  // tagging is conservative, like the plain engine's range path.
  result->stale = has_pending;
  SpatialGrid::Context ctx = SpatialContext();

  // One probed visit to shard `s`, shared by the pure and hybrid paths:
  // the legacy whole-group `shard.query` seam, then replica failover,
  // then the grid call (whose own `spatial.plan` / `spatial.scan` seams
  // also count as that shard failing). Failures degrade, not abort.
  auto visit_shard = [&](size_t s,
                         const std::function<Status()>& serve) -> void {
    Stopwatch shard_timer;
    Status shard_status = Status::OK();
    if (FaultInjector::AnyArmed()) {
      shard_status = FaultInjector::Global().Hit("shard.query");
    }
    if (shard_status.ok()) shard_status = ProbeReplicas(s);
    if (shard_status.ok()) shard_status = serve();
    if (!shard_status.ok()) {
      result->unavailable_shards.push_back(static_cast<uint32_t>(s));
      if (result->shard_error.ok()) {
        result->shard_error = Status::Unavailable(
            "shard " + std::to_string(s) +
            " unavailable during scatter-gather: " + shard_status.message());
      }
      metrics_.counter("shard_unavailable_total").Increment();
    }
    metrics_.histogram("shard" + std::to_string(s) + "_query_latency")
        .RecordMillis(shard_timer.ElapsedMillis());
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
    metrics_.histogram("shard_fanout_latency")
        .RecordMillis(fanout_timer.ElapsedMillis());
    if (!result->unavailable_shards.empty()) {
      // Degraded: serve what the healthy shards gathered plus the global
      // sample as the stand-in for the missing slices. θ is voided,
      // which the populated `unavailable_shards` signals.
      metrics_.counter("shard_degraded_answers").Increment();
      std::vector<RowId> gathered;
      for (SpatialGrid::RangeAnswer& p : partials) {
        gathered.insert(gathered.end(), p.sample.begin(), p.sample.end());
      }
      gathered.insert(gathered.end(), global_sample_rows_.begin(),
                      global_sample_rows_.end());
      result->from_local_sample = true;
      result->sample = DatasetView(table_, std::move(gathered));
      return Status::OK();
    }
    // All slices present: compose under the θ ladder. Re-sampling (when
    // the ladder rejects the union) draws from the ascending union of
    // every shard's matching rows — the exact vector a single-instance
    // scan produces, so re-drawn samples are K-invariant.
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
        SpatialGrid::RangeAnswer answer,
        SpatialGrid::ComposePartials(ctx, std::move(partials), gather_raw));
    if (answer.raw_count == 0) {
      result->empty_cell = true;
      result->sample = DatasetView(table_, {});
      return Status::OK();
    }
    result->from_local_sample = true;
    result->sample = DatasetView(table_, std::move(answer.sample));
    return Status::OK();
  }

  // Hybrid bbox + equality: the equality path's WHERE-clause contract
  // (and error wording), then filter the union of the shards' bbox rows
  // — which equals the single-instance row set, so exact answers and
  // query-time re-samples are K-invariant byte for byte.
  std::vector<uint32_t> codes;
  bool provably_empty = false;
  TABULA_RETURN_NOT_OK(Tabula::ValidateEqualityTerms(
      encoder_, request.where, &codes, &provably_empty));
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
    metrics_.histogram("shard_fanout_latency")
        .RecordMillis(fanout_timer.ElapsedMillis());
    TABULA_ASSIGN_OR_RETURN(BoundPredicate pred,
                            BoundPredicate::Bind(*table_, request.where));
    std::vector<RowId> matching = pred.FilterRows(rows);
    if (!result->unavailable_shards.empty()) {
      metrics_.counter("shard_degraded_answers").Increment();
      matching.insert(matching.end(), global_sample_rows_.begin(),
                      global_sample_rows_.end());
      result->from_local_sample = true;
      result->sample = DatasetView(table_, std::move(matching));
      return Status::OK();
    }
    if (!matching.empty()) {
      result->from_local_sample = true;
      size_t cap = g0.options().resample_cap;
      if (cap == 0 || matching.size() <= cap) {
        result->sample = DatasetView(table_, std::move(matching));
      } else {
        GreedySampler sampler(ctx.loss, ctx.threshold, ctx.sampler);
        TABULA_ASSIGN_OR_RETURN(std::vector<RowId> sample,
                                sampler.Sample(DatasetView(table_, matching)));
        result->sample = DatasetView(table_, std::move(sample));
      }
      return Status::OK();
    }
  }
  result->empty_cell = true;
  result->sample = DatasetView(table_, {});
  return Status::OK();
}

}  // namespace tabula
