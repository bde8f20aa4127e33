/// Incremental maintenance of a sharded cube, split into the four-phase
/// streaming-ingestion protocol (see QueryEngine; EngineFront writes the
/// phases' prologue and commit tail): PlanIngest routes
/// appended rows to their owning shards (hash of the row id, or the
/// smallest shard under range partitioning) and computes the dirty cell
/// set; BeginIngest publishes that set for per-cell staleness tagging;
/// ExecuteIngest rebuilds ONLY the touched shards' units (staged) and
/// re-runs the merge + θ re-verification pass over the mix of rebuilt
/// and untouched units; CommitIngest adopts the staged shards
/// and merged directory. Every fallible step is staged, so a failed
/// cycle (including an injected `shard.build` fault) leaves the
/// instance answering queries exactly as before, generation unchanged.

#include <algorithm>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "shard/sharded_tabula.h"

namespace tabula {

/// Staged state of one in-flight sharded ingest cycle. Declared as a
/// nested type (the Shard/MergeOutput members are private to
/// ShardedTabula) but defined here so the staged layout stays local to
/// this translation unit. Everything in it is private to the cycle
/// until CommitIngest adopts it, so a failure in any phase just drops
/// the plan.
struct ShardedTabula::IngestState : StagedIngest {
  /// Indices of shards that received appended rows.
  std::vector<size_t> touched;
  /// Staged replacements of the touched shards: `rows` pre-extended with
  /// the appends at plan time, the unit rebuilt over them in
  /// ExecuteIngest.
  std::vector<Shard> staged;
  MergeOutput merge;
};

std::unique_ptr<EngineFront::StagedIngest> ShardedTabula::NewIngestPlan()
    const {
  return std::make_unique<IngestState>();
}

Status ShardedTabula::PlanChanges(StagedIngest* staged) {
  auto* plan = static_cast<IngestState*>(staged);
  const size_t n0 = refreshed_rows_;
  const size_t n1 = plan->target_rows;
  // Route appended rows to their owning shards. Range routing feeds
  // the running sizes back in, so a burst of appends still lands on
  // one (the smallest) shard at a time, deterministically.
  const size_t k = options_.num_shards;
  std::vector<size_t> sizes(k);
  for (size_t s = 0; s < k; ++s) sizes[s] = shards_[s].rows.size();
  std::vector<std::vector<RowId>> appended(k);
  for (size_t r = n0; r < n1; ++r) {
    size_t s = ShardForNewRow(static_cast<RowId>(r), sizes);
    appended[s].push_back(static_cast<RowId>(r));
    ++sizes[s];
  }
  for (size_t s = 0; s < k; ++s) {
    if (!appended[s].empty()) plan->touched.push_back(s);
  }

  // Staged row lists for the touched shards. Appended row ids exceed
  // every existing id, so the staged lists stay ascending.
  plan->staged.resize(plan->touched.size());
  for (size_t i = 0; i < plan->touched.size(); ++i) {
    size_t s = plan->touched[i];
    plan->staged[i].rows = shards_[s].rows;
    plan->staged[i].rows.insert(plan->staged[i].rows.end(),
                                appended[s].begin(), appended[s].end());
  }

  // Dirty set: every cell (at every lattice level) holding a pending
  // row. A superset of the cells whose answers actually change — a
  // touched cell can stay non-iceberg — which errs on the side of
  // tagging an unchanged answer stale, never the reverse.
  FlatHashSet dirty;
  for (size_t r = n0; r < n1; ++r) {
    for (size_t m = 0; m < lattice_.num_cuboids(); ++m) {
      dirty.Insert(packer_.PackRowMasked(plan->new_encoder,
                                         static_cast<RowId>(r),
                                         static_cast<CuboidMask>(m)));
    }
  }
  plan->dirty_keys = dirty.SortedKeys();
  return Status::OK();
}

Result<std::unique_ptr<EngineFront>> ShardedTabula::Rebuild() const {
  TABULA_ASSIGN_OR_RETURN(std::unique_ptr<ShardedTabula> fresh,
                          Initialize(*table_, options_));
  return std::unique_ptr<EngineFront>(std::move(fresh));
}

Status ShardedTabula::ExecuteChanges(StagedIngest* staged) {
  auto* p = static_cast<IngestState*>(staged);
  Tracer* tracer = options_.base.tracer;
  // Rebuild ONLY the touched shards' units, into the staged shards
  // (parallel, one unit per grain, like Initialize). The staged encoder
  // codes the appended rows; identical layout means identical keys for
  // rows the member encoder also covers.
  const DatasetView& ref =
      p->adopt_global ? p->staged_global : global_sample_;
  const std::vector<RowId>& ref_rows =
      p->adopt_global ? p->staged_global_rows : global_sample_rows_;
  std::vector<Shard*> rebuilt(p->staged.size());
  for (size_t i = 0; i < rebuilt.size(); ++i) rebuilt[i] = &p->staged[i];
  std::vector<double> build_millis;
  TABULA_RETURN_NOT_OK(BuildUnits(rebuilt, p->new_encoder, ref_rows, tracer,
                                  p->parent_span, &build_millis));

  // Re-merge over the mix of rebuilt and untouched shards (staged
  // output; nothing committed yet). Untouched units are read-only here
  // (the merge holds their store locks shared) — safe concurrently with
  // queries.
  std::vector<const Shard*> shard_ptrs(options_.num_shards);
  for (size_t s = 0; s < options_.num_shards; ++s) {
    shard_ptrs[s] = &shards_[s];
  }
  for (size_t i = 0; i < p->touched.size(); ++i) {
    shard_ptrs[p->touched[i]] = &p->staged[i];
  }
  TABULA_ASSIGN_OR_RETURN(
      p->merge,
      MergeShardCubes(shard_ptrs, p->new_encoder, ref, ref_rows, tracer,
                      p->parent_span));

  // Directory diff for the maintenance stats.
  p->merge.merged.ForEach([&](uint64_t key, const MergedCell&) {
    if (!merged_.contains(key)) ++p->stats.new_iceberg_cells;
  });
  merged_.ForEach([&](uint64_t key, const MergedCell&) {
    if (!p->merge.merged.contains(key)) ++p->stats.dropped_iceberg_cells;
  });
  p->stats.rechecked_cells = p->merge.verified_cells;
  p->stats.resampled_cells = p->merge.resampled_cells;
  return Status::OK();
}

void ShardedTabula::AdoptRebuild(EngineFront&& rebuilt) {
  // Member-wise adoption: the metrics registry (mutexes) and the replica
  // states stay put. The exclusive store lock fences the swap against
  // in-flight override promotes.
  auto& fresh = static_cast<ShardedTabula&>(rebuilt);
  std::unique_lock<std::shared_mutex> store_lock(*store_mu_,
                                                 std::defer_lock);
  if (store_enabled()) store_lock.lock();
  EngineFront::operator=(std::move(fresh));
  lattice_ = fresh.lattice_;
  shards_ = std::move(fresh.shards_);
  merged_ = std::move(fresh.merged_);
  override_samples_ = std::move(fresh.override_samples_);
  override_store_ = std::move(fresh.override_store_);
  stats_ = std::move(fresh.stats_);
}

void ShardedTabula::CommitChanges(StagedIngest* staged) {
  auto* p = static_cast<IngestState*>(staged);
  // Tier transitions are commit-phase only: rebuilt units arrive with
  // fresh stores already within their slices, untouched units keep
  // their tiers and hit counters, and the override store re-registers
  // the fresh override samples all-kWarm under its exclusive lock.
  std::unique_lock<std::shared_mutex> store_lock(*store_mu_,
                                                 std::defer_lock);
  if (store_enabled()) store_lock.lock();
  stats_.global_sample_tuples = global_sample_.size();
  for (size_t i = 0; i < p->touched.size(); ++i) {
    shards_[p->touched[i]] = std::move(p->staged[i]);
  }
  merged_ = std::move(p->merge.merged);
  override_samples_ = std::move(p->merge.overrides);
  stats_.merged_iceberg_cells = merged_.size();
  stats_.conflict_cells = p->merge.conflict_cells;
  stats_.union_accepted_cells = p->merge.union_accepted_cells;
  stats_.verified_cells = p->merge.verified_cells;
  stats_.resampled_cells = p->merge.resampled_cells;
  for (size_t s = 0; s < shards_.size(); ++s) {
    stats_.shard_iceberg_cells[s] = shards_[s].unit->cube_table().size();
  }
  if (store_enabled()) {
    override_store_.Configure(OverrideStoreOptions());
    TrackOverridesLocked();
  }
}

}  // namespace tabula
