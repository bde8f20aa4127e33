/// \file
/// Tiered-sample-store integration of the sharded engine (DESIGN.md
/// §12): the global byte budget splits into K + 1 slices. Each shard
/// unit's own store enforces one slice through the core's tier code;
/// this file keeps the coordinator's override store for the samples the
/// merge re-drew, which takes the remainder. Units and the override
/// store demote in drop mode only — a cold sample re-derives from its
/// rows with the build seed, so a spill side file buys nothing and
/// `spill_path` is rejected at K > 1. Nothing hot-promotes either: the
/// scatter-gather answer is a union of slices, and tightening one
/// slice's θ does not tighten the union's bound. Everything here is
/// inert when `base.store.budget_bytes == 0`.

#include <algorithm>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "sampling/theta_restore.h"
#include "shard/sharded_tabula.h"
#include "testing/fault_injection.h"

namespace tabula {

Status ShardedTabula::CheckStoreOptions() const {
  const SampleStoreOptions& opts = options_.base.store;
  if (opts.budget_bytes == 0) return Status::OK();
  if (!opts.spill_path.empty()) {
    return Status::InvalidArgument(
        "store.spill_path is single-instance only; the sharded engine "
        "demotes in drop mode (cold samples re-derive deterministically "
        "from the shard row lists)");
  }
  if (opts.budget_bytes < options_.num_shards + 1) {
    return Status::InvalidArgument(
        "store.budget_bytes must be at least num_shards + 1 so every "
        "shard store (and the override store) gets a non-zero slice");
  }
  return Status::OK();
}

SampleStoreOptions ShardedTabula::OverrideStoreOptions() const {
  SampleStoreOptions opts = options_.base.store;
  opts.budget_bytes -=
      options_.num_shards * UnitOptions().store.budget_bytes;
  return opts;
}

void ShardedTabula::TrackOverridesLocked() const {
  if (!store_enabled()) return;
  std::vector<uint32_t> refs(override_samples_.size(), 0);
  merged_.ForEach([&](uint64_t, const MergedCell& cell) {
    if (cell.has_override) ++refs[cell.override_id];
  });
  const uint64_t tuple_bytes = shards_.front().unit->BytesPerTuple();
  for (uint32_t id = 0; id < override_samples_.size(); ++id) {
    if (override_store_.tracked(id)) continue;  // Load() adopted it
    override_store_.Track(id,
                          override_samples_.sample(id).size() * tuple_bytes,
                          SampleTier::kWarm, refs[id]);
  }
  override_store_.EnforceBudget(&override_samples_);
}

Status ShardedTabula::PromoteOverrideLocked(uint64_t key,
                                            const MergedCell& cell,
                                            std::vector<RowId>* out) const {
  TABULA_FAULT_POINT("store.promote");
  // The merge drew this override from the ascending union of the cell's
  // shard slices; the same gather over the units' finest-cell indexes
  // reproduces it.
  std::vector<const FinestIndex*> indexes;
  for (const Shard& shard : shards_) indexes.push_back(&shard.unit->finest_);
  std::vector<RowId> rows = std::move(GatherCellRows(
      indexes, packer_, {key}, static_cast<RowId>(refreshed_rows_))[0]);
  if (rows.empty()) {
    return Status::Internal("override cell has no rows in any shard");
  }
  TABULA_ASSIGN_OR_RETURN(
      std::vector<RowId> sample,
      Redraw(theta_context(), DatasetView(table_, std::move(rows))));
  out->insert(out->end(), sample.begin(), sample.end());

  const uint32_t id = cell.override_id;
  const uint64_t bytes = sample.size() * shards_.front().unit->BytesPerTuple();
  override_store_.EnforceBudget(&override_samples_, bytes, id);
  override_store_.CountPromote();
  if (override_store_.bytes() + bytes > override_store_.budget()) {
    // The sample alone cannot fit the override slice (everything else
    // is already cold): served, not retained.
    return Status::OK();
  }
  override_samples_.SetSample(id, std::move(sample));
  override_store_.MarkResident(id, bytes, SampleTier::kWarm);
  return Status::OK();
}

std::vector<std::shared_lock<std::shared_mutex>>
ShardedTabula::LockStoresShared() const {
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  if (!store_enabled()) return locks;
  for (const Shard& shard : shards_) locks.emplace_back(*shard.unit->store_mu_);
  locks.emplace_back(*store_mu_);
  return locks;
}

SampleStoreStats ShardedTabula::StoreStats() const {
  SampleStoreStats total;
  total.budget_bytes = options_.base.store.budget_bytes;
  if (!store_enabled()) return total;
  auto fold = [&](const SampleStore& store, std::shared_mutex& mu) {
    std::shared_lock<std::shared_mutex> lock(mu);
    SampleStoreStats s = store.Stats();
    total.resident_bytes += s.resident_bytes;
    total.hot_samples += s.hot_samples;
    total.warm_samples += s.warm_samples;
    total.cold_samples += s.cold_samples;
    total.hits += s.hits;
    total.promotes += s.promotes;
    total.demotes += s.demotes;
    total.spill_writes += s.spill_writes;
    total.spill_reads += s.spill_reads;
    total.spill_write_failures += s.spill_write_failures;
    total.promote_failures += s.promote_failures;
  };
  for (const Shard& shard : shards_) {
    fold(shard.unit->sample_store(), *shard.unit->store_mu_);
  }
  fold(override_store_, *store_mu_);
  return total;
}

uint64_t ShardedTabula::StoreBytes() const {
  if (!store_enabled()) return 0;
  uint64_t bytes = override_store_.bytes();
  for (const Shard& shard : shards_) {
    bytes += shard.unit->sample_store().bytes();
  }
  return bytes;
}

}  // namespace tabula
