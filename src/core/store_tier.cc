/// \file
/// Tiered-sample-store integration of the single-instance engine
/// (DESIGN.md §12): initial tier assignment after a build, the lazy
/// promote-on-miss serve path, budget enforcement by CLOCK demotion,
/// and the hot-upgrade maintenance sweep. Everything here is inert when
/// `TabulaOptions::store.budget_bytes == 0` — the engine then behaves
/// byte-identically to the pre-tiering build.

#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <utility>
#include <vector>

#include "core/tabula.h"
#include "testing/fault_injection.h"

namespace tabula {

Status Tabula::AssignInitialTiers(const std::vector<RowId>* rows) {
  // Never truncate the spill file: a full-rebuild ingest builds the
  // fresh instance while the old one still serves (and may still read
  // its own spill records), so records are append-only for the life of
  // the side file. Offsets are validated by per-record checksums.
  // Load() configures the store itself (before adopting persisted tier
  // records, which a reconfigure would wipe) — only configure here when
  // that has not happened.
  if (!store_.enabled()) {
    TABULA_RETURN_NOT_OK(
        store_.Configure(options_.store, /*truncate_spill=*/false));
  }
  if (!store_enabled()) return Status::OK();
  if (options_.store.hot_theta_factor <= 0.0 ||
      options_.store.hot_theta_factor > 1.0) {
    return Status::InvalidArgument(
        "store.hot_theta_factor must be in (0, 1]");
  }
  // Lazy promotes gather cell rows from the finest-row index, so build
  // it up front (just the index — NOT BuildMaintenanceState, whose
  // finest_states_ must keep covering exactly [0, refreshed_rows_) for
  // a resume_partial load). Indexing past refreshed_rows_ is harmless:
  // AppendCellRows caps at the folded prefix, and PlanIngest's
  // watermark makes the extension idempotent. A shard unit indexes
  // exactly its own rows.
  const DatasetView view =
      rows != nullptr ? DatasetView(table_, *rows) : DatasetView(table_);
  for (size_t i = finest_rows_indexed_; i < view.size(); ++i) {
    const RowId r = view.row(i);
    finest_rows_[packer_.PackRow(encoder_, r)].push_back(r);
  }
  finest_rows_indexed_ = view.size();
  // Register every sample at kWarm with its cube refcount (selection
  // shares representative slots across cells).
  std::vector<uint32_t> refs(samples_.size(), 0);
  for (const IcebergCell& cell : cube_.cells()) {
    if (cell.sample_id != kInvalidSampleId) ++refs[cell.sample_id];
  }
  const uint64_t tuple_bytes = BytesPerTuple();
  for (uint32_t id = 0; id < samples_.size(); ++id) {
    if (store_.tracked(id)) continue;  // Load() adopted this record
    store_.Track(id, samples_.sample(id).size() * tuple_bytes,
                 SampleTier::kWarm, refs[id]);
  }
  store_.EnforceBudget(&samples_);
  return Status::OK();
}

void Tabula::AppendCellRows(uint64_t key, CuboidMask cuboid,
                            std::vector<RowId>* rows) const {
  const size_t first = rows->size();
  const size_t n_attrs = options_.cubed_attributes.size();
  std::vector<size_t> rolled;
  for (size_t j = 0; j < n_attrs; ++j) {
    if (!(cuboid & (CuboidMask{1} << j))) rolled.push_back(j);
  }
  // Only rows the cube has folded in: the index may already cover
  // pending appends staged by an in-flight (or abandoned) ingest cycle,
  // and the sample must match the committed prefix.
  const RowId bound = static_cast<RowId>(refreshed_rows_);
  finest_rows_.ForEach([&](uint64_t fkey, const std::vector<RowId>& frows) {
    uint64_t cell_key = fkey;
    for (size_t j : rolled) cell_key = packer_.WithNull(cell_key, j);
    if (cell_key != key) return;
    for (RowId r : frows) {
      if (r < bound) rows->push_back(r);
    }
  });
  // Ascending row order = the build-time gather order, so re-sampling
  // is byte-deterministic.
  std::sort(rows->begin() + first, rows->end());
}

Status Tabula::PromoteLocked(IcebergCell* cell,
                             std::vector<RowId>* transient) const {
  transient->clear();
  TABULA_FAULT_POINT("store.promote");
  const uint32_t old_id = cell->sample_id;
  std::vector<RowId> rows;
  AppendCellRows(cell->key, cell->cuboid, &rows);
  if (rows.empty()) {
    return Status::Internal("iceberg cell has no rows in the finest index");
  }

  const bool hot =
      store_.hits(old_id) >= options_.store.hot_promote_hits;
  SampleTier tier = hot ? SampleTier::kHot : SampleTier::kWarm;

  std::vector<RowId> sample;
  bool have_sample = false;
  if (!hot && store_.has_spill(old_id) && store_.refs(old_id) == 1) {
    // Restore the exact demoted bytes, then lazily re-verify: a spill
    // record may predate ingest cycles, so it only serves if it still
    // meets θ against the cell's current rows.
    TABULA_ASSIGN_OR_RETURN(std::vector<RowId> restored,
                            store_.ReadSpilled(old_id));
    DatasetView raw(table_, rows);
    DatasetView rep(table_, restored);
    TABULA_ASSIGN_OR_RETURN(double loss, loss_fn()->Loss(raw, rep));
    if (loss <= options_.threshold) {
      sample = std::move(restored);
      have_sample = true;
    }
  }
  if (!have_sample) {
    // Deterministic re-draw, seeded like the build: promote → demote →
    // promote reproduces the original sample bytes.
    const double theta =
        hot ? options_.threshold * options_.store.hot_theta_factor
            : options_.threshold;
    GreedySamplerOptions sampler_opts = options_.sampler;
    sampler_opts.seed = options_.seed;
    GreedySampler sampler(loss_fn(), theta, sampler_opts);
    TABULA_ASSIGN_OR_RETURN(sample, sampler.Sample(DatasetView(table_, rows)));
  }

  const uint64_t bytes = sample.size() * BytesPerTuple();
  store_.EnforceBudget(&samples_, bytes, old_id);
  if (store_.bytes() + bytes > store_.budget()) {
    // The sample alone cannot fit the budget (everything else is
    // already cold). Serve it θ-bounded but do not retain it.
    *transient = std::move(sample);
    return Status::OK();
  }

  if (store_.refs(old_id) <= 1) {
    // Sole owner: restore into the same slot — every cube link stays
    // valid, and sample-id assignment stays byte-stable.
    samples_.SetSample(old_id, std::move(sample));
    store_.MarkResident(old_id, bytes, tier);
  } else {
    // A shared representative slot went cold for all sharers; each
    // promotes into a fresh private slot so the others stay cold.
    uint32_t new_id = samples_.Add(std::move(sample));
    store_.Track(new_id, bytes, tier, /*refs=*/1);
    store_.ReleaseRef(old_id);
    cell->sample_id = new_id;
  }
  return Status::OK();
}

bool Tabula::AppendLocalSample(const IcebergCell& cell, uint64_t parent_span,
                               std::vector<RowId>* out) const {
  auto append = [&](const std::vector<RowId>& sample) {
    out->insert(out->end(), sample.begin(), sample.end());
  };
  if (!store_enabled()) {
    append(samples_.sample(cell.sample_id));
    return true;
  }
  // A promote may relink a shared cell's sample id, so re-read the cell
  // under the store lock.
  {
    std::shared_lock<std::shared_mutex> lock(*store_mu_);
    const uint32_t id = cube_.Find(cell.key)->sample_id;
    store_.RecordHit(id);
    if (store_.resident(id)) {
      append(samples_.sample(id));
      return true;
    }
  }
  // Cold tier: lazily promote under the exclusive section.
  std::unique_lock<std::shared_mutex> lock(*store_mu_);
  IcebergCell* mutable_cell = cube_.FindMutable(cell.key);
  if (store_.resident(mutable_cell->sample_id)) {
    // Raced with another promoter; serve its work.
    append(samples_.sample(mutable_cell->sample_id));
    return true;
  }
  Span span;
  if (options_.tracer != nullptr) {
    span = options_.tracer->StartSpan("store.promote", parent_span);
  }
  std::vector<RowId> transient;
  Status promoted = PromoteLocked(mutable_cell, &transient);
  span.SetAttribute("ok", promoted.ok());
  if (!promoted.ok()) {
    store_.CountPromoteFailure();
    return false;
  }
  store_.CountPromote();
  if (!transient.empty()) {
    // Too large to retain: served once, the slot stays cold, and the
    // budget invariant holds.
    span.SetAttribute("retained", false);
    append(transient);
  } else {
    span.SetAttribute("retained", true);
    span.SetAttribute("tier", std::string(SampleTierName(
                                  store_.tier(mutable_cell->sample_id))));
    append(samples_.sample(mutable_cell->sample_id));
  }
  return true;
}

Status Tabula::MaintainStoreTiers() {
  if (!store_enabled()) return Status::OK();
  std::unique_lock<std::shared_mutex> lock(*store_mu_);
  // Ascending key order: the sweep is deterministic at any thread count.
  std::vector<IcebergCell*> order;
  order.reserve(cube_.size());
  for (IcebergCell& cell : cube_.mutable_cells()) order.push_back(&cell);
  std::sort(order.begin(), order.end(),
            [](const IcebergCell* a, const IcebergCell* b) {
              return a->key < b->key;
            });
  GreedySamplerOptions sampler_opts = options_.sampler;
  sampler_opts.seed = options_.seed;
  GreedySampler hot_sampler(
      loss_fn(), options_.threshold * options_.store.hot_theta_factor,
      sampler_opts);
  const uint64_t tuple_bytes = BytesPerTuple();
  for (IcebergCell* cell : order) {
    const uint32_t id = cell->sample_id;
    // Hot is single-instance only: a shared representative slot serves
    // several cells, whose union of rows has no common tighter sample.
    if (!store_.resident(id) || store_.tier(id) == SampleTier::kHot) continue;
    if (store_.refs(id) != 1) continue;
    if (store_.hits(id) < options_.store.hot_promote_hits) continue;
    std::vector<RowId> rows;
    AppendCellRows(cell->key, cell->cuboid, &rows);
    if (rows.empty()) {
      return Status::Internal("iceberg cell has no rows in the finest index");
    }
    TABULA_ASSIGN_OR_RETURN(std::vector<RowId> sample,
                            hot_sampler.Sample(DatasetView(table_, rows)));
    const uint64_t bytes = sample.size() * tuple_bytes;
    samples_.SetSample(id, std::move(sample));
    store_.MarkResident(id, bytes, SampleTier::kHot);
  }
  store_.EnforceBudget(&samples_);
  return Status::OK();
}

}  // namespace tabula
