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

Status Tabula::AssignInitialTiers() {
  // The spill file is never truncated: a full-rebuild ingest builds the
  // fresh instance while the old one still serves (and may still read
  // its own spill records), so records are append-only for the life of
  // the side file. Offsets are validated by per-record checksums.
  // Load() configures the store itself (before adopting persisted tier
  // records, which a reconfigure would wipe) — only configure here when
  // that has not happened.
  if (!store_.enabled()) store_.Configure(options_.store);
  if (!store_enabled()) return Status::OK();
  if (options_.store.hot_theta_factor <= 0.0 ||
      options_.store.hot_theta_factor > 1.0) {
    return Status::InvalidArgument(
        "store.hot_theta_factor must be in (0, 1]");
  }
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

std::vector<RowId> Tabula::CellRows(uint64_t key) const {
  // Only rows the cube has folded in: the index may already hold pending
  // appends of an in-flight (or abandoned) ingest cycle, and the sample
  // must match the committed prefix.
  return std::move(GatherCellRows({&finest_}, packer_, {key},
                                  static_cast<RowId>(refreshed_rows_))[0]);
}

Status Tabula::PromoteLocked(IcebergCell* cell,
                             std::vector<RowId>* transient) const {
  transient->clear();
  TABULA_FAULT_POINT("store.promote");
  const uint32_t old_id = cell->sample_id;
  ThetaContext ctx = theta_context();

  const bool hot =
      store_.hits(old_id) >= options_.store.hot_promote_hits;
  SampleTier tier = hot ? SampleTier::kHot : SampleTier::kWarm;

  // The cell's rows, gathered at most once: for a re-draw, or to check
  // a restored sample under a loss whose state depends on the reference.
  DatasetView raw;
  bool gathered = false;
  auto gather = [&]() -> Status {
    if (gathered) return Status::OK();
    std::vector<RowId> rows = CellRows(cell->key);
    if (rows.empty()) {
      return Status::Internal("iceberg cell has no rows in the finest index");
    }
    raw = DatasetView(table_, std::move(rows));
    gathered = true;
    return Status::OK();
  };

  std::vector<RowId> sample;
  bool have_sample = false;
  if (!hot && store_.has_spill(old_id) && store_.refs(old_id) == 1) {
    // Restore the exact demoted bytes, then lazily re-verify: a spill
    // record may predate ingest cycles, so it only serves if it still
    // meets θ against the cell's current rows. A reference-free loss
    // decides that off the cell's folded state, reading no row.
    TABULA_ASSIGN_OR_RETURN(std::vector<RowId> restored,
                            store_.ReadSpilled(old_id));
    LossState state;
    if (loss_fn()->StateDependsOnReference()) {
      TABULA_RETURN_NOT_OK(gather());
    } else {
      state = FoldCellState(finest_, packer_, cell->key);
    }
    TABULA_ASSIGN_OR_RETURN(bool within,
                            WithinTheta(ctx, restored, &state, raw));
    if (within) {
      sample = std::move(restored);
      have_sample = true;
    }
  }
  if (!have_sample) {
    // Deterministic re-draw, seeded like the build: promote → demote →
    // promote reproduces the original sample bytes. A hot upgrade draws
    // at θ × hot_theta_factor.
    TABULA_RETURN_NOT_OK(gather());
    if (hot) ctx.threshold *= options_.store.hot_theta_factor;
    TABULA_ASSIGN_OR_RETURN(sample, Redraw(ctx, raw));
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
  ThetaContext hot = theta_context();
  hot.threshold *= options_.store.hot_theta_factor;
  const uint64_t tuple_bytes = BytesPerTuple();
  for (IcebergCell* cell : order) {
    const uint32_t id = cell->sample_id;
    // Hot is single-instance only: a shared representative slot serves
    // several cells, whose union of rows has no common tighter sample.
    if (!store_.resident(id) || store_.tier(id) == SampleTier::kHot) continue;
    if (store_.refs(id) != 1) continue;
    if (store_.hits(id) < options_.store.hot_promote_hits) continue;
    std::vector<RowId> rows = CellRows(cell->key);
    if (rows.empty()) {
      return Status::Internal("iceberg cell has no rows in the finest index");
    }
    TABULA_ASSIGN_OR_RETURN(
        std::vector<RowId> sample,
        Redraw(hot, DatasetView(table_, std::move(rows))));
    const uint64_t bytes = sample.size() * tuple_bytes;
    samples_.SetSample(id, std::move(sample));
    store_.MarkResident(id, bytes, SampleTier::kHot);
  }
  store_.EnforceBudget(&samples_);
  return Status::OK();
}

}  // namespace tabula
