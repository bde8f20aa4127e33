/// Incremental maintenance of an initialized sampling cube (see
/// Tabula::Refresh in tabula.h). The paper builds the cube once over a
/// static table; this extension keeps the deterministic guarantee valid
/// as rows are appended, at a cost far below re-initialization:
/// per-finest-cell loss states absorb the new rows, the lattice roll-up
/// reclassifies every cell without touching the table again, and only
/// cells that actually need new samples trigger raw-data collection.
///
/// The work is factored into the four-phase streaming protocol of
/// QueryEngine (PlanIngest → BeginIngest → ExecuteIngest →
/// CommitIngest) so the ingestion layer can run the slow phases under a
/// shared lock while queries keep serving; Refresh() is the batch
/// composition of the four phases.

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/tabula.h"
#include "cube/lattice.h"
#include "sampling/greedy_sampler.h"
#include "sampling/random_sampler.h"
#include "testing/fault_injection.h"

namespace tabula {

namespace {

/// What one classified cell needs from the execute phase.
struct CellWork {
  CuboidMask cuboid = 0;
  bool is_new = false;  // newly iceberg vs existing-but-dirty
  /// The plan already proved (state-based) that the stored sample
  /// exceeds θ — the execute phase resamples without re-scanning raw.
  bool preverified = false;
};

/// Staged state of one in-flight single-instance ingest cycle. Every
/// field below is private to the cycle; nothing query-visible mutates
/// until CommitIngest.
struct TabulaIngestPlan : QueryEngine::IngestPlan {
  KeyEncoder new_encoder;
  /// Finest-cuboid loss states including the pending rows (adopted at
  /// commit when keep_maintenance_state is set).
  FlatHashMap<LossState> staged_finest;
  /// Cells that need verification / (re)sampling in ExecuteIngest.
  FlatHashMap<CellWork> needs_rows;
  /// Cells that dropped below θ (removed at commit).
  std::vector<uint64_t> to_remove;
  /// Raw rows of every cell in `needs_rows`, ascending by key so the
  /// execute phase assigns sample-table ids deterministically.
  std::vector<std::pair<uint64_t, std::vector<RowId>>> cell_rows_sorted;

  /// Redrawn global sample over [0, target_rows) — byte-for-byte the
  /// sample a from-scratch build over the grown table would draw (same
  /// seed, same Serfling size). Adopted at commit when the loss's
  /// accumulated state is reference-independent, so the incrementally
  /// maintained iceberg set converges to the from-scratch one;
  /// reference-dependent losses keep the original sample (their
  /// retained states are bound to it) and `adopt_global` stays false.
  bool adopt_global = false;
  std::vector<RowId> staged_global_rows;
  DatasetView staged_global;
  std::unique_ptr<BoundLoss> staged_bound;

  /// ExecuteIngest outputs.
  std::vector<IcebergCell> staged_new_cells;
  std::vector<std::vector<RowId>> staged_new_samples;
  std::vector<std::pair<uint64_t, std::vector<RowId>>> staged_relinks;
  /// Staged spatial-grid maintenance for the pending rows (grid-enabled
  /// instances only); adopted wholesale at commit.
  bool has_spatial_delta = false;
  SpatialGrid::AppendDelta spatial_delta;
  /// Full-rebuild path: the from-scratch replacement instance.
  std::unique_ptr<Tabula> fresh;
};

}  // namespace

Status Tabula::BuildMaintenanceState() {
  if (maintenance_bound_ == nullptr) {
    TABULA_ASSIGN_OR_RETURN(maintenance_bound_,
                            loss_fn()->Bind(*table_, global_sample_));
  }
  finest_states_.clear();
  DatasetView all(table_);
  BoundLoss* bound = maintenance_bound_.get();
  finest_states_ = GroupAccumulate<LossState>(
      encoder_, packer_, all,
      [bound](LossState* state, RowId row) { bound->Accumulate(state, row); });
  finest_rows_.clear();
  for (size_t r = 0; r < table_->num_rows(); ++r) {
    finest_rows_[packer_.PackRow(encoder_, static_cast<RowId>(r))].push_back(
        static_cast<RowId>(r));
  }
  finest_rows_indexed_ = table_->num_rows();
  return Status::OK();
}

Result<std::unique_ptr<QueryEngine::IngestPlan>> Tabula::PlanIngest() {
  auto owned = std::make_unique<TabulaIngestPlan>();
  TabulaIngestPlan& plan = *owned;

  const size_t n0 = refreshed_rows_;
  const size_t n1 = table_->num_rows();
  if (n1 < n0) {
    return Status::InvalidArgument(
        "base table shrank; Refresh only supports appends");
  }
  plan.target_rows = n1;
  plan.stats.new_rows = n1 - n0;
  if (plan.stats.new_rows == 0) {
    plan.no_op = true;
    return std::unique_ptr<IngestPlan>(std::move(owned));
  }

  // Failure contract: every error return below (including injected
  // faults) happens before any query-visible mutation — fallible work
  // is staged into the plan and committed in one infallible block by
  // CommitIngest — so an abandoned plan leaves the instance answering
  // queries exactly as before, generation unchanged. The only members
  // this phase may touch are maintenance-only (maintenance_bound_,
  // finest_states_), which no Query() path reads.
  //
  // With the tiered store enabled that carve-out no longer holds:
  // Query() promotes cold cells through the finest-row index this
  // phase extends, and the recheck below reads sample slots a
  // concurrent promote may be filling — so the whole phase runs in the
  // store's exclusive section. Disabled-store instances take no lock
  // and behave exactly as before.
  std::unique_lock<std::shared_mutex> store_lock;
  if (store_enabled()) {
    store_lock = std::unique_lock<std::shared_mutex>(*store_mu_);
  }
  TABULA_FAULT_POINT("refresh.begin");

  // Re-make the encoder: appended rows need fresh int64 code maps, and
  // this is where unseen attribute values surface.
  TABULA_ASSIGN_OR_RETURN(
      plan.new_encoder, KeyEncoder::Make(*table_, options_.cubed_attributes));
  bool layout_changed = false;
  for (size_t k = 0; k < plan.new_encoder.num_columns(); ++k) {
    if (plan.new_encoder.Cardinality(k) != encoder_.Cardinality(k)) {
      layout_changed = true;
      break;
    }
  }
  if (layout_changed) {
    // A new attribute value shifts the packed-key layout: every stored
    // key would be stale. ExecuteIngest rebuilds from scratch; the
    // dirty set stays empty, which staleness tagging reads as "every
    // cell is dirty".
    plan.full_rebuild = true;
    plan.stats.full_rebuild = true;
    return std::unique_ptr<IngestPlan>(std::move(owned));
  }
  // Redraw the global sample over the grown table exactly as a
  // from-scratch Initialize would (same seed, same Serfling size).
  // When the loss's accumulated state is reference-independent
  // (StateDependsOnReference() == false — mean, regression, top-k),
  // the retained finest states stay valid under the new binding, so
  // classification below runs against the fresh sample and the
  // incrementally maintained iceberg set is IDENTICAL to a
  // from-scratch build's (the ingest_diff_test contract), not merely
  // θ-bounded. Reference-dependent losses (min-distance) would need a
  // full re-accumulation to rebind, so they keep the original sample;
  // the θ guarantee holds either way.
  if (!loss_fn()->StateDependsOnReference()) {
    // The current sample is itself the bottom-k of [0, n0) — Initialize
    // and every adopted redraw use this same seed and size.
    plan.staged_global_rows = ExtendBottomKSample(
        *table_, global_sample_rows_, n0, n1,
        SerflingSampleSize(options_.serfling_epsilon,
                           options_.serfling_delta),
        options_.seed);
    plan.staged_global = DatasetView(table_, plan.staged_global_rows);
    TABULA_ASSIGN_OR_RETURN(plan.staged_bound,
                            loss_fn()->Bind(*table_, plan.staged_global));
    plan.adopt_global = true;
  }
  const BoundLoss* bound = plan.staged_bound.get();
  if (bound == nullptr) {
    if (maintenance_bound_ == nullptr) {
      TABULA_ASSIGN_OR_RETURN(maintenance_bound_,
                              loss_fn()->Bind(*table_, global_sample_));
    }
    bound = maintenance_bound_.get();
  }

  // Lazily build the finest-state map when Initialize didn't keep it
  // (one full accumulation pass; kept for subsequent refreshes). Safe
  // to persist before the commit point: it only describes rows
  // [0, n0), which matches refreshed_rows_ whether or not this cycle
  // completes. The old and new encoders agree on those rows (appends
  // never re-code existing values; the layout check above passed).
  if (finest_states_.empty()) {
    std::vector<RowId> old_rows(n0);
    for (size_t i = 0; i < n0; ++i) old_rows[i] = static_cast<RowId>(i);
    DatasetView old_view(table_, std::move(old_rows));
    finest_states_ = GroupAccumulate<LossState>(
        plan.new_encoder, packer_, old_view,
        [bound](LossState* state, RowId row) {
          bound->Accumulate(state, row);
        });
  }

  // Extend the finest-cell row index over the pending rows (and, after
  // a Load or with keep_maintenance_state off, over the whole table).
  // Safe before the commit point: the index is a pure function of the
  // append-only prefix it covers, and layout changes took the
  // full-rebuild exit above, so old and new encoders agree.
  for (size_t r = finest_rows_indexed_; r < n1; ++r) {
    uint64_t key = packer_.PackRow(plan.new_encoder, static_cast<RowId>(r));
    finest_rows_[key].push_back(static_cast<RowId>(r));
  }
  finest_rows_indexed_ = n1;

  // 1. Fold the appended rows into a STAGED copy of the finest states
  //    (committed only once all fallible work succeeded).
  plan.staged_finest = finest_states_;
  FlatHashSet dirty_finest;
  for (size_t r = n0; r < n1; ++r) {
    uint64_t key = packer_.PackRow(plan.new_encoder, static_cast<RowId>(r));
    bound->Accumulate(&plan.staged_finest[key], static_cast<RowId>(r));
    dirty_finest.Insert(key);
  }

  // 2. Roll the states up the lattice (no table scan) and reclassify.
  //    Parents fold in slot order; layouts are deterministic, so every
  //    ordering derived below is thread-count independent.
  Lattice lattice(options_.cubed_attributes.size());
  const size_t n_attrs = lattice.num_attributes();
  std::vector<FlatHashMap<LossState>> maps(lattice.num_cuboids());
  std::vector<FlatHashSet> dirty(lattice.num_cuboids());
  maps[lattice.finest()] = plan.staged_finest;  // copy: roll-up consumes it
  dirty[lattice.finest()] = std::move(dirty_finest);
  for (CuboidMask mask : lattice.TopDownOrder()) {
    if (mask == lattice.finest()) continue;
    size_t j = 0;
    while (j < n_attrs && (mask & (CuboidMask{1} << j))) ++j;
    CuboidMask parent = mask | (CuboidMask{1} << j);
    FlatHashMap<LossState>& my_map = maps[mask];
    my_map.reserve(maps[parent].size());
    maps[parent].ForEach([&](uint64_t key, const LossState& state) {
      uint64_t rolled = packer_.WithNull(key, j);
      auto [slot, inserted] = my_map.TryEmplace(rolled);
      if (inserted) {
        *slot = state;
      } else {
        slot->Merge(state);
      }
    });
    for (uint64_t key : dirty[parent].SortedKeys()) {
      dirty[mask].Insert(packer_.WithNull(key, j));
    }
  }

  // Classify the work per cuboid. Drops are only recorded here; the
  // cube itself mutates in the commit block.
  struct Recheck {
    uint64_t key = 0;
    CuboidMask cuboid = 0;
    LossState state;
  };
  std::vector<Recheck> rechecks;
  for (size_t m = 0; m < lattice.num_cuboids(); ++m) {
    CuboidMask mask = static_cast<CuboidMask>(m);
    maps[m].ForEach([&](uint64_t key, const LossState& state) {
      bool iceberg = bound->Finalize(state) > options_.threshold;
      const IcebergCell* existing = cube_.Find(key);
      if (iceberg && existing == nullptr) {
        plan.needs_rows[key] = CellWork{mask, /*is_new=*/true};
        ++plan.stats.new_iceberg_cells;
      } else if (!iceberg && existing != nullptr) {
        // The global sample now covers this cell (state says loss <= θ):
        // serve it from the global sample again.
        plan.to_remove.push_back(key);
        ++plan.stats.dropped_iceberg_cells;
      } else if (iceberg && existing != nullptr && dirty[m].Contains(key)) {
        rechecks.push_back({key, mask, state});
      }
    });
  }

  // Existing iceberg cells the pending rows touched: does the stored
  // sample still meet θ against the grown cell? For reference-
  // independent losses Bind(table, sample)->Finalize(state) IS
  // loss(raw, sample) (see LossFunction::StateDependsOnReference), so
  // the check runs off the rolled-up state without touching a single
  // raw row — the common steady-state cycle (sample still good) does
  // no table scan at all. Reference-dependent losses defer to the
  // raw-scan recheck in ExecuteIngest.
  const bool state_verify = !loss_fn()->StateDependsOnReference();
  for (Recheck& rc : rechecks) {
    const IcebergCell* dirty_cell = cube_.Find(rc.key);
    TABULA_CHECK(dirty_cell != nullptr);
    if (store_enabled() && !store_.resident(dirty_cell->sample_id)) {
      // A dirty kCold cell has no resident sample to verify (and a
      // spill record, if any, predates these rows): resample outright.
      // This is the only tier transition the cycle makes before commit,
      // and it is cold→warm via the staged relink, never a loss of
      // state.
      plan.needs_rows[rc.key] =
          CellWork{rc.cuboid, /*is_new=*/false, /*preverified=*/true};
      continue;
    }
    if (!state_verify) {
      plan.needs_rows[rc.key] = CellWork{rc.cuboid, /*is_new=*/false};
      continue;
    }
    const IcebergCell* cell = dirty_cell;
    DatasetView rep(table_, samples_.sample(cell->sample_id));
    TABULA_ASSIGN_OR_RETURN(std::unique_ptr<BoundLoss> cell_bound,
                            loss_fn()->Bind(*table_, rep));
    ++plan.stats.rechecked_cells;
    if (cell_bound->Finalize(rc.state) <= options_.threshold) continue;
    plan.needs_rows[rc.key] =
        CellWork{rc.cuboid, /*is_new=*/false, /*preverified=*/true};
  }

  if (!plan.needs_rows.empty()) {
    // 3. Gather the raw rows of every cell that needs (re)sampling from
    //    the finest-cell row index: a cell's rows are the union of the
    //    finest groups that roll up into it. No table scan — the pass
    //    is O(finest cells × affected cuboids) plus the copied rows.
    std::vector<CuboidMask> affected;
    plan.needs_rows.ForEach([&](uint64_t, const CellWork& work) {
      affected.push_back(work.cuboid);
    });
    std::sort(affected.begin(), affected.end());
    affected.erase(std::unique(affected.begin(), affected.end()),
                   affected.end());
    std::vector<std::vector<size_t>> rolled_attrs(affected.size());
    for (size_t a = 0; a < affected.size(); ++a) {
      for (size_t j = 0; j < n_attrs; ++j) {
        if (!(affected[a] & (CuboidMask{1} << j))) rolled_attrs[a].push_back(j);
      }
    }
    FlatHashMap<std::vector<RowId>> cell_rows;
    finest_rows_.ForEach([&](uint64_t fkey, const std::vector<RowId>& rows) {
      for (size_t a = 0; a < affected.size(); ++a) {
        uint64_t key = fkey;
        for (size_t j : rolled_attrs[a]) key = packer_.WithNull(key, j);
        const CellWork* work = plan.needs_rows.Find(key);
        if (work != nullptr && work->cuboid == affected[a]) {
          std::vector<RowId>& dst = cell_rows[key];
          dst.insert(dst.end(), rows.begin(), rows.end());
        }
      }
    });
    plan.cell_rows_sorted = cell_rows.ExtractSorted();
    // Groups concatenate in index order; ascending row order keeps the
    // greedy sampler's candidate sequence deterministic.
    for (auto& [key, rows] : plan.cell_rows_sorted) {
      std::sort(rows.begin(), rows.end());
    }
  }

  // Stage the spatial grid's absorption of the pending rows (fallible,
  // shared-lock safe: PlanAppend is const and the delta is private to
  // the plan until CommitIngest adopts it). Rows outside the build
  // extent clamp into edge cells; the delta carries the updated data
  // extrema so virtually-unbounded bbox sides stay correct.
  if (grid_.present()) {
    TABULA_ASSIGN_OR_RETURN(
        plan.spatial_delta,
        grid_.PlanAppend(SpatialContext(), static_cast<RowId>(n0),
                         static_cast<RowId>(n1)));
    plan.has_spatial_delta = true;
  }

  // The dirty set: every cell holding a pending row (its served answer
  // summarizes data that excludes those rows, so it must read stale
  // even when re-verification will keep its sample) plus every cell
  // whose classification flips this cycle (possible without being
  // touched: the global-sample redraw moves the loss reference).
  for (size_t m = 0; m < lattice.num_cuboids(); ++m) {
    for (uint64_t key : dirty[m].SortedKeys()) {
      plan.dirty_keys.push_back(key);
    }
  }
  plan.needs_rows.ForEach([&](uint64_t key, const CellWork&) {
    plan.dirty_keys.push_back(key);
  });
  plan.dirty_keys.insert(plan.dirty_keys.end(), plan.to_remove.begin(),
                         plan.to_remove.end());
  return std::unique_ptr<IngestPlan>(std::move(owned));
}

void Tabula::BeginIngest(IngestPlan* plan) {
  auto* p = static_cast<TabulaIngestPlan*>(plan);
  if (p->no_op) return;
  // Publish the dirty set for precise staleness tagging. A replanned
  // cycle (after an execute failure) recomputes a superset over the
  // same base, so replacing — not merging — is correct. Full rebuilds
  // publish an empty set: every cell reads as stale while rows pend.
  pending_dirty_.clear();
  for (uint64_t key : p->dirty_keys) pending_dirty_.Insert(key);
}

Status Tabula::ExecuteIngest(IngestPlan* plan) {
  auto* p = static_cast<TabulaIngestPlan*>(plan);
  if (p->no_op) return Status::OK();
  if (p->full_rebuild) {
    TabulaOptions opts = options_;
    TABULA_ASSIGN_OR_RETURN(p->fresh, Initialize(*table_, std::move(opts)));
    // The rebuild folded everything visible at its start, which may
    // exceed the planned target if appends landed in between.
    p->target_rows = p->fresh->refreshed_rows_;
    return Status::OK();
  }

  // Verify / (re)sample into the staging area, in ascending key order
  // so sample-table ids assign deterministically. With the store
  // enabled the reads of cube_/samples_ below race with Query()'s lazy
  // promotes, so they run under the store's shared section (promotes
  // hold it exclusively).
  std::shared_lock<std::shared_mutex> store_lock;
  if (store_enabled()) {
    store_lock = std::shared_lock<std::shared_mutex>(*store_mu_);
  }
  GreedySamplerOptions sampler_opts = options_.sampler;
  sampler_opts.seed = options_.seed;
  GreedySampler sampler(loss_fn(), options_.threshold, sampler_opts);
  for (auto& [key, rows] : p->cell_rows_sorted) {
    const CellWork& work = *p->needs_rows.Find(key);
    DatasetView raw(table_, rows);
    TABULA_FAULT_POINT("refresh.sample");
    if (work.is_new) {
      TABULA_ASSIGN_OR_RETURN(std::vector<RowId> sample, sampler.Sample(raw));
      IcebergCell cell;
      cell.key = key;
      cell.cuboid = work.cuboid;
      p->staged_new_cells.push_back(std::move(cell));
      p->staged_new_samples.push_back(std::move(sample));
    } else {
      const IcebergCell* cell = cube_.Find(key);
      TABULA_CHECK(cell != nullptr);
      bool needs_sample = work.preverified;
      if (!needs_sample && store_enabled() &&
          !store_.resident(cell->sample_id)) {
        // Evicted between plan and execute (a concurrent promote's
        // budget enforcement): nothing resident to verify — resample.
        needs_sample = true;
      }
      if (!needs_sample) {
        // Reference-dependent loss: the plan could not verify off the
        // state, so check the stored sample against the raw rows here.
        ++p->stats.rechecked_cells;
        DatasetView rep(table_, samples_.sample(cell->sample_id));
        TABULA_ASSIGN_OR_RETURN(double loss, loss_fn()->Loss(raw, rep));
        needs_sample = loss > options_.threshold;
      }
      if (needs_sample) {
        TABULA_ASSIGN_OR_RETURN(std::vector<RowId> sample,
                                sampler.Sample(raw));
        p->staged_relinks.emplace_back(key, std::move(sample));
        ++p->stats.resampled_cells;
      }
    }
  }
  return Status::OK();
}

Status Tabula::CommitIngest(std::unique_ptr<IngestPlan> plan,
                            RefreshStats* stats) {
  auto* p = static_cast<TabulaIngestPlan*>(plan.get());
  if (p->no_op) {
    if (stats != nullptr) *stats = p->stats;
    return Status::OK();
  }
  if (p->full_rebuild) {
    if (p->fresh == nullptr) {
      return Status::Internal(
          "CommitIngest before ExecuteIngest on a full-rebuild plan");
    }
    // The generation counter and registered listeners survive the
    // wholesale move-assignment — a rebuild is a cube mutation like any
    // other.
    auto listeners = std::move(refresh_listeners_);
    uint64_t next_id = next_listener_id_;
    uint64_t generation = generation_;
    *this = std::move(*p->fresh);
    refresh_listeners_ = std::move(listeners);
    next_listener_id_ = next_id;
    generation_ = generation + 1;
    pending_dirty_.clear();
    if (stats != nullptr) *stats = p->stats;
    NotifyRefreshListeners();
    return Status::OK();
  }

  // ---- Commit point: nothing below can fail. ----
  // Tier transitions are commit-phase-only: the store's bookkeeping
  // mutates inside this one exclusive section (and Demote never fails),
  // so an abandoned cycle leaves every tier untouched.
  std::unique_lock<std::shared_mutex> store_lock;
  if (store_enabled()) {
    store_lock = std::unique_lock<std::shared_mutex>(*store_mu_);
  }
  // Sample ids whose cube references this commit drops (removed cells
  // and relink victims); orphaned slots release their bytes below.
  std::vector<uint32_t> released;
  if (store_enabled()) {
    released.reserve(p->to_remove.size() + p->staged_relinks.size());
    for (uint64_t key : p->to_remove) {
      const IcebergCell* cell = cube_.Find(key);
      if (cell != nullptr && cell->sample_id != kInvalidSampleId) {
        released.push_back(cell->sample_id);
      }
    }
  }
  encoder_ = std::move(p->new_encoder);
  if (p->adopt_global) {
    // Adopt the redrawn global sample (and the loss bound to it) the
    // plan classified against — non-iceberg cells now answer from the
    // same sample a from-scratch build would serve.
    global_sample_rows_ = std::move(p->staged_global_rows);
    global_sample_ = std::move(p->staged_global);
    maintenance_bound_ = std::move(p->staged_bound);
    stats_.global_sample_tuples = global_sample_.size();
    stats_.global_sample_bytes = global_sample_.size() * BytesPerTuple();
  }
  for (uint64_t key : p->to_remove) cube_.Remove(key);
  const uint64_t commit_tuple_bytes = store_enabled() ? BytesPerTuple() : 0;
  for (size_t i = 0; i < p->staged_new_cells.size(); ++i) {
    uint64_t sample_tuples = p->staged_new_samples[i].size();
    p->staged_new_cells[i].sample_id =
        samples_.Add(std::move(p->staged_new_samples[i]));
    if (store_enabled()) {
      store_.Track(p->staged_new_cells[i].sample_id,
                   sample_tuples * commit_tuple_bytes, SampleTier::kWarm);
    }
    cube_.Add(std::move(p->staged_new_cells[i]));
  }
  for (auto& [key, sample] : p->staged_relinks) {
    IcebergCell* cell = cube_.FindMutable(key);
    TABULA_CHECK(cell != nullptr);
    if (store_enabled() && cell->sample_id != kInvalidSampleId) {
      released.push_back(cell->sample_id);
    }
    uint64_t sample_tuples = sample.size();
    cell->sample_id = samples_.Add(std::move(sample));
    if (store_enabled()) {
      // A resampled cell re-enters at kWarm whatever its old tier was.
      store_.Track(cell->sample_id, sample_tuples * commit_tuple_bytes,
                   SampleTier::kWarm);
    }
  }
  if (store_enabled()) {
    for (uint32_t id : released) {
      if (store_.ReleaseRef(id) == 0) {
        samples_.TakeSample(id);  // free the orphaned slot's bytes
        store_.Untrack(id);
      }
    }
    store_.EnforceBudget(&samples_);
  }
  if (p->has_spatial_delta) {
    grid_.CommitAppend(std::move(p->spatial_delta));
    stats_.spatial_sample_tuples = grid_.SampleTuples();
  }
  refreshed_rows_ = p->target_rows;
  if (options_.keep_maintenance_state) {
    finest_states_ = std::move(p->staged_finest);
  } else {
    finest_states_.clear();  // rebuilt lazily next time
    if (!store_enabled()) {
      // The store's lazy promotes gather through the finest-row index,
      // so tiered instances keep it across cycles (it is a pure
      // function of the append-only prefix, already extended to
      // target_rows by PlanIngest).
      finest_rows_.clear();
      finest_rows_indexed_ = 0;
    }
  }
  uint64_t tuple_bytes = BytesPerTuple();
  stats_.cube_table_bytes = cube_.MemoryBytes();
  stats_.sample_table_bytes = samples_.MemoryBytes(tuple_bytes);
  stats_.iceberg_cells = cube_.size();
  pending_dirty_.clear();
  ++generation_;
  if (stats != nullptr) *stats = p->stats;
  NotifyRefreshListeners();
  return Status::OK();
}

Status Tabula::Refresh(RefreshStats* stats) {
  Stopwatch timer;
  RefreshStats local;
  RefreshStats* out = stats != nullptr ? stats : &local;
  *out = RefreshStats{};

  // One span per Refresh(); inert (no cost beyond one branch) without
  // an enabled tracer. Ended via `finish` on every success path so the
  // span-derived duration and RefreshStats::millis agree when traced.
  Span span;
  if (options_.tracer != nullptr) {
    span = options_.tracer->StartSpan("tabula.refresh");
  }
  auto finish = [&]() {
    if (span.recording()) {
      span.SetAttribute("new_rows", out->new_rows);
      span.SetAttribute("new_iceberg_cells", out->new_iceberg_cells);
      span.SetAttribute("dropped_iceberg_cells", out->dropped_iceberg_cells);
      span.SetAttribute("rechecked_cells", out->rechecked_cells);
      span.SetAttribute("resampled_cells", out->resampled_cells);
      span.SetAttribute("full_rebuild", out->full_rebuild);
      out->millis = span.End();
    } else {
      out->millis = timer.ElapsedMillis();
    }
  };

  // Batch maintenance is exactly the streaming protocol run
  // back-to-back under the caller's one exclusive section.
  TABULA_ASSIGN_OR_RETURN(std::unique_ptr<IngestPlan> plan, PlanIngest());
  if (plan->no_op) {
    out->new_rows = 0;
    finish();
    return Status::OK();
  }
  BeginIngest(plan.get());
  TABULA_RETURN_NOT_OK(ExecuteIngest(plan.get()));
  TABULA_RETURN_NOT_OK(CommitIngest(std::move(plan), out));
  finish();
  return Status::OK();
}

}  // namespace tabula
