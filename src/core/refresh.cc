/// Incremental maintenance of an initialized sampling cube (see the
/// Tabula class comment in tabula.h). The paper builds the cube once over a
/// static table; this extension keeps the deterministic guarantee valid
/// as rows are appended, at a cost far below re-initialization: the
/// finest-cell index's loss states absorb the new rows, the dry run's
/// lattice roll-up reclassifies every cell without touching the table
/// again, and only cells that actually need new samples gather raw rows.
///
/// The work is factored into the four-phase streaming protocol of
/// QueryEngine (PlanIngest → BeginIngest → ExecuteIngest →
/// CommitIngest) so the ingestion layer can run the slow phases under a
/// shared lock while queries keep serving. EngineFront writes the
/// phases' prologue and commit tail and composes Refresh() from them;
/// this file holds the single-instance bodies.

#include <memory>
#include <utility>
#include <vector>

#include "common/flat_hash.h"
#include "core/tabula.h"
#include "cube/lattice.h"
#include "sampling/theta_restore.h"
#include "testing/fault_injection.h"

namespace tabula {

namespace {

/// What one classified cell needs from the execute phase.
struct CellWork {
  CuboidMask cuboid = 0;
  bool is_new = false;  // newly iceberg vs existing-but-dirty
  /// The plan already proved (state-based) that the stored sample
  /// exceeds θ, or found no bytes to check — the execute phase
  /// resamples without re-scanning raw.
  bool preverified = false;
};

}  // namespace

/// Staged state of one in-flight single-instance ingest cycle. Every
/// field below is private to the cycle; nothing query-visible mutates
/// until CommitIngest.
struct Tabula::IngestState : StagedIngest {
  /// The finest-cell index's states including the pending rows, parallel
  /// to its keys (adopted at commit when the engine keeps the index).
  std::vector<LossState> staged_states;
  /// Cells that need verification / (re)sampling in ExecuteIngest.
  FlatHashMap<CellWork> needs_rows;
  /// For each dirty cell the execute phase re-checks against its raw
  /// rows (a reference-dependent loss), the bytes it serves, taken by
  /// the plan.
  FlatHashMap<std::vector<RowId>> kept_samples;
  /// Cells that dropped below θ (removed at commit).
  std::vector<uint64_t> to_remove;
  /// The keys of `needs_rows` ascending, so the execute phase assigns
  /// sample-table ids deterministically, and each cell's raw rows.
  std::vector<uint64_t> cell_keys;
  std::vector<std::vector<RowId>> cell_rows;
  /// The loss bound to the redrawn global sample (adopted with it).
  std::unique_ptr<BoundLoss> staged_bound;

  /// ExecuteIngest outputs.
  std::vector<IcebergCell> staged_new_cells;
  std::vector<std::vector<RowId>> staged_new_samples;
  std::vector<std::pair<uint64_t, std::vector<RowId>>> staged_relinks;
  /// Staged spatial-grid maintenance for the pending rows (grid-enabled
  /// instances only); adopted wholesale at commit.
  bool has_spatial_delta = false;
  SpatialGrid::AppendDelta spatial_delta;
};

std::unique_ptr<EngineFront::StagedIngest> Tabula::NewIngestPlan() const {
  return std::make_unique<IngestState>();
}

Status Tabula::PlanChanges(StagedIngest* staged_plan) {
  IngestState& plan = *static_cast<IngestState*>(staged_plan);
  const size_t n0 = refreshed_rows_;
  const size_t n1 = plan.target_rows;
  // The only members this phase may touch are maintenance-only
  // (maintenance_bound_, the finest-cell index), which no Query() path
  // reads. With the tiered store enabled that carve-out no longer
  // holds: Query() promotes cold cells through the finest-cell index
  // this phase extends, and the recheck below reads sample slots a
  // concurrent promote may be filling — so the rest of the phase runs
  // in the store's exclusive section. Disabled-store instances take no
  // lock.
  std::unique_lock<std::shared_mutex> store_lock;
  if (store_enabled()) {
    store_lock = std::unique_lock<std::shared_mutex>(*store_mu_);
  }
  const BoundLoss* bound = nullptr;
  if (plan.adopt_global) {
    TABULA_ASSIGN_OR_RETURN(plan.staged_bound,
                            loss_fn()->Bind(*table_, plan.staged_global));
    bound = plan.staged_bound.get();
  } else {
    if (maintenance_bound_ == nullptr) {
      TABULA_ASSIGN_OR_RETURN(maintenance_bound_,
                              loss_fn()->Bind(*table_, global_sample_));
    }
    bound = maintenance_bound_.get();
  }

  // The index must cover the committed prefix [0, n0): an engine that
  // does not keep it rebuilds it here with the dry run's fold (kept for
  // an abandoned cycle's retry, dropped again at commit). Then the
  // pending rows join it in place: rows are append-only, readers cap
  // them at the committed prefix, and layout changes took the
  // full-rebuild exit in the prologue, so old and new encoders agree.
  if (finest_.num_rows < n0) {
    TABULA_RETURN_NOT_OK(RebuildFinestIndex(plan.new_encoder, nullptr));
  }
  AppendFinestRows(plan.new_encoder, packer_, n1, &finest_);

  // 1. Fold the appended rows, in row order, into a STAGED copy of the
  //    finest states (committed only once all fallible work succeeded),
  //    and mark every cell holding one — full-width keys are unique
  //    across cuboids, so one set holds them all.
  Lattice lattice(options_.cubed_attributes.size());
  std::vector<KeyPacker::MaskTransform> roll_up(lattice.num_cuboids());
  for (size_t m = 0; m < roll_up.size(); ++m) {
    roll_up[m] = packer_.TransformFor(static_cast<CuboidMask>(m));
  }
  GroupedStates<LossState> staged{finest_.keys, finest_.states};
  FlatHashSet dirty;
  for (size_t r = n0; r < n1; ++r) {
    uint64_t key = packer_.PackRow(plan.new_encoder, static_cast<RowId>(r));
    const size_t cell = FindFinestCell(finest_, key);
    TABULA_CHECK(cell < staged.states.size());  // indexed just above
    bound->Accumulate(&staged.states[cell], static_cast<RowId>(r));
    for (const auto& t : roll_up) dirty.Insert((key & t.keep) | t.set);
  }

  // 2. Roll the states up the lattice exactly as the dry run does (no
  //    table scan) and reclassify.
  std::vector<GroupedStates<LossState>> maps =
      RollUpCuboids(std::move(staged), packer_, lattice);

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
    for (size_t i = 0; i < maps[m].keys.size(); ++i) {
      const uint64_t key = maps[m].keys[i];
      const LossState& state = maps[m].states[i];
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
      } else if (iceberg && existing != nullptr && dirty.Contains(key)) {
        rechecks.push_back({key, mask, state});
      }
    }
  }
  plan.staged_states = std::move(maps[lattice.finest()].states);

  // Existing iceberg cells the pending rows touched: does the stored
  // sample still meet θ against the grown cell? For reference-
  // independent losses Bind(table, sample)->Finalize(state) IS
  // loss(raw, sample) (see LossFunction::StateDependsOnReference), so
  // the check runs off the rolled-up state without touching a single
  // raw row — the common steady-state cycle (sample still good) does
  // no table scan at all. Reference-dependent losses defer to the
  // raw-scan recheck in ExecuteIngest, over the bytes taken here.
  const bool state_verify = !loss_fn()->StateDependsOnReference();
  // A dirty cell keeps a verified sample only where the store can
  // restore its bytes after a demote: with the store off nothing is
  // demoted, and a spill file restores them. In drop mode a promote
  // re-draws over the grown rows, so a kept sample would serve other
  // bytes once demoted; re-draw it now, as that promote would.
  const bool drop_mode = store_enabled() && options_.store.spill_path.empty();
  const ThetaContext ctx = theta_context();
  for (Recheck& rc : rechecks) {
    const IcebergCell* dirty_cell = cube_.Find(rc.key);
    TABULA_CHECK(dirty_cell != nullptr);
    const uint32_t id = dirty_cell->sample_id;
    // The bytes the cell serves: its slot when resident, else the
    // sole-owner spill record a promote would restore. A kept cold cell
    // stays cold, its record checked against the grown cell, so which
    // cells a cycle re-draws does not depend on which were resident.
    // Without bytes to check (drop mode, no record, a shared slot or a
    // failed read) the cell is re-drawn, cold→warm via the staged
    // relink — never a loss of state.
    std::vector<RowId> restored;
    const std::vector<RowId>* kept = nullptr;
    if (!drop_mode) {
      if (!store_enabled() || store_.resident(id)) {
        kept = &samples_.sample(id);
      } else if (store_.has_spill(id) && store_.refs(id) == 1) {
        Result<std::vector<RowId>> read = store_.ReadSpilled(id);
        if (read.ok()) {
          restored = std::move(read).value();
          kept = &restored;
        }
      }
    }
    if (kept == nullptr) {
      plan.needs_rows[rc.key] =
          CellWork{rc.cuboid, /*is_new=*/false, /*preverified=*/true};
      continue;
    }
    if (!state_verify) {
      plan.needs_rows[rc.key] = CellWork{rc.cuboid, /*is_new=*/false};
      plan.kept_samples[rc.key] = *kept;
      continue;
    }
    ++plan.stats.rechecked_cells;
    TABULA_ASSIGN_OR_RETURN(bool within,
                            WithinTheta(ctx, *kept, &rc.state, DatasetView()));
    if (within) continue;
    plan.needs_rows[rc.key] =
        CellWork{rc.cuboid, /*is_new=*/false, /*preverified=*/true};
  }

  if (!plan.needs_rows.empty()) {
    // 3. Gather the raw rows of every cell that needs (re)sampling from
    //    the finest-cell index — no table scan. Ascending key order lets
    //    the execute phase assign sample-table ids deterministically.
    plan.cell_keys = plan.needs_rows.SortedKeys();
    plan.cell_rows = GatherCellRows({&finest_}, packer_, plan.cell_keys,
                                    static_cast<RowId>(n1));
  }

  // Stage the spatial grid's absorption of the pending rows (fallible,
  // shared-lock safe: PlanAppend is const and the delta is private to
  // the plan until CommitIngest adopts it). Rows outside the build
  // extent clamp into edge cells; the delta carries the updated data
  // extrema so virtually-unbounded bbox sides stay correct.
  if (grid_.present()) {
    TABULA_ASSIGN_OR_RETURN(
        plan.spatial_delta,
        grid_.PlanAppend(theta_context(), static_cast<RowId>(n0),
                         static_cast<RowId>(n1)));
    plan.has_spatial_delta = true;
  }

  // The dirty set: every cell holding a pending row (its served answer
  // summarizes data that excludes those rows, so it must read stale
  // even when re-verification will keep its sample) plus every cell
  // whose classification flips this cycle (possible without being
  // touched: the global-sample redraw moves the loss reference).
  plan.dirty_keys = dirty.SortedKeys();
  plan.needs_rows.ForEach([&](uint64_t key, const CellWork&) {
    plan.dirty_keys.push_back(key);
  });
  plan.dirty_keys.insert(plan.dirty_keys.end(), plan.to_remove.begin(),
                         plan.to_remove.end());
  return Status::OK();
}

Result<std::unique_ptr<EngineFront>> Tabula::Rebuild() const {
  TABULA_ASSIGN_OR_RETURN(std::unique_ptr<Tabula> fresh,
                          Initialize(*table_, options_));
  return std::unique_ptr<EngineFront>(std::move(fresh));
}

Status Tabula::ExecuteChanges(StagedIngest* staged) {
  auto* p = static_cast<IngestState*>(staged);
  // Verify / (re)sample into the staging area, in ascending key order
  // so sample-table ids assign deterministically. The plan took every
  // byte this phase checks, so it reads no cube, sample-table or store
  // state and takes no store lock: lazy promotes run beside it.
  const ThetaContext ctx = theta_context();
  for (size_t c = 0; c < p->cell_keys.size(); ++c) {
    const uint64_t key = p->cell_keys[c];
    const CellWork& work = *p->needs_rows.Find(key);
    DatasetView raw(table_, p->cell_rows[c]);
    TABULA_FAULT_POINT("refresh.sample");
    if (work.is_new) {
      TABULA_ASSIGN_OR_RETURN(std::vector<RowId> sample, Redraw(ctx, raw));
      IcebergCell cell;
      cell.key = key;
      cell.cuboid = work.cuboid;
      p->staged_new_cells.push_back(std::move(cell));
      p->staged_new_samples.push_back(std::move(sample));
    } else {
      bool needs_sample = work.preverified;
      if (!needs_sample) {
        // Reference-dependent loss: the plan could not verify off the
        // state, so check the bytes it took against the raw rows here.
        ++p->stats.rechecked_cells;
        TABULA_ASSIGN_OR_RETURN(
            bool within,
            WithinTheta(ctx, *p->kept_samples.Find(key), nullptr, raw));
        needs_sample = !within;
      }
      if (needs_sample) {
        TABULA_ASSIGN_OR_RETURN(std::vector<RowId> sample, Redraw(ctx, raw));
        p->staged_relinks.emplace_back(key, std::move(sample));
        ++p->stats.resampled_cells;
      }
    }
  }
  return Status::OK();
}

void Tabula::AdoptRebuild(EngineFront&& fresh) {
  *this = std::move(static_cast<Tabula&>(fresh));
}

void Tabula::CommitChanges(StagedIngest* staged) {
  auto* p = static_cast<IngestState*>(staged);
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
  if (p->adopt_global) {
    // The front adopted the redrawn global sample the plan classified
    // against; the loss bound to it comes along — non-iceberg cells now
    // answer from the same sample a from-scratch build would serve.
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
  if (keeps_finest_index()) {
    // The plan staged one state per key of the index it extended; no
    // other plan ran in between.
    TABULA_CHECK(p->staged_states.size() == finest_.keys.size());
    finest_.states = std::move(p->staged_states);
  } else {
    finest_ = FinestIndex();  // the next PlanIngest rebuilds it
  }
  uint64_t tuple_bytes = BytesPerTuple();
  stats_.cube_table_bytes = cube_.MemoryBytes();
  stats_.sample_table_bytes = samples_.MemoryBytes(tuple_bytes);
  stats_.iceberg_cells = cube_.size();
}

}  // namespace tabula
