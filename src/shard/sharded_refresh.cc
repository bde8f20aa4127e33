/// Incremental maintenance of a sharded cube, split into the four-phase
/// streaming-ingestion protocol (see QueryEngine): PlanIngest routes
/// appended rows to their owning shards (hash of the row id, or the
/// smallest shard under range partitioning) and computes the dirty cell
/// set; BeginIngest publishes that set for per-cell staleness tagging;
/// ExecuteIngest rebuilds ONLY the touched shards' units (staged) and
/// re-runs the merge + θ re-verification pass over the mix of rebuilt
/// and untouched units; CommitIngest adopts the staged shards
/// and merged directory. Refresh() composes the phases back-to-back and
/// keeps the single-instance contract: every fallible step is staged,
/// so a failed cycle (including an injected `shard.build` fault) leaves
/// the instance answering queries exactly as before, generation
/// unchanged. K = 1 delegates every phase to the plain engine.

#include <algorithm>
#include <memory>
#include <mutex>
#include <shared_mutex>
#include <utility>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/logging.h"
#include "sampling/random_sampler.h"
#include "shard/sharded_tabula.h"
#include "testing/fault_injection.h"

namespace tabula {

/// Staged state of one in-flight sharded ingest cycle. Declared as a
/// nested type (the Shard/MergeOutput members are private to
/// ShardedTabula) but defined here so the staged layout stays local to
/// this translation unit. Everything in it is private to the cycle
/// until CommitIngest adopts it, so a failure in any phase just drops
/// the plan.
struct ShardedTabula::IngestPlanState : QueryEngine::IngestPlan {
  KeyEncoder new_encoder;
  /// Parent span for the shard.build / merge spans ExecuteIngest emits
  /// (0 = unparented; Refresh() threads its own span through).
  uint64_t parent_span = 0;
  /// Indices of shards that received appended rows.
  std::vector<size_t> touched;
  /// Redrawn global sample over [0, target_rows) — identical to the
  /// one a from-scratch build over the grown table draws (same seed,
  /// same Serfling size). Staged here and adopted at commit when the
  /// loss's state is reference-independent (retained unit states
  /// remain valid under the rebinding); reference-dependent losses
  /// keep the original sample and `adopt_global` stays false.
  bool adopt_global = false;
  std::vector<RowId> staged_global_rows;
  DatasetView staged_global;
  /// Staged replacements of the touched shards: `rows` pre-extended with
  /// the appends at plan time, the unit rebuilt over them in
  /// ExecuteIngest.
  std::vector<Shard> staged;
  MergeOutput merge;
  bool executed = false;
  std::unique_ptr<ShardedTabula> fresh;  ///< full-rebuild path
};

Result<std::unique_ptr<QueryEngine::IngestPlan>> ShardedTabula::PlanIngest() {
  if (single_ != nullptr) return single_->PlanIngest();

  auto owned = std::make_unique<IngestPlanState>();
  IngestPlanState* plan = owned.get();
  const size_t n0 = refreshed_rows_;
  const size_t n1 = table_->num_rows();
  if (n1 < n0) {
    return Status::InvalidArgument(
        "base table shrank; Refresh only supports appends");
  }
  plan->target_rows = n1;
  plan->stats.new_rows = n1 - n0;
  if (n1 == n0) {
    plan->no_op = true;
    return std::unique_ptr<IngestPlan>(std::move(owned));
  }

  TABULA_FAULT_POINT("refresh.begin");

  // Layout check, same as the plain engine: an unseen attribute value
  // shifts the packed-key layout, and every stored key — in every
  // shard — would be stale. Rebuild the whole sharded cube (dirty set
  // stays empty ⇒ queries tag every answer conservatively stale).
  TABULA_ASSIGN_OR_RETURN(
      plan->new_encoder,
      KeyEncoder::Make(*table_, options_.base.cubed_attributes));
  for (size_t k = 0; k < plan->new_encoder.num_columns(); ++k) {
    if (plan->new_encoder.Cardinality(k) != encoder_.Cardinality(k)) {
      plan->full_rebuild = true;
      plan->stats.full_rebuild = true;
      return std::unique_ptr<IngestPlan>(std::move(owned));
    }
  }

  // Redraw the global sample over the grown table exactly as a
  // from-scratch build would (see the plain engine's PlanIngest for
  // the full argument): with a reference-independent loss state the
  // retained per-shard states stay valid under the new binding, so
  // the re-merge classifies against the fresh sample and the merged
  // iceberg set converges to the from-scratch one.
  if (!options_.base.effective_loss()->StateDependsOnReference()) {
    const TabulaOptions& base = options_.base;
    plan->staged_global_rows = ExtendBottomKSample(
        *table_, global_sample_rows_, n0, n1,
        SerflingSampleSize(base.serfling_epsilon, base.serfling_delta),
        base.seed);
    plan->staged_global = DatasetView(table_, plan->staged_global_rows);
    plan->adopt_global = true;
  }

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
  return std::unique_ptr<IngestPlan>(std::move(owned));
}

void ShardedTabula::BeginIngest(IngestPlan* plan) {
  if (single_ != nullptr) {
    single_->BeginIngest(plan);
    return;
  }
  auto* p = static_cast<IngestPlanState*>(plan);
  if (p->no_op) return;
  // Replace, not merge: a re-plan after a failed cycle recomputes a
  // superset of any earlier dirty set (refreshed_rows_ only moves at
  // commit). A full rebuild publishes an empty set — coarse staleness.
  pending_dirty_.clear();
  for (uint64_t key : p->dirty_keys) pending_dirty_.Insert(key);
}

Status ShardedTabula::ExecuteIngest(IngestPlan* plan) {
  if (single_ != nullptr) return single_->ExecuteIngest(plan);
  auto* p = static_cast<IngestPlanState*>(plan);
  if (p->no_op) return Status::OK();

  Tracer* tracer = options_.base.tracer;

  if (p->full_rebuild) {
    TABULA_ASSIGN_OR_RETURN(p->fresh, Initialize(*table_, options_));
    p->target_rows = p->fresh->refreshed_rows_;
    return Status::OK();
  }

  // Rebuild ONLY the touched shards' units, into the staged shards
  // (parallel, one unit per grain, like Initialize). The staged encoder
  // codes the appended rows; identical layout means identical keys for
  // rows the member encoder also covers.
  const DatasetView& ref =
      p->adopt_global ? p->staged_global : global_sample_;
  const std::vector<RowId>& ref_rows =
      p->adopt_global ? p->staged_global_rows : global_sample_rows_;
  std::vector<Shard*> staged(p->staged.size());
  for (size_t i = 0; i < staged.size(); ++i) staged[i] = &p->staged[i];
  std::vector<double> build_millis;
  TABULA_RETURN_NOT_OK(BuildUnits(staged, p->new_encoder, ref_rows, tracer,
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
  p->executed = true;
  return Status::OK();
}

Status ShardedTabula::CommitIngest(std::unique_ptr<IngestPlan> plan,
                                   RefreshStats* stats) {
  if (single_ != nullptr) {
    return single_->CommitIngest(std::move(plan), stats);
  }
  auto* p = static_cast<IngestPlanState*>(plan.get());
  if (p->no_op) {
    if (stats != nullptr) *stats = p->stats;
    return Status::OK();
  }
  if (p->full_rebuild) {
    if (p->fresh == nullptr) {
      return Status::Internal(
          "CommitIngest before ExecuteIngest on a full-rebuild plan");
    }
    // Member-wise adoption instead of whole-object move: the metrics
    // registry (mutexes) must stay put, and listeners + generation
    // survive a rebuild like any other cube mutation. The exclusive
    // store lock fences the swap against in-flight override promotes.
    std::unique_lock<std::shared_mutex> store_lock(*store_mu_,
                                                   std::defer_lock);
    if (store_enabled()) store_lock.lock();
    ShardedTabula& fresh = *p->fresh;
    encoder_ = std::move(fresh.encoder_);
    packer_ = std::move(fresh.packer_);
    lattice_ = fresh.lattice_;
    global_sample_rows_ = std::move(fresh.global_sample_rows_);
    global_sample_ = std::move(fresh.global_sample_);
    shards_ = std::move(fresh.shards_);
    merged_ = std::move(fresh.merged_);
    override_samples_ = std::move(fresh.override_samples_);
    override_store_ = std::move(fresh.override_store_);
    stats_ = std::move(fresh.stats_);
    refreshed_rows_ = fresh.refreshed_rows_;
    pending_dirty_.clear();
    ++generation_;
    if (stats != nullptr) *stats = p->stats;
    NotifyRefreshListeners();
    return Status::OK();
  }
  if (!p->executed) {
    return Status::Internal("CommitIngest before ExecuteIngest");
  }

  // ---- Commit point: nothing below can fail. ----
  // Tier transitions are commit-phase only: rebuilt units arrive with
  // fresh stores already within their slices, untouched units keep
  // their tiers and hit counters, and the override store re-registers
  // the fresh override samples all-kWarm under its exclusive lock.
  std::unique_lock<std::shared_mutex> store_lock(*store_mu_,
                                                 std::defer_lock);
  if (store_enabled()) store_lock.lock();
  encoder_ = std::move(p->new_encoder);
  if (p->adopt_global) {
    global_sample_rows_ = std::move(p->staged_global_rows);
    global_sample_ = std::move(p->staged_global);
    stats_.global_sample_tuples = global_sample_.size();
  }
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
    // Configure without a spill path touches no filesystem state and
    // cannot fail — the commit point stays infallible.
    TABULA_CHECK(override_store_.Configure(OverrideStoreOptions()).ok());
    TrackOverridesLocked();
  }
  refreshed_rows_ = p->target_rows;
  pending_dirty_.clear();
  ++generation_;
  if (stats != nullptr) *stats = p->stats;
  NotifyRefreshListeners();
  return Status::OK();
}

Status ShardedTabula::Refresh(RefreshStats* stats) {
  if (single_ != nullptr) return single_->Refresh(stats);

  Stopwatch timer;
  RefreshStats local;
  RefreshStats* out = stats != nullptr ? stats : &local;
  *out = RefreshStats{};

  Tracer* tracer = options_.base.tracer;
  Span span;
  if (tracer != nullptr) span = tracer->StartSpan("tabula.refresh");
  size_t touched_shards = 0;
  auto finish = [&]() {
    if (span.recording()) {
      span.SetAttribute("new_rows", out->new_rows);
      span.SetAttribute("new_iceberg_cells", out->new_iceberg_cells);
      span.SetAttribute("dropped_iceberg_cells", out->dropped_iceberg_cells);
      span.SetAttribute("rechecked_cells", out->rechecked_cells);
      span.SetAttribute("resampled_cells", out->resampled_cells);
      span.SetAttribute("full_rebuild", out->full_rebuild);
      span.SetAttribute("touched_shards", touched_shards);
      out->millis = span.End();
    } else {
      out->millis = timer.ElapsedMillis();
    }
  };

  TABULA_ASSIGN_OR_RETURN(std::unique_ptr<IngestPlan> plan, PlanIngest());
  if (plan->no_op) {
    finish();
    return Status::OK();
  }
  auto* p = static_cast<IngestPlanState*>(plan.get());
  p->parent_span = span.id();
  touched_shards =
      p->full_rebuild ? options_.num_shards : p->touched.size();
  BeginIngest(plan.get());
  // On failure the staged plan dies here; pending_dirty_ stays
  // published — answers keep tagging stale (rows still pend) until a
  // later cycle commits or re-plans.
  TABULA_RETURN_NOT_OK(ExecuteIngest(plan.get()));
  TABULA_RETURN_NOT_OK(CommitIngest(std::move(plan), out));
  finish();
  return Status::OK();
}

}  // namespace tabula
