#include "shard/sharded_tabula.h"

#include <algorithm>
#include <limits>
#include <utility>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "cube/dry_run.h"
#include "sampling/random_sampler.h"
#include "sampling/theta_restore.h"
#include "testing/fault_injection.h"

namespace tabula {

namespace {

/// A merged cell's loss state plus the set of shards holding rows of it
/// (bit s = shard s). Both merge up the lattice, so every rolled-up cell
/// knows which shards' slices it spans without a per-shard key set.
struct ShardState {
  LossState state;
  uint64_t shards = 0;
  void Merge(const ShardState& o) {
    state.Merge(o.state);
    shards |= o.shards;
  }
};

}  // namespace

const char* ShardPartitionName(ShardPartition partition) {
  switch (partition) {
    case ShardPartition::kHash:
      return "hash";
    case ShardPartition::kRange:
      return "range";
  }
  return "unknown";
}

Status ShardedTabula::CheckShardCount(size_t num_shards) {
  if (num_shards < 2 || num_shards > kMaxShards) {
    return Status::InvalidArgument("num_shards must be in [2, " +
                                   std::to_string(kMaxShards) + "] (got " +
                                   std::to_string(num_shards) + ")");
  }
  return Status::OK();
}

Result<std::unique_ptr<ShardedTabula>> ShardedTabula::Initialize(
    const Table& table, ShardedTabulaOptions options) {
  TABULA_RETURN_NOT_OK(CheckShardCount(options.num_shards));
  auto sharded = std::unique_ptr<ShardedTabula>(new ShardedTabula());
  sharded->options_ = std::move(options);
  TABULA_RETURN_NOT_OK(sharded->InitializeSharded(table));
  sharded->InitServing();
  return sharded;
}

void ShardedTabula::InitServing() {
  const size_t r = replicas_per_shard();
  replicas_.clear();
  for (size_t i = 0; i < shards_.size() * r; ++i) replicas_.emplace_back();
  meters_.unavailable = &metrics_.counter("shard_unavailable_total");
  meters_.degraded = &metrics_.counter("shard_degraded_answers");
  meters_.probe_failures = &metrics_.counter("replica_probe_failures");
  meters_.failovers = &metrics_.counter("replica_failovers");
  meters_.fanout = &metrics_.histogram("shard_fanout_latency");
  meters_.shard_latency.clear();
  meters_.replica_latency.clear();
  for (size_t s = 0; s < shards_.size(); ++s) {
    const std::string shard = "shard" + std::to_string(s);
    meters_.shard_latency.push_back(
        &metrics_.histogram(shard + "_query_latency"));
    for (size_t j = 0; r > 1 && j < r; ++j) {
      meters_.replica_latency.push_back(&metrics_.histogram(
          shard + "_replica" + std::to_string(j) + "_latency"));
    }
  }
}

Status ShardedTabula::SetReplicaDown(size_t shard, size_t replica,
                                     bool down) {
  if (shard >= shards_.size()) {
    return Status::InvalidArgument("shard " + std::to_string(shard) +
                                   " out of range (K = " +
                                   std::to_string(shards_.size()) + ")");
  }
  if (replica >= replicas_per_shard()) {
    return Status::InvalidArgument(
        "replica " + std::to_string(replica) + " out of range (R = " +
        std::to_string(replicas_per_shard()) + ")");
  }
  replica_state(shard, replica).down.store(down, std::memory_order_release);
  return Status::OK();
}

bool ShardedTabula::replica_down(size_t shard, size_t replica) const {
  if (shard >= shards_.size() || replica >= replicas_per_shard()) {
    return false;
  }
  return replica_state(shard, replica).down.load(std::memory_order_acquire);
}

size_t ShardedTabula::HealthyReplicaCount(size_t shard) const {
  if (shard >= shards_.size()) return 0;
  size_t healthy = 0;
  for (size_t j = 0; j < replicas_per_shard(); ++j) {
    if (!replica_state(shard, j).down.load(std::memory_order_acquire)) {
      ++healthy;
    }
  }
  return healthy;
}

Status ShardedTabula::InitializeSharded(const Table& table) {
  const TabulaOptions& base = options_.base;
  TABULA_RETURN_NOT_OK(Tabula::ValidateOptions(table, base));
  TABULA_RETURN_NOT_OK(CheckStoreOptions());

  // Same span discipline as Tabula::Initialize: a local always-on
  // tracer stands in when the caller's cannot record, so stats are
  // span-derived either way.
  Tracer local_tracer(TracerOptions{TraceMode::kAll, /*capacity=*/256});
  Tracer* tracer = base.tracer != nullptr && base.tracer->enabled()
                       ? base.tracer
                       : &local_tracer;
  Span init_span = tracer->StartSpan("shard.init", 0, /*opt_in=*/true);
  init_span.SetAttribute("table_rows", table.num_rows());
  init_span.SetAttribute("num_shards", options_.num_shards);
  init_span.SetAttribute("partition",
                         ShardPartitionName(options_.partition));

  // ONE global sample over the FULL table, drawn exactly as the
  // single-instance engine draws it. Sharing it across units is what
  // makes the per-unit loss states merge to the single-instance states
  // (same reference ⇒ same accumulation), which in turn makes the merged
  // iceberg set equal the single-instance set.
  TABULA_ASSIGN_OR_RETURN(KeyEncoder encoder,
                          KeyEncoder::Make(table, base.cubed_attributes));
  TABULA_RETURN_NOT_OK(InstallFront(
      table, std::move(encoder),
      ConsistentBottomKSample(
          DatasetView(&table),
          SerflingSampleSize(base.serfling_epsilon, base.serfling_delta),
          base.seed)));
  lattice_ = Lattice(base.cubed_attributes.size());
  stats_.global_sample_tuples = global_sample_.size();

  // Partition the row space. Shard row lists stay ascending under both
  // schemes, so per-unit accumulation order is deterministic.
  const size_t k = options_.num_shards;
  shards_.resize(k);
  const size_t n = table.num_rows();
  if (options_.partition == ShardPartition::kHash) {
    for (size_t s = 0; s < k; ++s) shards_[s].rows.reserve(n / k + 1);
    for (size_t r = 0; r < n; ++r) {
      shards_[HashKey64(r) % k].rows.push_back(static_cast<RowId>(r));
    }
  } else {
    for (size_t s = 0; s < k; ++s) {
      size_t begin = n * s / k;
      size_t end = n * (s + 1) / k;
      shards_[s].rows.reserve(end - begin);
      for (size_t r = begin; r < end; ++r) {
        shards_[s].rows.push_back(static_cast<RowId>(r));
      }
    }
  }

  Span build_span = tracer->StartSpan("shard.build_all", init_span.id());
  std::vector<Shard*> all(k);
  for (size_t s = 0; s < k; ++s) all[s] = &shards_[s];
  Status built = BuildUnits(all, encoder_, global_sample_rows_, tracer,
                            build_span.id(), &stats_.shard_build_millis);
  stats_.build_millis = build_span.End();
  TABULA_RETURN_NOT_OK(built);

  stats_.num_shards = k;
  stats_.shard_iceberg_cells.clear();
  for (const Shard& shard : shards_) {
    stats_.shard_iceberg_cells.push_back(shard.unit->cube_table().size());
  }

  // Merge + θ re-verification.
  std::vector<const Shard*> shard_ptrs(all.begin(), all.end());
  TABULA_ASSIGN_OR_RETURN(
      MergeOutput merge,
      MergeShardCubes(shard_ptrs, encoder_, global_sample_,
                      global_sample_rows_, tracer, init_span.id()));
  merged_ = std::move(merge.merged);
  override_samples_ = std::move(merge.overrides);
  stats_.merged_iceberg_cells = merged_.size();
  stats_.conflict_cells = merge.conflict_cells;
  stats_.union_accepted_cells = merge.union_accepted_cells;
  stats_.verified_cells = merge.verified_cells;
  stats_.resampled_cells = merge.resampled_cells;
  stats_.merge_millis = merge.millis;

  // The override store takes the budget left after the K unit slices
  // (the units enforced theirs at build); inert with the store off.
  override_store_.Configure(OverrideStoreOptions());
  TrackOverridesLocked();

  refreshed_rows_ = n;
  init_span.SetAttribute("merged_iceberg_cells",
                         stats_.merged_iceberg_cells);
  stats_.total_millis = init_span.End();
  // Coordinator-serial work + slowest shard: the wall clock a pool with
  // >= K workers delivers (see the ShardedInitStats doc).
  double slowest_shard = 0.0;
  for (double ms : stats_.shard_build_millis) {
    slowest_shard = std::max(slowest_shard, ms);
  }
  stats_.critical_path_millis =
      stats_.total_millis - stats_.build_millis + slowest_shard;
  return Status::OK();
}

TabulaOptions ShardedTabula::UnitOptions() const {
  TabulaOptions unit = options_.base;
  unit.enable_sample_selection = false;
  unit.store.budget_bytes =
      options_.base.store.budget_bytes / (options_.num_shards + 1);
  unit.store.hot_promote_hits = std::numeric_limits<uint64_t>::max();
  unit.store.spill_path.clear();
  return unit;
}

Status ShardedTabula::BuildUnits(const std::vector<Shard*>& shards,
                                 const KeyEncoder& enc,
                                 const std::vector<RowId>& ref_rows,
                                 Tracer* tracer, uint64_t parent_span,
                                 std::vector<double>* millis) const {
  // One unit per grain, claimed by pool workers and the calling thread
  // alike. Nested ParallelFor calls inside a worker run inline, so a
  // worker's unit is a self-contained sequential build — no cross-shard
  // synchronization until the merge barrier, and each unit is a pure
  // function of its rows regardless of worker count.
  const TabulaOptions unit_options = UnitOptions();
  millis->assign(shards.size(), 0.0);
  std::vector<Status> statuses(shards.size(), Status::OK());
  auto build = [&](size_t i) -> Status {
    Span span;
    if (tracer != nullptr) {
      span = tracer->StartSpan("shard.build", parent_span, /*opt_in=*/true);
    }
    Stopwatch timer;
    TABULA_FAULT_POINT("shard.build");
    Shard* shard = shards[i];
    Tabula::UnitInput input{&enc, &ref_rows, &shard->rows};
    // The unit times its stages on a private tracer: its init_stats()
    // stay span-derived without copying the caller's whole span ring
    // once per unit.
    TABULA_ASSIGN_OR_RETURN(
        shard->unit,
        Tabula::Build(*table_, unit_options, &input, /*tracer=*/nullptr));
    if (span.recording()) {
      span.SetAttribute("rows", shard->rows.size());
      span.SetAttribute("iceberg_cells", shard->unit->cube_table().size());
      span.SetAttribute("spatial_cells",
                        shard->unit->init_stats().spatial_cells);
      (*millis)[i] = span.End();
    } else {
      (*millis)[i] = timer.ElapsedMillis();
    }
    return Status::OK();
  };
  try {
    ThreadPool::Global().ParallelForGrains(
        shards.size(),
        [&](size_t i, size_t, size_t) { statuses[i] = build(i); },
        /*grain_rows=*/1);
  } catch (const std::exception& e) {
    // A thrown injected fault (or any escaped exception) fails the build
    // like a Status would — atomically, nothing published.
    return Status::Internal(std::string("shard build threw: ") + e.what());
  }
  for (const Status& status : statuses) TABULA_RETURN_NOT_OK(status);
  return Status::OK();
}

Result<ShardedTabula::MergeOutput> ShardedTabula::MergeShardCubes(
    const std::vector<const Shard*>& shards, const KeyEncoder& enc,
    const DatasetView& ref, const std::vector<RowId>& ref_rows,
    Tracer* tracer, uint64_t parent_span) const {
  Span span;
  if (tracer != nullptr) {
    span = tracer->StartSpan("shard.merge", parent_span, /*opt_in=*/true);
  }
  Stopwatch timer;
  TABULA_FAULT_POINT("shard.merge");
  const TabulaOptions& base = options_.base;
  const LossFunction* loss = base.effective_loss();
  TABULA_ASSIGN_OR_RETURN(std::unique_ptr<BoundLoss> bound,
                          loss->Bind(*table_, ref));
  // Concurrent query promotes write the units' sample tables; the
  // shared locks keep every candidate gather off half-written slots.
  std::vector<std::shared_lock<std::shared_mutex>> locks;
  if (store_enabled()) {
    for (const Shard* shard : shards) {
      locks.emplace_back(*shard->unit->store_mu_);
    }
  }

  // 1. Exact cross-shard state merge: the units' finest-cell indexes are
  //    ascending by key, so one k-way pass folds each key's states in
  //    ascending shard order — equal to the single-instance
  //    accumulation up to floating-point fold order — and tags it with
  //    the shards holding its rows.
  GroupedStates<ShardState> finest;
  std::vector<size_t> pos(shards.size(), 0);
  for (;;) {
    bool any = false;
    uint64_t key = 0;
    for (size_t s = 0; s < shards.size(); ++s) {
      const FinestIndex& f = shards[s]->unit->finest_;
      if (pos[s] < f.keys.size() && (!any || f.keys[pos[s]] < key)) {
        key = f.keys[pos[s]];
        any = true;
      }
    }
    if (!any) break;
    ShardState cell;
    for (size_t s = 0; s < shards.size(); ++s) {
      const FinestIndex& f = shards[s]->unit->finest_;
      if (pos[s] >= f.keys.size() || f.keys[pos[s]] != key) continue;
      if (cell.shards == 0) {
        cell.state = f.states[pos[s]];
      } else {
        cell.state.Merge(f.states[pos[s]]);
      }
      cell.shards |= uint64_t{1} << s;
      ++pos[s];
    }
    finest.keys.push_back(key);
    finest.states.push_back(std::move(cell));
  }

  // 2. Roll up the merged states and classify the *global* iceberg set.
  const std::vector<GroupedStates<ShardState>> cuboids =
      RollUpCuboids(std::move(finest), packer_, lattice_);

  // 3. Per merged-iceberg cell: gather the union of shard-local
  //    samples and decide how the θ bound is restored (see DESIGN.md
  //    "Sharding" for the per-loss-class argument):
  //      - union-closed loss, no conflict → accept without a check;
  //      - reference-free state → exact re-verification from the
  //        merged state (no raw scan), re-sample on violation;
  //      - otherwise (conflict under a reference-bound state) → direct
  //        loss evaluation against the collected raw rows.
  MergeOutput out;
  struct PendingCell {
    CuboidMask cuboid = 0;
    bool verify_first = false;  ///< direct-loss check before resampling
    bool augmented = false;     ///< candidate includes the global sample
    std::vector<RowId> candidate;
  };
  FlatHashMap<PendingCell> needs_raw;
  const bool union_closed = loss->UnionClosed();
  const bool ref_free = !loss->StateDependsOnReference();
  const ThetaContext ctx = theta_context();
  for (size_t m = 0; m < lattice_.num_cuboids(); ++m) {
    const CuboidMask mask = static_cast<CuboidMask>(m);
    // Global-sample rows grouped by this cuboid's cell key: a conflict
    // cell's absent slices are, per their units' dry runs, within θ of
    // the global sample, so these rows stand in for the slices the
    // union sample misses (the same rows a WHERE-filtered global answer
    // would serve). Only reference-dependent losses use this — their
    // coverage-style loss can only improve with extra candidate rows,
    // whereas a mean-style (reference-free) loss is evaluated exactly
    // from the merged state and extra uniform rows would shift the
    // union's statistic as often as they correct it.
    FlatHashMap<std::vector<RowId>> global_in_cell;
    if (!ref_free) {
      for (RowId r : ref_rows) {
        global_in_cell[packer_.PackRowMasked(enc, r, mask)].push_back(r);
      }
    }
    const GroupedStates<ShardState>& cells = cuboids[m];
    for (size_t i = 0; i < cells.keys.size(); ++i) {
      const uint64_t key = cells.keys[i];
      const ShardState& merged = cells.states[i];
      if (bound->Finalize(merged.state) <= base.threshold) continue;
      std::vector<RowId> candidate;
      bool conflict = false;
      for (size_t s = 0; s < shards.size(); ++s) {
        const Tabula& unit = *shards[s]->unit;
        const IcebergCell* cell = unit.cube_.Find(key);
        if (cell == nullptr) {
          // A shard holding rows of the cell whose slice was within θ of
          // the global sample: the union sample does not cover the
          // slice, so the cell's shard-local statuses disagree.
          conflict |= ((merged.shards >> s) & 1) != 0;
          continue;
        }
        if (!unit.store_enabled() || unit.store_.resident(cell->sample_id)) {
          const std::vector<RowId>& sample =
              unit.samples_.sample(cell->sample_id);
          candidate.insert(candidate.end(), sample.begin(), sample.end());
          continue;
        }
        // A demoted slice: restore the build bytes — build seed over the
        // slice's ascending rows, exactly what the unit's promote draws.
        TABULA_ASSIGN_OR_RETURN(
            std::vector<RowId> redrawn,
            Redraw(ctx, DatasetView(table_, unit.CellRows(key))));
        candidate.insert(candidate.end(), redrawn.begin(), redrawn.end());
      }
      if (conflict) {
        ++out.conflict_cells;
        if (!ref_free) {
          const std::vector<RowId>* aug = global_in_cell.Find(key);
          if (aug != nullptr) {
            candidate.insert(candidate.end(), aug->begin(), aug->end());
          }
        }
      }
      if (union_closed && !conflict) {
        ++out.union_accepted_cells;
        out.merged[key] = MergedCell{mask, false, false, 0};
        continue;
      }
      if (ref_free) {
        // The check decides from the merged state — no raw rows needed.
        ++out.verified_cells;
        TABULA_ASSIGN_OR_RETURN(
            bool within,
            WithinTheta(ctx, candidate, &merged.state, DatasetView()));
        if (within) {
          out.merged[key] = MergedCell{mask, false, false, 0};
          continue;
        }
      }
      // A reference-free cell failed its check and is re-drawn; any
      // other is checked against its raw rows first.
      needs_raw[key] = PendingCell{mask, /*verify_first=*/!ref_free,
                                   /*augmented=*/!ref_free && conflict,
                                   std::move(candidate)};
    }
  }

  // 4. Gather the full raw rows of the cells still pending (conflicted
  //    reference-bound cells and union-violating reference-free ones)
  //    from every unit's finest-cell index. Shard slices are disjoint
  //    row sets, so the ascending gather is exactly the vector a single
  //    full-table scan would produce — the re-drawn samples are
  //    independent of shard count and scheme. Then verify / re-sample in
  //    ascending key order so override sample ids assign
  //    deterministically.
  if (!needs_raw.empty()) {
    std::vector<const FinestIndex*> indexes;
    for (const Shard* shard : shards) indexes.push_back(&shard->unit->finest_);
    const std::vector<uint64_t> keys = needs_raw.SortedKeys();
    std::vector<std::vector<RowId>> rows =
        GatherCellRows(indexes, packer_, keys,
                       std::numeric_limits<RowId>::max());
    for (size_t c = 0; c < keys.size(); ++c) {
      const uint64_t key = keys[c];
      PendingCell* cell = needs_raw.Find(key);
      DatasetView raw(table_, std::move(rows[c]));
      if (cell->verify_first) {
        ++out.verified_cells;
        TABULA_ASSIGN_OR_RETURN(
            bool within, WithinTheta(ctx, cell->candidate, nullptr, raw));
        if (within) {
          out.merged[key] =
              MergedCell{cell->cuboid, false, cell->augmented, 0};
          continue;
        }
      }
      TABULA_ASSIGN_OR_RETURN(std::vector<RowId> sample, Redraw(ctx, raw));
      uint32_t id = out.overrides.Add(std::move(sample));
      out.merged[key] = MergedCell{cell->cuboid, true, false, id};
      ++out.resampled_cells;
    }
  }
  if (span.recording()) {
    span.SetAttribute("merged_iceberg_cells", out.merged.size());
    span.SetAttribute("conflict_cells", out.conflict_cells);
    span.SetAttribute("resampled_cells", out.resampled_cells);
    out.millis = span.End();
  } else {
    out.millis = timer.ElapsedMillis();
  }
  return out;
}

const std::vector<RowId>& ShardedTabula::shard_rows(size_t i) const {
  TABULA_CHECK(i < shards_.size());
  return shards_[i].rows;
}

const CubeTable& ShardedTabula::shard_cube(size_t i) const {
  TABULA_CHECK(i < shards_.size());
  return shards_[i].unit->cube_table();
}

size_t ShardedTabula::ShardForNewRow(RowId row,
                                     const std::vector<size_t>& sizes) const {
  if (options_.partition == ShardPartition::kHash) {
    return HashKey64(row) % options_.num_shards;
  }
  // kRange: the smallest shard owns the append (ties → lowest index),
  // so steady appends touch one shard at a time and stay balanced.
  size_t best = 0;
  for (size_t s = 1; s < sizes.size(); ++s) {
    if (sizes[s] < sizes[best]) best = s;
  }
  return best;
}

}  // namespace tabula
