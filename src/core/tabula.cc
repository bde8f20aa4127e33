#include "core/tabula.h"

#include <algorithm>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stopwatch.h"
#include "cube/lattice.h"
#include "sampling/random_sampler.h"

namespace tabula {

Status Tabula::ValidateOptions(const Table& table,
                               const TabulaOptions& options) {
  const LossFunction* loss = options.effective_loss();
  if (loss == nullptr) {
    return Status::InvalidArgument("TabulaOptions.loss must be set");
  }
  if (options.cubed_attributes.empty()) {
    return Status::InvalidArgument("at least one cubed attribute required");
  }
  if (options.threshold <= 0.0) {
    return Status::InvalidArgument("accuracy loss threshold must be > 0");
  }
  for (const auto& col : loss->InputColumns()) {
    if (!table.schema().HasField(col)) {
      return Status::NotFound("loss function input column '" + col +
                              "' not in table");
    }
  }
  return Status::OK();
}

Result<std::unique_ptr<Tabula>> Tabula::Initialize(const Table& table,
                                                   TabulaOptions options) {
  TABULA_RETURN_NOT_OK(ValidateOptions(table, options));
  Tracer* tracer = options.tracer != nullptr && options.tracer->enabled()
                       ? options.tracer
                       : nullptr;
  return Build(table, std::move(options), /*unit=*/nullptr, tracer);
}

Result<std::unique_ptr<Tabula>> Tabula::MakeInstance(
    const Table& table, TabulaOptions options, KeyEncoder encoder,
    std::vector<RowId> global_rows) {
  auto tabula = std::unique_ptr<Tabula>(new Tabula());
  tabula->table_ = &table;
  tabula->options_ = std::move(options);
  tabula->encoder_ = std::move(encoder);
  std::vector<size_t> all_cols(tabula->encoder_.num_columns());
  for (size_t i = 0; i < all_cols.size(); ++i) all_cols[i] = i;
  TABULA_ASSIGN_OR_RETURN(tabula->packer_,
                          KeyPacker::Make(tabula->encoder_, all_cols));
  tabula->global_sample_rows_ = std::move(global_rows);
  tabula->global_sample_ = DatasetView(&table, tabula->global_sample_rows_);
  tabula->stats_.global_sample_tuples = tabula->global_sample_.size();
  return tabula;
}

Result<std::unique_ptr<Tabula>> Tabula::Build(const Table& table,
                                              TabulaOptions options,
                                              const UnitInput* unit,
                                              Tracer* tracer) {
  // Stage timings below come from spans, never from ad-hoc stopwatches.
  // Without a caller tracer a local always-on one stands in, so
  // init_stats() and init_trace() are populated either way. Init runs
  // once; the span cost is noise.
  Tracer local_tracer(TracerOptions{TraceMode::kAll, /*capacity=*/64});
  if (tracer == nullptr) tracer = &local_tracer;
  const DatasetView rows =
      unit != nullptr ? DatasetView(&table, *unit->rows) : DatasetView(&table);
  Span init_span = tracer->StartSpan("tabula.init", 0, /*opt_in=*/true);
  init_span.SetAttribute("table_rows", rows.size());
  init_span.SetAttribute("cubed_attributes", options.cubed_attributes.size());
  init_span.SetAttribute("threshold", options.threshold);

  // Stage 0: the key encoder and the global random sample, sized by
  // Serfling's inequality — or the coordinator's, for a shard unit.
  std::unique_ptr<Tabula> tabula;
  if (unit != nullptr) {
    TABULA_ASSIGN_OR_RETURN(
        tabula, MakeInstance(table, std::move(options), *unit->encoder,
                             *unit->global_rows));
  } else {
    TABULA_ASSIGN_OR_RETURN(KeyEncoder encoder,
                            KeyEncoder::Make(table, options.cubed_attributes));
    Span span = tracer->StartSpan("tabula.init.global_sample",
                                  init_span.id());
    std::vector<RowId> global_rows = ConsistentBottomKSample(
        rows,
        SerflingSampleSize(options.serfling_epsilon, options.serfling_delta),
        options.seed);
    span.SetAttribute("tuples", global_rows.size());
    TABULA_ASSIGN_OR_RETURN(
        tabula, MakeInstance(table, std::move(options), std::move(encoder),
                             std::move(global_rows)));
    tabula->stats_.global_sample_millis = span.End();
  }
  const TabulaOptions& opts = tabula->options_;
  const LossFunction* loss = opts.effective_loss();
  Lattice lattice(opts.cubed_attributes.size());

  // Stage 1: dry run — iceberg cell lookup via algebraic roll-up.
  Span dry_span = tracer->StartSpan("tabula.init.dry_run", init_span.id());
  TABULA_ASSIGN_OR_RETURN(
      DryRunResult dry,
      RunDryRun(rows, tabula->encoder_, tabula->packer_, lattice, *loss,
                tabula->global_sample_, opts.threshold));
  tabula->stats_.total_cells = dry.total_cells;
  tabula->stats_.iceberg_cells = dry.total_iceberg_cells;
  tabula->stats_.iceberg_cuboids = dry.iceberg_cuboids;
  // A shard unit keeps the finest states for the coordinator's merge.
  if (unit != nullptr) tabula->unit_finest_ = std::move(dry.finest);
  dry.finest = GroupedStates<LossState>();
  dry_span.SetAttribute("rows_scanned", rows.size());
  dry_span.SetAttribute("total_cells", dry.total_cells);
  dry_span.SetAttribute("iceberg_cells", dry.total_iceberg_cells);
  dry_span.SetAttribute("iceberg_cuboids", dry.iceberg_cuboids);
  tabula->stats_.dry_run_millis = dry_span.End();

  // Stage 2: real run — local samples for iceberg cells only.
  Span real_span = tracer->StartSpan("tabula.init.real_run", init_span.id());
  GreedySamplerOptions sampler_opts = opts.sampler;
  sampler_opts.seed = opts.seed;
  TABULA_ASSIGN_OR_RETURN(
      RealRunResult real,
      RunRealRun(rows, tabula->encoder_, tabula->packer_, lattice, dry,
                 *loss, opts.threshold, sampler_opts, opts.path_policy));
  tabula->stats_.real_run_cuboids = std::move(real.per_cuboid);
  tabula->cube_ = std::move(real.cube);
  real_span.SetAttribute("iceberg_cells", tabula->cube_.size());
  real_span.SetAttribute("cuboids_visited",
                         tabula->stats_.real_run_cuboids.size());
  tabula->stats_.real_run_millis = real_span.End();

  // Stage 3: representative sample selection (or persist-all for
  // Tabula* and shard units, which keep the raw rows for the merge).
  Span sel_span = tracer->StartSpan("tabula.init.selection", init_span.id());
  if (opts.enable_sample_selection) {
    TABULA_ASSIGN_OR_RETURN(
        SelectionResult sel,
        SelectRepresentativeSamples(table, *loss, opts.threshold,
                                    opts.selection, &tabula->cube_,
                                    &tabula->samples_));
    tabula->stats_.representative_samples = sel.representatives;
    tabula->stats_.cells_sharing_samples = sel.cells_sharing;
  } else {
    TABULA_ASSIGN_OR_RETURN(
        SelectionResult sel,
        PersistAllSamples(&tabula->cube_, &tabula->samples_,
                          /*keep_raw_rows=*/unit != nullptr));
    tabula->stats_.representative_samples = sel.representatives;
  }
  sel_span.SetAttribute("representatives",
                        tabula->stats_.representative_samples);
  sel_span.SetAttribute("cells_sharing",
                        tabula->stats_.cells_sharing_samples);
  tabula->stats_.selection_millis = sel_span.End();

  // Stage 4 (optional): the hierarchical spatial grid for bbox queries.
  if (opts.spatial.levels > 0) {
    Span spatial_span =
        tracer->StartSpan("tabula.init.spatial", init_span.id());
    TABULA_ASSIGN_OR_RETURN(
        tabula->grid_,
        SpatialGrid::Build(tabula->SpatialContext(), opts.spatial,
                           unit != nullptr ? unit->rows : nullptr));
    tabula->stats_.spatial_cells = tabula->grid_.TotalCells();
    tabula->stats_.spatial_sample_tuples = tabula->grid_.SampleTuples();
    spatial_span.SetAttribute("levels", opts.spatial.levels);
    spatial_span.SetAttribute("cells", tabula->stats_.spatial_cells);
    spatial_span.SetAttribute("sample_tuples",
                              tabula->stats_.spatial_sample_tuples);
    tabula->stats_.spatial_millis = spatial_span.End();
  }

  tabula->refreshed_rows_ = table.num_rows();
  if (opts.keep_maintenance_state) {
    TABULA_RETURN_NOT_OK(tabula->BuildMaintenanceState());
  }

  // Tiered sample store: initial tier assignment (every sample starts
  // kWarm) and first budget enforcement. Inert when budget_bytes == 0.
  TABULA_RETURN_NOT_OK(
      tabula->AssignInitialTiers(unit != nullptr ? unit->rows : nullptr));

  uint64_t tuple_bytes = tabula->BytesPerTuple();
  tabula->stats_.global_sample_bytes =
      tabula->global_sample_.size() * tuple_bytes;
  tabula->stats_.cube_table_bytes = tabula->cube_.MemoryBytes();
  tabula->stats_.sample_table_bytes =
      tabula->samples_.MemoryBytes(tuple_bytes);
  init_span.SetAttribute("iceberg_cells", tabula->stats_.iceberg_cells);
  uint64_t root_id = init_span.id();
  tabula->stats_.total_millis = init_span.End();
  tabula->init_trace_ = SpanSubtree(tracer->Snapshot(), root_id);
  return tabula;
}

Status Tabula::EnsureUnitFinest(const std::vector<RowId>& rows) {
  if (!unit_finest_.keys.empty() || rows.empty()) return Status::OK();
  TABULA_ASSIGN_OR_RETURN(std::unique_ptr<BoundLoss> bound,
                          loss_fn()->Bind(*table_, global_sample_));
  // The dry run's own fold, so the states match a fresh build's.
  unit_finest_ = GroupAccumulateSorted<LossState>(
      encoder_, packer_, DatasetView(table_, rows),
      [&bound](LossState* state, RowId row) { bound->Accumulate(state, row); });
  return Status::OK();
}

uint64_t Tabula::AddRefreshListener(std::function<void()> listener) {
  uint64_t id = next_listener_id_++;
  refresh_listeners_.emplace_back(id, std::move(listener));
  return id;
}

void Tabula::RemoveRefreshListener(uint64_t id) {
  for (auto it = refresh_listeners_.begin(); it != refresh_listeners_.end();
       ++it) {
    if (it->first == id) {
      refresh_listeners_.erase(it);
      return;
    }
  }
}

void Tabula::NotifyRefreshListeners() {
  for (auto& [id, listener] : refresh_listeners_) listener();
}

uint64_t Tabula::BytesPerTuple() const {
  if (table_ == nullptr || table_->num_rows() == 0) return sizeof(RowId);
  return std::max<uint64_t>(table_->MemoryBytes() / table_->num_rows(), 1);
}

Result<QueryResponse> Tabula::Query(const QueryRequest& request) const {
  // Tracing guard: when no tracer is attached (or it is disabled and
  // the request did not opt in) `span` is inert — no allocation, no
  // clock read beyond the Stopwatch the result always carried.
  Span span;
  if (options_.tracer != nullptr) {
    span = options_.tracer->StartSpan("tabula.query", request.parent_span,
                                      request.trace);
  }
  Stopwatch timer;
  QueryResponse response;
  response.span_id = span.id();
  TabulaQueryResult& result = response.result;
  const std::vector<PredicateTerm>& where = request.where;
  // Progressive-answer tagging: the generation this answer is computed
  // at, and whether appended-but-unfolded rows are scheduled to change
  // it. With a published dirty set the tag is per-cell precise;
  // before classification (dirty set empty) every answer is
  // conservatively stale while rows pend.
  result.generation = generation_;
  const bool has_pending = table_->num_rows() > refreshed_rows_;

  auto finish = [&]() {
    if (span.recording()) {
      span.SetAttribute("terms", where.size());
      span.SetAttribute("from_local_sample", result.from_local_sample);
      span.SetAttribute("empty_cell", result.empty_cell);
      span.SetAttribute("sample_rows", result.sample.size());
      // The span duration IS the reported latency, so trace and stats
      // cannot disagree.
      result.data_system_millis = span.End();
    } else {
      result.data_system_millis = timer.ElapsedMillis();
    }
  };

  // Bbox (pan/zoom) requests take the spatial path; everything below it
  // is the pre-spatial equality surface, untouched bit for bit.
  if (!request.range.empty()) {
    TABULA_RETURN_NOT_OK(QueryRange(request, has_pending, &result));
    finish();
    return response;
  }

  // Invalid-request returns below leave `span` to end at scope exit;
  // the recorded span then has no result attributes, which is the
  // trace-side marker for a rejected query.
  std::vector<uint32_t> codes;
  bool provably_empty = false;
  TABULA_RETURN_NOT_OK(
      ValidateEqualityTerms(encoder_, where, &codes, &provably_empty));
  if (provably_empty) {
    // The filter value never occurs in the data: the cell is provably
    // empty, so an empty sample is the exact answer (loss 0). Pending
    // rows may contain the value, so the emptiness claim itself is
    // stale while an ingest is in flight (coarse: the value has no
    // cell key to probe the dirty set with).
    result.empty_cell = true;
    result.stale = has_pending;
    result.sample = DatasetView(table_, {});
    finish();
    return response;
  }

  uint64_t key = packer_.PackCodes(codes);
  result.stale =
      has_pending && (pending_dirty_.empty() || pending_dirty_.Contains(key));
  const IcebergCell* cell = cube_.Find(key);
  if (cell != nullptr) {
    // Hit accounting + cold-tier lazy promote with the store enabled
    // (store_tier.cc).
    std::vector<RowId> sample;
    if (AppendLocalSample(*cell, span.id(), &sample)) {
      result.from_local_sample = true;
      result.sample = DatasetView(table_, std::move(sample));
    } else {
      // A cold cell failed to promote: degrade to the global sample —
      // never the stale evicted bytes.
      result.store_degraded = true;
      result.sample = DatasetView(table_, global_sample_rows_);
    }
  } else {
    // Non-iceberg cell: the dry run verified the global sample is within
    // θ of this cell's raw data.
    result.sample = DatasetView(table_, global_sample_rows_);
  }
  finish();
  return response;
}

Status Tabula::ValidateEqualityTerms(const KeyEncoder& encoder,
                                     const std::vector<PredicateTerm>& where,
                                     std::vector<uint32_t>* codes,
                                     bool* provably_empty) {
  const auto& names = encoder.column_names();
  codes->assign(names.size(), kNullCode);
  *provably_empty = false;
  for (const auto& term : where) {
    if (term.op != CompareOp::kEq) {
      return Status::InvalidArgument(
          "sampling-cube queries support equality predicates only (got '" +
          term.column + " " + CompareOpName(term.op) + " ...')");
    }
    auto it = std::find(names.begin(), names.end(), term.column);
    if (it == names.end()) {
      return Status::InvalidArgument(
          "'" + term.column +
          "' is not a cubed attribute; WHERE-clause attributes must be a "
          "subset of the cubed attributes of the initialization query");
    }
    size_t k = static_cast<size_t>(it - names.begin());
    if ((*codes)[k] != kNullCode) {
      return Status::InvalidArgument("duplicate predicate on '" +
                                     term.column + "'");
    }
    auto code = encoder.CodeForValue(k, term.literal);
    if (!code.ok()) {
      *provably_empty = true;
      return Status::OK();
    }
    (*codes)[k] = code.value();
  }
  return Status::OK();
}

SpatialGrid::Context Tabula::SpatialContext() const {
  SpatialGrid::Context ctx;
  ctx.table = table_;
  ctx.loss = loss_fn();
  ctx.threshold = options_.threshold;
  ctx.sampler = options_.sampler;
  ctx.sampler.seed = options_.seed;
  ctx.ref = global_sample_;
  return ctx;
}

Status Tabula::QueryRange(const QueryRequest& request, bool has_pending,
                          TabulaQueryResult* result) const {
  if (!grid_.present()) {
    return Status::InvalidArgument(
        "this engine has no spatial grid (enable TabulaOptions.spatial to "
        "serve bbox queries)");
  }
  TABULA_ASSIGN_OR_RETURN(SpatialGrid::ResolvedBBox box,
                          grid_.Resolve(request.range));
  for (const auto& term : request.where) {
    if (term.column == grid_.options().x_column ||
        term.column == grid_.options().y_column) {
      return Status::InvalidArgument(
          "cannot mix a spatial range and an equality predicate on '" +
          term.column + "'");
    }
  }
  // Spatial cells live outside the cube's dirty-key space, so staleness
  // tagging is conservative: any pending rows mark the answer stale.
  result->stale = has_pending;
  SpatialGrid::Context ctx = SpatialContext();

  if (request.where.empty()) {
    TABULA_ASSIGN_OR_RETURN(SpatialGrid::RangeAnswer answer,
                            grid_.RangeQuery(ctx, box));
    if (answer.raw_count == 0) {
      result->empty_cell = true;
      result->sample = DatasetView(table_, {});
      return Status::OK();
    }
    result->from_local_sample = true;
    result->sample = DatasetView(table_, std::move(answer.sample));
    return Status::OK();
  }

  // Hybrid bbox + equality: validate the equality terms exactly like the
  // pure path (same errors), then filter the bbox rows and answer
  // exactly when small, else SAMPLING(matching, θ) at query time — both
  // within θ, both deterministic.
  std::vector<uint32_t> codes;
  bool provably_empty = false;
  TABULA_RETURN_NOT_OK(ValidateEqualityTerms(encoder_, request.where, &codes,
                                             &provably_empty));
  if (!provably_empty) {
    TABULA_ASSIGN_OR_RETURN(std::vector<RowId> rows,
                            grid_.GatherRangeRows(ctx, box));
    TABULA_ASSIGN_OR_RETURN(BoundPredicate pred,
                            BoundPredicate::Bind(*table_, request.where));
    std::vector<RowId> matching = pred.FilterRows(rows);
    if (!matching.empty()) {
      result->from_local_sample = true;
      size_t cap = grid_.options().resample_cap;
      if (cap == 0 || matching.size() <= cap) {
        result->sample = DatasetView(table_, std::move(matching));
      } else {
        GreedySampler sampler(ctx.loss, ctx.threshold, ctx.sampler);
        TABULA_ASSIGN_OR_RETURN(
            std::vector<RowId> sample,
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
