#include "core/tabula.h"

#include <algorithm>
#include <numeric>

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
  tabula->options_ = std::move(options);
  TABULA_RETURN_NOT_OK(tabula->InstallFront(table, std::move(encoder),
                                            std::move(global_rows)));
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
  dry_span.SetAttribute("rows_scanned", rows.size());
  dry_span.SetAttribute("total_cells", dry.total_cells);
  dry_span.SetAttribute("iceberg_cells", dry.total_iceberg_cells);
  dry_span.SetAttribute("iceberg_cuboids", dry.iceberg_cuboids);
  tabula->stats_.dry_run_millis = dry_span.End();

  // Stage 2: real run — local samples for iceberg cells only.
  Span real_span = tracer->StartSpan("tabula.init.real_run", init_span.id());
  const ThetaContext theta = tabula->theta_context();
  TABULA_ASSIGN_OR_RETURN(
      RealRunResult real,
      RunRealRun(rows, tabula->encoder_, tabula->packer_, lattice, dry,
                 *loss, opts.threshold, theta.sampler, opts.path_policy));
  tabula->stats_.real_run_cuboids = std::move(real.per_cuboid);
  tabula->cube_ = std::move(real.cube);
  real_span.SetAttribute("iceberg_cells", tabula->cube_.size());
  real_span.SetAttribute("cuboids_visited",
                         tabula->stats_.real_run_cuboids.size());
  tabula->stats_.real_run_millis = real_span.End();

  // Stage 3: representative sample selection (or persist-all for
  // Tabula* and shard units).
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
        PersistAllSamples(&tabula->cube_, &tabula->samples_));
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
        SpatialGrid::Build(theta, opts.spatial,
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
  // The dry run's finest states seed the finest-cell index, when kept.
  if (unit != nullptr || tabula->keeps_finest_index()) {
    tabula->finest_ = IndexFinestRows(std::move(dry.finest), tabula->encoder_,
                                      tabula->packer_, rows);
  }

  // Tiered sample store: initial tier assignment (every sample starts
  // kWarm) and first budget enforcement. Inert when budget_bytes == 0.
  TABULA_RETURN_NOT_OK(tabula->AssignInitialTiers());

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

Status Tabula::RebuildFinestIndex(const KeyEncoder& encoder,
                                  const std::vector<RowId>* rows) {
  if (maintenance_bound_ == nullptr) {
    TABULA_ASSIGN_OR_RETURN(maintenance_bound_,
                            loss_fn()->Bind(*table_, global_sample_));
  }
  std::vector<RowId> prefix(rows == nullptr ? refreshed_rows_ : 0);
  std::iota(prefix.begin(), prefix.end(), RowId{0});
  const DatasetView view(table_, rows != nullptr ? *rows : std::move(prefix));
  finest_ = IndexFinestRows(
      FoldFinestStates(view, encoder, packer_, *maintenance_bound_), encoder,
      packer_, view);
  return Status::OK();
}

uint64_t Tabula::BytesPerTuple() const {
  if (table_ == nullptr || table_->num_rows() == 0) return sizeof(RowId);
  return std::max<uint64_t>(table_->MemoryBytes() / table_->num_rows(), 1);
}

void Tabula::ServeCell(uint64_t key, const Span& span,
                       TabulaQueryResult* result) const {
  const IcebergCell* cell = cube_.Find(key);
  if (cell == nullptr) {
    // Non-iceberg cell: the dry run verified the global sample is within
    // θ of this cell's raw data.
    result->sample = global_sample_;
    return;
  }
  // Hit accounting + cold-tier lazy promote with the store enabled
  // (store_tier.cc).
  std::vector<RowId> sample;
  if (AppendLocalSample(*cell, span.id(), &sample)) {
    result->from_local_sample = true;
    result->sample = DatasetView(table_, std::move(sample));
  } else {
    // A cold cell failed to promote: degrade to the global sample —
    // never the stale evicted bytes.
    result->store_degraded = true;
    result->sample = global_sample_;
  }
}

Status Tabula::QueryRange(const QueryRequest& request, bool has_pending,
                          TabulaQueryResult* result) const {
  bool provably_empty = false;
  TABULA_ASSIGN_OR_RETURN(
      SpatialGrid::ResolvedBBox box,
      ValidateRange(grid_, encoder_, request, &provably_empty));
  // Spatial cells live outside the cube's dirty-key space, so staleness
  // tagging is conservative: any pending rows mark the answer stale.
  result->stale = has_pending;
  const ThetaContext ctx = theta_context();

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

  // Hybrid bbox + equality: filter the bbox rows by the terms.
  std::vector<RowId> matching;
  if (!provably_empty) {
    TABULA_ASSIGN_OR_RETURN(std::vector<RowId> rows,
                            grid_.GatherRangeRows(ctx, box));
    TABULA_ASSIGN_OR_RETURN(BoundPredicate pred,
                            BoundPredicate::Bind(*table_, request.where));
    matching = pred.FilterRows(rows);
  }
  return ServeHybrid(ctx, grid_.options().resample_cap, std::move(matching),
                     result);
}

}  // namespace tabula
