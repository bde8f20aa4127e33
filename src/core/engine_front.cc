#include "core/engine_front.h"

#include <algorithm>
#include <numeric>

#include "common/stopwatch.h"
#include "core/tabula.h"
#include "sampling/random_sampler.h"
#include "testing/fault_injection.h"

namespace tabula {

EngineFront& EngineFront::operator=(EngineFront&& other) {
  table_ = other.table_;
  encoder_ = std::move(other.encoder_);
  packer_ = std::move(other.packer_);
  global_sample_rows_ = std::move(other.global_sample_rows_);
  global_sample_ = std::move(other.global_sample_);
  refreshed_rows_ = other.refreshed_rows_;
  pending_dirty_ = std::move(other.pending_dirty_);
  return *this;
}

Status EngineFront::InstallFront(const Table& table, KeyEncoder encoder,
                                 std::vector<RowId> global_rows) {
  table_ = &table;
  encoder_ = std::move(encoder);
  std::vector<size_t> all_cols(encoder_.num_columns());
  std::iota(all_cols.begin(), all_cols.end(), size_t{0});
  TABULA_ASSIGN_OR_RETURN(packer_, KeyPacker::Make(encoder_, all_cols));
  global_sample_rows_ = std::move(global_rows);
  global_sample_ = DatasetView(&table, global_sample_rows_);
  return Status::OK();
}

ThetaContext EngineFront::theta_context() const {
  const TabulaOptions& options = cube_options();
  ThetaContext ctx;
  ctx.table = table_;
  ctx.loss = options.effective_loss();
  ctx.threshold = options.threshold;
  ctx.sampler = options.sampler;
  ctx.sampler.seed = options.seed;
  ctx.ref = global_sample_;
  return ctx;
}

Result<QueryResponse> EngineFront::Query(const QueryRequest& request) const {
  // Tracing guard: when no tracer is attached (or it is disabled and
  // the request did not opt in) `span` is inert — no allocation, no
  // clock read beyond the Stopwatch the result always carried.
  Span span;
  if (Tracer* tracer = cube_options().tracer; tracer != nullptr) {
    span = tracer->StartSpan("tabula.query", request.parent_span,
                             request.trace);
  }
  Stopwatch timer;
  QueryResponse response;
  response.span_id = span.id();
  TabulaQueryResult& result = response.result;
  // Progressive-answer tagging: the generation this answer is computed
  // at, and whether appended-but-unfolded rows are scheduled to change
  // it. With a published dirty set the tag is per-cell precise; before
  // classification (dirty set empty) every answer is conservatively
  // stale while rows pend.
  result.generation = generation_;
  const bool has_pending = table_->num_rows() > refreshed_rows_;

  // Invalid-request returns leave `span` to end at scope exit; the
  // recorded span then has no result attributes, which is the
  // trace-side marker for a rejected query.
  if (!request.range.empty()) {
    // Bbox (pan/zoom) requests take the engine's spatial path.
    TABULA_RETURN_NOT_OK(QueryRange(request, has_pending, &result));
  } else {
    std::vector<uint32_t> codes;
    bool provably_empty = false;
    TABULA_RETURN_NOT_OK(ValidateEqualityTerms(encoder_, request.where,
                                               &codes, &provably_empty));
    if (provably_empty) {
      // The filter value never occurs in the data: the cell is provably
      // empty, so an empty sample is the exact answer (loss 0). Pending
      // rows may contain the value, so the emptiness claim itself is
      // stale while an ingest is in flight (coarse: the value has no
      // cell key to probe the dirty set with).
      result.empty_cell = true;
      result.stale = has_pending;
      result.sample = DatasetView(table_, {});
    } else {
      const uint64_t key = packer_.PackCodes(codes);
      result.stale = has_pending &&
                     (pending_dirty_.empty() || pending_dirty_.Contains(key));
      ServeCell(key, span, &result);
    }
  }

  if (span.recording()) {
    span.SetAttribute("terms", request.where.size());
    span.SetAttribute("from_local_sample", result.from_local_sample);
    span.SetAttribute("empty_cell", result.empty_cell);
    span.SetAttribute("sample_rows", result.sample.size());
    span.SetAttribute("unavailable_shards", result.unavailable_shards.size());
    // The span duration IS the reported latency, so trace and stats
    // cannot disagree.
    result.data_system_millis = span.End();
  } else {
    result.data_system_millis = timer.ElapsedMillis();
  }
  return response;
}

Status EngineFront::ValidateEqualityTerms(
    const KeyEncoder& encoder, const std::vector<PredicateTerm>& where,
    std::vector<uint32_t>* codes, bool* provably_empty) {
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

Result<SpatialGrid::ResolvedBBox> EngineFront::ValidateRange(
    const SpatialGrid& grid, const KeyEncoder& encoder,
    const QueryRequest& request, bool* provably_empty) {
  if (!grid.present()) {
    return Status::InvalidArgument(
        "this engine has no spatial grid (enable TabulaOptions.spatial to "
        "serve bbox queries)");
  }
  TABULA_ASSIGN_OR_RETURN(SpatialGrid::ResolvedBBox box,
                          grid.Resolve(request.range));
  for (const auto& term : request.where) {
    if (term.column == grid.options().x_column ||
        term.column == grid.options().y_column) {
      return Status::InvalidArgument(
          "cannot mix a spatial range and an equality predicate on '" +
          term.column + "'");
    }
  }
  std::vector<uint32_t> codes;
  TABULA_RETURN_NOT_OK(
      ValidateEqualityTerms(encoder, request.where, &codes, provably_empty));
  return box;
}

Status EngineFront::ServeHybrid(const ThetaContext& ctx, size_t cap,
                                std::vector<RowId> matching,
                                TabulaQueryResult* result) {
  if (matching.empty()) {
    result->empty_cell = true;
    result->sample = DatasetView(ctx.table, {});
    return Status::OK();
  }
  result->from_local_sample = true;
  if (cap == 0 || matching.size() <= cap) {
    result->sample = DatasetView(ctx.table, std::move(matching));
    return Status::OK();
  }
  TABULA_ASSIGN_OR_RETURN(
      std::vector<RowId> sample,
      Redraw(ctx, DatasetView(ctx.table, std::move(matching))));
  result->sample = DatasetView(ctx.table, std::move(sample));
  return Status::OK();
}

Status EngineFront::Refresh(RefreshStats* stats) {
  Stopwatch timer;
  RefreshStats local;
  RefreshStats* out = stats != nullptr ? stats : &local;
  *out = RefreshStats{};
  // One span per Refresh(); inert (no cost beyond one branch) without
  // an enabled tracer. The phases' own spans (a sharded engine's
  // `shard.build` and `shard.merge`) parent under it.
  Span span;
  if (Tracer* tracer = cube_options().tracer; tracer != nullptr) {
    span = tracer->StartSpan("tabula.refresh");
  }
  // Batch maintenance is exactly the streaming protocol run
  // back-to-back under the caller's one exclusive section. On failure
  // the staged plan dies here; a published dirty set stays — answers
  // keep tagging stale (rows still pend) until a later cycle commits.
  TABULA_ASSIGN_OR_RETURN(std::unique_ptr<IngestPlan> plan, PlanIngest());
  static_cast<StagedIngest*>(plan.get())->parent_span = span.id();
  BeginIngest(plan.get());
  TABULA_RETURN_NOT_OK(ExecuteIngest(plan.get()));
  TABULA_RETURN_NOT_OK(CommitIngest(std::move(plan), out));
  // The span-derived duration and RefreshStats::millis agree when traced.
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
  return Status::OK();
}

Result<std::unique_ptr<QueryEngine::IngestPlan>> EngineFront::PlanIngest() {
  const size_t n0 = refreshed_rows_;
  const size_t n1 = table_->num_rows();
  if (n1 < n0) {
    return Status::InvalidArgument(
        "base table shrank; Refresh only supports appends");
  }
  std::unique_ptr<StagedIngest> plan = NewIngestPlan();
  plan->target_rows = n1;
  plan->stats.new_rows = n1 - n0;
  plan->no_op = n1 == n0;
  if (plan->no_op) return std::unique_ptr<IngestPlan>(std::move(plan));

  // Failure contract: every error return from here to the commit
  // (injected faults included) happens before any query-visible
  // mutation — fallible work is staged into the plan and committed in
  // one infallible block by CommitIngest — so an abandoned plan leaves
  // the engine answering queries exactly as before, generation
  // unchanged.
  TABULA_FAULT_POINT("refresh.begin");
  const TabulaOptions& options = cube_options();
  // Re-make the encoder: appended rows need fresh int64 code maps, and
  // this is where unseen attribute values surface.
  TABULA_ASSIGN_OR_RETURN(plan->new_encoder,
                          KeyEncoder::Make(*table_, options.cubed_attributes));
  for (size_t k = 0; k < plan->new_encoder.num_columns(); ++k) {
    if (plan->new_encoder.Cardinality(k) != encoder_.Cardinality(k)) {
      // A new attribute value shifts the packed-key layout: every
      // stored key would be stale. ExecuteIngest rebuilds from scratch;
      // the dirty set stays empty, which staleness tagging reads as
      // "every cell is dirty".
      plan->full_rebuild = true;
      plan->stats.full_rebuild = true;
      return std::unique_ptr<IngestPlan>(std::move(plan));
    }
  }
  // Redraw the global sample over the grown table exactly as a
  // from-scratch build would (same seed, same Serfling size; the
  // current sample is itself the bottom-k of [0, n0)). When the loss's
  // accumulated state is reference-independent (mean, regression,
  // top-k) the retained states stay valid under the new binding, so
  // classification runs against the fresh sample and the maintained
  // iceberg set is IDENTICAL to a from-scratch build's (the
  // ingest_diff_test contract), not merely θ-bounded.
  // Reference-dependent losses (min-distance) would need a full
  // re-accumulation to rebind, so they keep the original sample; the θ
  // guarantee holds either way.
  if (!options.effective_loss()->StateDependsOnReference()) {
    plan->staged_global_rows = ExtendBottomKSample(
        *table_, global_sample_rows_, n0, n1,
        SerflingSampleSize(options.serfling_epsilon, options.serfling_delta),
        options.seed);
    plan->staged_global = DatasetView(table_, plan->staged_global_rows);
    plan->adopt_global = true;
  }
  TABULA_RETURN_NOT_OK(PlanChanges(plan.get()));
  return std::unique_ptr<IngestPlan>(std::move(plan));
}

void EngineFront::BeginIngest(IngestPlan* plan) {
  if (plan->no_op) return;
  // Publish the dirty set for precise staleness tagging. A replanned
  // cycle (after an execute failure) recomputes a superset over the
  // same base, so replacing — not merging — is correct. Full rebuilds
  // publish an empty set: every cell reads as stale while rows pend.
  pending_dirty_.clear();
  for (uint64_t key : plan->dirty_keys) pending_dirty_.Insert(key);
}

Status EngineFront::ExecuteIngest(IngestPlan* plan) {
  auto* p = static_cast<StagedIngest*>(plan);
  if (p->no_op) return Status::OK();
  if (p->full_rebuild) {
    TABULA_ASSIGN_OR_RETURN(p->fresh, Rebuild());
    // The rebuild folded everything visible at its start, which may
    // exceed the planned target if appends landed in between.
    p->target_rows = p->fresh->refreshed_rows_;
  } else {
    TABULA_RETURN_NOT_OK(ExecuteChanges(p));
  }
  p->executed = true;
  return Status::OK();
}

Status EngineFront::CommitIngest(std::unique_ptr<IngestPlan> plan,
                                 RefreshStats* stats) {
  auto* p = static_cast<StagedIngest*>(plan.get());
  if (p->no_op) {
    if (stats != nullptr) *stats = p->stats;
    return Status::OK();
  }
  if (!p->executed) {
    return Status::Internal("CommitIngest before ExecuteIngest");
  }
  // ---- Commit point: nothing below can fail. ----
  if (p->full_rebuild) {
    AdoptRebuild(std::move(*p->fresh));
  } else {
    encoder_ = std::move(p->new_encoder);
    if (p->adopt_global) {
      global_sample_rows_ = std::move(p->staged_global_rows);
      global_sample_ = std::move(p->staged_global);
    }
    CommitChanges(p);
  }
  refreshed_rows_ = p->target_rows;
  pending_dirty_.clear();
  ++generation_;
  if (stats != nullptr) *stats = p->stats;
  for (auto& [id, listener] : refresh_listeners_) listener();
  return Status::OK();
}

uint64_t EngineFront::AddRefreshListener(std::function<void()> listener) {
  uint64_t id = next_listener_id_++;
  refresh_listeners_.emplace_back(id, std::move(listener));
  return id;
}

void EngineFront::RemoveRefreshListener(uint64_t id) {
  for (auto it = refresh_listeners_.begin(); it != refresh_listeners_.end();
       ++it) {
    if (it->first == id) {
      refresh_listeners_.erase(it);
      return;
    }
  }
}

}  // namespace tabula
