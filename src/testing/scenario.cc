#include "testing/scenario.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <iterator>
#include <limits>
#include <memory>
#include <set>
#include <unordered_map>
#include <utility>

#include "common/rng.h"
#include "core/tabula.h"
#include "data/synthetic_gen.h"
#include "data/workload.h"
#include "ingest/ingestor.h"
#include "loss/loss_registry.h"
#include "net/client.h"
#include "net/server.h"
#include "obs/trace.h"
#include "serve/query_server.h"
#include "shard/sharded_tabula.h"
#include "storage/predicate.h"
#include "testing/fault_injection.h"

namespace tabula {

namespace {

/// Everything one run needs, bundled so the per-op helpers stay small.
struct SoakContext {
  const SoakOptions* opt = nullptr;
  Rng rng{1};

  std::unique_ptr<Table> table;  ///< live base table (appended to)
  std::unique_ptr<Table> donor;  ///< append source, same schema specs
  size_t donor_pos = 0;
  std::vector<std::string> attrs;

  std::unique_ptr<Tracer> tracer;
  std::unique_ptr<Tabula> tabula;          ///< shards <= 1
  std::unique_ptr<ShardedTabula> sharded;  ///< shards >= 2
  /// Whichever of the two is live; every per-op helper goes through
  /// this, so the checks are engine-agnostic.
  QueryEngine* engine = nullptr;
  const LossFunction* loss = nullptr;  ///< effective loss of the engine
  double theta = 0.0;
  std::unique_ptr<QueryServer> server;
  /// --net mode: the loopback socket pair the serve-path ops travel
  /// through (declared after `server` so they tear down first).
  std::unique_ptr<TabulaNetServer> net_server;
  std::unique_ptr<TabulaClient> net_client;
  std::unique_ptr<Ingestor> ingestor;  ///< --ingest mode only

  /// Serve-path dispatch: over the wire in --net mode, direct
  /// otherwise. Mutation ops (Refresh/Save/Load/ingest) always stay
  /// in-process.
  Result<ServeAnswer> ServeQuery(const QueryRequest& request) {
    if (net_client != nullptr) return net_client->Query(request);
    return server->Query(request);
  }
  Result<std::vector<BatchItem>> ServeBatch(
      const std::vector<QueryRequest>& requests) {
    if (net_client != nullptr) return net_client->BatchQuery(requests);
    return server->BatchQuery(requests);
  }

  std::string cube_path;
  bool file_valid = false;      ///< a successful Save exists
  uint64_t file_generation = 0; ///< generation at that Save

  /// --store-budget mode: the probe-derived byte budget the live engine
  /// runs under (0 when the mode is off).
  uint64_t store_budget = 0;

  /// Resident sample bytes of the live engine (the budget invariant's
  /// left-hand side), engine-agnostic like everything else here.
  uint64_t StoreBytes() const {
    return sharded != nullptr ? sharded->StoreStats().resident_bytes
                              : tabula->sample_store().bytes();
  }

  /// Mirror of the armed fault points (FaultInjector is process-global;
  /// the run owns it exclusively via ScopedFaultClear).
  std::set<std::string> armed;
  bool refresh_fault_armed = false;
  bool persistence_fault_armed = false;
  bool spatial_fault_armed = false;

  size_t answers_seen = 0;  ///< drives the every-Nth θ-check counter
  size_t bypass_queries = 0;

  SoakReport report;

  void Trace(std::string line) {
    if (opt->verbose) std::fprintf(stderr, "[soak] %s\n", line.c_str());
    report.trace.push_back(std::move(line));
  }
  void Violation(size_t step, std::string what) {
    report.violations.push_back("step=" + std::to_string(step) + " " +
                                std::move(what));
  }
};

std::string DescribeAnswer(const ServeAnswer& a) {
  const TabulaQueryResult& r = *a.result;
  std::string out = a.cache_hit ? "hit" : "miss";
  if (r.empty_cell) {
    out += " empty";
  } else {
    out += r.from_local_sample ? " local" : " global";
  }
  out += " n=" + std::to_string(r.sample.size());
  return out;
}

/// Same as DescribeAnswer but without the cache bit: batch items run
/// concurrently, so whether a duplicate key hit the cache depends on
/// scheduling — everything else about the answer is deterministic.
std::string DescribeItem(const ServeAnswer& a) {
  const TabulaQueryResult& r = *a.result;
  std::string out;
  if (r.empty_cell) {
    out = "empty";
  } else {
    out = r.from_local_sample ? "local" : "global";
  }
  out += " n=" + std::to_string(r.sample.size());
  return out;
}

/// Served answer == direct cube lookup (catches stale cache entries
/// surviving a refresh fence, and cache/value divergence in general).
void CheckCoherence(SoakContext& ctx, size_t step,
                    const std::vector<PredicateTerm>& where,
                    const TabulaQueryResult& served, const char* who) {
  Result<QueryResponse> direct = ctx.engine->Query(QueryRequest(where));
  if (!direct.ok()) {
    ctx.Violation(step, std::string(who) + " direct re-query failed: " +
                            direct.status().ToString());
    return;
  }
  const TabulaQueryResult& want = direct.value().result;
  if (served.from_local_sample != want.from_local_sample ||
      served.empty_cell != want.empty_cell ||
      served.sample.ToRowIds() != want.sample.ToRowIds()) {
    ctx.Violation(step, std::string(who) +
                            " served answer diverges from live cube "
                            "(stale generation?)");
  }
}

/// The paper's deterministic guarantee: loss(truth, sample) <= θ, with
/// truth gathered by a direct predicate scan (no cube code involved).
/// Tolerance covers summation-order FP noise between the production
/// LossState arithmetic and this direct evaluation.
void CheckTheta(SoakContext& ctx, size_t step,
                const std::vector<PredicateTerm>& where,
                const TabulaQueryResult& served) {
  ++ctx.report.theta_checks;
  Result<BoundPredicate> bound = BoundPredicate::Bind(*ctx.table, where);
  if (!bound.ok()) {
    ctx.Violation(step, "theta-check bind failed: " +
                            bound.status().ToString());
    return;
  }
  std::vector<RowId> truth = bound.value().FilterAll();
  if (truth.empty() != served.empty_cell) {
    ctx.Violation(step, "empty_cell=" +
                            std::to_string(served.empty_cell) +
                            " but ground truth has " +
                            std::to_string(truth.size()) + " rows");
    return;
  }
  if (truth.empty()) return;
  DatasetView truth_view(ctx.table.get(), std::move(truth));
  Result<double> l = ctx.loss->Loss(truth_view, served.sample);
  if (!l.ok()) {
    ctx.Violation(step, "theta-check loss failed: " + l.status().ToString());
    return;
  }
  const double theta = ctx.theta;
  if (l.value() > theta * (1.0 + 1e-7) + 1e-12) {
    ctx.Violation(step, "theta bound broken: loss=" +
                            std::to_string(l.value()) +
                            " > theta=" + std::to_string(theta));
  }
}

/// --store-budget's tentpole invariant, asserted after every op:
/// resident sample bytes never exceed the budget, no matter what the op
/// did (queries promote, refreshes resample, loads adopt tier state).
void CheckStoreBudget(SoakContext& ctx, size_t step) {
  if (!ctx.opt->store_budget) return;
  ++ctx.report.store_checks;
  const uint64_t bytes = ctx.StoreBytes();
  if (bytes > ctx.store_budget) {
    ctx.Violation(step, "store budget broken: bytes=" +
                            std::to_string(bytes) +
                            " > budget=" + std::to_string(ctx.store_budget));
  }
}

/// --store-budget: no fault in the soak menu may fail a promote (the
/// error seams on the concurrent store paths are delay-only), so a
/// store-degraded answer always means the tiered store lost sample
/// bytes it was required to restore.
void CheckNotStoreDegraded(SoakContext& ctx, size_t step,
                           const TabulaQueryResult& r, const char* who) {
  if (ctx.opt->store_budget && r.store_degraded) {
    ctx.Violation(step, std::string(who) +
                            " answer store-degraded with no store error "
                            "fault armed");
  }
}

std::string DescribeRange(const SpatialRange& range) {
  std::string out = "box";
  for (const SpatialBound& b : range.bounds) {
    out += " " + b.column + "=[" + std::to_string(b.lo) + "," +
           std::to_string(b.hi) + "]";
  }
  return out;
}

/// Disarm the spatial seams (the only error faults on the query path);
/// returns true if any was armed.
bool DisarmSpatialFaults(SoakContext& ctx) {
  bool any = false;
  for (const char* p : {"spatial.plan", "spatial.scan"}) {
    if (ctx.armed.erase(p) > 0) {
      FaultInjector::Global().Disarm(p);
      any = true;
    }
  }
  ctx.spatial_fault_armed = false;
  return any;
}

/// Range-op θ-check: truth from a direct inclusive scan of the x/y
/// double columns conjoined with the equality terms — zero grid code
/// involved, mirroring the range-oracle differential suite.
void CheckSpatialTheta(SoakContext& ctx, size_t step,
                       const QueryRequest& req,
                       const TabulaQueryResult& served) {
  ++ctx.report.theta_checks;
  const double inf = std::numeric_limits<double>::infinity();
  double x_lo = -inf, x_hi = inf, y_lo = -inf, y_hi = inf;
  for (const SpatialBound& b : req.range.bounds) {
    if (b.column == "x") {
      x_lo = b.lo;
      x_hi = b.hi;
    } else {
      y_lo = b.lo;
      y_hi = b.hi;
    }
  }
  const auto* xc =
      ctx.table->ColumnByName("x").value()->As<DoubleColumn>();
  const auto* yc =
      ctx.table->ColumnByName("y").value()->As<DoubleColumn>();
  std::vector<RowId> truth;
  for (RowId r = 0; r < ctx.table->num_rows(); ++r) {
    double x = xc->At(r);
    double y = yc->At(r);
    if (x >= x_lo && x <= x_hi && y >= y_lo && y <= y_hi) {
      truth.push_back(r);
    }
  }
  if (!req.where.empty()) {
    Result<BoundPredicate> bound =
        BoundPredicate::Bind(*ctx.table, req.where);
    if (!bound.ok()) {
      ctx.Violation(step, "range theta-check bind failed: " +
                              bound.status().ToString());
      return;
    }
    truth = bound.value().FilterRows(truth);
  }
  if (truth.empty() != served.empty_cell) {
    ctx.Violation(step, "range empty_cell=" +
                            std::to_string(served.empty_cell) +
                            " but ground truth has " +
                            std::to_string(truth.size()) + " rows");
    return;
  }
  if (truth.empty()) return;
  DatasetView truth_view(ctx.table.get(), std::move(truth));
  Result<double> l = ctx.loss->Loss(truth_view, served.sample);
  if (!l.ok()) {
    ctx.Violation(step,
                  "range theta-check loss failed: " + l.status().ToString());
    return;
  }
  if (l.value() > ctx.theta * (1.0 + 1e-7) + 1e-12) {
    ctx.Violation(step, "range theta bound broken: loss=" +
                            std::to_string(l.value()) +
                            " > theta=" + std::to_string(ctx.theta));
  }
}

Result<std::vector<WorkloadQuery>> DrawQueries(SoakContext& ctx, size_t n) {
  WorkloadOptions wopt;
  wopt.num_queries = n;
  wopt.seed = static_cast<uint64_t>(ctx.rng.UniformInt(0, (1LL << 30)));
  return GenerateWorkload(*ctx.table, ctx.attrs, wopt);
}

Status OpQuery(SoakContext& ctx, size_t step) {
  TABULA_ASSIGN_OR_RETURN(std::vector<WorkloadQuery> qs, DrawQueries(ctx, 1));
  const WorkloadQuery& q = qs[0];
  QueryRequest req(q.where);
  if (ctx.rng.Bernoulli(0.25)) {
    req.consistency = ConsistencyHint::kBypassCache;
    ++ctx.bypass_queries;
  }
  Result<ServeAnswer> ans = ctx.ServeQuery(req);
  ++ctx.report.queries;
  if (!ans.ok()) {
    // No error fault is ever armed on the serve path (see OpFaultToggle),
    // so a failed query is always a violation.
    ctx.Violation(step, "query failed: " + ans.status().ToString());
    ctx.Trace("step=" + std::to_string(step) + " query " + q.ToString() +
              " -> ERROR " + std::string(StatusCodeName(ans.status().code())));
    return Status::OK();
  }
  const ServeAnswer& a = ans.value();
  if (a.degraded) ctx.Violation(step, "query degraded without a deadline");
  ctx.Trace("step=" + std::to_string(step) + " query " + q.ToString() +
            (req.consistency == ConsistencyHint::kBypassCache ? " bypass"
                                                              : "") +
            " -> " + DescribeAnswer(a));
  CheckNotStoreDegraded(ctx, step, *a.result, "query");
  CheckCoherence(ctx, step, q.where, *a.result, "query");
  if (++ctx.answers_seen % ctx.opt->check_every == 0) {
    CheckTheta(ctx, step, q.where, *a.result);
  }
  return Status::OK();
}

Status OpBatch(SoakContext& ctx, size_t step) {
  size_t n = 2 + static_cast<size_t>(ctx.rng.UniformInt(0, 6));
  TABULA_ASSIGN_OR_RETURN(std::vector<WorkloadQuery> qs, DrawQueries(ctx, n));
  std::vector<QueryRequest> reqs;
  reqs.reserve(qs.size());
  for (const auto& q : qs) reqs.emplace_back(q.where);
  Result<std::vector<BatchItem>> batch = ctx.ServeBatch(reqs);
  ++ctx.report.batches;
  ctx.report.batch_items += qs.size();
  if (!batch.ok()) {
    ctx.Violation(step, "batch failed: " + batch.status().ToString());
    return Status::OK();
  }
  std::string line = "step=" + std::to_string(step) + " batch n=" +
                     std::to_string(qs.size());
  for (size_t i = 0; i < batch.value().size(); ++i) {
    const BatchItem& item = batch.value()[i];
    if (!item.status.ok()) {
      ctx.Violation(step, "batch item failed: " + item.status.ToString());
      line += " [" + qs[i].ToString() + " -> ERROR]";
      continue;
    }
    if (item.answer.degraded) {
      ctx.Violation(step, "batch item degraded without a deadline");
    }
    line += " [" + qs[i].ToString() + " -> " + DescribeItem(item.answer) +
            "]";
    CheckNotStoreDegraded(ctx, step, *item.answer.result, "batch");
    CheckCoherence(ctx, step, qs[i].where, *item.answer.result, "batch");
    if (++ctx.answers_seen % ctx.opt->check_every == 0) {
      CheckTheta(ctx, step, qs[i].where, *item.answer.result);
    }
  }
  ctx.Trace(std::move(line));
  return Status::OK();
}

/// --spatial mode: one sequential range query — a seed-derived bbox
/// over the grid columns, hybrid with an equality conjunct on a
/// quarter of the draws — checked against the direct-scan oracle. The
/// spatial.plan / spatial.scan error seams only fire here (equality
/// queries never enter the grid, batches never carry ranges), so an
/// injected failure is tolerated iff a spatial fault is armed; it must
/// leave the engine untouched, and the post-disarm retry must succeed.
Status OpSpatialQuery(SoakContext& ctx, size_t step) {
  QueryRequest req;
  // Per-axis draw: unbounded / point / ordinary interval. The grid
  // extent is [0,1] on both axes (synthetic x/y are clamped), so these
  // boxes range from empty intersections to the full extent.
  auto draw_axis = [&](const char* column) {
    switch (ctx.rng.UniformInt(0, 3)) {
      case 0:
        return;  // unconstrained axis
      case 1: {
        double v = ctx.rng.UniformDouble(0.0, 1.0);
        req.range.bounds.push_back({column, v, v});
        return;
      }
      default: {
        double a = ctx.rng.UniformDouble(0.0, 1.0);
        double b = ctx.rng.UniformDouble(0.0, 1.0);
        req.range.bounds.push_back(
            {column, std::min(a, b), std::max(a, b)});
        return;
      }
    }
  };
  draw_axis("x");
  draw_axis("y");
  std::string desc = DescribeRange(req.range);
  if (ctx.rng.Bernoulli(0.25)) {
    TABULA_ASSIGN_OR_RETURN(std::vector<WorkloadQuery> qs,
                            DrawQueries(ctx, 1));
    req.where = qs[0].where;
    desc += " & " + qs[0].ToString();
  }
  if (ctx.rng.Bernoulli(0.25)) {
    req.consistency = ConsistencyHint::kBypassCache;
    ++ctx.bypass_queries;
    desc += " bypass";
  }

  const uint64_t gen_before = ctx.engine->generation();
  Result<ServeAnswer> ans = ctx.ServeQuery(req);
  ++ctx.report.queries;
  ++ctx.report.spatial_queries;
  std::string line = "step=" + std::to_string(step) + " rquery " + desc;
  if (!ans.ok()) {
    ++ctx.report.injected_spatial_failures;
    line += " -> ERROR " +
            std::string(StatusCodeName(ans.status().code()));
    if (!ctx.spatial_fault_armed) {
      ctx.Violation(step, "range query failed with no spatial fault "
                          "armed: " + ans.status().ToString());
    }
    // Boundary-scan atomicity: a failed range query is read-only — the
    // engine must be exactly as it was.
    if (ctx.engine->generation() != gen_before) {
      ctx.Violation(step, "failed range query advanced the generation");
    }
    DisarmSpatialFaults(ctx);
    ans = ctx.ServeQuery(req);
    ++ctx.report.queries;
    ++ctx.report.spatial_queries;
    if (req.consistency == ConsistencyHint::kBypassCache) {
      ++ctx.bypass_queries;
    }
    if (!ans.ok()) {
      ctx.Violation(step, "range query retry failed after disarm: " +
                              ans.status().ToString());
      ctx.Trace(std::move(line));
      return Status::OK();
    }
    line += " retry";
  }
  const ServeAnswer& a = ans.value();
  if (a.degraded) {
    ctx.Violation(step, "range query degraded without a deadline");
  }
  const TabulaQueryResult& served = *a.result;
  // Sharded engines degrade instead of failing when an injected
  // spatial.plan / spatial.scan fault takes out one shard mid-scatter:
  // the global sample stands in for the lost slice, θ is voided, and
  // `unavailable_shards` signals it. That is the documented contract —
  // but it is only legal while a spatial fault was armed, and a
  // degraded answer is exempt from the coherence and θ checks (the
  // direct re-query may draw a different fault budget, and the bound
  // no longer holds by design).
  if (!served.unavailable_shards.empty()) {
    line += " shard-degraded=" +
            std::to_string(served.unavailable_shards.size());
    if (!ctx.spatial_fault_armed) {
      ctx.Violation(step, "range answer lost a shard with no spatial "
                          "fault armed: " + served.shard_error.ToString());
    }
    ctx.Trace(std::move(line));
    return Status::OK();
  }
  line += " -> " + DescribeAnswer(a);
  ctx.Trace(std::move(line));
  CheckNotStoreDegraded(ctx, step, served, "range");

  // The coherence re-query runs the grid path again; with a spatial
  // fault still armed (trigger budget unspent) it may absorb an
  // injection — disarm and retry once, same contract as above.
  QueryRequest direct(req.where);
  direct.range = req.range;
  Result<QueryResponse> want = ctx.engine->Query(direct);
  if (!want.ok() && ctx.spatial_fault_armed) {
    DisarmSpatialFaults(ctx);
    want = ctx.engine->Query(direct);
  }
  if (!want.ok()) {
    ctx.Violation(step, "range direct re-query failed: " +
                            want.status().ToString());
    return Status::OK();
  }
  if (!want.value().result.unavailable_shards.empty()) {
    // Only the re-query absorbed an injection: its θ bound is voided,
    // so the comparison below would be vacuous. Deterministic either
    // way — the fault budget is part of the seeded schedule.
    return Status::OK();
  }
  if (served.from_local_sample != want.value().result.from_local_sample ||
      served.empty_cell != want.value().result.empty_cell ||
      served.sample.ToRowIds() !=
          want.value().result.sample.ToRowIds()) {
    ctx.Violation(step, "range served answer diverges from live cube "
                        "(stale generation?)");
  }
  if (++ctx.answers_seen % ctx.opt->check_every == 0) {
    CheckSpatialTheta(ctx, step, req, served);
  }
  return Status::OK();
}

Status OpRefresh(SoakContext& ctx, size_t step) {
  size_t m = 1 + static_cast<size_t>(ctx.rng.UniformInt(0, 199));
  for (size_t i = 0; i < m; ++i) {
    RowId row = static_cast<RowId>(ctx.donor_pos % ctx.donor->num_rows());
    ++ctx.donor_pos;
    TABULA_RETURN_NOT_OK(ctx.table->AppendRowFrom(*ctx.donor, row));
  }

  const uint64_t gen_before = ctx.engine->generation();
  Tabula::RefreshStats stats;
  Status st = ctx.server->Refresh(&stats);
  std::string line = "step=" + std::to_string(step) + " refresh rows=" +
                     std::to_string(m);
  if (!st.ok()) {
    ++ctx.report.injected_refresh_failures;
    line += " -> ERROR " + std::string(StatusCodeName(st.code()));
    if (!ctx.refresh_fault_armed) {
      ctx.Violation(step, "refresh failed with no refresh fault armed: " +
                              st.ToString());
    }
    // Failure atomicity: a failed Refresh must leave the cube exactly
    // as it was — same generation, still answering queries.
    if (ctx.engine->generation() != gen_before) {
      ctx.Violation(step, "failed refresh advanced the generation");
    }
    // Clear the injected fault and retry; the cube must recover.
    for (const char* p :
         {"refresh.begin", "refresh.sample", "shard.build", "shard.merge"}) {
      if (ctx.armed.erase(p) > 0) FaultInjector::Global().Disarm(p);
    }
    ctx.refresh_fault_armed = false;
    st = ctx.server->Refresh(&stats);
    if (!st.ok()) {
      ctx.Violation(step, "refresh retry failed after disarm: " +
                              st.ToString());
      ctx.Trace(std::move(line));
      return Status::OK();
    }
    line += " retry";
  }
  ++ctx.report.refreshes;
  line += " -> gen=" + std::to_string(ctx.engine->generation()) +
          " new_rows=" + std::to_string(stats.new_rows) +
          " new_ice=" + std::to_string(stats.new_iceberg_cells) +
          " dropped=" + std::to_string(stats.dropped_iceberg_cells) +
          " resampled=" + std::to_string(stats.resampled_cells) +
          (stats.full_rebuild ? " rebuild" : "");
  if (ctx.engine->generation() != gen_before + 1) {
    ctx.Violation(step, "successful refresh did not advance generation "
                        "by exactly one");
  }
  ctx.Trace(std::move(line));

  // Staleness probe: a cached-path answer right after the refresh must
  // match a cache-bypassing one — the fence may not leak one stale
  // entry. Both go through the server (they count as queries).
  TABULA_ASSIGN_OR_RETURN(std::vector<WorkloadQuery> qs, DrawQueries(ctx, 1));
  QueryRequest cached(qs[0].where);
  QueryRequest bypass(qs[0].where);
  bypass.consistency = ConsistencyHint::kBypassCache;
  Result<ServeAnswer> a1 = ctx.ServeQuery(cached);
  Result<ServeAnswer> a2 = ctx.ServeQuery(bypass);
  ctx.report.queries += 2;
  ++ctx.bypass_queries;
  if (!a1.ok() || !a2.ok()) {
    ctx.Violation(step, "post-refresh probe failed");
    return Status::OK();
  }
  if (a1.value().result->sample.ToRowIds() !=
      a2.value().result->sample.ToRowIds()) {
    ctx.Violation(step, "post-refresh probe: cached path diverges from "
                        "bypass path (stale cache after fence)");
  }
  return Status::OK();
}

/// --ingest mode's counterpart of OpRefresh: the appended rows flow
/// through the Ingestor (journal write → route → sync maintenance
/// cycle). Invariants checked: a failed Append leaves the generation
/// untouched with answers honestly tagged stale while rows pend, and a
/// post-disarm Drain() converges; a successful Append advances the
/// generation by exactly one and leaves nothing pending.
Status OpIngest(SoakContext& ctx, size_t step) {
  size_t m = 1 + static_cast<size_t>(ctx.rng.UniformInt(0, 199));
  std::vector<std::vector<Value>> rows;
  rows.reserve(m);
  for (size_t i = 0; i < m; ++i) {
    RowId row = static_cast<RowId>(ctx.donor_pos % ctx.donor->num_rows());
    ++ctx.donor_pos;
    std::vector<Value> boxed;
    boxed.reserve(ctx.donor->num_columns());
    for (size_t c = 0; c < ctx.donor->num_columns(); ++c) {
      boxed.push_back(ctx.donor->column(c).GetValue(row));
    }
    rows.push_back(std::move(boxed));
  }

  const uint64_t gen_before = ctx.engine->generation();
  Status st = ctx.ingestor->Append(rows);
  ++ctx.report.ingests;
  std::string line =
      "step=" + std::to_string(step) + " ingest rows=" + std::to_string(m);
  if (!st.ok()) {
    ++ctx.report.injected_ingest_failures;
    line += " -> ERROR " + std::string(StatusCodeName(st.code()));
    if (!ctx.refresh_fault_armed) {
      ctx.Violation(step, "ingest failed with no ingest fault armed: " +
                              st.ToString());
    }
    // Failure atomicity: the cube stays at the previous generation.
    if (ctx.engine->generation() != gen_before) {
      ctx.Violation(step, "failed ingest advanced the generation");
    }
    // Honest staleness: while appended rows pend, an answer for a cell
    // holding one of those rows must carry the stale tag. (Cells the
    // pending rows do not touch may legitimately stay fresh once the
    // cycle has published its dirty set, so probe the finest cell of
    // the first appended row — that one is dirty by construction.)
    if (ctx.ingestor->PendingRows() > 0) {
      std::vector<PredicateTerm> where;
      for (const std::string& attr : ctx.attrs) {
        TABULA_ASSIGN_OR_RETURN(size_t col,
                                ctx.table->schema().FieldIndex(attr));
        where.push_back({attr, CompareOp::kEq, rows.front()[col]});
      }
      QueryRequest probe(where);
      probe.consistency = ConsistencyHint::kBypassCache;
      Result<ServeAnswer> a = ctx.ServeQuery(probe);
      ++ctx.report.queries;
      ++ctx.bypass_queries;
      if (!a.ok()) {
        ctx.Violation(step, "stale probe failed: " + a.status().ToString());
      } else if (!a.value().result->stale) {
        ctx.Violation(step, "pending ingest rows but answer not tagged "
                            "stale");
      }
    }
    // Clear the injected faults and drain; the cube must recover.
    for (const char* p :
         {"ingest.route", "ingest.merge", "ingest.resample",
          "ingest.journal.write", "refresh.begin", "refresh.sample",
          "shard.build", "shard.merge"}) {
      if (ctx.armed.erase(p) > 0) FaultInjector::Global().Disarm(p);
    }
    ctx.refresh_fault_armed = false;
    Status drained = ctx.ingestor->Drain();
    if (!drained.ok()) {
      ctx.Violation(step, "ingest drain failed after disarm: " +
                              drained.ToString());
      ctx.Trace(std::move(line));
      return Status::OK();
    }
    line += " drained";
  } else if (ctx.engine->generation() != gen_before + 1) {
    ctx.Violation(step, "successful ingest did not advance generation by "
                        "exactly one");
  }
  if (ctx.ingestor->PendingRows() != 0) {
    ctx.Violation(step, "rows still pending after a drained ingest op");
  }
  line += " -> gen=" + std::to_string(ctx.engine->generation());
  ctx.Trace(std::move(line));

  // Post-commit probe: the cached path must agree with a bypassing one
  // (the ingest commit fenced the cache), mirroring OpRefresh.
  TABULA_ASSIGN_OR_RETURN(std::vector<WorkloadQuery> qs, DrawQueries(ctx, 1));
  QueryRequest cached(qs[0].where);
  QueryRequest bypass(qs[0].where);
  bypass.consistency = ConsistencyHint::kBypassCache;
  Result<ServeAnswer> a1 = ctx.ServeQuery(cached);
  Result<ServeAnswer> a2 = ctx.ServeQuery(bypass);
  ctx.report.queries += 2;
  ++ctx.bypass_queries;
  if (!a1.ok() || !a2.ok()) {
    ctx.Violation(step, "post-ingest probe failed");
    return Status::OK();
  }
  if (a1.value().result->sample.ToRowIds() !=
      a2.value().result->sample.ToRowIds()) {
    ctx.Violation(step, "post-ingest probe: cached path diverges from "
                        "bypass path (stale cache after fence)");
  }
  if (a2.value().result->stale) {
    ctx.Violation(step, "answer tagged stale with no pending ingest rows");
  }
  return Status::OK();
}

Status OpSave(SoakContext& ctx, size_t step) {
  Status st = ctx.engine->Save(ctx.cube_path);
  std::string line = "step=" + std::to_string(step) + " save";
  if (st.ok()) {
    ++ctx.report.saves;
    ctx.file_valid = true;
    ctx.file_generation = ctx.engine->generation();
    line += " -> ok gen=" + std::to_string(ctx.file_generation);
  } else {
    ++ctx.report.injected_save_failures;
    line += " -> ERROR " + std::string(StatusCodeName(st.code()));
    if (!ctx.persistence_fault_armed) {
      ctx.Violation(step, "save failed with no persistence fault armed: " +
                              st.ToString());
    }
    // Atomicity: a failed Save must not clobber the previous file —
    // verified by the next OpLoad via the untouched file_generation.
  }
  // Never leave a temp file behind, success or failure.
  std::error_code ec;
  if (std::filesystem::exists(ctx.cube_path + ".tmp", ec)) {
    ctx.Violation(step, "save left a .tmp file behind");
  }
  ctx.Trace(std::move(line));
  return Status::OK();
}

Status OpLoad(SoakContext& ctx, size_t step) {
  ++ctx.report.loads;
  std::unique_ptr<QueryEngine> loaded;
  Status load_status = Status::OK();
  if (ctx.sharded != nullptr) {
    Result<std::unique_ptr<ShardedTabula>> r =
        ShardedTabula::Load(*ctx.table, ctx.sharded->options(), ctx.cube_path);
    if (r.ok()) {
      loaded = std::move(r).value();
    } else {
      load_status = r.status();
    }
  } else {
    TabulaOptions opts = ctx.tabula->options();
    Result<std::unique_ptr<Tabula>> r =
        Tabula::Load(*ctx.table, std::move(opts), ctx.cube_path);
    if (r.ok()) {
      loaded = std::move(r).value();
    } else {
      load_status = r.status();
    }
  }
  std::string line = "step=" + std::to_string(step) + " load";
  const bool fresh_file =
      ctx.file_valid && ctx.file_generation == ctx.engine->generation();
  if (loaded == nullptr) {
    line += " -> ERROR " + std::string(StatusCodeName(load_status.code()));
    if (!ctx.file_valid) {
      // Expected: nothing was ever saved (or every save failed).
    } else if (fresh_file && !ctx.persistence_fault_armed) {
      ctx.Violation(step, "load of a current-generation file failed: " +
                              load_status.ToString());
    }
    // A stale file (generation moved on → table grew → fingerprint
    // mismatch) or an armed read fault may fail; both are correct.
    ctx.Trace(std::move(line));
    return Status::OK();
  }
  line += " -> ok";
  if (!ctx.file_valid) {
    ctx.Violation(step, "load succeeded but no save ever succeeded");
  } else if (!fresh_file) {
    ctx.Violation(step, "load accepted a cube saved at generation " +
                            std::to_string(ctx.file_generation) +
                            " against the grown table (stale cube)");
  } else {
    // The restored cube must answer exactly like the live one.
    TABULA_ASSIGN_OR_RETURN(std::vector<WorkloadQuery> qs,
                            DrawQueries(ctx, 3));
    for (const auto& q : qs) {
      Result<QueryResponse> a = loaded->Query(QueryRequest(q.where));
      Result<QueryResponse> b = ctx.engine->Query(QueryRequest(q.where));
      if (!a.ok() || !b.ok()) {
        ctx.Violation(step, "load probe query failed");
        continue;
      }
      if (a.value().result.sample.ToRowIds() !=
          b.value().result.sample.ToRowIds()) {
        ctx.Violation(step, "loaded cube answers differently from the "
                            "live cube for " + q.ToString());
      }
    }
  }
  ctx.Trace(std::move(line));
  return Status::OK();
}

void OpFaultToggle(SoakContext& ctx, size_t step) {
  ++ctx.report.fault_toggles;
  if (!ctx.armed.empty() && ctx.rng.Bernoulli(0.45)) {
    FaultInjector::Global().DisarmAll();
    ctx.armed.clear();
    ctx.refresh_fault_armed = false;
    ctx.persistence_fault_armed = false;
    ctx.spatial_fault_armed = false;
    ctx.Trace("step=" + std::to_string(step) + " fault disarm-all");
    return;
  }
  // Error faults go only on single-threaded, deterministic paths
  // (persistence, refresh); concurrent paths (thread pool, admission)
  // get delay-only faults, so which request absorbs an injection never
  // depends on scheduling — the property replay-by-seed relies on.
  // serve.execute error injection is covered by fault_injection_test.
  struct MenuEntry {
    const char* point;
    bool fail;
  };
  static constexpr MenuEntry kMenu[] = {
      {"persistence.open", true},   {"persistence.write", true},
      {"persistence.read", true},   {"refresh.begin", true},
      {"refresh.sample", true},     {"threadpool.dispatch", false},
      {"serve.admit", false},       {"serve.refresh", false},
  };
  // Sharded runs add the shard seams. shard.build / shard.merge sit on
  // the externally-serialized Refresh path, so error faults stay
  // deterministic; shard.query is hit from concurrent batch items, so
  // it gets delays only — error injection on the scatter path (degraded
  // answers) is covered single-threaded by tests/shard_fault_test.cc.
  static constexpr MenuEntry kShardMenu[] = {
      {"shard.build", true},
      {"shard.merge", true},
      {"shard.query", false},
  };
  // --ingest runs swap OpRefresh for OpIngest, whose seams sit on the
  // same externally-serialized maintenance path — error faults stay
  // deterministic.
  static constexpr MenuEntry kIngestMenu[] = {
      {"ingest.route", true},
      {"ingest.merge", true},
      {"ingest.resample", true},
      {"ingest.journal.write", true},
  };
  // --spatial runs add the grid seams. Both sit on the sequential
  // range-query path only (equality queries never enter the grid and
  // batches never carry ranges), so error injection stays
  // deterministic; OpSpatialQuery tolerates, disarms, and retries.
  static constexpr MenuEntry kSpatialMenu[] = {
      {"spatial.plan", true},
      {"spatial.scan", true},
  };
  // --store-budget runs add the tiered-store seams, all delay-only:
  // every one of them sits on the serve path, which concurrent batch
  // items hit in scheduling order, so an error fault's victim would
  // depend on timing. Worse, an injected spill-write failure breaks
  // answer stability outright: a stale-but-θ-valid sample circulates
  // through spill/restore byte-identically across refreshes, but once
  // dropped, the lazy promote re-draws over the *current* (grown) row
  // set — legitimately different bytes, which the coherence check
  // would flag. Error injection on all four seams is covered
  // single-threaded by fault_injection_test. The spill seams only
  // exist single-instance (the sharded store demotes in drop mode).
  static constexpr MenuEntry kStoreMenu[] = {
      {"store.promote", false},
      {"store.evict", false},
  };
  static constexpr MenuEntry kStoreSpillMenu[] = {
      {"store.spill.write", false},
      {"store.spill.read", false},
  };
  const size_t base_n = std::size(kMenu);
  const size_t shard_n = ctx.opt->shards > 1 ? std::size(kShardMenu) : 0;
  const size_t ingest_n = ctx.opt->ingest ? std::size(kIngestMenu) : 0;
  const size_t spatial_n = ctx.opt->spatial ? std::size(kSpatialMenu) : 0;
  const size_t store_n =
      ctx.opt->store_budget ? std::size(kStoreMenu) : 0;
  const size_t spill_n = ctx.opt->store_budget && ctx.opt->shards == 0
                             ? std::size(kStoreSpillMenu)
                             : 0;
  const size_t menu_n =
      base_n + shard_n + ingest_n + spatial_n + store_n + spill_n;
  const size_t pick = static_cast<size_t>(
      ctx.rng.UniformInt(0, static_cast<int64_t>(menu_n) - 1));
  const MenuEntry& entry =
      pick < base_n ? kMenu[pick]
      : pick < base_n + shard_n
          ? kShardMenu[pick - base_n]
          : pick < base_n + shard_n + ingest_n
              ? kIngestMenu[pick - base_n - shard_n]
              : pick < base_n + shard_n + ingest_n + spatial_n
                  ? kSpatialMenu[pick - base_n - shard_n - ingest_n]
                  : pick < base_n + shard_n + ingest_n + spatial_n + store_n
                        ? kStoreMenu[pick - base_n - shard_n - ingest_n -
                                     spatial_n]
                        : kStoreSpillMenu[pick - base_n - shard_n - ingest_n -
                                          spatial_n - store_n];
  FaultSpec spec;
  spec.fail = entry.fail;
  if (entry.fail) {
    spec.every_nth = 1 + static_cast<uint64_t>(ctx.rng.UniformInt(0, 1));
    spec.max_triggers = 1 + static_cast<uint64_t>(ctx.rng.UniformInt(0, 2));
    spec.code = ctx.rng.Bernoulli(0.5) ? StatusCode::kIOError
                                       : StatusCode::kUnavailable;
  } else {
    spec.probability = 0.3;
    spec.seed = static_cast<uint64_t>(ctx.rng.UniformInt(0, 1 << 20));
    spec.delay_ms = 0.05 + ctx.rng.UniformDouble(0.0, 0.3);
  }
  FaultInjector::Global().Arm(entry.point, spec);
  ctx.armed.insert(entry.point);
  std::string p(entry.point);
  if (p.rfind("refresh.", 0) == 0 || p.rfind("ingest.", 0) == 0 ||
      p == "shard.build" || p == "shard.merge") {
    ctx.refresh_fault_armed = true;
  }
  if (p.rfind("persistence.", 0) == 0) ctx.persistence_fault_armed = true;
  if (p.rfind("spatial.", 0) == 0) ctx.spatial_fault_armed = true;
  ctx.Trace("step=" + std::to_string(step) + " fault arm " + p +
            (entry.fail ? " fail code=" + std::string(StatusCodeName(
                                              spec.code)) +
                              " nth=" + std::to_string(spec.every_nth) +
                              " max=" + std::to_string(spec.max_triggers)
                        : " delay"));
}

/// Metrics and trace-span accounting must agree exactly with the
/// request counts the driver issued.
void CheckAccounting(SoakContext& ctx) {
  MetricsRegistry& mm = ctx.server->metrics();
  const size_t total = ctx.report.queries + ctx.report.batch_items;
  auto expect = [&](const char* name, uint64_t got, uint64_t want) {
    if (got != want) {
      ctx.report.violations.push_back(
          std::string("accounting: ") + name + "=" + std::to_string(got) +
          " expected " + std::to_string(want));
    }
  };
  expect("serve_queries_total", mm.counter("serve_queries_total").value(),
         total);
  expect("serve_batches", mm.counter("serve_batches").value(),
         ctx.report.batches);
  expect("serve_refreshes", mm.counter("serve_refreshes").value(),
         ctx.report.refreshes);
  expect("serve_rejected", mm.counter("serve_rejected").value(), 0);
  expect("serve_degraded", mm.counter("serve_degraded").value(), 0);
  // The only error faults on the serve path are the spatial seams;
  // every injected range-query failure counts exactly one serve error.
  expect("serve_errors", mm.counter("serve_errors").value(),
         ctx.report.injected_spatial_failures);
  // Every non-bypass request counts exactly one of hit/miss.
  expect("serve_cache_hits+misses",
         mm.counter("serve_cache_hits").value() +
             mm.counter("serve_cache_misses").value(),
         total - ctx.bypass_queries);

  size_t query_spans = 0;
  for (const SpanRecord& rec : ctx.tracer->Snapshot()) {
    if (rec.name == "serve.query") ++query_spans;
  }
  expect("serve.query spans", query_spans, total);
}

}  // namespace

Result<SoakReport> RunSoak(const SoakOptions& options) {
  // The FaultInjector is process-global; own it for the whole run and
  // guarantee nothing stays armed afterwards, even on early error.
  ScopedFaultClear fault_guard;
  FaultInjector::Global().DisarmAll();

  SoakContext ctx;
  ctx.opt = &options;
  ctx.rng = Rng(options.seed);

  // ---- Randomized schema + data, all derived from the seed. ----
  SyntheticGeneratorOptions gen;
  gen.seed = options.seed * 7919 + 1;
  gen.num_rows = options.base_rows;
  gen.cell_spread = ctx.rng.UniformDouble(0.6, 1.4);
  gen.noise = 0.1;
  size_t ncols = 2 + static_cast<size_t>(ctx.rng.UniformInt(0, 1));
  gen.columns.clear();
  for (size_t c = 0; c < ncols; ++c) {
    SyntheticColumnSpec col;
    col.name = "c" + std::to_string(c);
    col.cardinality = 2 + static_cast<uint32_t>(ctx.rng.UniformInt(0, 3));
    col.zipf_skew = ctx.rng.Bernoulli(0.5) ? 0.8 : 0.0;
    // --store-budget: every column draws Zipf-skewed (the workload
    // generator instantiates cells from random data rows, so skewed
    // data ⇒ skewed queries — the access pattern CLOCK is built for).
    // The Bernoulli above is still drawn, so the op schedule matches
    // the other modes draw-for-draw.
    if (options.store_budget) col.zipf_skew = 1.0;
    gen.columns.push_back(col);
  }
  SyntheticGenerator generator(gen);
  ctx.table = generator.Generate();
  ctx.attrs = generator.CategoricalColumns();

  // Donor rows appended over the run: same specs, different seed, so
  // appends shift cell statistics (dropping/creating iceberg cells).
  SyntheticGeneratorOptions donor_gen = gen;
  donor_gen.seed = options.seed * 7919 + 2;
  donor_gen.num_rows = options.append_pool;
  ctx.donor = SyntheticGenerator(donor_gen).Generate();

  // ---- Loss + cube. Mean loss dominates (cheap exact θ-checks); the
  // spatial heatmap loss runs on a quarter of the seeds. The draws are
  // hoisted out of the options construction so the --store-budget probe
  // build can construct a second, identical TabulaOptions (it owns its
  // loss) without consuming extra rng draws — legacy {seed, steps}
  // traces replay byte-identically.
  const bool heatmap_loss = ctx.rng.Bernoulli(0.25);
  const double threshold = heatmap_loss
                               ? 0.003 + ctx.rng.UniformDouble(0.0, 0.007)
                               : 0.05 + ctx.rng.UniformDouble(0.0, 0.05);
  const bool keep_maintenance = ctx.rng.Bernoulli(0.5);
  auto make_topt = [&]() -> Result<TabulaOptions> {
    TabulaOptions t;
    t.cubed_attributes = ctx.attrs;
    LossParams params;
    params.columns = heatmap_loss ? std::vector<std::string>{"x", "y"}
                                  : std::vector<std::string>{"value"};
    TABULA_ASSIGN_OR_RETURN(
        std::unique_ptr<LossFunction> loss,
        MakeLossFunction(heatmap_loss ? "heatmap_loss" : "mean_loss",
                         params));
    t.owned_loss = std::move(loss);
    t.threshold = threshold;
    t.seed = options.seed;
    t.keep_maintenance_state = keep_maintenance;
    // --spatial: materialize the hierarchical grid over the synthetic
    // x/y columns so range-query ops have a surface to exercise.
    if (options.spatial) {
      t.spatial.x_column = "x";
      t.spatial.y_column = "y";
      t.spatial.levels = 3;
    }
    if (options.store_budget) {
      // Selection shares representative slots across cells, and a
      // shared slot promotes into a fresh private draw — so whether an
      // answer keeps its original bytes would depend on eviction
      // history, which batch concurrency scrambles. Sole-owner
      // re-samples are byte-identical to the original draw, keeping
      // the trace thread-count invariant. The hot tier stays pinned
      // off for the same reason: a kHot upgrade re-draws at a tighter
      // θ, and *when* a cell crosses the hit bar depends on residency
      // history. Both paths are pinned deterministically by
      // store_diff_test and fault_injection_test instead.
      t.enable_sample_selection = false;
      t.store.hot_promote_hits = uint64_t{1} << 30;
    }
    return t;
  };
  TABULA_ASSIGN_OR_RETURN(TabulaOptions topt, make_topt());

  TracerOptions tracer_opt;
  tracer_opt.mode = TraceMode::kAll;
  tracer_opt.capacity = options.steps * 64 + 1024;
  ctx.tracer = std::make_unique<Tracer>(tracer_opt);
  topt.tracer = ctx.tracer.get();

  // Scratch paths before engine construction: the store spill file
  // lives next to the cube file, so the path must exist first.
  ctx.cube_path = options.scratch_path;
  if (ctx.cube_path.empty()) {
    std::error_code tmp_ec;
    std::filesystem::path tmp = std::filesystem::temp_directory_path(tmp_ec);
    if (tmp_ec) tmp = ".";
    ctx.cube_path = (tmp / ("tabula_soak_" + std::to_string(options.seed) +
                            "_" + std::to_string(getpid()) + ".cube"))
                        .string();
  }
  std::error_code ec;
  std::filesystem::remove(ctx.cube_path, ec);
  std::filesystem::remove(ctx.cube_path + ".tmp", ec);
  std::filesystem::remove(ctx.cube_path + ".spill", ec);

  // --store-budget: size the budget from a probe build (identical
  // options, effectively unbounded budget), then run the live engine at
  // ~50% of those resident sample bytes — small enough to force real
  // demotions under the Zipf workload, large enough that every cell can
  // still be served. The probe consumes no rng draws and writes no
  // trace spans, so the op schedule is unchanged.
  if (options.store_budget) {
    TABULA_ASSIGN_OR_RETURN(TabulaOptions probe_opt, make_topt());
    probe_opt.store.budget_bytes = uint64_t{1} << 40;
    uint64_t full_bytes = 0;
    if (options.shards >= 2) {
      ShardedTabulaOptions probe_shopt;
      probe_shopt.base = std::move(probe_opt);
      probe_shopt.num_shards = options.shards;
      probe_shopt.partition = options.seed % 2 == 0 ? ShardPartition::kHash
                                                    : ShardPartition::kRange;
      TABULA_ASSIGN_OR_RETURN(
          std::unique_ptr<ShardedTabula> probe,
          ShardedTabula::Initialize(*ctx.table, std::move(probe_shopt)));
      full_bytes = probe->StoreStats().resident_bytes;
    } else {
      TABULA_ASSIGN_OR_RETURN(
          std::unique_ptr<Tabula> probe,
          Tabula::Initialize(*ctx.table, std::move(probe_opt)));
      full_bytes = probe->sample_store().bytes();
    }
    // Floor: enough for at least a few samples per shard, so degenerate
    // probes (no iceberg cells) still configure a valid store.
    const uint64_t floor_bytes =
        64 * static_cast<uint64_t>(std::max<size_t>(1, options.shards));
    ctx.store_budget = std::max<uint64_t>(full_bytes / 2, floor_bytes);
    ctx.report.store_budget_bytes = ctx.store_budget;
    topt.store.budget_bytes = ctx.store_budget;
    // Demoted samples spill to a side file next to the scratch cube
    // (single-instance engines only; the sharded store demotes in drop
    // mode and re-samples on promote).
    if (options.shards == 0) {
      topt.store.spill_path = ctx.cube_path + ".spill";
    }
  }

  // Engine selection: one shard is the plain engine. No extra rng draws
  // on the sharded path — a shards = 1 run replays the shards = 0 op
  // sequence exactly (only its store runs without a spill file).
  if (options.shards >= 2) {
    ShardedTabulaOptions shopt;
    shopt.base = std::move(topt);
    shopt.num_shards = options.shards;
    shopt.partition = options.seed % 2 == 0 ? ShardPartition::kHash
                                            : ShardPartition::kRange;
    TABULA_ASSIGN_OR_RETURN(
        ctx.sharded, ShardedTabula::Initialize(*ctx.table, std::move(shopt)));
    ctx.engine = ctx.sharded.get();
    ctx.loss = ctx.sharded->options().base.effective_loss();
    ctx.theta = ctx.sharded->options().base.threshold;
  } else {
    TABULA_ASSIGN_OR_RETURN(ctx.tabula,
                            Tabula::Initialize(*ctx.table, std::move(topt)));
    ctx.engine = ctx.tabula.get();
    ctx.loss = ctx.tabula->options().effective_loss();
    ctx.theta = ctx.tabula->options().threshold;
  }

  QueryServerOptions sopt;
  sopt.max_queue = 4096;
  sopt.tracer = ctx.tracer.get();
  ctx.server = std::make_unique<QueryServer>(ctx.engine, std::move(sopt));

  // --net: put a real socket between the ops and the QueryServer. One
  // pooled connection, no hedging, no deadline pressure — the wire must
  // be behaviorally invisible, so the trace can prove it is.
  if (options.net) {
    ctx.net_server = std::make_unique<TabulaNetServer>(ctx.server.get());
    TABULA_RETURN_NOT_OK(ctx.net_server->Start());
    NetClientOptions copt;
    copt.endpoints.push_back({"127.0.0.1", ctx.net_server->port()});
    copt.pool_size = 1;
    copt.hedge = false;
    ctx.net_client = std::make_unique<TabulaClient>(std::move(copt));
    ctx.net_client->set_table(ctx.table.get());
  }

  // --ingest: appends flow through a synchronous (deterministic)
  // Ingestor journaling into a WAL beside the scratch cube file, with
  // every engine/table mutation routed through the server's locks.
  if (options.ingest) {
    IngestorOptions iopts;
    iopts.journal_path = ctx.cube_path + ".wal";
    iopts.server = ctx.server.get();
    std::filesystem::remove(iopts.journal_path, ec);
    TABULA_ASSIGN_OR_RETURN(
        ctx.ingestor, Ingestor::Make(ctx.engine, ctx.table.get(), iopts));
  }

  const size_t init_ice = ctx.sharded != nullptr
                              ? ctx.sharded->merged_iceberg_cells()
                              : ctx.tabula->init_stats().iceberg_cells;
  ctx.Trace("init seed=" + std::to_string(options.seed) + " rows=" +
            std::to_string(options.base_rows) + " cols=" +
            std::to_string(ncols) + " loss=" + ctx.loss->name() +
            " theta=" + std::to_string(ctx.theta) + " iceberg_cells=" +
            std::to_string(init_ice) +
            (options.shards > 1
                 ? " shards=" + std::to_string(options.shards) + " part=" +
                       ShardPartitionName(ctx.sharded->options().partition)
                 : "") +
            (options.ingest ? " ingest" : "") +
            (options.spatial ? " spatial levels=3" : "") +
            (options.store_budget
                 ? " store-budget=" + std::to_string(ctx.store_budget) +
                       " store-bytes=" + std::to_string(ctx.StoreBytes())
                 : ""));
  // The budget invariant must already hold for the freshly built cube,
  // before the first op runs.
  CheckStoreBudget(ctx, 0);

  // ---- The interleaved op loop. ----
  // The op weights without --spatial are unchanged from the pre-spatial
  // harness, so legacy {seed, steps} traces replay byte-identically;
  // spatial runs draw a seventh op (the range query) from the same rng
  // stream.
  const std::vector<double> weights =
      options.spatial
          ? (options.faults
                 ? std::vector<double>{0.31, 0.15, 0.12, 0.09, 0.09, 0.12,
                                       0.12}
                 : std::vector<double>{0.37, 0.18, 0.15, 0.09, 0.09, 0.0,
                                       0.12})
          : (options.faults
                 ? std::vector<double>{0.43, 0.15, 0.12, 0.09, 0.09, 0.12}
                 : std::vector<double>{0.49, 0.18, 0.15, 0.09, 0.09, 0.0});
  for (size_t step = 0; step < options.steps; ++step) {
    switch (ctx.rng.Discrete(weights)) {
      case 0:
        TABULA_RETURN_NOT_OK(OpQuery(ctx, step));
        break;
      case 1:
        TABULA_RETURN_NOT_OK(OpBatch(ctx, step));
        break;
      case 2:
        if (options.ingest) {
          TABULA_RETURN_NOT_OK(OpIngest(ctx, step));
        } else {
          TABULA_RETURN_NOT_OK(OpRefresh(ctx, step));
        }
        break;
      case 3:
        TABULA_RETURN_NOT_OK(OpSave(ctx, step));
        break;
      case 4:
        TABULA_RETURN_NOT_OK(OpLoad(ctx, step));
        break;
      case 5:
        OpFaultToggle(ctx, step);
        break;
      default:
        TABULA_RETURN_NOT_OK(OpSpatialQuery(ctx, step));
        break;
    }
    // --store-budget: the byte budget holds after *every* op, whatever
    // it promoted, resampled, spilled, or adopted.
    CheckStoreBudget(ctx, step);
    ++ctx.report.steps_run;
  }

  // Faults off before the final accounting sweep (its probes must not
  // absorb injections).
  FaultInjector::Global().DisarmAll();
  ctx.armed.clear();
  CheckAccounting(ctx);
  ctx.report.final_generation = ctx.engine->generation();

  std::filesystem::remove(ctx.cube_path, ec);
  std::filesystem::remove(ctx.cube_path + ".tmp", ec);
  std::filesystem::remove(ctx.cube_path + ".wal", ec);
  // No op runs after this point, so nothing re-reads spill records.
  std::filesystem::remove(ctx.cube_path + ".spill", ec);
  return std::move(ctx.report);
}

}  // namespace tabula
