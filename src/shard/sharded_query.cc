#include <algorithm>
#include <mutex>
#include <shared_mutex>
#include <string>
#include <utility>

#include "common/stopwatch.h"
#include "shard/sharded_tabula.h"
#include "testing/fault_injection.h"

namespace tabula {

/// Scatter-gather answer path (K > 1; K = 1 delegates to the plain
/// engine for bit-identical behaviour).
///
/// The merged directory decides the shape of the answer:
///  - key absent → non-iceberg cell; the global sample is within θ
///    (verified at merge time from the exactly-merged loss states).
///  - override entry → the union sample violated θ at merge time and a
///    fresh sample was drawn from the full raw data; serve it directly,
///    no fan-out.
///  - plain entry → fan out to every shard and concatenate the
///    shard-local samples in ascending shard order (deterministic);
///    `augment_global` cells append the global sample, the verified
///    stand-in for slices whose shards were individually within θ of
///    it and therefore hold no local sample. A
///    shard failing at the `shard.query` seam degrades the answer: its
///    slice is covered by appending the global sample, the shard id
///    lands in `unavailable_shards`, and `shard_error` carries the
///    kUnavailable detail — the request still succeeds, but the θ bound
///    is voided and the caller is told so.
Result<QueryResponse> ShardedTabula::Query(const QueryRequest& request) const {
  if (single_ != nullptr) return single_->Query(request);

  Tracer* tracer = options_.base.tracer;
  Span span;
  if (tracer != nullptr) {
    span = tracer->StartSpan("tabula.query", request.parent_span,
                            request.trace);
  }
  Stopwatch timer;
  QueryResponse response;
  response.span_id = span.id();
  TabulaQueryResult& result = response.result;
  const std::vector<PredicateTerm>& where = request.where;
  // Progressive-answer tagging, identical to the plain engine: the
  // generation the answer is computed at, plus whether pending rows are
  // scheduled to change this cell (per-cell once BeginIngest published
  // the dirty set, conservatively everywhere before that).
  result.generation = generation_;
  const bool has_pending = table_->num_rows() > refreshed_rows_;

  auto finish = [&]() {
    if (span.recording()) {
      span.SetAttribute("terms", where.size());
      span.SetAttribute("from_local_sample", result.from_local_sample);
      span.SetAttribute("empty_cell", result.empty_cell);
      span.SetAttribute("sample_rows", result.sample.size());
      span.SetAttribute("unavailable_shards",
                        result.unavailable_shards.size());
      result.data_system_millis = span.End();
    } else {
      result.data_system_millis = timer.ElapsedMillis();
    }
  };

  // Bbox (pan/zoom) requests take the spatial scatter-gather path;
  // everything below it is the pre-spatial equality surface, untouched
  // bit for bit.
  if (!request.range.empty()) {
    TABULA_RETURN_NOT_OK(QueryRange(request, has_pending, &result));
    finish();
    return response;
  }

  // The plain engine's WHERE-clause contract (and error wording):
  // equality predicates on cubed attributes only.
  std::vector<uint32_t> codes;
  bool provably_empty = false;
  TABULA_RETURN_NOT_OK(Tabula::ValidateEqualityTerms(encoder_, where, &codes,
                                                     &provably_empty));
  if (provably_empty) {
    result.empty_cell = true;
    result.stale = has_pending;
    result.sample = DatasetView(table_, {});
    finish();
    return response;
  }

  uint64_t key = packer_.PackCodes(codes);
  result.stale =
      has_pending && (pending_dirty_.empty() || pending_dirty_.Contains(key));
  const MergedCell* cell = merged_.Find(key);
  if (cell == nullptr) {
    result.sample = DatasetView(table_, global_sample_rows_);
    finish();
    return response;
  }
  result.from_local_sample = true;
  if (cell->has_override) {
    if (!store_enabled()) {
      result.sample =
          DatasetView(table_, override_samples_.sample(cell->override_id));
      finish();
      return response;
    }
    const uint32_t id = cell->override_id;
    {
      std::shared_lock<std::shared_mutex> lock(*store_mu_);
      override_store_.RecordHit(id);
      if (override_store_.resident(id)) {
        result.sample = DatasetView(table_, override_samples_.sample(id));
        finish();
        return response;
      }
    }
    // Cold override: lazily promote under the exclusive section.
    std::unique_lock<std::shared_mutex> lock(*store_mu_);
    if (override_store_.resident(id)) {
      // Raced with another promoter; serve its work.
      result.sample = DatasetView(table_, override_samples_.sample(id));
      finish();
      return response;
    }
    std::vector<RowId> restored;
    Status promoted = PromoteOverrideLocked(key, *cell, &restored);
    if (promoted.ok()) {
      result.sample = DatasetView(table_, std::move(restored));
    } else {
      // Degrade to the global sample — never the stale evicted bytes.
      override_store_.CountPromoteFailure();
      result.from_local_sample = false;
      result.store_degraded = true;
      result.sample = DatasetView(table_, global_sample_rows_);
    }
    finish();
    return response;
  }

  Span fanout_span;
  if (span.recording() && tracer != nullptr) {
    fanout_span = tracer->StartSpan("shard.query.fanout", span.id());
    fanout_span.SetAttribute("shards", shards_.size());
    fanout_span.SetAttribute("replicas_per_shard", replicas_per_shard());
  }
  Stopwatch fanout_timer;
  std::vector<RowId> gathered;
  for (size_t s = 0; s < shards_.size(); ++s) {
    Stopwatch shard_timer;
    // The legacy whole-group seam: a `shard.query` fault takes out all
    // R replicas at once (the semantics every pre-replication test and
    // the soak fault menu rely on); `replica.query` faults take out
    // individual probes and the router fails over.
    Status shard_status = Status::OK();
    if (FaultInjector::AnyArmed()) {
      shard_status = FaultInjector::Global().Hit("shard.query");
    }
    if (shard_status.ok()) {
      shard_status = QueryShardReplicas(s, key, span.id(), &gathered, &result);
    }
    if (!shard_status.ok()) {
      result.unavailable_shards.push_back(static_cast<uint32_t>(s));
      if (result.shard_error.ok()) {
        result.shard_error = Status::Unavailable(
            "shard " + std::to_string(s) +
            " unavailable during scatter-gather: " + shard_status.message());
      }
      metrics_.counter("shard_unavailable_total").Increment();
    }
    metrics_.histogram("shard" + std::to_string(s) + "_query_latency")
        .RecordMillis(shard_timer.ElapsedMillis());
  }
  if (!result.unavailable_shards.empty()) {
    metrics_.counter("shard_degraded_answers").Increment();
  }
  if (cell->augment_global || !result.unavailable_shards.empty()) {
    // The global sample stands in for slices the union does not cover.
    // For an `augment_global` cell that is the *verified* answer: its
    // conflict slices are within θ of the global sample and the merge
    // checked union + global against θ. For a degraded answer (shard
    // unavailable) the same rows are a best effort and the bound is
    // voided — which `unavailable_shards` being non-empty signals.
    gathered.insert(gathered.end(), global_sample_rows_.begin(),
                    global_sample_rows_.end());
  }
  double fanout_millis = fanout_span.recording()
                             ? fanout_span.End()
                             : fanout_timer.ElapsedMillis();
  metrics_.histogram("shard_fanout_latency").RecordMillis(fanout_millis);
  if (result.store_degraded) {
    // A cold slice failed to promote: the union is incomplete and the
    // missing slice's evicted bytes must never be served, so the whole
    // answer degrades to the global sample.
    result.from_local_sample = false;
    result.sample = DatasetView(table_, global_sample_rows_);
    finish();
    return response;
  }
  result.sample = DatasetView(table_, std::move(gathered));
  finish();
  return response;
}

std::vector<size_t> ShardedTabula::ReplicaOrder(size_t shard) const {
  const size_t r = replicas_per_shard();
  std::vector<size_t> order(r);
  for (size_t j = 0; j < r; ++j) order[j] = j;
  if (r == 1) return order;
  std::stable_sort(order.begin(), order.end(), [&](size_t a, size_t b) {
    const Replica& ra = replica_state(shard, a);
    const Replica& rb = replica_state(shard, b);
    bool down_a = ra.down.load(std::memory_order_acquire);
    bool down_b = rb.down.load(std::memory_order_acquire);
    if (down_a != down_b) return !down_a;
    // 0 = no observation yet; probe cold replicas before slow ones so
    // every replica earns an estimate, and the stable sort keeps index
    // order among ties.
    return ra.ewma_nanos.load(std::memory_order_relaxed) <
           rb.ewma_nanos.load(std::memory_order_relaxed);
  });
  return order;
}

Status ShardedTabula::ProbeReplicas(size_t shard) const {
  const bool faults_armed = FaultInjector::AnyArmed();
  Status last_error = Status::OK();
  bool probed_any = false;
  for (size_t j : ReplicaOrder(shard)) {
    Replica& replica = replica_state(shard, j);
    if (replica.down.load(std::memory_order_acquire)) continue;
    Stopwatch probe_timer;
    Status probe = Status::OK();
    if (faults_armed) {
      // Two seams per probe: the broad one for "some replica fails
      // every Nth probe" matrices, the targeted one to kill an exact
      // (shard, replica) pair. Delay-only specs model a slow replica:
      // the probe succeeds but its EWMA rises and the router prefers
      // its peers from then on.
      FaultInjector& inj = FaultInjector::Global();
      probe = inj.Hit("replica.query");
      if (probe.ok()) {
        probe = inj.Hit("replica.query.s" + std::to_string(shard) + ".r" +
                        std::to_string(j));
      }
    }
    if (!probe.ok()) {
      last_error = probe;
      metrics_.counter("replica_probe_failures").Increment();
      probed_any = true;
      continue;
    }
    int64_t nanos = static_cast<int64_t>(probe_timer.ElapsedMillis() * 1e6);
    int64_t prev = replica.ewma_nanos.load(std::memory_order_relaxed);
    int64_t next = prev == 0 ? nanos : (prev * 4 + nanos) / 5;
    replica.ewma_nanos.store(next, std::memory_order_relaxed);
    if (replicas_per_shard() > 1) {
      metrics_
          .histogram("shard" + std::to_string(shard) + "_replica" +
                     std::to_string(j) + "_latency")
          .RecordMillis(probe_timer.ElapsedMillis());
      if (probed_any) metrics_.counter("replica_failovers").Increment();
    }
    return Status::OK();
  }
  if (last_error.ok()) {
    return Status::Unavailable("all " + std::to_string(replicas_per_shard()) +
                               " replicas marked down");
  }
  return Status::Unavailable(
      "all " + std::to_string(replicas_per_shard()) +
      " replicas failed; last error: " + last_error.message());
}

Status ShardedTabula::QueryShardReplicas(size_t shard, uint64_t key,
                                         uint64_t parent_span,
                                         std::vector<RowId>* gathered,
                                         TabulaQueryResult* result) const {
  TABULA_RETURN_NOT_OK(ProbeReplicas(shard));
  // Replicas share the shard's unit, so which replica answers never
  // changes the bytes of the answer — only who paid the latency
  // (tracked by the probe's EWMA).
  const Tabula& unit = *shards_[shard].unit;
  const IcebergCell* local = unit.cube_table().Find(key);
  if (local != nullptr &&
      !unit.AppendLocalSample(*local, parent_span, gathered)) {
    // The slice stays unserved; the caller degrades the whole answer to
    // the global sample (the evicted bytes are never served).
    result->store_degraded = true;
  }
  return Status::OK();
}

}  // namespace tabula
