#include "serve/query_server.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <string>
#include <utility>

#include "common/stopwatch.h"
#include "obs/export.h"
#include "testing/fault_injection.h"

namespace tabula {

namespace {
/// Metric names (one registry per server, so no instance prefix).
constexpr char kQueriesTotal[] = "serve_queries_total";
constexpr char kCacheHits[] = "serve_cache_hits";
constexpr char kCacheMisses[] = "serve_cache_misses";
constexpr char kRejected[] = "serve_rejected";
constexpr char kDegraded[] = "serve_degraded";
constexpr char kDegradedResults[] = "serve_degraded_results";
constexpr char kErrors[] = "serve_errors";
constexpr char kBatches[] = "serve_batches";
constexpr char kRefreshes[] = "serve_refreshes";
constexpr char kInFlight[] = "serve_in_flight";
constexpr char kLatency[] = "serve_latency";

/// Waits derived from a request deadline sleep at most this long at a
/// time: a deadline may be any finite double (1e300 included), and
/// wait_for converts its duration to integer nanoseconds.
constexpr double kWaitSliceMs = 1000.0;

std::chrono::duration<double, std::milli> WaitSlice(double remaining_ms) {
  return std::chrono::duration<double, std::milli>(
      std::min(remaining_ms, kWaitSliceMs));
}

/// A deadline the serving layer can wait on: any finite value.
Status CheckDeadline(double deadline_ms) {
  if (std::isfinite(deadline_ms)) return Status::OK();
  return Status::InvalidArgument("deadline_ms must be finite, got " +
                                 std::to_string(deadline_ms));
}
}  // namespace

QueryServer::Meters::Meters(MetricsRegistry& registry)
    : queries_total(registry.counter(kQueriesTotal)),
      cache_hits(registry.counter(kCacheHits)),
      cache_misses(registry.counter(kCacheMisses)),
      rejected(registry.counter(kRejected)),
      degraded(registry.counter(kDegraded)),
      degraded_results(registry.counter(kDegradedResults)),
      errors(registry.counter(kErrors)),
      batches(registry.counter(kBatches)),
      refreshes(registry.counter(kRefreshes)),
      in_flight(registry.gauge(kInFlight)),
      latency(registry.histogram(kLatency)) {}

QueryServer::QueryServer(QueryEngine* engine, QueryServerOptions options,
                         ThreadPool* pool)
    : engine_(engine),
      options_(options),
      pool_(pool != nullptr ? pool : &ThreadPool::Global()),
      cache_(std::make_unique<ResultCache>(options_.cache)),
      slow_log_(options_.slow_query_ms, options_.slow_query_capacity) {
  if (options_.max_concurrency == 0) {
    options_.max_concurrency = pool_->num_threads();
  }
  options_.max_queue = std::max(options_.max_queue, options_.max_concurrency);
  // Cache-invalidation hook: any Refresh() of the underlying cube —
  // through this server or not — fences every cached answer.
  refresh_listener_id_ = engine_->AddRefreshListener([this] {
    cache_->InvalidateAll();
    // An ingest commit (or any refresh) may have caught the cube up;
    // wake progressive-answer waiters so they re-check.
    BumpFreshEpoch();
  });
  RebuildGlobalAnswer();
}

QueryServer::~QueryServer() {
  engine_->RemoveRefreshListener(refresh_listener_id_);
}

void QueryServer::RebuildGlobalAnswer() {
  auto answer = std::make_shared<TabulaQueryResult>();
  answer->sample = engine_->global_sample();
  std::lock_guard<std::mutex> lock(global_answer_mu_);
  global_answer_ = std::move(answer);
}

ServeAnswer QueryServer::DegradedAnswer(double queue_millis) {
  meters_.degraded.Increment();
  ServeAnswer answer;
  {
    std::lock_guard<std::mutex> lock(global_answer_mu_);
    answer.result = global_answer_;
  }
  answer.degraded = true;
  answer.queue_millis = queue_millis;
  // total_millis + latency histogram are filled by the caller's span
  // epilogue, the single place the latency is measured.
  return answer;
}

void QueryServer::MaybeLogSlowQuery(const std::string& key,
                                    const ServeAnswer& answer) {
  if (!slow_log_.ShouldLog(answer.total_millis)) return;
  SlowQueryEntry entry;
  entry.predicate_key = key;
  entry.total_millis = answer.total_millis;
  entry.queue_millis = answer.queue_millis;
  entry.cache_hit = answer.cache_hit;
  entry.degraded = answer.degraded;
  entry.error = answer.error;
  entry.span_id = answer.span_id;
  if (answer.span_id != 0 && options_.tracer != nullptr) {
    entry.span_tree = RenderSpanTree(
        SpanSubtree(options_.tracer->Snapshot(), answer.span_id));
  }
  slow_log_.Record(std::move(entry));
}

QueryServer::Admission QueryServer::Admit(double deadline_ms,
                                          double* waited_ms) {
  Stopwatch wait;
  // Delay-only seam: simulates admission pressure (slow wakeups, noisy
  // neighbours) so deadline-degradation paths can be forced in tests.
  TABULA_FAULT_DELAY("serve.admit");
  std::unique_lock<std::mutex> lock(slot_mu_);
  if (admitted_ >= options_.max_queue) return Admission::kRejected;
  ++admitted_;
  while (running_ >= options_.max_concurrency) {
    if (deadline_ms > 0.0) {
      double remaining_ms = deadline_ms - wait.ElapsedMillis();
      if (remaining_ms <= 0.0) {
        --admitted_;
        slot_cv_.notify_one();
        *waited_ms = wait.ElapsedMillis();
        return Admission::kTimedOut;
      }
      slot_cv_.wait_for(lock, WaitSlice(remaining_ms));
    } else {
      slot_cv_.wait(lock);
    }
  }
  ++running_;
  *waited_ms = wait.ElapsedMillis();
  return Admission::kAcquired;
}

void QueryServer::ReleaseSlot() {
  {
    std::lock_guard<std::mutex> lock(slot_mu_);
    --running_;
    --admitted_;
  }
  slot_cv_.notify_one();
}

Result<ServeAnswer> QueryServer::Execute(std::vector<PredicateTerm> canonical,
                                         SpatialRange range,
                                         const std::string& key, bool ranged,
                                         bool trace, uint64_t parent_span) {
  // Capture the cache generation BEFORE the lookup: if a Refresh fences
  // the cache while this query is in flight, the Put below becomes a
  // no-op instead of resurrecting a pre-refresh answer.
  const uint64_t gen = cache_->generation();
  // Error/delay seam on the uncached lookup path; an injected error
  // surfaces to the caller as a Status and counts as a serve error.
  if (FaultInjector::AnyArmed()) {
    Status injected = FaultInjector::Global().Hit("serve.execute");
    if (!injected.ok()) {
      meters_.errors.Increment();
      return injected;
    }
  }
  QueryRequest inner(std::move(canonical));
  inner.range = std::move(range);
  inner.trace = trace;
  inner.parent_span = parent_span;
  Result<QueryResponse> raw = [&]() -> Result<QueryResponse> {
    std::shared_lock<WriterPrioritySharedMutex> lock(cube_mu_);
    return engine_->Query(inner);
  }();
  if (!raw.ok()) {
    meters_.errors.Increment();
    return raw.status();
  }
  QueryResponse response = std::move(raw).value();
  auto shared =
      std::make_shared<const TabulaQueryResult>(std::move(response.result));
  // Degraded answers (a shard/replica group was unavailable, or a
  // cold-tier promote failed and the answer fell back to the global
  // sample — θ voided either way) never enter the cache: the
  // degradation tag is a statement about *this* execution's fault
  // window, and a later hit would replay it — or, worse, replay a
  // θ-voided sample — after the fault cleared. The next request
  // re-executes (retrying the promote) and caches the healthy answer.
  const bool degraded_result =
      !shared->unavailable_shards.empty() || shared->store_degraded;
  if (options_.enable_cache && !degraded_result) {
    cache_->Put(key, shared, gen, ranged);
  }
  if (degraded_result) meters_.degraded_results.Increment();
  ServeAnswer answer;
  answer.result = std::move(shared);
  return answer;
}

Result<ServeAnswer> QueryServer::Query(const QueryRequest& request) {
  // One "serve.query" span per request; inert (one branch) without an
  // enabled tracer.
  Span span;
  if (options_.tracer != nullptr) {
    span = options_.tracer->StartSpan("serve.query", request.parent_span,
                                      request.trace);
  }
  Stopwatch total;
  meters_.queries_total.Increment();
  if (Status valid = CheckDeadline(request.deadline_ms); !valid.ok()) {
    meters_.errors.Increment();
    return valid;
  }
  const double deadline = request.deadline_ms < 0.0
                              ? options_.default_deadline_ms
                              : request.deadline_ms;

  std::vector<PredicateTerm> canonical = CanonicalizeTerms(request.where);
  bool ranged = false;
  std::string key = CanonicalPredicateKey(canonical, request.range, &ranged);

  // The one epilogue every answered path funnels through: the span's
  // duration (when traced) is the answer's total_millis AND the value
  // recorded into the serve_latency histogram, so the trace, the
  // answer, and the metrics agree by construction.
  auto finish = [&](ServeAnswer* answer) {
    answer->span_id = span.id();
    if (span.recording()) {
      span.SetAttribute("predicates", key);
      span.SetAttribute("cache_hit", answer->cache_hit);
      span.SetAttribute("degraded", answer->degraded);
      span.SetAttribute("queue_ms", answer->queue_millis);
      if (answer->error) span.SetAttribute("error", true);
      answer->total_millis = span.End();
    } else {
      answer->total_millis = total.ElapsedMillis();
    }
    meters_.latency.RecordMillis(answer->total_millis);
    MaybeLogSlowQuery(key, *answer);
  };

  // Progressive-answer hint: spend (up to) the deadline waiting for the
  // in-flight ingest cycle to commit, then serve whatever is freshest.
  // The hint's contract is "the freshest real answer, honestly
  // stale-tagged on timeout" — never the global-sample degraded answer —
  // so after the wait the request admits without a deadline instead of
  // racing DegradedAnswer. With no deadline or no pending ingest this
  // is a no-op and the request behaves exactly like kCacheOk.
  double admit_deadline = deadline;
  if (request.consistency == ConsistencyHint::kFreshWithinDeadline &&
      deadline > 0.0) {
    const bool fresh = WaitForFreshness(deadline);
    if (span.recording()) span.SetAttribute("waited_fresh", fresh);
    admit_deadline = 0.0;  // 0 → Admit waits for a slot indefinitely
  }

  if (options_.enable_cache &&
      request.consistency != ConsistencyHint::kBypassCache) {
    if (auto hit = cache_->Get(key, ranged)) {
      meters_.cache_hits.Increment();
      ServeAnswer answer;
      answer.result = std::move(hit);
      answer.cache_hit = true;
      finish(&answer);
      return answer;
    }
    meters_.cache_misses.Increment();
  }

  double waited_ms = 0.0;
  switch (Admit(admit_deadline, &waited_ms)) {
    case Admission::kRejected:
      meters_.rejected.Increment();
      if (span.recording()) {
        span.SetAttribute("predicates", key);
        span.SetAttribute("rejected", true);
        span.SetAttribute("queue_ms", waited_ms);
      }
      return Status::Unavailable(
          "admission queue full (max_queue=" +
          std::to_string(options_.max_queue) + ")");
    case Admission::kTimedOut: {
      ServeAnswer answer = DegradedAnswer(waited_ms);
      finish(&answer);
      return answer;
    }
    case Admission::kAcquired:
      break;
  }

  meters_.in_flight.Increment();
  Result<ServeAnswer> executed =
      Execute(std::move(canonical), request.range, key, ranged,
              request.trace, span.id());
  meters_.in_flight.Decrement();
  ReleaseSlot();
  if (!executed.ok()) {
    // Failed requests still burn serving capacity; run them through the
    // same epilogue so the latency histogram and slow-query log account
    // for them instead of silently under-reporting under error storms.
    ServeAnswer failed;
    failed.error = true;
    failed.queue_millis = waited_ms;
    finish(&failed);
    return executed.status();
  }

  ServeAnswer answer = std::move(executed).value();
  answer.queue_millis = waited_ms;
  finish(&answer);
  return answer;
}

BatchItem QueryServer::ServeBatchItem(const QueryRequest& request,
                                      double deadline_ms,
                                      const Stopwatch& batch_timer,
                                      uint64_t batch_span) {
  BatchItem item;
  // Runs on a pool thread: the parent linkage to the "serve.batch" span
  // crosses the ThreadPool hop via the plain `batch_span` id.
  Span span;
  if (options_.tracer != nullptr) {
    span = options_.tracer->StartSpan(
        "serve.query", batch_span != 0 ? batch_span : request.parent_span,
        request.trace);
  }
  Stopwatch total;
  meters_.queries_total.Increment();
  // Time this item spent queued behind earlier items of the same batch
  // (pool width < batch size): batch start → this item's turn.
  const double queued_ms = batch_timer.ElapsedMillis();
  item.answer.queue_millis = queued_ms;
  if (Status valid = CheckDeadline(request.deadline_ms); !valid.ok()) {
    meters_.errors.Increment();
    item.status = std::move(valid);
    item.answer.error = true;
    return item;
  }

  std::vector<PredicateTerm> canonical = CanonicalizeTerms(request.where);
  bool ranged = false;
  std::string key = CanonicalPredicateKey(canonical, request.range, &ranged);

  auto finish = [&]() {
    item.answer.span_id = span.id();
    if (span.recording()) {
      span.SetAttribute("predicates", key);
      span.SetAttribute("cache_hit", item.answer.cache_hit);
      span.SetAttribute("degraded", item.answer.degraded);
      span.SetAttribute("queue_ms", item.answer.queue_millis);
      if (item.answer.error) span.SetAttribute("error", true);
      item.answer.total_millis = span.End();
    } else {
      item.answer.total_millis = total.ElapsedMillis();
    }
    meters_.latency.RecordMillis(item.answer.total_millis);
    MaybeLogSlowQuery(key, item.answer);
  };

  if (options_.enable_cache &&
      request.consistency != ConsistencyHint::kBypassCache) {
    if (auto hit = cache_->Get(key, ranged)) {
      meters_.cache_hits.Increment();
      item.answer.result = std::move(hit);
      item.answer.cache_hit = true;
      finish();
      return item;
    }
    meters_.cache_misses.Increment();
  }

  // Items whose turn comes after the batch deadline degrade instead of
  // stretching the pan's tail latency.
  if (deadline_ms > 0.0 && batch_timer.ElapsedMillis() > deadline_ms) {
    item.answer = DegradedAnswer(queued_ms);
    finish();
    return item;
  }

  meters_.in_flight.Increment();
  Result<ServeAnswer> executed =
      Execute(std::move(canonical), request.range, key, ranged,
              request.trace, span.id());
  meters_.in_flight.Decrement();
  if (!executed.ok()) {
    // Same contract as Query(): a failed item still flows through the
    // latency epilogue so metrics and the slow-query log see it.
    item.status = executed.status();
    item.answer.error = true;
    finish();
    return item;
  }
  item.answer = std::move(executed).value();
  item.answer.queue_millis = queued_ms;
  finish();
  return item;
}

Result<std::vector<BatchItem>> QueryServer::BatchQuery(
    const std::vector<QueryRequest>& requests) {
  Stopwatch batch_timer;
  meters_.batches.Increment();
  if (requests.empty()) return std::vector<BatchItem>{};

  // One "serve.batch" span for the fan-out; per-item spans parent under
  // it. It opts in when any item does, so one traced item is enough to
  // capture the whole pan in kOnDemand mode.
  Span batch_span;
  if (options_.tracer != nullptr) {
    bool any_trace = false;
    uint64_t parent = 0;
    for (const auto& request : requests) {
      any_trace = any_trace || request.trace;
      if (parent == 0) parent = request.parent_span;
    }
    batch_span = options_.tracer->StartSpan("serve.batch", parent, any_trace);
    if (batch_span.recording()) {
      batch_span.SetAttribute("cells", requests.size());
    }
  }

  // Batch admission: the whole fan-out counts against the queue bound.
  // Items run directly on the pool (its width bounds parallelism), so
  // they skip the per-request slot wait.
  {
    std::lock_guard<std::mutex> lock(slot_mu_);
    if (requests.size() >
        options_.max_queue - std::min(admitted_, options_.max_queue)) {
      meters_.rejected.Increment();
      if (batch_span.recording()) {
        batch_span.SetAttribute("rejected", true);
      }
      return Status::Unavailable(
          "batch of " + std::to_string(requests.size()) +
          " would overflow the admission queue (max_queue=" +
          std::to_string(options_.max_queue) + ")");
    }
    admitted_ += requests.size();
  }

  // RAII release of the batch's admission slots: an exception unwinding
  // out of the fan-out (e.g. one thrown from a pool task and rethrown
  // by ParallelFor) must not leave the slots counted forever — that
  // would shrink effective capacity until every later request is
  // rejected. Local classes share the enclosing member function's
  // access to slot_mu_/admitted_/slot_cv_.
  struct AdmissionRelease {
    QueryServer* server;
    size_t count;
    ~AdmissionRelease() {
      {
        std::lock_guard<std::mutex> lock(server->slot_mu_);
        server->admitted_ -= count;
      }
      server->slot_cv_.notify_all();
    }
  } release{this, requests.size()};

  std::vector<BatchItem> items(requests.size());
  const uint64_t batch_span_id = batch_span.id();
  try {
    pool_->ParallelFor(requests.size(), [&](size_t begin, size_t end) {
      for (size_t i = begin; i < end; ++i) {
        const QueryRequest& request = requests[i];
        const double deadline = request.deadline_ms < 0.0
                                    ? options_.default_deadline_ms
                                    : request.deadline_ms;
        items[i] = ServeBatchItem(request, deadline, batch_timer,
                                  batch_span_id);
      }
    });
  } catch (const std::exception& e) {
    meters_.errors.Increment();
    if (batch_span.recording()) batch_span.SetAttribute("error", true);
    return Status::Internal(std::string("batch fan-out threw: ") + e.what());
  }
  return items;
}

void QueryServer::MutateExclusive(const std::function<void()>& fn) {
  {
    std::unique_lock<WriterPrioritySharedMutex> lock(cube_mu_);
    fn();
    // Fence unconditionally: a table append falsifies the `stale` tag
    // of every cached answer (they were computed when the appended rows
    // did not exist), and an ingest commit changes the answers
    // themselves. The cube generation the cache keys on cannot see the
    // former, so the fence must not be conditional on it.
    cache_->InvalidateAll();
    RebuildGlobalAnswer();
  }
  BumpFreshEpoch();
}

void QueryServer::ReadShared(const std::function<void()>& fn) {
  std::shared_lock<WriterPrioritySharedMutex> lock(cube_mu_);
  fn();
}

void QueryServer::BumpFreshEpoch() {
  {
    std::lock_guard<std::mutex> lock(fresh_mu_);
    ++fresh_epoch_;
  }
  fresh_cv_.notify_all();
}

bool QueryServer::WaitForFreshness(double timeout_ms) {
  Stopwatch timer;
  while (true) {
    // Capture the epoch BEFORE the pending check: a commit landing
    // between the check and the wait bumps the epoch, so the wait
    // predicate observes it — no lost wakeup.
    uint64_t epoch;
    {
      std::lock_guard<std::mutex> lock(fresh_mu_);
      epoch = fresh_epoch_;
    }
    {
      std::shared_lock<WriterPrioritySharedMutex> lock(cube_mu_);
      if (engine_->PendingIngestRows() == 0) return true;
    }
    std::unique_lock<std::mutex> lock(fresh_mu_);
    auto epoch_changed = [&] { return fresh_epoch_ != epoch; };
    if (timeout_ms > 0.0) {
      double remaining_ms = timeout_ms - timer.ElapsedMillis();
      if (remaining_ms <= 0.0) return false;  // the cube is still behind
      // A commit or the end of a slice: either way, check again.
      fresh_cv_.wait_for(lock, WaitSlice(remaining_ms), epoch_changed);
    } else {
      fresh_cv_.wait(lock, epoch_changed);
    }
  }
}

Status QueryServer::Refresh(QueryEngine::RefreshStats* stats) {
  std::unique_lock<WriterPrioritySharedMutex> lock(cube_mu_);
  // Delay-only seam: widens the exclusive-lock window so refresh-vs-
  // query races (generation fencing, stale-cache checks) are reachable
  // deterministically instead of only under lucky scheduling.
  TABULA_FAULT_DELAY("serve.refresh");
  Status st = engine_->Refresh(stats);
  if (st.ok()) {
    // The registered listener already fenced the cache; refresh the
    // degraded-answer snapshot (a full rebuild may replace the global
    // sample).
    RebuildGlobalAnswer();
    meters_.refreshes.Increment();
  }
  return st;
}

}  // namespace tabula
