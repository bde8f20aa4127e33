#ifndef TABULA_SERVE_QUERY_SERVER_H_
#define TABULA_SERVE_QUERY_SERVER_H_

#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <shared_mutex>

#include "common/writer_priority_mutex.h"
#include <vector>

#include "common/status.h"
#include "common/stopwatch.h"
#include "common/thread_pool.h"
#include "core/query_engine.h"
#include "core/query_request.h"
#include "core/tabula.h"
#include "obs/slow_query_log.h"
#include "obs/trace.h"
#include "serve/metrics.h"
#include "serve/result_cache.h"
#include "storage/predicate.h"

namespace tabula {

/// Configuration of a QueryServer.
struct QueryServerOptions {
  /// Maximum queries executing concurrently against the cube
  /// (0 → thread-pool width). Excess requests wait in the admission
  /// queue; cache hits bypass the limit entirely.
  size_t max_concurrency = 0;
  /// Upper bound on requests waiting + executing. Requests beyond it
  /// are rejected with Status::Unavailable instead of queueing without
  /// bound (fail fast under overload, keep latency bounded).
  size_t max_queue = 1024;
  /// Default per-request deadline in milliseconds (0 → none). A request
  /// still waiting for admission when its deadline expires degrades to
  /// the global sample instead of queueing further — the bounded
  /// response-time side of the BlinkDB-style contract. Degraded answers
  /// carry `ServeAnswer::degraded = true` and void the θ bound for
  /// iceberg cells.
  double default_deadline_ms = 0.0;
  bool enable_cache = true;
  ResultCacheOptions cache;
  /// Tracing sink (not owned; may be null). Every served request emits
  /// a "serve.query" span (batches add a "serve.batch" parent) whose
  /// duration IS the latency recorded into the `serve_latency`
  /// histogram, so trace and metrics cannot disagree. Null or kDisabled
  /// costs one branch per request.
  Tracer* tracer = nullptr;
  /// Slow-query log threshold in milliseconds (<= 0 → disabled).
  /// Requests at or above it are recorded with their canonical
  /// predicate key and, when traced, their rendered span tree.
  double slow_query_ms = 0.0;
  size_t slow_query_capacity = 128;
};

/// One served answer: a shared handle to the (possibly cached) query
/// result plus serving metadata.
struct ServeAnswer {
  std::shared_ptr<const TabulaQueryResult> result;
  bool cache_hit = false;
  /// True when the deadline expired before the cell lookup could run;
  /// `result` is then the global sample (θ bound not guaranteed for
  /// iceberg cells — the dashboard should mark the tile provisional).
  bool degraded = false;
  /// Milliseconds spent waiting for an execution slot.
  double queue_millis = 0.0;
  /// End-to-end serving time (queue + lookup), in milliseconds. When
  /// the request was traced this is the "serve.query" span's duration.
  double total_millis = 0.0;
  /// Id of the "serve.query" span that timed this request (0 when not
  /// traced); look its subtree up in the server's Tracer.
  uint64_t span_id = 0;
  /// True when the request failed; `result` is null and the caller got a
  /// Status instead. Failed requests still flow through the latency
  /// epilogue, so the histogram and slow-query log account for them.
  bool error = false;
};

/// Per-item outcome of a BatchQuery (Result<T> is not
/// default-constructible, so batch items carry an explicit Status).
struct BatchItem {
  Status status;
  ServeAnswer answer;
};

/// \brief Concurrent serving layer in front of a query engine.
///
/// Turns the single-caller middleware into a server: a sharded LRU
/// result cache keyed on the canonical predicate set, a bounded
/// admission queue with a concurrency limit on top of the shared
/// ThreadPool, per-request deadlines that degrade gracefully to the
/// global sample, batched multi-cell queries for heatmap pans, and a
/// metrics registry (QPS counters, latency percentiles, hit rate,
/// in-flight gauge).
///
/// Thread-safety: Query()/BatchQuery() may be called from any number of
/// threads. Refresh() takes an exclusive lock (readers drain first) and
/// fences the cache, so a cached answer computed against the
/// pre-refresh cube is never served afterwards.
class QueryServer {
 public:
  /// `engine` must outlive the server — a single-instance `Tabula` or
  /// a `ShardedTabula` (src/shard/), routed through the shared
  /// QueryEngine interface. `pool` defaults to the global pool; pass a
  /// dedicated one to isolate serving from init traffic.
  explicit QueryServer(QueryEngine* engine, QueryServerOptions options = {},
                       ThreadPool* pool = nullptr);
  ~QueryServer();

  QueryServer(const QueryServer&) = delete;
  QueryServer& operator=(const QueryServer&) = delete;

  /// Answers one dashboard query — the canonical entry point. Honors
  /// every QueryRequest knob: `deadline_ms` (< 0 → server default,
  /// 0 → none, NaN or ±inf → kInvalidArgument), `consistency` (kBypassCache skips the cache probe but
  /// still caches the fresh answer), `trace`/`parent_span` (the
  /// "serve.query" span and its "tabula.query" child).
  Result<ServeAnswer> Query(const QueryRequest& request);

  /// Fans a multi-cell request (e.g. every cell of a heatmap pan)
  /// across the thread pool and gathers all answers. One invalid cell
  /// fails only its own item. Rejects the whole batch with Unavailable
  /// when it alone would overflow the admission queue. Per-item
  /// deadlines are measured against the batch clock; each item's
  /// "serve.query" span parents under one "serve.batch" span across the
  /// thread-pool hop.
  Result<std::vector<BatchItem>> BatchQuery(
      const std::vector<QueryRequest>& requests);

  /// Runs the engine's Refresh() exclusively (in-flight queries drain
  /// first, new ones queue) and fences the result cache so no stale
  /// sample is served afterwards.
  Status Refresh(QueryEngine::RefreshStats* stats = nullptr);

  /// Runs `fn` under the exclusive engine lock (readers drain first),
  /// then fences the result cache, re-captures the degraded-answer
  /// snapshot, and wakes freshness waiters. The Ingestor routes every
  /// engine/table mutation — row appends, BeginIngest, CommitIngest —
  /// through here so serving stays coherent: an append immediately
  /// invalidates cached answers whose `stale` tag it falsified.
  void MutateExclusive(const std::function<void()>& fn);

  /// Runs `fn` under the shared engine lock (concurrent with queries);
  /// the Ingestor's slow phases (PlanIngest, ExecuteIngest) use this so
  /// maintenance never blocks the dashboard.
  void ReadShared(const std::function<void()>& fn);

  /// Blocks until the engine has no pending ingest rows, or `timeout_ms`
  /// elapses (0 → wait forever). Returns true when the cube is fully
  /// caught up. The wait is wakeup-driven (ingest commits and refreshes
  /// bump an internal epoch), not a poll; a long timeout is slept in 1 s
  /// slices, each ending in a re-check.
  bool WaitForFreshness(double timeout_ms);

  const ResultCache& cache() const { return *cache_; }
  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }
  std::string MetricsText() const { return metrics_.RenderText(); }
  const QueryServerOptions& options() const { return options_; }
  const SlowQueryLog& slow_query_log() const { return slow_log_; }
  Tracer* tracer() const { return options_.tracer; }

 private:
  enum class Admission { kRejected, kTimedOut, kAcquired };

  /// Uncached lookup path: executes under the shared cube lock and
  /// caches the answer unless a refresh fenced the generation.
  /// `parent_span` links the middleware's "tabula.query" span under the
  /// caller's "serve.query" span.
  Result<ServeAnswer> Execute(std::vector<PredicateTerm> canonical,
                              SpatialRange range, const std::string& key,
                              bool ranged, bool trace, uint64_t parent_span);

  /// One batch item: cache probe → deadline check → pooled execution
  /// (no per-request slot; the pool bounds parallelism). Runs on a
  /// pool thread; `batch_span` parents the item's span across the hop.
  BatchItem ServeBatchItem(const QueryRequest& request, double deadline_ms,
                           const Stopwatch& batch_timer,
                           uint64_t batch_span);

  /// Serves the pre-captured global sample when a deadline expired.
  ServeAnswer DegradedAnswer(double queue_millis);

  /// Records `answer` into the slow-query log when it crossed the
  /// threshold, attaching the rendered span tree when traced.
  void MaybeLogSlowQuery(const std::string& key, const ServeAnswer& answer);

  /// Re-captures the global-sample snapshot used by DegradedAnswer.
  void RebuildGlobalAnswer();

  /// Bumps the freshness epoch and wakes WaitForFreshness waiters. It
  /// only takes fresh_mu_, so calling it while holding cube_mu_ is safe
  /// (waiters never hold fresh_mu_ while acquiring cube_mu_).
  void BumpFreshEpoch();

  /// Counts the request against the queue bound and blocks for an
  /// execution slot until `deadline_ms` passes (0 → wait forever).
  Admission Admit(double deadline_ms, double* waited_ms);
  void ReleaseSlot();

  QueryEngine* engine_;
  QueryServerOptions options_;
  ThreadPool* pool_;
  std::unique_ptr<ResultCache> cache_;
  MetricsRegistry metrics_;
  /// The per-request metrics, looked up in `metrics_` once (its
  /// references are stable), so no request takes the registry lock.
  struct Meters {
    explicit Meters(MetricsRegistry& registry);
    Counter& queries_total;
    Counter& cache_hits;
    Counter& cache_misses;
    Counter& rejected;
    Counter& degraded;
    Counter& degraded_results;
    Counter& errors;
    Counter& batches;
    Counter& refreshes;
    Gauge& in_flight;
    LatencyHistogram& latency;
  };
  Meters meters_{metrics_};
  SlowQueryLog slow_log_;
  uint64_t refresh_listener_id_ = 0;

  /// Readers (queries) take shared, Refresh() takes exclusive.
  /// Writer-priority: a pending ingest commit blocks new readers for
  /// the microseconds the pointer swap needs instead of being starved
  /// by a saturating query stream (see writer_priority_mutex.h).
  WriterPrioritySharedMutex cube_mu_;

  /// Degraded answers must not block on cube_mu_ (the overload they
  /// mitigate may be a Refresh holding it), so they serve this
  /// snapshot, guarded by its own mutex.
  std::mutex global_answer_mu_;
  std::shared_ptr<const TabulaQueryResult> global_answer_;

  /// Concurrency-limit semaphore + admission count.
  std::mutex slot_mu_;
  std::condition_variable slot_cv_;
  size_t running_ = 0;
  size_t admitted_ = 0;  // waiting + running, bounded by max_queue

  /// Freshness epoch for WaitForFreshness: bumped on every refresh /
  /// ingest commit (via the refresh listener) and on every
  /// MutateExclusive. Guarded by its own mutex — never held while
  /// acquiring cube_mu_, so bumping under cube_mu_ cannot deadlock.
  std::mutex fresh_mu_;
  std::condition_variable fresh_cv_;
  uint64_t fresh_epoch_ = 0;
};

}  // namespace tabula

#endif  // TABULA_SERVE_QUERY_SERVER_H_
