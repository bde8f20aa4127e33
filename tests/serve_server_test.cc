#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <future>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/thread_pool.h"
#include "core/tabula.h"
#include "data/taxi_gen.h"
#include "data/workload.h"
#include "ingest/ingestor.h"
#include "loss/mean_loss.h"
#include "serve/metrics.h"
#include "serve/query_server.h"
#include "testing/fault_injection.h"

namespace tabula {
namespace {

/// Post-redesign the serving surface takes QueryRequest only; these
/// build request lists from bare predicate lists, which the tests
/// still author by hand.
std::vector<QueryRequest> Requests(
    const std::vector<std::vector<PredicateTerm>>& cells,
    double deadline_ms = -1.0) {
  std::vector<QueryRequest> requests;
  requests.reserve(cells.size());
  for (const auto& where : cells) {
    QueryRequest request(where);
    request.deadline_ms = deadline_ms;
    requests.push_back(std::move(request));
  }
  return requests;
}


/// Shared fixture: a 20k-ride table, a mean-loss cube over two
/// attributes, and a workload of real cells to hammer.
class QueryServerTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TaxiGeneratorOptions gen;
    gen.num_rows = 20000;
    gen.seed = 61;
    table_ = TaxiGenerator(gen).Generate();
    loss_ = std::make_unique<MeanLoss>("fare_amount");
    options_.cubed_attributes = {"payment_type", "rate_code"};
    options_.loss = loss_.get();
    options_.threshold = 0.05;
    options_.keep_maintenance_state = true;
    auto tabula = Tabula::Initialize(*table_, options_);
    ASSERT_TRUE(tabula.ok()) << tabula.status().ToString();
    tabula_ = std::move(tabula).value();

    WorkloadOptions wopts;
    wopts.num_queries = 40;
    wopts.seed = 17;
    auto workload =
        GenerateWorkload(*table_, options_.cubed_attributes, wopts);
    ASSERT_TRUE(workload.ok());
    workload_ = std::move(workload).value();
  }

  /// Actual loss of `answer` against the current ground truth of
  /// `where` (0 when the cell is empty).
  double ActualLoss(const std::vector<PredicateTerm>& where,
                    const DatasetView& answer) {
    auto pred = BoundPredicate::Bind(*table_, where);
    EXPECT_TRUE(pred.ok());
    DatasetView truth(table_.get(), pred->FilterAll());
    if (truth.empty()) return 0.0;
    auto loss = loss_->Loss(truth, answer);
    EXPECT_TRUE(loss.ok());
    return loss.value();
  }

  std::unique_ptr<Table> table_;
  std::unique_ptr<MeanLoss> loss_;
  TabulaOptions options_;
  std::unique_ptr<Tabula> tabula_;
  std::vector<WorkloadQuery> workload_;
};

TEST_F(QueryServerTest, ServesSameAnswerAsDirectQuery) {
  QueryServer server(tabula_.get());
  for (const auto& q : workload_) {
    auto direct = tabula_->Query(QueryRequest(q.where));
    ASSERT_TRUE(direct.ok());
    auto served = server.Query(QueryRequest(q.where));
    ASSERT_TRUE(served.ok()) << q.ToString();
    ASSERT_NE(served->result, nullptr);
    EXPECT_EQ(served->result->from_local_sample,
              direct->result.from_local_sample);
    EXPECT_EQ(served->result->empty_cell, direct->result.empty_cell);
    EXPECT_EQ(served->result->sample.size(), direct->result.sample.size());
    EXPECT_FALSE(served->degraded);
  }
}

TEST_F(QueryServerTest, SecondQueryHitsCache) {
  QueryServer server(tabula_.get());
  const auto& where = workload_[0].where;
  auto first = server.Query(QueryRequest(where));
  ASSERT_TRUE(first.ok());
  EXPECT_FALSE(first->cache_hit);
  auto second = server.Query(QueryRequest(where));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  // Hits hand out the same immutable result object, not a copy.
  EXPECT_EQ(second->result.get(), first->result.get());
  EXPECT_EQ(server.metrics().Snapshot().CounterValue("serve_cache_hits"),
            1u);
}

TEST_F(QueryServerTest, CacheHitIsPredicateOrderInsensitive) {
  QueryServer server(tabula_.get());
  std::vector<PredicateTerm> ab = {
      {"payment_type", CompareOp::kEq, Value("Cash")},
      {"rate_code", CompareOp::kEq, Value("Standard")}};
  std::vector<PredicateTerm> ba = {ab[1], ab[0]};
  auto first = server.Query(QueryRequest(ab));
  ASSERT_TRUE(first.ok());
  auto second = server.Query(QueryRequest(ba));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
}

TEST_F(QueryServerTest, SpatialRangeIsServedAndCachedByBox) {
  // A grid-enabled cube behind the same serving stack: range answers
  // flow through Execute/cache like equality answers, keyed by box.
  TabulaOptions spatial_options = options_;
  spatial_options.spatial.levels = 3;
  auto cube = Tabula::Initialize(*table_, spatial_options);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  QueryServer server(cube.value().get());

  QueryRequest request;
  request.range.bounds = {{"pickup_x", 0.3, 0.6}, {"pickup_y", 0.4, 0.7}};
  auto direct = cube.value()->Query(request);
  ASSERT_TRUE(direct.ok()) << direct.status().ToString();

  auto first = server.Query(request);
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_FALSE(first->cache_hit);
  EXPECT_EQ(first->result->sample.ToRowIds(), direct->result.sample.ToRowIds());

  // Same box, opposite bound order → same canonical key → hit.
  QueryRequest reordered;
  reordered.range.bounds = {{"pickup_y", 0.4, 0.7}, {"pickup_x", 0.3, 0.6}};
  auto second = server.Query(reordered);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_EQ(second->result.get(), first->result.get());

  // A different box is a different answer, not a phantom hit.
  QueryRequest other;
  other.range.bounds = {{"pickup_x", 0.1, 0.2}, {"pickup_y", 0.4, 0.7}};
  auto third = server.Query(other);
  ASSERT_TRUE(third.ok());
  EXPECT_FALSE(third->cache_hit);

  // Equality-only requests must not collide with ranged ones.
  std::vector<PredicateTerm> where = {
      {"payment_type", CompareOp::kEq, Value("Cash")}};
  auto plain = server.Query(QueryRequest(where));
  ASSERT_TRUE(plain.ok());
  EXPECT_FALSE(plain->cache_hit);
  QueryRequest hybrid(where);
  hybrid.range = request.range;
  auto mixed = server.Query(hybrid);
  ASSERT_TRUE(mixed.ok());
  EXPECT_FALSE(mixed->cache_hit);
  EXPECT_NE(mixed->result.get(), plain->result.get());
}

TEST_F(QueryServerTest, DuplicateTermsAreCanonicalized) {
  QueryServer server(tabula_.get());
  // Tabula::Query rejects literal duplicates; the server canonicalizes
  // exact repetitions away (same predicate set), so this succeeds.
  std::vector<PredicateTerm> dup = {
      {"payment_type", CompareOp::kEq, Value("Cash")},
      {"payment_type", CompareOp::kEq, Value("Cash")}};
  auto served = server.Query(QueryRequest(dup));
  ASSERT_TRUE(served.ok()) << served.status().ToString();
  // Contradictory terms on one column are still an error.
  std::vector<PredicateTerm> conflict = {
      {"payment_type", CompareOp::kEq, Value("Cash")},
      {"payment_type", CompareOp::kEq, Value("Credit")}};
  EXPECT_FALSE(server.Query(QueryRequest(conflict)).ok());
}

TEST_F(QueryServerTest, EmptyCellIsServedAndCached) {
  QueryServer server(tabula_.get());
  std::vector<PredicateTerm> where = {
      {"payment_type", CompareOp::kEq, Value("Barter")}};  // never occurs
  auto first = server.Query(QueryRequest(where));
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->result->empty_cell);
  EXPECT_EQ(first->result->sample.size(), 0u);
  auto second = server.Query(QueryRequest(where));
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);
  EXPECT_TRUE(second->result->empty_cell);
}

TEST_F(QueryServerTest, BatchQueryMatchesIndividualAnswers) {
  QueryServer server(tabula_.get());
  std::vector<std::vector<PredicateTerm>> cells;
  for (const auto& q : workload_) cells.push_back(q.where);
  auto batch = server.BatchQuery(Requests(cells));
  ASSERT_TRUE(batch.ok());
  ASSERT_EQ(batch->size(), cells.size());
  for (size_t i = 0; i < cells.size(); ++i) {
    const BatchItem& item = (*batch)[i];
    ASSERT_TRUE(item.status.ok()) << workload_[i].ToString();
    auto direct = tabula_->Query(QueryRequest(cells[i]));
    ASSERT_TRUE(direct.ok());
    EXPECT_EQ(item.answer.result->sample.size(),
              direct->result.sample.size());
    EXPECT_EQ(item.answer.result->from_local_sample,
              direct->result.from_local_sample);
  }
  EXPECT_EQ(server.metrics().Snapshot().CounterValue("serve_batches"), 1u);
}

TEST_F(QueryServerTest, BatchIsolatesPerItemErrors) {
  QueryServer server(tabula_.get());
  std::vector<std::vector<PredicateTerm>> cells = {
      {{"payment_type", CompareOp::kEq, Value("Cash")}},
      {{"not_a_cubed_attribute", CompareOp::kEq, Value("x")}},
      {{"rate_code", CompareOp::kEq, Value("JFK")}}};
  auto batch = server.BatchQuery(Requests(cells));
  ASSERT_TRUE(batch.ok());
  EXPECT_TRUE((*batch)[0].status.ok());
  EXPECT_FALSE((*batch)[1].status.ok());
  EXPECT_TRUE((*batch)[2].status.ok());
}

TEST_F(QueryServerTest, BatchBeyondQueueBoundIsRejected) {
  QueryServerOptions sopts;
  sopts.max_concurrency = 2;  // keep max_queue from being widened
  sopts.max_queue = 8;
  QueryServer server(tabula_.get(), sopts);
  std::vector<std::vector<PredicateTerm>> cells(
      9, {{"payment_type", CompareOp::kEq, Value("Cash")}});
  auto batch = server.BatchQuery(Requests(cells));
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kUnavailable);
}

TEST_F(QueryServerTest, BatchExceptionDoesNotLeakAdmissionSlots) {
  // Regression: BatchQuery incremented admitted_ before the fan-out and
  // decremented only after it. An exception rethrown by ParallelFor
  // (here: the serve.execute seam throwing mid-batch) skipped the
  // decrement, permanently shrinking the admission queue.
  ScopedFaultClear clear;
  QueryServerOptions sopts;
  sopts.enable_cache = false;
  sopts.max_concurrency = 2;
  sopts.max_queue = 8;
  QueryServer server(tabula_.get(), sopts);

  FaultSpec boom;
  boom.throw_exception = true;
  boom.max_triggers = 1;
  FaultInjector::Global().Arm("serve.execute", boom);

  std::vector<std::vector<PredicateTerm>> cells(
      8, {{"payment_type", CompareOp::kEq, Value("Cash")}});
  auto batch = server.BatchQuery(Requests(cells));
  ASSERT_FALSE(batch.ok());
  EXPECT_EQ(batch.status().code(), StatusCode::kInternal);
  FaultInjector::Global().DisarmAll();

  // With the slots released during unwinding, a max-size batch and a
  // plain query both still fit; a leak would reject them forever.
  auto retry = server.BatchQuery(Requests(cells));
  ASSERT_TRUE(retry.ok()) << retry.status().ToString();
  for (const BatchItem& item : *retry) EXPECT_TRUE(item.status.ok());
  EXPECT_TRUE(server.Query(QueryRequest(cells[0])).ok());
}

TEST_F(QueryServerTest, FailedQueryIsAccountedInLatencyAndSlowLog) {
  // Regression: the Query error path returned before the finish
  // epilogue, so failed requests never reached the serve_latency
  // histogram or the slow-query log — under an error storm the p99
  // looked healthy while every request failed.
  ScopedFaultClear clear;
  QueryServerOptions sopts;
  sopts.enable_cache = false;
  sopts.slow_query_ms = 1e-6;  // log every request
  QueryServer server(tabula_.get(), sopts);

  FaultSpec fail;
  fail.fail = true;
  FaultInjector::Global().Arm("serve.execute", fail);
  auto answer = server.Query(QueryRequest(workload_[0].where));
  ASSERT_FALSE(answer.ok());
  FaultInjector::Global().DisarmAll();

  MetricsSnapshot snap = server.metrics().Snapshot();
  EXPECT_EQ(snap.CounterValue("serve_errors"), 1u);
  EXPECT_EQ(server.metrics().histogram("serve_latency").Snapshot().count, 1u)
      << "failed request missing from the latency histogram";
  auto slow = server.slow_query_log().Snapshot();
  ASSERT_EQ(slow.size(), 1u);
  EXPECT_TRUE(slow[0].error);
  EXPECT_GT(slow[0].total_millis, 0.0);
}

TEST_F(QueryServerTest, FailingBatchItemsKeepQueueMillisAndLatency) {
  // Regression: ServeBatchItem's error path skipped finish() and never
  // set queue_millis, so failing items vanished from the histogram.
  ScopedFaultClear clear;
  QueryServerOptions sopts;
  sopts.enable_cache = false;
  QueryServer server(tabula_.get(), sopts);

  FaultSpec fail;
  fail.fail = true;
  FaultInjector::Global().Arm("serve.execute", fail);
  std::vector<std::vector<PredicateTerm>> cells(
      4, {{"payment_type", CompareOp::kEq, Value("Cash")}});
  auto batch = server.BatchQuery(Requests(cells));
  FaultInjector::Global().DisarmAll();
  ASSERT_TRUE(batch.ok());
  for (const BatchItem& item : *batch) {
    EXPECT_FALSE(item.status.ok());
    EXPECT_TRUE(item.answer.error);
    EXPECT_GT(item.answer.total_millis, 0.0);
  }
  EXPECT_EQ(server.metrics().histogram("serve_latency").Snapshot().count,
            cells.size());
}

TEST_F(QueryServerTest, ExpiredDeadlineDegradesToGlobalSample) {
  QueryServerOptions sopts;
  sopts.enable_cache = false;
  QueryServer server(tabula_.get(), sopts);
  std::vector<std::vector<PredicateTerm>> cells;
  for (size_t i = 0; i < 8; ++i) cells.push_back(workload_[i].where);
  // A deadline that has already passed when each item runs: every item
  // degrades to the global sample instead of doing the cell lookup.
  auto batch = server.BatchQuery(Requests(cells, /*deadline_ms=*/1e-6));
  ASSERT_TRUE(batch.ok());
  for (const BatchItem& item : *batch) {
    ASSERT_TRUE(item.status.ok());
    EXPECT_TRUE(item.answer.degraded);
    EXPECT_FALSE(item.answer.result->from_local_sample);
    EXPECT_EQ(item.answer.result->sample.size(),
              tabula_->global_sample().size());
  }
  EXPECT_EQ(server.metrics().Snapshot().CounterValue("serve_degraded"),
            cells.size());
}

TEST_F(QueryServerTest, SaturatedServerAnswersAHugeDeadlineOnceTheSlotFrees) {
  // Regression: the admission wait handed `deadline - elapsed` to
  // wait_for, which converts it to integer nanoseconds; for 1e300 ms
  // that conversion is undefined (UBSan float-cast-overflow). Waits
  // derived from a deadline now sleep in bounded slices.
  ScopedFaultClear clear;
  QueryServerOptions sopts;
  sopts.enable_cache = false;
  sopts.max_concurrency = 1;
  QueryServer server(tabula_.get(), sopts);

  // The holder keeps the one execution slot for 200 ms.
  FaultSpec slow;
  slow.fail = false;
  slow.delay_ms = 200.0;
  slow.max_triggers = 1;
  FaultInjector::Global().Arm("serve.execute", slow);
  std::thread holder([&] {
    EXPECT_TRUE(server.Query(QueryRequest(workload_[0].where)).ok());
  });
  while (FaultInjector::Global().StatsFor("serve.execute").hits == 0) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  QueryRequest waiter(workload_[1].where);
  waiter.deadline_ms = 1e300;
  auto answer = server.Query(waiter);
  holder.join();
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_FALSE(answer->degraded);
  EXPECT_GE(answer->queue_millis, 20.0) << "the request never waited";
}

TEST_F(QueryServerTest, NonFiniteDeadlinesAreInvalidArguments) {
  QueryServer server(tabula_.get());
  for (double deadline : {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()}) {
    QueryRequest request(workload_[0].where);
    request.deadline_ms = deadline;
    EXPECT_EQ(server.Query(request).status().code(),
              StatusCode::kInvalidArgument)
        << deadline;
    auto batch = server.BatchQuery({request});
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    EXPECT_EQ((*batch)[0].status.code(), StatusCode::kInvalidArgument)
        << deadline;
  }
  EXPECT_TRUE(server.Query(QueryRequest(workload_[0].where)).ok());
}

/// The ISSUE's concurrency smoke test: many client threads, mixed
/// cached/uncached/empty-cell traffic, every non-degraded answer must
/// still satisfy the θ loss bound. Canonical TSan target
/// (TABULA_SANITIZE=thread).
TEST_F(QueryServerTest, ConcurrentMixedLoadKeepsLossBound) {
  QueryServerOptions sopts;
  sopts.cache.num_shards = 4;
  QueryServer server(tabula_.get(), sopts);

  const size_t kThreads = 8;
  const size_t kQueriesPerThread = 150;
  std::atomic<size_t> failures{0};
  std::atomic<size_t> served{0};
  std::vector<std::thread> clients;
  clients.reserve(kThreads);
  for (size_t t = 0; t < kThreads; ++t) {
    clients.emplace_back([&, t] {
      for (size_t i = 0; i < kQueriesPerThread; ++i) {
        size_t pick = (t * 31 + i * 7) % (workload_.size() + 2);
        std::vector<PredicateTerm> where;
        if (pick < workload_.size()) {
          where = workload_[pick].where;  // mix of repeats → cache hits
        } else if (pick == workload_.size()) {
          where = {{"payment_type", CompareOp::kEq, Value("Barter")}};
        } else {
          where = {{"rate_code", CompareOp::kEq, Value("Nowhere")}};
        }
        auto answer = server.Query(QueryRequest(where));
        if (!answer.ok() || answer->result == nullptr) {
          ++failures;
          continue;
        }
        ++served;
      }
    });
  }
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0u);
  EXPECT_EQ(served.load(), kThreads * kQueriesPerThread);

  // Re-check the θ bound for every distinct cell that was served (the
  // answers are deterministic, so post-hoc verification is equivalent
  // and keeps the loss evaluation out of the contended phase).
  for (const auto& q : workload_) {
    auto answer = server.Query(QueryRequest(q.where));
    ASSERT_TRUE(answer.ok());
    EXPECT_LE(ActualLoss(q.where, answer->result->sample),
              options_.threshold)
        << q.ToString();
  }

  MetricsSnapshot snap = server.metrics().Snapshot();
  uint64_t total = snap.CounterValue("serve_queries_total");
  EXPECT_EQ(total, kThreads * kQueriesPerThread + workload_.size());
  EXPECT_EQ(snap.CounterValue("serve_cache_hits") +
                snap.CounterValue("serve_cache_misses"),
            total);
  EXPECT_GT(snap.CounterValue("serve_cache_hits"), 0u);
  ResultCacheStats cache_stats = server.cache().Stats();
  EXPECT_GT(cache_stats.HitRate(), 0.5);  // 1200 queries over ~42 cells
}

/// A Refresh() that lands mid-load must fence the cache: answers after
/// it reflect the new data, never a stale cached sample.
TEST_F(QueryServerTest, RefreshMidLoadNeverServesStaleSample) {
  QueryServer server(tabula_.get());
  std::vector<PredicateTerm> skewed = {
      {"payment_type", CompareOp::kEq, Value("No Charge")}};

  // Pre-load: cache the cell's current answer and hit it once.
  auto before = server.Query(QueryRequest(skewed));
  ASSERT_TRUE(before.ok());
  ASSERT_TRUE(server.Query(QueryRequest(skewed))->cache_hit);

  // Client threads hammer the server while the base table grows and a
  // Refresh lands. They skip the skewed cell itself: a client running
  // it in the instant after Refresh() returns would re-cache a fresh
  // answer and race the deterministic cache-miss probe below.
  const std::string skewed_key = CanonicalPredicateKey(skewed);
  std::vector<const WorkloadQuery*> client_queries;
  for (const auto& q : workload_) {
    if (CanonicalPredicateKey(CanonicalizeTerms(q.where)) != skewed_key) {
      client_queries.push_back(&q);
    }
  }
  ASSERT_LT(client_queries.size(), workload_.size());  // workload hits the cell
  std::atomic<bool> stop{false};
  std::atomic<size_t> failures{0};
  std::vector<std::thread> clients;
  for (size_t t = 0; t < 4; ++t) {
    clients.emplace_back([&, t] {
      size_t i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        const auto& q = *client_queries[(t + i++) % client_queries.size()];
        auto answer = server.Query(QueryRequest(q.where));
        if (!answer.ok()) ++failures;
      }
    });
  }

  // Skew the cell hard enough that its old sample violates θ against
  // the new truth (fares far above the previous mean).
  const Schema& schema = table_->schema();
  std::vector<Value> row(schema.num_fields());
  row[0] = Value("CMT");
  row[1] = Value("Mon");
  row[2] = Value("1");
  row[3] = Value("No Charge");
  row[4] = Value("Standard");
  row[5] = Value("N");
  row[6] = Value("Mon");
  row[7] = Value("[0,5)");
  row[8] = Value(1.0);
  row[9] = Value(500.0);
  row[10] = Value(0.0);
  row[11] = Value(0.5);
  row[12] = Value(0.5);
  // Appends go through the server's exclusive path, as the Ingestor's
  // do: the client threads read the table under the shared lock.
  Status appended = Status::OK();
  server.MutateExclusive([&] {
    for (size_t i = 0; i < 2000 && appended.ok(); ++i) {
      appended = table_->AppendRow(row);
    }
  });
  ASSERT_TRUE(appended.ok()) << appended.ToString();
  // Read after the append's own fence, so the check below pins
  // Refresh's fence.
  uint64_t generation_before = server.cache().generation();
  Tabula::RefreshStats rstats;
  ASSERT_TRUE(server.Refresh(&rstats).ok());
  EXPECT_EQ(rstats.new_rows, 2000u);
  EXPECT_GT(server.cache().generation(), generation_before);

  stop = true;
  for (auto& c : clients) c.join();
  EXPECT_EQ(failures.load(), 0u);

  // The post-refresh answer must satisfy θ against the NEW truth. A
  // stale cached sample would fail this by an order of magnitude.
  auto after = server.Query(QueryRequest(skewed));
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after->cache_hit);
  EXPECT_LE(ActualLoss(skewed, after->result->sample), options_.threshold);
  // And the old handle is still safe to read (shared ownership), even
  // though it no longer reflects the cube.
  EXPECT_GT(before->result->sample.size(), 0u);
}

TEST_F(QueryServerTest, MetricsRenderText) {
  QueryServer server(tabula_.get());
  ASSERT_TRUE(server.Query(QueryRequest(workload_[0].where)).ok());
  ASSERT_TRUE(server.Query(QueryRequest(workload_[0].where)).ok());
  std::string text = server.MetricsText();
  EXPECT_NE(text.find("serve_queries_total 2"), std::string::npos) << text;
  EXPECT_NE(text.find("serve_cache_hits 1"), std::string::npos) << text;
  EXPECT_NE(text.find("serve_latency_p99_us"), std::string::npos) << text;
}

TEST_F(QueryServerTest, TraceFlagYieldsSpanOnDemand) {
  Tracer tracer(TracerOptions{TraceMode::kOnDemand, 256});
  QueryServerOptions opts;
  opts.tracer = &tracer;
  QueryServer server(tabula_.get(), opts);

  QueryRequest plain(workload_[0].where);
  auto untraced = server.Query(plain);
  ASSERT_TRUE(untraced.ok());
  EXPECT_EQ(untraced->span_id, 0u);

  QueryRequest traced(workload_[1].where);
  traced.trace = true;
  auto answer = server.Query(traced);
  ASSERT_TRUE(answer.ok());
  EXPECT_NE(answer->span_id, 0u);
  // The span is retrievable from the tracer by the returned id.
  auto subtree = SpanSubtree(tracer.Snapshot(), answer->span_id);
  ASSERT_FALSE(subtree.empty());
  EXPECT_EQ(subtree.back().name, "serve.query");
}

TEST_F(QueryServerTest, BypassCacheSkipsProbeButStillFills) {
  QueryServer server(tabula_.get());
  const auto& where = workload_[0].where;
  ASSERT_TRUE(server.Query(QueryRequest(where)).ok());  // fills the cache

  QueryRequest bypass(where);
  bypass.consistency = ConsistencyHint::kBypassCache;
  auto fresh = server.Query(bypass);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh->cache_hit);
  // A bypassed probe counts neither as hit nor as miss.
  auto snap = server.metrics().Snapshot();
  EXPECT_EQ(snap.CounterValue("serve_cache_hits"), 0u);

  // The bypassing query still refilled the cache for everyone else.
  auto cached = server.Query(QueryRequest(where));
  ASSERT_TRUE(cached.ok());
  EXPECT_TRUE(cached->cache_hit);
}

TEST_F(QueryServerTest, QueryRequestDefaultsMatchExplicitDefaults) {
  // QueryRequest is the single serving surface (the bare-predicate
  // overloads are gone); a default-constructed request and one with
  // every knob spelled out must land in the same cache slot.
  QueryServer server(tabula_.get());
  auto first = server.Query(QueryRequest(workload_[0].where));
  ASSERT_TRUE(first.ok());
  QueryRequest explicit_request(workload_[0].where);
  explicit_request.deadline_ms = -1.0;
  explicit_request.consistency = ConsistencyHint::kCacheOk;
  auto second = server.Query(explicit_request);
  ASSERT_TRUE(second.ok());
  EXPECT_TRUE(second->cache_hit);  // same canonical key, same cache slot
  EXPECT_EQ(second->result.get(), first->result.get());
}

// ---------- progressive answers under streaming ingestion ----------

/// Serving-side contract of the ingest subsystem (DESIGN.md §8): every
/// answer carries the cube generation it was computed at plus an honest
/// `stale` tag while appended rows pend, the result cache is fenced on
/// every ingest mutation, and kFreshWithinDeadline waits for the
/// in-flight cycle instead of degrading to the global sample.
class ServeIngestTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TaxiGeneratorOptions gen;
    gen.num_rows = 21000;
    gen.seed = 61;
    full_ = TaxiGenerator(gen).Generate();
    base_rows_ = 20000;
    std::vector<RowId> base(base_rows_);
    for (RowId r = 0; r < base_rows_; ++r) base[r] = r;
    table_ = full_->TakeRows(base);
    loss_ = std::make_unique<MeanLoss>("fare_amount");
    options_.cubed_attributes = {"payment_type", "rate_code"};
    options_.loss = loss_.get();
    options_.threshold = 0.05;
    options_.keep_maintenance_state = true;
    auto tabula = Tabula::Initialize(*table_, options_);
    ASSERT_TRUE(tabula.ok()) << tabula.status().ToString();
    tabula_ = std::move(tabula).value();
  }

  std::vector<std::vector<Value>> BoxRows(RowId begin, RowId end) {
    std::vector<std::vector<Value>> rows;
    for (RowId r = begin; r < end; ++r) {
      std::vector<Value> row;
      row.reserve(full_->num_columns());
      for (size_t c = 0; c < full_->num_columns(); ++c) {
        row.push_back(full_->column(c).GetValue(r));
      }
      rows.push_back(std::move(row));
    }
    return rows;
  }

  FaultSpec ErrorSpec() {
    FaultSpec spec;
    spec.every_nth = 1;
    spec.code = StatusCode::kIOError;
    spec.message = "injected ingest fault";
    return spec;
  }

  std::unique_ptr<Table> full_;
  std::unique_ptr<Table> table_;
  size_t base_rows_ = 0;
  std::unique_ptr<MeanLoss> loss_;
  TabulaOptions options_;
  std::unique_ptr<Tabula> tabula_;
};

TEST_F(ServeIngestTest, ServedAnswersCarryGenerationAndStaleTag) {
  ScopedFaultClear clear;
  QueryServer server(tabula_.get());
  IngestorOptions iopts;
  iopts.server = &server;
  auto ingestor = Ingestor::Make(tabula_.get(), table_.get(), iopts);
  ASSERT_TRUE(ingestor.ok());
  const uint64_t gen0 = tabula_->generation();

  const QueryRequest probe(
      {{"payment_type", CompareOp::kEq, Value("Cash")}});
  auto before = server.Query(probe);
  ASSERT_TRUE(before.ok());
  EXPECT_FALSE(before.value().result->stale);
  EXPECT_EQ(before.value().result->generation, gen0);
  EXPECT_TRUE(server.Query(probe).value().cache_hit);

  // A failed mid-batch cycle leaves the rows pending: the cube keeps
  // serving the previous generation, tagged stale — and the append
  // itself fenced the cache, so the tag is recomputed, not replayed.
  FaultInjector::Global().Arm("ingest.merge", ErrorSpec());
  EXPECT_FALSE(
      ingestor.value()->Append(BoxRows(base_rows_, base_rows_ + 500)).ok());
  EXPECT_EQ(ingestor.value()->PendingRows(), 500u);
  auto during = server.Query(probe);
  ASSERT_TRUE(during.ok());
  EXPECT_FALSE(during.value().cache_hit);
  EXPECT_TRUE(during.value().result->stale);
  EXPECT_EQ(during.value().result->generation, gen0);

  FaultInjector::Global().DisarmAll();
  ASSERT_TRUE(ingestor.value()->Drain().ok());
  auto after = server.Query(probe);
  ASSERT_TRUE(after.ok());
  EXPECT_FALSE(after.value().cache_hit);  // the commit fenced the cache
  EXPECT_FALSE(after.value().result->stale);
  EXPECT_EQ(after.value().result->generation, gen0 + 1);
}

TEST_F(ServeIngestTest, FreshWithinDeadlineWaitsForIngestToCommit) {
  QueryServer server(tabula_.get());
  IngestorOptions iopts;
  iopts.server = &server;
  iopts.async = true;
  auto ingestor = Ingestor::Make(tabula_.get(), table_.get(), iopts);
  ASSERT_TRUE(ingestor.ok());
  const uint64_t gen0 = tabula_->generation();
  ASSERT_TRUE(
      ingestor.value()->Append(BoxRows(base_rows_, base_rows_ + 1000)).ok());

  QueryRequest req({{"payment_type", CompareOp::kEq, Value("Cash")}});
  req.consistency = ConsistencyHint::kFreshWithinDeadline;
  req.deadline_ms = 10000.0;
  auto answer = server.Query(req);
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(answer.value().degraded);
  EXPECT_FALSE(answer.value().result->stale);
  EXPECT_EQ(answer.value().result->generation, gen0 + 1);
  ASSERT_TRUE(ingestor.value()->Drain().ok());
}

TEST_F(ServeIngestTest, FreshWithinDeadlineTimesOutToHonestStaleAnswer) {
  ScopedFaultClear clear;
  QueryServer server(tabula_.get());
  IngestorOptions iopts;
  iopts.server = &server;
  auto ingestor = Ingestor::Make(tabula_.get(), table_.get(), iopts);
  ASSERT_TRUE(ingestor.ok());
  const uint64_t gen0 = tabula_->generation();
  FaultInjector::Global().Arm("ingest.merge", ErrorSpec());
  EXPECT_FALSE(
      ingestor.value()->Append(BoxRows(base_rows_, base_rows_ + 400)).ok());
  EXPECT_EQ(ingestor.value()->PendingRows(), 400u);

  QueryRequest req({{"payment_type", CompareOp::kEq, Value("Cash")}});
  req.consistency = ConsistencyHint::kFreshWithinDeadline;
  req.deadline_ms = 50.0;
  auto answer = server.Query(req);
  ASSERT_TRUE(answer.ok());
  // Deadline expired with the cycle still failing: the freshest REAL
  // answer, honestly stale-tagged — never the degraded global-sample
  // fallback.
  EXPECT_FALSE(answer.value().degraded);
  EXPECT_TRUE(answer.value().result->stale);
  EXPECT_EQ(answer.value().result->generation, gen0);

  FaultInjector::Global().DisarmAll();
  ASSERT_TRUE(ingestor.value()->Drain().ok());
  auto fresh = server.Query(req);
  ASSERT_TRUE(fresh.ok());
  EXPECT_FALSE(fresh.value().result->stale);
  EXPECT_EQ(fresh.value().result->generation, gen0 + 1);
}

TEST_F(ServeIngestTest, FreshWithinAHugeDeadlineWaitsOutAPendingCommit) {
  // Regression: WaitForFreshness handed a 1e300 ms deadline to wait_for,
  // whose conversion to integer nanoseconds is undefined (UBSan
  // float-cast-overflow); the wait returned at once and the request was
  // served stale.
  ScopedFaultClear clear;
  QueryServer server(tabula_.get());
  IngestorOptions iopts;
  iopts.server = &server;
  auto ingestor = Ingestor::Make(tabula_.get(), table_.get(), iopts);
  ASSERT_TRUE(ingestor.ok());
  const uint64_t gen0 = tabula_->generation();
  FaultInjector::Global().Arm("ingest.merge", ErrorSpec());
  EXPECT_FALSE(
      ingestor.value()->Append(BoxRows(base_rows_, base_rows_ + 400)).ok());
  ASSERT_EQ(ingestor.value()->PendingRows(), 400u);
  FaultInjector::Global().DisarmAll();

  QueryRequest req({{"payment_type", CompareOp::kEq, Value("Cash")}});
  req.consistency = ConsistencyHint::kFreshWithinDeadline;
  req.deadline_ms = 1e300;
  auto waiting =
      std::async(std::launch::async, [&] { return server.Query(req); });
  EXPECT_EQ(waiting.wait_for(std::chrono::milliseconds(100)),
            std::future_status::timeout)
      << "the request did not wait for the pending commit";
  ASSERT_TRUE(ingestor.value()->Drain().ok());
  auto answer = waiting.get();
  ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  EXPECT_FALSE(answer->degraded);
  EXPECT_FALSE(answer->result->stale);
  EXPECT_EQ(answer->result->generation, gen0 + 1);
}

// ---------- metrics primitives ----------

TEST(LatencyHistogramTest, PercentilesFromKnownDistribution) {
  LatencyHistogram hist;
  // 90 fast observations (~8 us) and 10 slow ones (~4096 us).
  for (int i = 0; i < 90; ++i) hist.Record(7.0);
  for (int i = 0; i < 10; ++i) hist.Record(3000.0);
  HistogramSnapshot snap = hist.Snapshot();
  EXPECT_EQ(snap.count, 100u);
  EXPECT_LE(snap.P50Micros(), 8.0);
  EXPECT_GT(snap.P95Micros(), 1000.0);
  EXPECT_GT(snap.P99Micros(), 1000.0);
  EXPECT_NEAR(snap.MeanMicros(), 0.9 * 7 + 0.1 * 3000, 2.0);
}

TEST(LatencyHistogramTest, EmptyAndOverflow) {
  LatencyHistogram hist;
  EXPECT_EQ(hist.Snapshot().P99Micros(), 0.0);
  hist.Record(1e12);  // beyond the last bucket
  EXPECT_EQ(hist.Snapshot().count, 1u);
  EXPECT_GT(hist.Snapshot().P50Micros(), 1e8);
}

TEST(LatencyHistogramTest, OverflowPercentileIsFlaggedLowerBound) {
  LatencyHistogram hist;
  hist.Record(1e12);  // lands in the overflow bucket
  PercentileEstimate est = hist.Snapshot().PercentileWithOverflow(0.5);
  EXPECT_TRUE(est.overflow);
  // The estimate is exactly the overflow bucket's lower edge (2^27 us),
  // not a number interpolated toward a nonexistent upper edge.
  EXPECT_EQ(est.micros,
            LatencyHistogram::BucketUpperMicros(
                LatencyHistogram::kNumBuckets - 1));

  // A mixed distribution: p50 in range (unflagged), p99 in overflow.
  for (int i = 0; i < 98; ++i) hist.Record(10.0);
  HistogramSnapshot snap = hist.Snapshot();
  PercentileEstimate p50 = snap.PercentileWithOverflow(0.5);
  EXPECT_FALSE(p50.overflow);
  EXPECT_LE(p50.micros, 16.0);
  PercentileEstimate p99 = snap.PercentileWithOverflow(0.995);
  EXPECT_TRUE(p99.overflow);
}

TEST(QueryServerDeadlockTest, RefreshReturnsBesideBatchQuery) {
  // A refresh fans its fold out onto the pool while holding the engine
  // lock exclusively. Batch items occupying every worker block on that
  // lock, so the refresh must finish its grains itself instead of
  // waiting for pool helpers that cannot start.
  TaxiGeneratorOptions gen;
  gen.num_rows = 70000;
  gen.seed = 63;
  std::unique_ptr<Table> table = TaxiGenerator(gen).Generate();
  gen.num_rows = 100;
  gen.seed = 64;
  std::unique_ptr<Table> extra = TaxiGenerator(gen).Generate();
  MeanLoss loss("fare_amount");
  TabulaOptions options;
  options.cubed_attributes = {"payment_type", "rate_code"};
  options.loss = &loss;
  options.threshold = 0.05;
  options.keep_maintenance_state = false;  // the refresh folds every row
  auto tabula = Tabula::Initialize(*table, options);
  ASSERT_TRUE(tabula.ok()) << tabula.status().ToString();
  for (RowId r = 0; r < extra->num_rows(); ++r) {
    ASSERT_TRUE(table->AppendRowFrom(*extra, r).ok());
  }

  ThreadPool pool(2);
  struct GlobalPoolGuard {
    explicit GlobalPoolGuard(ThreadPool* p) { ThreadPool::SetGlobalForTest(p); }
    ~GlobalPoolGuard() { ThreadPool::SetGlobalForTest(nullptr); }
  } guard(&pool);
  ScopedFaultClear clear;
  QueryServerOptions sopts;
  sopts.enable_cache = false;
  QueryServer server(tabula.value().get(), sopts);
  FaultSpec slow;
  slow.fail = false;
  slow.delay_ms = 300.0;
  slow.max_triggers = 1;
  FaultInjector::Global().Arm("serve.refresh", slow);

  std::promise<Status> refreshed;
  std::future<Status> refresh_done = refreshed.get_future();
  std::thread refresher([&] { refreshed.set_value(server.Refresh()); });
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  // Two batches: however the callers race their helpers for chunks, at
  // least one chunk per worker goes to a pool worker.
  std::vector<std::vector<PredicateTerm>> cells(
      64, {{"payment_type", CompareOp::kEq, Value("Cash")}});
  std::vector<Result<std::vector<BatchItem>>> batches(
      2, Status::Internal("not run"));
  std::vector<std::thread> clients;
  for (size_t c = 0; c < batches.size(); ++c) {
    clients.emplace_back(
        [&, c] { batches[c] = server.BatchQuery(Requests(cells)); });
  }
  if (refresh_done.wait_for(std::chrono::seconds(30)) !=
      std::future_status::ready) {
    // Nothing can release a deadlocked refresh: end the process instead
    // of hanging the suite.
    ADD_FAILURE() << "QueryServer::Refresh deadlocked beside a BatchQuery";
    std::fflush(stdout);
    std::_Exit(1);
  }
  refresher.join();
  for (std::thread& client : clients) client.join();
  Status st = refresh_done.get();
  EXPECT_TRUE(st.ok()) << st.ToString();
  for (const auto& batch : batches) {
    ASSERT_TRUE(batch.ok()) << batch.status().ToString();
    for (const BatchItem& item : *batch) EXPECT_TRUE(item.status.ok());
  }
  EXPECT_EQ(tabula.value()->PendingIngestRows(), 0u);
}

TEST(MetricsRegistryTest, CountersAndGaugesAreStable) {
  MetricsRegistry registry;
  Counter& c = registry.counter("requests");
  c.Increment();
  c.Increment(4);
  EXPECT_EQ(registry.counter("requests").value(), 5u);
  Gauge& g = registry.gauge("in_flight");
  g.Increment();
  g.Decrement();
  EXPECT_EQ(g.value(), 0);
  MetricsSnapshot snap = registry.Snapshot();
  EXPECT_EQ(snap.CounterValue("requests"), 5u);
  EXPECT_NE(snap.ToText().find("requests 5"), std::string::npos);
}

}  // namespace
}  // namespace tabula
