// The Tabula benchmark. Three seeded dashboard workloads drive the public
// APIs; an untraced run reports the end-to-end metrics, and a separate
// traced run splits them across layers by timing calls into each module
// from this file (nothing under src/ is instrumented for it).
//
//   perfbench --workload filter_wire|ingest_budget|cube_build
//             --seed N --seconds S --trace 0|1 --tmp DIR [--commit ID]
//
// perfbench/run.py builds this binary from source and runs it. The last
// line of standard output is the result object; the line before it is
// the run envelope (commit, threads, SIMD path, rows, sample counts,
// error and degraded rates, cache hit rate, ingest lag).

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <functional>
#include <iterator>
#include <latch>
#include <limits>
#include <memory>
#include <numeric>
#include <optional>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <pthread.h>
#include <sched.h>
#include <sys/personality.h>
#include <time.h>

#include "common/binary_io.h"
#include "core/tabula.h"
#include "cube/dry_run.h"
#include "cube/lattice.h"
#include "cube/real_run.h"
#include "data/taxi_gen.h"
#include "data/workload.h"
#include "exec/group_by.h"
#include "exec/key_encoder.h"
#include "exec/vector_ops.h"
#include "ingest/ingest_journal.h"
#include "ingest/ingestor.h"
#include "loss/loss_registry.h"
#include "net/client.h"
#include "net/server.h"
#include "net/wire.h"
#include "selection/rep_selection.h"
#include "selection/samgraph.h"
#include "serve/query_server.h"
#include "shard/sharded_tabula.h"
#include "spatial/spatial_grid.h"
#include "stats.h"
#include "timed_engine.h"

namespace perfbench {
namespace {

using namespace tabula;  // NOLINT: a benchmark over one library
using Clock = std::chrono::steady_clock;

// Workload shapes are fixed per workload, not scaled by --seconds, so a
// longer run measures more of the same operations.
constexpr size_t kFilterRows = 60000;
constexpr size_t kIngestRows = 60000;
constexpr size_t kCubeRows = 30000;
/// Timed set-ups per serving run; setup_s is their median.
constexpr int kSetups = 15;
/// cube_build times kPairs heatmap+mean builds; after each, its map user
/// reads for kReadShare / kPairs of --seconds, in windows of
/// kPassesPerWindow passes over the frames.
constexpr size_t kPairs = 2;
constexpr double kReadShare = 0.45;
constexpr int kPassesPerWindow = 4;
/// SamGraph::Build repetitions behind selection.samgraph_ms.
constexpr int kSamGraphReps = 3;
/// Cells drawn by GenerateWorkload. A Zipf rank indexes this pool, so all
/// sessions share one popularity order.
constexpr size_t kCellPool = 8192;
/// filter_wire's result-cache budget: small enough that a steady share of
/// the Zipf stream misses, which keeps shard lookups on the path.
constexpr uint64_t kFilterCacheBytes = uint64_t{1} << 17;
/// Measured reads are split into this many equal windows (even, so a
/// traced run can alternate untimed and timed ones).
constexpr size_t kWindows = 40;
/// ingest_budget appends its 12000 held-out rows in 240 batches, six due
/// in every window, so every window sees the same share of commits.
constexpr size_t kIngestBatchRows = 50;
/// Map frames per dashboard user before the next user starts.
constexpr int kFramesPerUser = 32;
/// Served answers re-checked against a direct scan, per workload.
constexpr int kEqualityChecks = 256;
constexpr int kCubeChecks = 32;
/// cube_build's map frames: read in the timed windows, and replayed
/// through the grid functions in a traced run.
constexpr size_t kMapFrames = 512;

double Micros(Clock::duration d) {
  return std::chrono::duration<double, std::micro>(d).count();
}
double Millis(Clock::duration d) {
  return std::chrono::duration<double, std::milli>(d).count();
}
double Seconds(Clock::duration d) {
  return std::chrono::duration<double>(d).count();
}
Clock::duration FromSeconds(double s) {
  return std::chrono::duration_cast<Clock::duration>(
      std::chrono::duration<double>(s));
}
double Median(std::vector<double> v) { return Percentile(std::move(v), 0.5); }

[[noreturn]] void Die(const std::string& what) {
  std::fprintf(stderr, "perfbench: %s\n", what.c_str());
  std::fflush(stderr);
  std::_Exit(2);  // session threads may still run; skip static teardown
}

/// Time on a CPU clock in seconds; by default the whole process's, every
/// thread summed. With every thread on one CPU (PinToOneCpu) and a closed
/// loop keeping that CPU busy, a read's span on the process clock is its
/// wall time less the time the hypervisor gave the CPU to another guest.
double CpuSeconds(clockid_t clock = CLOCK_PROCESS_CPUTIME_ID) {
  timespec ts;
  if (clock_gettime(clock, &ts) != 0) Die("a CPU clock could not be read");
  return static_cast<double>(ts.tv_sec) + static_cast<double>(ts.tv_nsec) * 1e-9;
}

/// Restricts the process, and so every thread it starts later, to the
/// highest-numbered CPU it may use, and returns that CPU (-1 if the kernel
/// refuses). A request then passes from client to server thread and back
/// by context switches on one CPU, never by waking an idle virtual CPU,
/// whose wake-up latency is set by the host's other tenants.
int PinToOneCpu() {
  cpu_set_t allowed;
  if (sched_getaffinity(0, sizeof(allowed), &allowed) != 0) return -1;
  int cpu = -1;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &allowed)) cpu = c;
  }
  if (cpu < 0) return -1;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpu, &one);
  return sched_setaffinity(0, sizeof(one), &one) == 0 ? cpu : -1;
}

void Must(const Status& status, const std::string& what) {
  if (!status.ok()) Die(what + ": " + status.ToString());
}
template <typename T>
T Must(Result<T> result, const std::string& what) {
  if (!result.ok()) Die(what + ": " + result.status().ToString());
  return std::move(result).value();
}

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string tmp_dir;
  std::string commit = "unknown";
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  for (int i = 1; i < argc; i += 2) {
    const std::string flag = argv[i];
    if (i + 1 >= argc) Die("missing value for " + flag);
    const std::string value = argv[i + 1];
    if (flag == "--workload") {
      args.workload = value;
    } else if (flag == "--seed") {
      args.seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args.seconds = std::strtod(value.c_str(), nullptr);
    } else if (flag == "--trace") {
      args.trace = value == "1";
    } else if (flag == "--tmp") {
      args.tmp_dir = value;
    } else if (flag == "--commit") {
      args.commit = value;
    } else {
      Die("unknown flag " + flag);
    }
  }
  if (args.tmp_dir.empty()) Die("--tmp DIR is required");
  if (!(args.seconds > 0.0)) Die("--seconds must be positive");
  return args;
}

// ---- Output -------------------------------------------------------------

struct MetricSpec {
  const char* name;
  const char* unit;
};

/// End-to-end metrics of an untraced run, in BENCHMARK.json order.
constexpr MetricSpec kEndToEnd[] = {
    {"setup_s", "s"}, {"qps", "1/s"},          {"p50_us", "us"},
    {"p99_us", "us"}, {"sample_bytes", "bytes"},
};

/// Per-layer metrics of a traced run, in BENCHMARK.json order. A layer
/// that a workload does not call reports 0.
constexpr MetricSpec kLayers[] = {
    {"net.roundtrip_us", "us"},
    {"net.transport_us", "us"},
    {"net.socket_us", "us"},
    {"net.encode_us", "us"},
    {"net.checksum_us", "us"},
    {"net.decode_us", "us"},
    {"net.answer_bytes", "bytes"},
    {"serve.total_us", "us"},
    {"serve.self_us", "us"},
    {"serve.cache_hit_rate", "ratio"},
    {"serve.miss_us", "us"},
    {"serve.queue_us", "us"},
    {"serve.degraded_rate", "ratio"},
    {"shard.lookup_us", "us"},
    {"shard.init_ms", "ms"},
    {"shard.resampled_cells", "count"},
    {"core.lookup_us", "us"},
    {"cube.dry_run_ms", "ms"},
    {"cube.real_run_ms", "ms"},
    {"cube.iceberg_cells", "count"},
    {"selection.select_ms", "ms"},
    {"selection.samgraph_ms", "ms"},
    {"selection.loss_evals", "count"},
    {"selection.edges", "count"},
    {"selection.representatives", "count"},
    {"spatial.build_ms", "ms"},
    {"spatial.plan_us", "us"},
    {"spatial.range_us", "us"},
    {"spatial.gather_us", "us"},
    {"spatial.boundary_cells", "count"},
    {"spatial.scanned_rows", "count"},
    {"spatial.resampled_frac", "ratio"},
    {"store.promote_us", "us"},
    {"store.promotes_per_kq", "1/kq"},
    {"store.demotes_per_kq", "1/kq"},
    {"store.resident_frac", "ratio"},
    {"ingest.append_ms", "ms"},
    {"ingest.journal_ms", "ms"},
    {"ingest.plan_ms", "ms"},
    {"ingest.begin_ms", "ms"},
    {"ingest.execute_ms", "ms"},
    {"ingest.commit_ms", "ms"},
    {"ingest.lag_p50_ms", "ms"},
    {"ingest.lag_p95_ms", "ms"},
    {"trace.path_sum_frac", "ratio"},
    {"trace.overhead_frac", "ratio"},
};

std::string Num(double v) {
  if (!std::isfinite(v)) Die("non-finite value in the report");
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') out.push_back('\\');
    out.push_back(c);
  }
  return out + "\"";
}

/// What one run prints: the envelope line, then the result line.
class Report {
 public:
  void Metric(const std::string& name, double value) {
    metrics_.emplace_back(name, value);
  }
  void Info(const std::string& key, double value) { Add(key, Num(value)); }
  void Info(const std::string& key, const std::string& value) {
    Add(key, Quote(value));
  }
  /// Operations attempted, and those that failed: failed or refused
  /// calls plus answers that violate θ without a degradation flag.
  void Count(uint64_t attempted, uint64_t failed) {
    attempted_ += attempted;
    failed_ += failed;
  }
  bool correct() const { return attempted_ > 0 && failed_ == 0; }

  void Print(bool traced) {
    const MetricSpec* specs = traced ? kLayers : kEndToEnd;
    const size_t n = traced ? std::size(kLayers) : std::size(kEndToEnd);
    for (const auto& metric : metrics_) {
      bool listed = false;
      for (size_t i = 0; i < n; ++i) listed |= metric.first == specs[i].name;
      if (!listed) Die("metric " + metric.first + " is not listed for this run");
    }
    std::string body;
    for (size_t i = 0; i < n; ++i) {
      double value = 0.0;
      bool found = false;
      for (const auto& metric : metrics_) {
        if (metric.first == specs[i].name) {
          value = metric.second;
          found = true;
        }
      }
      if (!found && !traced) {
        Die(std::string("end-to-end metric ") + specs[i].name + " missing");
      }
      body += std::string(i > 0 ? ", " : "") + Quote(specs[i].name) +
              ": {\"value\": " + Num(value) +
              ", \"unit\": " + Quote(specs[i].unit) + "}";
    }
    Info("error_rate", attempted_ > 0 ? static_cast<double>(failed_) /
                                            static_cast<double>(attempted_)
                                      : 0.0);
    std::printf("{\"envelope\": {%s}}\n", info_.c_str());
    std::printf(
        "{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
        "\"metrics\": {%s}}\n",
        correct() ? "true" : "false",
        static_cast<unsigned long long>(attempted_),
        static_cast<unsigned long long>(failed_), body.c_str());
    std::fflush(stdout);
  }

 private:
  void Add(const std::string& key, const std::string& raw) {
    info_ += (info_.empty() ? "" : ", ") + Quote(key) + ": " + raw;
  }

  std::vector<std::pair<std::string, double>> metrics_;
  std::string info_;
  uint64_t attempted_ = 0;
  uint64_t failed_ = 0;
};

// ---- Inputs -------------------------------------------------------------

/// The taxi table and the engines' sampling seed are fixed; --seed draws
/// the traffic (cell pools, Zipf streams, viewports, checked answers). With one dataset per workload the cube, its bytes and
/// its build work are the same in every run, so run-to-run spread is the
/// system's, not the data's.
constexpr uint64_t kDataSeed = 7;

std::unique_ptr<Table> MakeTable(size_t rows) {
  TaxiGeneratorOptions gen;
  gen.num_rows = rows;
  gen.seed = kDataSeed;
  return TaxiGenerator(gen).Generate();
}

std::vector<std::string> Attributes(size_t n) {
  std::vector<std::string> all = TaxiGenerator::ExperimentAttributes();
  all.resize(n);
  return all;
}

std::unique_ptr<LossFunction> MeanLoss() {
  return Must(MakeLossFunction("mean_loss", {.columns = {"fare_amount"}}),
              "mean loss");
}

std::unique_ptr<LossFunction> HeatmapLoss() {
  return Must(MakeLossFunction("heatmap_loss",
                               {.columns = {"pickup_x", "pickup_y"}}),
              "heatmap loss");
}

/// Tuple width the engines cost materialized samples at.
uint64_t BytesPerTuple(const Table& table) {
  return std::max<uint64_t>(
      table.MemoryBytes() / std::max<size_t>(table.num_rows(), 1), 1);
}

/// Reader sessions over the wire, one connection each. The run has one
/// CPU, so further closed-loop readers would only take turns on it.
constexpr size_t kReaders = 1;

using RequestStream = std::function<QueryRequest()>;

/// Equality lookups of non-empty cube cells, in draw order. The pool is
/// part of the dataset (fixed); --seed picks the Zipf draws over it.
std::vector<QueryRequest> CellPool(const Table& table,
                                   const std::vector<std::string>& attributes) {
  WorkloadOptions options;
  options.num_queries = kCellPool;
  options.seed = StreamSeed(kDataSeed, 1);
  std::vector<QueryRequest> pool;
  for (WorkloadQuery& query :
       Must(GenerateWorkload(table, attributes, options), "cell pool")) {
    pool.emplace_back(std::move(query.where));
  }
  return pool;
}

/// Zipf(1.0) over the pool; `pool` must outlive the stream.
RequestStream ZipfStream(const std::vector<QueryRequest>* pool,
                         uint64_t seed) {
  auto zipf = std::make_shared<ZipfGenerator>(pool->size(), 1.0, seed);
  return [pool, zipf] { return (*pool)[zipf->Next()]; };
}

QueryRequest MapRequest(const Viewport& v,
                        const std::vector<PredicateTerm>& filters) {
  QueryRequest request;
  request.range.bounds = {{"pickup_x", v.lo_x(), v.hi_x()},
                          {"pickup_y", v.lo_y(), v.hi_y()}};
  if (v.filter >= 0) request.where.push_back(filters[v.filter]);
  return request;
}

/// Dashboard users one after another: each opens the map at an eighth
/// of its width and pans and zooms (levels 3..5) for kFramesPerUser
/// frames. Many short walks cover the map evenly, so the mix of cheap and
/// expensive frames varies little between seeds. `filters` must outlive
/// the stream.
RequestStream MapStream(const std::vector<PredicateTerm>* filters,
                        uint64_t seed) {
  struct Users {
    uint64_t seed;
    uint64_t next_user = 0;
    int frames_left = 0;
    std::optional<ViewportWalk> walk;
  };
  auto users = std::make_shared<Users>(Users{seed, 0, 0, std::nullopt});
  return [filters, users] {
    if (users->frames_left == 0) {
      users->walk.emplace(StreamSeed(users->seed, users->next_user++), 3, 5,
                          static_cast<int>(filters->size()));
      users->frames_left = kFramesPerUser;
    }
    --users->frames_left;
    return MapRequest(users->walk->Next(), *filters);
  };
}

/// The map frames cube_build reads: kMapFrames frames of dashboard users
/// (MapStream), fixed by the dataset so that every run reads the same
/// mix of cheap and expensive frames. `filters` must outlive the call.
std::vector<QueryRequest> MapFrames(const std::vector<PredicateTerm>* filters) {
  RequestStream users = MapStream(filters, StreamSeed(kDataSeed, 3));
  std::vector<QueryRequest> frames;
  for (size_t i = 0; i < kMapFrames; ++i) frames.push_back(users());
  return frames;
}

/// True when the answer says its θ bound does not hold (`stale` answers
/// still hold θ against the rows they cover, so they are not flagged).
bool Flagged(const ServeAnswer& answer) {
  return answer.degraded ||
         (answer.result != nullptr &&
          (answer.result->store_degraded ||
           !answer.result->unavailable_shards.empty()));
}

// ---- Correctness --------------------------------------------------------

/// Checks served answers against a direct scan of the base table,
/// outside the timed sections: equality answers against a predicate
/// filter, bbox answers against a scan of pickup_x/pickup_y.
class ThetaChecker {
 public:
  ThetaChecker(const Table& table, const LossFunction& loss, double theta)
      : table_(table), loss_(loss), theta_(theta) {}

  /// Checks a sample against the true rows of `request`.
  void CheckSample(const QueryRequest& request, std::vector<RowId> sample) {
    ++checked_;
    std::vector<RowId> truth = TrueRows(request);
    bool ok = truth.empty() && sample.empty();
    if (!truth.empty() && !sample.empty()) {
      const double loss =
          Must(loss_.Loss(DatasetView(&table_, std::move(truth)),
                          DatasetView(&table_, std::move(sample))),
               "direct loss");
      ok = loss <= theta_ * (1.0 + 1e-7) + 1e-12;
    }
    if (!ok) ++violations_;
  }

  /// Checks one answer served over the wire. A failed call is a failure;
  /// a flagged answer has voided θ by contract and is not checked.
  void CheckServed(const QueryRequest& request,
                   const Result<ServeAnswer>& answer) {
    if (!answer.ok() || answer->result == nullptr) {
      ++failed_calls_;
      return;
    }
    if (Flagged(*answer)) {
      ++flagged_;
      return;
    }
    CheckSample(request, answer->result->sample.ToRowIds());
  }

  void ReportTo(Report* report, const std::string& prefix) const {
    report->Count(checked_ + failed_calls_ + flagged_,
                  violations_ + failed_calls_);
    report->Info(prefix + "theta_checked", static_cast<double>(checked_));
    report->Info(prefix + "theta_violations",
                 static_cast<double>(violations_));
    report->Info(prefix + "theta_flagged", static_cast<double>(flagged_));
  }

 private:
  std::vector<RowId> TrueRows(const QueryRequest& request) const {
    if (request.range.empty()) {
      return Must(BoundPredicate::Bind(table_, request.where), "bind")
          .FilterAll();
    }
    constexpr double kInf = std::numeric_limits<double>::infinity();
    double x_lo = -kInf, x_hi = kInf, y_lo = -kInf, y_hi = kInf;
    for (const SpatialBound& bound : request.range.bounds) {
      if (bound.column == "pickup_x") {
        x_lo = bound.lo;
        x_hi = bound.hi;
      } else {
        y_lo = bound.lo;
        y_hi = bound.hi;
      }
    }
    const auto* xs =
        Must(table_.ColumnByName("pickup_x"), "pickup_x")->As<DoubleColumn>();
    const auto* ys =
        Must(table_.ColumnByName("pickup_y"), "pickup_y")->As<DoubleColumn>();
    std::vector<RowId> rows;
    for (RowId r = 0; r < table_.num_rows(); ++r) {
      const double x = xs->At(r);
      const double y = ys->At(r);
      if (x >= x_lo && x <= x_hi && y >= y_lo && y <= y_hi) rows.push_back(r);
    }
    if (request.where.empty()) return rows;
    return Must(BoundPredicate::Bind(table_, request.where), "bind")
        .FilterRows(rows);
  }

  const Table& table_;
  const LossFunction& loss_;
  double theta_;
  uint64_t checked_ = 0;
  uint64_t violations_ = 0;
  uint64_t failed_calls_ = 0;
  uint64_t flagged_ = 0;
};

// ---- Serving stack and sessions -----------------------------------------

/// One serving deployment: engine → (timing decorator in traced runs) →
/// QueryServer → TabulaNetServer on an ephemeral port, plus the Ingestor
/// of the write workload. Members are destroyed in reverse order, after
/// the destructor has stopped the net server.
struct Stack {
  std::unique_ptr<QueryEngine> engine;
  std::unique_ptr<TimedEngine> timed;
  std::unique_ptr<QueryServer> server;
  std::unique_ptr<TabulaNetServer> net;
  std::unique_ptr<Ingestor> ingestor;
  double engine_ms = 0.0;  ///< the engine build alone, CPU clock

  Stack() = default;
  Stack(const Stack&) = delete;
  Stack& operator=(const Stack&) = delete;
  ~Stack() {
    ingestor.reset();
    if (net != nullptr) net->Stop();
  }

  QueryEngine* front() const {
    return timed != nullptr ? static_cast<QueryEngine*>(timed.get())
                            : engine.get();
  }
};

struct StackSpec {
  std::function<std::unique_ptr<QueryEngine>()> make_engine;
  size_t workers = 1;
  QueryServerOptions server;
  bool timed = false;
  /// Non-null: the stack also gets a journaled, synchronous Ingestor.
  Table* ingest_table = nullptr;
  std::string journal_path;
};

std::unique_ptr<Stack> StartStack(const StackSpec& spec) {
  auto stack = std::make_unique<Stack>();
  const double t0 = CpuSeconds();
  stack->engine = spec.make_engine();
  stack->engine_ms = (CpuSeconds() - t0) * 1e3;
  if (spec.timed) {
    stack->timed = std::make_unique<TimedEngine>(stack->engine.get());
  }
  stack->server = std::make_unique<QueryServer>(stack->front(), spec.server);
  NetServerOptions net_options;
  net_options.num_workers = spec.workers;
  stack->net =
      std::make_unique<TabulaNetServer>(stack->server.get(), net_options);
  Must(stack->net->Start(), "net server start");
  if (spec.ingest_table != nullptr) {
    std::error_code ignored;
    std::filesystem::remove(spec.journal_path, ignored);
    IngestorOptions options;
    options.journal_path = spec.journal_path;
    options.server = stack->server.get();
    stack->ingestor =
        Must(Ingestor::Make(stack->front(), spec.ingest_table, options),
             "ingestor");
  }
  return stack;
}

/// Runs kSetups timed set-ups — engine construction until the first
/// request can be sent, on the process CPU clock (CpuSeconds) so that time
/// the hypervisor gives the CPU to another guest is left out — and keeps
/// the last stack.
std::unique_ptr<Stack> RunSetups(const StackSpec& spec,
                                 std::vector<double>* setup_s,
                                 std::vector<double>* engine_ms) {
  std::unique_ptr<Stack> stack;
  for (int i = 0; i < kSetups; ++i) {
    stack.reset();
    const double t0 = CpuSeconds();
    stack = StartStack(spec);
    setup_s->push_back(CpuSeconds() - t0);
    engine_ms->push_back(stack->engine_ms);
  }
  return stack;
}

/// One pooled client per session, connected (Hello included) before any
/// timing. Hedging is off: a hedge would open a second connection.
std::vector<std::unique_ptr<TabulaClient>> Connect(uint16_t port, size_t n) {
  std::vector<std::unique_ptr<TabulaClient>> clients;
  for (size_t i = 0; i < n; ++i) {
    NetClientOptions options;
    options.endpoints.push_back({"127.0.0.1", port});
    options.pool_size = 1;
    options.hedge = false;
    auto client = std::make_unique<TabulaClient>(std::move(options));
    Must(client->Ping(), "ping");
    clients.push_back(std::move(client));
  }
  return clients;
}

/// Cache hit rate over every read the server saw, warm-up and checks
/// included.
void ReportCacheHitRate(Report* report, const Stack& stack) {
  const ResultCacheStats stats = stack.server->cache().Stats();
  const double lookups = static_cast<double>(stats.hits + stats.misses);
  report->Info("cache_hit_rate",
               lookups > 0 ? static_cast<double>(stats.hits) / lookups : 0.0);
}

/// One traced read: the client-observed time and the serving split that
/// crossed the wire with the answer (engine time only on cache misses).
struct ReadTrace {
  double client_us;
  double total_us;
  double queue_us;
  double engine_us;
  bool hit;
};

/// One read: the window it was sent in, and its latency on the wall
/// clock and on the process CPU clock (CpuSeconds).
struct Read {
  uint32_t window;
  double us;
  double cpu_us;
};

/// One window's read latencies on both clocks, ascending, and its length
/// on the wall clock.
struct WindowReads {
  std::vector<double> us;
  std::vector<double> cpu_us;
  double seconds = 0.0;

  void Add(const Read& read) {
    us.push_back(read.us);
    cpu_us.push_back(read.cpu_us);
  }
  void Sort() {
    std::sort(us.begin(), us.end());
    std::sort(cpu_us.begin(), cpu_us.end());
  }
};

struct SessionLog {
  std::vector<Read> reads;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t flagged = 0;
  std::vector<ReadTrace> traces;
  std::vector<std::pair<QueryRequest, ServeAnswer>> captured;
};

struct WriterLog {
  std::vector<double> lag_ms;
  std::vector<double> append_ms;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

using Batch = std::vector<std::vector<Value>>;

/// A phase cut into equal windows; a read belongs to the window it was
/// sent in. With `alternate` set, that decorator times calls in odd
/// windows only, so timed and untimed reads interleave and drift between
/// seconds, or the growing table of the write workload, falls on both.
struct Windows {
  size_t count = 1;
  double seconds = 1.0;  ///< of each window
  TimedEngine* alternate = nullptr;

  double total() const { return static_cast<double>(count) * seconds; }
  bool timed(size_t w) const { return alternate != nullptr && w % 2 == 1; }
  /// The window of a read sent `t` seconds into the phase; `count` once
  /// the phase is over.
  size_t Of(double t) const {
    return std::min(static_cast<size_t>(t / seconds), count);
  }
};

/// Seconds since a phase's start on the steady clock, as RunOpenLoop
/// reads time.
struct PhaseClock {
  Clock::time_point start;
  double Now() const { return Seconds(Clock::now() - start); }
  void SleepUntil(double s) const {
    std::this_thread::sleep_until(start + FromSeconds(s));
  }
};

struct Phase {
  std::vector<SessionLog> sessions;
  WriterLog writer;
};

/// The reads of a phase, window by window.
std::vector<WindowReads> ByWindow(const std::vector<SessionLog>& sessions,
                                  const Windows& windows) {
  std::vector<WindowReads> out(windows.count);
  for (const SessionLog& log : sessions) {
    for (const Read& read : log.reads) out[read.window].Add(read);
  }
  for (WindowReads& window : out) {
    window.seconds = windows.seconds;
    window.Sort();
  }
  return out;
}

/// One measured phase. Every reader session is a closed loop — a
/// dashboard user waits for a view before asking for the next — until the
/// last window ends. Given `batches`, a writer appends them through
/// `ingestor` on an open-loop schedule (RunOpenLoop) with due times evenly
/// spread over the phase.
Phase RunPhase(std::vector<std::unique_ptr<TabulaClient>>& clients,
               std::vector<RequestStream>& streams, const Windows& windows,
               Ingestor* ingestor, const std::vector<Batch>* batches) {
  Phase phase;
  phase.sessions.resize(streams.size());
  PhaseClock clock;
  // The writer's own CPU clock. A read's span on the process clock less
  // the writer's time in it is the read's cost; on one CPU the writer is
  // never running while a reader reads the clocks, so its clock is exact.
  clockid_t writer_cpu = CLOCK_PROCESS_CPUTIME_ID;
  auto writer_seconds = [&] {
    return batches != nullptr ? CpuSeconds(writer_cpu) : 0.0;
  };
  std::latch go(1);
  // The writer waits for every reader to stop before it exits: the CPU
  // clock of an exited thread can no longer be read.
  std::latch readers_done(static_cast<std::ptrdiff_t>(streams.size()));
  std::vector<std::thread> threads;
  for (size_t s = 0; s < streams.size(); ++s) {
    threads.emplace_back([&, s] {
      SessionLog& log = phase.sessions[s];
      go.wait();
      for (;;) {
        QueryRequest request = streams[s]();
        const Clock::time_point sent = Clock::now();
        const size_t w = windows.Of(Seconds(sent - clock.start));
        if (w == windows.count) break;
        const double cpu_sent = CpuSeconds() - writer_seconds();
        Result<ServeAnswer> answer = clients[s]->Query(request);
        const double cpu_us =
            (CpuSeconds() - writer_seconds() - cpu_sent) * 1e6;
        const double us = Micros(Clock::now() - sent);
        ++log.attempted;
        if (!answer.ok() || answer->result == nullptr) {
          ++log.failed;
          continue;
        }
        log.reads.push_back({static_cast<uint32_t>(w), us, cpu_us});
        if (Flagged(*answer)) ++log.flagged;
        if (!windows.timed(w)) continue;
        const ServeAnswer& a = *answer;
        log.traces.push_back(
            {us, a.total_millis * 1e3, a.queue_millis * 1e3,
             a.cache_hit ? 0.0 : a.result->data_system_millis * 1e3,
             a.cache_hit});
        if (log.traces.size() % 31 == 1 && log.captured.size() < 128) {
          log.captured.emplace_back(std::move(request), a);
        }
      }
      readers_done.count_down();
    });
  }
  if (batches != nullptr) {
    threads.emplace_back([&] {
      WriterLog& log = phase.writer;
      go.wait();
      const double interval =
          windows.total() /
          static_cast<double>(std::max<size_t>(batches->size(), 1));
      const std::vector<double> lags =
          RunOpenLoop(clock, batches->size(), interval, [&](size_t i) {
            const Clock::time_point sent = Clock::now();
            ++log.attempted;
            if (!ingestor->Append((*batches)[i]).ok()) {
              ++log.failed;
              return false;
            }
            log.append_ms.push_back(Millis(Clock::now() - sent));
            return true;
          });
      for (double lag : lags) log.lag_ms.push_back(lag * 1e3);
      readers_done.wait();
    });
  }
  if (batches != nullptr &&
      pthread_getcpuclockid(threads.back().native_handle(), &writer_cpu) != 0) {
    Die("no CPU clock for the writer thread");
  }
  clock.start = Clock::now();
  go.count_down();
  TimedEngine* const timed = windows.alternate;
  for (size_t w = 1; timed != nullptr && w < windows.count; ++w) {
    clock.SleepUntil(static_cast<double>(w) * windows.seconds);
    timed->set_enabled(windows.timed(w));
  }
  for (std::thread& thread : threads) thread.join();
  if (timed != nullptr) timed->set_enabled(false);
  return phase;
}

/// The reads of a serving run after an unmeasured warm-up: kWindows
/// windows splitting --seconds. A traced run times the odd windows and
/// keeps the even ones untimed as the comparator for tracing overhead.
struct ServeRun {
  Phase phase;
  Windows windows;
  uint64_t reads_all = 0;  ///< every read, warm-up included
};

ServeRun MeasureServing(const Args& args, Report* report, Stack* stack,
                        std::vector<std::unique_ptr<TabulaClient>>& clients,
                        std::vector<RequestStream>& streams,
                        const std::vector<Batch>* batches) {
  ServeRun run;
  auto count = [&](const Phase& phase) {
    uint64_t attempted = phase.writer.attempted;
    uint64_t failed = phase.writer.failed;
    for (const SessionLog& log : phase.sessions) {
      attempted += log.attempted;
      failed += log.failed;
      run.reads_all += log.reads.size();
    }
    report->Count(attempted, failed);
  };
  // Warm-up fills the result cache; it is not measured and sends no
  // writes.
  count(RunPhase(clients, streams, {1, std::max(0.5, 0.1 * args.seconds)},
                 nullptr, nullptr));
  run.windows = {kWindows, args.seconds / static_cast<double>(kWindows),
                 args.trace ? stack->timed.get() : nullptr};
  run.phase = RunPhase(clients, streams, run.windows, stack->ingestor.get(),
                       batches);
  count(run.phase);
  return run;
}

/// Read figures of one clock, window by window.
struct WindowFigures {
  std::vector<double> qps, p50, p99;
};

/// Per-window qps, p50 and p99 on the wall clock (`cpu` false) or the
/// process CPU clock. On the CPU clock a window lasts as long as its reads
/// took on that clock: the loop is closed, so the CPU ran reads back to
/// back (on ingest_budget, with the writer's share taken out).
WindowFigures Figures(const std::vector<WindowReads>& windows, bool cpu) {
  WindowFigures out;
  for (const WindowReads& window : windows) {
    const std::vector<double>& sorted = cpu ? window.cpu_us : window.us;
    const size_t n = sorted.size();
    if (n == 0) Die("a measurement window completed no reads");
    const double seconds =
        cpu ? std::accumulate(sorted.begin(), sorted.end(), 0.0) * 1e-6
            : window.seconds;
    out.qps.push_back(static_cast<double>(n) / seconds);
    out.p50.push_back(PercentileSorted(sorted, 0.5));
    out.p99.push_back(PercentileSorted(sorted, 0.99));
  }
  return out;
}

/// End-to-end metrics from the timed set-ups and the measured reads.
void EmitEndToEnd(Report* report, const std::vector<double>& setup_s,
                  double sample_bytes, const std::vector<WindowReads>& windows) {
  size_t samples = 0;
  size_t beyond = std::numeric_limits<size_t>::max();
  for (const WindowReads& window : windows) {
    const size_t n = window.us.size();
    samples += n;
    beyond = std::min(beyond, n - PercentileRank(n, 0.99));
  }
  const WindowFigures cpu = Figures(windows, true);
  const WindowFigures wall = Figures(windows, false);
  report->Metric("setup_s", Median(setup_s));
  // Each read metric is the median over the windows of the per-window
  // figure on the CPU clock, so a stretch of seconds in which the host
  // slows the process moves a few windows, not the metric. The same
  // figures on the wall clock go to the envelope.
  report->Metric("qps", Median(cpu.qps));
  report->Metric("p50_us", Median(cpu.p50));
  report->Metric("p99_us", Median(cpu.p99));
  report->Metric("sample_bytes", sample_bytes);
  report->Info("wall_qps", Median(wall.qps));
  report->Info("wall_p50_us", Median(wall.p50));
  report->Info("wall_p99_us", Median(wall.p99));
  report->Info("setup_samples", static_cast<double>(setup_s.size()));
  report->Info("windows", static_cast<double>(windows.size()));
  report->Info("latency_samples", static_cast<double>(samples));
  report->Info("p99_beyond_min_per_window", static_cast<double>(beyond));
}

void EmitServingEndToEnd(Report* report, const std::vector<double>& setup_s,
                         double sample_bytes, const ServeRun& run) {
  uint64_t flagged = 0, reads = 0;
  for (const SessionLog& log : run.phase.sessions) {
    flagged += log.flagged;
    reads += log.reads.size();
  }
  EmitEndToEnd(report, setup_s, sample_bytes,
               ByWindow(run.phase.sessions, run.windows));
  report->Info("degraded_rate",
               static_cast<double>(flagged) / static_cast<double>(reads));
}

// ---- Traced serving split -----------------------------------------------

/// Per-request wire codec cost, from replaying captured requests and
/// answers through the codec and framing functions both sides call.
struct CodecCost {
  double encode_us = 0.0;
  double checksum_us = 0.0;
  double decode_us = 0.0;
  double answer_bytes = 0.0;
};

CodecCost ReplayCodec(
    const std::vector<std::pair<QueryRequest, ServeAnswer>>& captured) {
  constexpr int kReps = 8;
  CodecCost cost;
  uint64_t sink = 0;
  size_t n = 0;
  for (const auto& [request, answer] : captured) {
    for (int rep = 0; rep < kReps; ++rep, ++n) {
      const Clock::time_point t0 = Clock::now();
      BufferWriter request_writer;
      EncodeQueryRequest(request, &request_writer);
      const std::string request_payload(request_writer.data(),
                                        request_writer.size());
      const std::string request_frame =
          EncodeFrame(FrameType::kQuery, n, request_payload);
      const Clock::time_point t1 = Clock::now();
      sink += WireChecksum(request_payload.data(), request_payload.size());
      const Clock::time_point t2 = Clock::now();
      const FrameHeader request_header =
          Must(DecodeFrameHeader(request_frame.data(), kFrameHeaderBytes),
               "request header");
      const std::string request_body = request_frame.substr(kFrameHeaderBytes);
      Must(CheckFramePayload(request_header, request_body), "request payload");
      BufferReader request_reader(request_body);
      sink += Must(DecodeQueryRequest(&request_reader), "request").where.size();
      const Clock::time_point t3 = Clock::now();
      BufferWriter answer_writer;
      EncodeServeAnswer(answer, &answer_writer);
      const std::string answer_payload(answer_writer.data(),
                                       answer_writer.size());
      const std::string answer_frame =
          EncodeFrame(FrameType::kAnswer, n, answer_payload);
      const Clock::time_point t4 = Clock::now();
      sink += WireChecksum(answer_payload.data(), answer_payload.size());
      const Clock::time_point t5 = Clock::now();
      const FrameHeader answer_header =
          Must(DecodeFrameHeader(answer_frame.data(), kFrameHeaderBytes),
               "answer header");
      const std::string answer_body = answer_frame.substr(kFrameHeaderBytes);
      Must(CheckFramePayload(answer_header, answer_body), "answer payload");
      BufferReader answer_reader(answer_body);
      sink += Must(DecodeServeAnswer(&answer_reader, nullptr), "answer")
                  .cache_hit;
      const Clock::time_point t6 = Clock::now();
      // EncodeFrame and CheckFramePayload each hash the payload once; on
      // the wire every payload is hashed once by each side.
      const double hashes = Micros(t2 - t1) + Micros(t5 - t4);
      cost.encode_us += Micros(t1 - t0) + Micros(t4 - t3) - hashes;
      cost.decode_us += Micros(t3 - t2) + Micros(t6 - t5) - hashes;
      cost.checksum_us += 2.0 * hashes;
      cost.answer_bytes += static_cast<double>(answer_frame.size());
    }
  }
  if (n > 0) {
    const double d = static_cast<double>(n);
    cost.encode_us /= d;
    cost.checksum_us /= d;
    cost.decode_us /= d;
    cost.answer_bytes /= d;
  }
  if (sink == 1) std::fputc('\n', stderr);  // keeps the replay observable
  return cost;
}

/// The request path of the timed windows, as self times: socket transfer
/// (client time minus serve time minus codec), codec, admission queue,
/// serve-layer self time, and the engine lookup on misses.
void EmitServeLayers(Report* report, const ServeRun& run) {
  std::vector<ReadTrace> traces;
  std::vector<std::pair<QueryRequest, ServeAnswer>> captured;
  uint64_t flagged = 0, reads = 0;
  for (const SessionLog& log : run.phase.sessions) {
    traces.insert(traces.end(), log.traces.begin(), log.traces.end());
    captured.insert(captured.end(), log.captured.begin(), log.captured.end());
    flagged += log.flagged;
    reads += log.reads.size();
  }
  if (traces.empty()) Die("the timed windows completed no reads");
  // Tracing overhead: median p50 of the timed windows against that of
  // the untimed windows interleaved with them.
  std::vector<double> timed_p50, untimed_p50;
  const std::vector<WindowReads> windows =
      ByWindow(run.phase.sessions, run.windows);
  for (size_t w = 0; w < windows.size(); ++w) {
    (run.windows.timed(w) ? timed_p50 : untimed_p50)
        .push_back(PercentileSorted(windows[w].cpu_us, 0.5));
  }
  const double n = static_cast<double>(traces.size());
  double client = 0.0, total = 0.0, queue = 0.0, engine = 0.0;
  double miss_total = 0.0;
  size_t hits = 0;
  std::vector<double> queues;
  for (const ReadTrace& t : traces) {
    client += t.client_us;
    total += t.total_us;
    queue += t.queue_us;
    engine += t.engine_us;
    queues.push_back(t.queue_us);
    if (t.hit) {
      ++hits;
    } else {
      miss_total += t.total_us;
    }
  }
  client /= n;
  total /= n;
  queue /= n;
  engine /= n;
  const CodecCost codec = ReplayCodec(captured);
  const double codec_us = codec.encode_us + codec.checksum_us + codec.decode_us;
  const double transport = client - total;
  const double socket = transport - codec_us;
  const double serve_self = total - queue - engine;
  // Each self time clamps at 0, so a child measured longer than its
  // parent shows up as a path sum above 1.
  const double path = std::max(0.0, socket) + codec_us + queue +
                      std::max(0.0, serve_self) + engine;
  const size_t misses = traces.size() - hits;
  report->Metric("net.roundtrip_us", client);
  report->Metric("net.transport_us", transport);
  report->Metric("net.socket_us", socket);
  report->Metric("net.encode_us", codec.encode_us);
  report->Metric("net.checksum_us", codec.checksum_us);
  report->Metric("net.decode_us", codec.decode_us);
  report->Metric("net.answer_bytes", codec.answer_bytes);
  report->Metric("serve.total_us", total);
  report->Metric("serve.self_us", serve_self);
  report->Metric("serve.cache_hit_rate", static_cast<double>(hits) / n);
  report->Metric("serve.miss_us",
                 misses > 0 ? miss_total / static_cast<double>(misses) : 0.0);
  report->Metric("serve.queue_us", Percentile(std::move(queues), 0.99));
  report->Metric("serve.degraded_rate",
                 static_cast<double>(flagged) / static_cast<double>(reads));
  report->Metric("trace.path_sum_frac", path / client);
  report->Metric("trace.overhead_frac",
                 Median(timed_p50) / Median(untimed_p50) - 1.0);
  report->Info("traced_reads", n);
  report->Info("codec_replays", static_cast<double>(captured.size()));
}

// ---- filter_wire --------------------------------------------------------

void RunFilterWire(const Args& args, Report* report) {
  const size_t sessions = kReaders;
  const std::unique_ptr<Table> table = MakeTable(kFilterRows);
  const std::unique_ptr<LossFunction> loss = MeanLoss();
  ShardedTabulaOptions options;
  options.base.cubed_attributes = Attributes(5);
  options.base.loss = loss.get();
  options.base.threshold = 0.05;
  options.base.seed = kDataSeed;
  options.num_shards = 4;
  options.replicas_per_shard = 2;

  // An untimed probe build with a store that never evicts: the sharded
  // engine reports resident sample bytes only through its store. The
  // probe also takes the process's slower first build out of setup_s —
  // a long-running server pays it once.
  double sample_bytes = 0.0;
  {
    ShardedTabulaOptions probe_options = options;
    probe_options.base.store.budget_bytes = uint64_t{1} << 40;
    const std::unique_ptr<ShardedTabula> probe =
        Must(ShardedTabula::Initialize(*table, probe_options), "probe build");
    sample_bytes = static_cast<double>(
        probe->StoreBytes() +
        probe->global_sample().size() * BytesPerTuple(*table));
    for (size_t i = 0; i < probe->num_shards(); ++i) {
      sample_bytes += static_cast<double>(probe->shard_cube(i).MemoryBytes());
    }
  }

  StackSpec spec;
  spec.make_engine = [&]() -> std::unique_ptr<QueryEngine> {
    return Must(ShardedTabula::Initialize(*table, options), "sharded build");
  };
  spec.workers = sessions;
  spec.server.cache.max_bytes = kFilterCacheBytes;
  spec.timed = args.trace;
  std::vector<double> setup_s, engine_ms;
  const std::unique_ptr<Stack> stack = RunSetups(spec, &setup_s, &engine_ms);

  const std::vector<QueryRequest> pool =
      CellPool(*table, options.base.cubed_attributes);
  std::vector<RequestStream> streams;
  for (size_t s = 0; s < sessions; ++s) {
    streams.push_back(ZipfStream(&pool, StreamSeed(args.seed, 100 + s)));
  }
  auto clients = Connect(stack->net->port(), sessions);
  const ServeRun run =
      MeasureServing(args, report, stack.get(), clients, streams, nullptr);

  ThetaChecker checker(*table, *loss, options.base.threshold);
  RequestStream check = ZipfStream(&pool, StreamSeed(args.seed, 7));
  for (int i = 0; i < kEqualityChecks; ++i) {
    const QueryRequest request = check();
    checker.CheckServed(request, clients[0]->Query(request));
  }
  checker.ReportTo(report, "");
  ReportCacheHitRate(report, *stack);
  report->Info("rows", static_cast<double>(table->num_rows()));
  report->Info("sessions", static_cast<double>(sessions));
  report->Info("shards", static_cast<double>(options.num_shards));
  report->Info("replicas", static_cast<double>(options.replicas_per_shard));
  report->Info("cache_bytes", static_cast<double>(kFilterCacheBytes));

  if (!args.trace) {
    EmitServingEndToEnd(report, setup_s, sample_bytes, run);
    return;
  }
  EmitServeLayers(report, run);
  const auto* engine = static_cast<const ShardedTabula*>(stack->engine.get());
  report->Metric("shard.lookup_us", stack->timed->timers().query.MeanMicros());
  report->Metric("shard.init_ms", Median(engine_ms));
  report->Metric("shard.resampled_cells",
                 static_cast<double>(engine->init_stats().resampled_cells));
}

// ---- Spatial replay -----------------------------------------------------

/// Loss machinery for grid calls, made from the engine's public parts as
/// Tabula makes its own.
SpatialGrid::Context GridContext(const Tabula& engine) {
  const TabulaOptions& options = engine.options();
  SpatialGrid::Context ctx;
  ctx.table = &engine.base_table();
  ctx.loss = options.effective_loss();
  ctx.threshold = options.threshold;
  ctx.sampler = options.sampler;
  ctx.sampler.seed = options.seed;
  ctx.ref = engine.global_sample();
  return ctx;
}

/// Replays map frames through the planning and range functions of the
/// engine's own grid.
void EmitSpatialLayers(Report* report, const Tabula& engine,
                       const std::vector<QueryRequest>& frames) {
  const SpatialGrid::Context ctx = GridContext(engine);
  const SpatialGrid& grid = engine.spatial_grid();

  std::vector<double> plan_us, range_us, gather_us, boundary, scanned;
  double resampled = 0.0;
  for (const QueryRequest& frame : frames) {
    const Clock::time_point a = Clock::now();
    const SpatialGrid::ResolvedBBox box =
        Must(grid.Resolve(frame.range), "resolve");
    const SpatialGrid::Decomposition parts = grid.Decompose(box);
    const Clock::time_point b = Clock::now();
    plan_us.push_back(Micros(b - a));
    boundary.push_back(static_cast<double>(parts.boundary.size()));
    if (frame.where.empty()) {
      const SpatialGrid::RangeAnswer answer =
          Must(grid.RangeQuery(ctx, box), "range query");
      range_us.push_back(Micros(Clock::now() - b));
      scanned.push_back(static_cast<double>(answer.scanned_rows));
      resampled += answer.resampled ? 1.0 : 0.0;
    } else {
      Must(grid.GatherRangeRows(ctx, box), "gather");
      gather_us.push_back(Micros(Clock::now() - b));
    }
  }
  report->Metric("spatial.plan_us", Mean(plan_us));
  report->Metric("spatial.range_us", Mean(range_us));
  report->Metric("spatial.gather_us", Mean(gather_us));
  report->Metric("spatial.boundary_cells", Mean(boundary));
  report->Metric("spatial.scanned_rows", Mean(scanned));
  report->Metric("spatial.resampled_frac",
                 range_us.empty()
                     ? 0.0
                     : resampled / static_cast<double>(range_us.size()));
  report->Info("spatial_replays", static_cast<double>(frames.size()));
}

// ---- ingest_budget ------------------------------------------------------

/// Mean IngestJournal::AppendBatch time over the run's batches, replayed
/// into a scratch journal (the Ingestor's own journal write is inside
/// Append, where the benchmark cannot time it alone).
double JournalMillis(const std::string& path, const Table& table,
                     const std::vector<Batch>& batches) {
  const std::unique_ptr<IngestJournal> journal =
      Must(IngestJournal::Open(path, table), "scratch journal");
  std::vector<double> ms;
  for (const Batch& batch : batches) {
    const Clock::time_point t0 = Clock::now();
    Must(journal->AppendBatch(batch), "journal append");
    ms.push_back(Millis(Clock::now() - t0));
  }
  return Mean(ms);
}

/// Mean lookup time of the lookups that promoted a cold sample, from a
/// Zipf stream replayed straight into the quiesced engine; the store's
/// counters are read between lookups, on one thread.
double PromoteMicros(const Tabula& engine,
                     const std::vector<QueryRequest>& pool, uint64_t seed) {
  RequestStream stream = ZipfStream(&pool, StreamSeed(seed, 9));
  std::vector<double> us;
  for (int i = 0; i < 4000 && us.size() < 200; ++i) {
    const QueryRequest request = stream();
    const uint64_t before = engine.sample_store().Stats().promotes;
    const Clock::time_point t0 = Clock::now();
    const Result<QueryResponse> answer = engine.Query(request);
    const double elapsed = Micros(Clock::now() - t0);
    if (answer.ok() && engine.sample_store().Stats().promotes > before) {
      us.push_back(elapsed);
    }
  }
  return Mean(us);
}

void RunIngestBudget(const Args& args, Report* report) {
  const size_t readers = kReaders;
  const std::unique_ptr<Table> full = MakeTable(kIngestRows);
  const size_t base_rows = full->num_rows() * 8 / 10;
  std::vector<RowId> base_ids(base_rows);
  std::iota(base_ids.begin(), base_ids.end(), RowId{0});
  const std::unique_ptr<Table> table = full->TakeRows(base_ids);
  std::vector<Batch> batches;
  for (size_t begin = base_rows; begin < full->num_rows();
       begin += kIngestBatchRows) {
    Batch batch;
    const size_t end = std::min(begin + kIngestBatchRows, full->num_rows());
    for (size_t r = begin; r < end; ++r) {
      std::vector<Value> row;
      for (size_t c = 0; c < full->num_columns(); ++c) {
        row.push_back(full->GetValue(c, r));
      }
      batch.push_back(std::move(row));
    }
    batches.push_back(std::move(batch));
  }

  const std::unique_ptr<LossFunction> loss = MeanLoss();
  TabulaOptions options;
  options.cubed_attributes = Attributes(4);
  options.loss = loss.get();
  options.threshold = 0.05;
  options.seed = kDataSeed;
  options.keep_maintenance_state = true;
  // An untimed probe build with a store that never evicts sizes the 50%
  // budget, and takes the process's slower first build out of setup_s.
  {
    TabulaOptions probe_options = options;
    probe_options.store.budget_bytes = uint64_t{1} << 40;
    const std::unique_ptr<Tabula> probe =
        Must(Tabula::Initialize(*table, probe_options), "probe build");
    options.store.budget_bytes =
        std::max<uint64_t>(probe->sample_store().bytes() / 2, 64);
  }
  const std::string spill_path = args.tmp_dir + "/spill.bin";
  options.store.spill_path = spill_path;

  StackSpec spec;
  spec.make_engine = [&]() -> std::unique_ptr<QueryEngine> {
    std::error_code ignored;
    std::filesystem::remove(spill_path, ignored);  // a fresh side file
    return Must(Tabula::Initialize(*table, options), "build");
  };
  spec.workers = readers;
  spec.timed = args.trace;
  spec.ingest_table = table.get();
  spec.journal_path = args.tmp_dir + "/ingest.wal";
  std::vector<double> setup_s, engine_ms;
  const std::unique_ptr<Stack> stack = RunSetups(spec, &setup_s, &engine_ms);
  const auto* engine = static_cast<const Tabula*>(stack->engine.get());
  const double sample_bytes =
      static_cast<double>(engine->init_stats().global_sample_bytes +
                          engine->init_stats().cube_table_bytes +
                          engine->sample_store().bytes());

  const std::vector<QueryRequest> pool =
      CellPool(*table, options.cubed_attributes);
  std::vector<RequestStream> streams;
  for (size_t s = 0; s < readers; ++s) {
    streams.push_back(ZipfStream(&pool, StreamSeed(args.seed, 100 + s)));
  }
  auto clients = Connect(stack->net->port(), readers);
  const SampleStoreStats before = engine->sample_store().Stats();
  const ServeRun run =
      MeasureServing(args, report, stack.get(), clients, streams, &batches);
  Must(stack->ingestor->Drain(), "drain");
  const SampleStoreStats after = engine->sample_store().Stats();

  ThetaChecker checker(*table, *loss, options.threshold);
  RequestStream check = ZipfStream(&pool, StreamSeed(args.seed, 7));
  for (int i = 0; i < kEqualityChecks; ++i) {
    const QueryRequest request = check();
    checker.CheckServed(request, clients[0]->Query(request));
  }
  checker.ReportTo(report, "");
  ReportCacheHitRate(report, *stack);
  const WriterLog& writer = run.phase.writer;
  report->Info("sessions", static_cast<double>(readers + 1));
  report->Info("rows_base", static_cast<double>(base_rows));
  report->Info("rows_appended",
               static_cast<double>(full->num_rows() - base_rows));
  report->Info("batch_rows", static_cast<double>(kIngestBatchRows));
  report->Info("store_budget_bytes",
               static_cast<double>(options.store.budget_bytes));
  report->Info("ingest_lag_p50_ms", Percentile(writer.lag_ms, 0.5));
  report->Info("ingest_lag_p95_ms", Percentile(writer.lag_ms, 0.95));
  report->Info("lag_samples", static_cast<double>(writer.lag_ms.size()));

  if (!args.trace) {
    EmitServingEndToEnd(report, setup_s, sample_bytes, run);
    return;
  }
  EmitServeLayers(report, run);
  const TimedEngine::Timers& timers = stack->timed->timers();
  report->Metric("core.lookup_us", timers.query.MeanMicros());
  report->Metric("ingest.append_ms", Mean(writer.append_ms));
  report->Metric("ingest.journal_ms",
                 JournalMillis(args.tmp_dir + "/replay.wal", *table, batches));
  report->Metric("ingest.plan_ms", timers.plan.MeanMillis());
  report->Metric("ingest.begin_ms", timers.begin.MeanMillis());
  report->Metric("ingest.execute_ms", timers.execute.MeanMillis());
  report->Metric("ingest.commit_ms", timers.commit.MeanMillis());
  report->Metric("ingest.lag_p50_ms", Percentile(writer.lag_ms, 0.5));
  report->Metric("ingest.lag_p95_ms", Percentile(writer.lag_ms, 0.95));
  const double reads =
      static_cast<double>(std::max<uint64_t>(run.reads_all, 1));
  const double promotes =
      static_cast<double>(after.promotes - before.promotes);
  const double hits = static_cast<double>(after.hits - before.hits);
  report->Metric("store.promotes_per_kq", 1000.0 * promotes / reads);
  report->Metric("store.demotes_per_kq",
                 1000.0 * static_cast<double>(after.demotes - before.demotes) /
                     reads);
  report->Metric("store.resident_frac",
                 hits > 0 ? 1.0 - promotes / hits : 1.0);
  report->Metric("store.promote_us", PromoteMicros(*engine, pool, args.seed));
}

// ---- cube_build ---------------------------------------------------------

/// Milliseconds a build spent in its stages, as Tabula::Initialize times
/// them itself.
double StageMillis(const TabulaInitStats& s) {
  return s.global_sample_millis + s.dry_run_millis + s.real_run_millis +
         s.selection_millis + s.spatial_millis;
}

/// The engine's cube as RunRealRun leaves it, before representative
/// selection: the input SelectRepresentativeSamples gives SamGraph::Build.
CubeTable PreSelectionCube(const Tabula& engine) {
  const Table& table = engine.base_table();
  const TabulaOptions& options = engine.options();
  const LossFunction& loss = *options.effective_loss();
  const KeyEncoder encoder =
      Must(KeyEncoder::Make(table, options.cubed_attributes), "encoder");
  std::vector<size_t> columns(options.cubed_attributes.size());
  std::iota(columns.begin(), columns.end(), size_t{0});
  const KeyPacker packer = Must(KeyPacker::Make(encoder, columns), "packer");
  const Lattice lattice(options.cubed_attributes.size());
  const DryRunResult dry =
      Must(RunDryRun(table, encoder, packer, lattice, loss,
                     engine.global_sample(), options.threshold),
           "dry run");
  GreedySamplerOptions sampler = options.sampler;
  sampler.seed = options.seed;
  return Must(RunRealRun(table, encoder, packer, lattice, dry, loss,
                         options.threshold, sampler, options.path_policy),
              "real run")
      .cube;
}

/// SamGraph::Build called alone on the engines' cubes (selection_millis
/// counts it inside the selection): the median over kSamGraphReps builds
/// of all the graphs, and their edges and loss evaluations.
void EmitSamGraph(Report* report, const std::vector<const Tabula*>& engines) {
  std::vector<CubeTable> cubes;
  for (const Tabula* engine : engines) {
    cubes.push_back(PreSelectionCube(*engine));
  }
  std::vector<double> ms;
  double edges = 0.0, evals = 0.0;
  for (int rep = 0; rep < kSamGraphReps; ++rep) {
    edges = evals = 0.0;
    const Clock::time_point t0 = Clock::now();
    for (size_t i = 0; i < engines.size(); ++i) {
      const TabulaOptions& options = engines[i]->options();
      const SamGraph graph =
          Must(SamGraph::Build(engines[i]->base_table(), cubes[i],
                               *options.effective_loss(), options.threshold,
                               options.selection.graph),
               "samgraph");
      edges += static_cast<double>(graph.num_edges());
      evals += static_cast<double>(graph.loss_evaluations());
    }
    ms.push_back(Millis(Clock::now() - t0));
  }
  report->Metric("selection.samgraph_ms", Median(ms));
  report->Metric("selection.edges", edges);
  report->Metric("selection.loss_evals", evals);
}


/// cube_build's reads, window by window.
struct LocalReads {
  std::vector<WindowReads> windows;
  uint64_t attempted = 0;
  uint64_t failed = 0;
};

/// One map user's closed loop of frames straight into the heatmap cube
/// (no server). A window is kPassesPerWindow passes over `frames`, each
/// in an order drawn from `rng`, so every window reads the same frames;
/// windows repeat until `seconds` pass.
void RunLocalReads(const Tabula& cube, const std::vector<QueryRequest>& frames,
                   SplitMix64* rng, double seconds, LocalReads* out) {
  std::vector<size_t> order(frames.size());
  std::iota(order.begin(), order.end(), size_t{0});
  const Clock::time_point start = Clock::now();
  do {
    WindowReads window;
    const Clock::time_point w0 = Clock::now();
    for (int pass = 0; pass < kPassesPerWindow; ++pass) {
      for (size_t i = order.size(); i > 1; --i) {
        std::swap(order[i - 1], order[rng->Below(i)]);
      }
      for (size_t f : order) {
        const Clock::time_point sent = Clock::now();
        const double cpu_sent = CpuSeconds();
        const bool ok = cube.Query(frames[f]).ok();
        const double cpu_us = (CpuSeconds() - cpu_sent) * 1e6;
        const double us = Micros(Clock::now() - sent);
        ++out->attempted;
        if (ok) {
          window.Add({0, us, cpu_us});
        } else {
          ++out->failed;
        }
      }
    }
    window.seconds = Seconds(Clock::now() - w0);
    window.Sort();
    out->windows.push_back(std::move(window));
  } while (Seconds(Clock::now() - start) < seconds);
}

void RunCubeBuild(const Args& args, Report* report) {
  const std::unique_ptr<Table> table = MakeTable(kCubeRows);
  const std::unique_ptr<LossFunction> heat_loss = HeatmapLoss();
  const std::unique_ptr<LossFunction> mean_loss = MeanLoss();
  TabulaOptions heat;
  heat.cubed_attributes = Attributes(5);
  heat.loss = heat_loss.get();
  heat.threshold = 0.5 * kNormalizedUnitsPerKm;
  heat.seed = kDataSeed;
  TabulaOptions mean = heat;
  mean.loss = mean_loss.get();
  mean.threshold = 0.025;
  // The map dashboard's cube also carries the 5-level grid for bbox
  // (pan/zoom) frames.
  heat.spatial.levels = 5;

  std::unique_ptr<Tabula> heat_cube, mean_cube;
  auto build_pair = [&] {
    heat_cube.reset();
    mean_cube.reset();
    const double t0 = CpuSeconds();
    heat_cube = Must(Tabula::Initialize(*table, heat), "heatmap build");
    mean_cube = Must(Tabula::Initialize(*table, mean), "mean build");
    return CpuSeconds() - t0;
  };
  // Map frames: bbox answers, one in four hybrid.
  std::vector<PredicateTerm> filters;
  WorkloadOptions filter_options;
  filter_options.num_queries = 64;
  filter_options.seed = StreamSeed(kDataSeed, 2);
  for (WorkloadQuery& query :
       Must(GenerateWorkload(*table, heat.cubed_attributes, filter_options),
            "filters")) {
    if (!query.where.empty()) filters.push_back(query.where.front());
  }
  const std::vector<QueryRequest> frame_set = MapFrames(&filters);

  // The process's first build runs slower; a dashboard server pays it
  // once, so an untimed pair takes it out of setup_s.
  build_pair();
  // Timed pairs and read phases alternate, so the reads meet kPairs
  // separately built cubes over a longer stretch of the run. The stage
  // split comes from init_stats() of the timed builds themselves:
  // Tabula::Initialize times its stages.
  std::vector<double> pair_s, dry_ms, real_ms, select_ms, spatial_ms;
  std::vector<double> stage_frac;
  SplitMix64 order_rng(StreamSeed(args.seed, 200));
  LocalReads reads;
  for (size_t i = 0; i < kPairs; ++i) {
    pair_s.push_back(build_pair());
    const TabulaInitStats& h = heat_cube->init_stats();
    const TabulaInitStats& m = mean_cube->init_stats();
    dry_ms.push_back(h.dry_run_millis + m.dry_run_millis);
    real_ms.push_back(h.real_run_millis + m.real_run_millis);
    select_ms.push_back(h.selection_millis + m.selection_millis);
    spatial_ms.push_back(h.spatial_millis + m.spatial_millis);
    stage_frac.push_back((StageMillis(h) + StageMillis(m)) / 1e3 /
                         pair_s.back());
    RunLocalReads(*heat_cube, frame_set, &order_rng,
                  kReadShare * args.seconds / static_cast<double>(kPairs),
                  &reads);
  }
  report->Count(reads.attempted, reads.failed);
  std::vector<double> read_us;
  for (const WindowReads& window : reads.windows) {
    read_us.insert(read_us.end(), window.us.begin(), window.us.end());
  }

  // θ checks against a direct scan: equality answers of both cubes, and
  // a seeded subset of the map frames the reads sent.
  const std::vector<QueryRequest> pool =
      CellPool(*table, heat.cubed_attributes);
  ThetaChecker heat_check(*table, *heat_loss, heat.threshold);
  ThetaChecker mean_check(*table, *mean_loss, mean.threshold);
  RequestStream check = ZipfStream(&pool, StreamSeed(args.seed, 7));
  for (int i = 0; i < kCubeChecks; ++i) {
    const QueryRequest request = check();
    heat_check.CheckSample(request, Must(heat_cube->Query(request), "query")
                                        .result.sample.ToRowIds());
    mean_check.CheckSample(request, Must(mean_cube->Query(request), "query")
                                        .result.sample.ToRowIds());
  }
  SplitMix64 pick(StreamSeed(args.seed, 8));
  for (int i = 0; i < kCubeChecks; ++i) {
    const QueryRequest& request = frame_set[pick.Below(frame_set.size())];
    heat_check.CheckSample(request, Must(heat_cube->Query(request), "query")
                                        .result.sample.ToRowIds());
  }
  heat_check.ReportTo(report, "heatmap_");
  mean_check.ReportTo(report, "mean_");
  report->Info("rows", static_cast<double>(table->num_rows()));
  report->Info("build_pairs", static_cast<double>(pair_s.size()));
  report->Info("heatmap_threshold", heat.threshold);
  report->Info("mean_threshold", mean.threshold);

  if (!args.trace) {
    const TabulaInitStats& grid = heat_cube->init_stats();
    const double sample_bytes = static_cast<double>(
        grid.TotalBytes() + mean_cube->init_stats().TotalBytes() +
        grid.spatial_sample_tuples * heat_cube->BytesPerTuple());
    EmitEndToEnd(report, pair_s, sample_bytes, reads.windows);
    return;
  }
  const TabulaInitStats& h = heat_cube->init_stats();
  const TabulaInitStats& m = mean_cube->init_stats();
  report->Metric("cube.dry_run_ms", Median(dry_ms));
  report->Metric("cube.real_run_ms", Median(real_ms));
  report->Metric("cube.iceberg_cells",
                 static_cast<double>(h.iceberg_cells + m.iceberg_cells));
  report->Metric("selection.select_ms", Median(select_ms));
  EmitSamGraph(report, {heat_cube.get(), mean_cube.get()});
  report->Metric("selection.representatives",
                 static_cast<double>(h.representative_samples +
                                     m.representative_samples));
  report->Metric("core.lookup_us", Mean(read_us));
  report->Metric("spatial.build_ms", Median(spatial_ms));
  EmitSpatialLayers(report, *heat_cube, frame_set);
  report->Metric("trace.path_sum_frac", Median(stage_frac));
  // The stage split is read after the builds, from the builds setup_s
  // times, so tracing adds no work to them.
  report->Metric("trace.overhead_frac", 0.0);
}

int Main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);
  // Before any thread starts, so every thread of the run inherits it.
  const int cpu = PinToOneCpu();
  Report report;
  const char* threads = std::getenv("TABULA_THREADS");
  report.Info("workload", args.workload);
  report.Info("seed", static_cast<double>(args.seed));
  report.Info("seconds", args.seconds);
  report.Info("trace", args.trace ? 1.0 : 0.0);
  report.Info("commit", args.commit);
  report.Info("nproc",
              static_cast<double>(std::thread::hardware_concurrency()));
  report.Info("tabula_threads", threads != nullptr ? threads : "unset");
  report.Info("simd", vec::SimdEnabled() ? "avx2" : "scalar");
  report.Info("data_seed", static_cast<double>(kDataSeed));
  report.Info("cpu", static_cast<double>(cpu));
  const int persona = personality(0xffffffff);
  report.Info("aslr",
              persona != -1 && (persona & ADDR_NO_RANDOMIZE) != 0 ? "off"
                                                                 : "on");
  report.Info("first_build_penalty",
              "excluded: an untimed probe build precedes the timed set-ups");
  if (args.workload == "filter_wire") {
    RunFilterWire(args, &report);
  } else if (args.workload == "ingest_budget") {
    RunIngestBudget(args, &report);
  } else if (args.workload == "cube_build") {
    RunCubeBuild(args, &report);
  } else {
    Die("unknown workload " + args.workload);
  }
  report.Print(args.trace);
  return report.correct() ? 0 : 1;
}

}  // namespace
}  // namespace perfbench

int main(int argc, char** argv) { return perfbench::Main(argc, argv); }
