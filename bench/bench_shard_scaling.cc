/// Sharded-cube scaling: build time and serving QPS at K ∈ {1, 2, 4, 8}
/// shards over the same table, same loss, same θ. The merged cube must
/// be the SAME cube at every K — identical iceberg-cell counts — so the
/// sweep isolates the cost/benefit of partitioned building and
/// scatter-gather serving with nothing else moving.
///
/// Two build-time metrics per K:
///   wall_ms   measured wall clock on this host. Shard builds are
///             independent pool tasks, so this converges to crit_ms
///             once the pool has >= K workers; on smaller pools the
///             tasks time-share and wall approaches the *sum* of the
///             shard builds instead.
///   crit_ms   the build's critical path — coordinator-serial work
///             (partition, state merge, θ re-verification) plus the
///             slowest single shard build. This is the wall clock a
///             K-worker deployment (the paper's cluster setting)
///             delivers, and the headline the speedup is computed
///             from; wall_ms is reported alongside so nothing hides.
///
///   --smoke        small fixed scale; exits non-zero when the K=8
///                  critical path regresses >20% vs K=1 or the iceberg
///                  sets diverge (the CI gate)
///   --seed/--rows/--queries  effective-config overrides (bench_common)
///
///   TABULA_SCALE   table rows   (default 60000)
///   TABULA_SEED    dataset seed (default 7)
///
/// Writes BENCH_shard_scaling.json with the headline numbers.

#include <algorithm>
#include <cstring>
#include <memory>
#include <vector>

#include "bench_common.h"
#include "common/stopwatch.h"
#include "shard/sharded_tabula.h"

namespace tabula {
namespace bench {
namespace {

constexpr size_t kShardCounts[] = {1, 2, 4, 8};

struct ShardPoint {
  size_t k = 0;
  double wall_ms = 0.0;
  double crit_ms = 0.0;
  double qps = 0.0;
  size_t iceberg_cells = 0;
  size_t conflict_cells = 0;
  size_t union_accepted = 0;
  size_t verified = 0;
  size_t resampled = 0;
};

}  // namespace
}  // namespace bench
}  // namespace tabula

int main(int argc, char** argv) {
  using namespace tabula;
  using namespace tabula::bench;

  bool smoke = false;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) smoke = true;
  }
  BenchConfig config = BenchConfig::FromArgs(argc, argv);
  if (smoke) {
    config.rows = std::min<size_t>(config.rows, 20000);
  }

  TaxiGeneratorOptions gen;
  gen.num_rows = config.rows;
  gen.seed = config.seed;
  std::unique_ptr<Table> table = TaxiGenerator(gen).Generate();
  const std::vector<std::string> attrs = Attributes(3);
  const double theta = 0.05;
  auto loss =
      MakeLossFunction("mean_loss", {.columns = {"fare_amount"}}).value();

  std::printf("Sharded-cube scaling: %zu rows, mean loss theta=%.2f, "
              "%zu attributes, hash partition\n",
              table->num_rows(), theta, attrs.size());
  PrintCsvHeader("k,crit_ms,wall_ms,qps,iceberg_cells,conflicts,resampled");

  WorkloadOptions wopt;
  wopt.num_queries = 200;
  wopt.seed = config.seed * 31 + 5;
  auto workload = GenerateWorkload(*table, attrs, wopt);
  if (!workload.ok()) {
    std::printf("workload ERROR %s\n", workload.status().ToString().c_str());
    return 1;
  }
  const size_t serve_queries = smoke ? 2000 : 20000;

  std::vector<ShardPoint> points;
  const int reps = smoke ? 1 : 3;
  for (size_t k : kShardCounts) {
    ShardedTabulaOptions opts;
    opts.base.cubed_attributes = attrs;
    opts.base.loss = loss.get();
    opts.base.threshold = theta;
    opts.base.seed = config.seed;
    // Apples-to-apples across K: representative-sample selection is a
    // global optimization the partitioned build forgoes, so switch it
    // off for K=1 too.
    opts.base.enable_sample_selection = false;
    opts.num_shards = k;
    opts.partition = ShardPartition::kHash;

    ShardPoint p;
    p.k = k;
    // One shard is the plain engine: no merge, and its critical path is
    // its whole build.
    ShardedInitStats stats;
    double crit = 0.0;
    auto build = [&]() -> Result<std::unique_ptr<QueryEngine>> {
      if (k == 1) {
        TABULA_ASSIGN_OR_RETURN(std::unique_ptr<Tabula> plain,
                                Tabula::Initialize(*table, opts.base));
        crit = plain->init_stats().total_millis;
        p.iceberg_cells = plain->cube_table().size();
        return std::unique_ptr<QueryEngine>(std::move(plain));
      }
      TABULA_ASSIGN_OR_RETURN(std::unique_ptr<ShardedTabula> sharded,
                              ShardedTabula::Initialize(*table, opts));
      crit = sharded->init_stats().critical_path_millis;
      stats = sharded->init_stats();
      p.iceberg_cells = sharded->merged_iceberg_cells();
      return std::unique_ptr<QueryEngine>(std::move(sharded));
    };
    std::unique_ptr<QueryEngine> engine;
    for (int r = 0; r < reps; ++r) {
      Stopwatch timer;
      auto built = build();
      double ms = timer.ElapsedMillis();
      if (!built.ok()) {
        std::printf("k=%zu ERROR %s\n", k, built.status().ToString().c_str());
        return 1;
      }
      if (r == 0 || ms < p.wall_ms) p.wall_ms = ms;
      if (r == 0 || crit < p.crit_ms) p.crit_ms = crit;
      engine = std::move(built).value();
    }
    p.conflict_cells = stats.conflict_cells;
    p.union_accepted = stats.union_accepted_cells;
    p.verified = stats.verified_cells;
    p.resampled = stats.resampled_cells;

    // Single-threaded serving sweep over the workload cells; the
    // scatter-gather path is exercised for every iceberg-cell answer.
    Stopwatch serve_timer;
    for (size_t q = 0; q < serve_queries; ++q) {
      const WorkloadQuery& wq = workload.value()[q % workload.value().size()];
      auto ans = engine->Query(QueryRequest(wq.where));
      if (!ans.ok()) {
        std::printf("k=%zu query ERROR %s\n", k,
                    ans.status().ToString().c_str());
        return 1;
      }
    }
    p.qps = static_cast<double>(serve_queries) /
            (serve_timer.ElapsedMillis() / 1000.0);
    points.push_back(p);

    std::printf("k=%zu crit=%.1fms wall=%.1fms (merge=%.1f) qps=%.0f "
                "iceberg=%zu conflicts=%zu union_ok=%zu verified=%zu "
                "resampled=%zu\n",
                p.k, p.crit_ms, p.wall_ms, stats.merge_millis, p.qps,
                p.iceberg_cells, p.conflict_cells, p.union_accepted,
                p.verified, p.resampled);
    char row[160];
    std::snprintf(row, sizeof(row), "%zu,%.1f,%.1f,%.0f,%zu,%zu,%zu", p.k,
                  p.crit_ms, p.wall_ms, p.qps, p.iceberg_cells,
                  p.conflict_cells, p.resampled);
    PrintCsvRow(row);
  }

  // The merged cube must be the same cube at every K.
  bool cells_equal = true;
  for (const ShardPoint& p : points) {
    if (p.iceberg_cells != points.front().iceberg_cells) cells_equal = false;
  }
  const double speedup_k8 = points.back().crit_ms > 0.0
                                ? points.front().crit_ms / points.back().crit_ms
                                : 0.0;
  std::printf("K=8 build speedup vs K=1 (critical path): %.2fx; "
              "iceberg sets %s\n",
              speedup_k8, cells_equal ? "identical" : "DIVERGED");

  std::vector<std::string> entries;
  for (const ShardPoint& p : points) {
    entries.push_back(JsonObject()
                          .Set("k", static_cast<double>(p.k))
                          .Set("build_critical_path_ms", p.crit_ms)
                          .Set("build_wall_ms", p.wall_ms)
                          .Set("qps", p.qps)
                          .Set("iceberg_cells",
                               static_cast<double>(p.iceberg_cells))
                          .Set("conflict_cells",
                               static_cast<double>(p.conflict_cells))
                          .Set("union_accepted",
                               static_cast<double>(p.union_accepted))
                          .Set("verified", static_cast<double>(p.verified))
                          .Set("resampled", static_cast<double>(p.resampled))
                          .Render());
  }
  JsonObject payload;
  payload.Set("bench", std::string("shard_scaling"))
      .Set("rows", static_cast<double>(table->num_rows()))
      .Set("seed", static_cast<double>(config.seed))
      .Set("loss", std::string("mean_loss"))
      .Set("theta", theta)
      .Set("partition", std::string("hash"))
      .Set("build_critical_path_speedup_k8_vs_k1", speedup_k8)
      .SetRaw("shards", JsonArray(entries));
  WriteBenchJson("shard_scaling", payload);

  if (smoke) {
    if (!cells_equal) {
      std::printf("SMOKE FAIL: iceberg-cell counts diverge across K\n");
      return 1;
    }
    // The partitioned build's critical path may not regress >20% vs
    // single-instance: the coordinator's merge work must stay small
    // enough that splitting the build across K workers wins.
    if (speedup_k8 < 1.0 / 1.2) {
      std::printf("SMOKE FAIL: K=8 build critical path regressed >20%% "
                  "vs K=1 (speedup %.2fx)\n",
                  speedup_k8);
      return 1;
    }
    std::printf("SMOKE OK: speedup %.2fx, iceberg sets identical\n",
                speedup_k8);
  }
  return cells_equal ? 0 : 1;
}
