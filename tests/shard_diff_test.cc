/// Shard-equivalence differential suite: a ShardedTabula at K ∈
/// {1, 2, 4, 8} against the single-instance engine and against
/// brute-force ground truth, across many random tables and seeds.
///
/// The contract under test (DESIGN.md "Sharding"):
///  - the merged iceberg-cell SET equals the single-instance cube's
///    (per-cell loss states merge exactly, so classification agrees);
///  - every served answer still meets the deterministic loss(truth,
///    sample) <= θ bound, truth gathered by a direct predicate scan;
///  - K = 1 is a strict pass-through: answers are bit-identical to a
///    plain Tabula, and a shards=1 soak trace is byte-identical to the
///    unsharded harness;
///  - a sharded soak replays byte-identically for a fixed shard count.

#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/tabula.h"
#include "data/synthetic_gen.h"
#include "data/workload.h"
#include "loss/loss_registry.h"
#include "obs/trace.h"
#include "shard/sharded_tabula.h"
#include "storage/predicate.h"
#include "testing/scenario.h"

namespace tabula {
namespace {

constexpr size_t kShardCounts[] = {1, 2, 4, 8};

struct DiffFixture {
  std::unique_ptr<Table> table;
  std::vector<std::string> attrs;
};

DiffFixture MakeFixture(uint64_t seed, size_t rows) {
  SyntheticGeneratorOptions gen;
  gen.seed = seed * 7919 + 11;
  gen.num_rows = rows;
  gen.cell_spread = 1.1;
  gen.noise = 0.1;
  gen.columns.clear();
  Rng rng(seed * 13 + 5);
  const size_t ncols = 2 + (seed % 2);
  for (size_t c = 0; c < ncols; ++c) {
    SyntheticColumnSpec col;
    col.name = "c" + std::to_string(c);
    col.cardinality = 2 + static_cast<uint32_t>(rng.UniformInt(0, 3));
    col.zipf_skew = rng.Bernoulli(0.5) ? 0.8 : 0.0;
    gen.columns.push_back(col);
  }
  SyntheticGenerator generator(gen);
  DiffFixture f;
  f.table = generator.Generate();
  f.attrs = generator.CategoricalColumns();
  return f;
}

std::shared_ptr<const LossFunction> MakeLoss(const std::string& name) {
  LossParams params;
  params.columns = name == "heatmap_loss"
                       ? std::vector<std::string>{"x", "y"}
                       : std::vector<std::string>{"value"};
  auto loss = MakeLossFunction(name, params);
  EXPECT_TRUE(loss.ok()) << loss.status().ToString();
  return std::shared_ptr<const LossFunction>(std::move(loss).value());
}

ShardedTabulaOptions MakeShardOptions(const DiffFixture& f, uint64_t seed,
                                      size_t k,
                                      std::shared_ptr<const LossFunction> loss,
                                      double theta) {
  ShardedTabulaOptions o;
  o.base.cubed_attributes = f.attrs;
  o.base.owned_loss = std::move(loss);
  o.base.threshold = theta;
  o.base.seed = seed;
  o.num_shards = k;
  // Alternate partitioning so both schemes see every seed eventually.
  o.partition =
      (seed + k) % 2 == 0 ? ShardPartition::kHash : ShardPartition::kRange;
  return o;
}

std::vector<uint64_t> PlainIcebergKeys(const Tabula& t) {
  std::vector<uint64_t> keys;
  for (const IcebergCell& c : t.cube_table().cells()) keys.push_back(c.key);
  std::sort(keys.begin(), keys.end());
  return keys;
}

/// loss(truth, sample) <= θ with truth from a direct predicate scan —
/// the paper's deterministic guarantee, zero cube code involved.
void CheckThetaBound(const DiffFixture& f, const LossFunction& loss,
                     double theta, const WorkloadQuery& q,
                     const TabulaQueryResult& result, size_t k,
                     uint64_t seed) {
  auto bound = BoundPredicate::Bind(*f.table, q.where);
  ASSERT_TRUE(bound.ok()) << bound.status().ToString();
  std::vector<RowId> truth = bound.value().FilterAll();
  if (result.empty_cell) {
    // A provably-empty cell must really be empty.
    EXPECT_TRUE(truth.empty()) << "seed=" << seed << " k=" << k;
  }
  if (truth.empty()) return;
  DatasetView truth_view(f.table.get(), std::move(truth));
  auto l = loss.Loss(truth_view, result.sample);
  ASSERT_TRUE(l.ok()) << l.status().ToString();
  EXPECT_LE(l.value(), theta * (1.0 + 1e-7) + 1e-12)
      << "seed=" << seed << " k=" << k << " query=" << q.ToString();
}

void RunEquivalence(const std::string& loss_name, uint64_t seed,
                    size_t rows) {
  DiffFixture f = MakeFixture(seed, rows);
  Rng rng(seed * 977 + 3);
  const double theta = loss_name == "heatmap_loss"
                           ? 0.004 + rng.UniformDouble(0.0, 0.006)
                           : 0.05 + rng.UniformDouble(0.0, 0.05);
  std::shared_ptr<const LossFunction> loss = MakeLoss(loss_name);

  TabulaOptions plain_opts;
  plain_opts.cubed_attributes = f.attrs;
  plain_opts.owned_loss = loss;
  plain_opts.threshold = theta;
  plain_opts.seed = seed;
  auto plain = Tabula::Initialize(*f.table, std::move(plain_opts));
  ASSERT_TRUE(plain.ok()) << plain.status().ToString();
  const std::vector<uint64_t> plain_keys = PlainIcebergKeys(*plain.value());

  WorkloadOptions wopt;
  wopt.num_queries = 12;
  wopt.seed = seed * 101 + 7;
  auto qs = GenerateWorkload(*f.table, f.attrs, wopt);
  ASSERT_TRUE(qs.ok()) << qs.status().ToString();

  for (size_t k : kShardCounts) {
    auto sharded = ShardedTabula::Initialize(
        *f.table, MakeShardOptions(f, seed, k, loss, theta));
    ASSERT_TRUE(sharded.ok()) << "seed=" << seed << " k=" << k << ": "
                              << sharded.status().ToString();

    // Merged iceberg-cell SET == single-instance cube's.
    EXPECT_EQ(sharded.value()->MergedIcebergKeys(), plain_keys)
        << "seed=" << seed << " k=" << k;
    EXPECT_EQ(sharded.value()->merged_iceberg_cells(), plain_keys.size());
    if (k > 1) {
      const ShardedInitStats& stats = sharded.value()->init_stats();
      EXPECT_EQ(stats.num_shards, k);
      EXPECT_EQ(stats.merged_iceberg_cells, plain_keys.size());
      if (loss_name == "mean_loss") {
        // Mean is not union-closed: nothing may be accepted unverified.
        EXPECT_EQ(stats.union_accepted_cells, 0u);
      }
      // Every base row is owned by exactly one shard.
      size_t owned = 0;
      for (size_t s = 0; s < k; ++s) {
        owned += sharded.value()->shard_rows(s).size();
      }
      EXPECT_EQ(owned, f.table->num_rows());
    }

    for (const WorkloadQuery& q : qs.value()) {
      auto got = sharded.value()->Query(QueryRequest(q.where));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const TabulaQueryResult& result = got.value().result;
      EXPECT_TRUE(result.unavailable_shards.empty());

      auto want = plain.value()->Query(QueryRequest(q.where));
      ASSERT_TRUE(want.ok());
      // Classification (iceberg / global / empty) always agrees with
      // the single instance; at K = 1 the answer is bit-identical.
      EXPECT_EQ(result.from_local_sample,
                want.value().result.from_local_sample)
          << "seed=" << seed << " k=" << k << " query=" << q.ToString();
      EXPECT_EQ(result.empty_cell, want.value().result.empty_cell);
      if (k == 1) {
        EXPECT_EQ(result.sample.ToRowIds(),
                  want.value().result.sample.ToRowIds())
            << "seed=" << seed << " query=" << q.ToString();
      }
      CheckThetaBound(f, *loss, theta, q, result, k, seed);
    }
  }
}

/// Mean loss (ratio-of-aggregates): NOT union-closed, but its loss
/// state is reference-free, so merge-time verification is the exact
/// finalize-against-candidate check. 20 seeds x 4 shard counts.
TEST(ShardDiff, MeanLossEquivalenceAcross20Seeds) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    RunEquivalence("mean_loss", seed, 700);
  }
}

/// Heatmap loss (min-dist family): union-closed AND
/// reference-dependent, so the merge pass exercises the union-closure
/// acceptance and the raw-scan conflict path.
TEST(ShardDiff, HeatmapLossEquivalenceAcross6Seeds) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    RunEquivalence("heatmap_loss", seed, 500);
  }
}

/// Refresh equivalence: append rows, refresh both engines, and the
/// merged iceberg set must still equal the rebuilt single instance's.
TEST(ShardDiff, RefreshKeepsIcebergSetEqualAcrossShardCounts) {
  for (uint64_t seed = 1; seed <= 6; ++seed) {
    DiffFixture f = MakeFixture(seed, 600);
    std::shared_ptr<const LossFunction> loss = MakeLoss("mean_loss");
    const double theta = 0.07;

    // Donor rows with the same schema; appending shifts cell stats.
    SyntheticGeneratorOptions donor_gen;
    donor_gen.seed = seed * 7919 + 12;
    donor_gen.num_rows = 300;
    donor_gen.cell_spread = 1.1;
    donor_gen.noise = 0.1;
    donor_gen.columns.clear();
    Rng rng(seed * 13 + 5);
    const size_t ncols = 2 + (seed % 2);
    for (size_t c = 0; c < ncols; ++c) {
      SyntheticColumnSpec col;
      col.name = "c" + std::to_string(c);
      col.cardinality = 2 + static_cast<uint32_t>(rng.UniformInt(0, 3));
      col.zipf_skew = rng.Bernoulli(0.5) ? 0.8 : 0.0;
      donor_gen.columns.push_back(col);
    }
    std::unique_ptr<Table> donor = SyntheticGenerator(donor_gen).Generate();

    std::vector<std::unique_ptr<ShardedTabula>> engines;
    for (size_t k : kShardCounts) {
      auto e = ShardedTabula::Initialize(
          *f.table, MakeShardOptions(f, seed, k, loss, theta));
      ASSERT_TRUE(e.ok()) << e.status().ToString();
      engines.push_back(std::move(e).value());
    }

    for (size_t r = 0; r < donor->num_rows(); ++r) {
      ASSERT_TRUE(
          f.table->AppendRowFrom(*donor, static_cast<RowId>(r)).ok());
    }
    for (auto& e : engines) {
      Status st = e->Refresh();
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_EQ(e->generation(), 1u);
    }
    // All shard counts agree with each other (k=1 is the plain engine).
    const std::vector<uint64_t> want = engines[0]->MergedIcebergKeys();
    for (size_t i = 1; i < engines.size(); ++i) {
      EXPECT_EQ(engines[i]->MergedIcebergKeys(), want)
          << "seed=" << seed << " k=" << kShardCounts[i];
    }
  }
}

/// A traced Refresh of a K=4 engine records its re-merge: one
/// `shard.merge` span under `tabula.refresh`, next to the `shard.build`
/// spans of the touched units.
TEST(ShardDiff, TracedRefreshRecordsMergeUnderRefresh) {
  DiffFixture f = MakeFixture(3, 600);
  Tracer tracer(TracerOptions{TraceMode::kAll, /*capacity=*/4096});
  ShardedTabulaOptions options =
      MakeShardOptions(f, 3, 4, MakeLoss("mean_loss"), 0.07);
  options.base.tracer = &tracer;
  auto engine = ShardedTabula::Initialize(*f.table, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  // Re-append rows of an identical table: no new attribute value, so
  // the refresh takes the incremental (rebuild touched units) path.
  const DiffFixture donor = MakeFixture(3, 600);
  for (RowId r = 0; r < 40; ++r) {
    ASSERT_TRUE(f.table->AppendRowFrom(*donor.table, r).ok());
  }
  tracer.Clear();
  ASSERT_TRUE(engine.value()->Refresh().ok());

  const std::vector<SpanRecord> spans = tracer.Snapshot();
  uint64_t refresh_id = 0;
  for (const SpanRecord& span : spans) {
    if (span.name == "tabula.refresh") refresh_id = span.span_id;
  }
  ASSERT_NE(refresh_id, 0u) << "no tabula.refresh span recorded";
  size_t merges = 0;
  size_t builds = 0;
  for (const SpanRecord& span : spans) {
    if (span.parent_id != refresh_id) continue;
    merges += span.name == "shard.merge";
    builds += span.name == "shard.build";
  }
  EXPECT_EQ(merges, 1u);
  EXPECT_GT(builds, 0u);
}

/// shards=1 soak trace is byte-identical to the unsharded harness: the
/// K=1 pass-through may not perturb a single recorded outcome.
TEST(ShardDiff, SoakTraceAtK1MatchesUnshardedEngine) {
  for (uint64_t seed : {2u, 5u, 9u}) {
    SoakOptions a;
    a.seed = seed;
    a.steps = 60;
    SoakOptions b = a;
    b.shards = 1;
    auto ra = RunSoak(a);
    auto rb = RunSoak(b);
    ASSERT_TRUE(ra.ok()) << ra.status().ToString();
    ASSERT_TRUE(rb.ok()) << rb.status().ToString();
    EXPECT_TRUE(ra.value().ok()) << ra.value().violations.front();
    EXPECT_TRUE(rb.value().ok()) << rb.value().violations.front();
    EXPECT_EQ(ra.value().trace, rb.value().trace) << "seed=" << seed;
  }
}

/// A sharded soak replays byte-identically for a fixed shard count —
/// the determinism the fault schedule and failure repro depend on.
TEST(ShardDiff, ShardedSoakReplaysByteIdentically) {
  for (size_t k : {2u, 4u, 8u}) {
    SoakOptions opt;
    opt.seed = 7 + k;
    opt.steps = 70;
    opt.shards = k;
    auto r1 = RunSoak(opt);
    auto r2 = RunSoak(opt);
    ASSERT_TRUE(r1.ok()) << r1.status().ToString();
    ASSERT_TRUE(r2.ok()) << r2.status().ToString();
    EXPECT_TRUE(r1.value().ok())
        << "k=" << k << ": " << r1.value().violations.front();
    EXPECT_EQ(r1.value().trace, r2.value().trace) << "k=" << k;
  }
}

}  // namespace
}  // namespace tabula
