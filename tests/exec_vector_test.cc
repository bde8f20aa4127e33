/// Differential suite for the vectorized columnar build engine
/// (DESIGN.md §11): every SIMD kernel against its always-compiled scalar
/// reference, the columnar PackRows against the per-row PackRow, the
/// mask transforms against PackRowMasked/WithNull, batched predicate
/// evaluation against Matches(), the morsel-driven ParallelForGrains
/// edge cases (n = 0, 1, below/at/above one morsel), and — the
/// regression satellite — byte-identical cube output across pool widths
/// {1, 8} AND across the vectorized/scalar-reference real-run engines
/// for n swept around the morsel boundary.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <numeric>
#include <stdexcept>
#include <string>
#include <vector>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "cube/dry_run.h"
#include "cube/lattice.h"
#include "cube/real_run.h"
#include "exec/aggregate.h"
#include "exec/group_by.h"
#include "exec/key_encoder.h"
#include "exec/vector_ops.h"
#include "loss/mean_loss.h"
#include "sampling/random_sampler.h"
#include "storage/predicate.h"
#include "storage/table.h"

namespace tabula {
namespace {

/// Sizes that straddle every dispatch boundary: empty, scalar tail only,
/// exactly one SIMD lane group, lane group ± 1, a full morsel ± 1.
const size_t kEdgeSizes[] = {0,  1,  2,  3,    4,    7,    8,   9,
                             15, 16, 17, 63,   64,   100,  1023,
                             2047, 2048, 2049};

uint64_t Random64(Rng* rng) {
  return (static_cast<uint64_t>(rng->UniformInt(0, (int64_t{1} << 32) - 1))
          << 32) |
         static_cast<uint64_t>(rng->UniformInt(0, (int64_t{1} << 32) - 1));
}

std::vector<uint32_t> RandomCodes(Rng* rng, size_t n, uint32_t card) {
  std::vector<uint32_t> codes(n);
  for (auto& c : codes) {
    c = static_cast<uint32_t>(rng->UniformInt(0, static_cast<int>(card)));
  }
  return codes;
}

// ---------- SIMD kernels vs scalar references ----------

TEST(VectorOpsTest, OrShiftU32MatchesScalar) {
  Rng rng(17);
  for (size_t n : kEdgeSizes) {
    for (uint32_t shift : {0u, 3u, 17u, 32u, 40u}) {
      std::vector<uint32_t> codes = RandomCodes(&rng, n, 1u << 20);
      // OR-accumulating kernel: seed both outputs with the same junk.
      std::vector<uint64_t> got(n), want(n);
      for (size_t i = 0; i < n; ++i) {
        got[i] = want[i] = Random64(&rng) & 0xFFFF;
      }
      vec::OrShiftU32(codes.data(), n, shift, got.data());
      vec::OrShiftU32Scalar(codes.data(), n, shift, want.data());
      EXPECT_EQ(got, want) << "n=" << n << " shift=" << shift;
    }
  }
}

TEST(VectorOpsTest, OrShiftU32MatchesScalarUnaligned) {
  // The kernels use unaligned loads; feed deliberately offset pointers.
  Rng rng(18);
  std::vector<uint32_t> codes = RandomCodes(&rng, 300, 1u << 16);
  std::vector<uint64_t> got(300, 0), want(300, 0);
  for (size_t off : {1u, 2u, 3u}) {
    const size_t n = 256;
    vec::OrShiftU32(codes.data() + off, n, 9, got.data() + off);
    vec::OrShiftU32Scalar(codes.data() + off, n, 9, want.data() + off);
    EXPECT_EQ(got, want) << "offset " << off;
  }
}

TEST(VectorOpsTest, OrShiftGatherU32MatchesScalar) {
  Rng rng(19);
  const size_t table_rows = 5000;
  std::vector<uint32_t> codes = RandomCodes(&rng, table_rows, 1u << 18);
  for (size_t n : kEdgeSizes) {
    std::vector<RowId> rows(n);
    for (auto& r : rows) {
      r = static_cast<RowId>(
          rng.UniformInt(0, static_cast<int>(table_rows - 1)));
    }
    std::vector<uint64_t> got(n, 7), want(n, 7);
    vec::OrShiftGatherU32(codes.data(), rows.data(), n, 21, got.data());
    vec::OrShiftGatherU32Scalar(codes.data(), rows.data(), n, 21,
                                want.data());
    EXPECT_EQ(got, want) << "n=" << n;
  }
}

TEST(VectorOpsTest, MaskRollKeysMatchesScalarAndAllowsAliasing) {
  Rng rng(23);
  for (size_t n : kEdgeSizes) {
    std::vector<uint64_t> keys(n);
    for (auto& k : keys) k = Random64(&rng);
    const uint64_t keep = Random64(&rng);
    const uint64_t set = Random64(&rng) & ~keep;
    std::vector<uint64_t> got(n), want(n);
    vec::MaskRollKeys(keys.data(), n, keep, set, got.data());
    vec::MaskRollKeysScalar(keys.data(), n, keep, set, want.data());
    EXPECT_EQ(got, want) << "n=" << n;
    // In-place form (out aliases keys) — the dry-run roll-up uses a
    // scratch, but the contract says aliasing is allowed.
    std::vector<uint64_t> in_place = keys;
    vec::MaskRollKeys(in_place.data(), n, keep, set, in_place.data());
    EXPECT_EQ(in_place, want) << "aliased, n=" << n;
  }
}

// ---------- Columnar packing vs the per-row reference ----------

std::unique_ptr<Table> SeededTable(size_t n, uint64_t seed) {
  Schema schema({{"g1", DataType::kCategorical},
                 {"g2", DataType::kCategorical},
                 {"g3", DataType::kInt64},
                 {"v", DataType::kDouble}});
  auto table = std::make_unique<Table>(schema);
  Rng rng(seed);
  const char* cats1[] = {"a", "b", "c", "d", "e"};
  const char* cats2[] = {"p", "q", "r"};
  for (size_t i = 0; i < n; ++i) {
    bool outlier = rng.Bernoulli(0.08);
    double v = outlier ? rng.Normal(500.0, 5.0) : rng.Normal(50.0, 5.0);
    EXPECT_TRUE(table
                    ->AppendRow({Value(cats1[rng.UniformInt(0, 4)]),
                                 Value(outlier ? "zz" : cats2[rng.UniformInt(
                                                     0, 2)]),
                                 Value(int64_t{rng.UniformInt(0, 6)}),
                                 Value(v)})
                    .ok());
  }
  return table;
}

struct PackFixture {
  std::unique_ptr<Table> table;
  KeyEncoder encoder;
  KeyPacker packer;

  explicit PackFixture(size_t n, uint64_t seed = 3) : table(SeededTable(n, seed)) {
    auto enc = KeyEncoder::Make(*table, {"g1", "g2", "g3"});
    EXPECT_TRUE(enc.ok()) << enc.status().ToString();
    encoder = std::move(enc).value();
    auto pk = KeyPacker::Make(encoder, {0, 1, 2});
    EXPECT_TRUE(pk.ok()) << pk.status().ToString();
    packer = std::move(pk).value();
  }
};

TEST(PackRowsDiffTest, MatchesPackRowOnAllRowsAndSubsetViews) {
  PackFixture f(4500);
  // Contiguous all-rows view (the no-gather kernel path), swept over
  // morsel-straddling [begin, end) windows.
  DatasetView all(f.table.get());
  for (size_t begin : {size_t{0}, size_t{1}, size_t{2047}, size_t{2048}}) {
    for (size_t len : kEdgeSizes) {
      size_t end = std::min(all.size(), begin + len);
      if (begin > end) continue;
      std::vector<uint64_t> bulk(end - begin + 1, ~uint64_t{0});
      f.packer.PackRows(f.encoder, all, begin, end, bulk.data());
      for (size_t i = begin; i < end; ++i) {
        ASSERT_EQ(bulk[i - begin], f.packer.PackRow(f.encoder, all.row(i)))
            << "begin=" << begin << " pos=" << i;
      }
      EXPECT_EQ(bulk[end - begin], ~uint64_t{0}) << "wrote past compact end";
    }
  }
  // Subset view (the gather kernel path) with a scrambled row order.
  Rng rng(29);
  std::vector<RowId> subset;
  for (RowId r = 0; r < f.table->num_rows(); r += 2) subset.push_back(r);
  for (size_t i = subset.size(); i-- > 1;) {
    std::swap(subset[i], subset[rng.UniformInt(0, static_cast<int>(i))]);
  }
  DatasetView view(f.table.get(), subset);
  std::vector<uint64_t> bulk(view.size());
  f.packer.PackRows(f.encoder, view, 0, view.size(), bulk.data());
  for (size_t i = 0; i < view.size(); ++i) {
    ASSERT_EQ(bulk[i], f.packer.PackRow(f.encoder, view.row(i))) << i;
  }
}

TEST(MaskTransformTest, TransformForMatchesPackRowMaskedEveryCuboid) {
  PackFixture f(600);
  const uint32_t num_cuboids = 1u << f.packer.num_cols();
  for (uint32_t mask = 0; mask < num_cuboids; ++mask) {
    const KeyPacker::MaskTransform t = f.packer.TransformFor(mask);
    for (RowId r = 0; r < f.table->num_rows(); ++r) {
      const uint64_t finest = f.packer.PackRow(f.encoder, r);
      ASSERT_EQ((finest & t.keep) | t.set,
                f.packer.PackRowMasked(f.encoder, r, mask))
          << "mask=" << mask << " row=" << r;
    }
  }
}

TEST(MaskTransformTest, NullTransformMatchesWithNull) {
  PackFixture f(400);
  for (size_t col = 0; col < f.packer.num_cols(); ++col) {
    const KeyPacker::MaskTransform t = f.packer.NullTransform(col);
    for (RowId r = 0; r < f.table->num_rows(); ++r) {
      const uint64_t key = f.packer.PackRow(f.encoder, r);
      ASSERT_EQ((key & t.keep) | t.set, f.packer.WithNull(key, col))
          << "col=" << col << " row=" << r;
    }
    // Also from already-rolled keys (the roll-up applies NullTransform
    // to keys that carry '*' patterns in other columns).
    for (RowId r = 0; r < std::min<RowId>(f.table->num_rows(), 64); ++r) {
      uint64_t key = f.packer.PackRow(f.encoder, r);
      for (size_t other = 0; other < f.packer.num_cols(); ++other) {
        key = f.packer.WithNull(key, other);
        ASSERT_EQ((key & t.keep) | t.set, f.packer.WithNull(key, col));
      }
    }
  }
}

// ---------- Batched predicate evaluation vs Matches() ----------

void CheckMatchBatchAgainstMatches(const Table& table,
                                   const std::vector<PredicateTerm>& terms,
                                   const char* what) {
  auto bound = BoundPredicate::Bind(table, terms);
  ASSERT_TRUE(bound.ok()) << what << ": " << bound.status().ToString();
  const size_t n_rows = table.num_rows();
  uint8_t match[kMorselRows];
  // Contiguous batches at every edge size (including single-row).
  for (size_t n : kEdgeSizes) {
    if (n > n_rows || n > kMorselRows) continue;
    const size_t base = n_rows - n;
    bound->MatchBatch(static_cast<RowId>(base), nullptr, n, match);
    for (size_t i = 0; i < n; ++i) {
      ASSERT_EQ(match[i] != 0,
                bound->Matches(static_cast<RowId>(base + i)))
          << what << " contiguous n=" << n << " i=" << i;
    }
  }
  // Gathered batch over a scrambled row-id list.
  Rng rng(47);
  std::vector<RowId> rows;
  for (RowId r = 0; r < n_rows; r += 3) rows.push_back(r);
  for (size_t i = rows.size(); i-- > 1;) {
    std::swap(rows[i], rows[rng.UniformInt(0, static_cast<int>(i))]);
  }
  const size_t n = std::min(rows.size(), kMorselRows);
  bound->MatchBatch(0, rows.data(), n, match);
  for (size_t i = 0; i < n; ++i) {
    ASSERT_EQ(match[i] != 0, bound->Matches(rows[i]))
        << what << " gathered i=" << i;
  }
}

TEST(MatchBatchTest, AgreesWithMatchesAcrossPredicateShapes) {
  auto table = SeededTable(3000, 11);
  CheckMatchBatchAgainstMatches(*table, {}, "empty (all-pass)");
  CheckMatchBatchAgainstMatches(
      *table, {{"g1", CompareOp::kEq, Value("a")}}, "categorical eq");
  CheckMatchBatchAgainstMatches(
      *table, {{"g1", CompareOp::kNe, Value("a")}}, "categorical ne");
  CheckMatchBatchAgainstMatches(
      *table,
      {{"g1", CompareOp::kEq, Value("a")}, {"g3", CompareOp::kGe, Value(int64_t{3})}},
      "categorical + int range");
  CheckMatchBatchAgainstMatches(
      *table,
      {{"v", CompareOp::kGt, Value(100.0)}, {"v", CompareOp::kLe, Value(510.0)}},
      "double range");
  CheckMatchBatchAgainstMatches(
      *table, {{"v", CompareOp::kLt, Value(-1e9)}}, "all-fail double");
  // Literal absent from the dictionary: kEq matches nothing, kNe
  // everything — the batch short-circuits must agree with Matches().
  CheckMatchBatchAgainstMatches(
      *table, {{"g1", CompareOp::kEq, Value("missing")}}, "absent eq");
  CheckMatchBatchAgainstMatches(
      *table, {{"g1", CompareOp::kNe, Value("missing")}}, "absent ne");
  CheckMatchBatchAgainstMatches(
      *table,
      {{"g1", CompareOp::kNe, Value("missing")}, {"g2", CompareOp::kEq, Value("p")}},
      "absent ne + real eq");
}

TEST(MatchBatchTest, FilterAllAndFilterRowsMatchSerialScan) {
  auto table = SeededTable(6000, 13);
  auto bound = BoundPredicate::Bind(
      *table, {{"g2", CompareOp::kNe, Value("p")},
               {"v", CompareOp::kLt, Value(400.0)}});
  ASSERT_TRUE(bound.ok());
  std::vector<RowId> want;
  for (RowId r = 0; r < table->num_rows(); ++r) {
    if (bound->Matches(r)) want.push_back(r);
  }
  EXPECT_EQ(bound->FilterAll(), want);
  // FilterRows over an ascending candidate subset.
  std::vector<RowId> candidates;
  for (RowId r = 0; r < table->num_rows(); r += 2) candidates.push_back(r);
  std::vector<RowId> want_subset;
  for (RowId r : candidates) {
    if (bound->Matches(r)) want_subset.push_back(r);
  }
  EXPECT_EQ(bound->FilterRows(candidates), want_subset);
}

// ---------- ParallelForGrains edge cases (satellite: n==0, n<grain) ----

struct PoolOverride {
  explicit PoolOverride(size_t threads) : pool(threads) {
    ThreadPool::SetGlobalForTest(&pool);
  }
  ~PoolOverride() { ThreadPool::SetGlobalForTest(nullptr); }
  ThreadPool pool;
};

TEST(ParallelForGrainsTest, CoversEveryIndexExactlyOnce) {
  for (size_t threads : {size_t{1}, size_t{8}}) {
    PoolOverride o(threads);
    for (size_t n : {size_t{0}, size_t{1}, size_t{2047}, size_t{2048},
                     size_t{2049}, size_t{100000}}) {
      std::vector<std::atomic<uint32_t>> hits(n);
      std::atomic<size_t> calls{0};
      o.pool.ParallelForGrains(n, [&](size_t grain, size_t begin, size_t end) {
        EXPECT_LT(grain, ThreadPool::GrainCount(n));
        EXPECT_LE(begin, end);
        EXPECT_LE(end, n);
        calls.fetch_add(1);
        for (size_t i = begin; i < end; ++i) hits[i].fetch_add(1);
      });
      for (size_t i = 0; i < n; ++i) {
        ASSERT_EQ(hits[i].load(), 1u) << "threads=" << threads << " i=" << i;
      }
      if (n == 0) EXPECT_EQ(calls.load(), 0u) << "fn must not run for n==0";
    }
  }
}

TEST(ParallelForGrainsTest, PerItemStealingCoversAndRethrows) {
  PoolOverride o(8);
  const size_t n = 37;
  std::vector<std::atomic<uint32_t>> hits(n);
  o.pool.ParallelForGrains(
      n,
      [&](size_t grain, size_t begin, size_t end) {
        EXPECT_EQ(end, begin + 1);  // grain_rows=1: one item per grain
        EXPECT_EQ(grain, begin);
        hits[begin].fetch_add(1);
      },
      /*grain_rows=*/1);
  for (size_t i = 0; i < n; ++i) ASSERT_EQ(hits[i].load(), 1u);

  // First exception is rethrown after every grain still runs.
  std::atomic<size_t> ran{0};
  EXPECT_THROW(
      o.pool.ParallelForGrains(
          n,
          [&](size_t, size_t begin, size_t) {
            ran.fetch_add(1);
            if (begin == 11) throw std::runtime_error("boom");
          },
          /*grain_rows=*/1),
      std::runtime_error);
  EXPECT_EQ(ran.load(), n) << "all grains must drain despite the throw";
}

// ---------- Byte-identical cube output across widths and engines ------

struct CubeBytes {
  std::vector<std::vector<uint64_t>> iceberg_keys;  // per cuboid, sorted
  std::vector<uint64_t> cell_keys;
  std::vector<CuboidMask> cell_cuboids;
  std::vector<std::vector<RowId>> cell_raw_rows;
  std::vector<std::vector<RowId>> cell_samples;

  bool operator==(const CubeBytes& o) const {
    return iceberg_keys == o.iceberg_keys && cell_keys == o.cell_keys &&
           cell_cuboids == o.cell_cuboids &&
           cell_raw_rows == o.cell_raw_rows && cell_samples == o.cell_samples;
  }
};

CubeBytes BuildCube(const Table& table, RealRunEngine engine,
                    uint64_t sample_seed) {
  CubeBytes out;
  auto enc = KeyEncoder::Make(table, {"g1", "g2"});
  EXPECT_TRUE(enc.ok()) << enc.status().ToString();
  auto packer = KeyPacker::Make(*enc, {0, 1});
  EXPECT_TRUE(packer.ok()) << packer.status().ToString();
  Lattice lattice(2);
  MeanLoss loss("v");
  Rng rng(sample_seed);
  DatasetView all(&table);
  std::vector<RowId> global_rows =
      RandomSample(all, std::min<size_t>(table.num_rows(), 200), &rng);
  DatasetView global(&table, global_rows);

  auto dry = RunDryRun(table, *enc, *packer, lattice, loss, global, 0.05);
  EXPECT_TRUE(dry.ok()) << dry.status().ToString();
  for (const auto& info : dry->cuboids) out.iceberg_keys.push_back(info.iceberg_keys);

  GreedySamplerOptions opts;
  auto real = RunRealRun(table, *enc, *packer, lattice, *dry, loss, 0.05,
                         opts, RealRunPathPolicy::kAuto, engine);
  EXPECT_TRUE(real.ok()) << real.status().ToString();
  for (const auto& cell : real->cube.cells()) {
    out.cell_keys.push_back(cell.key);
    out.cell_cuboids.push_back(cell.cuboid);
    out.cell_raw_rows.push_back(cell.raw_rows);
    out.cell_samples.push_back(cell.local_sample);
  }
  return out;
}

TEST(CubeDeterminismTest, ByteIdenticalAcrossPoolWidthsAndEnginesAtEdgeSizes) {
  // Satellite regression sweep: n around the morsel boundary, at pool
  // widths 1 and 8, vectorized AND scalar-reference real-run engines —
  // every combination must produce the same bytes (iceberg key sets,
  // raw row lists, local samples).
  for (size_t n : {size_t{1}, size_t{2047}, size_t{2048}, size_t{2049},
                   size_t{5000}}) {
    auto table = SeededTable(n, /*seed=*/41);
    CubeBytes reference;
    {
      PoolOverride o(1);
      reference = BuildCube(*table, RealRunEngine::kVectorized, 9);
    }
    for (size_t threads : {size_t{1}, size_t{8}}) {
      for (RealRunEngine engine :
           {RealRunEngine::kVectorized, RealRunEngine::kScalarReference}) {
        PoolOverride o(threads);
        CubeBytes got = BuildCube(*table, engine, 9);
        EXPECT_TRUE(got == reference)
            << "n=" << n << " threads=" << threads << " engine="
            << (engine == RealRunEngine::kVectorized ? "vectorized"
                                                     : "scalar");
      }
    }
  }
}

TEST(CubeDeterminismTest, NewDryRunMatchesLegacyIcebergSets) {
  // The legacy engine is the differential oracle: same iceberg cell sets
  // (it reports them sorted too), same total counts.
  auto table = SeededTable(4000, 43);
  auto enc = KeyEncoder::Make(*table, {"g1", "g2"});
  ASSERT_TRUE(enc.ok());
  auto packer = KeyPacker::Make(*enc, {0, 1});
  ASSERT_TRUE(packer.ok());
  Lattice lattice(2);
  MeanLoss loss("v");
  Rng rng(7);
  DatasetView all(table.get());
  std::vector<RowId> global_rows = RandomSample(all, 200, &rng);
  DatasetView global(table.get(), global_rows);

  auto fresh =
      RunDryRun(*table, *enc, *packer, lattice, loss, global, 0.05);
  auto legacy =
      RunDryRunLegacy(*table, *enc, *packer, lattice, loss, global, 0.05);
  ASSERT_TRUE(fresh.ok() && legacy.ok());
  EXPECT_EQ(fresh->total_cells, legacy->total_cells);
  EXPECT_EQ(fresh->total_iceberg_cells, legacy->total_iceberg_cells);
  ASSERT_EQ(fresh->cuboids.size(), legacy->cuboids.size());
  for (size_t i = 0; i < fresh->cuboids.size(); ++i) {
    EXPECT_EQ(fresh->cuboids[i].total_cells, legacy->cuboids[i].total_cells);
    // The legacy engine reports its keys unsorted; compare as sets.
    std::vector<uint64_t> legacy_keys = legacy->cuboids[i].iceberg_keys;
    std::sort(legacy_keys.begin(), legacy_keys.end());
    EXPECT_EQ(fresh->cuboids[i].iceberg_keys, legacy_keys)
        << "cuboid mask " << fresh->cuboids[i].mask;
  }
}

TEST(CubeDeterminismTest, GroupAccumulateHandlesEmptyAndTinyViews) {
  // n == 0 and n < one morsel through the grouped templates (the
  // ParallelFor callers the n-edge audit covered).
  auto table = SeededTable(3, 47);
  auto enc = KeyEncoder::Make(*table, {"g1"});
  ASSERT_TRUE(enc.ok());
  auto packer = KeyPacker::Make(*enc, {0});
  ASSERT_TRUE(packer.ok());
  const auto* v = table->column(3).As<DoubleColumn>();
  auto add = [&](NumericAggState* s, RowId r) { s->Add(v->At(r)); };

  DatasetView empty(table.get(), std::vector<RowId>{});
  EXPECT_EQ(GroupAccumulate<NumericAggState>(*enc, *packer, empty, add).size(),
            0u);
  auto dense_empty =
      GroupAccumulateSorted<NumericAggState>(*enc, *packer, empty, add);
  EXPECT_TRUE(dense_empty.keys.empty());
  GroupedRows rows_empty = GroupRows(*enc, *packer, empty);
  EXPECT_TRUE(rows_empty.keys.empty());

  DatasetView one(table.get(), std::vector<RowId>{2});
  auto dense_one =
      GroupAccumulateSorted<NumericAggState>(*enc, *packer, one, add);
  ASSERT_EQ(dense_one.keys.size(), 1u);
  EXPECT_DOUBLE_EQ(dense_one.states[0].count, 1.0);
}

}  // namespace
}  // namespace tabula
