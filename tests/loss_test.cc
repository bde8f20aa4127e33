#include <gtest/gtest.h>

#include <cmath>

#include "common/rng.h"
#include "loss/mean_loss.h"
#include "loss/min_dist_loss.h"
#include "loss/regression_loss.h"
#include "loss/spatial.h"
#include "sampling/greedy_sampler.h"
#include "storage/table.h"

namespace tabula {
namespace {

std::unique_ptr<Table> PointsTable(const std::vector<Point>& pts,
                                   const std::vector<double>& vals = {}) {
  Schema schema({{"x", DataType::kDouble},
                 {"y", DataType::kDouble},
                 {"v", DataType::kDouble}});
  auto table = std::make_unique<Table>(schema);
  for (size_t i = 0; i < pts.size(); ++i) {
    double v = i < vals.size() ? vals[i] : 0.0;
    EXPECT_TRUE(
        table->AppendRow({Value(pts[i].x), Value(pts[i].y), Value(v)}).ok());
  }
  return table;
}

// ---------- PointGrid ----------

TEST(PointGridTest, ExactNearestOnRandomPoints) {
  Rng rng(5);
  std::vector<Point> pts;
  for (int i = 0; i < 500; ++i) {
    pts.push_back({rng.UniformDouble(0, 1), rng.UniformDouble(0, 1)});
  }
  PointGrid grid(pts, DistanceMetric::kEuclidean);
  for (int q = 0; q < 200; ++q) {
    Point query{rng.UniformDouble(-0.2, 1.2), rng.UniformDouble(-0.2, 1.2)};
    double brute = kInfiniteLoss;
    for (const auto& p : pts) {
      brute = std::min(brute,
                       Distance(DistanceMetric::kEuclidean, query, p));
    }
    EXPECT_NEAR(grid.NearestDistance(query), brute, 1e-12);
  }
}

TEST(PointGridTest, ManhattanMetric) {
  std::vector<Point> pts{{0.0, 0.0}, {1.0, 1.0}};
  PointGrid grid(pts, DistanceMetric::kManhattan);
  EXPECT_NEAR(grid.NearestDistance({0.2, 0.1}), 0.3, 1e-12);
}

TEST(PointGridTest, SinglePoint) {
  PointGrid grid({{0.5, 0.5}}, DistanceMetric::kEuclidean);
  EXPECT_NEAR(grid.NearestDistance({0.5, 0.9}), 0.4, 1e-12);
}

TEST(PointGridTest, DegenerateColinearPoints) {
  // All points on one horizontal line: the grid's y extent is zero.
  std::vector<Point> pts;
  for (int i = 0; i < 10; ++i) pts.push_back({i * 0.1, 0.0});
  PointGrid grid(pts, DistanceMetric::kEuclidean);
  EXPECT_NEAR(grid.NearestDistance({0.55, 0.0}), 0.05, 1e-12);
  EXPECT_NEAR(grid.NearestDistance({0.3, 1.0}), 1.0, 1e-12);
}

TEST(PointGridTest, FarQueryAgainstTinyExtentIsExact) {
  // A sample whose extent is ~1e-12: a far query's cell coordinate is
  // ~1e18, far outside int. The index clamps it before converting.
  std::vector<Point> pts;
  for (int i = 0; i < 64; ++i) {
    pts.push_back({0.5 + i * 1e-12, 0.25 + (i % 8) * 1e-12});
  }
  PointGrid grid(pts, DistanceMetric::kEuclidean);
  for (Point query : {Point{1e6, -1e6}, Point{-3.0, 0.25}, Point{0.5, 7.5},
                      Point{0.5 + 20e-12, 0.25}}) {
    double brute = kInfiniteLoss;
    for (const auto& p : pts) {
      brute = std::min(brute, Distance(DistanceMetric::kEuclidean, query, p));
    }
    EXPECT_EQ(grid.NearestDistance(query), brute)
        << query.x << "," << query.y;
  }
}

// ---------- MeanLoss ----------

TEST(MeanLossTest, FormulaMatchesPaperFunction1) {
  // loss = ABS((AVG(Raw) - AVG(Sam)) / AVG(Raw))
  EXPECT_DOUBLE_EQ(MeanLoss::RelativeMeanError(10.0, 9.0, false), 0.1);
  EXPECT_DOUBLE_EQ(MeanLoss::RelativeMeanError(10.0, 11.0, false), 0.1);
  EXPECT_DOUBLE_EQ(MeanLoss::RelativeMeanError(10.0, 10.0, false), 0.0);
  EXPECT_EQ(MeanLoss::RelativeMeanError(10.0, 10.0, true), kInfiniteLoss);
}

TEST(MeanLossTest, DirectLoss) {
  auto table = PointsTable({{0, 0}, {0, 0}, {0, 0}, {0, 0}},
                           {10.0, 20.0, 30.0, 40.0});
  MeanLoss loss("v");
  DatasetView raw(table.get());
  DatasetView sample(table.get(), {0, 3});  // avg 25 == raw avg 25
  auto result = loss.Loss(raw, sample);
  ASSERT_TRUE(result.ok());
  EXPECT_DOUBLE_EQ(result.value(), 0.0);

  DatasetView biased(table.get(), {0});  // avg 10 vs 25 → 0.6
  EXPECT_DOUBLE_EQ(loss.Loss(raw, biased).value(), 0.6);
}

TEST(MeanLossTest, BoundAccumulatorMatchesDirect) {
  auto table = PointsTable({{0, 0}, {0, 0}, {0, 0}, {0, 0}, {0, 0}},
                           {5.0, 15.0, 25.0, 35.0, 45.0});
  MeanLoss loss("v");
  DatasetView ref(table.get(), {1, 3});  // the "sample" side
  auto bound = loss.Bind(*table, ref);
  ASSERT_TRUE(bound.ok());
  LossState state;
  for (RowId r : {0u, 2u, 4u}) bound.value()->Accumulate(&state, r);
  DatasetView raw(table.get(), {0, 2, 4});
  EXPECT_NEAR(bound.value()->Finalize(state), loss.Loss(raw, ref).value(),
              1e-12);
}

TEST(MeanLossTest, StateMergeEqualsSinglePass) {
  auto table = PointsTable({{0, 0}, {0, 0}, {0, 0}, {0, 0}},
                           {1.0, 2.0, 3.0, 4.0});
  MeanLoss loss("v");
  DatasetView ref(table.get(), {0});
  auto bound = loss.Bind(*table, ref);
  ASSERT_TRUE(bound.ok());
  LossState a, b, whole;
  bound.value()->Accumulate(&a, 0);
  bound.value()->Accumulate(&a, 1);
  bound.value()->Accumulate(&b, 2);
  bound.value()->Accumulate(&b, 3);
  for (RowId r = 0; r < 4; ++r) bound.value()->Accumulate(&whole, r);
  a.Merge(b);
  EXPECT_NEAR(bound.value()->Finalize(a), bound.value()->Finalize(whole),
              1e-12);
}

TEST(MeanLossTest, RejectsNonNumericTarget) {
  Schema schema({{"c", DataType::kCategorical}});
  Table table(schema);
  ASSERT_TRUE(table.AppendRow({Value("a")}).ok());
  MeanLoss loss("c");
  DatasetView raw(&table);
  EXPECT_FALSE(loss.Loss(raw, raw).ok());
}

// ---------- MinDistLoss (heat map / histogram) ----------

TEST(MinDistLossTest, LossIsAverageMinDistance) {
  auto table = PointsTable({{0, 0}, {1, 0}, {0, 1}, {1, 1}});
  auto loss = MakeHeatmapLoss("x", "y");
  DatasetView raw(table.get());
  DatasetView sample(table.get(), {0});
  // Distances from each raw point to (0,0): 0, 1, 1, sqrt(2).
  auto result = loss->Loss(raw, sample);
  ASSERT_TRUE(result.ok());
  EXPECT_NEAR(result.value(), (0 + 1 + 1 + std::sqrt(2.0)) / 4.0, 1e-12);
}

TEST(MinDistLossTest, FullSampleHasZeroLoss) {
  auto table = PointsTable({{0.1, 0.9}, {0.4, 0.3}, {0.8, 0.2}});
  auto loss = MakeHeatmapLoss("x", "y");
  DatasetView raw(table.get());
  EXPECT_DOUBLE_EQ(loss->Loss(raw, raw).value(), 0.0);
}

TEST(MinDistLossTest, EmptySampleHasInfiniteLoss) {
  auto table = PointsTable({{0.1, 0.9}});
  auto loss = MakeHeatmapLoss("x", "y");
  DatasetView raw(table.get());
  DatasetView empty(table.get(), {});
  EXPECT_EQ(loss->Loss(raw, empty).value(), kInfiniteLoss);
}

TEST(MinDistLossTest, BoundAccumulatorMatchesDirect) {
  Rng rng(11);
  std::vector<Point> pts;
  for (int i = 0; i < 300; ++i) {
    pts.push_back({rng.UniformDouble(0, 1), rng.UniformDouble(0, 1)});
  }
  auto table = PointsTable(pts);
  auto loss = MakeHeatmapLoss("x", "y");
  std::vector<RowId> sample_rows{3, 50, 120, 250};
  DatasetView ref(table.get(), sample_rows);
  auto bound = loss->Bind(*table, ref);
  ASSERT_TRUE(bound.ok());
  LossState state;
  for (RowId r = 0; r < 300; ++r) bound.value()->Accumulate(&state, r);
  DatasetView raw(table.get());
  EXPECT_NEAR(bound.value()->Finalize(state), loss->Loss(raw, ref).value(),
              1e-9);
}

TEST(MinDistLossTest, HistogramLossIs1D) {
  // 1-D loss over v: raw {0, 10}, sample {0} → avg min dist = 5.
  auto table = PointsTable({{0, 0}, {0, 0}}, {0.0, 10.0});
  auto loss = MakeHistogramLoss("v");
  DatasetView raw(table.get());
  DatasetView sample(table.get(), {0});
  EXPECT_NEAR(loss->Loss(raw, sample).value(), 5.0, 1e-12);
}

TEST(MinDistLossTest, GreedyEvaluatorTracksLoss) {
  auto table = PointsTable({{0, 0}, {1, 0}, {0.5, 0}});
  auto loss = MakeHeatmapLoss("x", "y");
  DatasetView raw(table.get());
  auto eval = loss->MakeGreedyEvaluator(raw);
  ASSERT_TRUE(eval.ok());
  EXPECT_EQ(eval.value()->CurrentLoss(), kInfiniteLoss);
  // Adding the middle point: distances 0.5, 0.5, 0 → loss 1/3.
  EXPECT_NEAR(eval.value()->LossWithCandidate(2), 1.0 / 3.0, 1e-12);
  eval.value()->Add(2);
  EXPECT_NEAR(eval.value()->CurrentLoss(), 1.0 / 3.0, 1e-12);
  // Then adding (0,0): distances 0, 0.5, 0 → 1/6.
  EXPECT_NEAR(eval.value()->LossWithCandidate(0), 1.0 / 6.0, 1e-12);
}

TEST(MinDistLossTest, GreedyGainIsSubmodular) {
  // gain(c | S) must not increase as S grows.
  Rng rng(3);
  std::vector<Point> pts;
  for (int i = 0; i < 60; ++i) {
    pts.push_back({rng.UniformDouble(0, 1), rng.UniformDouble(0, 1)});
  }
  auto table = PointsTable(pts);
  auto loss = MakeHeatmapLoss("x", "y");
  ASSERT_TRUE(loss->SubmodularGain());
  DatasetView raw(table.get());
  auto eval = loss->MakeGreedyEvaluator(raw);
  ASSERT_TRUE(eval.ok());
  size_t probe = 42;
  double prev_gain = kInfiniteLoss;
  for (size_t add : {0u, 10u, 20u, 30u}) {
    double gain =
        eval.value()->InternalLoss() - eval.value()->LossWithCandidate(probe);
    EXPECT_LE(gain, prev_gain + 1e-12);
    prev_gain = gain;
    eval.value()->Add(add);
  }
}

TEST(MinDistLossTest, GreedyOverTinyExtentStaysThetaValid) {
  // x values 1e-12 apart: the evaluator's cells are ~1e-12 wide while its
  // first search radius is ~1, so window bounds fall far outside int.
  Rng rng(6);
  std::vector<Point> pts;
  for (int i = 0; i < 64; ++i) {
    pts.push_back({0.3 + i * 1e-12, rng.UniformDouble(0, 1)});
  }
  auto table = PointsTable(pts);
  auto loss = MakeHeatmapLoss("x", "y");
  DatasetView raw(table.get());
  for (double theta : {0.05, 0.01}) {
    auto sample = GreedySampler(loss.get(), theta).Sample(raw);
    ASSERT_TRUE(sample.ok());
    DatasetView sample_view(table.get(), sample.value());
    EXPECT_LE(loss->Loss(raw, sample_view).value(), theta);
  }
}

/// Point sets that stress the evaluator's grid: sizes that are not
/// multiples of the kernel's 4 lanes, duplicates, a zero-height box, a
/// single point, and points exactly on cell edges.
std::vector<std::vector<Point>> EvaluatorEdgeSets() {
  Rng rng(41);
  std::vector<std::vector<Point>> sets;
  std::vector<Point> uniform;
  for (int i = 0; i < 37; ++i) {
    uniform.push_back({rng.UniformDouble(0, 1), rng.UniformDouble(0, 1)});
  }
  sets.push_back(uniform);
  std::vector<Point> duplicates;
  for (int i = 0; i < 30; ++i) {
    duplicates.push_back(uniform[static_cast<size_t>(rng.UniformInt(0, 4))]);
  }
  sets.push_back(duplicates);
  std::vector<Point> flat;
  for (int i = 0; i < 23; ++i) flat.push_back({rng.UniformDouble(2, 5), 0.5});
  sets.push_back(flat);
  sets.push_back({{0.25, 0.75}});
  // A 9×9 lattice at k/9 plus the corner (1, 1): 82 points give the
  // evaluator 9×9 cells of width 1/9 over [0, 1]², so every lattice
  // coordinate lies on a cell edge (rounding may put it on either side).
  std::vector<Point> edges;
  for (int i = 0; i < 9; ++i) {
    for (int j = 0; j < 9; ++j) edges.push_back({i / 9.0, j / 9.0});
  }
  edges.push_back({1.0, 1.0});
  sets.push_back(edges);
  std::vector<Point> clustered;
  for (int i = 0; i < 203; ++i) {
    bool far = i % 10 == 0;
    clustered.push_back({far ? rng.UniformDouble(0, 10) : rng.Normal(3, 0.05),
                         far ? rng.UniformDouble(0, 10) : rng.Normal(6, 0.05)});
  }
  sets.push_back(clustered);
  return sets;
}

TEST(MinDistLossTest, EvaluatorMatchesBruteForceOnEdgeCases) {
  for (DistanceMetric metric :
       {DistanceMetric::kEuclidean, DistanceMetric::kManhattan}) {
    for (const std::vector<Point>& pts : EvaluatorEdgeSets()) {
      SCOPED_TRACE(::testing::Message()
                   << "n=" << pts.size() << " manhattan="
                   << (metric == DistanceMetric::kManhattan));
      auto table = PointsTable(pts);
      auto loss = MakeHeatmapLoss("x", "y", metric);
      DatasetView raw(table.get());
      auto made = loss->MakeGreedyEvaluator(raw);
      ASSERT_TRUE(made.ok());
      GreedyLossEvaluator& eval = *made.value();
      const size_t n = pts.size();
      // Brute force: each point's distance to its nearest chosen point.
      std::vector<double> nearest(n, kInfiniteLoss);
      auto loss_with = [&](size_t c) {
        double sum = 0.0;
        for (size_t i = 0; i < n; ++i) {
          sum += std::min(nearest[i], Distance(metric, pts[i], pts[c]));
        }
        return sum / static_cast<double>(n);
      };
      Rng rng(n);
      std::vector<size_t> order(n);
      for (size_t i = 0; i < n; ++i) order[i] = i;
      rng.Shuffle(&order);
      order.resize(std::min<size_t>(n, 25));
      for (size_t add : order) {
        for (size_t c = 0; c < n; ++c) {
          EXPECT_NEAR(eval.LossWithCandidate(c), loss_with(c), 1e-9)
              << "candidate " << c;
        }
        double want = loss_with(add);
        eval.Add(add);
        for (size_t i = 0; i < n; ++i) {
          nearest[i] = std::min(nearest[i], Distance(metric, pts[i], pts[add]));
        }
        EXPECT_NEAR(eval.CurrentLoss(), want, 1e-9) << "after adding " << add;
      }
    }
  }
}

// ---------- RegressionLoss ----------

TEST(RegressionLossTest, AngleDifference) {
  // Raw: slope 1 (45°); sample rows on slope 0 (0°) → loss 45.
  Schema schema({{"x", DataType::kDouble}, {"y", DataType::kDouble}});
  Table table(schema);
  // Raw points on y = x.
  for (double x : {0.0, 1.0, 2.0, 3.0}) {
    ASSERT_TRUE(table.AppendRow({Value(x), Value(x)}).ok());
  }
  // Two extra points on y = 2 (slope 0).
  ASSERT_TRUE(table.AppendRow({Value(0.0), Value(2.0)}).ok());
  ASSERT_TRUE(table.AppendRow({Value(4.0), Value(2.0)}).ok());

  RegressionLoss loss("x", "y");
  DatasetView raw(&table, {0, 1, 2, 3});
  DatasetView sample(&table, {4, 5});
  EXPECT_NEAR(loss.Loss(raw, sample).value(), 45.0, 1e-9);
  EXPECT_NEAR(loss.Loss(raw, raw).value(), 0.0, 1e-12);
}

TEST(RegressionLossTest, BoundAccumulatorMatchesDirect) {
  Schema schema({{"x", DataType::kDouble}, {"y", DataType::kDouble}});
  Table table(schema);
  Rng rng(17);
  for (int i = 0; i < 100; ++i) {
    double x = rng.UniformDouble(0, 10);
    ASSERT_TRUE(
        table.AppendRow({Value(x), Value(2.0 * x + rng.Normal(0, 1))}).ok());
  }
  RegressionLoss loss("x", "y");
  std::vector<RowId> sample_rows{1, 7, 20, 55, 80};
  DatasetView ref(&table, sample_rows);
  auto bound = loss.Bind(table, ref);
  ASSERT_TRUE(bound.ok());
  LossState state;
  for (RowId r = 0; r < 100; ++r) bound.value()->Accumulate(&state, r);
  DatasetView raw(&table);
  EXPECT_NEAR(bound.value()->Finalize(state), loss.Loss(raw, ref).value(),
              1e-9);
}

TEST(RegressionLossTest, GreedyEvaluatorConsistent) {
  Schema schema({{"x", DataType::kDouble}, {"y", DataType::kDouble}});
  Table table(schema);
  for (double x : {0.0, 1.0, 2.0, 3.0, 4.0}) {
    ASSERT_TRUE(table.AppendRow({Value(x), Value(3.0 * x)}).ok());
  }
  RegressionLoss loss("x", "y");
  DatasetView raw(&table);
  auto eval = loss.MakeGreedyEvaluator(raw);
  ASSERT_TRUE(eval.ok());
  // LossWithCandidate must equal direct Loss of that single-tuple sample.
  for (size_t c = 0; c < 5; ++c) {
    DatasetView single(&table, {static_cast<RowId>(c)});
    EXPECT_NEAR(eval.value()->LossWithCandidate(c),
                loss.Loss(raw, single).value(), 1e-9);
  }
}

// ---------- Signatures ----------

TEST(SignatureTest, MeanSignatureIsAverage) {
  auto table = PointsTable({{0, 0}, {0, 0}}, {10.0, 30.0});
  MeanLoss loss("v");
  auto sig = loss.Signature(DatasetView(table.get()));
  ASSERT_EQ(sig.size(), 1u);
  EXPECT_DOUBLE_EQ(sig[0], 20.0);
}

TEST(SignatureTest, HeatmapSignatureIsCentroid) {
  auto table = PointsTable({{0, 0}, {1, 1}});
  auto loss = MakeHeatmapLoss("x", "y");
  auto sig = loss->Signature(DatasetView(table.get()));
  ASSERT_EQ(sig.size(), 2u);
  EXPECT_DOUBLE_EQ(sig[0], 0.5);
  EXPECT_DOUBLE_EQ(sig[1], 0.5);
}

}  // namespace
}  // namespace tabula
