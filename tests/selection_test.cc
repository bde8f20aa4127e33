#include <gtest/gtest.h>

#include "common/rng.h"
#include "cube/dry_run.h"
#include "cube/real_run.h"
#include "data/taxi_gen.h"
#include "loss/loss_registry.h"
#include "loss/mean_loss.h"
#include "sampling/random_sampler.h"
#include "selection/rep_selection.h"
#include "selection/samgraph.h"
#include "storage/table.h"

namespace tabula {
namespace {

/// Table with several groups whose distributions come in two families, so
/// samples are highly reusable across iceberg cells.
std::unique_ptr<Table> FamiliesTable(size_t n = 6000, uint64_t seed = 13) {
  Schema schema({{"g1", DataType::kCategorical},
                 {"g2", DataType::kCategorical},
                 {"v", DataType::kDouble}});
  auto table = std::make_unique<Table>(schema);
  Rng rng(seed);
  const char* g1s[] = {"a", "b", "c", "d"};
  const char* g2s[] = {"p", "q", "r"};
  for (size_t i = 0; i < n; ++i) {
    const char* g1 = g1s[rng.UniformInt(0, 3)];
    const char* g2 = g2s[rng.UniformInt(0, 2)];
    // Family 1 (a, b): mean 200. Family 2 (c, d): mean 800.
    double base = (g1[0] == 'a' || g1[0] == 'b') ? 200.0 : 800.0;
    EXPECT_TRUE(
        table->AppendRow({Value(g1), Value(g2), Value(rng.Normal(base, 4.0))})
            .ok());
  }
  return table;
}

struct SelFixture {
  std::unique_ptr<Table> table;
  KeyEncoder encoder;
  KeyPacker packer;
  Lattice lattice{2};
  std::vector<RowId> global_rows;
  CubeTable cube;
  double theta = 0.05;
  MeanLoss loss{"v"};

  SelFixture() : table(FamiliesTable()) {
    auto enc = KeyEncoder::Make(*table, {"g1", "g2"});
    EXPECT_TRUE(enc.ok());
    encoder = std::move(enc).value();
    auto pk = KeyPacker::Make(encoder, {0, 1});
    EXPECT_TRUE(pk.ok());
    packer = std::move(pk).value();
    Rng rng(1);
    DatasetView all(table.get());
    global_rows = RandomSample(all, 400, &rng);

    auto dry = RunDryRun(*table, encoder, packer, lattice, loss,
                         DatasetView(table.get(), global_rows), theta);
    EXPECT_TRUE(dry.ok());
    GreedySamplerOptions opts;
    auto real = RunRealRun(*table, encoder, packer, lattice, *dry, loss,
                           theta, opts);
    EXPECT_TRUE(real.ok());
    cube = std::move(real->cube);
    EXPECT_GT(cube.size(), 2u);
  }
};

TEST(SamGraphTest, SelfEdgesAlwaysPresent) {
  SelFixture fx;
  SamGraphOptions opts;
  auto graph = SamGraph::Build(*fx.table, fx.cube, fx.loss, fx.theta, opts);
  ASSERT_TRUE(graph.ok());
  for (uint32_t v = 0; v < graph->num_vertices(); ++v) {
    const auto& in = graph->InEdges(v);
    EXPECT_NE(std::find(in.begin(), in.end(), v), in.end());
  }
}

TEST(SamGraphTest, EdgesRespectRepresentationDefinition) {
  SelFixture fx;
  SamGraphOptions opts;
  auto graph = SamGraph::Build(*fx.table, fx.cube, fx.loss, fx.theta, opts);
  ASSERT_TRUE(graph.ok());
  // Definition 5: edge u→v iff loss(raw(v), sample(u)) <= θ.
  for (uint32_t u = 0; u < graph->num_vertices(); ++u) {
    DatasetView sam_u(fx.table.get(), fx.cube.cells()[u].local_sample);
    for (uint32_t v : graph->OutEdges(u)) {
      DatasetView raw_v(fx.table.get(), fx.cube.cells()[v].raw_rows);
      EXPECT_LE(fx.loss.Loss(raw_v, sam_u).value(), fx.theta)
          << "edge " << u << "->" << v;
    }
  }
}

TEST(SamGraphTest, FamiliesShareRepresentatives) {
  SelFixture fx;
  SamGraphOptions opts;
  auto graph = SamGraph::Build(*fx.table, fx.cube, fx.loss, fx.theta, opts);
  ASSERT_TRUE(graph.ok());
  // Cells within the same value family have near-identical distributions,
  // so cross-cell edges must exist.
  EXPECT_GT(graph->num_edges(), graph->num_vertices());
}

TEST(SamGraphTest, CandidateCapBoundsEvaluations) {
  SelFixture fx;
  SamGraphOptions capped;
  capped.max_candidates_per_vertex = 2;
  auto graph = SamGraph::Build(*fx.table, fx.cube, fx.loss, fx.theta, capped);
  ASSERT_TRUE(graph.ok());
  EXPECT_LE(graph->loss_evaluations(), fx.cube.size() * 2);
}

/// A pre-selection cube over a taxi table under `loss`, as the real run
/// leaves it: every cell keeps its raw rows and its local sample.
CubeTable TaxiCube(const Table& table, const LossFunction& loss,
                   double theta) {
  const std::vector<std::string> attrs = {"vendor_name", "pickup_weekday",
                                          "payment_type"};
  auto encoder = KeyEncoder::Make(table, attrs);
  EXPECT_TRUE(encoder.ok());
  auto packer = KeyPacker::Make(encoder.value(), {0, 1, 2});
  EXPECT_TRUE(packer.ok());
  Lattice lattice(attrs.size());
  Rng rng(3);
  DatasetView global(&table, RandomSample(DatasetView(&table), 300, &rng));
  auto dry = RunDryRun(table, encoder.value(), packer.value(), lattice, loss,
                       global, theta);
  EXPECT_TRUE(dry.ok());
  auto real = RunRealRun(table, encoder.value(), packer.value(), lattice,
                         dry.value(), loss, theta, GreedySamplerOptions{});
  EXPECT_TRUE(real.ok());
  return std::move(real->cube);
}

struct LossCase {
  const char* name;
  std::vector<std::string> columns;
  /// A θ at which TaxiCube's cells have edges that pass and edges that
  /// fail.
  double theta;
};

const LossCase kLossCases[] = {
    {"heatmap_loss", {"pickup_x", "pickup_y"}, 0.006},
    {"histogram_loss", {"fare_amount"}, 0.05},
    {"mean_loss", {"fare_amount"}, 0.01},
    {"regression_loss", {"fare_amount", "tip_amount"}, 0.5},
};

TEST(SamGraphTest, ExhaustiveJoinFindsEveryRepresentationEdge) {
  // With no candidate cap SamGraph tests every ordered pair, so its
  // edges must be exactly the pairs within θ (Definition 5): an early
  // exit in the edge test may only skip pairs that fail.
  TaxiGeneratorOptions gen;
  gen.num_rows = 3000;
  gen.seed = 5;
  auto table = TaxiGenerator(gen).Generate();
  for (const LossCase& c : kLossCases) {
    SCOPED_TRACE(c.name);
    auto loss = MakeLossFunction(c.name, {.columns = c.columns});
    ASSERT_TRUE(loss.ok());
    CubeTable cube = TaxiCube(*table, *loss.value(), c.theta);
    ASSERT_GT(cube.size(), 4u);
    SamGraphOptions exhaustive;
    exhaustive.max_candidates_per_vertex = 0;
    auto graph = SamGraph::Build(*table, cube, *loss.value(), c.theta,
                                 exhaustive);
    ASSERT_TRUE(graph.ok());
    const size_t m = cube.size();
    EXPECT_EQ(graph->loss_evaluations(), m * (m - 1));
    size_t within = 0;
    for (uint32_t u = 0; u < m; ++u) {
      DatasetView sam_u(table.get(), cube.cells()[u].local_sample);
      const auto& out = graph->OutEdges(u);
      for (uint32_t v = 0; v < m; ++v) {
        if (v == u) continue;
        DatasetView raw_v(table.get(), cube.cells()[v].raw_rows);
        bool is_within = loss.value()->Loss(raw_v, sam_u).value() <= c.theta;
        within += is_within;
        EXPECT_EQ(std::find(out.begin(), out.end(), v) != out.end(),
                  is_within)
            << "pair " << u << "->" << v;
      }
    }
    // The case is only a test when both outcomes occur.
    EXPECT_GT(within, 0u);
    EXPECT_LT(within, m * (m - 1));
  }
}

TEST(SamGraphTest, PrefixLowerBoundNeverExceedsFinalLoss) {
  TaxiGeneratorOptions gen;
  gen.num_rows = 2000;
  gen.seed = 8;
  auto table = TaxiGenerator(gen).Generate();
  DatasetView all(table.get());
  Rng rng(21);
  for (const LossCase& c : kLossCases) {
    SCOPED_TRACE(c.name);
    auto loss = MakeLossFunction(c.name, {.columns = c.columns});
    ASSERT_TRUE(loss.ok());
    // An empty reference makes the min-distance losses infinite.
    for (size_t ref_size : {size_t{0}, size_t{1}, size_t{40}}) {
      auto bound = loss.value()->Bind(
          *table, DatasetView(table.get(), RandomSample(all, ref_size, &rng)));
      ASSERT_TRUE(bound.ok());
      for (size_t cell_size : {size_t{0}, size_t{1}, size_t{17}, size_t{300}}) {
        std::vector<RowId> rows = RandomSample(all, cell_size, &rng);
        LossState full;
        for (RowId r : rows) bound.value()->Accumulate(&full, r);
        const double final_loss = bound.value()->Finalize(full);
        for (int trial = 0; trial < 8; ++trial) {
          size_t k = static_cast<size_t>(
              rng.UniformInt(0, static_cast<int64_t>(rows.size())));
          LossState prefix;
          for (size_t i = 0; i < k; ++i) {
            bound.value()->Accumulate(&prefix, rows[i]);
          }
          EXPECT_LE(bound.value()->FinalLossLowerBound(prefix, rows.size()),
                    final_loss)
              << "ref " << ref_size << " cell " << cell_size << " prefix "
              << k;
        }
      }
    }
  }
}

TEST(RepSelectionTest, EveryCellLinksToAValidSample) {
  SelFixture fx;
  SampleTable samples;
  SelectionOptions opts;
  auto sel = SelectRepresentativeSamples(*fx.table, fx.loss, fx.theta, opts,
                                         &fx.cube, &samples);
  ASSERT_TRUE(sel.ok());
  EXPECT_GT(samples.size(), 0u);
  EXPECT_LE(samples.size(), fx.cube.size());
  for (const auto& cell : fx.cube.cells()) {
    ASSERT_NE(cell.sample_id, kInvalidSampleId);
    ASSERT_LT(cell.sample_id, samples.size());
  }
}

TEST(RepSelectionTest, RepresentativesFewerThanCellsWhenSimilar) {
  SelFixture fx;
  SampleTable samples;
  SelectionOptions opts;
  auto sel = SelectRepresentativeSamples(*fx.table, fx.loss, fx.theta, opts,
                                         &fx.cube, &samples);
  ASSERT_TRUE(sel.ok());
  // Two distribution families → far fewer representatives than cells.
  EXPECT_LT(sel->representatives, fx.cube.size());
  EXPECT_GT(sel->cells_sharing, 0u);
}

TEST(RepSelectionTest, BoundedErrorGuaranteeHolds) {
  // THE paper's core guarantee: after selection, the sample linked to any
  // iceberg cell is within θ of that cell's raw data.
  SelFixture fx;
  // Keep raw rows to verify after normalization drops them.
  std::vector<std::vector<RowId>> raw_copy;
  for (const auto& cell : fx.cube.cells()) raw_copy.push_back(cell.raw_rows);

  SampleTable samples;
  SelectionOptions opts;
  auto sel = SelectRepresentativeSamples(*fx.table, fx.loss, fx.theta, opts,
                                         &fx.cube, &samples);
  ASSERT_TRUE(sel.ok());
  for (size_t i = 0; i < fx.cube.size(); ++i) {
    const auto& cell = fx.cube.cells()[i];
    DatasetView raw(fx.table.get(), raw_copy[i]);
    DatasetView sample(fx.table.get(), samples.sample(cell.sample_id));
    EXPECT_LE(fx.loss.Loss(raw, sample).value(), fx.theta) << "cell " << i;
  }
}

TEST(RepSelectionTest, NormalizationDropsRawData) {
  SelFixture fx;
  SampleTable samples;
  SelectionOptions opts;
  ASSERT_TRUE(SelectRepresentativeSamples(*fx.table, fx.loss, fx.theta, opts,
                                          &fx.cube, &samples)
                  .ok());
  EXPECT_EQ(fx.cube.RawDataBytes(), 0u);
}

TEST(RepSelectionTest, PersistAllIsTabulaStar) {
  SelFixture fx;
  size_t cells = fx.cube.size();
  SampleTable samples;
  auto sel = PersistAllSamples(&fx.cube, &samples);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(samples.size(), cells);
  for (const auto& cell : fx.cube.cells()) {
    EXPECT_NE(cell.sample_id, kInvalidSampleId);
  }
}

TEST(RepSelectionTest, SelectionSmallerThanPersistAll) {
  SelFixture fx1;
  SampleTable with_sel;
  SelectionOptions opts;
  ASSERT_TRUE(SelectRepresentativeSamples(*fx1.table, fx1.loss, fx1.theta,
                                          opts, &fx1.cube, &with_sel)
                  .ok());
  SelFixture fx2;
  SampleTable without_sel;
  ASSERT_TRUE(PersistAllSamples(&fx2.cube, &without_sel).ok());
  EXPECT_LT(with_sel.TotalTuples(), without_sel.TotalTuples());
}

TEST(RepSelectionTest, EmptyCubeIsFine) {
  SelFixture fx;
  CubeTable empty;
  SampleTable samples;
  SelectionOptions opts;
  auto sel = SelectRepresentativeSamples(*fx.table, fx.loss, fx.theta, opts,
                                         &empty, &samples);
  ASSERT_TRUE(sel.ok());
  EXPECT_EQ(sel->representatives, 0u);
}

}  // namespace
}  // namespace tabula
