#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.h"
#include "common/thread_pool.h"
#include "loss/mean_loss.h"
#include "loss/min_dist_loss.h"
#include "sampling/greedy_sampler.h"
#include "sampling/random_sampler.h"
#include "sampling/stratified_sampler.h"
#include "sampling/theta_restore.h"
#include "storage/table.h"

namespace tabula {
namespace {

std::unique_ptr<Table> NumericTable(size_t n, uint64_t seed = 1) {
  Schema schema({{"g", DataType::kCategorical},
                 {"x", DataType::kDouble},
                 {"y", DataType::kDouble},
                 {"v", DataType::kDouble}});
  auto table = std::make_unique<Table>(schema);
  Rng rng(seed);
  const char* groups[] = {"a", "b", "c"};
  for (size_t i = 0; i < n; ++i) {
    const char* g = groups[rng.Discrete({0.8, 0.15, 0.05})];
    EXPECT_TRUE(table
                    ->AppendRow({Value(g), Value(rng.UniformDouble(0, 1)),
                                 Value(rng.UniformDouble(0, 1)),
                                 Value(rng.Normal(50, 10))})
                    .ok());
  }
  return table;
}

TEST(RandomSamplerTest, SampleSizeAndUniqueness) {
  auto table = NumericTable(1000);
  Rng rng(2);
  DatasetView all(table.get());
  auto sample = RandomSample(all, 100, &rng);
  EXPECT_EQ(sample.size(), 100u);
  std::set<RowId> unique(sample.begin(), sample.end());
  EXPECT_EQ(unique.size(), 100u);
}

TEST(RandomSamplerTest, OversampleReturnsAll) {
  auto table = NumericTable(10);
  Rng rng(2);
  DatasetView all(table.get());
  EXPECT_EQ(RandomSample(all, 50, &rng).size(), 10u);
}

TEST(RandomSamplerTest, SampleFromSubsetView) {
  auto table = NumericTable(100);
  Rng rng(2);
  std::vector<RowId> subset{5, 10, 15, 20, 25};
  DatasetView view(table.get(), subset);
  auto sample = RandomSample(view, 3, &rng);
  EXPECT_EQ(sample.size(), 3u);
  for (RowId r : sample) {
    EXPECT_TRUE(std::find(subset.begin(), subset.end(), r) != subset.end());
  }
}

TEST(SerflingTest, PaperDefaultsGiveAboutAThousand) {
  // ε=0.05, δ=0.01 → k ≈ ln(200)/0.005 ≈ 1060 ("around 1000 tuples").
  size_t k = SerflingSampleSize();
  EXPECT_GE(k, 1000u);
  EXPECT_LE(k, 1100u);
}

TEST(SerflingTest, TighterErrorNeedsMoreSamples) {
  EXPECT_GT(SerflingSampleSize(0.01, 0.01), SerflingSampleSize(0.05, 0.01));
  EXPECT_GT(SerflingSampleSize(0.05, 0.001), SerflingSampleSize(0.05, 0.01));
}

TEST(SerflingTest, DegenerateParamsAreSafe) {
  EXPECT_EQ(SerflingSampleSize(0.0, 0.01), 1u);
  EXPECT_EQ(SerflingSampleSize(0.05, 0.0), 1u);
}

// ---------- GreedySampler (Algorithm 1) ----------

TEST(GreedySamplerTest, MeetsThresholdMeanLoss) {
  auto table = NumericTable(2000);
  MeanLoss loss("v");
  GreedySampler sampler(&loss, 0.01);
  DatasetView raw(table.get());
  auto sample = sampler.Sample(raw);
  ASSERT_TRUE(sample.ok());
  EXPECT_FALSE(sample.value().empty());
  DatasetView sample_view(table.get(), sample.value());
  EXPECT_LE(loss.Loss(raw, sample_view).value(), 0.01);
}

TEST(GreedySamplerTest, MeetsThresholdHeatmapLoss) {
  auto table = NumericTable(1500);
  auto loss = MakeHeatmapLoss("x", "y");
  GreedySampler sampler(loss.get(), 0.05);
  DatasetView raw(table.get());
  auto sample = sampler.Sample(raw);
  ASSERT_TRUE(sample.ok());
  DatasetView sample_view(table.get(), sample.value());
  EXPECT_LE(loss->Loss(raw, sample_view).value(), 0.05);
  // A 5% average-min-distance budget over [0,1]² needs far fewer points
  // than the raw data.
  EXPECT_LT(sample->size(), 200u);
}

TEST(GreedySamplerTest, LazyForwardMatchesExhaustiveQuality) {
  auto table = NumericTable(400, 9);
  auto loss = MakeHeatmapLoss("x", "y");
  DatasetView raw(table.get());

  GreedySamplerOptions lazy_opts;
  lazy_opts.lazy_forward = true;
  lazy_opts.max_candidates = 0;
  GreedySampler lazy(loss.get(), 0.03, lazy_opts);
  auto lazy_sample = lazy.Sample(raw);
  ASSERT_TRUE(lazy_sample.ok());

  GreedySamplerOptions plain_opts;
  plain_opts.lazy_forward = false;
  plain_opts.max_candidates = 0;
  GreedySampler plain(loss.get(), 0.03, plain_opts);
  auto plain_sample = plain.Sample(raw);
  ASSERT_TRUE(plain_sample.ok());

  // Both meet the bound; lazy-forward must not inflate the sample much
  // (it is exact for submodular gains — sizes should match).
  EXPECT_EQ(lazy_sample->size(), plain_sample->size());
}

TEST(GreedySamplerTest, LazyForwardDoesFewerEvaluations) {
  auto table = NumericTable(600, 12);
  auto loss = MakeHeatmapLoss("x", "y");
  DatasetView raw(table.get());

  GreedySamplerOptions lazy_opts;
  lazy_opts.lazy_forward = true;
  lazy_opts.max_candidates = 0;
  GreedySamplerStats lazy_stats;
  GreedySampler lazy(loss.get(), 0.02, lazy_opts);
  ASSERT_TRUE(lazy.Sample(raw, &lazy_stats).ok());

  GreedySamplerOptions plain_opts;
  plain_opts.lazy_forward = false;
  plain_opts.max_candidates = 0;
  GreedySamplerStats plain_stats;
  GreedySampler plain(loss.get(), 0.02, plain_opts);
  ASSERT_TRUE(plain.Sample(raw, &plain_stats).ok());

  EXPECT_LT(lazy_stats.loss_evaluations, plain_stats.loss_evaluations);
}

TEST(GreedySamplerTest, CandidateCapStillGuarantees) {
  auto table = NumericTable(3000, 21);
  auto loss = MakeHeatmapLoss("x", "y");
  GreedySamplerOptions opts;
  opts.max_candidates = 64;
  GreedySamplerStats stats;
  GreedySampler sampler(loss.get(), 0.04, opts);
  DatasetView raw(table.get());
  auto sample = sampler.Sample(raw, &stats);
  ASSERT_TRUE(sample.ok());
  DatasetView sample_view(table.get(), sample.value());
  EXPECT_LE(loss->Loss(raw, sample_view).value(), 0.04);
}

TEST(GreedySamplerTest, EmptyInputGivesEmptySample) {
  auto table = NumericTable(10);
  MeanLoss loss("v");
  GreedySampler sampler(&loss, 0.1);
  DatasetView empty(table.get(), {});
  auto sample = sampler.Sample(empty);
  ASSERT_TRUE(sample.ok());
  EXPECT_TRUE(sample->empty());
}

TEST(GreedySamplerTest, SingleTupleCell) {
  auto table = NumericTable(1);
  MeanLoss loss("v");
  GreedySampler sampler(&loss, 0.001);
  DatasetView raw(table.get());
  auto sample = sampler.Sample(raw);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->size(), 1u);
}

TEST(GreedySamplerTest, TinyThresholdStillTerminates) {
  auto table = NumericTable(200, 4);
  auto loss = MakeHeatmapLoss("x", "y");
  GreedySampler sampler(loss.get(), 1e-9);
  DatasetView raw(table.get());
  auto sample = sampler.Sample(raw);
  ASSERT_TRUE(sample.ok());
  DatasetView sample_view(table.get(), sample.value());
  EXPECT_LE(loss->Loss(raw, sample_view).value(), 1e-9);
}

TEST(GreedySamplerTest, MaxSampleSizeCapsGrowth) {
  auto table = NumericTable(500, 8);
  auto loss = MakeHeatmapLoss("x", "y");
  GreedySamplerOptions opts;
  opts.max_sample_size = 5;
  GreedySampler sampler(loss.get(), 1e-6, opts);
  DatasetView raw(table.get());
  auto sample = sampler.Sample(raw);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->size(), 5u);
}

TEST(GreedySamplerTest, TiedLossesPickSameSampleAtAnyThreadCount) {
  // Regression: ExhaustiveBest used to break exact-loss ties by whichever
  // chunk reported first, so the chosen candidate — and every later round
  // built on it — depended on the thread count. With only 4 distinct
  // values repeated 100× each, nearly every round is a massive tie.
  Schema schema({{"v", DataType::kDouble}});
  auto table = std::make_unique<Table>(schema);
  for (size_t i = 0; i < 400; ++i) {
    ASSERT_TRUE(
        table->AppendRow({Value(static_cast<double>(i % 4) * 10.0)}).ok());
  }
  MeanLoss loss("v");
  DatasetView raw(table.get());

  auto run = [&](size_t threads) {
    ThreadPool pool(threads);
    ThreadPool::SetGlobalForTest(&pool);
    GreedySamplerOptions opts;
    opts.lazy_forward = false;
    opts.max_candidates = 0;
    GreedySampler sampler(&loss, 0.5, opts);
    auto sample = sampler.Sample(raw);
    ThreadPool::SetGlobalForTest(nullptr);
    EXPECT_TRUE(sample.ok());
    return sample.value();
  };

  std::vector<RowId> single = run(1);
  std::vector<RowId> multi = run(4);
  EXPECT_FALSE(single.empty());
  EXPECT_EQ(single, multi)
      << "tie-break must be by pool position, not chunk schedule";
  // And stable across repeated runs at the same width.
  EXPECT_EQ(run(4), multi);
}

TEST(GreedySamplerTest, SampleSizeShrinksWithLooserThreshold) {
  auto table = NumericTable(800, 30);
  auto loss = MakeHeatmapLoss("x", "y");
  DatasetView raw(table.get());
  GreedySampler tight(loss.get(), 0.01);
  GreedySampler loose(loss.get(), 0.08);
  auto tight_sample = tight.Sample(raw);
  auto loose_sample = loose.Sample(raw);
  ASSERT_TRUE(tight_sample.ok());
  ASSERT_TRUE(loose_sample.ok());
  EXPECT_GT(tight_sample->size(), loose_sample->size());
}

// ---------- StratifiedSample ----------

TEST(StratifiedSamplerTest, EveryStratumRepresented) {
  auto table = NumericTable(5000, 2);
  StratifiedSamplerOptions opts;
  opts.total_budget = 300;
  opts.min_per_stratum = 10;
  auto sample = StratifiedSample::Build(*table, {"g"}, opts);
  ASSERT_TRUE(sample.ok());
  EXPECT_EQ(sample->strata().size(), 3u);  // a, b, c
  for (const auto& stratum : sample->strata()) {
    EXPECT_GE(stratum.rows.size(), std::min<size_t>(10, stratum.population));
    EXPECT_GT(stratum.population, 0u);
  }
}

TEST(StratifiedSamplerTest, RareStratumGetsFloor) {
  auto table = NumericTable(10000, 3);
  StratifiedSamplerOptions opts;
  opts.total_budget = 100;
  opts.min_per_stratum = 25;
  auto sample = StratifiedSample::Build(*table, {"g"}, opts);
  ASSERT_TRUE(sample.ok());
  // Stratum "c" (~5%) would get ~5 proportionally; the floor lifts it.
  for (const auto& stratum : sample->strata()) {
    EXPECT_GE(stratum.rows.size(),
              std::min<size_t>(opts.min_per_stratum, stratum.population));
  }
}

TEST(StratifiedSamplerTest, FindByKey) {
  auto table = NumericTable(1000, 4);
  StratifiedSamplerOptions opts;
  auto sample = StratifiedSample::Build(*table, {"g"}, opts);
  ASSERT_TRUE(sample.ok());
  const Stratum& s0 = sample->strata()[0];
  const Stratum* found = sample->Find(s0.key);
  ASSERT_NE(found, nullptr);
  EXPECT_EQ(found->population, s0.population);
  EXPECT_EQ(sample->Find(0xDEADBEEFull), nullptr);
}

// ---------------------------------------------------------------------
// RestoreTheta: the ladder's decisions and how lazily it reads raw rows.
// ---------------------------------------------------------------------

/// Delegates to `inner`, counting the calls the ladder's cost argument
/// is about: binds of a candidate and direct loss evaluations.
class CountingLoss final : public LossFunction {
 public:
  explicit CountingLoss(const LossFunction* inner) : inner_(inner) {}
  std::string name() const override { return inner_->name(); }
  Result<std::unique_ptr<BoundLoss>> Bind(
      const Table& table, const DatasetView& ref) const override {
    ++binds;
    return inner_->Bind(table, ref);
  }
  Result<double> Loss(const DatasetView& raw,
                      const DatasetView& sample) const override {
    ++loss_evals;
    return inner_->Loss(raw, sample);
  }
  Result<std::unique_ptr<GreedyLossEvaluator>> MakeGreedyEvaluator(
      const DatasetView& raw) const override {
    return inner_->MakeGreedyEvaluator(raw);
  }
  bool SubmodularGain() const override { return inner_->SubmodularGain(); }
  bool UnionClosed() const override { return inner_->UnionClosed(); }
  bool StateDependsOnReference() const override {
    return inner_->StateDependsOnReference();
  }
  std::vector<std::string> InputColumns() const override {
    return inner_->InputColumns();
  }

  mutable int binds = 0;
  mutable int loss_evals = 0;

 private:
  const LossFunction* inner_;
};

constexpr uint64_t kBuildSeed = 77;

/// Rows of `table` split into three disjoint slices (ascending each),
/// plus everything a caller of RestoreTheta holds for their union.
struct ThetaFixture {
  std::unique_ptr<Table> table;
  std::unique_ptr<LossFunction> inner;
  std::unique_ptr<CountingLoss> loss;
  ThetaContext ctx;
  std::vector<std::vector<RowId>> slices;
  std::vector<RowId> all_rows;  ///< ascending
  LossState state;              ///< folded over all_rows
  int gathers = 0;

  ThetaFixture(std::unique_ptr<LossFunction> loss_fn, double theta,
               bool split_by_x) {
    table = NumericTable(900, 5);
    inner = std::move(loss_fn);
    loss = std::make_unique<CountingLoss>(inner.get());
    ctx.table = table.get();
    ctx.loss = loss.get();
    ctx.threshold = theta;
    ctx.sampler.seed = kBuildSeed;
    ctx.ref = DatasetView(table.get(), std::vector<RowId>{0, 1, 2, 3});
    const DoubleColumn* x =
        table->ColumnByName("x").value()->As<DoubleColumn>();
    slices.resize(3);
    for (RowId r = 0; r < table->num_rows(); ++r) {
      size_t s = split_by_x ? std::min<size_t>(2, x->At(r) * 3) : r % 3;
      slices[s].push_back(r);
      all_rows.push_back(r);
    }
    auto bound = inner->Bind(*table, ctx.ref);
    EXPECT_TRUE(bound.ok());
    for (RowId r : all_rows) bound.value()->Accumulate(&state, r);
  }

  /// Slice `s`'s own θ-valid piece, drawn like a build would.
  std::vector<RowId> Piece(size_t s) const {
    auto piece = Redraw(ctx, DatasetView(table.get(), slices[s]));
    EXPECT_TRUE(piece.ok());
    return piece.value();
  }

  RawRowSource Gather() {
    return [this]() -> Result<std::vector<RowId>> {
      ++gathers;
      return all_rows;
    };
  }

  /// What every re-draw must equal: Algorithm 1 with the build seed
  /// over the ascending raw rows.
  std::vector<RowId> ExpectedRedraw() const {
    GreedySamplerOptions opts;
    opts.seed = kBuildSeed;
    auto want = GreedySampler(inner.get(), ctx.threshold, opts)
                    .Sample(DatasetView(table.get(), all_rows));
    EXPECT_TRUE(want.ok());
    return want.value();
  }

  void ResetCounts() {
    gathers = 0;
    loss->binds = 0;
    loss->loss_evals = 0;
  }
};

TEST(RestoreThetaTest, ExactCandidateNeedsNoGatherAndNoBind) {
  ThetaFixture f(std::make_unique<MeanLoss>("v"), 0.01, false);
  std::vector<RowId> candidate;
  for (const auto& slice : f.slices) {
    candidate.insert(candidate.end(), slice.begin(), slice.end());
  }
  const std::vector<RowId> want = candidate;
  f.ResetCounts();
  auto got = RestoreTheta(
      f.ctx, {candidate, &f.state, f.all_rows.size()}, f.Gather());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->exact);
  EXPECT_FALSE(got->redrawn);
  EXPECT_EQ(got->sample, want);
  EXPECT_EQ(f.gathers, 0);
  EXPECT_EQ(f.loss->binds, 0);
  EXPECT_EQ(f.loss->loss_evals, 0);
}

TEST(RestoreThetaTest, UnionClosedPiecesAreAcceptedWithoutGather) {
  ThetaFixture f(MakeHeatmapLoss("x", "y"), 0.05, false);
  std::vector<RowId> candidate;
  for (size_t s = 0; s < f.slices.size(); ++s) {
    std::vector<RowId> piece = f.Piece(s);
    candidate.insert(candidate.end(), piece.begin(), piece.end());
  }
  ASSERT_LT(candidate.size(), f.all_rows.size());
  const std::vector<RowId> want = candidate;
  f.ResetCounts();
  auto got = RestoreTheta(
      f.ctx, {candidate, &f.state, f.all_rows.size()}, f.Gather());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_FALSE(got->exact);
  EXPECT_FALSE(got->redrawn);
  EXPECT_EQ(got->sample, want);
  EXPECT_EQ(f.gathers, 0);
  EXPECT_EQ(f.loss->binds, 0);
  EXPECT_EQ(f.loss->loss_evals, 0);
}

TEST(RestoreThetaTest, ReferenceFreeStateDecidesAndGathersOnlyToRedraw) {
  ThetaFixture f(std::make_unique<MeanLoss>("v"), 0.01, false);
  ASSERT_FALSE(f.loss->UnionClosed());
  ASSERT_FALSE(f.loss->StateDependsOnReference());

  // A candidate within θ of the union: the merged state accepts it.
  std::vector<RowId> good = f.ExpectedRedraw();
  f.ResetCounts();
  auto kept = RestoreTheta(f.ctx, {good, &f.state, f.all_rows.size()},
                           f.Gather());
  ASSERT_TRUE(kept.ok()) << kept.status().ToString();
  EXPECT_FALSE(kept->redrawn);
  EXPECT_EQ(kept->sample, good);
  EXPECT_EQ(f.gathers, 0);
  EXPECT_EQ(f.loss->binds, 1);
  EXPECT_EQ(f.loss->loss_evals, 0);

  // The five rows with the largest values: far off the union's mean, so
  // the check fails and the ladder gathers once to re-draw.
  std::vector<RowId> biased = f.all_rows;
  const DoubleColumn* v = f.table->ColumnByName("v").value()->As<DoubleColumn>();
  std::sort(biased.begin(), biased.end(),
            [&](RowId a, RowId b) { return v->At(a) > v->At(b); });
  biased.resize(5);
  f.ResetCounts();
  auto redrawn = RestoreTheta(f.ctx, {biased, &f.state, f.all_rows.size()},
                              f.Gather());
  ASSERT_TRUE(redrawn.ok()) << redrawn.status().ToString();
  EXPECT_TRUE(redrawn->redrawn);
  EXPECT_EQ(redrawn->sample, f.ExpectedRedraw());
  EXPECT_EQ(f.gathers, 1);
  EXPECT_EQ(f.loss->loss_evals, 0);
}

TEST(RestoreThetaTest, ReferenceDependentCheckGathersOnceAndRedrawReusesRows) {
  // Slices split by x, and only the left slice offers a piece — what a
  // grown finest cell offers: its old sample, nothing for the new rows.
  ThetaFixture f(MakeHeatmapLoss("x", "y"), 0.05, /*split_by_x=*/true);
  ASSERT_TRUE(f.loss->StateDependsOnReference());
  std::vector<RowId> stale = f.Piece(0);
  f.ResetCounts();
  auto got = RestoreTheta(f.ctx,
                          {stale, &f.state, f.all_rows.size(),
                           /*pieces_valid=*/false},
                          f.Gather());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->redrawn);
  EXPECT_EQ(got->sample, f.ExpectedRedraw());
  EXPECT_EQ(f.gathers, 1);
  EXPECT_EQ(f.loss->loss_evals, 1);
  EXPECT_EQ(f.loss->binds, 0);
}

TEST(RestoreThetaTest, CandidateAboveThinCapIsRedrawnEvenWhenAccepted) {
  ThetaFixture f(MakeHeatmapLoss("x", "y"), 0.05, false);
  std::vector<RowId> candidate;
  for (size_t s = 0; s < f.slices.size(); ++s) {
    std::vector<RowId> piece = f.Piece(s);
    candidate.insert(candidate.end(), piece.begin(), piece.end());
  }
  const size_t cap = candidate.size() - 1;
  f.ResetCounts();
  auto got = RestoreTheta(f.ctx,
                          {candidate, &f.state, f.all_rows.size(),
                           /*pieces_valid=*/true, cap},
                          f.Gather());
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_TRUE(got->redrawn);
  EXPECT_EQ(got->sample, f.ExpectedRedraw());
  EXPECT_LT(got->sample.size(), candidate.size());
  EXPECT_EQ(f.gathers, 1);
  EXPECT_EQ(f.loss->loss_evals, 0);

  // At the cap itself the accepted union stands.
  f.ResetCounts();
  auto kept = RestoreTheta(f.ctx,
                           {candidate, &f.state, f.all_rows.size(),
                            /*pieces_valid=*/true, candidate.size()},
                           f.Gather());
  ASSERT_TRUE(kept.ok());
  EXPECT_FALSE(kept->redrawn);
  EXPECT_EQ(f.gathers, 0);
}

// ---------------------------------------------------------------------
// Determinism pins: Algorithm 1's samples under the min-distance losses.
// The min-distance evaluator skips work that cannot change a gain; these
// digests pin that every chosen row, in order, stays what the plain
// neighbourhood walk chose. They run at any TABULA_THREADS and with
// TABULA_NO_SIMD=1, and must give the same digests everywhere.
// ---------------------------------------------------------------------

/// FNV-1a over the chosen row ids, in sample order.
uint64_t SampleDigest(const std::vector<RowId>& rows) {
  uint64_t h = 1469598103934665603ull;
  for (RowId r : rows) {
    for (int b = 0; b < 4; ++b) {
      h ^= (static_cast<uint64_t>(r) >> (8 * b)) & 0xFF;
      h *= 1099511628211ull;
    }
  }
  return h;
}

/// Dense Gaussian blobs over a sparse uniform background, like pickups
/// in a city: blob points are covered in the first rounds while the
/// background keeps the evaluator's search radius wide.
std::unique_ptr<Table> BlobTable(size_t n, uint64_t seed) {
  Schema schema({{"x", DataType::kDouble},
                 {"y", DataType::kDouble},
                 {"v", DataType::kDouble}});
  auto table = std::make_unique<Table>(schema);
  Rng rng(seed);
  const double centers[][2] = {{0.2, 0.3}, {0.7, 0.6}, {0.45, 0.85}};
  for (size_t i = 0; i < n; ++i) {
    double x, y;
    if (rng.Bernoulli(0.2)) {
      x = rng.UniformDouble(0, 1);
      y = rng.UniformDouble(0, 1);
    } else {
      const double* c = centers[rng.UniformInt(0, 2)];
      x = rng.Normal(c[0], 0.03);
      y = rng.Normal(c[1], 0.05);
    }
    double v = rng.Bernoulli(0.9) ? rng.Normal(12, 4) : rng.Exponential(0.02);
    EXPECT_TRUE(table->AppendRow({Value(x), Value(y), Value(v)}).ok());
  }
  return table;
}

void ExpectPinnedSample(const LossFunction& loss, const Table& table,
                        double theta, const GreedySamplerOptions& opts,
                        size_t want_size, uint64_t want_digest) {
  DatasetView raw(&table);
  auto sample = GreedySampler(&loss, theta, opts).Sample(raw);
  ASSERT_TRUE(sample.ok()) << sample.status().ToString();
  DatasetView sample_view(&table, sample.value());
  EXPECT_LE(loss.Loss(raw, sample_view).value(), theta);
  EXPECT_EQ(sample->size(), want_size);
  EXPECT_EQ(SampleDigest(sample.value()), want_digest)
      << "digest 0x" << std::hex << SampleDigest(sample.value());
}

TEST(GreedySamplerDeterminismTest, HeatmapEuclideanSampleIsPinned) {
  auto table = BlobTable(5000, 101);
  auto loss = MakeHeatmapLoss("x", "y");
  ExpectPinnedSample(*loss, *table, 0.004, GreedySamplerOptions{}, 2069,
                     0xc89d607653441892ull);
}

TEST(GreedySamplerDeterminismTest, HeatmapUncappedPoolScansInParallel) {
  // 1500 rows with no candidate cap: every round-one evaluation (and
  // every exhaustive round) runs over a pool larger than the greedy's
  // serial cutoff, so LossWithCandidate runs on ParallelForChunked.
  auto table = BlobTable(1500, 102);
  auto loss = MakeHeatmapLoss("x", "y");
  GreedySamplerOptions lazy;
  lazy.max_candidates = 0;
  ExpectPinnedSample(*loss, *table, 0.006, lazy, 383, 0x50f897e6e3c152ecull);
  GreedySamplerOptions exhaustive = lazy;
  exhaustive.lazy_forward = false;
  ExpectPinnedSample(*loss, *table, 0.02, exhaustive, 88,
                     0x1faa22db25dde670ull);
}

TEST(GreedySamplerDeterminismTest, HistogramSampleIsPinned) {
  auto table = BlobTable(4000, 103);
  auto loss = MakeHistogramLoss("v");
  ExpectPinnedSample(*loss, *table, 0.05, GreedySamplerOptions{}, 1027,
                     0x8546ad841f9ccf04ull);
}

TEST(GreedySamplerDeterminismTest, HeatmapManhattanSampleIsPinned) {
  auto table = BlobTable(3000, 104);
  auto loss = MakeHeatmapLoss("x", "y", DistanceMetric::kManhattan);
  ExpectPinnedSample(*loss, *table, 0.006, GreedySamplerOptions{}, 1102,
                     0xffa8dbcf4b21d950ull);
}

}  // namespace
}  // namespace tabula
