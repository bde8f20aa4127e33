/// Budget-invariant differential suite for the tiered sample store
/// (DESIGN.md §12), run under `ctest -L store`.
///
/// The contract under test:
///  - budget unset / unbounded is a strict pass-through: cube build and
///    every served answer are byte-identical to the store-disabled
///    engine, for the plain engine (K = 1) and at K = 4;
///  - under a real budget, resident sample bytes never exceed it after
///    ANY step (build, query, refresh, ingest, load);
///  - every served answer is within θ of ground truth (direct predicate
///    scan / BuildOracleCube) or honestly flagged degraded;
///  - promote → demote → promote round-trips byte-exactly for
///    sole-owner samples: with representative-sample selection off,
///    budgeted answers are byte-identical to the pre-tiering engine at
///    any budget, in both spill mode and deterministic re-draw mode.
///    With selection ON a demoted shared slot legitimately re-promotes
///    per-cell (see PromoteLocked), so each answer must be byte-equal
///    to either the original shared bytes or the cell's deterministic
///    private re-draw — never a third sample;
///  - Save/Load round-trips tier state, files saved with the store off
///    (all-kWarm tier records) load into a store-enabled engine, and a
///    loaded engine refreshes exactly like the live one;
///  - shard units never hot-promote: a sharded promote restores exactly
///    the bytes the merge verified;
///  - spill mode with the hot tier off answers like an unbounded store
///    across ingest cycles, and a spill restore of a reference-free cell
///    evaluates no loss directly.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <filesystem>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.h"
#include "core/tabula.h"
#include "data/synthetic_gen.h"
#include "data/workload.h"
#include "exec/key_encoder.h"
#include "loss/loss_registry.h"
#include "shard/sharded_tabula.h"
#include "storage/predicate.h"
#include "testing/oracle.h"

namespace tabula {
namespace {

constexpr size_t kShardCounts[] = {1, 4};
/// Large enough that nothing ever demotes, so the store's only effect
/// is hit accounting — the byte-identity baseline with tiering ON.
constexpr uint64_t kUnbounded = 1ull << 40;
/// Keeps lazy promotes on kWarm: the hot tier re-draws at a tighter θ
/// (different bytes by design), which the dedicated hot-tier test
/// covers; the byte-identity suites pin the warm round-trip.
constexpr uint64_t kNeverHot = 1u << 30;

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

struct DiffFixture {
  std::unique_ptr<Table> table;
  std::vector<std::string> attrs;
};

/// A table whose columns depend on `seed` only; `draw` picks the rows, so
/// another draw yields rows of the same value domains to append.
DiffFixture MakeFixture(uint64_t seed, size_t rows, uint64_t draw = 11) {
  SyntheticGeneratorOptions gen;
  gen.seed = seed * 7919 + draw;
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

std::shared_ptr<const LossFunction> MakeLoss() {
  LossParams params;
  params.columns = {"value"};
  auto loss = MakeLossFunction("mean_loss", params);
  EXPECT_TRUE(loss.ok()) << loss.status().ToString();
  return std::shared_ptr<const LossFunction>(std::move(loss).value());
}

ShardedTabulaOptions MakeOptions(const DiffFixture& f, uint64_t seed,
                                 size_t k,
                                 std::shared_ptr<const LossFunction> loss,
                                 double theta, uint64_t budget,
                                 bool selection) {
  ShardedTabulaOptions o;
  o.base.cubed_attributes = f.attrs;
  o.base.owned_loss = std::move(loss);
  o.base.threshold = theta;
  o.base.seed = seed;
  o.base.enable_sample_selection = selection;
  o.base.store.budget_bytes = budget;
  o.base.store.hot_promote_hits = kNeverHot;
  o.num_shards = k;
  o.partition =
      (seed + k) % 2 == 0 ? ShardPartition::kHash : ShardPartition::kRange;
  return o;
}

/// The engine under test at `options.num_shards`: the plain Tabula at
/// K = 1 (one shard is a plain engine), a ShardedTabula otherwise —
/// built, loaded and inspected through one surface.
class Engine {
 public:
  static Result<std::unique_ptr<Engine>> Initialize(
      const Table& table, const ShardedTabulaOptions& options) {
    auto e = std::make_unique<Engine>();
    if (options.num_shards == 1) {
      TABULA_ASSIGN_OR_RETURN(e->plain_,
                              Tabula::Initialize(table, options.base));
    } else {
      TABULA_ASSIGN_OR_RETURN(e->sharded_,
                              ShardedTabula::Initialize(table, options));
    }
    return e;
  }
  static Result<std::unique_ptr<Engine>> Load(
      const Table& table, const ShardedTabulaOptions& options,
      const std::string& path) {
    auto e = std::make_unique<Engine>();
    if (options.num_shards == 1) {
      TABULA_ASSIGN_OR_RETURN(e->plain_,
                              Tabula::Load(table, options.base, path));
    } else {
      TABULA_ASSIGN_OR_RETURN(e->sharded_,
                              ShardedTabula::Load(table, options, path));
    }
    return e;
  }

  QueryEngine& engine() const {
    return plain_ != nullptr ? static_cast<QueryEngine&>(*plain_)
                             : *sharded_;
  }
  Result<QueryResponse> Query(const QueryRequest& request) const {
    return engine().Query(request);
  }
  Status Refresh(QueryEngine::RefreshStats* stats = nullptr) {
    return engine().Refresh(stats);
  }
  Status Save(const std::string& path) const { return engine().Save(path); }

  std::vector<uint64_t> MergedIcebergKeys() const {
    if (sharded_ != nullptr) return sharded_->MergedIcebergKeys();
    std::vector<uint64_t> keys;
    for (const IcebergCell& c : plain_->cube_table().cells()) {
      keys.push_back(c.key);
    }
    std::sort(keys.begin(), keys.end());
    return keys;
  }
  SampleStoreStats StoreStats() const {
    return sharded_ != nullptr ? sharded_->StoreStats()
                               : plain_->sample_store().Stats();
  }
  uint64_t StoreBytes() const {
    return sharded_ != nullptr ? sharded_->StoreBytes()
                               : plain_->sample_store().bytes();
  }

 private:
  std::unique_ptr<Tabula> plain_;
  std::unique_ptr<ShardedTabula> sharded_;
};

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
    EXPECT_TRUE(truth.empty()) << "seed=" << seed << " k=" << k;
  }
  if (truth.empty()) return;
  DatasetView truth_view(f.table.get(), std::move(truth));
  auto l = loss.Loss(truth_view, result.sample);
  ASSERT_TRUE(l.ok()) << l.status().ToString();
  EXPECT_LE(l.value(), theta * (1.0 + 1e-7) + 1e-12)
      << "seed=" << seed << " k=" << k << " query=" << q.ToString();
}

double MakeTheta(uint64_t seed) {
  Rng rng(seed * 977 + 3);
  return 0.05 + rng.UniformDouble(0.0, 0.05);
}

/// One seed's full differential: disabled vs unbounded (byte-identical),
/// then budget ∈ {50%, 10%} (θ-or-degraded + byte-budget invariant +
/// promote round-trip reproduction over two passes).
///
/// `selection` OFF makes every sample sole-owner, so budgeted answers
/// must reproduce the disabled engine's bytes exactly at any budget.
/// With it ON, a demoted shared representative re-promotes per-cell, so
/// at K = 1 each budgeted answer must byte-match either the original
/// (shared) bytes or the deterministic private re-draw — which is
/// exactly the selection-off engine's answer for that query.
void RunBudgetDiff(uint64_t seed, size_t rows, bool selection) {
  DiffFixture f = MakeFixture(seed, rows);
  const double theta = MakeTheta(seed);
  std::shared_ptr<const LossFunction> loss = MakeLoss();

  WorkloadOptions wopt;
  wopt.num_queries = 10;
  wopt.seed = seed * 101 + 7;
  auto qs = GenerateWorkload(*f.table, f.attrs, wopt);
  ASSERT_TRUE(qs.ok()) << qs.status().ToString();

  // Private re-draw oracle for the selection-ON membership check.
  std::vector<std::vector<RowId>> redraw_rows;
  if (selection) {
    auto noshare = Engine::Initialize(
        *f.table, MakeOptions(f, seed, 1, loss, theta, 0, false));
    ASSERT_TRUE(noshare.ok()) << noshare.status().ToString();
    for (const WorkloadQuery& q : qs.value()) {
      auto r = noshare.value()->Query(QueryRequest(q.where));
      ASSERT_TRUE(r.ok()) << r.status().ToString();
      redraw_rows.push_back(r.value().result.sample.ToRowIds());
    }
  }

  for (size_t k : kShardCounts) {
    auto disabled = Engine::Initialize(
        *f.table, MakeOptions(f, seed, k, loss, theta, 0, selection));
    ASSERT_TRUE(disabled.ok()) << disabled.status().ToString();
    auto unbounded = Engine::Initialize(
        *f.table, MakeOptions(f, seed, k, loss, theta, kUnbounded,
                              selection));
    ASSERT_TRUE(unbounded.ok()) << unbounded.status().ToString();

    // The store must not perturb classification.
    EXPECT_EQ(unbounded.value()->MergedIcebergKeys(),
              disabled.value()->MergedIcebergKeys())
        << "seed=" << seed << " k=" << k;
    // Nothing demoted under the unbounded budget.
    EXPECT_EQ(unbounded.value()->StoreStats().cold_samples, 0u);
    EXPECT_EQ(unbounded.value()->StoreStats().demotes, 0u);

    // Unbounded answers are byte-identical to the disabled engine's —
    // two passes, so hit accounting provably never perturbs a sample.
    std::vector<std::vector<RowId>> want_rows;
    for (int pass = 0; pass < 2; ++pass) {
      for (const WorkloadQuery& q : qs.value()) {
        auto want = disabled.value()->Query(QueryRequest(q.where));
        ASSERT_TRUE(want.ok()) << want.status().ToString();
        auto got = unbounded.value()->Query(QueryRequest(q.where));
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        const TabulaQueryResult& w = want.value().result;
        const TabulaQueryResult& g = got.value().result;
        EXPECT_FALSE(w.store_degraded);
        EXPECT_FALSE(g.store_degraded);
        EXPECT_EQ(g.from_local_sample, w.from_local_sample)
            << "seed=" << seed << " k=" << k << " query=" << q.ToString();
        EXPECT_EQ(g.empty_cell, w.empty_cell);
        EXPECT_EQ(g.sample.ToRowIds(), w.sample.ToRowIds())
            << "seed=" << seed << " k=" << k << " query=" << q.ToString();
        if (pass == 0) want_rows.push_back(w.sample.ToRowIds());
      }
    }

    const uint64_t full = unbounded.value()->StoreBytes();
    ASSERT_GT(full, 0u) << "seed=" << seed << " k=" << k;

    for (uint64_t divisor : {2u, 10u}) {
      const uint64_t budget =
          std::max<uint64_t>(full / divisor, static_cast<uint64_t>(k) + 2);
      auto budgeted = Engine::Initialize(
          *f.table,
          MakeOptions(f, seed, k, loss, theta, budget, selection));
      ASSERT_TRUE(budgeted.ok()) << budgeted.status().ToString();
      Engine& engine = *budgeted.value();

      // Build step already honors the budget.
      EXPECT_LE(engine.StoreBytes(), budget)
          << "seed=" << seed << " k=" << k << " divisor=" << divisor;
      // Classification is budget-independent (only residency changes).
      EXPECT_EQ(engine.MergedIcebergKeys(),
                disabled.value()->MergedIcebergKeys());

      // Two passes: pass 1 promotes cold cells (and demotes victims);
      // pass 2 re-promotes cells evicted by pass 1 — so a cell crossing
      // promote → demote → promote must reproduce its promoted bytes.
      for (int pass = 0; pass < 2; ++pass) {
        size_t qi = 0;
        for (const WorkloadQuery& q : qs.value()) {
          auto got = engine.Query(QueryRequest(q.where));
          ASSERT_TRUE(got.ok()) << got.status().ToString();
          const TabulaQueryResult& result = got.value().result;
          // The budget invariant holds after EVERY query (promotes
          // must evict-before-admit, never overshoot).
          EXPECT_LE(engine.StoreBytes(), budget)
              << "seed=" << seed << " k=" << k << " divisor=" << divisor
              << " pass=" << pass << " query=" << q.ToString();
          // No faults armed: nothing may degrade in a clean run.
          ASSERT_FALSE(result.store_degraded)
              << "seed=" << seed << " k=" << k << " query=" << q.ToString();
          EXPECT_TRUE(result.unavailable_shards.empty());
          const std::vector<RowId> got_ids = result.sample.ToRowIds();
          if (!selection) {
            // Sole-owner samples: the deterministic re-draw restores
            // the exact build bytes, so any budget is byte-identical
            // to the unbounded engine.
            EXPECT_EQ(got_ids, want_rows[qi])
                << "seed=" << seed << " k=" << k << " divisor=" << divisor
                << " pass=" << pass << " query=" << q.ToString();
          } else if (k == 1) {
            // Shared slots may have re-promoted per-cell: the answer is
            // either the original bytes or the deterministic private
            // re-draw — never a third sample. (At K > 1 a merged answer
            // can mix both regimes across shards, so the per-query
            // membership check only holds single-instance.)
            EXPECT_TRUE(got_ids == want_rows[qi] ||
                        got_ids == redraw_rows[qi])
                << "seed=" << seed << " divisor=" << divisor
                << " pass=" << pass << " query=" << q.ToString();
          }
          CheckThetaBound(f, *loss, theta, q, result, k, seed);
          ++qi;
        }
      }
      if (divisor == 10 && full > 64) {
        // The tight budget actually exercised tiering.
        const SampleStoreStats stats = engine.StoreStats();
        EXPECT_GT(stats.demotes, 0u)
            << "seed=" << seed << " k=" << k
            << " (10% budget never demoted — test lost its teeth)";
      }
    }
  }
}

TEST(StoreDiff, SoleOwnerBudgetsAreByteIdenticalSeeds1To11) {
  for (uint64_t seed = 1; seed <= 11; ++seed) {
    RunBudgetDiff(seed, 400, /*selection=*/false);
  }
}

TEST(StoreDiff, SharedRepresentativeBudgetsSeeds12To22) {
  for (uint64_t seed = 12; seed <= 22; ++seed) {
    RunBudgetDiff(seed, 320, /*selection=*/true);
  }
}

/// Spill mode (single-instance only): cold sole-owner samples
/// round-trip through the side file and restore the exact build bytes
/// on first hit.
TEST(StoreDiff, SpillModePromotesByteIdenticalSamples) {
  for (uint64_t seed : {3u, 8u, 14u}) {
    DiffFixture f = MakeFixture(seed, 400);
    const double theta = MakeTheta(seed);
    std::shared_ptr<const LossFunction> loss = MakeLoss();

    auto baseline = Engine::Initialize(
        *f.table, MakeOptions(f, seed, 1, loss, theta, 0, false));
    ASSERT_TRUE(baseline.ok()) << baseline.status().ToString();
    const uint64_t full =
        Engine::Initialize(
            *f.table, MakeOptions(f, seed, 1, loss, theta, kUnbounded,
                                  false))
            .value()
            ->StoreBytes();

    TabulaOptions spill_opts = MakeOptions(f, seed, 1, loss, theta,
                                           std::max<uint64_t>(full / 4, 2),
                                           false)
                                   .base;
    spill_opts.store.spill_path =
        TempPath("store_diff_spill_" + std::to_string(seed) + ".bin");
    std::remove(spill_opts.store.spill_path.c_str());
    auto spilled = Tabula::Initialize(*f.table, spill_opts);
    ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
    EXPECT_LE(spilled.value()->sample_store().bytes(),
              spill_opts.store.budget_bytes);
    ASSERT_GT(spilled.value()->sample_store().Stats().cold_samples, 0u)
        << "seed=" << seed << " (nothing spilled — test lost its teeth)";

    WorkloadOptions wopt;
    wopt.num_queries = 12;
    wopt.seed = seed * 101 + 7;
    auto qs = GenerateWorkload(*f.table, f.attrs, wopt);
    ASSERT_TRUE(qs.ok());
    for (int pass = 0; pass < 2; ++pass) {
      for (const WorkloadQuery& q : qs.value()) {
        auto want = baseline.value()->Query(QueryRequest(q.where));
        ASSERT_TRUE(want.ok());
        auto got = spilled.value()->Query(QueryRequest(q.where));
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_FALSE(got.value().result.store_degraded);
        EXPECT_EQ(got.value().result.sample.ToRowIds(),
                  want.value().result.sample.ToRowIds())
            << "seed=" << seed << " pass=" << pass
            << " query=" << q.ToString();
        EXPECT_LE(spilled.value()->sample_store().bytes(),
                  spill_opts.store.budget_bytes);
      }
    }
    EXPECT_GT(spilled.value()->sample_store().Stats().spill_reads, 0u);
    std::remove(spill_opts.store.spill_path.c_str());
  }
}

/// The hot tier: once a cell crosses `hot_promote_hits`, a lazy promote
/// re-draws at θ × hot_theta_factor. Hot answers must meet the TIGHTER
/// bound, and the budget invariant survives the larger hot samples.
TEST(StoreDiff, HotTierServesTighterThetaUnderBudget) {
  for (uint64_t seed : {5u, 9u}) {
    DiffFixture f = MakeFixture(seed, 400);
    const double theta = MakeTheta(seed);
    std::shared_ptr<const LossFunction> loss = MakeLoss();

    auto probe = Engine::Initialize(
        *f.table, MakeOptions(f, seed, 1, loss, theta, kUnbounded, false));
    ASSERT_TRUE(probe.ok());
    const uint64_t budget =
        std::max<uint64_t>(probe.value()->StoreBytes() / 2, 2);

    TabulaOptions opts =
        MakeOptions(f, seed, 1, loss, theta, budget, false).base;
    opts.store.hot_promote_hits = 2;
    opts.store.hot_theta_factor = 0.5;
    auto engine = Tabula::Initialize(*f.table, opts);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    WorkloadOptions wopt;
    wopt.num_queries = 8;
    wopt.seed = seed * 101 + 7;
    auto qs = GenerateWorkload(*f.table, f.attrs, wopt);
    ASSERT_TRUE(qs.ok());
    // Several passes: hits accumulate past the hot threshold, and the
    // tight budget keeps demoting, so lazy promotes land hot.
    for (int pass = 0; pass < 4; ++pass) {
      for (const WorkloadQuery& q : qs.value()) {
        auto got = engine.value()->Query(QueryRequest(q.where));
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_FALSE(got.value().result.store_degraded);
        EXPECT_LE(engine.value()->sample_store().bytes(), budget);
      }
    }
    // The maintenance sweep upgrades hit-heavy resident cells too.
    ASSERT_TRUE(engine.value()->MaintainStoreTiers().ok());
    EXPECT_LE(engine.value()->sample_store().bytes(), budget);
    EXPECT_GT(engine.value()->sample_store().Stats().hot_samples, 0u)
        << "seed=" << seed << " (no cell ever went hot)";

    // Every answer still meets plain θ (hot cells meet the tighter
    // bound by construction; θ is the user-facing contract).
    for (const WorkloadQuery& q : qs.value()) {
      auto got = engine.value()->Query(QueryRequest(q.where));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      EXPECT_LE(engine.value()->sample_store().bytes(), budget);
      CheckThetaBound(f, *loss, theta, q, got.value().result, 1, seed);
    }
  }
}

/// Shard units never hot-promote, whatever `hot_promote_hits` says: a
/// unit's promote is a deterministic warm re-draw, so the bytes it
/// restores are exactly the ones the merge verified. (For the mean loss,
/// which is not union-closed, θ was only ever checked on the union of
/// those bytes.) Two passes under a tight budget with the hot threshold
/// at 1 hit: every answer within θ, no hot sample anywhere, and answers
/// byte-equal to the unbounded engine's.
TEST(StoreDiff, ShardUnitsNeverHotPromote) {
  for (uint64_t seed : {3u, 7u, 10u}) {
    DiffFixture f = MakeFixture(seed, 400);
    const double theta = MakeTheta(seed);
    std::shared_ptr<const LossFunction> loss = MakeLoss();
    auto unbounded = Engine::Initialize(
        *f.table, MakeOptions(f, seed, 4, loss, theta, kUnbounded, false));
    ASSERT_TRUE(unbounded.ok()) << unbounded.status().ToString();
    const uint64_t budget =
        std::max<uint64_t>(unbounded.value()->StoreBytes() * 3 / 10, 6);
    ShardedTabulaOptions options =
        MakeOptions(f, seed, 4, loss, theta, budget, false);
    options.base.store.hot_promote_hits = 1;
    auto engine = Engine::Initialize(*f.table, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_GT(engine.value()->StoreStats().cold_samples, 0u)
        << "seed=" << seed << " (nothing demoted — test lost its teeth)";

    WorkloadOptions wopt;
    wopt.num_queries = 12;
    wopt.seed = seed * 101 + 7;
    auto qs = GenerateWorkload(*f.table, f.attrs, wopt);
    ASSERT_TRUE(qs.ok());
    for (int pass = 0; pass < 2; ++pass) {
      for (const WorkloadQuery& q : qs.value()) {
        auto want = unbounded.value()->Query(QueryRequest(q.where));
        ASSERT_TRUE(want.ok());
        auto got = engine.value()->Query(QueryRequest(q.where));
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_FALSE(got.value().result.store_degraded);
        CheckThetaBound(f, *loss, theta, q, got.value().result, 4, seed);
        EXPECT_EQ(got.value().result.sample.ToRowIds(),
                  want.value().result.sample.ToRowIds())
            << "seed=" << seed << " pass=" << pass
            << " query=" << q.ToString();
        EXPECT_LE(engine.value()->StoreBytes(), budget);
      }
    }
    const SampleStoreStats stats = engine.value()->StoreStats();
    EXPECT_EQ(stats.hot_samples, 0u) << "seed=" << seed;
    EXPECT_GT(stats.promotes, 0u)
        << "seed=" << seed << " (no cell promoted — test lost its teeth)";
  }
}

/// spill_path is single-instance only: K > 1 demotes in drop mode and
/// must reject the option instead of silently ignoring it.
TEST(StoreDiff, SpillPathRejectedAtKGreaterThanOne) {
  DiffFixture f = MakeFixture(2, 200);
  ShardedTabulaOptions o =
      MakeOptions(f, 2, 4, MakeLoss(), 0.07, 4096, true);
  o.base.store.spill_path = TempPath("store_diff_rejected_spill.bin");
  auto engine = Engine::Initialize(*f.table, o);
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

/// A budget too small to give every store a non-zero slice is a
/// configuration error, not a silent disable.
TEST(StoreDiff, DegenerateShardBudgetRejected) {
  DiffFixture f = MakeFixture(2, 200);
  auto engine = Engine::Initialize(
      *f.table, MakeOptions(f, 2, 4, MakeLoss(), 0.07, 3, true));
  EXPECT_FALSE(engine.ok());
  EXPECT_EQ(engine.status().code(), StatusCode::kInvalidArgument);
}

/// Answers under a budget are within θ of the brute-force oracle cube
/// (the ISSUE's ground truth, sharing no code with the engine): every
/// oracle iceberg cell is queried directly and the served sample's loss
/// against the oracle's raw rows must meet θ.
TEST(StoreDiff, BudgetedAnswersWithinThetaOfOracleCube) {
  for (uint64_t seed : {1u, 4u, 7u}) {
    DiffFixture f = MakeFixture(seed, 300);
    const double theta = MakeTheta(seed);
    std::shared_ptr<const LossFunction> loss = MakeLoss();

    auto unbounded = Engine::Initialize(
        *f.table, MakeOptions(f, seed, 1, loss, theta, kUnbounded, true));
    ASSERT_TRUE(unbounded.ok());
    const uint64_t budget =
        std::max<uint64_t>(unbounded.value()->StoreBytes() / 3, 2);

    TabulaOptions opts =
        MakeOptions(f, seed, 1, loss, theta, budget, true).base;
    auto engine = Tabula::Initialize(*f.table, opts);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();

    // Brute-force cube sharing only the encoder layout and the engine's
    // global sample (iceberg classification depends on both).
    auto enc = KeyEncoder::Make(*f.table, f.attrs);
    ASSERT_TRUE(enc.ok());
    std::vector<size_t> all_cols(f.attrs.size());
    for (size_t i = 0; i < f.attrs.size(); ++i) all_cols[i] = i;
    auto packer = KeyPacker::Make(enc.value(), all_cols);
    ASSERT_TRUE(packer.ok());
    auto oracle = BuildOracleCube(*f.table, enc.value(), packer.value(),
                                  *loss, engine.value()->global_sample(),
                                  theta);
    ASSERT_TRUE(oracle.ok()) << oracle.status().ToString();

    for (const OracleCell& cell : oracle.value().cells) {
      if (!cell.iceberg) continue;
      ASSERT_FALSE(cell.rows.empty());
      // Reconstruct the cell's equality predicate from its first row.
      WorkloadQuery q;
      for (size_t i = 0; i < f.attrs.size(); ++i) {
        if ((cell.cuboid & (CuboidMask{1} << i)) == 0) continue;
        auto col = f.table->schema().FieldIndex(f.attrs[i]);
        ASSERT_TRUE(col.ok());
        q.where.push_back({f.attrs[i], CompareOp::kEq,
                           f.table->GetValue(col.value(), cell.rows[0])});
      }
      if (q.where.empty()) continue;  // the All vertex is not a filter
      auto got = engine.value()->Query(QueryRequest(q.where));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const TabulaQueryResult& result = got.value().result;
      ASSERT_FALSE(result.store_degraded);
      EXPECT_LE(engine.value()->sample_store().bytes(), budget);
      DatasetView truth(f.table.get(), cell.rows);
      auto l = loss->Loss(truth, result.sample);
      ASSERT_TRUE(l.ok()) << l.status().ToString();
      EXPECT_LE(l.value(), theta * (1.0 + 1e-7) + 1e-12)
          << "seed=" << seed << " cell key=" << cell.key;
    }
  }
}

/// Refresh and the four-phase ingest keep the budget invariant: tier
/// transitions are commit-phase-only and the rebuilt stores re-enforce
/// their slices before queries resume.
TEST(StoreDiff, RefreshAndIngestKeepBudgetInvariant) {
  for (uint64_t seed : {2u, 5u, 9u, 12u}) {
    DiffFixture f = MakeFixture(seed, 360);
    const double theta = MakeTheta(seed);
    std::shared_ptr<const LossFunction> loss = MakeLoss();

    SyntheticGeneratorOptions donor_gen;
    donor_gen.seed = seed * 7919 + 12;
    donor_gen.num_rows = 150;
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

    for (size_t k : kShardCounts) {
      auto probe = Engine::Initialize(
          *f.table, MakeOptions(f, seed, k, loss, theta, kUnbounded, true));
      ASSERT_TRUE(probe.ok());
      const uint64_t budget = std::max<uint64_t>(
          probe.value()->StoreBytes() / 2, static_cast<uint64_t>(k) + 2);
      probe = Result<std::unique_ptr<Engine>>(nullptr);

      auto engine = Engine::Initialize(
          *f.table, MakeOptions(f, seed, k, loss, theta, budget, true));
      ASSERT_TRUE(engine.ok()) << engine.status().ToString();

      WorkloadOptions wopt;
      wopt.num_queries = 8;
      wopt.seed = seed * 101 + 7;
      auto qs = GenerateWorkload(*f.table, f.attrs, wopt);
      ASSERT_TRUE(qs.ok());

      for (size_t r = 0; r < donor->num_rows(); ++r) {
        ASSERT_TRUE(
            f.table->AppendRowFrom(*donor, static_cast<RowId>(r)).ok());
      }
      // Interleave a few pre-refresh queries (promotes under the old
      // tiers), then refresh — commit must re-enforce the budget.
      for (size_t i = 0; i < 3 && i < qs.value().size(); ++i) {
        auto got = engine.value()->Query(QueryRequest(qs.value()[i].where));
        ASSERT_TRUE(got.ok());
        EXPECT_LE(engine.value()->StoreBytes(), budget);
      }
      Status st = engine.value()->Refresh();
      ASSERT_TRUE(st.ok()) << st.ToString();
      EXPECT_LE(engine.value()->StoreBytes(), budget)
          << "seed=" << seed << " k=" << k << " (post-refresh)";

      for (const WorkloadQuery& q : qs.value()) {
        auto got = engine.value()->Query(QueryRequest(q.where));
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_FALSE(got.value().result.store_degraded);
        EXPECT_LE(engine.value()->StoreBytes(), budget)
            << "seed=" << seed << " k=" << k;
        CheckThetaBound(f, *loss, theta, q, got.value().result, k, seed);
      }

      // Explicit four-phase cycle over a second append batch.
      for (size_t r = 0; r < 60; ++r) {
        ASSERT_TRUE(
            f.table->AppendRowFrom(*donor, static_cast<RowId>(r)).ok());
      }
      QueryEngine& phases = engine.value()->engine();
      auto plan = phases.PlanIngest();
      ASSERT_TRUE(plan.ok()) << plan.status().ToString();
      phases.BeginIngest(plan.value().get());
      ASSERT_TRUE(phases.ExecuteIngest(plan.value().get()).ok());
      ASSERT_TRUE(phases.CommitIngest(std::move(plan).value()).ok());
      EXPECT_LE(engine.value()->StoreBytes(), budget)
          << "seed=" << seed << " k=" << k << " (post-ingest)";
      for (const WorkloadQuery& q : qs.value()) {
        auto got = engine.value()->Query(QueryRequest(q.where));
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        EXPECT_LE(engine.value()->StoreBytes(), budget);
        CheckThetaBound(f, *loss, theta, q, got.value().result, k, seed);
      }
    }
  }
}

/// Save/Load: tier state round-trips (the tier records), the loaded
/// engine honors the budget, and its answers match the saving engine's
/// unbounded baseline byte-for-byte (sole-owner cold cells re-promote
/// deterministically after the load; selection off makes every sample
/// sole-owner).
TEST(StoreDiff, SaveLoadRoundTripsTierState) {
  for (uint64_t seed : {3u, 6u}) {
    DiffFixture f = MakeFixture(seed, 360);
    const double theta = MakeTheta(seed);
    std::shared_ptr<const LossFunction> loss = MakeLoss();

    for (size_t k : kShardCounts) {
      auto unbounded = Engine::Initialize(
          *f.table, MakeOptions(f, seed, k, loss, theta, kUnbounded,
                                false));
      ASSERT_TRUE(unbounded.ok());
      const uint64_t budget = std::max<uint64_t>(
          unbounded.value()->StoreBytes() / 3, static_cast<uint64_t>(k) + 2);

      auto engine = Engine::Initialize(
          *f.table, MakeOptions(f, seed, k, loss, theta, budget, false));
      ASSERT_TRUE(engine.ok());
      ASSERT_GT(engine.value()->StoreStats().cold_samples, 0u)
          << "seed=" << seed << " k=" << k;

      const std::string path = TempPath(
          "store_diff_manifest_" + std::to_string(seed) + "_" +
          std::to_string(k) + ".bin");
      ASSERT_TRUE(engine.value()->Save(path).ok());

      auto loaded = Engine::Load(
          *f.table, MakeOptions(f, seed, k, loss, theta, budget, false),
          path);
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
      EXPECT_LE(loaded.value()->StoreBytes(), budget);
      // Tier words round-tripped: the cold set survived the reload.
      EXPECT_EQ(loaded.value()->StoreStats().cold_samples,
                engine.value()->StoreStats().cold_samples)
          << "seed=" << seed << " k=" << k;

      WorkloadOptions wopt;
      wopt.num_queries = 10;
      wopt.seed = seed * 101 + 7;
      auto qs = GenerateWorkload(*f.table, f.attrs, wopt);
      ASSERT_TRUE(qs.ok());
      for (const WorkloadQuery& q : qs.value()) {
        auto want = unbounded.value()->Query(QueryRequest(q.where));
        ASSERT_TRUE(want.ok());
        auto got = loaded.value()->Query(QueryRequest(q.where));
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ASSERT_FALSE(got.value().result.store_degraded);
        EXPECT_LE(loaded.value()->StoreBytes(), budget);
        EXPECT_EQ(got.value().result.sample.ToRowIds(),
                  want.value().result.sample.ToRowIds())
            << "seed=" << seed << " k=" << k << " query=" << q.ToString();
      }
      std::remove(path.c_str());
    }
  }
}

/// WHERE clauses of every cell of every cuboid over `attrs`: each
/// attribute either rolled up or equal to one of its values.
std::vector<std::vector<PredicateTerm>> EveryCell(
    const Table& table, const std::vector<std::string>& attrs) {
  auto encoder = KeyEncoder::Make(table, attrs);
  EXPECT_TRUE(encoder.ok()) << encoder.status().ToString();
  std::vector<std::vector<PredicateTerm>> cells = {{}};
  for (size_t k = 0; k < attrs.size(); ++k) {
    std::vector<std::vector<PredicateTerm>> grown;
    for (const auto& cell : cells) {
      grown.push_back(cell);
      for (uint32_t code = 0; code < encoder->Cardinality(k); ++code) {
        grown.push_back(cell);
        grown.back().push_back(
            {attrs[k], CompareOp::kEq, encoder->Decode(k, code)});
      }
    }
    cells = std::move(grown);
  }
  return cells;
}

/// A loaded engine refreshes exactly like the live engine it was saved
/// from: the load rebuilds the finest-cell index (each unit's at K > 1)
/// that the refresh and the shard merge read. Store off, and a budget
/// that leaves cold samples.
TEST(StoreDiff, LoadedEngineRefreshesLikeTheLiveOne) {
  const uint64_t seed = 6;
  const double theta = MakeTheta(seed);
  std::shared_ptr<const LossFunction> loss = MakeLoss();
  for (size_t k : kShardCounts) {
    for (bool budgeted : {false, true}) {
      DiffFixture f = MakeFixture(seed, 360);
      uint64_t budget = 0;
      if (budgeted) {
        auto probe = Engine::Initialize(
            *f.table, MakeOptions(f, seed, k, loss, theta, kUnbounded, false));
        ASSERT_TRUE(probe.ok());
        budget = std::max<uint64_t>(probe.value()->StoreBytes() / 3,
                                    static_cast<uint64_t>(k) + 2);
      }
      const ShardedTabulaOptions options =
          MakeOptions(f, seed, k, loss, theta, budget, false);
      auto live = Engine::Initialize(*f.table, options);
      ASSERT_TRUE(live.ok()) << live.status().ToString();
      if (budgeted) {
        ASSERT_GT(live.value()->StoreStats().cold_samples, 0u);
      }
      const std::string path =
          TempPath("store_diff_refresh_" + std::to_string(k) + "_" +
                   std::to_string(budgeted) + ".bin");
      ASSERT_TRUE(live.value()->Save(path).ok());
      auto loaded = Engine::Load(*f.table, options, path);
      std::remove(path.c_str());
      ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

      std::unique_ptr<Table> donor =
          MakeFixture(seed, 150, /*draw=*/12).table;
      for (RowId r = 0; r < donor->num_rows(); ++r) {
        ASSERT_TRUE(f.table->AppendRowFrom(*donor, r).ok());
      }
      QueryEngine::RefreshStats want;
      QueryEngine::RefreshStats got;
      ASSERT_TRUE(live.value()->Refresh(&want).ok());
      ASSERT_TRUE(loaded.value()->Refresh(&got).ok());
      const std::string where =
          "k=" + std::to_string(k) + " budgeted=" + std::to_string(budgeted);
      EXPECT_EQ(got.new_rows, want.new_rows) << where;
      EXPECT_EQ(got.new_iceberg_cells, want.new_iceberg_cells) << where;
      EXPECT_EQ(got.dropped_iceberg_cells, want.dropped_iceberg_cells)
          << where;
      EXPECT_EQ(got.rechecked_cells, want.rechecked_cells) << where;
      EXPECT_EQ(got.resampled_cells, want.resampled_cells) << where;
      EXPECT_EQ(got.full_rebuild, want.full_rebuild) << where;
      EXPECT_EQ(loaded.value()->MergedIcebergKeys(),
                live.value()->MergedIcebergKeys())
          << where;
      for (const auto& cell : EveryCell(*f.table, f.attrs)) {
        auto a = live.value()->Query(QueryRequest(cell));
        auto b = loaded.value()->Query(QueryRequest(cell));
        ASSERT_TRUE(a.ok() && b.ok()) << where;
        EXPECT_FALSE(a->result.store_degraded || b->result.store_degraded);
        EXPECT_EQ(b->result.sample.ToRowIds(), a->result.sample.ToRowIds())
            << where;
      }
    }
  }
}

/// Spill mode with the hot tier off serves the bytes an engine without a
/// budget serves, whatever was resident: a refresh checks a dirty cold
/// cell's spilled sample as it checks a resident one, so Zipf reads
/// between ingest cycles (promotes and demotes) change no re-draw and no
/// answer.
TEST(StoreDiff, SpillModeIngestCyclesServeTheUnboundedBytes) {
  constexpr int kCycles = 12;
  constexpr size_t kRowsPerCycle = 25;
  for (uint64_t seed : {2u, 7u, 13u}) {
    DiffFixture f = MakeFixture(seed, 400);
    std::unique_ptr<Table> donor =
        MakeFixture(seed, kCycles * kRowsPerCycle, /*draw=*/12).table;
    const double theta = MakeTheta(seed);
    std::shared_ptr<const LossFunction> loss = MakeLoss();
    auto unbounded = Tabula::Initialize(
        *f.table, MakeOptions(f, seed, 1, loss, theta, 0, false).base);
    ASSERT_TRUE(unbounded.ok()) << unbounded.status().ToString();
    const uint64_t full =
        Tabula::Initialize(
            *f.table,
            MakeOptions(f, seed, 1, loss, theta, kUnbounded, false).base)
            .value()
            ->sample_store()
            .bytes();
    const uint64_t budget = std::max<uint64_t>(full / 2, 2);
    TabulaOptions spill_opts =
        MakeOptions(f, seed, 1, loss, theta, budget, false).base;
    spill_opts.store.spill_path =
        TempPath("store_diff_ingest_spill_" + std::to_string(seed) + ".bin");
    std::remove(spill_opts.store.spill_path.c_str());
    auto spilled = Tabula::Initialize(*f.table, spill_opts);
    ASSERT_TRUE(spilled.ok()) << spilled.status().ToString();
    ASSERT_GT(spilled.value()->sample_store().Stats().cold_samples, 0u);

    const auto cells = EveryCell(*f.table, f.attrs);
    Rng rng(seed * 31 + 1);
    size_t resampled = 0;
    for (int cycle = 0; cycle < kCycles; ++cycle) {
      const std::string where =
          "seed=" + std::to_string(seed) + " cycle=" + std::to_string(cycle);
      // Zipf-skewed reads promote a few hot cells and demote others.
      for (int i = 0; i < 150; ++i) {
        const double u = rng.UniformDouble(0.0, 1.0);
        const size_t c = std::min(
            cells.size() - 1, static_cast<size_t>(cells.size() * u * u * u));
        auto got = spilled.value()->Query(QueryRequest(cells[c]));
        ASSERT_TRUE(got.ok()) << where << ": " << got.status().ToString();
        ASSERT_FALSE(got.value().result.store_degraded) << where;
      }
      for (size_t r = 0; r < kRowsPerCycle; ++r) {
        const RowId row = static_cast<RowId>(cycle * kRowsPerCycle + r);
        ASSERT_TRUE(f.table->AppendRowFrom(*donor, row).ok());
      }
      QueryEngine::RefreshStats want;
      QueryEngine::RefreshStats got;
      ASSERT_TRUE(unbounded.value()->Refresh(&want).ok()) << where;
      ASSERT_TRUE(spilled.value()->Refresh(&got).ok()) << where;
      EXPECT_EQ(got.resampled_cells, want.resampled_cells) << where;
      EXPECT_EQ(got.new_iceberg_cells, want.new_iceberg_cells) << where;
      EXPECT_EQ(got.dropped_iceberg_cells, want.dropped_iceberg_cells)
          << where;
      EXPECT_LE(spilled.value()->sample_store().bytes(), budget) << where;
      resampled += want.resampled_cells;
      for (const auto& cell : cells) {
        auto a = unbounded.value()->Query(QueryRequest(cell));
        auto b = spilled.value()->Query(QueryRequest(cell));
        ASSERT_TRUE(a.ok() && b.ok()) << where;
        EXPECT_FALSE(b->result.store_degraded) << where;
        EXPECT_EQ(b->result.sample.ToRowIds(), a->result.sample.ToRowIds())
            << where;
      }
    }
    // The cycles re-drew some cells and kept others, and the reads
    // restored spilled samples.
    EXPECT_GT(resampled, 0u) << "seed=" << seed;
    EXPECT_GT(spilled.value()->sample_store().Stats().spill_reads, 0u);
    std::remove(spill_opts.store.spill_path.c_str());
  }
}

/// Delegates to `inner`, counting direct loss evaluations.
class CountingLoss final : public LossFunction {
 public:
  explicit CountingLoss(std::shared_ptr<const LossFunction> inner)
      : inner_(std::move(inner)) {}
  std::string name() const override { return inner_->name(); }
  Result<std::unique_ptr<BoundLoss>> Bind(
      const Table& table, const DatasetView& ref) const override {
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

  mutable int loss_evals = 0;

 private:
  std::shared_ptr<const LossFunction> inner_;
};

/// A promote restores a reference-free cell's spilled sample and checks
/// it off the cell's folded state: no direct loss evaluation and no row
/// gathered, and every answer still meets θ against a direct scan.
TEST(StoreDiff, SpillRestoreOfAReferenceFreeCellEvaluatesNoLoss) {
  const uint64_t seed = 8;
  DiffFixture f = MakeFixture(seed, 400);
  const double theta = MakeTheta(seed);
  std::shared_ptr<const LossFunction> inner = MakeLoss();
  ASSERT_FALSE(inner->StateDependsOnReference());
  auto counting = std::make_shared<CountingLoss>(inner);
  const uint64_t full =
      Tabula::Initialize(
          *f.table,
          MakeOptions(f, seed, 1, inner, theta, kUnbounded, false).base)
          .value()
          ->sample_store()
          .bytes();
  TabulaOptions options = MakeOptions(f, seed, 1, counting, theta,
                                      std::max<uint64_t>(full / 4, 2), false)
                              .base;
  options.store.spill_path = TempPath("store_diff_counting.spill");
  std::remove(options.store.spill_path.c_str());
  auto engine = Tabula::Initialize(*f.table, options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  ASSERT_GT(engine.value()->sample_store().Stats().spill_writes, 0u);

  const SampleStoreStats before = engine.value()->sample_store().Stats();
  counting->loss_evals = 0;
  for (int pass = 0; pass < 2; ++pass) {
    for (const auto& where : EveryCell(*f.table, f.attrs)) {
      auto got = engine.value()->Query(QueryRequest(where));
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      const TabulaQueryResult& result = got.value().result;
      ASSERT_FALSE(result.store_degraded);
      auto bound = BoundPredicate::Bind(*f.table, where);
      ASSERT_TRUE(bound.ok()) << bound.status().ToString();
      std::vector<RowId> truth = bound.value().FilterAll();
      if (truth.empty()) continue;
      auto l = inner->Loss(DatasetView(f.table.get(), std::move(truth)),
                           result.sample);
      ASSERT_TRUE(l.ok()) << l.status().ToString();
      EXPECT_LE(l.value(), theta * (1.0 + 1e-7) + 1e-12);
    }
  }
  const SampleStoreStats after = engine.value()->sample_store().Stats();
  ASSERT_GT(after.spill_reads, before.spill_reads)
      << "no promote restored a spill record — the test lost its teeth";
  EXPECT_EQ(counting->loss_evals, 0);
  std::remove(options.store.spill_path.c_str());
}

/// A Load whose spill file is missing is kDataLoss, and reading the
/// spill file never creates it.
TEST(StoreDiff, LoadWithoutItsSpillFileIsDataLossAndCreatesNoFile) {
  const uint64_t seed = 3;
  DiffFixture f = MakeFixture(seed, 400);
  const double theta = MakeTheta(seed);
  std::shared_ptr<const LossFunction> loss = MakeLoss();
  const uint64_t full =
      Tabula::Initialize(
          *f.table,
          MakeOptions(f, seed, 1, loss, theta, kUnbounded, false).base)
          .value()
          ->sample_store()
          .bytes();
  TabulaOptions options = MakeOptions(f, seed, 1, loss, theta,
                                      std::max<uint64_t>(full / 4, 2), false)
                              .base;
  options.store.spill_path = TempPath("store_diff_missing.spill");
  const std::string cube_path = TempPath("store_diff_missing.cube");
  std::remove(options.store.spill_path.c_str());
  {
    auto engine = Tabula::Initialize(*f.table, options);
    ASSERT_TRUE(engine.ok()) << engine.status().ToString();
    ASSERT_GT(engine.value()->sample_store().Stats().spill_writes, 0u);
    ASSERT_TRUE(engine.value()->Save(cube_path).ok());
  }
  ASSERT_TRUE(std::filesystem::remove(options.store.spill_path));
  auto loaded = Tabula::Load(*f.table, options, cube_path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
      << loaded.status().ToString();
  EXPECT_FALSE(std::filesystem::exists(options.store.spill_path));
  std::remove(cube_path.c_str());
}

/// Both ways across the store boundary, on the one file format: a file
/// saved with the store off (all-kWarm tier records) loads into a
/// store-enabled engine with every sample warm; a file carrying cold
/// tiers refuses to load store-disabled (the cold cells would silently
/// serve empty samples).
TEST(StoreDiff, FormatCompatibilityAcrossStoreBoundary) {
  DiffFixture f = MakeFixture(4, 360);
  const double theta = MakeTheta(4);
  std::shared_ptr<const LossFunction> loss = MakeLoss();

  for (size_t k : kShardCounts) {
    // Saved with the store disabled: every tier record is kWarm.
    auto disabled = Engine::Initialize(
        *f.table, MakeOptions(f, 4, k, loss, theta, 0, true));
    ASSERT_TRUE(disabled.ok());
    const std::string warm_path =
        TempPath("store_diff_warm_" + std::to_string(k) + ".bin");
    ASSERT_TRUE(disabled.value()->Save(warm_path).ok());

    auto upgraded = Engine::Load(
        *f.table, MakeOptions(f, 4, k, loss, theta, kUnbounded, true),
        warm_path);
    ASSERT_TRUE(upgraded.ok()) << upgraded.status().ToString();
    const SampleStoreStats stats = upgraded.value()->StoreStats();
    EXPECT_EQ(stats.cold_samples, 0u) << "k=" << k;
    EXPECT_GT(stats.warm_samples, 0u) << "k=" << k;
    std::remove(warm_path.c_str());

    // Saved with cold tiers: refuses a store-disabled load.
    auto unbounded = Engine::Initialize(
        *f.table, MakeOptions(f, 4, k, loss, theta, kUnbounded, true));
    ASSERT_TRUE(unbounded.ok());
    const uint64_t budget = std::max<uint64_t>(
        unbounded.value()->StoreBytes() / 4, static_cast<uint64_t>(k) + 2);
    auto tight = Engine::Initialize(
        *f.table, MakeOptions(f, 4, k, loss, theta, budget, true));
    ASSERT_TRUE(tight.ok());
    ASSERT_GT(tight.value()->StoreStats().cold_samples, 0u) << "k=" << k;
    const std::string cold_path =
        TempPath("store_diff_cold_" + std::to_string(k) + ".bin");
    ASSERT_TRUE(tight.value()->Save(cold_path).ok());

    auto refused = Engine::Load(
        *f.table, MakeOptions(f, 4, k, loss, theta, 0, true), cold_path);
    EXPECT_FALSE(refused.ok()) << "k=" << k;
    EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument)
        << "k=" << k << ": " << refused.status().ToString();
    std::remove(cold_path.c_str());
  }
}

}  // namespace
}  // namespace tabula
