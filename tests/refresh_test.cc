#include <gtest/gtest.h>

#include "common/rng.h"
#include "common/stopwatch.h"
#include "core/tabula.h"
#include "data/taxi_gen.h"
#include "data/workload.h"
#include "exec/key_encoder.h"
#include "loss/mean_loss.h"

namespace tabula {
namespace {

/// Appends `n` rows of `source` (row ids [0, n)) to `target`.
void AppendRows(Table* target, const Table& source, size_t n) {
  for (RowId r = 0; r < n; ++r) {
    ASSERT_TRUE(target->AppendRowFrom(source, r).ok());
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

class RefreshTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TaxiGeneratorOptions gen;
    gen.num_rows = 20000;
    gen.seed = 51;
    table_ = TaxiGenerator(gen).Generate();
    gen.seed = 52;  // different rides, same attribute domains
    extra_ = TaxiGenerator(gen).Generate();
    loss_ = std::make_unique<MeanLoss>("fare_amount");
    options_.cubed_attributes = {"payment_type", "rate_code"};
    options_.loss = loss_.get();
    options_.threshold = 0.05;
    options_.keep_maintenance_state = true;
  }

  /// Checks the deterministic guarantee on a workload.
  void VerifyGuarantee(const Tabula& tabula) {
    WorkloadOptions wopts;
    wopts.num_queries = 30;
    auto workload =
        GenerateWorkload(*table_, options_.cubed_attributes, wopts);
    ASSERT_TRUE(workload.ok());
    for (const auto& q : workload.value()) {
      auto answer = tabula.Query(QueryRequest(q.where));
      ASSERT_TRUE(answer.ok());
      auto pred = BoundPredicate::Bind(*table_, q.where);
      DatasetView truth(table_.get(), pred->FilterAll());
      if (truth.empty()) continue;
      EXPECT_LE(loss_->Loss(truth, answer->result.sample).value(),
                options_.threshold)
          << q.ToString();
    }
  }

  std::unique_ptr<Table> table_;
  std::unique_ptr<Table> extra_;
  std::unique_ptr<MeanLoss> loss_;
  TabulaOptions options_;
};

TEST_F(RefreshTest, NoOpWhenNothingAppended) {
  auto tabula = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(tabula.ok());
  Tabula::RefreshStats stats;
  ASSERT_TRUE(tabula.value()->Refresh(&stats).ok());
  EXPECT_EQ(stats.new_rows, 0u);
  EXPECT_FALSE(stats.full_rebuild);
}

TEST_F(RefreshTest, GuaranteeHoldsAfterAppends) {
  auto tabula = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(tabula.ok());
  // Append 25% more rides drawn from a shifted distribution.
  AppendRows(table_.get(), *extra_, 5000);
  Tabula::RefreshStats stats;
  ASSERT_TRUE(tabula.value()->Refresh(&stats).ok());
  EXPECT_EQ(stats.new_rows, 5000u);
  VerifyGuarantee(*tabula.value());
}

TEST_F(RefreshTest, SkewedAppendCreatesIcebergCells) {
  auto tabula = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(tabula.ok());
  size_t before = tabula.value()->cube_table().size();

  // Append rides that massively skew one cell: No-Charge rides with an
  // absurd fare, so (payment_type='No Charge') must become iceberg.
  const Schema& schema = table_->schema();
  std::vector<Value> row(schema.num_fields());
  for (size_t i = 0; i < 2000; ++i) {
    row[0] = Value("CMT");
    row[1] = Value("Mon");
    row[2] = Value("1");
    row[3] = Value("No Charge");
    row[4] = Value("Standard");
    row[5] = Value("N");
    row[6] = Value("Mon");
    row[7] = Value("[0,5)");
    row[8] = Value(1.0);
    row[9] = Value(500.0);  // fare far above the global mean
    row[10] = Value(0.0);
    row[11] = Value(0.5);
    row[12] = Value(0.5);
    ASSERT_TRUE(table_->AppendRow(row).ok());
  }
  Tabula::RefreshStats stats;
  ASSERT_TRUE(tabula.value()->Refresh(&stats).ok());
  EXPECT_FALSE(stats.full_rebuild);
  EXPECT_GE(tabula.value()->cube_table().size() + stats.dropped_iceberg_cells,
            before);

  // The skewed cell answers within θ of its (new) truth.
  auto answer = tabula.value()->Query(QueryRequest(
      {{"payment_type", CompareOp::kEq, Value("No Charge")}}));
  ASSERT_TRUE(answer.ok());
  auto pred = BoundPredicate::Bind(
      *table_, {{"payment_type", CompareOp::kEq, Value("No Charge")}});
  DatasetView truth(table_.get(), pred->FilterAll());
  EXPECT_LE(loss_->Loss(truth, answer->result.sample).value(), options_.threshold);
  VerifyGuarantee(*tabula.value());
}

TEST_F(RefreshTest, NewAttributeValueTriggersFullRebuild) {
  auto tabula = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(tabula.ok());
  std::vector<Value> row(table_->schema().num_fields());
  row[0] = Value("CMT");
  row[1] = Value("Mon");
  row[2] = Value("1");
  row[3] = Value("Crypto");  // unseen payment type
  row[4] = Value("Standard");
  row[5] = Value("N");
  row[6] = Value("Mon");
  row[7] = Value("[0,5)");
  row[8] = Value(1.0);
  row[9] = Value(10.0);
  row[10] = Value(0.0);
  row[11] = Value(0.5);
  row[12] = Value(0.5);
  ASSERT_TRUE(table_->AppendRow(row).ok());

  Tabula::RefreshStats stats;
  ASSERT_TRUE(tabula.value()->Refresh(&stats).ok());
  EXPECT_TRUE(stats.full_rebuild);
  // The new value is queryable afterwards.
  auto answer = tabula.value()->Query(QueryRequest(
      {{"payment_type", CompareOp::kEq, Value("Crypto")}}));
  ASSERT_TRUE(answer.ok());
  EXPECT_FALSE(answer->result.empty_cell);
  VerifyGuarantee(*tabula.value());
}

TEST_F(RefreshTest, WorksWithoutKeptMaintenanceState) {
  // An engine that does not keep its finest-cell index rebuilds it each
  // cycle (with the store off) — it must refresh exactly like a twin
  // that keeps it, store off and on.
  for (bool store : {false, true}) {
    TaxiGeneratorOptions gen;
    gen.num_rows = 20000;
    gen.seed = 51;
    table_ = TaxiGenerator(gen).Generate();
    TabulaOptions lean = options_;
    lean.keep_maintenance_state = false;
    if (store) {
      TabulaOptions probe_options = lean;
      probe_options.store.budget_bytes = uint64_t{1} << 40;
      auto probe = Tabula::Initialize(*table_, probe_options);
      ASSERT_TRUE(probe.ok());
      lean.store.budget_bytes = probe.value()->sample_store().bytes() / 2;
    }
    TabulaOptions kept = lean;
    kept.keep_maintenance_state = true;
    auto lean_engine = Tabula::Initialize(*table_, lean);
    auto kept_engine = Tabula::Initialize(*table_, kept);
    ASSERT_TRUE(lean_engine.ok() && kept_engine.ok());
    for (RowId cycle = 0; cycle < 3; ++cycle) {
      for (RowId r = cycle * 1000; r < (cycle + 1) * 1000; ++r) {
        ASSERT_TRUE(table_->AppendRowFrom(*extra_, r).ok());
      }
      Tabula::RefreshStats got;
      Tabula::RefreshStats want;
      ASSERT_TRUE(lean_engine.value()->Refresh(&got).ok());
      ASSERT_TRUE(kept_engine.value()->Refresh(&want).ok());
      EXPECT_EQ(got.new_rows, 1000u);
      EXPECT_EQ(got.new_rows, want.new_rows);
      EXPECT_EQ(got.new_iceberg_cells, want.new_iceberg_cells);
      EXPECT_EQ(got.dropped_iceberg_cells, want.dropped_iceberg_cells);
      EXPECT_EQ(got.rechecked_cells, want.rechecked_cells);
      EXPECT_EQ(got.resampled_cells, want.resampled_cells);
      EXPECT_EQ(got.full_rebuild, want.full_rebuild);
      for (const auto& where : EveryCell(*table_, options_.cubed_attributes)) {
        auto a = lean_engine.value()->Query(QueryRequest(where));
        auto b = kept_engine.value()->Query(QueryRequest(where));
        ASSERT_TRUE(a.ok() && b.ok());
        EXPECT_EQ(a->result.sample.ToRowIds(), b->result.sample.ToRowIds())
            << "store=" << store << " cycle=" << cycle;
        EXPECT_EQ(a->result.from_local_sample, b->result.from_local_sample);
        EXPECT_FALSE(a->result.store_degraded || b->result.store_degraded);
      }
    }
    VerifyGuarantee(*lean_engine.value());
  }
}

TEST_F(RefreshTest, RepeatedRefreshes) {
  auto tabula = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(tabula.ok());
  for (size_t batch = 0; batch < 3; ++batch) {
    AppendRows(table_.get(), *extra_, 1500);
    Tabula::RefreshStats stats;
    ASSERT_TRUE(tabula.value()->Refresh(&stats).ok());
    EXPECT_EQ(stats.new_rows, 1500u);
  }
  VerifyGuarantee(*tabula.value());
}

TEST_F(RefreshTest, GenerationBumpsOnlyWhenTheCubeMutates) {
  auto tabula = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(tabula.ok());
  const uint64_t g0 = tabula.value()->generation();

  // No-op refresh: nothing appended, nothing mutated, no bump.
  ASSERT_TRUE(tabula.value()->Refresh().ok());
  EXPECT_EQ(tabula.value()->generation(), g0);

  // Incremental refresh: bump.
  AppendRows(table_.get(), *extra_, 1000);
  ASSERT_TRUE(tabula.value()->Refresh().ok());
  const uint64_t g1 = tabula.value()->generation();
  EXPECT_GT(g1, g0);

  // Full rebuild (unseen cubed value): still a bump, never a reset.
  std::vector<Value> row(table_->schema().num_fields());
  row[0] = Value("CMT");
  row[1] = Value("Mon");
  row[2] = Value("1");
  row[3] = Value("Crypto");  // unseen payment type
  row[4] = Value("Standard");
  row[5] = Value("N");
  row[6] = Value("Mon");
  row[7] = Value("[0,5)");
  row[8] = Value(1.0);
  row[9] = Value(10.0);
  row[10] = Value(0.0);
  row[11] = Value(0.5);
  row[12] = Value(0.5);
  ASSERT_TRUE(table_->AppendRow(row).ok());
  Tabula::RefreshStats stats;
  ASSERT_TRUE(tabula.value()->Refresh(&stats).ok());
  ASSERT_TRUE(stats.full_rebuild);
  EXPECT_GT(tabula.value()->generation(), g1);
}

TEST_F(RefreshTest, RefreshListenerLifecycle) {
  auto tabula = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(tabula.ok());

  int fired = 0;
  uint64_t id = tabula.value()->AddRefreshListener([&] { ++fired; });

  AppendRows(table_.get(), *extra_, 500);
  ASSERT_TRUE(tabula.value()->Refresh().ok());
  EXPECT_EQ(fired, 1);

  // After removal the listener never fires again, even though the
  // refresh succeeds and bumps the generation.
  tabula.value()->RemoveRefreshListener(id);
  const uint64_t gen_before = tabula.value()->generation();
  AppendRows(table_.get(), *extra_, 500);
  ASSERT_TRUE(tabula.value()->Refresh().ok());
  EXPECT_EQ(fired, 1);
  EXPECT_GT(tabula.value()->generation(), gen_before);

  // Removing an already-removed (or never-issued) id is harmless.
  tabula.value()->RemoveRefreshListener(id);
  tabula.value()->RemoveRefreshListener(987654321u);
}

TEST_F(RefreshTest, ListenerRegisteredBetweenRefreshesSeesOnlyLaterOnes) {
  auto tabula = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(tabula.ok());

  AppendRows(table_.get(), *extra_, 500);
  ASSERT_TRUE(tabula.value()->Refresh().ok());

  int fired = 0;
  tabula.value()->AddRefreshListener([&] { ++fired; });
  EXPECT_EQ(fired, 0);  // registration alone fires nothing

  AppendRows(table_.get(), *extra_, 500);
  ASSERT_TRUE(tabula.value()->Refresh().ok());
  EXPECT_EQ(fired, 1);
}

TEST_F(RefreshTest, RefreshIsCheaperThanReinitialize) {
  auto tabula = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(tabula.ok());
  AppendRows(table_.get(), *extra_, 1000);

  Stopwatch refresh_timer;
  Tabula::RefreshStats stats;
  ASSERT_TRUE(tabula.value()->Refresh(&stats).ok());
  double refresh_ms = refresh_timer.ElapsedMillis();

  Stopwatch init_timer;
  auto fresh = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(fresh.ok());
  double init_ms = init_timer.ElapsedMillis();
  // Not a strict inequality guarantee in theory, but with selection in
  // the init path it holds by a wide margin in practice.
  EXPECT_LT(refresh_ms, init_ms);
}

}  // namespace
}  // namespace tabula
