#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>

#include "core/tabula.h"
#include "data/taxi_gen.h"
#include "loss/mean_loss.h"
#include "loss/min_dist_loss.h"
#include "shard/sharded_tabula.h"

namespace tabula {
namespace {

std::string TempPath(const char* name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

class PersistenceTest : public ::testing::Test {
 protected:
  void SetUp() override {
    TaxiGeneratorOptions gen;
    gen.num_rows = 20000;
    gen.seed = 31;
    table_ = TaxiGenerator(gen).Generate();
    loss_ = std::make_unique<MeanLoss>("fare_amount");
    options_.cubed_attributes = {"payment_type", "rate_code"};
    options_.loss = loss_.get();
    options_.threshold = 0.05;
  }

  std::unique_ptr<Table> table_;
  std::unique_ptr<MeanLoss> loss_;
  TabulaOptions options_;
};

TEST_F(PersistenceTest, SaveLoadRoundTripAnswersIdentically) {
  auto original = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(original.ok());
  std::string path = TempPath("tabula_cube.bin");
  ASSERT_TRUE(original.value()->Save(path).ok());

  auto loaded = Tabula::Load(*table_, options_, path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();

  // Identical structure...
  EXPECT_EQ(loaded.value()->cube_table().size(),
            original.value()->cube_table().size());
  EXPECT_EQ(loaded.value()->sample_table().size(),
            original.value()->sample_table().size());
  EXPECT_EQ(loaded.value()->global_sample().size(),
            original.value()->global_sample().size());

  // ...and identical answers for a spread of queries.
  std::vector<std::vector<PredicateTerm>> queries = {
      {},
      {{"payment_type", CompareOp::kEq, Value("Cash")}},
      {{"rate_code", CompareOp::kEq, Value("JFK")}},
      {{"payment_type", CompareOp::kEq, Value("Dispute")},
       {"rate_code", CompareOp::kEq, Value("Standard")}},
  };
  for (const auto& where : queries) {
    auto a = original.value()->Query(QueryRequest(where));
    auto b = loaded.value()->Query(QueryRequest(where));
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    EXPECT_EQ(a->result.from_local_sample, b->result.from_local_sample);
    EXPECT_EQ(a->result.sample.ToRowIds(), b->result.sample.ToRowIds());
  }
  std::remove(path.c_str());
}

TEST_F(PersistenceTest, LoadIsFasterThanInitialize) {
  auto original = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(original.ok());
  std::string path = TempPath("tabula_cube_fast.bin");
  ASSERT_TRUE(original.value()->Save(path).ok());
  auto loaded = Tabula::Load(*table_, options_, path);
  ASSERT_TRUE(loaded.ok());
  EXPECT_LT(loaded.value()->init_stats().total_millis,
            original.value()->init_stats().total_millis);
  std::remove(path.c_str());
}

TEST_F(PersistenceTest, RejectsWrongTable) {
  auto original = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(original.ok());
  std::string path = TempPath("tabula_cube_wrong.bin");
  ASSERT_TRUE(original.value()->Save(path).ok());

  TaxiGeneratorOptions gen;
  gen.num_rows = 20000;
  gen.seed = 99;  // different content, same shape
  auto other_table = TaxiGenerator(gen).Generate();
  auto loaded = Tabula::Load(*other_table, options_, path);
  EXPECT_EQ(loaded.status().code(), StatusCode::kInvalidArgument);
  std::remove(path.c_str());
}

TEST_F(PersistenceTest, RejectsMismatchedConfiguration) {
  auto original = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(original.ok());
  std::string path = TempPath("tabula_cube_cfg.bin");
  ASSERT_TRUE(original.value()->Save(path).ok());

  TabulaOptions wrong_theta = options_;
  wrong_theta.threshold = 0.10;
  EXPECT_FALSE(Tabula::Load(*table_, wrong_theta, path).ok());

  // A loss with a different registry name is rejected.
  auto other_loss = MakeHistogramLoss("fare_amount");
  TabulaOptions wrong_loss = options_;
  wrong_loss.loss = other_loss.get();
  EXPECT_FALSE(Tabula::Load(*table_, wrong_loss, path).ok());

  TabulaOptions wrong_attrs = options_;
  wrong_attrs.cubed_attributes = {"payment_type"};
  EXPECT_FALSE(Tabula::Load(*table_, wrong_attrs, path).ok());
  std::remove(path.c_str());
}

TEST_F(PersistenceTest, RejectsCorruptFiles) {
  std::string path = TempPath("tabula_cube_corrupt.bin");
  {
    std::ofstream out(path, std::ios::binary);
    out << "this is not a cube file at all, sorry";
  }
  EXPECT_FALSE(Tabula::Load(*table_, options_, path).ok());

  // Truncated real file.
  auto original = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(original.ok());
  ASSERT_TRUE(original.value()->Save(path).ok());
  auto size = std::filesystem::file_size(path);
  std::filesystem::resize_file(path, size / 2);
  EXPECT_FALSE(Tabula::Load(*table_, options_, path).ok());
  std::remove(path.c_str());
}

/// Overwrites the format-version word (bytes 4..8, after the magic) of
/// the file at `path`; returns the word it replaced.
uint32_t RewriteVersion(const std::string& path, uint32_t version) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  uint32_t old = 0;
  f.seekg(4);
  f.read(reinterpret_cast<char*>(&old), sizeof(old));
  f.seekp(4);
  f.write(reinterpret_cast<const char*>(&version), sizeof(version));
  return old;
}

/// Each file format has exactly one version: a cube file or a K=4 shard
/// manifest whose version word is one below or one above the current one
/// is rejected as kParseError, with the offending version in the message.
TEST_F(PersistenceTest, OneVersionPerFormat) {
  auto cube = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  ShardedTabulaOptions sharded_options;
  sharded_options.base = options_;
  sharded_options.num_shards = 4;
  auto sharded = ShardedTabula::Initialize(*table_, sharded_options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();

  const std::string cube_path = TempPath("tabula_cube_version.bin");
  const std::string manifest_path = TempPath("tabula_manifest_version.bin");
  ASSERT_TRUE(cube.value()->Save(cube_path).ok());
  ASSERT_TRUE(sharded.value()->Save(manifest_path).ok());
  const uint32_t cube_version = RewriteVersion(cube_path, 0);
  const uint32_t manifest_version = RewriteVersion(manifest_path, 0);
  ASSERT_GT(cube_version, 0u);
  ASSERT_GT(manifest_version, 0u);

  for (uint32_t version : {cube_version - 1, cube_version + 1}) {
    RewriteVersion(cube_path, version);
    auto loaded = Tabula::Load(*table_, options_, cube_path);
    ASSERT_FALSE(loaded.ok()) << "cube file version " << version;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().message().find("version " +
                                             std::to_string(version)),
              std::string::npos)
        << loaded.status().ToString();
  }
  for (uint32_t version : {manifest_version - 1, manifest_version + 1}) {
    RewriteVersion(manifest_path, version);
    auto loaded = ShardedTabula::Load(*table_, sharded_options, manifest_path);
    ASSERT_FALSE(loaded.ok()) << "manifest version " << version;
    EXPECT_EQ(loaded.status().code(), StatusCode::kParseError);
    EXPECT_NE(loaded.status().message().find("version " +
                                             std::to_string(version)),
              std::string::npos)
        << loaded.status().ToString();
  }

  // The current version still loads once restored.
  RewriteVersion(cube_path, cube_version);
  RewriteVersion(manifest_path, manifest_version);
  EXPECT_TRUE(Tabula::Load(*table_, options_, cube_path).ok());
  EXPECT_TRUE(
      ShardedTabula::Load(*table_, sharded_options, manifest_path).ok());
  std::remove(cube_path.c_str());
  std::remove(manifest_path.c_str());
}

TEST_F(PersistenceTest, MissingFileIsIOError) {
  auto loaded = Tabula::Load(*table_, options_, "/nonexistent/cube.bin");
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace tabula
