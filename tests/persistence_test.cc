#include <gtest/gtest.h>

#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <vector>

#include "common/binary_io.h"
#include "core/tabula.h"
#include "data/taxi_gen.h"
#include "exec/vector_ops.h"
#include "ingest/ingest_journal.h"
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

/// Each file format has exactly one version: a cube file, a K=4 shard
/// manifest or an ingest journal whose version word is one below or one
/// above the current one is rejected as kParseError, with the offending
/// version in the message.
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

  const std::string journal_path = TempPath("tabula_journal_version.wal");
  std::remove(journal_path.c_str());
  ASSERT_TRUE(IngestJournal::Open(journal_path, *table_).ok());
  const uint32_t journal_version = RewriteVersion(journal_path, 0);
  ASSERT_GT(journal_version, 0u);
  for (uint32_t version : {journal_version - 1, journal_version + 1}) {
    RewriteVersion(journal_path, version);
    for (const Status& opened :
         {IngestJournal::Open(journal_path, *table_).status(),
          IngestJournal::Replay(journal_path, table_.get()).status()}) {
      EXPECT_EQ(opened.code(), StatusCode::kParseError)
          << "journal version " << version;
      EXPECT_NE(opened.message().find("version " + std::to_string(version)),
                std::string::npos)
          << opened.ToString();
    }
  }

  // The current version still loads once restored.
  RewriteVersion(cube_path, cube_version);
  RewriteVersion(manifest_path, manifest_version);
  RewriteVersion(journal_path, journal_version);
  EXPECT_TRUE(Tabula::Load(*table_, options_, cube_path).ok());
  EXPECT_TRUE(
      ShardedTabula::Load(*table_, sharded_options, manifest_path).ok());
  EXPECT_TRUE(IngestJournal::Replay(journal_path, table_.get()).ok());
  std::remove(cube_path.c_str());
  std::remove(manifest_path.c_str());
  std::remove(journal_path.c_str());
}

/// The u64 at `offset` of the file at `path` (read, then overwritten).
uint64_t ReadU64At(const std::string& path, uint64_t offset) {
  std::ifstream f(path, std::ios::binary);
  uint64_t v = 0;
  f.seekg(static_cast<std::streamoff>(offset));
  f.read(reinterpret_cast<char*>(&v), sizeof(v));
  return v;
}
void WriteU64At(const std::string& path, uint64_t offset, uint64_t value) {
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(offset));
  f.write(reinterpret_cast<const char*>(&value), sizeof(value));
}

/// Offset of the first `a` immediately followed by `b` (two u64s) in the
/// file at `path`.
uint64_t FindU64Pair(const std::string& path, uint64_t a, uint64_t b) {
  std::ifstream f(path, std::ios::binary);
  const std::string bytes((std::istreambuf_iterator<char>(f)),
                          std::istreambuf_iterator<char>());
  std::string pattern(16, '\0');
  std::memcpy(pattern.data(), &a, 8);
  std::memcpy(pattern.data() + 8, &b, 8);
  const size_t at = bytes.find(pattern);
  EXPECT_NE(at, std::string::npos);
  return at;
}

/// A count a corrupt file may inflate: where it sits and what it claims.
struct CountField {
  std::string name;
  uint64_t offset = 0;
  std::vector<uint64_t> values;
};

/// Re-seals the checked body that runs from `body_at` to the end of the
/// file at `path`, so its decoder meets the bytes there now.
void SealBody(const std::string& path, uint64_t body_at) {
  std::string bytes = ReadFileBytes(path).value();
  const uint64_t payload = body_at + kRecordHeaderBytes;
  const uint32_t crc =
      vec::Crc32c(bytes.data() + payload, bytes.size() - payload);
  std::fstream f(path, std::ios::binary | std::ios::in | std::ios::out);
  f.seekp(static_cast<std::streamoff>(body_at + 4));
  f.write(reinterpret_cast<const char*>(&crc), sizeof(crc));
}

/// Sets each field to each of its values in turn, re-sealing the body
/// that starts at `body_at`: `load` must return kDataLoss without
/// throwing, and must succeed again once the field is restored.
void ExpectCorruptCountsFail(const std::string& path, uint64_t body_at,
                             const std::vector<CountField>& fields,
                             const std::function<Status()>& load) {
  for (const CountField& field : fields) {
    const uint64_t original = ReadU64At(path, field.offset);
    for (uint64_t value : field.values) {
      WriteU64At(path, field.offset, value);
      SealBody(path, body_at);
      Status loaded = Status::OK();
      EXPECT_NO_THROW(loaded = load()) << field.name << " = " << value;
      EXPECT_EQ(loaded.code(), StatusCode::kDataLoss)
          << field.name << " = " << value << ": " << loaded.ToString();
    }
    WriteU64At(path, field.offset, original);
    SealBody(path, body_at);
    EXPECT_TRUE(load().ok()) << field.name << " restored";
  }
}

/// Every count a cube file or a K=4 manifest announces is checked
/// against the bytes left in the file before anything is allocated for
/// it: the loss-name length, the cubed-attribute count, the global
/// sample's row count, and the first sample's row count (cube file) or
/// the merged-cell count (manifest). Each inflated count is kDataLoss —
/// never a multi-gigabyte allocation or an exception.
TEST_F(PersistenceTest, CorruptCountsFailWithoutAllocating) {
  auto cube = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  ShardedTabulaOptions sharded_options;
  sharded_options.base = options_;
  sharded_options.num_shards = 4;
  auto sharded = ShardedTabula::Initialize(*table_, sharded_options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  const std::string cube_path = TempPath("tabula_cube_counts.bin");
  const std::string manifest_path = TempPath("tabula_manifest_counts.bin");
  ASSERT_TRUE(cube.value()->Save(cube_path).ok());
  ASSERT_TRUE(sharded.value()->Save(manifest_path).ok());

  // Header: magic, version, rows, fingerprint, loss name, threshold,
  // attribute count, attributes. Then the body's record header, and the
  // body.
  const uint64_t loss_name_at = 4 + 4 + 8 + 8;
  const uint64_t attrs_at = loss_name_at + 8 + loss_->name().size() + 8;
  uint64_t body_at = attrs_at + 8;
  for (const std::string& attr : options_.cubed_attributes) {
    body_at += 8 + attr.size();
  }
  const uint64_t body_start = body_at + kRecordHeaderBytes;
  const std::vector<uint64_t> string_lengths = {uint64_t{1} << 31,
                                                uint64_t{1} << 62};
  const std::vector<uint64_t> attr_counts = {uint64_t{1} << 36,
                                             uint64_t{1} << 62};
  const std::vector<uint64_t> row_counts = {uint64_t{1} << 31,
                                            uint64_t{1} << 40};

  // Cube file: the global sample, then the cube cells (key, cuboid,
  // sample id), then the sample table.
  const uint64_t global_rows = cube.value()->global_sample().size();
  const uint64_t cells_at = body_start + 8 + 4 * global_rows;
  const uint64_t first_sample_at =
      cells_at + 8 + (8 + 4 + 4) * cube.value()->cube_table().size() + 8;
  ASSERT_GT(cube.value()->sample_table().size(), 0u);
  ExpectCorruptCountsFail(
      cube_path, body_at,
      {{"loss-name length", loss_name_at, string_lengths},
       {"attribute count", attrs_at, attr_counts},
       {"global-sample rows", body_start, row_counts},
       {"first sample's rows", first_sample_at, row_counts}},
      [&] { return Tabula::Load(*table_, options_, cube_path).status(); });

  // Manifest: shard count and partition, then the global sample; the
  // merged directory (its count, then the first key) follows the units.
  const std::vector<uint64_t> merged = sharded.value()->MergedIcebergKeys();
  ASSERT_FALSE(merged.empty());
  ExpectCorruptCountsFail(
      manifest_path, body_at,
      {{"loss-name length", loss_name_at, string_lengths},
       {"attribute count", attrs_at, attr_counts},
       {"global-sample rows", body_start + 8 + 4, row_counts},
       {"merged-cell count",
        FindU64Pair(manifest_path, merged.size(), merged.front()),
        {uint64_t{1} << 40, uint64_t{1} << 62}}},
      [&] {
        return ShardedTabula::Load(*table_, sharded_options, manifest_path)
            .status();
      });
  std::remove(cube_path.c_str());
  std::remove(manifest_path.c_str());
}

TEST_F(PersistenceTest, MissingFileIsIOError) {
  auto loaded = Tabula::Load(*table_, options_, "/nonexistent/cube.bin");
  EXPECT_EQ(loaded.status().code(), StatusCode::kIOError);
}

}  // namespace
}  // namespace tabula
