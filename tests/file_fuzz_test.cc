/// Seeded mutation test over the file decoders: the cube file, the shard
/// manifest, the cold-spill file and the ingest journal.
///
/// Inputs are files this repository writes: a cube file with a spatial
/// grid, a cube file with cold spilled tiers plus its spill file, a K = 4
/// shard manifest and a three-batch journal. Each is mutated by seeded
/// bit flips, truncation at every header offset and at seeded body
/// offsets, and counts inflated far past the bytes that follow them. The
/// cube file's and manifest's checked bodies and the journal's and the
/// spill file's checked records are also flipped (and the bodies cut)
/// and re-sealed with a fresh CRC32C, so their payload decoders face the
/// damage. Every mutant goes through the reader of its file —
/// Tabula::Load, ShardedTabula::Load, IngestJournal::Replay and
/// IngestJournal::Open — and must end in OK or an error Status: no
/// exception and no crash. CI also runs it under ASan with an allocation
/// cap, so a corrupt count that allocates what it claims aborts the test.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <memory>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "core/tabula.h"
#include "data/taxi_gen.h"
#include "exec/vector_ops.h"
#include "ingest/ingest_journal.h"
#include "loss/mean_loss.h"
#include "shard/sharded_tabula.h"

namespace tabula {
namespace {

std::string TempPath(const std::string& name) {
  return (std::filesystem::temp_directory_path() / name).string();
}

void WriteAll(const std::string& path, const std::string& bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

uint64_t U64At(const std::string& bytes, size_t offset) {
  uint64_t v = 0;
  std::memcpy(&v, bytes.data() + offset, sizeof(v));
  return v;
}

/// One file under test and how to read it back.
struct Input {
  std::string name;
  /// Every file the reader opens, with its pristine bytes; all are
  /// restored before each mutant, then the target is overwritten.
  std::vector<std::pair<std::string, std::string>> files;
  size_t target = 0;
  /// Bytes before the body; every truncation below this is tried.
  size_t header_bytes = 0;
  /// Offsets of u64 counts that precede what they count.
  std::vector<size_t> counts;
  /// Offset of the checked record that holds the file's body from there
  /// to the end (cube file, manifest), or none.
  bool sealed_body = false;
  size_t body_at = 0;
  /// Offset of the first checked record (journal, spill file), or none.
  bool has_records = false;
  size_t records_at = 0;
  /// Offset of a u64 row count inside each record's payload.
  size_t record_count_at = 0;
  /// Runs the file's reader.
  std::function<Status()> read;

  const std::string& pristine() const { return files[target].second; }
};

/// Writes `bytes` over the input's target (every other file restored)
/// and runs its reader, which must return a Status and never throw.
Status ReadMutant(const Input& input, const std::string& bytes,
                  const std::string& what) {
  for (const auto& [path, pristine] : input.files) WriteAll(path, pristine);
  WriteAll(input.files[input.target].first, bytes);
  Status status = Status::Internal("the reader threw");
  EXPECT_NO_THROW(status = input.read()) << input.name << ": " << what;
  return status;
}

/// [offset, length) of every checked record from `at` to the end.
std::vector<std::pair<size_t, size_t>> RecordSpans(const std::string& bytes,
                                                    size_t at) {
  std::vector<std::pair<size_t, size_t>> spans;
  BufferReader r(bytes.data() + at, bytes.size() - at);
  while (!r.exhausted()) {
    const size_t begin = bytes.size() - r.remaining();
    Result<BufferReader> record = r.ReadRecord();
    EXPECT_TRUE(record.ok()) << record.status().ToString();
    if (!record.ok()) break;
    spans.emplace_back(begin, bytes.size() - r.remaining() - begin);
  }
  return spans;
}

/// Recomputes the CRC32C of the record at `span` after its payload changed.
void Reseal(std::string* bytes, std::pair<size_t, size_t> span) {
  const size_t payload = span.first + kRecordHeaderBytes;
  const uint32_t crc = vec::Crc32c(bytes->data() + payload,
                                   span.second - kRecordHeaderBytes);
  std::memcpy(bytes->data() + span.first + 4, &crc, sizeof(crc));
}

/// Re-seals a file body that runs from `body_at` to the end: the record's
/// length and CRC32C are rewritten for the bytes there now.
void SealBody(std::string* bytes, size_t body_at) {
  if (bytes->size() < body_at + kRecordHeaderBytes) return;
  const uint32_t len =
      static_cast<uint32_t>(bytes->size() - body_at - kRecordHeaderBytes);
  std::memcpy(bytes->data() + body_at, &len, sizeof(len));
  Reseal(bytes, {body_at, bytes->size() - body_at});
}

/// Every mutation family over one input; returns the mutant count.
size_t MutateAll(const Input& input, uint64_t seed) {
  std::mt19937_64 rng(seed);
  const std::string& pristine = input.pristine();
  size_t mutants = 0;

  // Raw bit flips anywhere in the file.
  for (int i = 0; i < 256; ++i) {
    std::string bytes = pristine;
    const int flips = 1 + static_cast<int>(rng() % 3);
    for (int f = 0; f < flips; ++f) {
      bytes[rng() % bytes.size()] ^= static_cast<char>(1u << (rng() % 8));
    }
    ReadMutant(input, bytes, "flip " + std::to_string(i));
    ++mutants;
    if (input.sealed_body) {
      SealBody(&bytes, input.body_at);
      ReadMutant(input, bytes, "sealed flip " + std::to_string(i));
      ++mutants;
    }
  }

  // Truncation at every header offset and at seeded body offsets. A cube
  // file or manifest cut anywhere must not load; a journal cut inside its
  // records replays the intact prefix, and a spill file cut short fails
  // only when a spilled record lay past the cut.
  const bool cut_fails = !input.has_records;
  std::vector<size_t> cuts;
  for (size_t cut = 0; cut < input.header_bytes; ++cut) cuts.push_back(cut);
  for (int i = 0; i < 64; ++i) {
    cuts.push_back(input.header_bytes +
                   rng() % (pristine.size() - input.header_bytes));
  }
  for (size_t cut : cuts) {
    std::string bytes = pristine.substr(0, cut);
    Status status = ReadMutant(input, bytes, "cut at " + std::to_string(cut));
    if (cut_fails) {
      EXPECT_FALSE(status.ok()) << input.name << " cut at " << cut;
    }
    ++mutants;
    if (input.sealed_body && cut >= input.body_at + kRecordHeaderBytes) {
      SealBody(&bytes, input.body_at);
      status = ReadMutant(input, bytes, "sealed cut at " + std::to_string(cut));
      EXPECT_FALSE(status.ok()) << input.name << " sealed cut at " << cut;
      ++mutants;
    }
  }

  // Counts inflated past every byte the file holds: each must fail
  // without allocating what it claims.
  for (size_t at : input.counts) {
    const uint64_t actual = U64At(pristine, at);
    for (uint64_t inflated :
         {actual + 1 + rng() % (uint64_t{1} << 32), uint64_t{1} << 31,
          uint64_t{1} << 40, uint64_t{1} << 62, ~uint64_t{0}}) {
      std::string bytes = pristine;
      std::memcpy(bytes.data() + at, &inflated, sizeof(inflated));
      if (input.sealed_body) SealBody(&bytes, input.body_at);
      const std::string what =
          "count at " + std::to_string(at) + " = " + std::to_string(inflated);
      Status status = ReadMutant(input, bytes, what);
      if (inflated >= pristine.size()) {
        EXPECT_FALSE(status.ok()) << input.name << " " << what;
      }
      ++mutants;
    }
  }
  if (!input.has_records) return mutants;

  // Checked records: flipped raw (the checksum refuses them), flipped and
  // re-sealed (the payload decoder sees the damage), their row counts
  // inflated and re-sealed, and their length words inflated.
  const std::vector<std::pair<size_t, size_t>> spans =
      RecordSpans(pristine, input.records_at);
  EXPECT_FALSE(spans.empty()) << input.name;
  for (size_t k = 0; k < spans.size(); ++k) {
    const auto span = spans[k];
    const std::string at = " in record " + std::to_string(k);
    for (int i = 0; i < 32; ++i) {
      std::string bytes = pristine;
      const size_t payload_len = span.second - kRecordHeaderBytes;
      const int flips = 1 + static_cast<int>(rng() % 3);
      for (int f = 0; f < flips; ++f) {
        bytes[span.first + kRecordHeaderBytes + rng() % payload_len] ^=
            static_cast<char>(1u << (rng() % 8));
      }
      ReadMutant(input, bytes, "raw flip " + std::to_string(i) + at);
      Reseal(&bytes, span);
      ReadMutant(input, bytes, "sealed flip " + std::to_string(i) + at);
      mutants += 2;
    }
    for (uint64_t inflated : {uint64_t{1} << 31, ~uint64_t{0}}) {
      std::string bytes = pristine;
      std::memcpy(bytes.data() + span.first + kRecordHeaderBytes +
                      input.record_count_at,
                  &inflated, sizeof(inflated));
      Reseal(&bytes, span);
      EXPECT_FALSE(ReadMutant(input, bytes, "sealed row count" + at).ok())
          << input.name << at;
      ++mutants;
    }
    for (uint32_t len : {static_cast<uint32_t>(span.second), UINT32_MAX}) {
      std::string bytes = pristine;
      std::memcpy(bytes.data() + span.first, &len, sizeof(len));
      ReadMutant(input, bytes, "record length " + std::to_string(len) + at);
      ++mutants;
    }
  }
  return mutants;
}

class FileMutationTest : public ::testing::Test {
 protected:
  static constexpr size_t kBaseRows = 3000;
  static constexpr size_t kBatchRows = 20;

  void SetUp() override {
    TaxiGeneratorOptions gen;
    gen.num_rows = kBaseRows + 3 * kBatchRows;
    gen.seed = 19;
    full_ = TaxiGenerator(gen).Generate();
    std::vector<RowId> base(kBaseRows);
    for (RowId r = 0; r < kBaseRows; ++r) base[r] = r;
    table_ = full_->TakeRows(base);
    loss_ = std::make_unique<MeanLoss>("fare_amount");
    options_.cubed_attributes = {"payment_type", "rate_code"};
    options_.loss = loss_.get();
    options_.threshold = 0.05;
  }

  void TearDown() override {
    for (const std::string& path : paths_) std::remove(path.c_str());
  }

  std::string Path(const std::string& name) {
    paths_.push_back(TempPath("tabula_file_fuzz_" + name));
    std::remove(paths_.back().c_str());
    return paths_.back();
  }

  /// Header: magic, version, rows, fingerprint, loss name, threshold,
  /// attribute count, attributes (Tabula::WriteHeader).
  size_t HeaderBytes() const {
    size_t bytes = 4 + 4 + 8 + 8 + 8 + loss_->name().size() + 8 + 8;
    for (const std::string& attr : options_.cubed_attributes) {
      bytes += 8 + attr.size();
    }
    return bytes;
  }

  /// Where a cube file's body starts: the global sample's row count,
  /// after the header and the body's record header.
  size_t GlobalAt() const { return HeaderBytes() + kRecordHeaderBytes; }

  /// Offset of sample `id`'s row count in a cube file saved from `cube`.
  size_t SampleAt(const Tabula& cube, uint32_t id) const {
    size_t at = GlobalAt() + 8 + 4 * cube.global_sample().size() + 8 +
                16 * cube.cube_table().size() + 8;
    for (uint32_t i = 0; i < id; ++i) {
      at += 8 + 4 * cube.sample_table().sample(i).size();
    }
    return at;
  }

  /// The counts of a cube file saved from `cube`: the loss-name length,
  /// the attribute count, the global sample's rows, the cell count, the
  /// sample count, the first sample's rows, the grid blob's length when
  /// there is a grid, and the tier-record count.
  std::vector<size_t> CubeCounts(const Tabula& cube, size_t file_size) const {
    const size_t loss_name_at = 4 + 4 + 8 + 8;
    const size_t attrs_at = loss_name_at + 8 + loss_->name().size() + 8;
    const size_t global_at = GlobalAt();
    const size_t cells_at = global_at + 8 + 4 * cube.global_sample().size();
    const size_t samples_at = cells_at + 8 + 16 * cube.cube_table().size();
    size_t samples_end = samples_at + 8;
    for (uint32_t id = 0; id < cube.sample_table().size(); ++id) {
      samples_end += 8 + 4 * cube.sample_table().sample(id).size();
    }
    // Build stats (three doubles, four u64s), then the grid flag.
    const size_t grid_at = samples_end + 56 + 4;
    const size_t tiers_at = file_size - 8 - 20 * cube.sample_table().size();
    std::vector<size_t> counts = {loss_name_at, attrs_at, global_at,
                                  cells_at,     samples_at, samples_at + 8,
                                  tiers_at};
    if (grid_at < tiers_at) counts.push_back(grid_at);
    return counts;
  }

  std::unique_ptr<Table> full_;
  std::unique_ptr<Table> table_;
  std::unique_ptr<MeanLoss> loss_;
  TabulaOptions options_;
  std::vector<std::string> paths_;
};

TEST_F(FileMutationTest, CubeFileWithSpatialGrid) {
  TabulaOptions options = options_;
  options.spatial.levels = 3;
  auto cube = Tabula::Initialize(*table_, options);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  ASSERT_TRUE(cube.value()->spatial_grid().present());
  const std::string path = Path("grid.cube");
  ASSERT_TRUE(cube.value()->Save(path).ok());

  Input input;
  input.name = "cube file";
  input.files = {{path, ReadFileBytes(path).value()}};
  input.header_bytes = GlobalAt();
  input.counts = CubeCounts(*cube.value(), input.pristine().size());
  input.sealed_body = true;
  input.body_at = HeaderBytes();
  input.read = [&] { return Tabula::Load(*table_, options, path).status(); };
  ASSERT_TRUE(ReadMutant(input, input.pristine(), "pristine").ok());
  EXPECT_GT(MutateAll(input, 0x5EED0019), 400u);
}

TEST_F(FileMutationTest, CubeFileWithColdSpilledTiers) {
  TabulaOptions options = options_;
  options.enable_sample_selection = false;
  options.store.budget_bytes = uint64_t{1} << 40;
  uint64_t full_bytes = 0;
  {
    auto probe = Tabula::Initialize(*table_, options);
    ASSERT_TRUE(probe.ok()) << probe.status().ToString();
    full_bytes = probe.value()->sample_store().bytes();
  }
  options.store.budget_bytes = std::max<uint64_t>(full_bytes / 4, 2);
  const std::string spill = Path("cold.spill");
  options.store.spill_path = spill;
  auto cube = Tabula::Initialize(*table_, options);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  ASSERT_GT(cube.value()->sample_store().Stats().spill_writes, 1u);
  const std::string path = Path("cold.cube");
  ASSERT_TRUE(cube.value()->Save(path).ok());
  const std::vector<std::pair<std::string, std::string>> files = {
      {path, ReadFileBytes(path).value()},
      {spill, ReadFileBytes(spill).value()}};
  auto read = [&] { return Tabula::Load(*table_, options, path).status(); };

  // The cube file, whose tier records point into the spill file.
  Input cube_file;
  cube_file.name = "budgeted cube file";
  cube_file.files = files;
  cube_file.header_bytes = GlobalAt();
  cube_file.counts = CubeCounts(*cube.value(), cube_file.pristine().size());
  cube_file.sealed_body = true;
  cube_file.body_at = HeaderBytes();
  cube_file.read = read;
  ASSERT_TRUE(ReadMutant(cube_file, cube_file.pristine(), "pristine").ok());
  EXPECT_GT(MutateAll(cube_file, 0x5EED001A), 400u);

  // The spill file: checked records from its first byte, each payload a
  // sample id and its row vector.
  Input spill_file;
  spill_file.name = "spill file";
  spill_file.files = files;
  spill_file.target = 1;
  spill_file.header_bytes = kRecordHeaderBytes;
  spill_file.has_records = true;
  spill_file.record_count_at = 8;
  spill_file.read = read;
  EXPECT_GT(MutateAll(spill_file, 0x5EED001B), 400u);
}

TEST_F(FileMutationTest, ShardManifest) {
  ShardedTabulaOptions options;
  options.base = options_;
  options.num_shards = 4;
  auto sharded = ShardedTabula::Initialize(*table_, options);
  ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
  const std::string path = Path("k4.manifest");
  ASSERT_TRUE(sharded.value()->Save(path).ok());

  Input input;
  input.name = "manifest";
  input.files = {{path, ReadFileBytes(path).value()}};
  // Then the body: the shard count and the partition word first.
  input.header_bytes = GlobalAt() + 8 + 4;
  input.sealed_body = true;
  input.body_at = HeaderBytes();
  const size_t global_at = input.header_bytes;
  const size_t first_shard_at =
      global_at + 8 + 4 * sharded.value()->global_sample().size();
  const std::vector<uint64_t> merged = sharded.value()->MergedIcebergKeys();
  ASSERT_FALSE(merged.empty());
  std::string pattern(16, '\0');
  const uint64_t merged_count = merged.size();
  std::memcpy(pattern.data(), &merged_count, 8);
  std::memcpy(pattern.data() + 8, &merged.front(), 8);
  const size_t merged_at = input.pristine().find(pattern);
  ASSERT_NE(merged_at, std::string::npos);
  input.counts = {4 + 4 + 8 + 8, global_at, first_shard_at, merged_at};
  input.read = [&] {
    return ShardedTabula::Load(*table_, options, path).status();
  };
  ASSERT_TRUE(ReadMutant(input, input.pristine(), "pristine").ok());
  EXPECT_GT(MutateAll(input, 0x5EED001C), 400u);
}

TEST_F(FileMutationTest, IngestJournal) {
  const std::string path = Path("three_batches.wal");
  size_t header_bytes = 0;
  {
    auto journal = IngestJournal::Open(path, *table_);
    ASSERT_TRUE(journal.ok()) << journal.status().ToString();
    header_bytes = std::filesystem::file_size(path);
    for (size_t b = 0; b < 3; ++b) {
      std::vector<std::vector<Value>> batch;
      for (size_t i = 0; i < kBatchRows; ++i) {
        const RowId r = static_cast<RowId>(kBaseRows + b * kBatchRows + i);
        std::vector<Value> row;
        for (size_t c = 0; c < full_->num_columns(); ++c) {
          row.push_back(full_->column(c).GetValue(r));
        }
        batch.push_back(std::move(row));
      }
      ASSERT_TRUE(journal.value()->AppendBatch(batch).ok());
    }
  }
  std::vector<RowId> base(kBaseRows);
  for (RowId r = 0; r < kBaseRows; ++r) base[r] = r;

  Input input;
  input.name = "journal";
  input.files = {{path, ReadFileBytes(path).value()}};
  input.header_bytes = header_bytes;
  // The field count, then the first field name's length.
  input.counts = {4 + 4 + 8, 4 + 4 + 8 + 8};
  input.has_records = true;
  input.records_at = header_bytes;
  input.read = [&] {
    // Replay into a fresh copy of the base table, then reopen the
    // journal for appending over what it replayed.
    std::unique_ptr<Table> table = table_->TakeRows(base);
    Result<JournalReplayStats> replayed =
        IngestJournal::Replay(path, table.get());
    Status opened = IngestJournal::Open(path, *table).status();
    return replayed.ok() ? opened : replayed.status();
  };
  ASSERT_TRUE(ReadMutant(input, input.pristine(), "pristine").ok());
  EXPECT_GT(MutateAll(input, 0x5EED001D), 400u);

  // A base-row watermark near 2^64 once wrapped Open's row-horizon sum
  // (watermark + journaled rows) below the table's row count, so Open
  // accepted a journal that Replay refuses.
  {
    std::string bytes = input.pristine();
    const uint64_t watermark = ~uint64_t{0} - 3 * kBatchRows + 1;
    std::memcpy(bytes.data() + 8, &watermark, sizeof(watermark));
    WriteAll(path, bytes);
    EXPECT_EQ(IngestJournal::Open(path, *table_).status().code(),
              StatusCode::kInvalidArgument);
  }

  // A record flipped raw is a torn tail: the batches before it replay,
  // it and everything after it are dropped.
  const auto spans = RecordSpans(input.pristine(), header_bytes);
  ASSERT_EQ(spans.size(), 3u);
  for (size_t k = 0; k < spans.size(); ++k) {
    std::string bytes = input.pristine();
    bytes[spans[k].first + kRecordHeaderBytes + 3] ^= 0x10;
    WriteAll(path, bytes);
    std::unique_ptr<Table> table = table_->TakeRows(base);
    auto replayed = IngestJournal::Replay(path, table.get());
    ASSERT_TRUE(replayed.ok()) << replayed.status().ToString();
    EXPECT_TRUE(replayed->truncated_tail);
    EXPECT_EQ(replayed->batches, k);
    EXPECT_EQ(table->num_rows(), kBaseRows + k * kBatchRows);
  }

  // A zero-filled tail (the OS kept the file's new size but not its
  // blocks) reads as an empty record whose CRC32C of no bytes matches.
  // It is a torn tail too: all three batches replay, and Open cuts the
  // zeros off.
  for (size_t zeros : {4, 8, 12, 16, 64}) {
    WriteAll(path, input.pristine() + std::string(zeros, '\0'));
    std::unique_ptr<Table> table = table_->TakeRows(base);
    auto replayed = IngestJournal::Replay(path, table.get());
    ASSERT_TRUE(replayed.ok()) << zeros << ": " << replayed.status().ToString();
    EXPECT_TRUE(replayed->truncated_tail) << zeros;
    EXPECT_EQ(replayed->batches, 3u) << zeros;
    EXPECT_EQ(table->num_rows(), kBaseRows + 3 * kBatchRows) << zeros;
    auto opened = IngestJournal::Open(path, *table);
    ASSERT_TRUE(opened.ok()) << zeros << ": " << opened.status().ToString();
    EXPECT_EQ(opened.value()->journaled_rows(), 3 * kBatchRows) << zeros;
    EXPECT_EQ(std::filesystem::file_size(path), input.pristine().size())
        << zeros;
  }
}

/// Found by the flips above: a cube body whose cell key repeats an
/// earlier cell's key failed CubeTable::Add's check and aborted the
/// process. It is kDataLoss.
TEST_F(FileMutationTest, RepeatedCellKeyIsDataLoss) {
  auto cube = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  ASSERT_GT(cube.value()->cube_table().size(), 1u);
  const std::string path = Path("repeated_key.cube");
  ASSERT_TRUE(cube.value()->Save(path).ok());
  std::string bytes = ReadFileBytes(path).value();
  // The cell count, then (key, cuboid, sample id) per cell: the second
  // cell takes the first cell's key, and the body is re-sealed.
  const size_t first_key_at =
      GlobalAt() + 8 + 4 * cube.value()->global_sample().size() + 8;
  std::memcpy(bytes.data() + first_key_at + 16, bytes.data() + first_key_at,
              8);
  SealBody(&bytes, HeaderBytes());
  WriteAll(path, bytes);
  auto loaded = Tabula::Load(*table_, options_, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
      << loaded.status().ToString();
  EXPECT_NE(loaded.status().message().find("repeats cell key"),
            std::string::npos)
      << loaded.status().ToString();
}

/// A sample row id flipped to another row below the row count decodes
/// to a valid cube that serves a different sample; the body's checksum
/// refuses it before anything is decoded.
TEST_F(FileMutationTest, SampleRowIdFlipIsDataLoss) {
  auto cube = Tabula::Initialize(*table_, options_);
  ASSERT_TRUE(cube.ok()) << cube.status().ToString();
  const SampleTable& samples = cube.value()->sample_table();
  uint32_t id = 0;
  while (id < samples.size() && samples.sample(id).empty()) ++id;
  ASSERT_LT(id, samples.size());
  const std::string path = Path("row_flip.cube");
  ASSERT_TRUE(cube.value()->Save(path).ok());
  std::string bytes = ReadFileBytes(path).value();
  const size_t row_at = SampleAt(*cube.value(), id) + 8;
  RowId row = 0;
  std::memcpy(&row, bytes.data() + row_at, sizeof(row));
  ASSERT_EQ(row, samples.sample(id).front());
  row ^= 1;  // still below the row count
  ASSERT_LT(row, table_->num_rows());
  std::memcpy(bytes.data() + row_at, &row, sizeof(row));
  WriteAll(path, bytes);
  auto loaded = Tabula::Load(*table_, options_, path);
  ASSERT_FALSE(loaded.ok());
  EXPECT_EQ(loaded.status().code(), StatusCode::kDataLoss)
      << loaded.status().ToString();
}

}  // namespace
}  // namespace tabula
