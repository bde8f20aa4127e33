#include "ingest/ingest_journal.h"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <functional>

#include "common/binary_io.h"
#include "testing/fault_injection.h"

namespace tabula {

namespace {

constexpr uint32_t kJournalMagic = 0x544A424C;  // "TBLJ" (LE bytes LBJT)
constexpr uint32_t kJournalVersion = 1;
constexpr uint32_t kBatchMarker = 0x42415443;  // "BATC"

/// FNV-1a fold over a batch's logical content; computed identically by
/// the writer and the reader so a torn or bit-flipped record is caught.
class Fnv {
 public:
  void Mix(uint64_t v) {
    h_ ^= v;
    h_ *= 1099511628211ull;
  }
  void MixDouble(double d) {
    uint64_t bits;
    static_assert(sizeof(bits) == sizeof(d));
    std::memcpy(&bits, &d, sizeof(bits));
    Mix(bits);
  }
  void MixString(const std::string& s) {
    Mix(s.size());
    for (char c : s) Mix(static_cast<uint64_t>(static_cast<uint8_t>(c)));
  }
  uint64_t value() const { return h_; }

 private:
  uint64_t h_ = 1469598103934665603ull;  // FNV offset basis
};

std::vector<std::pair<std::string, DataType>> SchemaFields(
    const Schema& schema) {
  std::vector<std::pair<std::string, DataType>> fields;
  fields.reserve(schema.num_fields());
  for (const Field& f : schema.fields()) fields.emplace_back(f.name, f.type);
  return fields;
}

/// Everything a pass over a journal file learns.
struct ScanInfo {
  std::vector<std::pair<std::string, DataType>> fields;
  uint64_t base_rows = 0;
  /// Byte offset just past the last intact record (= where appending
  /// may resume; anything beyond is a torn tail).
  std::streamoff valid_end = 0;
  size_t batches = 0;
  uint64_t rows = 0;
  bool truncated = false;
};

/// Reads the header and every intact batch record, invoking `cb` (when
/// non-null) with each batch's parsed rows. A torn tail record sets
/// `truncated` and stops the scan without failing it; a malformed
/// header or schema fails the whole call.
Status ScanJournal(
    const std::string& path, ScanInfo* info,
    const std::function<Status(const std::vector<std::vector<Value>>&)>& cb) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  BinaryReader r(&in);

  TABULA_ASSIGN_OR_RETURN(uint32_t magic, r.ReadU32());
  if (magic != kJournalMagic) {
    return Status::ParseError("'" + path + "' is not a Tabula ingest journal");
  }
  TABULA_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  if (version != kJournalVersion) {
    return Status::ParseError("unsupported ingest journal version " +
                              std::to_string(version));
  }
  TABULA_ASSIGN_OR_RETURN(info->base_rows, r.ReadU64());
  TABULA_ASSIGN_OR_RETURN(uint64_t num_fields, r.ReadU64());
  info->fields.clear();
  for (uint64_t i = 0; i < num_fields; ++i) {
    TABULA_ASSIGN_OR_RETURN(std::string name, r.ReadString());
    TABULA_ASSIGN_OR_RETURN(uint32_t type, r.ReadU32());
    if (type > static_cast<uint32_t>(DataType::kDouble)) {
      return Status::ParseError("ingest journal names unknown column type " +
                                std::to_string(type));
    }
    info->fields.emplace_back(std::move(name), static_cast<DataType>(type));
  }
  info->valid_end = in.tellg();

  // Records until the file ends. Any mid-record failure (short read,
  // bad marker, checksum mismatch) is a torn tail: the writer flushes
  // per record and truncates failed writes back, so a broken record can
  // only be the crash frontier — drop it, keep everything before.
  while (true) {
    if (in.peek() == std::ifstream::traits_type::eof()) break;
    auto marker = r.ReadU32();
    if (!marker.ok() || marker.value() != kBatchMarker) {
      info->truncated = true;
      break;
    }
    auto nrows = r.ReadU64();
    if (!nrows.ok()) {
      info->truncated = true;
      break;
    }
    Fnv fnv;
    fnv.Mix(nrows.value());
    std::vector<std::vector<Value>> batch;
    // Every row holds at least one byte: a corrupt count reserves no
    // more rows than the file has bytes left.
    batch.reserve(std::min<uint64_t>(nrows.value(), r.remaining()));
    bool torn = false;
    for (uint64_t row = 0; row < nrows.value() && !torn; ++row) {
      std::vector<Value> values;
      values.reserve(info->fields.size());
      for (const auto& [name, type] : info->fields) {
        switch (type) {
          case DataType::kCategorical: {
            auto s = r.ReadString();
            if (!s.ok()) {
              torn = true;
              break;
            }
            fnv.MixString(s.value());
            values.emplace_back(std::move(s).value());
            break;
          }
          case DataType::kInt64: {
            auto v = r.ReadU64();
            if (!v.ok()) {
              torn = true;
              break;
            }
            fnv.Mix(v.value());
            values.emplace_back(static_cast<int64_t>(v.value()));
            break;
          }
          case DataType::kDouble: {
            auto v = r.ReadDouble();
            if (!v.ok()) {
              torn = true;
              break;
            }
            fnv.MixDouble(v.value());
            values.emplace_back(v.value());
            break;
          }
        }
        if (torn) break;
      }
      if (!torn) batch.push_back(std::move(values));
    }
    auto checksum = r.ReadU64();
    if (torn || !checksum.ok() || checksum.value() != fnv.value()) {
      info->truncated = true;
      break;
    }
    ++info->batches;
    info->rows += nrows.value();
    info->valid_end = in.tellg();
    if (cb != nullptr) {
      TABULA_RETURN_NOT_OK(cb(batch));
    }
  }
  return Status::OK();
}

Status ValidateSchemaMatch(
    const std::vector<std::pair<std::string, DataType>>& journal_fields,
    const Schema& schema) {
  bool match = journal_fields.size() == schema.num_fields();
  for (size_t i = 0; match && i < journal_fields.size(); ++i) {
    match = journal_fields[i].first == schema.field(i).name &&
            journal_fields[i].second == schema.field(i).type;
  }
  if (!match) {
    return Status::InvalidArgument(
        "ingest journal schema differs from the table's (" +
        schema.ToString() + ")");
  }
  return Status::OK();
}

}  // namespace

Status IngestJournal::WriteHeader(uint64_t base_rows) {
  out_.open(path_, std::ios::binary | std::ios::trunc);
  if (!out_) {
    return Status::IOError("cannot open '" + path_ + "' for writing");
  }
  BinaryWriter w(&out_);
  w.WriteU32(kJournalMagic);
  w.WriteU32(kJournalVersion);
  w.WriteU64(base_rows);
  w.WriteU64(fields_.size());
  for (const auto& [name, type] : fields_) {
    w.WriteString(name);
    w.WriteU32(static_cast<uint32_t>(type));
  }
  out_.flush();
  if (!w.ok() || !out_) {
    return Status::IOError("write failed for '" + path_ + "'");
  }
  base_rows_ = base_rows;
  journaled_rows_ = 0;
  return Status::OK();
}

Result<std::unique_ptr<IngestJournal>> IngestJournal::Open(
    const std::string& path, const Table& table) {
  auto journal = std::unique_ptr<IngestJournal>(new IngestJournal());
  journal->path_ = path;
  journal->fields_ = SchemaFields(table.schema());

  std::error_code ec;
  const bool exists = std::filesystem::exists(path, ec) && !ec &&
                      std::filesystem::file_size(path, ec) > 0 && !ec;
  if (!exists) {
    TABULA_RETURN_NOT_OK(journal->WriteHeader(table.num_rows()));
    return journal;
  }

  ScanInfo info;
  TABULA_RETURN_NOT_OK(ScanJournal(path, &info, nullptr));
  TABULA_RETURN_NOT_OK(ValidateSchemaMatch(info.fields, table.schema()));
  if (info.base_rows + info.rows > table.num_rows()) {
    return Status::InvalidArgument(
        "ingest journal holds rows the table does not (journal covers up "
        "to row " +
        std::to_string(info.base_rows + info.rows) + ", table has " +
        std::to_string(table.num_rows()) + "); Replay() it first");
  }
  if (info.truncated) {
    // Drop the torn tail record so appends resume on a record boundary.
    std::filesystem::resize_file(path,
                                 static_cast<uintmax_t>(info.valid_end), ec);
    if (ec) {
      return Status::IOError("cannot truncate torn tail of '" + path +
                             "': " + ec.message());
    }
  }
  journal->base_rows_ = info.base_rows;
  journal->journaled_rows_ = info.rows;
  journal->out_.open(path, std::ios::binary | std::ios::in | std::ios::out);
  if (!journal->out_) {
    return Status::IOError("cannot open '" + path + "' for appending");
  }
  journal->out_.seekp(info.valid_end);
  return journal;
}

Result<JournalReplayStats> IngestJournal::Replay(const std::string& path,
                                                 Table* table) {
  JournalReplayStats stats;
  std::error_code ec;
  if (!std::filesystem::exists(path, ec) || ec) return stats;  // nothing to do

  // Validation pass first: no row may land in the table before the
  // header (schema + base row count) is known to fit it.
  ScanInfo info;
  TABULA_RETURN_NOT_OK(ScanJournal(path, &info, nullptr));
  TABULA_RETURN_NOT_OK(ValidateSchemaMatch(info.fields, table->schema()));
  if (info.base_rows > table->num_rows()) {
    return Status::InvalidArgument(
        "ingest journal starts at row " + std::to_string(info.base_rows) +
        " but the table only has " + std::to_string(table->num_rows()) +
        " base rows");
  }

  ScanInfo apply_info;
  uint64_t next_row = 0;  // journal-relative index of the next batch row
  TABULA_RETURN_NOT_OK(ScanJournal(
      path, &apply_info, [&](const std::vector<std::vector<Value>>& batch) {
        for (const auto& row : batch) {
          const uint64_t absolute = info.base_rows + next_row;
          ++next_row;
          if (absolute < table->num_rows()) continue;  // already applied
          TABULA_RETURN_NOT_OK(table->AppendRow(row));
          ++stats.appended_rows;
        }
        return Status::OK();
      }));
  stats.batches = info.batches;
  stats.rows = info.rows;
  stats.truncated_tail = info.truncated;
  return stats;
}

Status IngestJournal::AppendBatch(
    const std::vector<std::vector<Value>>& rows) {
  if (!out_.is_open()) {
    return Status::Internal("ingest journal is not open");
  }
  const std::streamoff start = out_.tellp();
  auto rollback = [&]() {
    // Truncate the partial record back off so the file still ends on a
    // record boundary; reopen positioned at that boundary.
    out_.close();
    std::error_code ec;
    std::filesystem::resize_file(path_, static_cast<uintmax_t>(start), ec);
    out_.open(path_, std::ios::binary | std::ios::in | std::ios::out);
    if (out_) out_.seekp(start);
  };

  // Serialize the whole record into memory first: one stream write
  // instead of one per value, and the fault seam below then precedes
  // every byte that could reach the file.
  BufferWriter w;
  w.WriteU32(kBatchMarker);
  w.WriteU64(rows.size());
  Fnv fnv;
  fnv.Mix(rows.size());
  for (const auto& row : rows) {
    for (size_t c = 0; c < fields_.size(); ++c) {
      const Value& v = row[c];
      switch (fields_[c].second) {
        case DataType::kCategorical:
          w.WriteString(v.AsString());
          fnv.MixString(v.AsString());
          break;
        case DataType::kInt64:
          w.WriteU64(static_cast<uint64_t>(v.AsInt64()));
          fnv.Mix(static_cast<uint64_t>(v.AsInt64()));
          break;
        case DataType::kDouble:
          w.WriteDouble(v.AsDouble());
          fnv.MixDouble(v.AsDouble());
          break;
      }
    }
  }
  w.WriteU64(fnv.value());

  // Fault seam: a journal write that "fails" after the bytes were
  // buffered — the rollback must leave the journal at its pre-batch
  // state, which is what the mid-batch-atomicity regression tests pin.
  Status injected = Status::OK();
  if (FaultInjector::AnyArmed()) {
    try {
      injected = FaultInjector::Global().Hit("ingest.journal.write");
    } catch (...) {
      rollback();
      throw;
    }
  }
  if (!injected.ok()) {
    rollback();
    return injected;
  }

  out_.write(w.data(), static_cast<std::streamsize>(w.size()));
  out_.flush();
  if (!out_) {
    rollback();
    return Status::IOError("journal write failed for '" + path_ + "'");
  }
  journaled_rows_ += rows.size();
  return Status::OK();
}

Status IngestJournal::Reset(uint64_t base_rows) {
  if (out_.is_open()) out_.close();
  return WriteHeader(base_rows);
}

}  // namespace tabula
