#include "ingest/ingest_journal.h"

#include <algorithm>
#include <filesystem>
#include <functional>

#include "common/binary_io.h"
#include "testing/fault_injection.h"

namespace tabula {

namespace {

constexpr uint32_t kJournalMagic = 0x544A424C;  // "TBLJ" (LE bytes LBJT)
/// The one journal version this build reads and writes; any other is
/// kParseError naming it.
constexpr uint32_t kJournalVersion = 2;

using Batch = std::vector<std::vector<Value>>;

std::vector<std::pair<std::string, DataType>> SchemaFields(
    const Schema& schema) {
  std::vector<std::pair<std::string, DataType>> fields;
  fields.reserve(schema.num_fields());
  for (const Field& f : schema.fields()) fields.emplace_back(f.name, f.type);
  return fields;
}

/// Everything a pass over a journal file learns.
struct ScanInfo {
  uint64_t base_rows = 0;
  /// Byte offset just past the last intact record (= where appending
  /// may resume; anything beyond is a torn tail).
  uint64_t valid_end = 0;
  size_t batches = 0;
  uint64_t rows = 0;
  bool truncated = false;
};

/// Decodes one batch record's payload: the row count, then the rows'
/// values row-major, typed per `schema` (categoricals as strings).
Status DecodeBatch(BufferReader* r, const Schema& schema, Batch* batch) {
  TABULA_ASSIGN_OR_RETURN(uint64_t nrows, r->ReadU64());
  // Every value takes at least 8 bytes: a corrupt count reserves no more
  // rows than the record holds.
  const uint64_t row_bytes = std::max<uint64_t>(1, 8 * schema.num_fields());
  if (nrows > r->remaining() / row_bytes) {
    return Status::DataLoss("ingest journal batch claims " +
                            std::to_string(nrows) + " rows; it is corrupt");
  }
  batch->reserve(nrows);
  for (uint64_t row = 0; row < nrows; ++row) {
    std::vector<Value> values;
    values.reserve(schema.num_fields());
    for (const Field& field : schema.fields()) {
      switch (field.type) {
        case DataType::kCategorical: {
          TABULA_ASSIGN_OR_RETURN(std::string v, r->ReadString());
          values.emplace_back(std::move(v));
          break;
        }
        case DataType::kInt64: {
          TABULA_ASSIGN_OR_RETURN(uint64_t v, r->ReadU64());
          values.emplace_back(static_cast<int64_t>(v));
          break;
        }
        case DataType::kDouble: {
          TABULA_ASSIGN_OR_RETURN(double v, r->ReadDouble());
          values.emplace_back(v);
          break;
        }
      }
    }
    batch->push_back(std::move(values));
  }
  if (!r->exhausted()) {
    return Status::DataLoss("ingest journal batch has trailing bytes");
  }
  return Status::OK();
}

/// Reads the header, checks its schema against `schema`, and reads every
/// intact batch record, invoking `cb` (when non-null) with each batch's
/// rows. The file is read in pieces, the header field by field and then
/// one record at a time, so a scan never holds more than one batch. A
/// record that runs past the end or fails its checksum sets `truncated`
/// and stops the scan without failing it; a malformed header, a schema
/// mismatch, or an intact record that does not decode fails the call.
Status ScanJournal(const std::string& path, const Schema& schema,
                   ScanInfo* info,
                   const std::function<Status(const Batch&)>& cb) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamoff size = in ? std::streamoff(in.tellg()) : -1;
  if (size < 0) {
    return Status::IOError("cannot open '" + path + "' for reading");
  }
  in.seekg(0);
  uint64_t left = static_cast<uint64_t>(size);
  // Appends the next `n` bytes to `*bytes`; kDataLoss, before anything
  // is allocated, when the file ends first.
  auto take = [&](uint64_t n, std::string* bytes) -> Status {
    if (n > left) return Status::DataLoss("the ingest journal ends early");
    const size_t at = bytes->size();
    bytes->resize(at + n);
    if (!in.read(bytes->data() + at, static_cast<std::streamsize>(n))) {
      return Status::IOError("read failed for '" + path + "'");
    }
    left -= n;
    return Status::OK();
  };

  // The fixed words (fewer when the file is shorter, so a foreign file
  // fails on its magic first), then each field once its length is known.
  std::string head;
  TABULA_RETURN_NOT_OK(take(std::min<uint64_t>(4 + 4 + 8 + 8, left), &head));
  BufferReader r(head);
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
  std::vector<std::pair<std::string, DataType>> fields;
  for (uint64_t i = 0; i < num_fields; ++i) {
    std::string field;  // name length, name, type word
    TABULA_RETURN_NOT_OK(take(8, &field));
    TABULA_RETURN_NOT_OK(take(*BufferReader(field).ReadU64(), &field));
    TABULA_RETURN_NOT_OK(take(4, &field));
    BufferReader f(field);
    TABULA_ASSIGN_OR_RETURN(std::string name, f.ReadString());
    TABULA_ASSIGN_OR_RETURN(uint32_t type, f.ReadU32());
    if (type > static_cast<uint32_t>(DataType::kDouble)) {
      return Status::ParseError("ingest journal names unknown column type " +
                                std::to_string(type));
    }
    fields.emplace_back(std::move(name), static_cast<DataType>(type));
  }
  if (fields != SchemaFields(schema)) {
    return Status::InvalidArgument(
        "ingest journal schema differs from the table's (" +
        schema.ToString() + ")");
  }
  info->valid_end = size - left;

  // Records until the file ends. A record that runs past the end or
  // fails its checksum is a torn tail: the writer flushes per record and
  // truncates failed writes back, so a broken record can only be the
  // crash frontier — drop it, keep everything before.
  while (left > 0) {
    std::string bytes;  // the record head, then as many bytes as it says
    Status taken = take(kRecordHeaderBytes, &bytes);
    if (taken.ok()) taken = take(*BufferReader(bytes).ReadU32(), &bytes);
    if (taken.code() == StatusCode::kIOError) return taken;
    BufferReader whole(bytes);
    Result<BufferReader> record = whole.ReadRecord();
    if (!taken.ok() || !record.ok()) {
      info->truncated = true;
      break;
    }
    Batch batch;
    TABULA_RETURN_NOT_OK(DecodeBatch(&record.value(), schema, &batch));
    ++info->batches;
    info->rows += batch.size();
    info->valid_end = size - left;
    if (cb != nullptr) {
      TABULA_RETURN_NOT_OK(cb(batch));
    }
  }
  return Status::OK();
}

}  // namespace

Status IngestJournal::WriteHeader(uint64_t base_rows) {
  out_.open(path_, std::ios::binary | std::ios::trunc);
  if (!out_) {
    return Status::IOError("cannot open '" + path_ + "' for writing");
  }
  BufferWriter w;
  w.WriteU32(kJournalMagic);
  w.WriteU32(kJournalVersion);
  w.WriteU64(base_rows);
  w.WriteU64(fields_.size());
  for (const auto& [name, type] : fields_) {
    w.WriteString(name);
    w.WriteU32(static_cast<uint32_t>(type));
  }
  out_.write(w.data(), static_cast<std::streamsize>(w.size()));
  out_.flush();
  if (!out_) {
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
  TABULA_RETURN_NOT_OK(ScanJournal(path, table.schema(), &info, nullptr));
  if (info.base_rows > table.num_rows() ||
      info.rows > table.num_rows() - info.base_rows) {
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
  journal->out_.seekp(static_cast<std::streamoff>(info.valid_end));
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
  TABULA_RETURN_NOT_OK(ScanJournal(path, table->schema(), &info, nullptr));
  if (info.base_rows > table->num_rows()) {
    return Status::InvalidArgument(
        "ingest journal starts at row " + std::to_string(info.base_rows) +
        " but the table only has " + std::to_string(table->num_rows()) +
        " base rows");
  }

  ScanInfo apply_info;
  uint64_t next_row = 0;  // journal-relative index of the next batch row
  TABULA_RETURN_NOT_OK(ScanJournal(
      path, table->schema(), &apply_info, [&](const Batch& batch) {
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
  BufferWriter payload;
  payload.WriteU64(rows.size());
  for (const auto& row : rows) {
    for (size_t c = 0; c < fields_.size(); ++c) {
      const Value& v = row[c];
      switch (fields_[c].second) {
        case DataType::kCategorical:
          payload.WriteString(v.AsString());
          break;
        case DataType::kInt64:
          payload.WriteU64(static_cast<uint64_t>(v.AsInt64()));
          break;
        case DataType::kDouble:
          payload.WriteDouble(v.AsDouble());
          break;
      }
    }
  }
  if (payload.size() > kMaxRecordPayload) {
    return Status::InvalidArgument(
        "ingest batch encodes to " + std::to_string(payload.size()) +
        " bytes; one journal record holds at most " +
        std::to_string(kMaxRecordPayload));
  }
  BufferWriter w;
  w.WriteRecord(payload);

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
