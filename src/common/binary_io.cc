#include "common/binary_io.h"

#include <algorithm>
#include <fstream>
#include <utility>

#include "common/logging.h"
#include "core/query_request.h"
#include "exec/vector_ops.h"
#include "serve/query_server.h"
#include "storage/predicate.h"
#include "storage/table.h"
#include "storage/value.h"

namespace tabula {

void BufferWriter::WriteRecord(const BufferWriter& payload) {
  TABULA_CHECK(payload.size() > 0 && payload.size() <= kMaxRecordPayload);
  WriteU32(static_cast<uint32_t>(payload.size()));
  WriteU32(vec::Crc32c(payload.data(), payload.size()));
  WriteRaw(payload.data(), payload.size());
}

Result<BufferReader> BufferReader::ReadRecord() {
  TABULA_ASSIGN_OR_RETURN(uint32_t len, ReadU32());
  TABULA_ASSIGN_OR_RETURN(uint32_t crc, ReadU32());
  // No writer writes an empty record, and the CRC32C of no bytes is 0:
  // eight zero bytes (a tail the OS zero-filled after a crash) would
  // otherwise read as a record that passes its checksum.
  if (len == 0) return Status::DataLoss("empty record");
  if (len > remaining()) {
    return Status::DataLoss("torn record: " + std::to_string(len) +
                            " payload bytes announced, " +
                            std::to_string(remaining()) + " left");
  }
  const char* payload = data_.data() + pos_;
  if (vec::Crc32c(payload, len) != crc) {
    return Status::DataLoss("record failed its CRC32C checksum");
  }
  pos_ += len;
  return BufferReader(payload, len);
}

Result<std::string> ReadFileBytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return Status::IOError("cannot open '" + path + "' for reading");
  const std::streamoff size = in.tellg();
  std::string bytes(size > 0 ? static_cast<size_t>(size) : 0, '\0');
  in.seekg(0);
  if (size < 0 || !in.read(bytes.data(), size)) {
    return Status::IOError("read failed for '" + path + "'");
  }
  return bytes;
}

namespace {

// Value type tags. Stable on the wire — append, never renumber.
constexpr uint32_t kValueNull = 0;
constexpr uint32_t kValueInt64 = 1;
constexpr uint32_t kValueDouble = 2;
constexpr uint32_t kValueString = 3;

/// The fewest bytes one encoded record can take, so a count read off the
/// wire reserves no more records than the bytes left can hold: a term
/// (column length, op, value tag), a bound (column length, lo, hi), and
/// a QueryRequest with no terms and no bounds.
constexpr size_t kMinTermBytes = 8 + 4 + 4;
constexpr size_t kMinBoundBytes = 8 + 8 + 8;

/// Reads a record's version; anything but kQueryCodecVersion is
/// kDataLoss naming the version.
Status CheckVersion(BufferReader* in, const char* what) {
  TABULA_ASSIGN_OR_RETURN(uint32_t version, in->ReadU32());
  if (version != kQueryCodecVersion) {
    return Status::DataLoss(std::string("unsupported ") + what +
                            " codec version " + std::to_string(version));
  }
  return Status::OK();
}

void EncodeStatus(const Status& status, BufferWriter* out) {
  out->WriteU32(static_cast<uint32_t>(status.code()));
  out->WriteString(status.message());
}

/// Out-parameter form (Result<Status> would make the error channel and
/// the decoded value the same type): the return is the decode outcome,
/// `*out` the decoded status.
Status DecodeStatusInto(BufferReader* in, Status* out) {
  TABULA_ASSIGN_OR_RETURN(uint32_t code, in->ReadU32());
  TABULA_ASSIGN_OR_RETURN(std::string message, in->ReadString());
  // Bounds-check before the enum cast: a corrupt code must not forge an
  // out-of-range StatusCode (or a fake OK carrying a message).
  if (code > static_cast<uint32_t>(StatusCode::kDataLoss)) {
    return Status::DataLoss("unknown status code " + std::to_string(code));
  }
  *out = code == 0 ? Status::OK()
                   : Status::FromCode(static_cast<StatusCode>(code),
                                      std::move(message));
  return Status::OK();
}

}  // namespace

void EncodeValue(const Value& value, BufferWriter* out) {
  if (value.is_null()) {
    out->WriteU32(kValueNull);
  } else if (value.is_int64()) {
    out->WriteU32(kValueInt64);
    out->WriteU64(static_cast<uint64_t>(value.AsInt64()));
  } else if (value.is_double()) {
    out->WriteU32(kValueDouble);
    out->WriteDouble(value.AsDouble());
  } else {
    out->WriteU32(kValueString);
    out->WriteString(value.AsString());
  }
}

Result<Value> DecodeValue(BufferReader* in) {
  TABULA_ASSIGN_OR_RETURN(uint32_t tag, in->ReadU32());
  switch (tag) {
    case kValueNull:
      return Value();
    case kValueInt64: {
      TABULA_ASSIGN_OR_RETURN(uint64_t v, in->ReadU64());
      return Value(static_cast<int64_t>(v));
    }
    case kValueDouble: {
      TABULA_ASSIGN_OR_RETURN(double v, in->ReadDouble());
      return Value(v);
    }
    case kValueString: {
      TABULA_ASSIGN_OR_RETURN(std::string v, in->ReadString());
      return Value(std::move(v));
    }
    default:
      return Status::DataLoss("unknown value tag " + std::to_string(tag));
  }
}

void EncodeQueryRequest(const QueryRequest& request, BufferWriter* out) {
  out->WriteU32(kQueryCodecVersion);
  out->WriteU64(request.where.size());
  for (const PredicateTerm& term : request.where) {
    out->WriteString(term.column);
    out->WriteU32(static_cast<uint32_t>(term.op));
    EncodeValue(term.literal, out);
  }
  out->WriteDouble(request.deadline_ms);
  out->WriteU32(request.trace ? 1 : 0);
  out->WriteU32(static_cast<uint32_t>(request.consistency));
  out->WriteU64(request.range.bounds.size());
  for (const SpatialBound& bound : request.range.bounds) {
    out->WriteString(bound.column);
    out->WriteDouble(bound.lo);
    out->WriteDouble(bound.hi);
  }
}

Result<QueryRequest> DecodeQueryRequest(BufferReader* in) {
  TABULA_RETURN_NOT_OK(CheckVersion(in, "QueryRequest"));
  QueryRequest request;
  TABULA_ASSIGN_OR_RETURN(uint64_t n_terms, in->ReadU64());
  if (n_terms > (1u << 16)) {
    return Status::DataLoss("implausible predicate count " +
                            std::to_string(n_terms));
  }
  request.where.reserve(std::min<uint64_t>(n_terms,
                                           in->remaining() / kMinTermBytes));
  for (uint64_t i = 0; i < n_terms; ++i) {
    PredicateTerm term;
    TABULA_ASSIGN_OR_RETURN(term.column, in->ReadString());
    TABULA_ASSIGN_OR_RETURN(uint32_t op, in->ReadU32());
    if (op > static_cast<uint32_t>(CompareOp::kGe)) {
      return Status::DataLoss("unknown compare op " + std::to_string(op));
    }
    term.op = static_cast<CompareOp>(op);
    TABULA_ASSIGN_OR_RETURN(term.literal, DecodeValue(in));
    request.where.push_back(std::move(term));
  }
  TABULA_ASSIGN_OR_RETURN(request.deadline_ms, in->ReadDouble());
  TABULA_ASSIGN_OR_RETURN(uint32_t trace, in->ReadU32());
  request.trace = trace != 0;
  TABULA_ASSIGN_OR_RETURN(uint32_t consistency, in->ReadU32());
  if (consistency >
      static_cast<uint32_t>(ConsistencyHint::kFreshWithinDeadline)) {
    return Status::DataLoss("unknown consistency hint " +
                            std::to_string(consistency));
  }
  request.consistency = static_cast<ConsistencyHint>(consistency);
  TABULA_ASSIGN_OR_RETURN(uint64_t n_bounds, in->ReadU64());
  if (n_bounds > (1u << 8)) {
    return Status::DataLoss("implausible spatial bound count " +
                            std::to_string(n_bounds));
  }
  request.range.bounds.reserve(
      std::min<uint64_t>(n_bounds, in->remaining() / kMinBoundBytes));
  for (uint64_t i = 0; i < n_bounds; ++i) {
    SpatialBound bound;
    TABULA_ASSIGN_OR_RETURN(bound.column, in->ReadString());
    TABULA_ASSIGN_OR_RETURN(bound.lo, in->ReadDouble());
    TABULA_ASSIGN_OR_RETURN(bound.hi, in->ReadDouble());
    request.range.bounds.push_back(std::move(bound));
  }
  return request;
}

void EncodeServeAnswer(const ServeAnswer& answer, BufferWriter* out) {
  out->WriteU32(kQueryCodecVersion);
  out->WriteU32(answer.result != nullptr ? 1 : 0);
  if (answer.result != nullptr) {
    const TabulaQueryResult& r = *answer.result;
    out->WriteVector(r.sample.ToRowIds());
    out->WriteU32(r.from_local_sample ? 1 : 0);
    out->WriteU32(r.empty_cell ? 1 : 0);
    out->WriteDouble(r.data_system_millis);
    out->WriteVector(r.unavailable_shards);
    EncodeStatus(r.shard_error, out);
    out->WriteU64(r.generation);
    out->WriteU32(r.stale ? 1 : 0);
    out->WriteU32(r.store_degraded ? 1 : 0);
  }
  out->WriteU32(answer.cache_hit ? 1 : 0);
  out->WriteU32(answer.degraded ? 1 : 0);
  out->WriteDouble(answer.queue_millis);
  out->WriteDouble(answer.total_millis);
  out->WriteU32(answer.error ? 1 : 0);
}

Result<ServeAnswer> DecodeServeAnswer(BufferReader* in, const Table* table) {
  TABULA_RETURN_NOT_OK(CheckVersion(in, "ServeAnswer"));
  ServeAnswer answer;
  TABULA_ASSIGN_OR_RETURN(uint32_t has_result, in->ReadU32());
  if (has_result != 0) {
    TabulaQueryResult result;
    TABULA_ASSIGN_OR_RETURN(std::vector<RowId> rows,
                            in->ReadVector<RowId>());
    if (table != nullptr) {
      for (RowId r : rows) {
        if (r >= table->num_rows()) {
          return Status::DataLoss("sample row id " + std::to_string(r) +
                                  " out of range");
        }
      }
    }
    result.sample = DatasetView(table, std::move(rows));
    TABULA_ASSIGN_OR_RETURN(uint32_t from_local, in->ReadU32());
    result.from_local_sample = from_local != 0;
    TABULA_ASSIGN_OR_RETURN(uint32_t empty_cell, in->ReadU32());
    result.empty_cell = empty_cell != 0;
    TABULA_ASSIGN_OR_RETURN(result.data_system_millis, in->ReadDouble());
    TABULA_ASSIGN_OR_RETURN(result.unavailable_shards,
                            in->ReadVector<uint32_t>());
    TABULA_RETURN_NOT_OK(DecodeStatusInto(in, &result.shard_error));
    TABULA_ASSIGN_OR_RETURN(result.generation, in->ReadU64());
    TABULA_ASSIGN_OR_RETURN(uint32_t stale, in->ReadU32());
    result.stale = stale != 0;
    TABULA_ASSIGN_OR_RETURN(uint32_t store_degraded, in->ReadU32());
    result.store_degraded = store_degraded != 0;
    answer.result =
        std::make_shared<const TabulaQueryResult>(std::move(result));
  }
  TABULA_ASSIGN_OR_RETURN(uint32_t cache_hit, in->ReadU32());
  answer.cache_hit = cache_hit != 0;
  TABULA_ASSIGN_OR_RETURN(uint32_t degraded, in->ReadU32());
  answer.degraded = degraded != 0;
  TABULA_ASSIGN_OR_RETURN(answer.queue_millis, in->ReadDouble());
  TABULA_ASSIGN_OR_RETURN(answer.total_millis, in->ReadDouble());
  TABULA_ASSIGN_OR_RETURN(uint32_t error, in->ReadU32());
  answer.error = error != 0;
  return answer;
}

}  // namespace tabula
