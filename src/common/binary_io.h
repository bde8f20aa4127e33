#ifndef TABULA_COMMON_BINARY_IO_H_
#define TABULA_COMMON_BINARY_IO_H_

#include <cstdint>
#include <cstring>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"

namespace tabula {

/// Checked records: the one record shape of the ingest journal's batches,
/// the cold-spill file's samples and the cube file's and shard
/// manifest's bodies,
///
///   [u32 payload length][u32 CRC32C of the payload][payload]
///
/// with the wire's CRC32C (`vec::Crc32c`, DESIGN.md §9). A payload is
/// never empty.
inline constexpr size_t kRecordHeaderBytes = 8;
/// The largest payload one record holds (its length is a u32).
inline constexpr uint64_t kMaxRecordPayload = UINT32_MAX;

/// Little-endian binary serialization into memory: the one encoder of
/// the cube file, the shard manifest, the ingest journal, the cold-spill
/// file and the wire payloads. A whole file or record is encoded first
/// and then lands in ONE write.
class BufferWriter {
 public:
  void WriteU32(uint32_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteU64(uint64_t v) { WriteRaw(&v, sizeof(v)); }
  void WriteDouble(double v) { WriteRaw(&v, sizeof(v)); }
  void WriteString(const std::string& s) {
    WriteU64(s.size());
    WriteRaw(s.data(), s.size());
  }
  template <typename T>
  void WriteVector(const std::vector<T>& v) {
    static_assert(std::is_trivially_copyable_v<T>);
    WriteU64(v.size());
    WriteRaw(v.data(), v.size() * sizeof(T));
  }
  /// Appends `payload` (1 to kMaxRecordPayload bytes) as one checked
  /// record; BufferReader::ReadRecord reads it back.
  void WriteRecord(const BufferWriter& payload);

  const char* data() const { return buf_.data(); }
  size_t size() const { return buf_.size(); }

 private:
  void WriteRaw(const void* data, size_t bytes) {
    buf_.append(static_cast<const char*>(data), bytes);
  }
  std::string buf_;
};

/// Reads what BufferWriter wrote, from an in-memory byte span: a frame
/// payload the network layer holds, or a file read whole (ReadFileBytes).
/// Reads are memcpys with a bounds check. Running past the end is
/// kDataLoss, and every count a record announces is checked against the
/// bytes left before anything is allocated for it, so a corrupt count is
/// kDataLoss, never an allocation of the size it claims.
class BufferReader {
 public:
  explicit BufferReader(std::string_view data) : data_(data) {}
  BufferReader(const char* data, size_t size) : data_(data, size) {}

  Result<uint32_t> ReadU32() {
    uint32_t v = 0;
    TABULA_RETURN_NOT_OK(ReadRaw(&v, sizeof(v)));
    return v;
  }
  Result<uint64_t> ReadU64() {
    uint64_t v = 0;
    TABULA_RETURN_NOT_OK(ReadRaw(&v, sizeof(v)));
    return v;
  }
  Result<double> ReadDouble() {
    double v = 0;
    TABULA_RETURN_NOT_OK(ReadRaw(&v, sizeof(v)));
    return v;
  }
  Result<std::string> ReadString() {
    TABULA_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
    if (n > remaining()) return Status::DataLoss("string too long");
    std::string s(n, '\0');
    TABULA_RETURN_NOT_OK(ReadRaw(s.data(), n));
    return s;
  }
  template <typename T>
  Result<std::vector<T>> ReadVector() {
    static_assert(std::is_trivially_copyable_v<T>);
    TABULA_ASSIGN_OR_RETURN(uint64_t n, ReadU64());
    // Divide rather than multiply: n * sizeof(T) wraps for a corrupt
    // count near 2^64 and would pass the check.
    if (n > remaining() / sizeof(T)) {
      return Status::DataLoss("vector too long");
    }
    std::vector<T> v(n);
    TABULA_RETURN_NOT_OK(ReadRaw(v.data(), n * sizeof(T)));
    return v;
  }
  /// Reads one record written by BufferWriter::WriteRecord and returns a
  /// reader over its payload. The length and the checksum are checked
  /// before a payload byte is decoded: a record that runs past the bytes
  /// left (torn), announces no payload (zero-filled) or whose CRC32C does
  /// not match (flipped) is kDataLoss.
  Result<BufferReader> ReadRecord();

  size_t remaining() const { return data_.size() - pos_; }
  bool exhausted() const { return pos_ == data_.size(); }

 private:
  Status ReadRaw(void* data, size_t bytes) {
    if (bytes > remaining()) {
      return Status::DataLoss("unexpected end of buffer (truncated record)");
    }
    // An empty vector's data() may be null, and memcpy to null is
    // undefined even for zero bytes.
    if (bytes == 0) return Status::OK();
    std::memcpy(data, data_.data() + pos_, bytes);
    pos_ += bytes;
    return Status::OK();
  }
  std::string_view data_;
  size_t pos_ = 0;
};

/// The whole file at `path`, for a BufferReader: kIOError when it cannot
/// be opened or read.
Result<std::string> ReadFileBytes(const std::string& path);

// ---------------------------------------------------------------------
// Canonical binary encodings of the query surface.
//
// `QueryRequest` and `ServeAnswer` are THE request/answer contract of
// the stack (see core/query_request.h, serve/query_server.h); these
// codecs give both structs one explicit, versioned binary form shared
// by the wire protocol (src/net/) and available to any persistence
// path. Each record starts with a u32 codec version, always the one
// current version: a decoder rejects any other with kDataLoss naming
// it instead of misparsing. No older form is read — every peer is
// built from this repository (DESIGN.md §9). Process-local fields (`QueryRequest::parent_span`,
// `ServeAnswer::span_id`) are deliberately NOT part of the encoding —
// span ids do not survive a process boundary; RPC layers re-parent
// spans on their own side.
// ---------------------------------------------------------------------

struct QueryRequest;   // core/query_request.h
struct ServeAnswer;    // serve/query_server.h
class Value;           // storage/value.h
class Table;           // storage/table.h

/// The codec version of both records: a QueryRequest carries its
/// spatial range (bound count + per-bound column/lo/hi) and a
/// ServeAnswer its sample-store degradation flag, present or not.
inline constexpr uint16_t kQueryCodecVersion = 3;

/// Appends the versioned encoding of a Value (type tag + payload).
void EncodeValue(const Value& value, BufferWriter* out);
Result<Value> DecodeValue(BufferReader* in);

/// Appends the versioned encoding of `request` to `out`. Everything
/// except `parent_span` round-trips: predicates, spatial range,
/// deadline, trace flag, consistency hint.
void EncodeQueryRequest(const QueryRequest& request, BufferWriter* out);
Result<QueryRequest> DecodeQueryRequest(BufferReader* in);

/// Appends the versioned encoding of `answer` to `out`. The embedded
/// TabulaQueryResult travels as its row-id list plus all metadata
/// (loss/degradation flags, unavailable shards, shard_error, generation,
/// staleness); the base-table pointer obviously does not cross the
/// wire. `answer.result == nullptr` (failed requests) encodes as an
/// explicit absent marker.
void EncodeServeAnswer(const ServeAnswer& answer, BufferWriter* out);

/// Decodes an answer. `table` (may be null) becomes the base table of
/// the reconstructed sample view: a server-side decoder passes its
/// table so samples are directly usable; a thin client passes nullptr
/// and still sees sizes and row ids.
Result<ServeAnswer> DecodeServeAnswer(BufferReader* in, const Table* table);

}  // namespace tabula

#endif  // TABULA_COMMON_BINARY_IO_H_
