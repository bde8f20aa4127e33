#include "net/wire.h"

#include <algorithm>
#include <cstring>
#include <utility>

#include "common/binary_io.h"
#include "core/query_request.h"
#include "exec/vector_ops.h"
#include "serve/query_server.h"

namespace tabula {

const char* FrameTypeName(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "Hello";
    case FrameType::kHelloAck: return "HelloAck";
    case FrameType::kQuery: return "Query";
    case FrameType::kAnswer: return "Answer";
    case FrameType::kBatchQuery: return "BatchQuery";
    case FrameType::kBatchAnswer: return "BatchAnswer";
    case FrameType::kError: return "Error";
    case FrameType::kPing: return "Ping";
    case FrameType::kPong: return "Pong";
    case FrameType::kAdmin: return "Admin";
    case FrameType::kAdminAck: return "AdminAck";
  }
  return "Unknown";
}

uint64_t WireChecksum(const char* data, size_t size) {
  return vec::Crc32c(data, size);
}

namespace {
void AppendRaw(std::string* out, const void* data, size_t bytes) {
  out->append(static_cast<const char*>(data), bytes);
}

/// The fewest bytes one encoded batch record can take, so a batch count
/// reserves no more records than the payload can hold: a QueryRequest
/// with no terms and no bounds (version, term count, deadline, trace,
/// consistency, bound count), and a batch item with an empty message and
/// no result (status code, message length; then the ServeAnswer's
/// version, result flag, cache hit, degraded, queue and total times,
/// error flag).
constexpr size_t kMinRequestBytes = 4 + 8 + 8 + 4 + 4 + 8;
constexpr size_t kMinBatchItemBytes = 4 + 8 + (4 + 4 + 4 + 4 + 8 + 8 + 4);
}  // namespace

std::string EncodeFrame(FrameType type, uint64_t request_id,
                        const std::string& payload) {
  std::string frame;
  frame.reserve(kFrameHeaderBytes + payload.size());
  uint32_t magic = kWireMagic;
  uint16_t version = kWireVersion;
  uint16_t type16 = static_cast<uint16_t>(type);
  uint32_t len = static_cast<uint32_t>(payload.size());
  uint64_t checksum = WireChecksum(payload.data(), payload.size());
  AppendRaw(&frame, &magic, sizeof(magic));
  AppendRaw(&frame, &version, sizeof(version));
  AppendRaw(&frame, &type16, sizeof(type16));
  AppendRaw(&frame, &request_id, sizeof(request_id));
  AppendRaw(&frame, &len, sizeof(len));
  AppendRaw(&frame, &checksum, sizeof(checksum));
  frame.append(payload);
  return frame;
}

Result<FrameHeader> DecodeFrameHeader(const char* header, size_t size) {
  if (size != kFrameHeaderBytes) {
    return Status::DataLoss("short frame header (" + std::to_string(size) +
                            " of " + std::to_string(kFrameHeaderBytes) +
                            " bytes)");
  }
  FrameHeader h;
  uint32_t magic = 0;
  uint16_t type16 = 0;
  size_t pos = 0;
  auto read = [&](void* dst, size_t n) {
    std::memcpy(dst, header + pos, n);
    pos += n;
  };
  read(&magic, sizeof(magic));
  read(&h.version, sizeof(h.version));
  read(&type16, sizeof(type16));
  read(&h.request_id, sizeof(h.request_id));
  read(&h.payload_len, sizeof(h.payload_len));
  read(&h.checksum, sizeof(h.checksum));
  if (magic != kWireMagic) {
    return Status::DataLoss("bad frame magic 0x" + std::to_string(magic));
  }
  if (h.version != kWireVersion) {
    return Status::DataLoss("unsupported wire version " +
                            std::to_string(h.version));
  }
  if (type16 < static_cast<uint16_t>(FrameType::kHello) ||
      type16 > static_cast<uint16_t>(FrameType::kAdminAck)) {
    return Status::DataLoss("unknown frame type " + std::to_string(type16));
  }
  h.type = static_cast<FrameType>(type16);
  if (h.payload_len > kMaxPayloadBytes) {
    return Status::DataLoss("implausible frame length " +
                            std::to_string(h.payload_len));
  }
  return h;
}

Status CheckFramePayload(const FrameHeader& header,
                         const std::string& payload) {
  if (payload.size() != header.payload_len) {
    return Status::DataLoss("torn frame payload (" +
                            std::to_string(payload.size()) + " of " +
                            std::to_string(header.payload_len) + " bytes)");
  }
  if (WireChecksum(payload.data(), payload.size()) != header.checksum) {
    return Status::DataLoss("frame checksum mismatch");
  }
  return Status::OK();
}

std::string EncodeHelloPayload(uint16_t min_version, uint16_t max_version) {
  BufferWriter w;
  w.WriteU32(min_version);
  w.WriteU32(max_version);
  return std::string(w.data(), w.size());
}

Result<std::pair<uint16_t, uint16_t>> DecodeHelloPayload(
    const std::string& payload) {
  BufferReader r(payload);
  TABULA_ASSIGN_OR_RETURN(uint32_t lo, r.ReadU32());
  TABULA_ASSIGN_OR_RETURN(uint32_t hi, r.ReadU32());
  if (lo > hi || hi > UINT16_MAX) {
    return Status::DataLoss("malformed hello version range");
  }
  return std::make_pair(static_cast<uint16_t>(lo), static_cast<uint16_t>(hi));
}

std::string EncodeHelloAckPayload(uint16_t version,
                                  const std::string& banner) {
  BufferWriter w;
  w.WriteU32(version);
  w.WriteString(banner);
  return std::string(w.data(), w.size());
}

Result<std::pair<uint16_t, std::string>> DecodeHelloAckPayload(
    const std::string& payload) {
  BufferReader r(payload);
  TABULA_ASSIGN_OR_RETURN(uint32_t version, r.ReadU32());
  TABULA_ASSIGN_OR_RETURN(std::string banner, r.ReadString());
  if (version > UINT16_MAX) {
    return Status::DataLoss("malformed hello-ack version");
  }
  return std::make_pair(static_cast<uint16_t>(version), std::move(banner));
}

std::string EncodeErrorPayload(const Status& status) {
  BufferWriter w;
  w.WriteU32(static_cast<uint32_t>(status.code()));
  w.WriteString(status.message());
  return std::string(w.data(), w.size());
}

Status DecodeErrorPayload(const std::string& payload) {
  BufferReader r(payload);
  auto code = r.ReadU32();
  if (!code.ok()) return Status::DataLoss("malformed error frame");
  auto message = r.ReadString();
  if (!message.ok()) return Status::DataLoss("malformed error frame");
  if (code.value() == 0 ||
      code.value() > static_cast<uint32_t>(StatusCode::kDataLoss)) {
    return Status::DataLoss("malformed error frame (code " +
                            std::to_string(code.value()) + ")");
  }
  return Status::FromCode(static_cast<StatusCode>(code.value()),
                          std::move(message).value());
}

std::string EncodeBatchQueryPayload(
    const std::vector<QueryRequest>& requests) {
  BufferWriter w;
  w.WriteU32(static_cast<uint32_t>(requests.size()));
  for (const QueryRequest& request : requests) {
    EncodeQueryRequest(request, &w);
  }
  return std::string(w.data(), w.size());
}

Result<std::vector<QueryRequest>> DecodeBatchQueryPayload(
    const std::string& payload) {
  BufferReader r(payload);
  TABULA_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
  if (count > (1u << 20)) {
    return Status::DataLoss("implausible batch size " +
                            std::to_string(count));
  }
  std::vector<QueryRequest> requests;
  requests.reserve(std::min<size_t>(count, r.remaining() / kMinRequestBytes));
  for (uint32_t i = 0; i < count; ++i) {
    TABULA_ASSIGN_OR_RETURN(QueryRequest request, DecodeQueryRequest(&r));
    requests.push_back(std::move(request));
  }
  return requests;
}

std::string EncodeBatchAnswerPayload(const std::vector<BatchItem>& items) {
  BufferWriter w;
  w.WriteU32(static_cast<uint32_t>(items.size()));
  for (const BatchItem& item : items) {
    w.WriteU32(static_cast<uint32_t>(item.status.code()));
    w.WriteString(item.status.message());
    EncodeServeAnswer(item.answer, &w);
  }
  return std::string(w.data(), w.size());
}

Result<std::vector<BatchItem>> DecodeBatchAnswerPayload(
    const std::string& payload, const Table* table) {
  BufferReader r(payload);
  TABULA_ASSIGN_OR_RETURN(uint32_t count, r.ReadU32());
  if (count > (1u << 20)) {
    return Status::DataLoss("implausible batch size " +
                            std::to_string(count));
  }
  std::vector<BatchItem> items;
  items.reserve(std::min<size_t>(count, r.remaining() / kMinBatchItemBytes));
  for (uint32_t i = 0; i < count; ++i) {
    BatchItem item;
    TABULA_ASSIGN_OR_RETURN(uint32_t code, r.ReadU32());
    TABULA_ASSIGN_OR_RETURN(std::string message, r.ReadString());
    if (code > static_cast<uint32_t>(StatusCode::kDataLoss)) {
      return Status::DataLoss("unknown status code " + std::to_string(code));
    }
    if (code != 0) {
      item.status =
          Status::FromCode(static_cast<StatusCode>(code), std::move(message));
    }
    TABULA_ASSIGN_OR_RETURN(item.answer, DecodeServeAnswer(&r, table));
    items.push_back(std::move(item));
  }
  return items;
}

std::string EncodeAdminPayload(const std::string& command) {
  BufferWriter w;
  w.WriteString(command);
  return std::string(w.data(), w.size());
}

Result<std::string> DecodeAdminPayload(const std::string& payload) {
  BufferReader r(payload);
  return r.ReadString();
}

std::string EncodeAdminAckPayload(const Status& status,
                                  const std::string& response) {
  BufferWriter w;
  w.WriteU32(static_cast<uint32_t>(status.code()));
  w.WriteString(status.message());
  w.WriteString(response);
  return std::string(w.data(), w.size());
}

Result<std::pair<Status, std::string>> DecodeAdminAckPayload(
    const std::string& payload) {
  BufferReader r(payload);
  TABULA_ASSIGN_OR_RETURN(uint32_t code, r.ReadU32());
  TABULA_ASSIGN_OR_RETURN(std::string message, r.ReadString());
  TABULA_ASSIGN_OR_RETURN(std::string response, r.ReadString());
  if (code > static_cast<uint32_t>(StatusCode::kDataLoss)) {
    return Status::DataLoss("unknown status code " + std::to_string(code));
  }
  Status status = code == 0 ? Status::OK()
                            : Status::FromCode(static_cast<StatusCode>(code),
                                               std::move(message));
  return std::make_pair(std::move(status), std::move(response));
}

}  // namespace tabula
