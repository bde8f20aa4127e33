#ifndef TABULA_NET_WIRE_H_
#define TABULA_NET_WIRE_H_

#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "common/status.h"

namespace tabula {

struct QueryRequest;  // core/query_request.h
struct BatchItem;     // serve/query_server.h
class Table;          // storage/table.h

// ---------------------------------------------------------------------
// Tabula wire protocol: length-prefixed, checksummed, versioned frames.
//
// Every message on a connection is one frame:
//
//   offset  size  field
//   0       4     magic      0x544E4254 ("TBNT", little-endian on wire)
//   4       2     version    protocol version (kWireVersion)
//   6       2     type       FrameType
//   8       8     request_id client-chosen correlation id, echoed back
//   16      4     payload_len
//   20      8     checksum   CRC32C of the payload, zero-extended to 64 bits
//   28      n     payload    type-specific (see codecs in binary_io.h)
//
// The fixed 28-byte header is checked first; a bad magic, a version
// other than kWireVersion, an unknown type or an implausible length is
// kDataLoss before any payload byte is looked at, and so is a checksum
// mismatch after it (a non-zero upper half of the checksum field never
// matches). The stream is unframeable from that point on and the
// connection must be closed (there is no resync marker; TCP guarantees
// ordering, so a torn frame means the peer died or the bytes are
// corrupt).
//
// CRC32C catches every error of 1-3 bits and every burst of up to 32
// bits in a frame of up to kMaxPayloadBytes; a random corruption goes
// unseen with probability 2^-32 (DESIGN.md §9 weighs this against the
// FNV-1a-64 checksum of version 2).
//
// Frames are read through a FrameReader (socket.h): one receive takes
// whatever the socket holds, so a frame written whole is read with one
// recv, and bytes past a frame wait in the reader for the next read.
// Each reply answers one request; bytes that follow a reply on the
// client side are kDataLoss.
//
// The protocol has one version. A client opens with kHello carrying the
// range of versions it speaks; the server answers kHelloAck with
// kWireVersion when the range includes it and kError otherwise, so a
// mismatched peer fails at connect time instead of on its first query.
// Every peer is built from this repository, so no older version is
// kept (DESIGN.md §9). Servers tolerate clients that skip the
// handshake: every frame header carries the version.
// ---------------------------------------------------------------------

inline constexpr uint32_t kWireMagic = 0x544E4254;  // "TBNT"
/// The protocol version every frame carries.
inline constexpr uint16_t kWireVersion = 3;
/// Refuse absurd frames before allocating (a corrupt length field must
/// not turn into a 4 GiB allocation).
inline constexpr uint32_t kMaxPayloadBytes = 64u << 20;

/// Frame type tags. Stable on the wire — append, never renumber.
enum class FrameType : uint16_t {
  kHello = 1,        ///< client → server: version range
  kHelloAck = 2,     ///< server → client: kWireVersion + banner
  kQuery = 3,        ///< encoded QueryRequest
  kAnswer = 4,       ///< encoded ServeAnswer
  kBatchQuery = 5,   ///< count + encoded QueryRequests
  kBatchAnswer = 6,  ///< count + per-item {status, ServeAnswer}
  kError = 7,        ///< status code + message (request-level failure)
  kPing = 8,         ///< liveness probe
  kPong = 9,         ///< liveness reply
  kAdmin = 10,       ///< command string (tools/tests: replica kills, ...)
  kAdminAck = 11,    ///< status + response string
};

const char* FrameTypeName(FrameType type);

/// One decoded frame.
struct Frame {
  FrameType type = FrameType::kPing;
  uint64_t request_id = 0;
  std::string payload;
};

/// CRC32C of a byte span, zero-extended (the frame checksum).
uint64_t WireChecksum(const char* data, size_t size);

/// Serializes a frame (header + payload) into one contiguous buffer so
/// the caller can hand the whole frame to a single write.
std::string EncodeFrame(FrameType type, uint64_t request_id,
                        const std::string& payload);

/// Validates and decodes the fixed header. `header` must hold exactly
/// kFrameHeaderBytes. Returns the frame with its payload still empty;
/// the caller reads `payload_len` more bytes and calls CheckPayload.
inline constexpr size_t kFrameHeaderBytes = 28;
struct FrameHeader {
  uint16_t version = 0;
  FrameType type = FrameType::kPing;
  uint64_t request_id = 0;
  uint32_t payload_len = 0;
  uint64_t checksum = 0;
};
Result<FrameHeader> DecodeFrameHeader(const char* header, size_t size);

/// Verifies the payload against the header checksum (kDataLoss on
/// mismatch — the bytes cannot be trusted, close the connection).
Status CheckFramePayload(const FrameHeader& header,
                         const std::string& payload);

/// Payload helpers for the fixed-shape frame types.
std::string EncodeHelloPayload(uint16_t min_version, uint16_t max_version);
Result<std::pair<uint16_t, uint16_t>> DecodeHelloPayload(
    const std::string& payload);
std::string EncodeHelloAckPayload(uint16_t version,
                                  const std::string& banner);
Result<std::pair<uint16_t, std::string>> DecodeHelloAckPayload(
    const std::string& payload);
std::string EncodeErrorPayload(const Status& status);
/// Decodes a kError payload into the Status it carries (never OK; a
/// malformed payload yields kDataLoss, which callers already treat as
/// a transport-level failure).
Status DecodeErrorPayload(const std::string& payload);

/// kBatchQuery / kBatchAnswer payloads: a count followed by the
/// QueryRequest / {Status, ServeAnswer} codecs from binary_io.h.
std::string EncodeBatchQueryPayload(
    const std::vector<QueryRequest>& requests);
Result<std::vector<QueryRequest>> DecodeBatchQueryPayload(
    const std::string& payload);
std::string EncodeBatchAnswerPayload(const std::vector<BatchItem>& items);
Result<std::vector<BatchItem>> DecodeBatchAnswerPayload(
    const std::string& payload, const Table* table);

/// kAdmin / kAdminAck payloads: a command string in, a {status,
/// response} pair back.
std::string EncodeAdminPayload(const std::string& command);
Result<std::string> DecodeAdminPayload(const std::string& payload);
std::string EncodeAdminAckPayload(const Status& status,
                                  const std::string& response);
Result<std::pair<Status, std::string>> DecodeAdminAckPayload(
    const std::string& payload);

}  // namespace tabula

#endif  // TABULA_NET_WIRE_H_
