/// Seeded mutation test over the wire decoders (`ctest -L net`).
///
/// Inputs are frames built by EncodeFrame around a payload of every frame
/// type either side decodes. Each input is mutated by seeded bit flips
/// (raw, so the checksum catches them, and re-sealed with a fresh
/// checksum, so the payload decoder sees them), truncations at every
/// header offset and at random payload offsets, and a length field
/// inflated up to kMaxPayloadBytes. Every mutant goes through a socket
/// pair into a FrameReader and then into its payload decoder, and must
/// end in OK or an error Status within the read deadline: no crash, no
/// hang, and the reader's buffer never above a fixed cap. A last family
/// inflates the record counts the decoders read before their records;
/// each must fail having reserved no more than the payload can hold.

#include <gtest/gtest.h>
#include <sys/socket.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <cstring>
#include <new>
#include <random>
#include <string>
#include <utility>
#include <vector>

#include "common/binary_io.h"
#include "core/query_request.h"
#include "net/socket.h"
#include "net/wire.h"
#include "serve/query_server.h"

namespace tabula {
namespace {

/// The largest single heap request made while `g_track_heap` is on. A
/// decoder's up-front reservation is freed before the decoder returns,
/// so the heap it leaves behind (what mallinfo2 reports) cannot show
/// it; the largest request can. Counted by the operator new below.
std::atomic<bool> g_track_heap{false};
std::atomic<size_t> g_largest_request{0};

void NoteRequest(size_t size) {
  if (!g_track_heap.load(std::memory_order_relaxed)) return;
  size_t seen = g_largest_request.load(std::memory_order_relaxed);
  while (size > seen &&
         !g_largest_request.compare_exchange_weak(seen, size)) {
  }
}

}  // namespace
}  // namespace tabula

void* operator new(std::size_t size) {
  tabula::NoteRequest(size);
  void* p = std::malloc(size == 0 ? 1 : size);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}
void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  tabula::NoteRequest(size);
  return std::malloc(size == 0 ? 1 : size);
}
// Out of line, so the compiler never pairs an inlined free() with a
// new-expression at a call site.
[[gnu::noinline]] void operator delete(void* p) noexcept { std::free(p); }
[[gnu::noinline]] void operator delete(void* p, std::size_t) noexcept {
  std::free(p);
}
[[gnu::noinline]] void operator delete(void* p,
                                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace tabula {
namespace {

constexpr double kReadDeadlineMs = 2000.0;
/// The reader never needs more than its floor here: every mutant is
/// smaller than it, and an inflated length adds no bytes.
constexpr size_t kBufferCap = FrameReader::kFloorBytes;

QueryRequest SampleRequest() {
  QueryRequest request;
  request.where = {{"payment_type", CompareOp::kEq, Value("Cash")},
                   {"passenger_count", CompareOp::kLe, Value(int64_t{3})},
                   {"fare_amount", CompareOp::kGt, Value(12.5)}};
  request.deadline_ms = 25.0;
  request.trace = true;
  request.consistency = ConsistencyHint::kFreshWithinDeadline;
  request.range.bounds = {{"pickup_x", 0.25, 0.75}, {"pickup_y", -1.0, 2.0}};
  return request;
}

ServeAnswer SampleAnswer() {
  auto result = std::make_shared<TabulaQueryResult>();
  result->sample = DatasetView(nullptr, {3, 1, 4, 1, 5, 9, 2, 6});
  result->from_local_sample = true;
  result->unavailable_shards = {2};
  result->shard_error = Status::Unavailable("replica group 2 is down");
  result->generation = 7;
  result->stale = true;
  ServeAnswer answer;
  answer.result = std::move(result);
  answer.cache_hit = true;
  answer.queue_millis = 0.5;
  answer.total_millis = 1.5;
  return answer;
}

/// One well-formed payload per frame type.
std::vector<std::pair<FrameType, std::string>> SeedPayloads() {
  BufferWriter query;
  EncodeQueryRequest(SampleRequest(), &query);
  BufferWriter answer;
  EncodeServeAnswer(SampleAnswer(), &answer);
  std::vector<BatchItem> items(2);
  items[0].answer = SampleAnswer();
  items[1].status = Status::InvalidArgument("unknown column");
  items[1].answer.error = true;
  return {
      {FrameType::kHello, EncodeHelloPayload(kWireVersion, kWireVersion)},
      {FrameType::kHelloAck, EncodeHelloAckPayload(kWireVersion, "tabula")},
      {FrameType::kQuery, std::string(query.data(), query.size())},
      {FrameType::kAnswer, std::string(answer.data(), answer.size())},
      {FrameType::kBatchQuery,
       EncodeBatchQueryPayload({SampleRequest(), SampleRequest()})},
      {FrameType::kBatchAnswer, EncodeBatchAnswerPayload(items)},
      {FrameType::kError,
       EncodeErrorPayload(Status::Unavailable("admission queue full"))},
      {FrameType::kPing, ""},
      {FrameType::kPong, ""},
      {FrameType::kAdmin, EncodeAdminPayload("metrics")},
      {FrameType::kAdminAck,
       EncodeAdminAckPayload(Status::OK(), "serve_queries_total 3")},
  };
}

/// Runs the decoder the receiving side applies to a frame of `type`.
Status DecodePayload(FrameType type, const std::string& payload) {
  switch (type) {
    case FrameType::kHello:
      return DecodeHelloPayload(payload).status();
    case FrameType::kHelloAck:
      return DecodeHelloAckPayload(payload).status();
    case FrameType::kQuery: {
      BufferReader r(payload);
      return DecodeQueryRequest(&r).status();
    }
    case FrameType::kAnswer: {
      BufferReader r(payload);
      return DecodeServeAnswer(&r, nullptr).status();
    }
    case FrameType::kBatchQuery:
      return DecodeBatchQueryPayload(payload).status();
    case FrameType::kBatchAnswer:
      return DecodeBatchAnswerPayload(payload, nullptr).status();
    case FrameType::kError: {
      // Never OK: it is the Status the frame carries, or kDataLoss when
      // the payload is malformed.
      Status carried = DecodeErrorPayload(payload);
      return carried.code() == StatusCode::kDataLoss ? carried : Status::OK();
    }
    case FrameType::kAdmin:
      return DecodeAdminPayload(payload).status();
    case FrameType::kAdminAck:
      return DecodeAdminAckPayload(payload).status();
    case FrameType::kPing:
    case FrameType::kPong:
      return Status::OK();
  }
  return Status::OK();
}

struct Outcome {
  size_t frames = 0;  ///< frames the reader returned
  size_t decoded = 0;  ///< of those, payloads the decoder accepted
};

/// Feeds `bytes` and then EOF through a socket pair into a FrameReader,
/// decoding every frame it returns, until the first error Status.
Outcome Feed(const std::string& bytes, const std::string& what) {
  Outcome outcome;
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0) << what;
  OwnedFd in(fds[0]);
  OwnedFd out(fds[1]);
  EXPECT_TRUE(WriteFull(out.get(), bytes.data(), bytes.size()).ok()) << what;
  ::shutdown(out.get(), SHUT_WR);

  FrameReader reader(in.get());
  const auto start = std::chrono::steady_clock::now();
  while (true) {
    Result<Frame> frame = reader.Read(kReadDeadlineMs);
    EXPECT_LE(reader.capacity(), kBufferCap) << what;
    if (!frame.ok()) {
      // The deadline never has to pass: the writer already hung up.
      EXPECT_NE(frame.status().code(), StatusCode::kUnavailable)
          << what << ": " << frame.status().ToString();
      break;
    }
    ++outcome.frames;
    if (DecodePayload(frame->type, frame->payload).ok()) ++outcome.decoded;
  }
  EXPECT_LT(std::chrono::steady_clock::now() - start,
            std::chrono::milliseconds(static_cast<int>(kReadDeadlineMs)))
      << what;
  return outcome;
}

TEST(WireMutationTest, SeedFramesDecode) {
  for (const auto& [type, payload] : SeedPayloads()) {
    Outcome outcome = Feed(EncodeFrame(type, 1, payload), FrameTypeName(type));
    EXPECT_EQ(outcome.frames, 1u) << FrameTypeName(type);
    EXPECT_EQ(outcome.decoded, 1u) << FrameTypeName(type);
  }
}

TEST(WireMutationTest, EveryMutantEndsInAStatus) {
  std::mt19937_64 rng(0x5EED0016);
  size_t mutants = 0;
  size_t resealed_decoded = 0;
  for (const auto& [type, payload] : SeedPayloads()) {
    const std::string name = FrameTypeName(type);
    const std::string frame = EncodeFrame(type, 42, payload);

    // Raw bit flips in the checked bytes — magic, version, length,
    // checksum, payload: the header checks or the checksum must refuse
    // every one that changes the frame. (Type and request id are not
    // checked; the type confusion below covers the type.)
    for (int i = 0; i < 64; ++i) {
      std::string bytes = frame;
      const int flips = 1 + static_cast<int>(rng() % 3);
      for (int f = 0; f < flips; ++f) {
        size_t at = rng() % (bytes.size() - 10);
        if (at >= 6) at += 10;  // skip type and request_id
        bytes[at] ^= static_cast<char>(1u << (rng() % 8));
      }
      Outcome outcome = Feed(bytes, name + " raw flip " + std::to_string(i));
      if (bytes != frame) {
        EXPECT_EQ(outcome.frames, 0u) << name << " raw flip " << i;
      }
      ++mutants;
    }

    // Payload bit flips re-sealed with a fresh checksum: the frame reads,
    // and the payload decoder faces the damage.
    if (!payload.empty()) {
      for (int i = 0; i < 256; ++i) {
        std::string damaged = payload;
        const int flips = 1 + static_cast<int>(rng() % 4);
        for (int f = 0; f < flips; ++f) {
          damaged[rng() % damaged.size()] ^=
              static_cast<char>(1u << (rng() % 8));
        }
        Outcome outcome = Feed(EncodeFrame(type, 42, damaged),
                               name + " sealed flip " + std::to_string(i));
        EXPECT_EQ(outcome.frames, 1u) << name << " sealed flip " << i;
        resealed_decoded += outcome.decoded;
        ++mutants;
      }
    }

    // Truncation at every header offset and at random payload offsets:
    // EOF inside a frame is a torn frame; before it, a clean hang-up.
    for (size_t cut = 0; cut < kFrameHeaderBytes; ++cut) {
      Outcome outcome =
          Feed(frame.substr(0, cut), name + " cut " + std::to_string(cut));
      EXPECT_EQ(outcome.frames, 0u) << name << " cut " << cut;
      ++mutants;
    }
    for (int i = 0; i < 16 && !payload.empty(); ++i) {
      const size_t cut = kFrameHeaderBytes + rng() % payload.size();
      Outcome outcome =
          Feed(frame.substr(0, cut), name + " cut " + std::to_string(cut));
      EXPECT_EQ(outcome.frames, 0u) << name << " cut " << cut;
      ++mutants;
    }

    // The length field inflated, up to kMaxPayloadBytes and one past
    // it: the reader waits for bytes that never come, holding only what
    // arrived, then reports the torn frame.
    for (int i = 0; i < 16; ++i) {
      uint32_t len = static_cast<uint32_t>(
          payload.size() + 1 + rng() % (kMaxPayloadBytes + 1 - payload.size()));
      if (i == 0) len = kMaxPayloadBytes;
      std::string bytes = frame;
      std::memcpy(bytes.data() + 16, &len, sizeof(len));
      Outcome outcome = Feed(bytes, name + " len " + std::to_string(len));
      EXPECT_EQ(outcome.frames, 0u) << name << " len " << len;
      ++mutants;
    }
  }
  // Type confusion: every payload sealed under every frame type, so
  // each decoder also faces the other types' bytes.
  for (const auto& [type, payload] : SeedPayloads()) {
    for (uint16_t t = static_cast<uint16_t>(FrameType::kHello);
         t <= static_cast<uint16_t>(FrameType::kAdminAck); ++t) {
      const FrameType as = static_cast<FrameType>(t);
      Outcome outcome =
          Feed(EncodeFrame(as, 42, payload), std::string(FrameTypeName(type)) +
                                                  " as " + FrameTypeName(as));
      EXPECT_EQ(outcome.frames, 1u);
      ++mutants;
    }
  }
  EXPECT_GT(mutants, 3000u);
  // Some damaged payloads still decode (a flipped flag or value byte);
  // the rest fail with a Status. Both are fine; neither may crash.
  EXPECT_GT(resealed_decoded, 0u);
}

/// Count inflation: every count a decoder reads before its records —
/// the batch size of both batch payloads and a request's predicate
/// count — raised to the largest value the decoder accepts and to
/// random values between the true count and it. Each mutant must end in
/// an error Status, and no single allocation while decoding may exceed
/// a bound far below what the counts claim (a batch of 2^20 requests
/// would reserve 72 MiB), since the payloads are a few hundred bytes.
TEST(WireMutationTest, InflatedCountsReserveOnlyWhatThePayloadHolds) {
  constexpr size_t kHeapBound = 64 * 1024;
  BufferWriter query;
  EncodeQueryRequest(SampleRequest(), &query);
  std::vector<BatchItem> items(2);
  items[0].answer = SampleAnswer();
  struct Count {
    FrameType type;
    std::string payload;
    size_t offset;  ///< where the count sits in the payload
    size_t width;   ///< 4 or 8 bytes
    uint64_t max;   ///< the largest count the decoder accepts
  };
  const std::vector<Count> counts = {
      {FrameType::kBatchQuery,
       EncodeBatchQueryPayload({SampleRequest(), SampleRequest()}), 0, 4,
       uint64_t{1} << 20},
      {FrameType::kBatchAnswer, EncodeBatchAnswerPayload(items), 0, 4,
       uint64_t{1} << 20},
      // After the codec version word.
      {FrameType::kQuery, std::string(query.data(), query.size()), 4, 8,
       uint64_t{1} << 16},
  };
  std::mt19937_64 rng(0x5EED0017);
  size_t mutants = 0;
  for (const Count& c : counts) {
    uint64_t actual = 0;
    std::memcpy(&actual, c.payload.data() + c.offset, c.width);
    for (int i = 0; i < 16; ++i) {
      const uint64_t inflated =
          i == 0 ? c.max : actual + 1 + rng() % (c.max - actual);
      std::string damaged = c.payload;
      std::memcpy(damaged.data() + c.offset, &inflated, c.width);
      g_largest_request = 0;
      g_track_heap = true;
      const Status decoded = DecodePayload(c.type, damaged);
      g_track_heap = false;
      const std::string what = std::string(FrameTypeName(c.type)) +
                               " count " + std::to_string(inflated);
      EXPECT_FALSE(decoded.ok()) << what;
      EXPECT_LE(g_largest_request.load(), kHeapBound)
          << what << ": the decoder reserved for records that never came";
      ++mutants;
    }
  }
  EXPECT_EQ(mutants, 48u);
}

}  // namespace
}  // namespace tabula
