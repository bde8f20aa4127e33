/// Loopback integration suite for the wire protocol and the
/// TabulaNetServer / TabulaClient pair (`ctest -L net`):
///
///  - frame codec: header validation, checksum mismatch, absurd
///    lengths, unknown versions — all kDataLoss before any allocation;
///  - round-trip: a query served over a real socket equals the
///    in-process answer row for row, flags included;
///  - torn frames / garbage bytes close the connection after a kError
///    best-effort reply (no resync marker — the stream is dead);
///  - one wire and codec version: any other is kDataLoss naming it, and
///    the Hello is acked only when the client's range includes it;
///  - fault-seam matrix over net.accept / net.read / net.write: a
///    single injected transport failure is absorbed by the client's
///    reconnect-and-retry; the answer still arrives;
///  - hedged requests do not leak server admission slots;
///  - the CRC32C frame checksum: RFC 3720 known answers, SSE4.2 and
///    scalar paths agree;
///  - the frame reader: frames that arrive back to back are served in
///    order, a frame that trickles in is read whole, `net.read` fires
///    once per frame, a header cannot make the reader allocate what
///    never arrived, and a reply followed by stray bytes is kDataLoss.

#include <gtest/gtest.h>
#include <malloc.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <cstring>
#include <limits>
#include <memory>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "common/binary_io.h"
#include "data/synthetic_gen.h"
#include "data/workload.h"
#include "exec/vector_ops.h"
#include "loss/loss_registry.h"
#include "net/client.h"
#include "net/server.h"
#include "net/socket.h"
#include "net/wire.h"
#include "serve/query_server.h"
#include "shard/sharded_tabula.h"
#include "testing/fault_injection.h"

namespace tabula {
namespace {

// ---------------------------------------------------------------------
// Pure frame-codec tests (no sockets).
// ---------------------------------------------------------------------

TEST(WireCodecTest, FrameHeaderRoundTrips) {
  std::string frame = EncodeFrame(FrameType::kQuery, 42, "hello payload");
  ASSERT_GE(frame.size(), kFrameHeaderBytes);
  auto header = DecodeFrameHeader(frame.data(), kFrameHeaderBytes);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(header->type, FrameType::kQuery);
  EXPECT_EQ(header->version, kWireVersion);
  EXPECT_EQ(header->request_id, 42u);
  EXPECT_EQ(header->payload_len, 13u);
  std::string payload = frame.substr(kFrameHeaderBytes);
  EXPECT_TRUE(CheckFramePayload(header.value(), payload).ok());
}

TEST(WireCodecTest, CorruptPayloadIsDataLoss) {
  std::string frame = EncodeFrame(FrameType::kQuery, 1, "payload bytes");
  auto header = DecodeFrameHeader(frame.data(), kFrameHeaderBytes);
  ASSERT_TRUE(header.ok());
  std::string payload = frame.substr(kFrameHeaderBytes);
  payload[3] ^= 0x40;  // one flipped bit
  Status check = CheckFramePayload(header.value(), payload);
  EXPECT_EQ(check.code(), StatusCode::kDataLoss);
}

TEST(WireCodecTest, BadMagicUnknownVersionAbsurdLengthAllRejected) {
  std::string frame = EncodeFrame(FrameType::kPing, 7, "");

  std::string bad_magic = frame;
  bad_magic[0] = 'X';
  EXPECT_EQ(
      DecodeFrameHeader(bad_magic.data(), kFrameHeaderBytes).status().code(),
      StatusCode::kDataLoss);

  std::string bad_version = frame;
  bad_version[4] = static_cast<char>(0xEE);
  bad_version[5] = static_cast<char>(0xEE);
  EXPECT_FALSE(
      DecodeFrameHeader(bad_version.data(), kFrameHeaderBytes).ok());

  // A corrupt length field must not turn into a giant allocation.
  std::string bad_len = frame;
  bad_len[16] = static_cast<char>(0xFF);
  bad_len[17] = static_cast<char>(0xFF);
  bad_len[18] = static_cast<char>(0xFF);
  bad_len[19] = static_cast<char>(0x7F);
  EXPECT_FALSE(DecodeFrameHeader(bad_len.data(), kFrameHeaderBytes).ok());

  // Short header.
  EXPECT_FALSE(DecodeFrameHeader(frame.data(), kFrameHeaderBytes - 1).ok());
}

TEST(WireCodecTest, ErrorPayloadRoundTripsStatus) {
  Status in = Status::Unavailable("shard 3 is on fire");
  Status out = DecodeErrorPayload(EncodeErrorPayload(in));
  EXPECT_EQ(out.code(), StatusCode::kUnavailable);
  EXPECT_EQ(out.message(), "shard 3 is on fire");
  // Malformed payloads are transport-level data loss, never OK.
  EXPECT_EQ(DecodeErrorPayload("x").code(), StatusCode::kDataLoss);
  EXPECT_NE(DecodeErrorPayload("").code(), StatusCode::kOk);
}

TEST(WireCodecTest, QueryRequestCodecRoundTrips) {
  QueryRequest request;
  request.where = {{"payment_type", CompareOp::kEq, Value("Cash")},
                   {"rate_code", CompareOp::kEq, Value("JFK")}};
  request.deadline_ms = 12.5;
  request.trace = true;
  request.consistency = ConsistencyHint::kBypassCache;
  request.parent_span = 999;  // process-local: must NOT survive the wire

  BufferWriter w;
  EncodeQueryRequest(request, &w);
  BufferReader r(w.data(), w.size());
  auto decoded = DecodeQueryRequest(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->where.size(), 2u);
  EXPECT_EQ(decoded->where[0].column, "payment_type");
  EXPECT_EQ(decoded->where[1].column, "rate_code");
  EXPECT_EQ(decoded->deadline_ms, 12.5);
  EXPECT_TRUE(decoded->trace);
  EXPECT_EQ(decoded->consistency, ConsistencyHint::kBypassCache);
  EXPECT_EQ(decoded->parent_span, 0u);
}

/// The u32 codec version every record starts with.
uint32_t RecordVersion(const BufferWriter& w) {
  BufferReader peek(w.data(), w.size());
  auto version = peek.ReadU32();
  EXPECT_TRUE(version.ok());
  return version.ok() ? version.value() : 0;
}

/// `w`'s bytes with the leading codec version replaced by `version`.
std::string WithRecordVersion(const BufferWriter& w, uint32_t version) {
  std::string bytes(w.data(), w.size());
  std::memcpy(bytes.data(), &version, sizeof(version));
  return bytes;
}

TEST(WireCodecTest, EveryRecordCarriesVersion3AndRoundTrips) {
  // A range-free request carries the full v3 record (an empty range).
  QueryRequest plain;
  plain.where = {{"a", CompareOp::kEq, Value("x")}};
  BufferWriter w1;
  EncodeQueryRequest(plain, &w1);
  EXPECT_EQ(RecordVersion(w1), 3u);
  BufferReader r1(w1.data(), w1.size());
  auto plain_back = DecodeQueryRequest(&r1);
  ASSERT_TRUE(plain_back.ok()) << plain_back.status().ToString();
  EXPECT_TRUE(plain_back->range.empty());
  EXPECT_TRUE(r1.exhausted());

  QueryRequest ranged;
  ranged.where = {{"a", CompareOp::kEq, Value("x")}};
  ranged.range.bounds = {{"pickup_x", 0.25, 0.75}, {"", -1.5, 2.5}};
  BufferWriter w2;
  EncodeQueryRequest(ranged, &w2);
  EXPECT_EQ(RecordVersion(w2), 3u);
  BufferReader r(w2.data(), w2.size());
  auto decoded = DecodeQueryRequest(&r);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  ASSERT_EQ(decoded->range.bounds.size(), 2u);
  EXPECT_EQ(decoded->range.bounds[0].column, "pickup_x");
  EXPECT_EQ(decoded->range.bounds[0].lo, 0.25);
  EXPECT_EQ(decoded->range.bounds[0].hi, 0.75);
  EXPECT_TRUE(decoded->range.bounds[1].column.empty());
  EXPECT_EQ(decoded->range.bounds[1].lo, -1.5);
  EXPECT_EQ(decoded->range.bounds[1].hi, 2.5);
  ASSERT_EQ(decoded->where.size(), 1u);
  EXPECT_EQ(decoded->where[0].column, "a");

  // Answers carry the store-degradation flag whether or not it is set,
  // and an empty row list decodes cleanly.
  for (bool store_degraded : {false, true}) {
    auto result = std::make_shared<TabulaQueryResult>();
    result->store_degraded = store_degraded;
    result->generation = 7;
    ServeAnswer answer;
    answer.result = result;
    answer.cache_hit = true;
    BufferWriter w;
    EncodeServeAnswer(answer, &w);
    EXPECT_EQ(RecordVersion(w), 3u);
    BufferReader ar(w.data(), w.size());
    auto back = DecodeServeAnswer(&ar, nullptr);
    ASSERT_TRUE(back.ok()) << back.status().ToString();
    ASSERT_NE(back->result, nullptr);
    EXPECT_EQ(back->result->store_degraded, store_degraded);
    EXPECT_EQ(back->result->generation, 7u);
    EXPECT_TRUE(back->result->sample.ToRowIds().empty());
    EXPECT_TRUE(back->cache_hit);
    EXPECT_TRUE(ar.exhausted());
  }
}

TEST(WireCodecTest, OldAndNextCodecVersionsAreDataLoss) {
  QueryRequest request;
  request.where = {{"a", CompareOp::kEq, Value("x")}};
  BufferWriter rw;
  EncodeQueryRequest(request, &rw);
  ServeAnswer answer;
  answer.result = std::make_shared<TabulaQueryResult>();
  BufferWriter aw;
  EncodeServeAnswer(answer, &aw);

  for (uint32_t version : {kQueryCodecVersion - 1u, kQueryCodecVersion + 1u}) {
    const std::string want = "codec version " + std::to_string(version);
    std::string req_bytes = WithRecordVersion(rw, version);
    BufferReader rr(req_bytes);
    Status req_status = DecodeQueryRequest(&rr).status();
    EXPECT_EQ(req_status.code(), StatusCode::kDataLoss);
    EXPECT_NE(req_status.message().find(want), std::string::npos)
        << req_status.ToString();

    std::string ans_bytes = WithRecordVersion(aw, version);
    BufferReader ar(ans_bytes);
    Status ans_status = DecodeServeAnswer(&ar, nullptr).status();
    EXPECT_EQ(ans_status.code(), StatusCode::kDataLoss);
    EXPECT_NE(ans_status.message().find(want), std::string::npos)
        << ans_status.ToString();
  }
}

TEST(WireCodecTest, OldAndNextFrameVersionsAreDataLoss) {
  const std::string frame = EncodeFrame(FrameType::kQuery, 3, "payload");
  for (uint16_t version : {static_cast<uint16_t>(kWireVersion - 1),
                           static_cast<uint16_t>(kWireVersion + 1)}) {
    std::string bytes = frame;
    std::memcpy(bytes.data() + 4, &version, sizeof(version));
    Status status = DecodeFrameHeader(bytes.data(), kFrameHeaderBytes).status();
    EXPECT_EQ(status.code(), StatusCode::kDataLoss);
    EXPECT_NE(status.message().find("wire version " + std::to_string(version)),
              std::string::npos)
        << status.ToString();
  }
}

// ---------------------------------------------------------------------
// CRC32C frame checksum.
// ---------------------------------------------------------------------

TEST(WireChecksumTest, Crc32cKnownAnswers) {
  // RFC 3720 §B.4.
  const std::string zeros(32, '\0');
  const std::string ones(32, '\xFF');
  const std::string digits = "123456789";
  for (auto crc : {&vec::Crc32c, &vec::Crc32cScalar}) {
    EXPECT_EQ(crc(zeros.data(), zeros.size()), 0x8A9136AAu);
    EXPECT_EQ(crc(ones.data(), ones.size()), 0x62A8AB43u);
    EXPECT_EQ(crc(digits.data(), digits.size()), 0xE3069283u);
    EXPECT_EQ(crc(digits.data(), 0), 0u);
  }
  // The header's u64 field carries the CRC zero-extended.
  EXPECT_EQ(WireChecksum(digits.data(), digits.size()), 0xE3069283ull);
}

TEST(WireChecksumTest, SimdAndScalarAgreeAtUnalignedStarts) {
  std::mt19937_64 rng(3720);
  std::vector<char> bytes(4096 + 16);
  for (char& b : bytes) b = static_cast<char>(rng());
  for (int trial = 0; trial < 2000; ++trial) {
    const size_t offset = rng() % 16;
    const size_t n = rng() % 4097;
    ASSERT_EQ(vec::Crc32c(bytes.data() + offset, n),
              vec::Crc32cScalar(bytes.data() + offset, n))
        << "offset " << offset << " length " << n;
  }
  // Every tail length at every alignment of an 8-byte word.
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n = 0; n <= 64; ++n) {
      ASSERT_EQ(vec::Crc32c(bytes.data() + offset, n),
                vec::Crc32cScalar(bytes.data() + offset, n))
          << "offset " << offset << " length " << n;
    }
  }
}

TEST(WireChecksumTest, NonZeroUpperChecksumHalfIsDataLoss) {
  const std::string frame = EncodeFrame(FrameType::kQuery, 4, "payload");
  std::string bytes = frame;
  bytes[kFrameHeaderBytes - 1] = 0x01;  // top byte of the u64 checksum
  auto header = DecodeFrameHeader(bytes.data(), kFrameHeaderBytes);
  ASSERT_TRUE(header.ok()) << header.status().ToString();
  EXPECT_EQ(CheckFramePayload(header.value(), frame.substr(kFrameHeaderBytes))
                .code(),
            StatusCode::kDataLoss);
}

// ---------------------------------------------------------------------
// FrameReader over a socket pair.
// ---------------------------------------------------------------------

/// A connected stream socket pair: `in` is read, `out` is written.
struct SocketPair {
  OwnedFd in;
  OwnedFd out;
};

SocketPair MakeSocketPair() {
  int fds[2] = {-1, -1};
  EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
  return {OwnedFd(fds[0]), OwnedFd(fds[1])};
}

/// Header bytes claiming `payload_len`, checksum of nothing.
std::string HeaderClaiming(uint32_t payload_len) {
  std::string header = EncodeFrame(FrameType::kAnswer, 1, "");
  std::memcpy(header.data() + 16, &payload_len, sizeof(payload_len));
  return header;
}

TEST(FrameReaderTest, BackToBackFramesInOneReceiveComeOutInOrder) {
  SocketPair pair = MakeSocketPair();
  const std::string bytes = EncodeFrame(FrameType::kPing, 1, "") +
                            EncodeFrame(FrameType::kQuery, 2, "two") +
                            EncodeFrame(FrameType::kAdmin, 3, "three");
  ASSERT_TRUE(WriteFull(pair.out.get(), bytes.data(), bytes.size()).ok());
  ::shutdown(pair.out.get(), SHUT_WR);

  FrameReader reader(pair.in.get());
  const std::vector<std::pair<uint64_t, std::string>> want = {
      {1, ""}, {2, "two"}, {3, "three"}};
  for (const auto& [id, payload] : want) {
    auto frame = reader.Read(2000.0);
    ASSERT_TRUE(frame.ok()) << frame.status().ToString();
    EXPECT_EQ(frame->request_id, id);
    EXPECT_EQ(frame->payload, payload);
  }
  EXPECT_EQ(reader.buffered(), 0u);
  // A clean EOF between frames is the orderly hang-up.
  Status eof = reader.Read(2000.0).status();
  EXPECT_EQ(eof.code(), StatusCode::kIOError);
  EXPECT_EQ(eof.message(), "connection closed");
}

TEST(FrameReaderTest, FrameLargerThanTheFloorIsReadWholeThenReleased) {
  SocketPair pair = MakeSocketPair();
  std::string payload(5 * FrameReader::kFloorBytes + 123, '\0');
  std::mt19937_64 rng(11);
  for (char& c : payload) c = static_cast<char>(rng());
  const std::string frame = EncodeFrame(FrameType::kAnswer, 8, payload);
  std::thread writer([&] {
    EXPECT_TRUE(WriteFull(pair.out.get(), frame.data(), frame.size()).ok());
  });
  FrameReader reader(pair.in.get());
  auto got = reader.Read(5000.0);
  writer.join();
  ASSERT_TRUE(got.ok()) << got.status().ToString();
  EXPECT_EQ(got->payload, payload);
  EXPECT_LE(reader.capacity(), FrameReader::kFloorBytes);
}

/// Bytes the process heap holds (arena plus mmapped chunks).
size_t HeapBytes() {
  struct mallinfo2 info = ::mallinfo2();
  return info.uordblks + info.hblkhd;
}

TEST(FrameReaderTest, HeaderClaimingMaxPayloadAllocatesOnlyWhatArrived) {
  // A header announcing kMaxPayloadBytes, then 1 KiB, then EOF: a torn
  // frame. While the reader waits for the rest, it may hold only what
  // arrived — not the 64 MiB the header claims.
  SocketPair pair = MakeSocketPair();
  const std::string bytes =
      HeaderClaiming(kMaxPayloadBytes) + std::string(1024, 'p');
  const size_t heap_before = HeapBytes();
  size_t heap_waiting = 0;
  std::thread writer([&] {
    EXPECT_TRUE(WriteFull(pair.out.get(), bytes.data(), bytes.size()).ok());
    std::this_thread::sleep_for(std::chrono::milliseconds(200));
    heap_waiting = HeapBytes();
    ::shutdown(pair.out.get(), SHUT_WR);
  });
  auto frame = ReadFrame(pair.in.get(), 10000.0);
  writer.join();
  EXPECT_EQ(frame.status().code(), StatusCode::kDataLoss)
      << frame.status().ToString();
  EXPECT_LT(heap_waiting, heap_before + (1u << 20))
      << "the reader allocated for bytes that never arrived";

  SocketPair again = MakeSocketPair();
  ASSERT_TRUE(WriteFull(again.out.get(), bytes.data(), bytes.size()).ok());
  ::shutdown(again.out.get(), SHUT_WR);
  FrameReader reader(again.in.get());
  EXPECT_EQ(reader.Read(10000.0).status().code(), StatusCode::kDataLoss);
  EXPECT_LE(reader.capacity(), FrameReader::kFloorBytes);
}

// ---------------------------------------------------------------------
// Loopback deployment shared by the socket tests.
// ---------------------------------------------------------------------

struct NetFixture {
  std::unique_ptr<Table> table;
  std::vector<std::string> attrs;
  std::shared_ptr<const LossFunction> loss;
  std::unique_ptr<ShardedTabula> engine;
  std::unique_ptr<QueryServer> server;
  std::unique_ptr<TabulaNetServer> net;

  Status Start(size_t shards = 3, size_t replicas = 2,
               QueryServerOptions serve_options = {},
               uint32_t spatial_levels = 0) {
    SyntheticGeneratorOptions gen;
    gen.seed = 4242;
    gen.num_rows = 800;
    gen.cell_spread = 1.1;
    gen.noise = 0.1;
    gen.columns.clear();
    for (size_t c = 0; c < 2; ++c) {
      SyntheticColumnSpec col;
      col.name = "c" + std::to_string(c);
      col.cardinality = 3;
      gen.columns.push_back(col);
    }
    SyntheticGenerator generator(gen);
    table = generator.Generate();
    attrs = generator.CategoricalColumns();

    LossParams params;
    params.columns = {"value"};
    TABULA_ASSIGN_OR_RETURN(auto made, MakeLossFunction("mean_loss", params));
    loss = std::shared_ptr<const LossFunction>(std::move(made));

    ShardedTabulaOptions options;
    options.base.cubed_attributes = attrs;
    options.base.owned_loss = loss;
    options.base.threshold = 0.07;
    if (spatial_levels > 0) {
      options.base.spatial.x_column = "x";
      options.base.spatial.y_column = "y";
      options.base.spatial.levels = spatial_levels;
    }
    options.num_shards = shards;
    options.replicas_per_shard = replicas;
    TABULA_ASSIGN_OR_RETURN(engine,
                            ShardedTabula::Initialize(*table, options));
    server = std::make_unique<QueryServer>(engine.get(), serve_options);
    NetServerOptions net_options;  // port 0 → ephemeral
    net = std::make_unique<TabulaNetServer>(server.get(), net_options);
    return net->Start();
  }

  NetClientOptions ClientOptions() const {
    NetClientOptions options;
    options.endpoints.push_back({"127.0.0.1", net->port()});
    return options;
  }

  std::vector<WorkloadQuery> Queries(size_t n, uint64_t seed = 77) const {
    WorkloadOptions wopt;
    wopt.num_queries = n;
    wopt.seed = seed;
    auto qs = GenerateWorkload(*table, attrs, wopt);
    EXPECT_TRUE(qs.ok());
    return std::move(qs).value();
  }
};

TEST(NetLoopbackTest, QueryOverSocketEqualsInProcessAnswer) {
  NetFixture fx;
  ASSERT_TRUE(fx.Start().ok());
  TabulaClient client(fx.ClientOptions());
  client.set_table(fx.table.get());

  // A second, independent in-process server answers the same requests:
  // same engine, no wire. (Separate QueryServer so cache hits on one
  // side cannot mask a mismatch on the other.)
  QueryServer local(fx.engine.get());

  for (const auto& q : fx.Queries(16)) {
    QueryRequest request(q.where);
    auto wire = client.Query(request);
    ASSERT_TRUE(wire.ok()) << wire.status().ToString();
    auto in_proc = local.Query(request);
    ASSERT_TRUE(in_proc.ok());
    EXPECT_EQ(wire->result->sample.ToRowIds(),
              in_proc->result->sample.ToRowIds());
    EXPECT_EQ(wire->result->from_local_sample,
              in_proc->result->from_local_sample);
    EXPECT_EQ(wire->result->empty_cell, in_proc->result->empty_cell);
    EXPECT_EQ(wire->result->generation, in_proc->result->generation);
    EXPECT_TRUE(wire->result->unavailable_shards.empty());
  }
  // Every pooled connection opened with the Hello check.
  EXPECT_GE(fx.net->metrics().counter("net_frames_Hello").value(), 1u);
}

TEST(NetLoopbackTest, RangeQueryOverSocketEqualsInProcessAnswer) {
  NetFixture fx;
  ASSERT_TRUE(fx.Start(3, 2, {}, /*spatial_levels=*/3).ok());
  TabulaClient client(fx.ClientOptions());
  client.set_table(fx.table.get());
  QueryServer local(fx.engine.get());

  // Pure range, then hybrid range+equality, both across the socket.
  QueryRequest pure;
  pure.range.bounds = {{"x", 0.2, 0.7}, {"y", 0.1, 0.6}};
  auto wire = client.Query(pure);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  auto in_proc = local.Query(pure);
  ASSERT_TRUE(in_proc.ok());
  EXPECT_EQ(wire->result->sample.ToRowIds(),
            in_proc->result->sample.ToRowIds());
  EXPECT_FALSE(wire->result->empty_cell);

  QueryRequest hybrid;
  hybrid.where = {{"c0", CompareOp::kEq, Value("c0_1")}};
  hybrid.range = pure.range;
  auto wire2 = client.Query(hybrid);
  ASSERT_TRUE(wire2.ok()) << wire2.status().ToString();
  auto in_proc2 = local.Query(hybrid);
  ASSERT_TRUE(in_proc2.ok());
  EXPECT_EQ(wire2->result->sample.ToRowIds(),
            in_proc2->result->sample.ToRowIds());

  // A malformed range (unknown column) comes back as the server's
  // Status, not a transport error.
  QueryRequest bad;
  bad.range.bounds = {{"value", 0.0, 1.0}};
  auto refused = client.Query(bad);
  EXPECT_EQ(refused.status().code(), StatusCode::kInvalidArgument);
  EXPECT_GE(fx.net->metrics().counter("net_frames_Hello").value(), 1u);
}

TEST(NetLoopbackTest, BatchQueryOverSocketEqualsInProcess) {
  NetFixture fx;
  ASSERT_TRUE(fx.Start().ok());
  TabulaClient client(fx.ClientOptions());
  client.set_table(fx.table.get());
  QueryServer local(fx.engine.get());

  std::vector<QueryRequest> requests;
  for (const auto& q : fx.Queries(8)) requests.emplace_back(q.where);
  auto wire = client.BatchQuery(requests);
  ASSERT_TRUE(wire.ok()) << wire.status().ToString();
  auto in_proc = local.BatchQuery(requests);
  ASSERT_TRUE(in_proc.ok());
  ASSERT_EQ(wire->size(), in_proc->size());
  for (size_t i = 0; i < wire->size(); ++i) {
    ASSERT_TRUE((*wire)[i].status.ok());
    ASSERT_TRUE((*in_proc)[i].status.ok());
    EXPECT_EQ((*wire)[i].answer.result->sample.ToRowIds(),
              (*in_proc)[i].answer.result->sample.ToRowIds());
  }
}

TEST(NetLoopbackTest, DeadlineDegradationSurvivesTheWire) {
  NetFixture fx;
  ASSERT_TRUE(fx.Start().ok());
  TabulaClient client(fx.ClientOptions());
  client.set_table(fx.table.get());

  // A batch deadline that has already passed when each item runs: the
  // server degrades every item to the global sample, and the
  // `degraded` flag must survive the ServeAnswer codec.
  std::vector<QueryRequest> requests;
  for (const auto& q : fx.Queries(6)) {
    requests.emplace_back(q.where);
    requests.back().deadline_ms = 1e-6;
  }
  auto batch = client.BatchQuery(requests);
  ASSERT_TRUE(batch.ok()) << batch.status().ToString();
  ASSERT_EQ(batch->size(), requests.size());
  for (const BatchItem& item : *batch) {
    ASSERT_TRUE(item.status.ok());
    EXPECT_TRUE(item.answer.degraded);
  }
}

TEST(NetLoopbackTest, PingAdminAndMetrics) {
  NetFixture fx;
  ASSERT_TRUE(fx.Start().ok());
  TabulaClient client(fx.ClientOptions());

  EXPECT_TRUE(client.Ping().ok());
  auto pong = client.Admin("ping");
  ASSERT_TRUE(pong.ok());
  EXPECT_EQ(*pong, "pong");
  auto metrics = client.Admin("metrics");
  ASSERT_TRUE(metrics.ok());
  EXPECT_FALSE(metrics->empty());
  auto unknown = client.Admin("no-such-command");
  EXPECT_EQ(unknown.status().code(), StatusCode::kNotFound);
}

// ---------------------------------------------------------------------
// Raw-socket misbehavior: the server must answer garbage with a
// best-effort kError and close, never hang or crash.
// ---------------------------------------------------------------------

TEST(NetLoopbackTest, GarbageHeaderGetsErrorReplyThenClose) {
  NetFixture fx;
  ASSERT_TRUE(fx.Start().ok());
  auto fd = ConnectTo("127.0.0.1", fx.net->port(), 2000.0);
  ASSERT_TRUE(fd.ok());
  OwnedFd conn(fd.value());

  std::string garbage(kFrameHeaderBytes, 'Z');
  ASSERT_TRUE(WriteFull(conn.get(), garbage.data(), garbage.size()).ok());
  auto reply = ReadFrame(conn.get(), 2000.0);
  if (reply.ok()) {
    // Best-effort error reply, then the stream ends.
    EXPECT_EQ(reply->type, FrameType::kError);
    EXPECT_EQ(DecodeErrorPayload(reply->payload).code(),
              StatusCode::kDataLoss);
    auto after = ReadFrame(conn.get(), 2000.0);
    EXPECT_FALSE(after.ok());
  } else {
    EXPECT_EQ(reply.status().code(), StatusCode::kIOError);
  }
}

TEST(NetLoopbackTest, ChecksumMismatchClosesConnection) {
  NetFixture fx;
  ASSERT_TRUE(fx.Start().ok());
  auto fd = ConnectTo("127.0.0.1", fx.net->port(), 2000.0);
  ASSERT_TRUE(fd.ok());
  OwnedFd conn(fd.value());

  std::string frame = EncodeFrame(FrameType::kPing, 5, "corrupt me");
  frame.back() ^= 0x01;  // payload no longer matches the checksum
  ASSERT_TRUE(WriteFull(conn.get(), frame.data(), frame.size()).ok());
  auto reply = ReadFrame(conn.get(), 2000.0);
  if (reply.ok()) {
    EXPECT_EQ(reply->type, FrameType::kError);
    EXPECT_EQ(DecodeErrorPayload(reply->payload).code(),
              StatusCode::kDataLoss);
  }
  auto after = ReadFrame(conn.get(), 2000.0);
  EXPECT_FALSE(after.ok());
}

TEST(NetLoopbackTest, TornFrameClosesConnection) {
  NetFixture fx;
  ASSERT_TRUE(fx.Start().ok());
  auto fd = ConnectTo("127.0.0.1", fx.net->port(), 2000.0);
  ASSERT_TRUE(fd.ok());
  OwnedFd conn(fd.value());

  // Header promises 100 payload bytes; deliver 10 and hang up.
  std::string frame = EncodeFrame(FrameType::kQuery, 9,
                                  std::string(100, 'q'));
  ASSERT_TRUE(WriteFull(conn.get(), frame.data(),
                        kFrameHeaderBytes + 10).ok());
  conn.Close();
  // Nothing to assert on this socket — the point is the server survives
  // the torn frame and keeps serving fresh connections:
  TabulaClient client(fx.ClientOptions());
  EXPECT_TRUE(client.Ping().ok());
}

TEST(NetLoopbackTest, DisjointVersionRangeIsRefused) {
  NetFixture fx;
  ASSERT_TRUE(fx.Start().ok());
  auto fd = ConnectTo("127.0.0.1", fx.net->port(), 2000.0);
  ASSERT_TRUE(fd.ok());
  OwnedFd conn(fd.value());

  // A client from the future: speaks only versions 40..41.
  std::string hello = EncodeHelloPayload(40, 41);
  ASSERT_TRUE(
      WriteFrame(conn.get(), FrameType::kHello, 1, hello, 2000.0).ok());
  auto reply = ReadFrame(conn.get(), 2000.0);
  ASSERT_TRUE(reply.ok()) << reply.status().ToString();
  ASSERT_EQ(reply->type, FrameType::kError);
  EXPECT_EQ(DecodeErrorPayload(reply->payload).code(),
            StatusCode::kInvalidArgument);
}

TEST(NetLoopbackTest, OverlappingVersionRangeNegotiatesHighestCommon) {
  NetFixture fx;
  ASSERT_TRUE(fx.Start().ok());
  auto fd = ConnectTo("127.0.0.1", fx.net->port(), 2000.0);
  ASSERT_TRUE(fd.ok());
  OwnedFd conn(fd.value());

  // A range around the server's one version is acked with that version.
  std::string hello = EncodeHelloPayload(kWireVersion - 1, kWireVersion + 7);
  ASSERT_TRUE(
      WriteFrame(conn.get(), FrameType::kHello, 1, hello, 2000.0).ok());
  auto reply = ReadFrame(conn.get(), 2000.0);
  ASSERT_TRUE(reply.ok());
  ASSERT_EQ(reply->type, FrameType::kHelloAck);
  auto ack = DecodeHelloAckPayload(reply->payload);
  ASSERT_TRUE(ack.ok());
  EXPECT_EQ(ack->first, kWireVersion);  // not the client's max or min
}

// ---------------------------------------------------------------------
// The server's frame reader: one per connection.
// ---------------------------------------------------------------------

/// A Query frame for `where`, as the client would send it.
std::string QueryFrame(uint64_t id, const std::vector<PredicateTerm>& where) {
  BufferWriter w;
  EncodeQueryRequest(QueryRequest(where), &w);
  return EncodeFrame(FrameType::kQuery, id, std::string(w.data(), w.size()));
}

TEST(NetLoopbackTest, FramesInOneSendAreAnsweredInOrderAndReadOnceEach) {
  ScopedFaultClear clear;
  NetFixture fx;
  ASSERT_TRUE(fx.Start().ok());
  QueryServer local(fx.engine.get());
  // A seam that never fails: it counts the server's frame reads.
  FaultSpec count;
  count.fail = false;
  FaultInjector::Global().Arm("net.read", count);

  auto fd = ConnectTo("127.0.0.1", fx.net->port(), 2000.0);
  ASSERT_TRUE(fd.ok());
  OwnedFd conn(fd.value());
  FrameReader reader(conn.get());
  const auto queries = fx.Queries(3);
  auto expect_answer = [&](uint64_t id, const WorkloadQuery& q) {
    auto reply = reader.Read(5000.0);
    ASSERT_TRUE(reply.ok()) << reply.status().ToString();
    EXPECT_EQ(reply->request_id, id);
    ASSERT_EQ(reply->type, FrameType::kAnswer);
    BufferReader r(reply->payload);
    auto answer = DecodeServeAnswer(&r, fx.table.get());
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    auto in_proc = local.Query(QueryRequest(q.where));
    ASSERT_TRUE(in_proc.ok());
    EXPECT_EQ(answer->result->sample.ToRowIds(),
              in_proc->result->sample.ToRowIds());
  };

  // Two Query frames in one send: both answered, in order.
  const std::string two =
      QueryFrame(11, queries[0].where) + QueryFrame(12, queries[1].where);
  ASSERT_TRUE(WriteFull(conn.get(), two.data(), two.size()).ok());
  expect_answer(11, queries[0]);
  expect_answer(12, queries[1]);

  // One frame sent a byte per send: read whole.
  const std::string trickle = QueryFrame(13, queries[2].where);
  for (char byte : trickle) {
    ASSERT_TRUE(WriteFull(conn.get(), &byte, 1).ok());
  }
  expect_answer(13, queries[2]);

  // One net.read per frame, none for the idle ticks since.
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  EXPECT_EQ(FaultInjector::Global().StatsFor("net.read").hits, 3u);
}

TEST(NetLoopbackTest, NonFiniteDeadlineIsARequestErrorOnALiveConnection) {
  NetFixture fx;
  ASSERT_TRUE(fx.Start().ok());
  NetClientOptions options = fx.ClientOptions();
  options.hedge = false;  // a hedge would dial a second connection
  TabulaClient client(options);
  client.set_table(fx.table.get());
  const auto where = fx.Queries(1)[0].where;
  for (double deadline : {std::numeric_limits<double>::quiet_NaN(),
                          std::numeric_limits<double>::infinity(),
                          -std::numeric_limits<double>::infinity()}) {
    QueryRequest request(where);
    request.deadline_ms = deadline;
    EXPECT_EQ(client.Query(request).status().code(),
              StatusCode::kInvalidArgument)
        << deadline;
  }
  EXPECT_TRUE(client.Query(QueryRequest(where)).ok());
  // Every request above went over the one pooled connection.
  EXPECT_EQ(fx.net->metrics().counter("net_connections_total").value(), 1u);
}

TEST(NetLoopbackTest, HugeClientTimeoutsClampToPollRange) {
  // poll() takes int milliseconds; a 1e300 ms budget clamps to INT_MAX
  // instead of an undefined float-to-int conversion.
  NetFixture fx;
  ASSERT_TRUE(fx.Start().ok());
  NetClientOptions options = fx.ClientOptions();
  options.connect_timeout_ms = 1e300;
  options.request_timeout_ms = 1e300;
  TabulaClient client(options);
  client.set_table(fx.table.get());
  EXPECT_TRUE(client.Ping().ok());
  auto answer = client.Query(QueryRequest(fx.Queries(1)[0].where));
  EXPECT_TRUE(answer.ok()) << answer.status().ToString();
}

/// A one-thread stand-in server that answers Hello, Query and Ping, and
/// appends stray bytes to the first non-Hello reply on each of its
/// first `stray_connections` connections.
class StrayBytesServer {
 public:
  explicit StrayBytesServer(int stray_connections)
      : stray_connections_(stray_connections) {
    auto fd = ListenOn(0, &port_);
    EXPECT_TRUE(fd.ok());
    listen_ = OwnedFd(fd.value());
    thread_ = std::thread([this] { Loop(); });
  }
  ~StrayBytesServer() {
    stop_.store(true);
    thread_.join();
  }
  StrayBytesServer(const StrayBytesServer&) = delete;
  StrayBytesServer& operator=(const StrayBytesServer&) = delete;

  uint16_t port() const { return port_; }
  int accepted() const { return accepted_.load(); }

 private:
  void Loop() {
    while (!stop_.load()) {
      if (!PollReadable(listen_.get(), 10.0)) continue;
      OwnedFd conn(::accept(listen_.get(), nullptr, nullptr));
      if (!conn.valid()) continue;
      const bool stray = accepted_.fetch_add(1) < stray_connections_;
      Serve(conn.get(), stray);
    }
  }

  void Serve(int fd, bool stray) {
    FrameReader reader(fd);
    while (!stop_.load()) {
      if (reader.buffered() == 0 && !PollReadable(fd, 10.0)) continue;
      auto frame = reader.Read(2000.0, /*readable=*/true);
      if (!frame.ok()) return;  // the client hung up
      FrameType type = FrameType::kPong;
      std::string payload;
      if (frame->type == FrameType::kHello) {
        type = FrameType::kHelloAck;
        payload = EncodeHelloAckPayload(kWireVersion, "stray");
      } else if (frame->type == FrameType::kQuery) {
        ServeAnswer answer;
        answer.result = std::make_shared<TabulaQueryResult>();
        BufferWriter w;
        EncodeServeAnswer(answer, &w);
        type = FrameType::kAnswer;
        payload.assign(w.data(), w.size());
      }
      std::string reply = EncodeFrame(type, frame->request_id, payload);
      if (stray && frame->type != FrameType::kHello) {
        reply += "stray";
        stray = false;
      }
      if (!WriteFull(fd, reply.data(), reply.size(), 2000.0).ok()) return;
    }
  }

  const int stray_connections_;
  uint16_t port_ = 0;
  OwnedFd listen_;
  std::atomic<bool> stop_{false};
  std::atomic<int> accepted_{0};
  std::thread thread_;
};

TEST(NetLoopbackTest, StrayBytesAfterAReplyFailTheReadAndTheNextRequestRedials) {
  StrayBytesServer server(/*stray_connections=*/2);
  NetClientOptions options;
  options.endpoints.push_back({"127.0.0.1", server.port()});
  options.hedge = false;
  options.max_attempts = 1;
  TabulaClient client(options);

  // Query path: the reply is followed by stray bytes on connection 1.
  auto first = client.Query(QueryRequest{});
  EXPECT_EQ(first.status().code(), StatusCode::kDataLoss)
      << first.status().ToString();
  // Exchange path: the next request dials connection 2 (the first was
  // closed, never pooled), and its Pong is followed by stray bytes too.
  Status ping = client.Ping();
  EXPECT_EQ(ping.code(), StatusCode::kDataLoss) << ping.ToString();
  EXPECT_EQ(server.accepted(), 2);
  // Connection 3 is clean, and it is pooled after a clean exchange.
  EXPECT_TRUE(client.Query(QueryRequest{}).ok());
  EXPECT_TRUE(client.Ping().ok());
  EXPECT_EQ(server.accepted(), 3);
}

// ---------------------------------------------------------------------
// Fault-seam matrix: one injected transport failure per seam; the
// client's reconnect-and-retry absorbs each.
// ---------------------------------------------------------------------

class NetFaultSeamTest : public ::testing::TestWithParam<const char*> {};

TEST_P(NetFaultSeamTest, SingleTransportFaultIsRetriedAway) {
  ScopedFaultClear clear;
  NetFixture fx;
  ASSERT_TRUE(fx.Start().ok());
  TabulaClient client(fx.ClientOptions());
  client.set_table(fx.table.get());

  // An iceberg-cell request (replica probes only happen when the query
  // fans out to the shards), forced past the result cache so every
  // send exercises the engine.
  QueryRequest request;
  for (const auto& q : fx.Queries(32)) {
    auto probe = fx.engine->Query(QueryRequest(q.where));
    ASSERT_TRUE(probe.ok());
    if (probe->result.from_local_sample) {
      request = QueryRequest(q.where);
      break;
    }
  }
  ASSERT_FALSE(request.where.empty()) << "fixture produced no iceberg cells";
  request.consistency = ConsistencyHint::kBypassCache;

  // Warm the pool so exchange-level seams land on an established
  // connection — except for net.accept, which only fires on the dial
  // path a warm pool would skip.
  const bool dial_seam = std::string(GetParam()) == "net.accept";
  if (!dial_seam) ASSERT_TRUE(client.Query(request).ok());

  FaultSpec spec;
  spec.every_nth = 1;
  spec.max_triggers = 1;
  FaultInjector::Global().Arm(GetParam(), spec);

  auto answer = client.Query(request);
  ASSERT_TRUE(answer.ok())
      << GetParam() << ": " << answer.status().ToString();
  EXPECT_EQ(FaultInjector::Global().StatsFor(GetParam()).triggers, 1u);

  // And the connection pool is healthy afterwards.
  FaultInjector::Global().DisarmAll();
  EXPECT_TRUE(client.Query(request).ok());
}

INSTANTIATE_TEST_SUITE_P(Seams, NetFaultSeamTest,
                         ::testing::Values("net.accept", "net.read",
                                           "net.write", "replica.query"));

TEST(NetLoopbackTest, PersistentReadFaultSurfacesTransportError) {
  ScopedFaultClear clear;
  NetFixture fx;
  ASSERT_TRUE(fx.Start().ok());
  NetClientOptions options = fx.ClientOptions();
  options.max_attempts = 2;
  TabulaClient client(options);
  client.set_table(fx.table.get());

  FaultSpec spec;
  spec.every_nth = 1;  // unlimited: every server-side read fails
  FaultInjector::Global().Arm("net.read", spec);
  auto answer = client.Query(QueryRequest(fx.Queries(1)[0].where));
  ASSERT_FALSE(answer.ok());
  StatusCode code = answer.status().code();
  EXPECT_TRUE(code == StatusCode::kIOError ||
              code == StatusCode::kUnavailable ||
              code == StatusCode::kDataLoss)
      << answer.status().ToString();
}

// ---------------------------------------------------------------------
// Hedging: slow replies trigger a duplicate request; the loser is
// abandoned without leaking server admission slots.
// ---------------------------------------------------------------------

TEST(NetLoopbackTest, HedgingUnderSlowWritesLeaksNoAdmissionSlots) {
  ScopedFaultClear clear;
  NetFixture fx;
  QueryServerOptions serve_options;
  serve_options.max_concurrency = 2;
  serve_options.max_queue = 64;
  ASSERT_TRUE(fx.Start(3, 2, serve_options).ok());

  NetClientOptions options = fx.ClientOptions();
  options.hedge = true;
  options.hedge_floor_ms = 1.0;
  options.hedge_min_samples = 1u << 30;  // floor-paced, deterministic
  TabulaClient client(options);
  client.set_table(fx.table.get());

  // Every other reply write stalls 25 ms — far past the hedge floor.
  FaultSpec slow;
  slow.every_nth = 2;
  slow.delay_ms = 25.0;
  slow.fail = false;
  FaultInjector::Global().Arm("net.write", slow);

  auto qs = fx.Queries(12);
  for (const auto& q : qs) {
    auto answer = client.Query(QueryRequest(q.where));
    ASSERT_TRUE(answer.ok()) << answer.status().ToString();
  }
  EXPECT_GE(client.metrics().counter("net_client_hedges").value(), 1u);

  // If abandoned hedges leaked admission slots, max_concurrency = 2
  // would wedge the server within a few requests. It must still serve
  // a full burst after the fault is gone.
  FaultInjector::Global().DisarmAll();
  for (int round = 0; round < 3; ++round) {
    for (const auto& q : qs) {
      auto answer = client.Query(QueryRequest(q.where));
      ASSERT_TRUE(answer.ok()) << answer.status().ToString();
    }
  }
  EXPECT_TRUE(client.Ping().ok());
}

TEST(NetLoopbackTest, ServerStopUnblocksClients) {
  NetFixture fx;
  ASSERT_TRUE(fx.Start().ok());
  TabulaClient client(fx.ClientOptions());
  ASSERT_TRUE(client.Ping().ok());
  fx.net->Stop();
  auto answer = client.Query(QueryRequest{});
  EXPECT_FALSE(answer.ok());
}

}  // namespace
}  // namespace tabula
