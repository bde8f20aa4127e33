#include "net/client.h"

#include <algorithm>
#include <utility>

#include "common/binary_io.h"
#include "common/stopwatch.h"
#include "net/wire.h"

namespace tabula {

namespace {
constexpr char kRequests[] = "net_client_requests";
constexpr char kReconnects[] = "net_client_reconnects";
constexpr char kHedges[] = "net_client_hedges";
constexpr char kHedgeWins[] = "net_client_hedge_wins";
constexpr char kErrors[] = "net_client_errors";
constexpr char kLatency[] = "net_client_latency";

/// True for failures of the connection itself (worth a reconnect +
/// resend) as opposed to an answer the server chose to send.
bool IsTransportFailure(const Status& status) {
  return status.code() == StatusCode::kIOError ||
         status.code() == StatusCode::kUnavailable ||
         status.code() == StatusCode::kDataLoss;
}
}  // namespace

TabulaClient::Meters::Meters(MetricsRegistry& registry)
    : requests(registry.counter(kRequests)),
      reconnects(registry.counter(kReconnects)),
      hedges(registry.counter(kHedges)),
      hedge_wins(registry.counter(kHedgeWins)),
      errors(registry.counter(kErrors)),
      latency(registry.histogram(kLatency)) {}

TabulaClient::TabulaClient(NetClientOptions options)
    : options_(std::move(options)) {
  if (options_.pool_size == 0) options_.pool_size = 1;
  if (options_.max_attempts == 0) options_.max_attempts = 1;
  endpoints_.reserve(options_.endpoints.size());
  for (const NetEndpoint& address : options_.endpoints) {
    auto ep = std::make_unique<Endpoint>();
    ep->address = address;
    endpoints_.push_back(std::move(ep));
  }
}

TabulaClient::~TabulaClient() = default;  // OwnedFd pools close themselves

size_t TabulaClient::PickEndpoint(size_t exclude) const {
  size_t best = SIZE_MAX;
  // Sort key: healthy first, then lowest EWMA latency (0 = untried,
  // which deliberately sorts first so new endpoints receive traffic
  // and earn a real estimate), then lowest index.
  auto better = [](bool h1, int64_t e1, bool h2, int64_t e2) {
    if (h1 != h2) return h1;
    return e1 < e2;
  };
  bool best_healthy = false;
  int64_t best_ewma = 0;
  for (size_t i = 0; i < endpoints_.size(); ++i) {
    if (i == exclude) continue;
    bool healthy =
        endpoints_[i]->failures.load(std::memory_order_relaxed) < 3;
    int64_t ewma =
        endpoints_[i]->ewma_micros.load(std::memory_order_relaxed);
    if (best == SIZE_MAX ||
        better(healthy, ewma, best_healthy, best_ewma)) {
      best = i;
      best_healthy = healthy;
      best_ewma = ewma;
    }
  }
  return best;
}

Result<OwnedFd> TabulaClient::CheckOut(Endpoint* ep) {
  {
    std::lock_guard<std::mutex> lock(ep->mu);
    if (!ep->idle.empty()) {
      OwnedFd fd = std::move(ep->idle.back());
      ep->idle.pop_back();
      return fd;
    }
  }
  TABULA_ASSIGN_OR_RETURN(
      int raw, ConnectTo(ep->address.host, ep->address.port,
                         options_.connect_timeout_ms));
  OwnedFd fd(raw);
  // Version check on every fresh connection: cheap, and it verifies
  // the peer actually speaks the protocol before a real request is
  // risked on the connection.
  TABULA_RETURN_NOT_OK(WriteFrame(
      fd.get(), FrameType::kHello, 0,
      EncodeHelloPayload(kWireVersion, kWireVersion),
      options_.connect_timeout_ms));
  TABULA_ASSIGN_OR_RETURN(Frame ack,
                          ReadFrame(fd.get(), options_.connect_timeout_ms));
  if (ack.type == FrameType::kError) {
    return DecodeErrorPayload(ack.payload);
  }
  if (ack.type != FrameType::kHelloAck) {
    return Status::DataLoss(std::string("expected HelloAck, got ") +
                            FrameTypeName(ack.type));
  }
  TABULA_RETURN_NOT_OK(DecodeHelloAckPayload(ack.payload).status());
  return fd;
}

void TabulaClient::CheckIn(Endpoint* ep, OwnedFd fd) {
  std::lock_guard<std::mutex> lock(ep->mu);
  if (ep->idle.size() < options_.pool_size) {
    ep->idle.push_back(std::move(fd));
  }
  // else: fd destructor closes the surplus connection
}

void TabulaClient::RecordLatency(Endpoint* ep, double millis) {
  meters_.latency.RecordMillis(millis);
  int64_t sample = static_cast<int64_t>(millis * 1000.0);
  int64_t old = ep->ewma_micros.load(std::memory_order_relaxed);
  int64_t next = old == 0 ? sample : (old * 4 + sample) / 5;
  ep->ewma_micros.store(next, std::memory_order_relaxed);
  ep->failures.store(0, std::memory_order_relaxed);
}

double TabulaClient::CurrentHedgeDelayMs() const {
  HistogramSnapshot snapshot = meters_.latency.Snapshot();
  if (snapshot.count < options_.hedge_min_samples) {
    return options_.hedge_floor_ms;
  }
  return std::max(options_.hedge_floor_ms,
                  snapshot.P95Micros() / 1000.0);
}

Result<Frame> TabulaClient::Exchange(Endpoint* ep, FrameType type,
                                     const std::string& payload,
                                     double deadline_ms) {
  TABULA_ASSIGN_OR_RETURN(OwnedFd fd, CheckOut(ep));
  uint64_t id = next_request_id_.fetch_add(1, std::memory_order_relaxed);
  Status sent = WriteFrame(fd.get(), type, id, payload, deadline_ms);
  if (!sent.ok()) return sent;  // fd closes: the stream state is unknown
  Result<Frame> reply = ReadFrame(fd.get(), deadline_ms);
  if (!reply.ok()) return reply.status();
  if (reply.value().request_id != id) {
    return Status::DataLoss("response id mismatch (sent " +
                            std::to_string(id) + ", got " +
                            std::to_string(reply.value().request_id) + ")");
  }
  CheckIn(ep, std::move(fd));
  return reply;
}

Result<ServeAnswer> TabulaClient::Query(const QueryRequest& request) {
  if (endpoints_.empty()) {
    return Status::InvalidArgument("client has no endpoints");
  }
  meters_.requests.Increment();
  BufferWriter w;
  EncodeQueryRequest(request, &w);
  const std::string payload(w.data(), w.size());
  const double deadline = options_.request_timeout_ms;

  Status last_failure = Status::Unavailable("request not attempted");
  for (size_t attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) meters_.reconnects.Increment();
    const size_t primary_idx = PickEndpoint(SIZE_MAX);
    Endpoint* primary = endpoints_[primary_idx].get();
    Stopwatch timer;

    Result<OwnedFd> conn = CheckOut(primary);
    if (!conn.ok()) {
      primary->failures.fetch_add(1, std::memory_order_relaxed);
      last_failure = conn.status();
      continue;
    }
    OwnedFd fd = std::move(conn).value();
    const uint64_t id =
        next_request_id_.fetch_add(1, std::memory_order_relaxed);
    Status sent = WriteFrame(fd.get(), FrameType::kQuery, id, payload,
                             deadline);
    if (!sent.ok()) {
      primary->failures.fetch_add(1, std::memory_order_relaxed);
      last_failure = sent;
      continue;  // fd closes
    }

    // Reads one in-flight response and classifies the outcome:
    // a ServeAnswer, a server-sent Status, or a transport failure.
    struct Outcome {
      bool transport_failed = false;
      Status status;
      ServeAnswer answer;
    };
    // `readable`: a poll just found the reply arriving.
    auto read_answer = [&](int raw_fd, uint64_t want_id, double budget,
                           bool readable) -> Outcome {
      Outcome out;
      Result<Frame> reply = ReadFrame(raw_fd, budget, readable);
      if (!reply.ok()) {
        out.transport_failed = true;
        out.status = reply.status();
        return out;
      }
      const Frame& frame = reply.value();
      if (frame.request_id != want_id) {
        out.transport_failed = true;
        out.status = Status::DataLoss("response id mismatch");
        return out;
      }
      if (frame.type == FrameType::kError) {
        out.status = DecodeErrorPayload(frame.payload);
        return out;
      }
      if (frame.type != FrameType::kAnswer) {
        out.transport_failed = true;
        out.status = Status::DataLoss(std::string("expected Answer, got ") +
                                      FrameTypeName(frame.type));
        return out;
      }
      BufferReader reader(frame.payload);
      Result<ServeAnswer> decoded = DecodeServeAnswer(&reader, table_);
      if (!decoded.ok()) {
        out.transport_failed = true;
        out.status = decoded.status();
        return out;
      }
      out.answer = std::move(decoded).value();
      return out;
    };

    // Hedge-after-p95: give the primary the observed p95 (or the
    // floor), then race a duplicate on the next-best endpoint. A
    // single-endpoint deployment hedges over a second pooled
    // connection — the server's worker loop is the queue being raced.
    bool hedged = false;
    bool primary_ready = true;
    if (options_.hedge) {
      const double hedge_delay =
          std::min(CurrentHedgeDelayMs(), deadline);
      primary_ready = PollReadable(fd.get(), hedge_delay);
    }

    Outcome outcome;
    bool secondary_won = false;
    if (primary_ready) {
      // With hedging on, the hedge poll already saw the reply arrive.
      outcome = read_answer(fd.get(), id, deadline - timer.ElapsedMillis(),
                            /*readable=*/options_.hedge);
    } else {
      meters_.hedges.Increment();
      hedged = true;
      const size_t secondary_idx =
          endpoints_.size() > 1 ? PickEndpoint(primary_idx) : primary_idx;
      Endpoint* secondary = endpoints_[secondary_idx].get();
      Result<OwnedFd> conn2 = CheckOut(secondary);
      const uint64_t id2 =
          next_request_id_.fetch_add(1, std::memory_order_relaxed);
      bool racing = false;
      OwnedFd fd2;
      if (conn2.ok()) {
        fd2 = std::move(conn2).value();
        racing = WriteFrame(fd2.get(), FrameType::kQuery, id2, payload,
                            deadline - timer.ElapsedMillis())
                     .ok();
      }
      if (!racing) {
        // Could not launch the hedge; fall back to waiting out the
        // primary alone.
        outcome = read_answer(fd.get(), id, deadline - timer.ElapsedMillis(),
                              /*readable=*/false);
      } else {
        int winner = PollFirstReadable(fd.get(), fd2.get(),
                                       deadline - timer.ElapsedMillis());
        if (winner < 0) {
          outcome.transport_failed = true;
          outcome.status = Status::Unavailable("request deadline exceeded");
        } else if (winner == 0) {
          outcome = read_answer(fd.get(), id,
                                deadline - timer.ElapsedMillis(),
                                /*readable=*/true);
          // Cancellation = closing the loser's connection (fd2 falls
          // out of scope): its late response dies with the socket
          // instead of desynchronizing a pooled stream.
        } else {
          secondary_won = true;
          outcome = read_answer(fd2.get(), id2,
                                deadline - timer.ElapsedMillis(),
                                /*readable=*/true);
          if (!outcome.transport_failed && outcome.status.ok()) {
            meters_.hedge_wins.Increment();
            RecordLatency(secondary, timer.ElapsedMillis());
            CheckIn(secondary, std::move(fd2));
            // The abandoned primary closes with fd.
            return std::move(outcome.answer);
          }
        }
      }
    }

    if (outcome.transport_failed) {
      primary->failures.fetch_add(1, std::memory_order_relaxed);
      meters_.errors.Increment();
      last_failure = outcome.status;
      if (!IsTransportFailure(outcome.status)) return outcome.status;
      continue;  // both connections (if any) close; retry fresh
    }
    if (!outcome.status.ok()) {
      // The server answered with a Status: the connection is healthy,
      // the request simply failed (bad predicate, admission full, ...).
      if (!secondary_won && !hedged) CheckIn(primary, std::move(fd));
      return outcome.status;
    }
    RecordLatency(primary, timer.ElapsedMillis());
    if (!secondary_won) {
      if (!hedged || primary_ready) {
        CheckIn(primary, std::move(fd));
      } else {
        // Primary won the race; it is still clean (one request, one
        // response) so it may return to the pool.
        CheckIn(primary, std::move(fd));
      }
    }
    return std::move(outcome.answer);
  }
  return last_failure;
}

Result<std::vector<BatchItem>> TabulaClient::BatchQuery(
    const std::vector<QueryRequest>& requests) {
  if (endpoints_.empty()) {
    return Status::InvalidArgument("client has no endpoints");
  }
  meters_.requests.Increment();
  const std::string payload = EncodeBatchQueryPayload(requests);
  Status last_failure = Status::Unavailable("request not attempted");
  for (size_t attempt = 0; attempt < options_.max_attempts; ++attempt) {
    if (attempt > 0) meters_.reconnects.Increment();
    const size_t idx = PickEndpoint(SIZE_MAX);
    Endpoint* ep = endpoints_[idx].get();
    Stopwatch timer;
    Result<Frame> reply = Exchange(ep, FrameType::kBatchQuery, payload,
                                   options_.request_timeout_ms);
    if (!reply.ok()) {
      ep->failures.fetch_add(1, std::memory_order_relaxed);
      meters_.errors.Increment();
      last_failure = reply.status();
      if (!IsTransportFailure(last_failure)) return last_failure;
      continue;
    }
    const Frame& frame = reply.value();
    if (frame.type == FrameType::kError) {
      return DecodeErrorPayload(frame.payload);
    }
    if (frame.type != FrameType::kBatchAnswer) {
      return Status::DataLoss(std::string("expected BatchAnswer, got ") +
                              FrameTypeName(frame.type));
    }
    RecordLatency(ep, timer.ElapsedMillis());
    return DecodeBatchAnswerPayload(frame.payload, table_);
  }
  return last_failure;
}

Status TabulaClient::Ping(size_t endpoint_index) {
  if (endpoint_index >= endpoints_.size()) {
    return Status::InvalidArgument("no such endpoint");
  }
  TABULA_ASSIGN_OR_RETURN(
      Frame reply, Exchange(endpoints_[endpoint_index].get(),
                            FrameType::kPing, "",
                            options_.request_timeout_ms));
  if (reply.type != FrameType::kPong) {
    return Status::DataLoss(std::string("expected Pong, got ") +
                            FrameTypeName(reply.type));
  }
  return Status::OK();
}

Result<std::string> TabulaClient::Admin(const std::string& command,
                                        size_t endpoint_index) {
  if (endpoint_index >= endpoints_.size()) {
    return Status::InvalidArgument("no such endpoint");
  }
  TABULA_ASSIGN_OR_RETURN(
      Frame reply, Exchange(endpoints_[endpoint_index].get(),
                            FrameType::kAdmin, EncodeAdminPayload(command),
                            options_.request_timeout_ms));
  if (reply.type == FrameType::kError) {
    return DecodeErrorPayload(reply.payload);
  }
  if (reply.type != FrameType::kAdminAck) {
    return Status::DataLoss(std::string("expected AdminAck, got ") +
                            FrameTypeName(reply.type));
  }
  TABULA_ASSIGN_OR_RETURN(auto ack, DecodeAdminAckPayload(reply.payload));
  if (!ack.first.ok()) return ack.first;
  return ack.second;
}

}  // namespace tabula
