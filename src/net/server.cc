#include "net/server.h"

#include <poll.h>
#include <sys/socket.h>

#include <utility>

#include "common/binary_io.h"
#include "common/stopwatch.h"
#include "testing/fault_injection.h"

namespace tabula {

namespace {
constexpr char kConnectionsTotal[] = "net_connections_total";
constexpr char kConnectionsRejected[] = "net_connections_rejected";
constexpr char kRequestsTotal[] = "net_requests_total";
constexpr char kReadErrors[] = "net_read_errors";
constexpr char kWriteErrors[] = "net_write_errors";
constexpr char kFrameErrors[] = "net_frame_errors";
constexpr char kServerLatency[] = "net_server_latency";

/// Shutdown-responsive tick: workers and the accept loop wake this
/// often to re-check running_.
constexpr double kPollTickMs = 25.0;
/// Once a frame header started arriving, the rest must follow within
/// this budget or the connection is declared torn.
constexpr double kFrameReadDeadlineMs = 10000.0;
}  // namespace

TabulaNetServer::Meters::Meters(MetricsRegistry& registry)
    : connections_total(registry.counter(kConnectionsTotal)),
      connections_rejected(registry.counter(kConnectionsRejected)),
      requests_total(registry.counter(kRequestsTotal)),
      read_errors(registry.counter(kReadErrors)),
      write_errors(registry.counter(kWriteErrors)),
      frame_errors(registry.counter(kFrameErrors)),
      latency(registry.histogram(kServerLatency)) {
  for (size_t t = static_cast<size_t>(FrameType::kHello); t < frames.size();
       ++t) {
    frames[t] = &registry.counter(
        std::string("net_frames_") +
        FrameTypeName(static_cast<FrameType>(t)));
  }
}

TabulaNetServer::TabulaNetServer(QueryServer* server,
                                 NetServerOptions options)
    : server_(server), options_(std::move(options)) {
  if (options_.num_workers == 0) options_.num_workers = 1;
}

TabulaNetServer::~TabulaNetServer() { Stop(); }

Status TabulaNetServer::Start() {
  if (running_.load(std::memory_order_acquire)) {
    return Status::AlreadyExists("server already running");
  }
  TABULA_ASSIGN_OR_RETURN(int fd, ListenOn(options_.port, &port_));
  listen_fd_ = OwnedFd(fd);
  running_.store(true, std::memory_order_release);
  accept_thread_ = std::thread([this] { AcceptLoop(); });
  workers_.reserve(options_.num_workers);
  for (size_t i = 0; i < options_.num_workers; ++i) {
    workers_.emplace_back([this] { WorkerLoop(); });
  }
  return Status::OK();
}

void TabulaNetServer::Stop() {
  if (!running_.exchange(false, std::memory_order_acq_rel)) return;
  // The accept loop and connection loops poll with a short tick and
  // re-check running_, so closing the listening socket plus the flag
  // flip drains everything within one tick.
  if (listen_fd_.valid()) ::shutdown(listen_fd_.get(), SHUT_RDWR);
  queue_cv_.notify_all();
  if (accept_thread_.joinable()) accept_thread_.join();
  for (std::thread& worker : workers_) {
    if (worker.joinable()) worker.join();
  }
  workers_.clear();
  listen_fd_.Close();
  std::lock_guard<std::mutex> lock(queue_mu_);
  pending_.clear();  // OwnedFd closes each
}

void TabulaNetServer::AcceptLoop() {
  while (running_.load(std::memory_order_acquire)) {
    pollfd pfd{listen_fd_.get(), POLLIN, 0};
    int ready = ::poll(&pfd, 1, static_cast<int>(kPollTickMs));
    if (ready <= 0) continue;
    int conn = ::accept(listen_fd_.get(), nullptr, nullptr);
    if (conn < 0) continue;
    OwnedFd owned(conn);
    meters_.connections_total.Increment();
    if (FaultInjector::AnyArmed()) {
      // A triggered accept fault models a listener that lost the
      // connection before serving it (SYN backlog drop, FD pressure):
      // the socket closes and the client sees a reset/EOF and retries.
      Status injected = FaultInjector::Global().Hit("net.accept");
      if (!injected.ok()) {
        meters_.connections_rejected.Increment();
        continue;  // OwnedFd closes the connection
      }
    }
    {
      std::lock_guard<std::mutex> lock(queue_mu_);
      if (pending_.size() >= options_.max_pending_connections) {
        meters_.connections_rejected.Increment();
        continue;  // shed load: close instead of queueing unboundedly
      }
      pending_.push_back(std::move(owned));
    }
    queue_cv_.notify_one();
  }
}

void TabulaNetServer::WorkerLoop() {
  while (true) {
    OwnedFd conn;
    {
      std::unique_lock<std::mutex> lock(queue_mu_);
      queue_cv_.wait(lock, [this] {
        return !pending_.empty() ||
               !running_.load(std::memory_order_acquire);
      });
      if (!running_.load(std::memory_order_acquire)) return;
      conn = std::move(pending_.front());
      pending_.pop_front();
    }
    ServeConnection(std::move(conn));
  }
}

void TabulaNetServer::ServeConnection(OwnedFd conn) {
  FrameReader reader(conn.get());
  while (running_.load(std::memory_order_acquire)) {
    // Bytes buffered past the last frame are the next frame's start;
    // only an empty buffer waits on the socket. The tick poll is the
    // one poll of a frame: the reader's first receive trusts it.
    if (reader.buffered() == 0 && !PollReadable(conn.get(), kPollTickMs)) {
      continue;
    }
    if (FaultInjector::AnyArmed()) {
      Status injected = FaultInjector::Global().Hit("net.read");
      if (!injected.ok()) {
        meters_.read_errors.Increment();
        return;  // connection closes; the client reconnects/retries
      }
    }
    Result<Frame> frame =
        reader.Read(kFrameReadDeadlineMs, /*readable=*/true);
    if (!frame.ok()) {
      if (frame.status().code() == StatusCode::kDataLoss) {
        // Unframeable stream: tell the peer why (best effort) and hang
        // up — recovery is the client's reconnect, never a resync scan.
        meters_.frame_errors.Increment();
        WriteFrame(conn.get(), FrameType::kError, 0,
                   EncodeErrorPayload(frame.status()), kFrameReadDeadlineMs);
      } else if (frame.status().code() != StatusCode::kIOError) {
        meters_.read_errors.Increment();
      }
      return;
    }
    if (!HandleFrame(conn.get(), frame.value())) return;
  }
}

bool TabulaNetServer::HandleFrame(int fd, const Frame& frame) {
  meters_.requests_total.Increment();
  meters_.frames[static_cast<size_t>(frame.type)]->Increment();
  Stopwatch timer;
  Tracer* tracer = server_->tracer();
  Span span;
  if (tracer != nullptr) {
    span = tracer->StartSpan("rpc.server", 0, /*opt_in=*/false);
    if (span.recording()) {
      span.SetAttribute("frame_type", FrameTypeName(frame.type));
      span.SetAttribute("request_id", frame.request_id);
    }
  }

  FrameType reply_type = FrameType::kError;
  std::string reply;
  switch (frame.type) {
    case FrameType::kHello: {
      auto range = DecodeHelloPayload(frame.payload);
      if (!range.ok()) {
        reply = EncodeErrorPayload(range.status());
        break;
      }
      auto [lo, hi] = range.value();
      if (kWireVersion < lo || kWireVersion > hi) {
        reply = EncodeErrorPayload(Status::InvalidArgument(
            "no common wire version (client " + std::to_string(lo) + ".." +
            std::to_string(hi) + ", server " + std::to_string(kWireVersion) +
            ")"));
        break;
      }
      reply_type = FrameType::kHelloAck;
      reply = EncodeHelloAckPayload(kWireVersion, options_.banner);
      break;
    }
    case FrameType::kQuery: {
      BufferReader reader(frame.payload);
      Result<QueryRequest> request = DecodeQueryRequest(&reader);
      if (!request.ok()) {
        reply = EncodeErrorPayload(request.status());
        break;
      }
      // Span ids are process-local: re-parent under this side's
      // rpc.server span instead of trusting a foreign id.
      request.value().parent_span = span.id();
      Result<ServeAnswer> answer = server_->Query(request.value());
      if (!answer.ok()) {
        reply = EncodeErrorPayload(answer.status());
        break;
      }
      BufferWriter w;
      EncodeServeAnswer(answer.value(), &w);
      reply_type = FrameType::kAnswer;
      reply.assign(w.data(), w.size());
      break;
    }
    case FrameType::kBatchQuery: {
      Result<std::vector<QueryRequest>> requests =
          DecodeBatchQueryPayload(frame.payload);
      if (!requests.ok()) {
        reply = EncodeErrorPayload(requests.status());
        break;
      }
      for (QueryRequest& request : requests.value()) {
        request.parent_span = span.id();
      }
      Result<std::vector<BatchItem>> items =
          server_->BatchQuery(requests.value());
      if (!items.ok()) {
        reply = EncodeErrorPayload(items.status());
        break;
      }
      reply_type = FrameType::kBatchAnswer;
      reply = EncodeBatchAnswerPayload(items.value());
      break;
    }
    case FrameType::kPing:
      reply_type = FrameType::kPong;
      break;
    case FrameType::kAdmin: {
      Result<std::string> command = DecodeAdminPayload(frame.payload);
      if (!command.ok()) {
        reply = EncodeErrorPayload(command.status());
        break;
      }
      reply_type = FrameType::kAdminAck;
      reply = HandleAdmin(command.value());
      break;
    }
    default:
      // A server must never receive reply-direction frames.
      reply = EncodeErrorPayload(Status::InvalidArgument(
          std::string("unexpected frame type ") + FrameTypeName(frame.type)));
      break;
  }

  // Narrow variant of the `net.write` seam below: fires only on
  // answer-bearing replies, never on handshake/control frames. A bench
  // or test can stall the data path while fresh connections still
  // handshake cleanly — the hedging bench measures exactly that
  // contrast (a hedge that dials must not inherit the stall it is
  // trying to escape).
  if (reply_type == FrameType::kAnswer ||
      reply_type == FrameType::kBatchAnswer) {
    TABULA_FAULT_DELAY("net.write.answer");
  }
  TABULA_FAULT_DELAY("net.write");
  if (FaultInjector::AnyArmed()) {
    Status injected = FaultInjector::Global().Hit("net.write");
    if (!injected.ok()) {
      meters_.write_errors.Increment();
      return false;  // reply lost; client deadline/hedge covers it
    }
  }
  Status written = WriteFrame(fd, reply_type, frame.request_id, reply,
                              kFrameReadDeadlineMs);
  double elapsed = span.recording() ? span.End() : timer.ElapsedMillis();
  meters_.latency.RecordMillis(elapsed);
  if (!written.ok()) {
    meters_.write_errors.Increment();
    return false;
  }
  return true;
}

std::string TabulaNetServer::HandleAdmin(const std::string& command) {
  if (admin_handler_) {
    Result<std::string> handled = admin_handler_(command);
    if (handled.ok()) {
      return EncodeAdminAckPayload(Status::OK(), handled.value());
    }
    if (handled.status().code() != StatusCode::kNotFound) {
      return EncodeAdminAckPayload(handled.status(), "");
    }
    // kNotFound → fall through to the built-ins.
  }
  if (command == "ping") {
    return EncodeAdminAckPayload(Status::OK(), "pong");
  }
  if (command == "metrics") {
    return EncodeAdminAckPayload(
        Status::OK(), server_->MetricsText() + metrics_.RenderText());
  }
  return EncodeAdminAckPayload(
      Status::NotFound("unknown admin command '" + command + "'"), "");
}

}  // namespace tabula
