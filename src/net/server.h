#ifndef TABULA_NET_SERVER_H_
#define TABULA_NET_SERVER_H_

#include <array>
#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/status.h"
#include "net/socket.h"
#include "serve/metrics.h"
#include "serve/query_server.h"

namespace tabula {

/// Configuration of a TabulaNetServer.
struct NetServerOptions {
  /// TCP port on 127.0.0.1 (0 → ephemeral; read it back via port()).
  uint16_t port = 0;
  /// Connection-serving worker threads. A worker owns one connection at
  /// a time and serves its frames sequentially, so this bounds the
  /// number of concurrently served connections; pooled clients should
  /// size their pools accordingly.
  size_t num_workers = 8;
  /// Accepted connections waiting for a worker beyond this bound are
  /// closed immediately (fail fast under overload instead of queueing
  /// without bound — the admission-queue discipline of QueryServer
  /// applied to connections).
  size_t max_pending_connections = 64;
  /// Free-form server identification returned in the HelloAck banner.
  std::string banner = "tabula";
};

/// \brief Socket front-end of a QueryServer — the first process
/// boundary a Tabula query survives.
///
/// A bounded accept/worker loop: one accept thread pushes connections
/// into a bounded queue; `num_workers` workers pop one connection each
/// and serve its frames (Hello handshake, Query/BatchQuery through the
/// fronted QueryServer, Ping, Admin) until the peer hangs up. Frame
/// decode failures (torn frames, checksum mismatches) close the
/// connection — the stream is unframeable — after attempting a kError
/// reply so a live peer learns why.
///
/// Fault seams: `net.accept` (drops the freshly accepted connection),
/// `net.read` (fails the frame read → connection closes), `net.write`
/// (fails/delays the reply write; the delay variant is how tests and
/// benches create the slow-server tails hedging exists for).
///
/// Observability: every request runs inside an "rpc.server" span
/// (parented per connection) when the fronted server has a tracer, and
/// the server keeps its own MetricsRegistry (connections, requests by
/// type, read/write errors, per-request latency histogram
/// `net_server_latency`).
class TabulaNetServer {
 public:
  /// `server` must outlive this object.
  TabulaNetServer(QueryServer* server, NetServerOptions options = {});
  ~TabulaNetServer();

  TabulaNetServer(const TabulaNetServer&) = delete;
  TabulaNetServer& operator=(const TabulaNetServer&) = delete;

  /// Binds, listens, and spawns the accept/worker threads.
  Status Start();

  /// Stops accepting, drains workers, closes every connection. Safe to
  /// call twice; the destructor calls it.
  void Stop();

  /// The bound port (valid after Start(); the ephemeral-port answer).
  uint16_t port() const { return port_; }

  bool running() const { return running_.load(std::memory_order_acquire); }

  /// Handler for kAdmin command strings, tried before the built-ins
  /// ("ping", "metrics"). Tools use it to wire deployment controls —
  /// replica kills, fault arming — without widening the protocol.
  /// Set before Start().
  void set_admin_handler(
      std::function<Result<std::string>(const std::string&)> handler) {
    admin_handler_ = std::move(handler);
  }

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

 private:
  void AcceptLoop();
  void WorkerLoop();
  /// Serves one connection until EOF/error/stop. Returns why it ended
  /// (for metrics; the connection is closed either way).
  void ServeConnection(OwnedFd conn);
  /// Dispatches one decoded frame; returns false when the connection
  /// must close (unframeable stream or write failure).
  bool HandleFrame(int fd, const Frame& frame);

  std::string HandleAdmin(const std::string& command);

  QueryServer* server_;
  NetServerOptions options_;
  uint16_t port_ = 0;
  OwnedFd listen_fd_;
  std::atomic<bool> running_{false};

  std::thread accept_thread_;
  std::vector<std::thread> workers_;

  std::mutex queue_mu_;
  std::condition_variable queue_cv_;
  std::deque<OwnedFd> pending_;

  std::function<Result<std::string>(const std::string&)> admin_handler_;
  mutable MetricsRegistry metrics_;

  /// The metrics the loops record into, looked up in `metrics_` once
  /// (its references are stable), so no frame takes the registry lock.
  struct Meters {
    explicit Meters(MetricsRegistry& registry);
    Counter& connections_total;
    Counter& connections_rejected;
    Counter& requests_total;
    Counter& read_errors;
    Counter& write_errors;
    Counter& frame_errors;
    LatencyHistogram& latency;
    /// `net_frames_<type>`, indexed by the FrameType value.
    std::array<Counter*, static_cast<size_t>(FrameType::kAdminAck) + 1>
        frames{};
  };
  Meters meters_{metrics_};
};

}  // namespace tabula

#endif  // TABULA_NET_SERVER_H_
