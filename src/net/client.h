#ifndef TABULA_NET_CLIENT_H_
#define TABULA_NET_CLIENT_H_

#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/query_request.h"
#include "net/socket.h"
#include "serve/metrics.h"
#include "serve/query_server.h"

namespace tabula {

/// One server address.
struct NetEndpoint {
  std::string host = "127.0.0.1";
  uint16_t port = 0;
};

/// Configuration of a TabulaClient.
struct NetClientOptions {
  /// Servers to spread load over. With several endpoints the client
  /// balances by EWMA latency and hedges across endpoints; with one it
  /// still hedges over a second pooled connection.
  std::vector<NetEndpoint> endpoints;
  /// Idle connections kept per endpoint.
  size_t pool_size = 2;
  double connect_timeout_ms = 2000.0;
  /// Socket-level budget for one request/response exchange. This is
  /// the transport deadline (how long to wait for bytes), independent
  /// of QueryRequest::deadline_ms (the serving deadline the server
  /// enforces).
  double request_timeout_ms = 10000.0;
  /// Hedge-after-p95: when the primary response has not arrived within
  /// the observed p95 request latency (never less than
  /// `hedge_floor_ms`), the request is re-sent to the next-best
  /// endpoint and the first response wins — the classic tail-at-scale
  /// move, bounded to at most one hedge per request.
  bool hedge = true;
  double hedge_floor_ms = 2.0;
  /// Observations required before the histogram p95 is trusted;
  /// beforehand the floor alone paces hedges.
  uint64_t hedge_min_samples = 32;
  /// Connection-level retries per request (reconnect + resend after a
  /// broken connection; decode failures are not retried).
  size_t max_attempts = 2;
};

/// \brief Pooled, deadline-aware, hedging client for TabulaNetServer.
///
/// Thread-safe: any number of threads may call Query()/BatchQuery()
/// concurrently; each request checks a connection out of the
/// per-endpoint pool (connecting lazily, with a Hello handshake on
/// every fresh connection) and returns it when the exchange completes
/// cleanly. A connection that failed or was abandoned by a hedge race
/// is closed, never reused — the response still in flight on it would
/// desynchronize the next request. Each reply is read with a
/// FrameReader scoped to its exchange; bytes that follow the reply
/// break request/response, fail the read with kDataLoss, and close the
/// connection.
///
/// Metrics (`metrics()`): `net_client_requests`, `net_client_reconnects`,
/// `net_client_hedges`, `net_client_hedge_wins` (secondary beat the
/// primary), `net_client_errors`, and the `net_client_latency`
/// histogram that drives the hedge-after-p95 threshold.
class TabulaClient {
 public:
  explicit TabulaClient(NetClientOptions options);
  ~TabulaClient();

  TabulaClient(const TabulaClient&) = delete;
  TabulaClient& operator=(const TabulaClient&) = delete;

  /// Optional: decoded answers' samples attach to this table (row ids
  /// validated against it). Without it, samples carry row ids only.
  void set_table(const Table* table) { table_ = table; }

  /// One dashboard query over the wire; mirrors QueryServer::Query.
  Result<ServeAnswer> Query(const QueryRequest& request);

  /// One multi-cell batch as a single kBatchQuery frame (no hedging —
  /// a batch is one server-side fan-out; duplicating it doubles work
  /// for tail gains hedged singles already capture).
  Result<std::vector<BatchItem>> BatchQuery(
      const std::vector<QueryRequest>& requests);

  /// Liveness probe against one endpoint.
  Status Ping(size_t endpoint_index = 0);

  /// Admin command against one endpoint (see TabulaNetServer admin
  /// handler); returns the response string.
  Result<std::string> Admin(const std::string& command,
                            size_t endpoint_index = 0);

  MetricsRegistry& metrics() { return metrics_; }
  const MetricsRegistry& metrics() const { return metrics_; }

  /// The hedge delay a request issued now would use (exposed for tests
  /// and the bench's reporting).
  double CurrentHedgeDelayMs() const;

  size_t num_endpoints() const { return endpoints_.size(); }

 private:
  struct Endpoint {
    NetEndpoint address;
    std::mutex mu;
    std::vector<OwnedFd> idle;
    /// EWMA request latency in microseconds (0 = no observation yet).
    std::atomic<int64_t> ewma_micros{0};
    /// Consecutive connection-level failures; >= 3 marks the endpoint
    /// unhealthy until a success resets it.
    std::atomic<int> failures{0};
  };

  /// Endpoint preference order: healthy before unhealthy, then lowest
  /// EWMA, then lowest index. `exclude` skips the primary when picking
  /// a hedge target (SIZE_MAX = none).
  size_t PickEndpoint(size_t exclude) const;

  /// Checks a connection out of `ep`'s pool, dialing (+ Hello) when
  /// the pool is empty.
  Result<OwnedFd> CheckOut(Endpoint* ep);
  void CheckIn(Endpoint* ep, OwnedFd fd);

  /// Sends `frame_payload` and reads the matching reply frame.
  Result<Frame> Exchange(Endpoint* ep, FrameType type,
                         const std::string& payload, double deadline_ms);

  void RecordLatency(Endpoint* ep, double millis);

  NetClientOptions options_;
  const Table* table_ = nullptr;
  std::vector<std::unique_ptr<Endpoint>> endpoints_;
  std::atomic<uint64_t> next_request_id_{1};
  mutable MetricsRegistry metrics_;

  /// The per-request metrics, looked up in `metrics_` once (its
  /// references are stable), so no request takes the registry lock.
  struct Meters {
    explicit Meters(MetricsRegistry& registry);
    Counter& requests;
    Counter& reconnects;
    Counter& hedges;
    Counter& hedge_wins;
    Counter& errors;
    LatencyHistogram& latency;
  };
  Meters meters_{metrics_};
};

}  // namespace tabula

#endif  // TABULA_NET_CLIENT_H_
