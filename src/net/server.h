// The front door: a framed-TCP server over a PlanningService, mapping
// network admission control onto the serving layer's existing
// priority / overflow machinery instead of inventing new
// queues:
//
//   * Per-client in-flight quota — each connection may have at most
//     ServerOptions::max_inflight_per_client requests pending; excess
//     requests are answered kRejectedQuota immediately, without ever
//     touching a shard queue (one client cannot monopolize a shard).
//   * Overload shedding — configure the service with
//     OverflowPolicy::kReject and a bounded queue; a full shard makes
//     Submit throw, which the server answers as kRejectedOverload. The
//     shard queue is the ONLY admission queue — the front door adds no
//     second buffer that would hide the backpressure signal.
//   * Deadline shedding — a request carrying deadline_ms whose result
//     resolves after the deadline is answered kRejectedDeadline (the
//     result is discarded). Late work is not delivered late; clients
//     size deadlines, servers enforce them.
//   * Priority — the request frame's priority field maps directly onto
//     service::Priority, so interactive traffic drains ahead of sweeps
//     exactly as it does for library callers.
//
// Connection model: one reader + one writer thread per connection. The
// reader decodes frames and submits to the service; every admission
// verdict (future, immediate reject, or error) is enqueued on the
// connection's FIFO, and the writer resolves it in order — so responses
// arrive in request order (pipelining is safe) and a slow plan ahead of
// a fast one is visible head-of-line latency, not reordering. A
// malformed frame closes only its own connection (with a logged
// diagnostic and a net.frames.malformed tick); the listener and every
// other connection keep serving.
//
// Observability: the server owns an obs::MetricsRegistry with the
// net.* instruments (obs/net_metrics.h) and optionally writes one JSON
// line per request (structured request log) to ServerOptions::log.
// When the service's trace log is enabled, each completed request also
// records a "net-request" span joined to the service-side spans via the
// request's trace id. None of it changes planning results.
//
// Lifecycle: Start() binds and spawns the accept loop; Stop() closes
// the listener, shuts every connection socket down, and joins all
// threads (pending futures are waited out — the service must not be
// shut down before the server). The service must outlive the server.
#ifndef CTBUS_NET_SERVER_H_
#define CTBUS_NET_SERVER_H_

#include <atomic>
#include <chrono>
#include <cstdint>
#include <deque>
#include <future>
#include <memory>
#include <ostream>
#include <string>
#include <thread>
#include <vector>

#include "core/mutex.h"
#include "core/thread_annotations.h"
#include "net/frame.h"
#include "net/socket.h"
#include "obs/metrics.h"
#include "service/planning_service.h"

namespace ctbus::net {

struct ServerOptions {
  /// TCP port on 127.0.0.1; 0 = kernel-assigned (read back via port()).
  std::uint16_t port = 0;
  /// Per-connection in-flight quota: requests decoded but not yet
  /// responded to. Excess requests are shed with kRejectedQuota.
  std::size_t max_inflight_per_client = 64;
  /// Structured request log: one JSON line per request (connection id,
  /// request id, dataset, status, latency). nullptr disables. The stream
  /// must outlive the server; writes are serialized internally.
  std::ostream* log = nullptr;
};

class Server {
 public:
  /// The service must outlive the server (destroy the server first).
  Server(service::PlanningService* service, const ServerOptions& options);
  ~Server();  // calls Stop()

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// Binds, listens, and spawns the accept loop. Throws
  /// std::runtime_error if the port cannot be bound.
  void Start();

  /// Closes the listener and every connection, joins all threads.
  /// Pending service futures are waited for (their responses are still
  /// written if the peer is connected). Idempotent.
  void Stop();

  /// The bound port (valid after Start()).
  std::uint16_t port() const { return port_; }

  /// Name-sorted view of the net.* instruments (obs/net_metrics.h).
  obs::MetricsSnapshot MetricsSnapshot() const {
    return metrics_.Snapshot();
  }
  /// Convenience for tests / reconciliation: one counter by name (0 when
  /// never recorded).
  std::uint64_t CounterValue(const std::string& name) const;

 private:
  /// One admission verdict, FIFO per connection. Exactly one of
  /// `immediate` (quota/overload/error decided at admission) or `future`
  /// (submitted to the service) is meaningful.
  struct Pending {
    bool has_future = false;
    std::future<service::ServiceResult> future;
    ResponseFrame immediate;
    std::uint64_t request_id = 0;
    std::uint32_t deadline_ms = 0;
    /// True iff this request holds a quota slot (everything but quota
    /// rejects); the writer releases the slot after writing the response.
    bool counted = false;
    std::chrono::steady_clock::time_point received;
  };

  struct Connection {
    std::uint64_t id = 0;
    Socket socket;
    std::thread reader;
    std::thread writer;
    core::Mutex mu;
    core::CondVar cv;
    std::deque<Pending> pending CTBUS_GUARDED_BY(mu);
    /// Requests decoded but not yet responded to (the quota unit): spans
    /// deque residency AND the writer's in-progress resolution, so the
    /// quota verdict does not depend on writer scheduling.
    std::size_t inflight CTBUS_GUARDED_BY(mu) = 0;
    bool reader_done CTBUS_GUARDED_BY(mu) = false;
  };

  void AcceptLoop() CTBUS_EXCLUDES(connections_mu_);
  void ReaderLoop(Connection* connection) CTBUS_EXCLUDES(connection->mu);
  void WriterLoop(Connection* connection) CTBUS_EXCLUDES(connection->mu);
  /// Turns one pending verdict into a wire response (waiting on the
  /// future and applying the deadline check for submitted requests).
  ResponseFrame ResolvePending(Pending* pending);
  void LogRequest(const Connection& connection, const ResponseFrame& response,
                  double seconds) CTBUS_EXCLUDES(log_mu_);

  service::PlanningService* service_;
  const ServerOptions options_;
  std::uint16_t port_ = 0;

  obs::MetricsRegistry metrics_;
  struct Instruments {
    obs::Counter* connections_opened = nullptr;
    obs::Counter* connections_closed = nullptr;
    obs::Gauge* connections_active = nullptr;
    obs::Counter* requests_received = nullptr;
    obs::Counter* requests_ok = nullptr;
    obs::Counter* rejected_quota = nullptr;
    obs::Counter* rejected_overload = nullptr;
    obs::Counter* rejected_deadline = nullptr;
    obs::Counter* errors = nullptr;
    obs::Counter* frames_malformed = nullptr;
    obs::Counter* bytes_received = nullptr;
    obs::Counter* bytes_sent = nullptr;
    obs::Histogram* latency = nullptr;
  };
  Instruments instruments_;

  ListenSocket listener_;
  std::thread accept_thread_;
  std::atomic<bool> stopping_{false};
  /// Main-thread only (Start/Stop are not thread-safe against each other
  /// by contract), so unguarded.
  bool started_ = false;

  mutable core::Mutex connections_mu_;
  std::vector<std::unique_ptr<Connection>> connections_
      CTBUS_GUARDED_BY(connections_mu_);
  std::uint64_t next_connection_id_ CTBUS_GUARDED_BY(connections_mu_) = 0;

  /// Serializes writes to *options_.log (the stream itself is unowned).
  core::Mutex log_mu_;
};

}  // namespace ctbus::net

#endif  // CTBUS_NET_SERVER_H_
