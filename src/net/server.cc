#include "net/server.h"

#include <stdexcept>
#include <utility>

#include "obs/json.h"
#include "obs/net_metrics.h"
#include "obs/trace.h"

namespace ctbus::net {

Server::Server(service::PlanningService* service,
               const ServerOptions& options)
    : service_(service), options_(options) {
  instruments_.connections_opened =
      metrics_.GetCounter(obs::kNetConnectionsOpened);
  instruments_.connections_closed =
      metrics_.GetCounter(obs::kNetConnectionsClosed);
  instruments_.connections_active =
      metrics_.GetGauge(obs::kNetConnectionsActive);
  instruments_.requests_received =
      metrics_.GetCounter(obs::kNetRequestsReceived);
  instruments_.requests_ok = metrics_.GetCounter(obs::kNetRequestsOk);
  instruments_.rejected_quota = metrics_.GetCounter(obs::kNetRejectedQuota);
  instruments_.rejected_overload =
      metrics_.GetCounter(obs::kNetRejectedOverload);
  instruments_.rejected_deadline =
      metrics_.GetCounter(obs::kNetRejectedDeadline);
  instruments_.errors = metrics_.GetCounter(obs::kNetErrors);
  instruments_.frames_malformed =
      metrics_.GetCounter(obs::kNetFramesMalformed);
  instruments_.bytes_received = metrics_.GetCounter(obs::kNetBytesReceived);
  instruments_.bytes_sent = metrics_.GetCounter(obs::kNetBytesSent);
  instruments_.latency = metrics_.GetHistogram(obs::kNetLatencyServer);
}

Server::~Server() { Stop(); }

void Server::Start() {
  if (started_) return;
  std::string error;
  if (!listener_.Listen(options_.port, &error)) {
    throw std::runtime_error("ctbus_server: cannot listen: " + error);
  }
  port_ = listener_.port();
  started_ = true;
  accept_thread_ = std::thread([this] { AcceptLoop(); });
}

void Server::Stop() {
  if (!started_) return;
  stopping_.store(true, std::memory_order_relaxed);
  listener_.Shutdown();  // wake the blocked accept; fd stays valid
  if (accept_thread_.joinable()) accept_thread_.join();
  listener_.Close();
  std::vector<std::unique_ptr<Connection>> connections;
  {
    core::MutexLock lock(connections_mu_);
    connections.swap(connections_);
  }
  for (auto& connection : connections) {
    // Unblocks the reader's recv; the writer drains naturally (its
    // pending futures resolve as the service executes them).
    connection->socket.Shutdown();
  }
  for (auto& connection : connections) {
    if (connection->reader.joinable()) connection->reader.join();
    if (connection->writer.joinable()) connection->writer.join();
  }
  started_ = false;
}

std::uint64_t Server::CounterValue(const std::string& name) const {
  const obs::MetricsSnapshot snapshot = metrics_.Snapshot();
  for (const auto& [counter_name, value] : snapshot.counters) {
    if (counter_name == name) return value;
  }
  return 0;
}

void Server::AcceptLoop() {
  while (!stopping_.load(std::memory_order_relaxed)) {
    std::string error;
    Socket socket = listener_.Accept(&error);
    if (!socket.valid()) {
      // Accept fails when the listener is closed (shutdown) — and on
      // transient errors, where retrying against a closed listener
      // would spin, so both exit the loop.
      break;
    }
    auto connection = std::make_unique<Connection>();
    connection->socket = std::move(socket);
    Connection* raw = connection.get();
    {
      core::MutexLock lock(connections_mu_);
      connection->id = ++next_connection_id_;
      connections_.push_back(std::move(connection));
    }
    instruments_.connections_opened->Add();
    instruments_.connections_active->Add(1);
    raw->reader = std::thread([this, raw] { ReaderLoop(raw); });
    raw->writer = std::thread([this, raw] { WriterLoop(raw); });
  }
}

void Server::ReaderLoop(Connection* connection) {
  while (true) {
    FrameHeader header;
    std::vector<std::uint8_t> payload;
    std::string error;
    if (!ReadFrame(&connection->socket, &header, &payload, &error)) {
      // Clean disconnects and shutdown-induced failures are not
      // malformed traffic; anything else (bad magic, oversized length,
      // checksum mismatch, mid-frame EOF) is.
      const bool clean = error == "connection closed" ||
                         stopping_.load(std::memory_order_relaxed);
      if (!clean) {
        instruments_.frames_malformed->Add();
        if (options_.log != nullptr) {
          core::MutexLock lock(log_mu_);
          *options_.log << "{\"conn\": " << connection->id
                        << ", \"event\": \"malformed-frame\", \"error\": ";
          obs::WriteJsonString(*options_.log, error);
          *options_.log << "}\n";
        }
      }
      break;
    }
    instruments_.bytes_received->Add(kHeaderBytes + payload.size());

    RequestFrame request;
    if (header.type != FrameType::kRequest ||
        !DecodeRequestPayload(payload.data(), payload.size(), &request,
                              &error)) {
      if (header.type != FrameType::kRequest) {
        error = "unexpected frame type (server accepts requests only)";
      }
      instruments_.frames_malformed->Add();
      if (options_.log != nullptr) {
        core::MutexLock lock(log_mu_);
        *options_.log << "{\"conn\": " << connection->id
                      << ", \"event\": \"malformed-request\", \"error\": ";
        obs::WriteJsonString(*options_.log, error);
        *options_.log << "}\n";
      }
      break;  // drop only this connection; the server stays up
    }
    instruments_.requests_received->Add();

    Pending pending;
    pending.request_id = request.request_id;
    pending.deadline_ms = request.deadline_ms;
    pending.received = std::chrono::steady_clock::now();

    bool over_quota = false;
    {
      core::MutexLock lock(connection->mu);
      over_quota = connection->inflight >= options_.max_inflight_per_client;
      if (!over_quota) {
        ++connection->inflight;
        pending.counted = true;
      }
    }
    if (over_quota) {
      instruments_.rejected_quota->Add();
      pending.immediate.request_id = request.request_id;
      pending.immediate.status = ResponseStatus::kRejectedQuota;
      pending.immediate.message =
          "in-flight quota exceeded (max " +
          std::to_string(options_.max_inflight_per_client) +
          " per connection)";
    } else {
      // Submit outside the connection lock: with OverflowPolicy::kBlock
      // it may park on shard backpressure, and the writer must keep
      // draining responses meanwhile.
      try {
        pending.future = service_->Submit(request.request);
        pending.has_future = true;
      } catch (const std::invalid_argument& e) {
        instruments_.errors->Add();
        pending.immediate.request_id = request.request_id;
        pending.immediate.status = ResponseStatus::kError;
        pending.immediate.message = e.what();
      } catch (const std::runtime_error& e) {
        // OverflowPolicy::kReject: the shard queue is full — the
        // admission-control signal the front door translates into an
        // overload response instead of buffering.
        instruments_.rejected_overload->Add();
        pending.immediate.request_id = request.request_id;
        pending.immediate.status = ResponseStatus::kRejectedOverload;
        pending.immediate.message = e.what();
      }
    }
    {
      core::MutexLock lock(connection->mu);
      connection->pending.push_back(std::move(pending));
    }
    connection->cv.NotifyOne();
  }
  {
    core::MutexLock lock(connection->mu);
    connection->reader_done = true;
  }
  connection->cv.NotifyOne();
}

ResponseFrame Server::ResolvePending(Pending* pending) {
  if (!pending->has_future) return std::move(pending->immediate);
  ResponseFrame response;
  response.request_id = pending->request_id;
  std::uint64_t trace_id = 0;
  try {
    const service::ServiceResult result = pending->future.get();
    response = MakeOkResponse(pending->request_id, result);
    trace_id = result.stats.trace_id;
    if (pending->deadline_ms > 0) {
      const double elapsed_ms =
          std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - pending->received)
              .count();
      if (elapsed_ms > pending->deadline_ms) {
        // Deadline shed: the work is done but the client's budget is
        // blown — deliver the verdict, not a late plan.
        instruments_.rejected_deadline->Add();
        ResponseFrame shed;
        shed.request_id = pending->request_id;
        shed.status = ResponseStatus::kRejectedDeadline;
        shed.message = "deadline of " + std::to_string(pending->deadline_ms) +
                       " ms exceeded";
        return shed;
      }
    }
    instruments_.requests_ok->Add();
  } catch (const std::exception& e) {
    instruments_.errors->Add();
    response = ResponseFrame();
    response.request_id = pending->request_id;
    response.status = ResponseStatus::kError;
    response.message = e.what();
  }
  // Join the front-door span onto the request's service-side trace.
  obs::TraceLog& trace = service_->trace_log();
  if (trace.enabled()) {
    const double seconds = std::chrono::duration<double>(
                               std::chrono::steady_clock::now() -
                               pending->received)
                               .count();
    obs::Span span;
    span.trace_id = trace_id;
    span.name = "net-request";
    span.detail = ResponseStatusName(response.status);
    span.start_seconds = trace.Now() - seconds;
    span.duration_seconds = seconds;
    trace.Record(std::move(span));
  }
  return response;
}

void Server::WriterLoop(Connection* connection) {
  while (true) {
    Pending pending;
    {
      core::MutexLock lock(connection->mu);
      while (connection->pending.empty() && !connection->reader_done) {
        connection->cv.Wait(connection->mu);
      }
      if (connection->pending.empty()) break;  // reader done + drained
      pending = std::move(connection->pending.front());
      connection->pending.pop_front();
    }
    ResponseFrame response = ResolvePending(&pending);
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                      pending.received)
            .count();
    // Receive -> encode time on the wire; outside ResponseChecksum's
    // scope, so timing never moves a checksum.
    response.server_seconds = seconds;
    instruments_.latency->Record(seconds);
    LogRequest(*connection, response, seconds);
    const std::vector<std::uint8_t> frame = EncodeResponseFrame(response);
    std::string error;
    const bool sent = WriteFrame(&connection->socket, frame, &error);
    if (pending.counted) {
      core::MutexLock lock(connection->mu);
      --connection->inflight;  // quota slot held until the response left
    }
    if (!sent) {
      // Peer is gone: unblock the reader and stop responding. Remaining
      // pending futures are simply dropped (the service still fulfills
      // their promises; nobody reads them).
      connection->socket.Shutdown();
      break;
    }
    instruments_.bytes_sent->Add(frame.size());
  }
  // Connection finished (reader gone, responses drained or peer dead):
  // send FIN now so the peer sees EOF immediately — the descriptor
  // itself is reclaimed at Stop().
  connection->socket.Shutdown();
  instruments_.connections_closed->Add();
  instruments_.connections_active->Add(-1);
}

void Server::LogRequest(const Connection& connection,
                        const ResponseFrame& response, double seconds) {
  if (options_.log == nullptr) return;
  core::MutexLock lock(log_mu_);
  std::ostream& out = *options_.log;
  out << "{\"conn\": " << connection.id
      << ", \"request\": " << response.request_id << ", \"status\": \""
      << ResponseStatusName(response.status) << "\", \"found\": "
      << (response.found ? "true" : "false") << ", \"latency_s\": ";
  obs::WriteJsonDouble(out, seconds);
  out << ", \"queue_s\": ";
  obs::WriteJsonDouble(out, response.queue_seconds);
  out << ", \"version\": " << response.snapshot_version;
  if (!response.message.empty()) {
    out << ", \"message\": ";
    obs::WriteJsonString(out, response.message);
  }
  out << "}\n";
}

}  // namespace ctbus::net
