#include "net/loadgen.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <mutex>
#include <random>
#include <stdexcept>
#include <thread>

#include "net/client.h"
#include "service/dataset_catalog.h"

namespace ctbus::net {
namespace {

using Clock = std::chrono::steady_clock;

/// Cheap, deterministic planner options for generated load (the same
/// scale the service stress tests use — a front-door request should
/// cost milliseconds, not the paper's full defaults).
core::CtBusOptions WorkloadOptions(int index) {
  core::CtBusOptions options;
  options.k = 4 + index % 3;
  options.w = 0.3 + 0.1 * (index % 3);
  options.seed_count = 100;
  options.max_iterations = 100;
  options.online_estimator = {/*probes=*/12, /*lanczos_steps=*/6,
                              /*seed=*/3};
  options.precompute_estimator = {/*probes=*/5, /*lanczos_steps=*/5,
                                  /*seed=*/7};
  return options;
}

/// Nearest-rank percentile over sorted samples (the obs::Histogram
/// definition, applied to exact values).
double Percentile(const std::vector<double>& sorted, double q) {
  if (sorted.empty()) return 0.0;
  const std::size_t rank = static_cast<std::size_t>(
      std::ceil(q * static_cast<double>(sorted.size())));
  const std::size_t index = rank == 0 ? 0 : rank - 1;
  return sorted[std::min(index, sorted.size() - 1)];
}

}  // namespace

TraceFile MakeWorkload(const WorkloadSpec& spec) {
  TraceFile trace;
  trace.dataset = spec.dataset;
  trace.records.reserve(static_cast<std::size_t>(spec.requests));
  std::mt19937_64 rng(spec.seed);
  std::uniform_real_distribution<double> u01(0.0, 1.0);
  for (int i = 0; i < spec.requests; ++i) {
    TraceRecord record;
    record.offset_seconds = spec.spacing_seconds * i;
    record.request.dataset = spec.dataset;
    record.request.options = WorkloadOptions(i);
    record.request.planner =
        i % 3 == 0 ? core::Planner::kVkTsp : core::Planner::kEtaPre;
    record.request.priority = u01(rng) < spec.sweep_fraction
                                  ? service::Priority::kSweep
                                  : service::Priority::kInteractive;
    record.request.snapshot_version = spec.snapshot_version;
    trace.records.push_back(std::move(record));
  }
  return trace;
}

bool RecordTrace(std::uint16_t port, TraceFile* trace, std::string* error) {
  Client client;
  if (!client.Connect(port, error)) return false;
  std::uint64_t request_id = 0;
  for (TraceRecord& record : trace->records) {
    RequestFrame request;
    request.request_id = ++request_id;
    request.deadline_ms = record.deadline_ms;
    request.request = record.request;
    ResponseFrame response;
    if (!client.Call(request, &response, error)) return false;
    record.status = response.status;
    record.response_checksum = ResponseChecksum(response);
  }
  return true;
}

ReplayReport ReplayTrace(std::uint16_t port, const TraceFile& trace,
                         const ReplayOptions& options) {
  ReplayReport report;
  report.requests = trace.records.size();
  const int connections = std::max(1, options.connections);
  const double speedup = options.speedup > 0.0 ? options.speedup : 1.0;

  std::mutex report_mu;
  std::vector<double> latencies;
  latencies.reserve(trace.records.size());

  auto add_violation = [&report](const std::string& message) {
    // report_mu held by caller.
    if (report.violations.size() < 10) report.violations.push_back(message);
  };

  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  threads.reserve(static_cast<std::size_t>(connections) * 2);
  for (int c = 0; c < connections; ++c) {
    // Round-robin assignment: connection c replays records c, c+C, ...
    std::vector<std::size_t> indices;
    for (std::size_t i = static_cast<std::size_t>(c);
         i < trace.records.size();
         i += static_cast<std::size_t>(connections)) {
      indices.push_back(i);
    }
    if (indices.empty()) continue;

    struct ConnectionState {
      Client client;
      std::mutex mu;
      std::condition_variable cv;
      std::deque<std::pair<std::size_t, Clock::time_point>> in_flight;
      bool sender_done = false;
    };
    auto state = std::make_shared<ConnectionState>();
    {
      std::string error;
      if (!state->client.Connect(port, &error)) {
        std::lock_guard<std::mutex> lock(report_mu);
        report.transport_errors += indices.size();
        add_violation("connection " + std::to_string(c) +
                      ": connect failed: " + error);
        continue;
      }
    }

    threads.emplace_back([state, indices, &trace, start, speedup, &report,
                          &report_mu, add_violation] {
      std::string error;
      for (std::size_t index : indices) {
        const TraceRecord& record = trace.records[index];
        const auto due =
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(
                            record.offset_seconds / speedup));
        std::this_thread::sleep_until(due);
        RequestFrame request;
        request.request_id = static_cast<std::uint64_t>(index) + 1;
        request.deadline_ms = record.deadline_ms;
        request.request = record.request;
        const Clock::time_point sent = Clock::now();
        if (!state->client.Send(request, &error)) {
          std::lock_guard<std::mutex> lock(report_mu);
          report.transport_errors += 1;
          add_violation("record " + std::to_string(index) +
                        ": send failed: " + error);
          break;
        }
        {
          std::lock_guard<std::mutex> lock(state->mu);
          state->in_flight.emplace_back(index, sent);
        }
        state->cv.notify_one();
      }
      {
        std::lock_guard<std::mutex> lock(state->mu);
        state->sender_done = true;
      }
      state->cv.notify_one();
    });

    threads.emplace_back([state, &trace, &report, &report_mu, &latencies,
                          add_violation] {
      std::string error;
      while (true) {
        std::size_t index = 0;
        Clock::time_point sent;
        {
          std::unique_lock<std::mutex> lock(state->mu);
          state->cv.wait(lock, [&state] {
            return !state->in_flight.empty() || state->sender_done;
          });
          if (state->in_flight.empty()) break;  // sender done + drained
          index = state->in_flight.front().first;
          sent = state->in_flight.front().second;
          state->in_flight.pop_front();
        }
        ResponseFrame response;
        if (!state->client.Receive(&response, &error)) {
          std::lock_guard<std::mutex> lock(report_mu);
          report.transport_errors += 1;
          add_violation("record " + std::to_string(index) +
                        ": receive failed: " + error);
          break;
        }
        const double latency =
            std::chrono::duration<double>(Clock::now() - sent).count();
        const TraceRecord& record = trace.records[index];
        const std::uint64_t checksum = ResponseChecksum(response);
        std::lock_guard<std::mutex> lock(report_mu);
        report.responses += 1;
        report.checksum_fold += checksum;
        latencies.push_back(latency);
        if (response.status == ResponseStatus::kOk) report.ok_responses += 1;
        if (response.status != record.status) {
          report.status_mismatches += 1;
          add_violation("record " + std::to_string(index) + ": status " +
                        ResponseStatusName(response.status) +
                        " != recorded " + ResponseStatusName(record.status));
        } else if (checksum != record.response_checksum) {
          report.checksum_mismatches += 1;
          add_violation("record " + std::to_string(index) +
                        ": response checksum drift");
        }
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  report.wall_seconds =
      std::chrono::duration<double>(Clock::now() - start).count();
  if (report.wall_seconds > 0.0) {
    report.replayed_per_second =
        static_cast<double>(report.responses) / report.wall_seconds;
  }

  std::sort(latencies.begin(), latencies.end());
  report.p50_seconds = Percentile(latencies, 0.50);
  report.p95_seconds = Percentile(latencies, 0.95);
  report.p99_seconds = Percentile(latencies, 0.99);
  report.max_seconds = latencies.empty() ? 0.0 : latencies.back();

  const LatencyBudgets& budgets = options.budgets;
  if (report.p50_seconds > budgets.p50_seconds) {
    report.violations.push_back("p50 " + std::to_string(report.p50_seconds) +
                                "s over budget " +
                                std::to_string(budgets.p50_seconds) + "s");
  }
  if (report.p95_seconds > budgets.p95_seconds) {
    report.violations.push_back("p95 " + std::to_string(report.p95_seconds) +
                                "s over budget " +
                                std::to_string(budgets.p95_seconds) + "s");
  }
  if (report.p99_seconds > budgets.p99_seconds) {
    report.violations.push_back("p99 " + std::to_string(report.p99_seconds) +
                                "s over budget " +
                                std::to_string(budgets.p99_seconds) + "s");
  }
  report.passed = report.transport_errors == 0 &&
                  report.checksum_mismatches == 0 &&
                  report.status_mismatches == 0 &&
                  report.responses == report.requests &&
                  report.p50_seconds <= budgets.p50_seconds &&
                  report.p95_seconds <= budgets.p95_seconds &&
                  report.p99_seconds <= budgets.p99_seconds;
  return report;
}

std::unique_ptr<LoopbackServer> StartLoopbackServer(
    const LoopbackOptions& options, std::string* error) {
  if (options.preset.empty() == options.fixture_dir.empty()) {
    if (error != nullptr) {
      *error = "exactly one of preset / fixture_dir must be set";
    }
    return nullptr;
  }
  auto loopback = std::make_unique<LoopbackServer>();

  service::ServiceOptions service_options;
  service_options.num_threads = options.num_threads;
  service_options.queue_capacity = options.queue_capacity;
  service_options.overflow_policy = options.reject_on_overflow
                                        ? service::OverflowPolicy::kReject
                                        : service::OverflowPolicy::kBlock;
  loopback->service =
      std::make_unique<service::PlanningService>(service_options);

  try {
    if (!options.preset.empty()) {
      loopback->dataset = options.preset;
      loopback->service->RegisterPreset(options.preset,
                                        options.preset_scale);
    } else {
      loopback->dataset =
          options.dataset_name.empty() ? "grid" : options.dataset_name;
      service::DatasetCatalog catalog(loopback->service.get());
      service::DatasetDescriptor descriptor;
      descriptor.name = loopback->dataset;
      descriptor.road_path = options.fixture_dir + "/grid_road.tsv";
      descriptor.transit_path = options.fixture_dir + "/grid_transit.tsv";
      descriptor.trips_path = options.fixture_dir + "/grid_trips.csv";
      std::string catalog_error;
      if (!catalog.Register(descriptor, &catalog_error)) {
        if (error != nullptr) *error = catalog_error;
        return nullptr;
      }
    }
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return nullptr;
  }

  ServerOptions server_options;
  server_options.port = 0;
  server_options.max_inflight_per_client = options.max_inflight_per_client;
  loopback->server =
      std::make_unique<Server>(loopback->service.get(), server_options);
  try {
    loopback->server->Start();
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return nullptr;
  }
  return loopback;
}

}  // namespace ctbus::net
