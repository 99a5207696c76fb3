// Serving-layer throughput: queries/sec of the sharded PlanningService
// over the ChicagoLike preset, with a warmed precompute cache
// (steady-state serving, not cold start). Sections:
//
//   1. pool scaling   — queries/sec per worker-pool size; fails unless
//                       every pool size yields the same checksum
//   2. sharding       — two datasets served by one shared shard's worth
//                       of traffic vs per-dataset shards, plus proof that
//                       a saturated hot shard cannot starve a cold one
//   3. memory         — steady-state ApproxBytes totals and eviction /
//                       prune counts under a sweep flood with a tight
//                       cache byte budget and keep-latest-2 retention
//   4. metrics        — latency histograms, gauges and tracing on vs off
//                       over 5 alternating pairs: median overhead, the
//                       off runs' spread, and identical checksums
//   5. front door     — the same serving layer behind the framed-TCP
//                       server, driven by the net/loadgen record/replay
//                       engine; emits its own BENCH_server_throughput
//                       report and fails on checksum drift or a busted
//                       latency budget
//
// Identical checksums across configurations certify that concurrency,
// sharding, and memory budgets leave results bit-identical to
// serial execution.
//
// Environment knobs:
//   CTBUS_SCALE             dataset scale (default 1.0)
//   CTBUS_SERVICE_REQUESTS  requests per configuration (default 24)
//   CTBUS_BENCH_THREADS     comma-separated worker counts for the pool
//                           scaling section, e.g. "1,4,16"; "hw" expands
//                           to hardware concurrency (default "1,4,hw")
#include <algorithm>
#include <cstdio>
#include <future>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "net/loadgen.h"
#include "service/planning_service.h"

namespace {

using ctbus::bench::Quantile;
using ctbus::service::PlanRequest;
using ctbus::service::PlanningService;
using ctbus::service::Priority;
using ctbus::service::ServiceOptions;
using ctbus::service::ServiceResult;

ctbus::core::CtBusOptions QueryOptions() {
  ctbus::core::CtBusOptions options = ctbus::bench::BenchOptions();
  options.k = 12;
  options.seed_count = 800;
  options.max_iterations = 4000;
  return options;
}

/// Parses CTBUS_BENCH_THREADS ("1,4,hw") into worker counts; unparsable
/// entries are skipped, duplicates removed, order preserved.
std::vector<int> ThreadCounts() {
  const int hardware =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  const std::string spec =
      ctbus::bench::GetEnvString("CTBUS_BENCH_THREADS", "1,4,hw");
  std::vector<int> counts;
  std::size_t begin = 0;
  while (begin <= spec.size()) {
    const std::size_t comma = spec.find(',', begin);
    const std::string token =
        spec.substr(begin, comma == std::string::npos ? std::string::npos
                                                      : comma - begin);
    int threads = 0;
    if (token == "hw") {
      threads = hardware;
    } else if (!token.empty()) {
      threads = std::atoi(token.c_str());
    }
    if (threads > 0 &&
        std::find(counts.begin(), counts.end(), threads) == counts.end()) {
      counts.push_back(threads);
    }
    if (comma == std::string::npos) break;
    begin = comma + 1;
  }
  if (counts.empty()) counts.push_back(1);
  return counts;
}

PlanRequest MakeRequest(const std::string& dataset,
                        Priority priority = Priority::kInteractive) {
  PlanRequest request;
  request.dataset = dataset;
  request.options = QueryOptions();
  request.planner = ctbus::core::Planner::kEtaPre;
  request.priority = priority;
  return request;
}

/// Runs `num_requests` identical ETA-Pre queries through a fresh pool of
/// `num_threads` workers and returns queries/sec (excluding the warmup
/// request that populates the precompute cache). `enable_metrics` /
/// `enable_tracing` feed the overhead section: results must be
/// bit-identical either way.
double MeasureThroughput(const ctbus::gen::Dataset& city, int num_threads,
                         int num_requests, double* check_sum,
                         bool enable_metrics = true,
                         bool enable_tracing = false) {
  ServiceOptions service_options;
  service_options.num_threads = num_threads;
  service_options.queue_capacity = static_cast<std::size_t>(num_requests) + 1;
  service_options.enable_metrics = enable_metrics;
  service_options.enable_tracing = enable_tracing;
  PlanningService service(service_options);
  service.RegisterDataset(city.name, city.road, city.transit);

  const PlanRequest request = MakeRequest(city.name);
  // Warm the cache: steady-state serving amortizes the precompute.
  service.Plan(request);

  ctbus::bench::Stopwatch timer;
  std::vector<std::future<ServiceResult>> futures;
  futures.reserve(num_requests);
  for (int i = 0; i < num_requests; ++i) {
    futures.push_back(service.Submit(request));
  }
  double sum = 0.0;
  for (auto& future : futures) {
    sum += future.get().plan.objective;
  }
  const double seconds = timer.Seconds();
  if (check_sum != nullptr) *check_sum = sum;
  return num_requests / seconds;
}

/// Serves `num_requests` split across `datasets`, one worker per shard,
/// warmed caches. Returns queries/sec.
double MeasureSharding(const std::vector<ctbus::gen::Dataset>& datasets,
                       int num_requests, double* check_sum) {
  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.cache_capacity =
      static_cast<std::size_t>(datasets.size()) * 2;
  service_options.queue_capacity = static_cast<std::size_t>(num_requests) + 1;
  PlanningService service(service_options);
  for (const auto& city : datasets) {
    service.RegisterDataset(city.name, city.road, city.transit);
    service.Plan(MakeRequest(city.name));  // warm this shard's precompute
  }

  ctbus::bench::Stopwatch timer;
  std::vector<std::future<ServiceResult>> futures;
  futures.reserve(num_requests);
  for (int i = 0; i < num_requests; ++i) {
    const auto& city = datasets[i % datasets.size()];
    futures.push_back(service.Submit(MakeRequest(city.name)));
  }
  double sum = 0.0;
  for (auto& future : futures) {
    sum += future.get().plan.objective;
  }
  const double seconds = timer.Seconds();
  if (check_sum != nullptr) *check_sum = sum;
  return num_requests / seconds;
}

/// Rounds of (sweep flood -> commit) against a tightly budgeted service:
/// the cache byte budget fits ~1.5 precomputes and retention keeps the
/// newest two snapshots, so steady-state memory stays flat while every
/// round pays one eviction + one prune instead of unbounded growth.
void MeasureMemoryGovernance(const ctbus::gen::Dataset& city, int rounds,
                             int requests_per_round) {
  // Probe: one warm plan tells us what a single precompute weighs.
  std::size_t precompute_bytes = 0;
  {
    ServiceOptions probe_options;
    probe_options.num_threads = 1;
    PlanningService probe(probe_options);
    probe.RegisterDataset(city.name, city.road, city.transit);
    probe.Plan(MakeRequest(city.name));
    precompute_bytes = probe.cache_stats().resident_bytes;
  }

  ServiceOptions service_options;
  service_options.num_threads = 1;
  service_options.cache_capacity = 8;
  service_options.cache_max_bytes = precompute_bytes * 3 / 2;
  service_options.retention.keep_latest = 2;
  service_options.queue_capacity =
      static_cast<std::size_t>(requests_per_round) + 1;
  PlanningService service(service_options);
  service.RegisterDataset(city.name, city.road, city.transit);

  std::printf("%8s %9s %10s %9s %10s %10s %8s %8s\n", "round", "version",
              "snap KiB", "versions", "cache KiB", "evictions", "pruned",
              "checksum");
  for (int round = 0; round < rounds; ++round) {
    std::vector<std::future<ServiceResult>> futures;
    futures.reserve(requests_per_round);
    for (int i = 0; i < requests_per_round; ++i) {
      futures.push_back(
          service.Submit(MakeRequest(city.name, Priority::kSweep)));
    }
    double sum = 0.0;
    ServiceResult last;
    for (auto& future : futures) {
      last = future.get();
      sum += last.plan.objective;
    }
    const std::uint64_t version = service.Commit(last);
    const auto memory = service.dataset_memory_stats(city.name);
    const auto cache = service.cache_stats();
    std::printf("%8d %9llu %10zu %9zu %10zu %10llu %8llu %8.4f\n", round,
                static_cast<unsigned long long>(version),
                memory.snapshot_bytes / 1024, memory.resident_versions,
                cache.resident_bytes / 1024,
                static_cast<unsigned long long>(cache.evictions),
                static_cast<unsigned long long>(memory.snapshots_pruned),
                sum);
  }
  std::printf("cache byte budget: %zu KiB (~1.5 precomputes of %zu KiB); "
              "snapshot retention: keep latest 2.\n",
              service_options.cache_max_bytes / 1024,
              precompute_bytes / 1024);
}

}  // namespace

int main() {
  ctbus::bench::PrintHeader(
      "service throughput",
      "serving layer (not in the paper): pool scaling, sharding");
  const int num_requests = static_cast<int>(
      ctbus::bench::GetEnvDouble("CTBUS_SERVICE_REQUESTS", 24));
  const ctbus::gen::Dataset city =
      ctbus::gen::MakeChicagoLike(ctbus::bench::GetScale());
  ctbus::bench::PrintDataset(city);
  const int hardware =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  ctbus::bench::BenchReport report("service_throughput");
  report.AddDataset(city);

  // ---- 1. pool scaling -------------------------------------------------
  std::printf("\n-- pool scaling (CTBUS_BENCH_THREADS to change) --\n");
  std::printf("%8s %12s %10s %10s\n", "threads", "queries/s", "speedup",
              "checksum");
  double baseline = 0.0;
  std::optional<double> first_sum;
  for (int threads : ThreadCounts()) {
    double check_sum = 0.0;
    const double qps =
        MeasureThroughput(city, threads, num_requests, &check_sum);
    if (baseline == 0.0) baseline = qps;
    std::printf("%8d %12.2f %9.2fx %10.4f%s\n", threads, qps,
                baseline > 0.0 ? qps / baseline : 1.0, check_sum,
                threads == hardware ? "  (hardware)" : "");
    if (!first_sum) first_sum = check_sum;
    if (check_sum != *first_sum) {
      std::fprintf(stderr,
                   "FATAL: %d workers changed planning results "
                   "(checksum %.17g vs %.17g)\n",
                   threads, check_sum, *first_sum);
      return 1;
    }
    report.AddMetric("pool_qps_threads_" + std::to_string(threads), qps,
                     "higher");
    report.AddChecksum("pool_threads_" + std::to_string(threads), check_sum);
  }
  if (hardware == 1) {
    std::printf("note: 1-CPU host — multi-thread speedups need >= 2 cores.\n");
  }

  // ---- 2. sharding -----------------------------------------------------
  // Two cities, one worker per shard: interleaved traffic is served by
  // independent pools with independent queues (a saturated shard cannot
  // starve the other even on a shared machine).
  std::printf("\n-- sharding (two datasets, one worker per shard) --\n");
  ctbus::gen::Dataset second =
      ctbus::gen::MakeChicagoLike(ctbus::bench::GetScale());
  second.name = "chicago-b";
  double single_sum = 0.0;
  const double single_qps =
      MeasureSharding({city}, num_requests, &single_sum);
  double dual_sum = 0.0;
  const double dual_qps =
      MeasureSharding({city, second}, num_requests, &dual_sum);
  std::printf("%12s %12s %10s\n", "shards", "queries/s", "checksum");
  std::printf("%12d %12.2f %10.4f\n", 1, single_qps, single_sum);
  std::printf("%12d %12.2f %10.4f  (interleaved across both)\n", 2, dual_qps,
              dual_sum);
  report.AddMetric("sharding_qps_single", single_qps, "higher");
  report.AddMetric("sharding_qps_dual", dual_qps, "higher");
  report.AddChecksum("sharding_single", single_sum);

  // ---- 3. memory governance --------------------------------------------
  // Steady-state footprint under a sweep flood + commit loop with tight
  // budgets: bytes stay flat, evictions/prunes pay for it, results don't
  // change (budgets are not part of the cache key).
  std::printf("\n-- memory governance (tight budgets, sweep flood) --\n");
  MeasureMemoryGovernance(city, /*rounds=*/4,
                          /*requests_per_round=*/std::min(num_requests, 8));

  // ---- 4. metrics overhead ---------------------------------------------
  // Same workload with the latency histograms, queue-depth gauges and
  // tracing on vs off (the service counters always count), over
  // alternating off/on pairs so host drift hits both sides alike. The
  // record path is relaxed atomics, so the target is < 2% median overhead
  // — and checksums MUST match exactly (observability never changes
  // planning results).
  std::printf("\n-- metrics overhead (histograms + tracing on vs off) --\n");
  constexpr int kOverheadPairs = 5;
  std::vector<double> off_runs, overhead_runs;
  double off_sum = 0.0, on_sum = 0.0;
  bool sums_identical = true;
  std::printf("%6s %12s %12s %10s %10s\n", "pair", "off q/s", "on+trace q/s",
              "overhead", "checksum");
  for (int pair = 0; pair < kOverheadPairs; ++pair) {
    double pair_off_sum = 0.0, pair_on_sum = 0.0;
    const double off_qps =
        MeasureThroughput(city, 1, num_requests, &pair_off_sum,
                          /*enable_metrics=*/false, /*enable_tracing=*/false);
    const double on_qps =
        MeasureThroughput(city, 1, num_requests, &pair_on_sum,
                          /*enable_metrics=*/true, /*enable_tracing=*/true);
    const double pair_overhead_pct =
        off_qps > 0.0 ? (off_qps - on_qps) / off_qps * 100.0 : 0.0;
    std::printf("%6d %12.2f %12.2f %9.2f%% %10.4f\n", pair, off_qps, on_qps,
                pair_overhead_pct, pair_on_sum);
    if (pair == 0) {
      off_sum = pair_off_sum;
      on_sum = pair_on_sum;
    }
    sums_identical = sums_identical && pair_off_sum == off_sum &&
                     pair_on_sum == off_sum;
    off_runs.push_back(off_qps);
    overhead_runs.push_back(pair_overhead_pct);
  }
  const double overhead_pct = Quantile(overhead_runs, 0.5);
  const double off_median = Quantile(off_runs, 0.5);
  const double off_iqr_pct =
      off_median > 0.0
          ? (Quantile(off_runs, 0.75) - Quantile(off_runs, 0.25)) /
                off_median * 100.0
          : 0.0;
  std::printf(
      "overhead: median %.2f%% over %d pairs (target < 2%%); off-run IQR "
      "%.2f%% of median; checksums %s\n",
      overhead_pct, kOverheadPairs, off_iqr_pct,
      sums_identical ? "IDENTICAL" : "DIFFER (BUG!)");
  if (!sums_identical) {
    std::fprintf(stderr,
                 "FATAL: metrics/tracing changed planning results\n");
    return 1;
  }
  report.AddMetric("metrics_overhead_pct", overhead_pct, "lower");
  report.AddMetric("metrics_off_qps_iqr_pct", off_iqr_pct, "neutral");
  report.AddChecksum("metrics_off", off_sum);
  report.AddChecksum("metrics_on", on_sum);

  // ---- 5. front door ---------------------------------------------------
  // The serving layer behind the framed-TCP front door: record a mixed
  // interactive/sweep workload over loopback (sequential, uncontended),
  // then replay it at 8x over 2 connections. The replay contract —
  // bit-identical response checksums, statuses, counts, and latency
  // budgets — is asserted here exactly as `ctbus_loadgen --replay` and
  // CI assert it, and the section writes its own report so front-door
  // throughput is diffable independently of the library-path numbers.
  std::printf("\n-- front door (framed TCP: record, then 8x replay) --\n");
  ctbus::bench::BenchReport server_report("server_throughput");
  server_report.AddDataset(city);
  {
    ctbus::net::LoopbackOptions loopback_options;
    loopback_options.preset = "chicago";
    loopback_options.preset_scale = ctbus::bench::GetScale();
    std::string error;
    const auto loopback =
        ctbus::net::StartLoopbackServer(loopback_options, &error);
    if (loopback == nullptr) {
      std::fprintf(stderr, "FATAL: front-door server: %s\n", error.c_str());
      return 1;
    }

    ctbus::net::WorkloadSpec spec;
    spec.dataset = loopback->dataset;
    spec.requests = num_requests;
    spec.spacing_seconds = 0.005;
    ctbus::net::TraceFile trace = ctbus::net::MakeWorkload(spec);
    ctbus::bench::Stopwatch record_timer;
    if (!ctbus::net::RecordTrace(loopback->port(), &trace, &error)) {
      std::fprintf(stderr, "FATAL: front-door record: %s\n", error.c_str());
      return 1;
    }
    const double record_seconds = record_timer.Seconds();
    const double record_qps =
        record_seconds > 0.0 ? num_requests / record_seconds : 0.0;

    ctbus::net::ReplayOptions replay_options;
    replay_options.speedup = 8.0;
    replay_options.connections = 2;
    const ctbus::net::ReplayReport replay =
        ctbus::net::ReplayTrace(loopback->port(), trace, replay_options);

    std::printf("%10s %10s %12s %10s %10s %10s\n", "phase", "requests",
                "queries/s", "p50 ms", "p95 ms", "p99 ms");
    std::printf("%10s %10d %12.2f %10s %10s %10s\n", "record", num_requests,
                record_qps, "-", "-", "-");
    std::printf("%10s %10llu %12.2f %10.2f %10.2f %10.2f\n", "replay 8x",
                static_cast<unsigned long long>(replay.responses),
                replay.replayed_per_second, replay.p50_seconds * 1000.0,
                replay.p95_seconds * 1000.0, replay.p99_seconds * 1000.0);
    if (!replay.passed) {
      std::fprintf(stderr, "FATAL: front-door replay failed the contract\n");
      for (const std::string& violation : replay.violations) {
        std::fprintf(stderr, "  %s\n", violation.c_str());
      }
      return 1;
    }
    std::printf("replay checksums identical to the recording "
                "(fold %016llx); budgets held.\n",
                static_cast<unsigned long long>(replay.checksum_fold));

    server_report.AddMetric("frontdoor_record_qps", record_qps, "higher");
    server_report.AddMetric("frontdoor_replay_qps",
                            replay.replayed_per_second, "higher");
    server_report.AddMetric("frontdoor_replay_p50_ms",
                            replay.p50_seconds * 1000.0, "lower");
    server_report.AddMetric("frontdoor_replay_p95_ms",
                            replay.p95_seconds * 1000.0, "lower");
    server_report.AddMetric("frontdoor_replay_p99_ms",
                            replay.p99_seconds * 1000.0, "lower");
    // The 64-bit fold split into exactly-representable 32-bit halves, so
    // the diff compares the fingerprint without double rounding.
    server_report.AddChecksum(
        "frontdoor_fold_hi",
        static_cast<double>(replay.checksum_fold >> 32));
    server_report.AddChecksum(
        "frontdoor_fold_lo",
        static_cast<double>(replay.checksum_fold & 0xffffffffu));
  }

  std::printf("\nidentical checksums certify the concurrent results match "
              "the serial ones.\n");
  report.WriteIfRequested();
  server_report.WriteIfRequested();
  return 0;
}
