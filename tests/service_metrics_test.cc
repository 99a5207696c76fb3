// Service-level observability: ServiceStats reads the registry counters
// under their stable names, metric names are sorted, spans
// cover the request lifecycle, and metrics/tracing never change planning
// results (bit-identity on or off). Run under TSan in CI.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <future>
#include <map>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "core/planning_context.h"
#include "gen/datasets.h"
#include "service/planning_service.h"

namespace ctbus::service {
namespace {

core::CtBusOptions FastOptions() {
  core::CtBusOptions options;
  options.k = 6;
  options.seed_count = 150;
  options.max_iterations = 150;
  options.online_estimator = {/*probes=*/16, /*lanczos_steps=*/8, /*seed=*/5};
  options.precompute_estimator = {/*probes=*/6, /*lanczos_steps=*/6,
                                  /*seed=*/6};
  return options;
}

PlanRequest MidtownRequest(Priority priority = Priority::kInteractive) {
  PlanRequest request;
  request.dataset = "midtown";
  request.options = FastOptions();
  request.planner = core::Planner::kEtaPre;
  request.priority = priority;
  return request;
}

std::uint64_t CounterValue(const obs::MetricsSnapshot& snapshot,
                           const std::string& name) {
  for (const auto& [metric_name, value] : snapshot.counters) {
    if (metric_name == name) return value;
  }
  ADD_FAILURE() << "missing counter " << name;
  return 0;
}

const obs::HistogramSnapshot* FindHistogram(
    const obs::MetricsSnapshot& snapshot, const std::string& name) {
  for (const auto& [metric_name, histogram] : snapshot.histograms) {
    if (metric_name == name) return &histogram;
  }
  return nullptr;
}

/// Every ServiceStats field must read the registry counter of its
/// documented name — the counters are the only tally.
void ExpectReconciles(const PlanningService& service) {
  const PlanningService::ServiceStats stats = service.service_stats();
  const obs::MetricsSnapshot snapshot = service.MetricsSnapshot();
  EXPECT_EQ(CounterValue(snapshot, "service.submitted"), stats.submitted);
  EXPECT_EQ(CounterValue(snapshot, "service.completed"), stats.completed);
  EXPECT_EQ(CounterValue(snapshot, "service.rejected"), stats.rejected);
  EXPECT_EQ(CounterValue(snapshot, "service.precompute.from_scratch"),
            stats.precomputes_from_scratch);
  EXPECT_EQ(CounterValue(snapshot, "service.precompute.derived"),
            stats.precomputes_derived);
  EXPECT_EQ(CounterValue(snapshot, "service.retention.snapshots_pruned"),
            stats.snapshots_pruned);
  EXPECT_EQ(CounterValue(snapshot, "service.retention.lineage_trimmed"),
            stats.lineage_trimmed);
}

TEST(ServiceMetricsTest, CountersReconcileWithServiceStats) {
  ServiceOptions options;
  options.num_threads = 2;
  PlanningService service(options);
  service.RegisterPreset("midtown");

  std::vector<std::future<ServiceResult>> futures;
  for (int i = 0; i < 6; ++i) {
    futures.push_back(service.Submit(MidtownRequest(
        i % 2 == 0 ? Priority::kInteractive : Priority::kSweep)));
  }
  ServiceResult last;
  for (auto& future : futures) last = future.get();
  service.Commit(last);
  service.Commit(last);
  ExpectReconciles(service);

  const PlanningService::ServiceStats stats = service.service_stats();
  EXPECT_EQ(stats.submitted, 6u);
  EXPECT_EQ(stats.completed, 6u);
  const obs::MetricsSnapshot snapshot = service.MetricsSnapshot();
  // Both commits count, each stacking on the latest version.
  EXPECT_EQ(CounterValue(snapshot, "service.commit.total"), 2u);
}

TEST(ServiceMetricsTest, RejectionsReconcile) {
  ServiceOptions options;
  options.num_threads = 1;
  options.queue_capacity = 1;
  options.overflow_policy = OverflowPolicy::kReject;
  options.start_paused = true;
  PlanningService service(options);
  service.RegisterPreset("midtown");

  auto first = service.Submit(MidtownRequest());
  int rejected = 0;
  for (int i = 0; i < 3; ++i) {
    try {
      service.Submit(MidtownRequest());
    } catch (const std::runtime_error&) {
      ++rejected;
    }
  }
  EXPECT_EQ(rejected, 3);
  service.Start();
  first.get();
  ExpectReconciles(service);
  const obs::MetricsSnapshot snapshot = service.MetricsSnapshot();
  EXPECT_EQ(CounterValue(snapshot, "service.rejected"), 3u);
  EXPECT_EQ(CounterValue(snapshot, "service.submitted"), 1u);
}

TEST(ServiceMetricsTest, LatencyHistogramsCoverCompletedRequests) {
  ServiceOptions options;
  options.num_threads = 1;
  PlanningService service(options);
  service.RegisterPreset("midtown");
  for (int i = 0; i < 3; ++i) service.Plan(MidtownRequest());
  service.Plan(MidtownRequest(Priority::kSweep));

  const obs::MetricsSnapshot snapshot = service.MetricsSnapshot();
  const auto* interactive =
      FindHistogram(snapshot, "service.latency.total.interactive");
  ASSERT_NE(interactive, nullptr);
  EXPECT_EQ(interactive->count, 3u);
  EXPECT_GT(interactive->sum, 0.0);
  EXPECT_LE(interactive->p50, interactive->max);
  const auto* sweep = FindHistogram(snapshot, "service.latency.total.sweep");
  ASSERT_NE(sweep, nullptr);
  EXPECT_EQ(sweep->count, 1u);
  const auto* queue =
      FindHistogram(snapshot, "service.latency.queue.interactive");
  ASSERT_NE(queue, nullptr);
  EXPECT_EQ(queue->count, 3u);
}

TEST(ServiceMetricsTest, SnapshotIsSortedAndHasCacheAndDatasetViews) {
  ServiceOptions options;
  options.num_threads = 1;
  PlanningService service(options);
  service.RegisterPreset("midtown");
  service.Plan(MidtownRequest());  // one miss -> cache populated

  const obs::MetricsSnapshot snapshot = service.MetricsSnapshot();
  const auto sorted_by_name = [](const auto& entries) {
    return std::is_sorted(entries.begin(), entries.end(),
                          [](const auto& a, const auto& b) {
                            return a.first < b.first;
                          });
  };
  EXPECT_TRUE(sorted_by_name(snapshot.counters));
  EXPECT_TRUE(sorted_by_name(snapshot.gauges));
  EXPECT_TRUE(sorted_by_name(snapshot.histograms));

  EXPECT_EQ(CounterValue(snapshot, "cache.misses"), 1u);
  EXPECT_EQ(CounterValue(snapshot, "cache.hits"), 0u);
  std::set<std::string> gauge_names;
  for (const auto& [name, value] : snapshot.gauges) gauge_names.insert(name);
  EXPECT_TRUE(gauge_names.count("cache.resident_bytes"));
  EXPECT_TRUE(gauge_names.count("dataset.midtown.snapshot.resident_versions"));
  EXPECT_TRUE(gauge_names.count("service.shard.midtown.queue_depth"));

  // WriteMetricsJson of the quiesced service is deterministic.
  std::ostringstream first, second;
  service.WriteMetricsJson(first);
  service.WriteMetricsJson(second);
  EXPECT_EQ(first.str(), second.str());
  EXPECT_NE(first.str().find("\"service.completed\": 1"), std::string::npos);
}

TEST(ServiceMetricsTest, DisabledMetricsKeepCountersDropHistograms) {
  ServiceOptions options;
  options.num_threads = 1;
  options.enable_metrics = false;
  PlanningService service(options);
  service.RegisterPreset("midtown");
  service.Plan(MidtownRequest());

  // The counters are the tally behind service_stats(), so they count
  // whatever enable_metrics says.
  const PlanningService::ServiceStats stats = service.service_stats();
  EXPECT_EQ(stats.submitted, 1u);
  EXPECT_EQ(stats.completed, 1u);
  EXPECT_EQ(stats.precomputes_from_scratch, 1u);
  ExpectReconciles(service);

  const obs::MetricsSnapshot snapshot = service.MetricsSnapshot();
  // enable_metrics gates only the latency histograms and the queue-depth
  // gauges.
  EXPECT_TRUE(snapshot.histograms.empty());
  for (const auto& [name, value] : snapshot.gauges) {
    EXPECT_EQ(name.rfind("service.shard.", 0), std::string::npos)
        << "gauge " << name << " present with metrics disabled";
  }
  // The read-time cache / dataset views stay on regardless.
  EXPECT_EQ(CounterValue(snapshot, "cache.misses"), 1u);
}

TEST(ServiceMetricsTest, TracingCoversRequestLifecycle) {
  ServiceOptions options;
  options.num_threads = 1;
  options.enable_tracing = true;
  PlanningService service(options);
  service.RegisterPreset("midtown");

  const ServiceResult first = service.Plan(MidtownRequest());
  EXPECT_NE(first.stats.trace_id, 0u);
  // Same snapshot, same options: the sweep request's resolution is a hit.
  const ServiceResult second =
      service.Plan(MidtownRequest(Priority::kSweep));
  EXPECT_NE(second.stats.trace_id, first.stats.trace_id);
  service.Commit(first);

  std::map<std::string, int> by_name;
  std::set<std::uint64_t> trace_ids;
  for (const obs::Span& span : service.trace_log().Snapshot()) {
    ++by_name[span.name];
    trace_ids.insert(span.trace_id);
    EXPECT_GE(span.start_seconds, 0.0);
    EXPECT_GE(span.duration_seconds, 0.0);
  }
  EXPECT_EQ(by_name["queue-wait"], 2);
  EXPECT_EQ(by_name["precompute-resolve"], 2);
  EXPECT_EQ(by_name["context-build"], 2);
  EXPECT_EQ(by_name["plan-search"], 2);
  EXPECT_EQ(by_name["commit"], 1);
  EXPECT_TRUE(trace_ids.count(first.stats.trace_id));
  EXPECT_TRUE(trace_ids.count(second.stats.trace_id));

  // The resolve detail distinguishes scratch (first) from hit (second).
  bool saw_scratch = false, saw_hit = false;
  for (const obs::Span& span : service.trace_log().Snapshot()) {
    if (span.name != "precompute-resolve") continue;
    saw_scratch = saw_scratch || span.detail == "scratch";
    saw_hit = saw_hit || span.detail == "hit";
  }
  EXPECT_TRUE(saw_scratch);
  EXPECT_TRUE(saw_hit);

  // Dump emits one JSON line per span.
  std::ostringstream dump;
  service.trace_log().Dump(dump);
  const std::string lines = dump.str();
  EXPECT_EQ(static_cast<int>(std::count(lines.begin(), lines.end(), '\n')),
            static_cast<int>(service.trace_log().size()));
}

TEST(ServiceMetricsTest, TracingOffAssignsNoIds) {
  ServiceOptions options;
  options.num_threads = 1;
  PlanningService service(options);
  service.RegisterPreset("midtown");
  const ServiceResult result = service.Plan(MidtownRequest());
  EXPECT_EQ(result.stats.trace_id, 0u);
  EXPECT_EQ(service.trace_log().size(), 0u);
  EXPECT_FALSE(service.trace_log().enabled());
}

TEST(ServiceMetricsTest, ObservabilityNeverChangesResults) {
  // The same request through four observability configurations must yield
  // bit-identical plans (exact double equality on purpose).
  core::PlanResult reference;
  bool have_reference = false;
  for (const bool metrics : {false, true}) {
    for (const bool tracing : {false, true}) {
      ServiceOptions options;
      options.num_threads = 2;
      options.enable_metrics = metrics;
      options.enable_tracing = tracing;
      PlanningService service(options);
      service.RegisterPreset("midtown");
      const ServiceResult result = service.Plan(MidtownRequest());
      if (!have_reference) {
        reference = result.plan;
        have_reference = true;
        continue;
      }
      ASSERT_EQ(result.plan.found, reference.found);
      EXPECT_EQ(result.plan.path.edges(), reference.path.edges());
      EXPECT_EQ(result.plan.objective, reference.objective);
      EXPECT_EQ(result.plan.demand, reference.demand);
      EXPECT_EQ(result.plan.connectivity_increment,
                reference.connectivity_increment);
      EXPECT_EQ(result.plan.iterations, reference.iterations);
    }
  }
}

}  // namespace
}  // namespace ctbus::service
