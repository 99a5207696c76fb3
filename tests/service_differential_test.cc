// Differential harness for "a response is a pure function of (snapshot
// content, request)": one fixed stream of plan requests and commits is
// replayed under varied serving settings — cache capacity, byte budget,
// disk spill with a restart midway (intact or with every spill file
// truncated mid-payload) or at every segment boundary, snapshot
// retention, worker counts (which also set each precompute's fan-out) —
// and every response's ResponseChecksum must equal the reference run's. The stream commits
// routes, so later requests resolve warm-started (derived) precomputes in
// some settings and from-scratch or disk-loaded ones in others; all of
// them must agree bit for bit.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <future>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/options.h"
#include "core/planning_context.h"
#include "io/snapshot.h"
#include "net/frame.h"
#include "service/planning_service.h"
#include "service/precompute_cache.h"

namespace ctbus::service {
namespace {

constexpr int kSegments = 4;
constexpr int kRestartBeforeSegment = 2;

struct Setting {
  std::string name;
  ServiceOptions service;
  /// Segments before which the service is torn down and a fresh one is
  /// brought up over the same spill directory, re-applying the commits.
  std::vector<int> restart_before;
  /// Before each restart, truncate every spill file mid-payload (a write
  /// cut short): each must read as a miss, never as a precompute.
  bool truncate_spill = false;
};

core::CtBusOptions BaseOptions() {
  core::CtBusOptions options;
  options.k = 6;
  options.seed_count = 150;
  options.max_iterations = 150;
  options.online_estimator = {/*probes=*/16, /*lanczos_steps=*/8, /*seed=*/5};
  options.precompute_estimator = {/*probes=*/6, /*lanczos_steps=*/6,
                                  /*seed=*/6};
  return options;
}

/// The requests of one segment, all submitted before any completes. Two
/// precompute keys per version (estimator seeds 6 and 7), all three
/// planners, and one explicit-version request.
std::vector<PlanRequest> SegmentRequests(std::uint64_t latest) {
  std::vector<PlanRequest> requests(5);
  for (PlanRequest& request : requests) {
    request.dataset = "midtown";
    request.options = BaseOptions();
  }
  requests[1].planner = core::Planner::kVkTsp;
  requests[1].options.k = 5;
  requests[2].planner = core::Planner::kEta;
  requests[2].options.k = 4;
  requests[3].options.precompute_estimator.seed = 7;
  requests[3].options.w = 0.3;
  requests[4].options.w = 0.7;
  requests[4].snapshot_version = latest;
  requests[4].priority = Priority::kSweep;
  return requests;
}

struct Replay {
  std::vector<std::uint64_t> checksums;
  int derived = 0;
  /// Disk hits, summed over every service instance of the run.
  std::uint64_t spill_loads = 0;
};

/// Cuts every file in `dir` to half its size: past the header and the key
/// section, inside the precompute payload.
void TruncateSpillFiles(const std::string& dir) {
  int truncated = 0;
  for (const auto& file : std::filesystem::directory_iterator(dir)) {
    std::filesystem::resize_file(file.path(), file.file_size() / 2);
    ++truncated;
  }
  EXPECT_GT(truncated, 0) << "the restart had no spill file to damage";
}

Replay RunStream(const Setting& setting) {
  const auto start = [&setting] {
    auto service = std::make_unique<PlanningService>(setting.service);
    service->RegisterPreset("midtown");
    return service;
  };
  std::unique_ptr<PlanningService> service = start();
  std::vector<ServiceResult> committed;
  Replay replay;
  for (int segment = 0; segment < kSegments; ++segment) {
    if (std::find(setting.restart_before.begin(),
                  setting.restart_before.end(),
                  segment) != setting.restart_before.end()) {
      replay.spill_loads += service->cache_stats().spill_loads;
      service.reset();  // flushes ready cache entries to the spill dir
      if (setting.truncate_spill) {
        TruncateSpillFiles(setting.service.cache_spill_dir);
      }
      service = start();
      for (const ServiceResult& result : committed) service->Commit(result);
    }
    std::vector<std::future<ServiceResult>> futures;
    for (PlanRequest& request :
         SegmentRequests(service->LatestVersion("midtown"))) {
      futures.push_back(service->Submit(std::move(request)));
    }
    std::vector<ServiceResult> results;
    for (auto& future : futures) results.push_back(future.get());
    for (const ServiceResult& result : results) {
      replay.checksums.push_back(
          net::ResponseChecksum(net::MakeOkResponse(0, result)));
      replay.derived += result.stats.precompute_derived ? 1 : 0;
    }
    if (segment + 1 < kSegments) {
      EXPECT_TRUE(results[0].plan.found) << setting.name;
      service->Commit(results[0]);
      committed.push_back(results[0]);
    }
  }
  EXPECT_EQ(service->LatestVersion("midtown"),
            static_cast<std::uint64_t>(kSegments));
  replay.spill_loads += service->cache_stats().spill_loads;
  return replay;
}

std::vector<Setting> Settings() {
  const auto with = [](std::string name, auto edit) {
    Setting setting;
    setting.name = std::move(name);
    setting.service.num_threads = 1;
    setting.service.cache_capacity = 8;
    edit(&setting);
    return setting;
  };
  const std::string spill_dir =
      ::testing::TempDir() + "/service_differential_spill";
  const std::string truncated_dir =
      ::testing::TempDir() + "/service_differential_truncated_spill";
  const std::string every_boundary_dir =
      ::testing::TempDir() + "/service_differential_every_boundary_spill";
  for (const std::string& dir :
       {spill_dir, truncated_dir, every_boundary_dir}) {
    std::filesystem::remove_all(dir);
  }
  return {
      with("capacity 0", [](Setting* s) { s->service.cache_capacity = 0; }),
      with("capacity 1", [](Setting* s) { s->service.cache_capacity = 1; }),
      with("byte budget 1",
           [](Setting* s) { s->service.cache_max_bytes = 1; }),
      with("spill + restart",
           [&spill_dir](Setting* s) {
             s->service.cache_capacity = 1;
             s->service.cache_spill_dir = spill_dir;
             s->restart_before = {kRestartBeforeSegment};
           }),
      // Capacity 8 evicts nothing after the restart, so every spill read
      // is of a damaged pre-restart file (the re-applied commits resolve
      // versions 1 and 2): intact files would make two disk hits.
      with("truncated spill + restart",
           [&truncated_dir](Setting* s) {
             s->service.cache_spill_dir = truncated_dir;
             s->restart_before = {kRestartBeforeSegment};
             s->truncate_spill = true;
           }),
      // Every segment after the first starts on a fresh service that
      // knows the earlier versions only through the spill directory.
      with("restart at every boundary",
           [&every_boundary_dir](Setting* s) {
             s->service.cache_capacity = 1;
             s->service.cache_spill_dir = every_boundary_dir;
             for (int segment = 1; segment < kSegments; ++segment) {
               s->restart_before.push_back(segment);
             }
           }),
      with("keep_latest 1",
           [](Setting* s) { s->service.retention.keep_latest = 1; }),
      with("3 workers", [](Setting* s) { s->service.num_threads = 3; }),
      with("all knobs",
           [](Setting* s) {
             s->service.num_threads = 3;
             s->service.cache_capacity = 1;
             s->service.retention.keep_latest = 1;
           }),
  };
}

TEST(ServiceDifferentialTest, ResponsesIndependentOfServingSettings) {
  Setting reference;
  reference.name = "reference";
  reference.service.num_threads = 1;
  reference.service.cache_capacity = 8;
  const Replay expected = RunStream(reference);
  ASSERT_EQ(expected.checksums.size(), 5u * kSegments);
  // Commits advance the city, so the roomy cache warm-starts later
  // versions from their ancestors.
  EXPECT_GT(expected.derived, 0);

  for (const Setting& setting : Settings()) {
    SCOPED_TRACE(setting.name);
    const Replay actual = RunStream(setting);
    ASSERT_EQ(actual.checksums.size(), expected.checksums.size());
    for (std::size_t i = 0; i < expected.checksums.size(); ++i) {
      EXPECT_EQ(actual.checksums[i], expected.checksums[i])
          << "response " << i;
    }
    if (setting.service.cache_capacity == 0) {
      EXPECT_EQ(actual.derived, 0);  // nothing resident to derive from
    }
    if (setting.truncate_spill) {
      EXPECT_EQ(actual.spill_loads, 0u);  // every damaged file was a miss
    } else if (!setting.restart_before.empty()) {
      EXPECT_GT(actual.spill_loads, 0u);  // a restart read the spill back
    }
  }
}

// A miss fans the precompute out over the shard's workers: the warm-up
// request's precompute on 3 workers must equal the serial RunPrecompute bit
// for bit, and its response must equal a 1-worker service's. The bits are
// read back from the spill entry the 3-worker service leaves on shutdown.
TEST(ServiceDifferentialTest, WarmPrecomputeOnThreeWorkersEqualsSerial) {
  const std::string dir = ::testing::TempDir() + "/service_differential_warm";
  std::filesystem::remove_all(dir);
  PlanRequest request = SegmentRequests(/*latest=*/1)[0];

  ServiceOptions serial_options;
  serial_options.num_threads = 1;
  PlanningService serial(serial_options);
  serial.RegisterPreset("midtown");
  const ServiceResult expected = serial.Plan(request);
  EXPECT_EQ(expected.stats.precompute.threads_used, 1);

  ServiceOptions sharded_options;
  sharded_options.num_threads = 3;
  sharded_options.cache_spill_dir = dir;
  auto sharded = std::make_unique<PlanningService>(sharded_options);
  sharded->RegisterPreset("midtown");
  const ServiceResult actual = sharded->Plan(request);
  EXPECT_FALSE(actual.stats.precompute_cache_hit);
  EXPECT_EQ(actual.stats.precompute.threads_used, 3);
  EXPECT_EQ(net::ResponseChecksum(net::MakeOkResponse(0, actual)),
            net::ResponseChecksum(net::MakeOkResponse(0, expected)));
  const SnapshotPtr snapshot = sharded->Snapshot("midtown", 1);
  sharded.reset();  // spills the ready entry

  const core::Precompute reference = core::PlanningContext::RunPrecompute(
      *snapshot->road, *snapshot->transit, request.options);
  EXPECT_EQ(reference.stats.threads_used, 1);
  const PrecomputeCache reader(/*capacity=*/1, /*max_bytes=*/0, dir);
  std::string error;
  const auto entry = io::LoadPrecomputeCacheEntry(
      reader.SpillPath(MakePrecomputeKey("midtown", 1, request.options)),
      &error);
  ASSERT_TRUE(entry.has_value()) << error;
  EXPECT_EQ(entry->precompute.base_trace, reference.base_trace);
  EXPECT_EQ(entry->precompute.trace_increments, reference.trace_increments);
}

}  // namespace
}  // namespace ctbus::service
