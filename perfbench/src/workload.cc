#include "workload.h"

#include <algorithm>
#include <cmath>
#include <numeric>

namespace perfbench {
namespace {

// SplitMix64: the benchmark's own generator, so the inputs do not move when
// the program's RNG changes.
std::uint64_t Mix(std::uint64_t x) {
  x += 0x9e3779b97f4a7c15ULL;
  x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ULL;
  x = (x ^ (x >> 27)) * 0x94d049bb133111ebULL;
  return x ^ (x >> 31);
}

class Stream {
 public:
  Stream(std::uint64_t seed, std::uint64_t tag, std::uint64_t index)
      : state_(Mix(Mix(Mix(seed) ^ tag) ^ index)) {}
  std::uint64_t Next() { return state_ = Mix(state_); }
  double Uniform() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  int Index(int n) {
    return static_cast<int>(Next() % static_cast<std::uint64_t>(n));
  }

 private:
  std::uint64_t state_;
};

constexpr std::uint64_t kTagHitMix = 1;
constexpr std::uint64_t kTagOnline = 2;
constexpr std::uint64_t kTagKeys = 4;
constexpr std::uint64_t kTagArrivals = 5;

constexpr int kKValues = kMaxK - kMinK + 1;

// A seeded permutation of 0 .. kKValues - 1, one per (block, facet).
std::vector<int> Shuffled(std::uint64_t seed, std::uint64_t tag,
                          std::int64_t block, std::uint64_t facet) {
  std::vector<int> order(kKValues);
  std::iota(order.begin(), order.end(), 0);
  Stream s(seed, tag + 16 * (facet + 1), static_cast<std::uint64_t>(block));
  for (int i = kKValues - 1; i > 0; --i) {
    std::swap(order[i], order[s.Index(i + 1)]);
  }
  return order;
}

// Precompute estimator seed of the warm key. Fixed, not drawn from the
// run's seed: every run plans over the same precompute (the seed varies the
// requests and their timing).
std::uint64_t WarmKeySeed() { return Stream(0, kTagKeys, 0).Next(); }

ctbus::net::RequestFrame BaseRequest(const std::string& dataset) {
  ctbus::net::RequestFrame frame;
  ctbus::service::PlanRequest& request = frame.request;
  request.dataset = dataset;
  request.snapshot_version = 1;
  // The paper's online estimator (s = 50, t = 10), identical on every
  // request so per-snapshot state keyed on it can be shared.
  request.options.online_estimator = {50, 10, 1};
  // A cheap 5x5 Delta(e) estimator, so set-up stays short.
  request.options.precompute_estimator = {5, 5, WarmKeySeed()};
  return frame;
}

}  // namespace

bool ParseWorkload(const std::string& name, Workload* workload) {
  for (Workload w : {Workload::kHitMix, Workload::kOnlineEta}) {
    if (name == WorkloadName(w)) {
      *workload = w;
      return true;
    }
  }
  return false;
}

const char* WorkloadName(Workload workload) {
  switch (workload) {
    case Workload::kHitMix:
      return "hit-mix";
    case Workload::kOnlineEta:
      return "online-eta";
  }
  return "?";
}

ctbus::net::RequestFrame MakeRequest(Workload workload, std::uint64_t seed,
                                     const std::string& dataset,
                                     std::int64_t index) {
  const auto u_index = static_cast<std::uint64_t>(index);
  ctbus::net::RequestFrame frame;
  switch (workload) {
    case Workload::kHitMix: {
      // Blocks of kKValues requests: every block holds each k once, 2/3
      // ETA-Pre and 1/3 VK-TSP, and 1/3 sweep priority, each shuffled by
      // the seed, so any run of a few blocks carries the same mix.
      const std::int64_t block = index / kKValues;
      const int slot = static_cast<int>(index % kKValues);
      const std::vector<int> k_order = Shuffled(seed, kTagHitMix, block, 0);
      const std::vector<int> planner_order =
          Shuffled(seed, kTagHitMix, block, 1);
      const std::vector<int> priority_order =
          Shuffled(seed, kTagHitMix, block, 2);
      Stream s(seed, kTagHitMix, u_index);
      frame = BaseRequest(dataset);
      frame.request.planner = planner_order[slot] < 2 * kKValues / 3
                                  ? ctbus::core::Planner::kEtaPre
                                  : ctbus::core::Planner::kVkTsp;
      frame.request.options.k = kMinK + k_order[slot];
      frame.request.options.w = 0.3 + 0.4 * s.Uniform();
      frame.request.priority = priority_order[slot] < kKValues / 3
                                   ? ctbus::service::Priority::kSweep
                                   : ctbus::service::Priority::kInteractive;
      frame.request.options.max_iterations = kSearchMaxIterations;
      break;
    }
    case Workload::kOnlineEta: {
      // k walks a seed-shuffled rotation of all kKValues values, so every
      // full rotation carries the same mix of request sizes.
      const std::vector<int> k_order =
          Shuffled(seed, kTagOnline, index / kKValues, 0);
      Stream s(seed, kTagOnline, u_index);
      frame = BaseRequest(dataset);
      frame.request.planner = ctbus::core::Planner::kEta;
      frame.request.options.k = kMinK + k_order[index % kKValues];
      frame.request.options.w = 0.3 + 0.4 * s.Uniform();
      frame.request.options.max_iterations = kOnlineMaxIterations;
      break;
    }
  }
  frame.request_id = u_index + 1;
  return frame;
}

ctbus::net::RequestFrame MakeWarmupRequest(const std::string& dataset) {
  ctbus::net::RequestFrame frame = BaseRequest(dataset);
  frame.request.planner = ctbus::core::Planner::kEtaPre;
  frame.request.options.k = 8;
  frame.request.options.w = 0.5;
  frame.request.options.max_iterations = kSearchMaxIterations;
  frame.request_id = kWarmupIdBase;
  return frame;
}

std::vector<double> OpenLoopArrivals(std::uint64_t seed, double rate,
                                     double seconds) {
  const auto count =
      static_cast<std::size_t>(std::max(1.0, std::round(rate * seconds)));
  Stream s(seed, kTagArrivals, 0);
  std::vector<double> due(count);
  for (double& t : due) t = s.Uniform() * seconds;
  std::sort(due.begin(), due.end());
  return due;
}

}  // namespace perfbench
