// The two serving workloads of the CT-Bus benchmark, generated from a
// seed. Every request is a pure function of (workload, seed, dataset,
// index), so the client that sends them and the in-process reference that
// re-plans them agree on the inputs without sharing a file of requests.
//
//   hit-mix     open loop, Poisson arrivals; 2/3 ETA-Pre + 1/3 VK-TSP on
//               the one precompute key warmed during setup (every request
//               is a cache hit), 30% at sweep priority.
//   online-eta  closed loop, one connection; online ETA (Algorithm 1) with
//               a small iteration cap against the warm key.
#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.h"

namespace perfbench {

enum class Workload { kHitMix, kOnlineEta };

/// Parses "hit-mix" / "online-eta".
bool ParseWorkload(const std::string& name, Workload* workload);
const char* WorkloadName(Workload workload);

/// Every request's k lies in [kMinK, kMaxK].
inline constexpr int kMinK = 4;
inline constexpr int kMaxK = 12;
/// Connections the open loop sends on (round-robin).
inline constexpr int kConnections = 2;
/// it_max of the ETA-Pre and VK-TSP requests (and the warm-up): caps the
/// search so a cache hit's context build stays a large share of its cost.
inline constexpr int kSearchMaxIterations = 500;
/// it_max of the online-eta requests: one chicago request takes ~0.4 s,
/// nearly all of it online increment estimates.
inline constexpr int kOnlineMaxIterations = 2;
/// hit-mix's open-loop arrival rate, requests per second: about half of
/// what 2 server workers sustain on the chicago preset.
inline constexpr double kArrivalRate = 20.0;
/// Scale of the gen:: preset every run serves (the server's --scale).
inline constexpr double kScale = 1.0;
/// Request ids at or above this mark set-up (warm-up) requests.
inline constexpr std::uint64_t kWarmupIdBase = std::uint64_t{1} << 40;

/// Request `index` of the workload (request_id = index + 1).
ctbus::net::RequestFrame MakeRequest(Workload workload, std::uint64_t seed,
                                     const std::string& dataset,
                                     std::int64_t index);

/// The set-up request: ETA-Pre on the warm precompute key, the one key
/// every request of both workloads then hits.
ctbus::net::RequestFrame MakeWarmupRequest(const std::string& dataset);

/// Open-loop due times in seconds from the start of measurement: a Poisson
/// process of `rate` conditioned on round(rate * seconds) arrivals, i.e.
/// that many sorted uniform draws on [0, seconds).
std::vector<double> OpenLoopArrivals(std::uint64_t seed, double rate,
                                     double seconds);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
