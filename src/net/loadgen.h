// Record-and-replay load generation for the front door, as a library —
// the ctbus_loadgen binary, bench_service_throughput's front-door
// section, and the net tests all drive the same engine.
//
//   * MakeWorkload builds a deterministic mixed interactive/sweep
//     workload from a pinned seed: request parameters, priorities,
//     planners, and submit offsets are pure functions of the spec, so
//     re-recording a trace yields byte-identical request lines.
//   * RecordTrace executes a workload against a live server one request
//     at a time (sequential Calls — the recording pass wants exact,
//     uncontended outcomes) and stamps each record with the response's
//     status and deterministic-section checksum (net/frame.h).
//   * ReplayTrace replays a trace at Nx speed over C connections,
//     re-submitting each request on its recorded timeline (offset /
//     speedup), then verifies the contract: every response checksum and
//     status must equal the recording bit-for-bit, the request count
//     must match, and client-observed p50/p95/p99 latency must fit the
//     given budgets. The report carries every violation; `passed` is
//     the single bit CI and the loadgen exit code key on.
//   * StartLoopbackServer stands up an in-process PlanningService +
//     Server over a gen:: preset or the on-disk grid fixtures (via
//     service::DatasetCatalog), so record/replay runs self-contained —
//     the mode the golden-trace regression gate uses.
//
// Replay checksums are comparable across runs because every recorded
// request resolves snapshot version 1 (fresh server, no commits in a
// recorded workload) and planning results are deterministic by
// construction; see docs/ARCHITECTURE.md "Front door".
#ifndef CTBUS_NET_LOADGEN_H_
#define CTBUS_NET_LOADGEN_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "net/server.h"
#include "net/trace_file.h"
#include "service/planning_service.h"

namespace ctbus::net {

/// Deterministic workload shape. Every field participates in the
/// generated requests, so two equal specs produce identical traces.
struct WorkloadSpec {
  std::string dataset = "midtown";
  int requests = 16;
  std::uint64_t seed = 42;
  /// Intended spacing between consecutive submits on the recorded
  /// timeline (replay compresses it by the speedup factor).
  double spacing_seconds = 0.02;
  /// Fraction of requests submitted at sweep priority (deterministic
  /// per-index draw, not a global shuffle).
  double sweep_fraction = 0.5;
  /// Every request plans against this snapshot version (1 = the seed
  /// version of a fresh server, keeping replay checksums comparable).
  std::uint64_t snapshot_version = 1;
};

/// The workload's requests with empty outcomes (filled by RecordTrace).
TraceFile MakeWorkload(const WorkloadSpec& spec);

/// Runs every record of `trace` against 127.0.0.1:`port` sequentially,
/// filling status + checksum. False with diagnostic on transport
/// failure; application-level rejects are recorded, not errors.
bool RecordTrace(std::uint16_t port, TraceFile* trace, std::string* error);

struct LatencyBudgets {
  double p50_seconds = 5.0;
  double p95_seconds = 8.0;
  double p99_seconds = 10.0;
};

struct ReplayOptions {
  /// Timeline compression: offsets are divided by this (8.0 = 8x).
  double speedup = 1.0;
  /// Connections the records are round-robined across (each gets its
  /// own pacing + receive thread).
  int connections = 1;
  LatencyBudgets budgets;
};

struct ReplayReport {
  std::uint64_t requests = 0;
  std::uint64_t responses = 0;
  std::uint64_t ok_responses = 0;
  std::uint64_t checksum_mismatches = 0;
  std::uint64_t status_mismatches = 0;
  std::uint64_t transport_errors = 0;
  double p50_seconds = 0.0;
  double p95_seconds = 0.0;
  double p99_seconds = 0.0;
  double max_seconds = 0.0;
  double wall_seconds = 0.0;
  double replayed_per_second = 0.0;
  /// First few violations, human-readable (bounded so a fully drifted
  /// trace cannot flood the report).
  std::vector<std::string> violations;
  /// True iff zero mismatches/errors, full response count, and all
  /// three latency budgets held.
  bool passed = false;
  /// Sum of per-response checksum values (mod 2^64) — a cheap aggregate
  /// fingerprint for bench reports.
  std::uint64_t checksum_fold = 0;
};

ReplayReport ReplayTrace(std::uint16_t port, const TraceFile& trace,
                         const ReplayOptions& options);

/// In-process service + front door for self-contained record/replay.
struct LoopbackOptions {
  /// Exactly one of `preset` (gen:: registry name) or `fixture_dir`
  /// (directory holding grid_road.tsv / grid_transit.tsv /
  /// grid_trips.csv, registered via service::DatasetCatalog).
  std::string preset;
  double preset_scale = 1.0;
  std::string fixture_dir;
  /// Service-visible dataset name (defaults to the preset name or
  /// "grid" for fixtures).
  std::string dataset_name;

  /// Serving knobs (generous defaults: a replay harness must not shed
  /// its own traffic unless the caller asks for it).
  int num_threads = 1;
  std::size_t queue_capacity = 4096;
  bool reject_on_overflow = false;
  std::size_t max_inflight_per_client = 1024;
};

struct LoopbackServer {
  // Declaration order doubles as teardown order: the server (second)
  // is destroyed before the service it borrows.
  std::unique_ptr<service::PlanningService> service;
  std::unique_ptr<Server> server;
  std::string dataset;
  std::uint16_t port() const { return server->port(); }
};

/// Builds the dataset, registers it, starts the server on an ephemeral
/// port. Null with diagnostic on failure.
std::unique_ptr<LoopbackServer> StartLoopbackServer(
    const LoopbackOptions& options, std::string* error);

}  // namespace ctbus::net

#endif  // CTBUS_NET_LOADGEN_H_
