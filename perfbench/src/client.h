// The load-generating side of the benchmark: sends a workload to a running
// ctbus_server over framed TCP (net::Client) and records, per request, when
// it was due, when it was sent, when its response arrived, and the response
// itself (status, deterministic-section checksum, wire tail).
#ifndef PERFBENCH_CLIENT_H_
#define PERFBENCH_CLIENT_H_

#include <cstdint>
#include <string>

#include "workload.h"

namespace perfbench {

struct ClientArgs {
  std::uint16_t port = 0;
  Workload workload = Workload::kHitMix;
  std::uint64_t seed = 1;
  std::string dataset;
  double seconds = 1.0;
  /// Send only the set-up request, then exit.
  bool warmup_only = false;
  /// Where the per-request records go (tab-separated, one per line).
  std::string records_path;
  /// Self-test canary: request index 0 names a dataset the server lacks.
  bool inject_unknown_dataset = false;
};

/// Runs the set-up request, prints "warm <status> <checksum>" on stdout
/// (the harness stops its set-up clock on that line), then the measured
/// phase. Returns the process exit code.
int RunClient(const ClientArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_CLIENT_H_
