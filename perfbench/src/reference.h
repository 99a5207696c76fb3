// The in-process side of the benchmark: re-plans every request the client
// got an ok response for, sequentially and straight through the library
// (no service, no sockets), and checks each response checksum against it.
//
// With `trace` the same pass records one obs::Span per
// call into each layer (decode -> precompute -> context build -> planner
// -> encode, sharing a trace id per request), then times the kernels the
// planners spend their time in on the workload's own adjacency matrix.
// It prints the per-layer metrics as one "layers {...}" JSON line and
// dumps every span as JSON lines.
#ifndef PERFBENCH_REFERENCE_H_
#define PERFBENCH_REFERENCE_H_

#include <cstdint>
#include <string>

#include "workload.h"

namespace perfbench {

struct ReferenceArgs {
  Workload workload = Workload::kHitMix;
  std::uint64_t seed = 1;
  std::string dataset;
  /// The client's per-request records (client.h).
  std::string records_path;
  bool trace = false;
  std::string spans_path;
  /// Self-test canary: corrupt the reference checksum of this index.
  std::int64_t perturb_index = -1;
};

/// Returns the process exit code: 0 when every checksum matched.
int RunReference(const ReferenceArgs& args);

}  // namespace perfbench

#endif  // PERFBENCH_REFERENCE_H_
