// perfbench_tool: the compiled half of the CT-Bus serving benchmark
// (perfbench/run.py is the other half and the entry point).
//
//   perfbench_tool client --port P --workload W --seed S --dataset D
//                         --seconds T --records FILE [--warmup-only]
//                         [--inject-unknown-dataset]
//   perfbench_tool reference --workload W --seed S --dataset D
//                            --records FILE [--trace --spans FILE]
//                            [--perturb-index I]
#include <cstdio>
#include <cstdlib>
#include <string>

#include "client.h"
#include "io/parse.h"
#include "reference.h"

namespace {

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "perfbench_tool: %s\n", message.c_str());
  std::exit(2);
}

std::uint64_t ParseNonNegative(const std::string& flag,
                               const std::string& token) {
  long long value = 0;
  if (!ctbus::io::ParseInt64(token, &value) || value < 0) {
    Die("flag " + flag + ": bad value \"" + token + "\"");
  }
  return static_cast<std::uint64_t>(value);
}

double ParsePositive(const std::string& flag, const std::string& token) {
  double value = 0.0;
  if (!ctbus::io::ParseDouble(token, &value) || !(value > 0.0)) {
    Die("flag " + flag + ": bad value \"" + token + "\"");
  }
  return value;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) Die("usage: perfbench_tool client|reference [flags]");
  const std::string mode = argv[1];
  perfbench::ClientArgs client;
  perfbench::ReferenceArgs reference;
  std::string workload;
  for (int i = 2; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("flag " + flag + " needs a value");
      return argv[++i];
    };
    if (flag == "--port") {
      const std::uint64_t port = ParseNonNegative(flag, value());
      if (port == 0 || port > 65535) Die("--port out of range");
      client.port = static_cast<std::uint16_t>(port);
    } else if (flag == "--workload") {
      workload = value();
    } else if (flag == "--seed") {
      client.seed = reference.seed = ParseNonNegative(flag, value());
    } else if (flag == "--dataset") {
      client.dataset = reference.dataset = value();
    } else if (flag == "--seconds") {
      client.seconds = ParsePositive(flag, value());
    } else if (flag == "--records") {
      client.records_path = reference.records_path = value();
    } else if (flag == "--warmup-only") {
      client.warmup_only = true;
    } else if (flag == "--inject-unknown-dataset") {
      client.inject_unknown_dataset = true;
    } else if (flag == "--trace") {
      reference.trace = true;
    } else if (flag == "--spans") {
      reference.spans_path = value();
    } else if (flag == "--perturb-index") {
      reference.perturb_index =
          static_cast<std::int64_t>(ParseNonNegative(flag, value()));
    } else {
      Die("unknown flag " + flag);
    }
  }
  perfbench::Workload parsed = perfbench::Workload::kHitMix;
  if (!perfbench::ParseWorkload(workload, &parsed)) {
    Die("--workload must be hit-mix or online-eta");
  }
  client.workload = reference.workload = parsed;
  if (client.dataset.empty()) Die("--dataset is required");
  if (mode == "client") {
    if (client.port == 0) Die("--port is required");
    if (!client.warmup_only && client.records_path.empty()) {
      Die("--records is required");
    }
    return perfbench::RunClient(client);
  }
  if (mode == "reference") {
    if (reference.records_path.empty()) Die("--records is required");
    if (reference.trace && reference.spans_path.empty()) {
      Die("--trace needs --spans");
    }
    return perfbench::RunReference(reference);
  }
  Die("unknown mode " + mode);
}
