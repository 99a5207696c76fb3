// ctbus_loadgen: record-and-replay load generator for the framed-TCP
// front door (src/net/loadgen.h).
//
//   Record a deterministic workload and its outcomes into a trace file:
//     ctbus_loadgen --record out.trace [--requests N] [--seed S]
//                   [--spacing SECONDS] [--sweep-fraction F]
//                   [target flags below]
//
//   Replay a trace at Nx speed and gate on bit-identical outcomes plus
//   latency budgets (exit 1 on any checksum/status drift, missing
//   response, transport error, or busted budget):
//     ctbus_loadgen --replay in.trace [--speedup X] [--connections C]
//                   [--p50 S] [--p95 S] [--p99 S] [target flags below]
//
//   Validate traces and print a summary (dataset, timeline, status /
//   priority / planner mix, distinct checksums), with --records one row
//   per record (exit 1 on any malformed trace, naming path:line and the
//   field; no server is started):
//     ctbus_loadgen --inspect TRACE [TRACE...] [--records]
//
//   Target: --port N replays against a running server; otherwise an
//   in-process loopback server is stood up from --preset NAME
//   [--scale X] or --fixture-dir DIR [--dataset NAME]. Recording over a
//   loopback target defaults the workload dataset to the served one.
//
// Replayed traces must reproduce recorded statuses and checksums
// bit-for-bit at any speedup — see docs/ARCHITECTURE.md "Front door".
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "io/parse.h"
#include "net/loadgen.h"

namespace {

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "ctbus_loadgen: %s\n", message.c_str());
  std::exit(2);
}

struct Args {
  std::string record_path;
  std::string replay_path;
  std::vector<std::string> inspect_paths;
  bool records = false;
  int port = 0;  // 0 = self-hosted loopback server
  std::string preset;
  double scale = 1.0;
  std::string fixture_dir;
  std::string dataset;
  ctbus::net::WorkloadSpec spec;
  ctbus::net::ReplayOptions replay;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
  args.spec.dataset.clear();  // default filled in after target is known
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    auto value = [&]() -> std::string {
      if (i + 1 >= argc) Die("flag " + flag + " needs a value");
      return argv[++i];
    };
    auto int_value = [&](int min_value) {
      const std::string token = value();
      int parsed = 0;
      if (!ctbus::io::ParseInt(token, &parsed) || parsed < min_value) {
        Die("flag " + flag + ": bad value \"" + token + "\"");
      }
      return parsed;
    };
    auto double_value = [&](double min_value) {
      const std::string token = value();
      double parsed = 0.0;
      if (!ctbus::io::ParseDouble(token, &parsed) || parsed < min_value) {
        Die("flag " + flag + ": bad value \"" + token + "\"");
      }
      return parsed;
    };
    if (flag == "--record") {
      args.record_path = value();
    } else if (flag == "--replay") {
      args.replay_path = value();
    } else if (flag == "--inspect") {
      args.inspect_paths.push_back(value());
      while (i + 1 < argc && argv[i + 1][0] != '-') {
        args.inspect_paths.push_back(argv[++i]);
      }
    } else if (flag == "--records") {
      args.records = true;
    } else if (flag == "--port") {
      args.port = int_value(1);
      if (args.port > 65535) Die("--port out of range");
    } else if (flag == "--preset") {
      args.preset = value();
    } else if (flag == "--scale") {
      args.scale = double_value(1e-9);
    } else if (flag == "--fixture-dir") {
      args.fixture_dir = value();
    } else if (flag == "--dataset") {
      args.dataset = value();
    } else if (flag == "--requests") {
      args.spec.requests = int_value(1);
    } else if (flag == "--seed") {
      args.spec.seed = static_cast<std::uint64_t>(int_value(0));
    } else if (flag == "--spacing") {
      args.spec.spacing_seconds = double_value(0.0);
    } else if (flag == "--sweep-fraction") {
      args.spec.sweep_fraction = double_value(0.0);
      if (args.spec.sweep_fraction > 1.0) Die("--sweep-fraction > 1");
    } else if (flag == "--speedup") {
      args.replay.speedup = double_value(1e-9);
    } else if (flag == "--connections") {
      args.replay.connections = int_value(1);
    } else if (flag == "--p50") {
      args.replay.budgets.p50_seconds = double_value(0.0);
    } else if (flag == "--p95") {
      args.replay.budgets.p95_seconds = double_value(0.0);
    } else if (flag == "--p99") {
      args.replay.budgets.p99_seconds = double_value(0.0);
    } else {
      Die("unknown flag " + flag);
    }
  }
  const int modes = !args.record_path.empty() + !args.replay_path.empty() +
                    !args.inspect_paths.empty();
  if (modes != 1) {
    Die("exactly one of --record PATH / --replay PATH / --inspect PATH... "
        "is required");
  }
  if (args.records && args.inspect_paths.empty()) {
    Die("--records needs --inspect");
  }
  if (args.port != 0 && (!args.preset.empty() || !args.fixture_dir.empty())) {
    Die("--port and --preset/--fixture-dir are mutually exclusive");
  }
  return args;
}

void PrintReport(const ctbus::net::ReplayReport& report,
                 const ctbus::net::ReplayOptions& options) {
  std::printf("replayed %llu/%llu responses (%llu ok) at %.1fx over %d "
              "connection(s) in %.3fs (%.1f req/s)\n",
              static_cast<unsigned long long>(report.responses),
              static_cast<unsigned long long>(report.requests),
              static_cast<unsigned long long>(report.ok_responses),
              options.speedup, options.connections, report.wall_seconds,
              report.replayed_per_second);
  std::printf("latency p50=%.4fs p95=%.4fs p99=%.4fs max=%.4fs "
              "(budgets %.2f/%.2f/%.2f)\n",
              report.p50_seconds, report.p95_seconds, report.p99_seconds,
              report.max_seconds, options.budgets.p50_seconds,
              options.budgets.p95_seconds, options.budgets.p99_seconds);
  std::printf("checksum mismatches=%llu status mismatches=%llu transport "
              "errors=%llu fold=%016llx\n",
              static_cast<unsigned long long>(report.checksum_mismatches),
              static_cast<unsigned long long>(report.status_mismatches),
              static_cast<unsigned long long>(report.transport_errors),
              static_cast<unsigned long long>(report.checksum_fold));
  for (const std::string& violation : report.violations) {
    std::printf("violation: %s\n", violation.c_str());
  }
}

const char* PriorityName(ctbus::service::Priority priority) {
  return priority == ctbus::service::Priority::kSweep ? "sweep"
                                                      : "interactive";
}

const char* PlannerName(ctbus::core::Planner planner) {
  switch (planner) {
    case ctbus::core::Planner::kEta:
      return "eta";
    case ctbus::core::Planner::kEtaPre:
      return "eta-pre";
    case ctbus::core::Planner::kVkTsp:
      return "vk-tsp";
  }
  return "?";
}

/// "name=count, ..." in name order.
std::string Mix(const std::map<std::string, int>& counts) {
  std::string out;
  for (const auto& [name, count] : counts) {
    if (!out.empty()) out += ", ";
    out += name + "=" + std::to_string(count);
  }
  return out;
}

void PrintInspection(const std::string& path,
                     const ctbus::net::TraceFile& trace, bool records) {
  std::printf("%s: %s protocol=%u dataset=%s records=%zu\n", path.c_str(),
              ctbus::net::kTraceFormatName,
              static_cast<unsigned>(ctbus::net::kProtocolVersion),
              trace.dataset.c_str(), trace.records.size());
  if (trace.records.empty()) return;
  double first = trace.records.front().offset_seconds;
  double last = first;
  std::map<std::string, int> statuses, priorities, planners;
  std::set<std::uint64_t> checksums;
  for (const ctbus::net::TraceRecord& record : trace.records) {
    first = std::min(first, record.offset_seconds);
    last = std::max(last, record.offset_seconds);
    ++statuses[ctbus::net::ResponseStatusName(record.status)];
    ++priorities[PriorityName(record.request.priority)];
    ++planners[PlannerName(record.request.planner)];
    checksums.insert(record.response_checksum);
  }
  std::printf("  timeline: %.3fs .. %.3fs\n", first, last);
  std::printf("  status:   %s\n", Mix(statuses).c_str());
  std::printf("  priority: %s\n", Mix(priorities).c_str());
  std::printf("  planner:  %s\n", Mix(planners).c_str());
  std::printf("  checksums: %zu distinct:", checksums.size());
  int shown = 0;
  for (std::uint64_t checksum : checksums) {
    if (shown++ == 8) break;
    std::printf("%s %016llx", shown > 1 ? "," : "",
                static_cast<unsigned long long>(checksum));
  }
  if (checksums.size() > 8) std::printf(" (+%zu more)", checksums.size() - 8);
  std::printf("\n");
  if (!records) return;
  std::printf("  %3s %8s %11s %8s %3s %5s %17s %16s\n", "#", "offset", "prio",
              "planner", "k", "w", "status", "checksum");
  for (std::size_t i = 0; i < trace.records.size(); ++i) {
    const ctbus::net::TraceRecord& record = trace.records[i];
    std::printf("  %3zu %8.3f %11s %8s %3d %5.2f %17s %016llx\n", i,
                record.offset_seconds, PriorityName(record.request.priority),
                PlannerName(record.request.planner), record.request.options.k,
                record.request.options.w,
                ctbus::net::ResponseStatusName(record.status),
                static_cast<unsigned long long>(record.response_checksum));
  }
}

}  // namespace

int main(int argc, char** argv) {
  Args args = ParseArgs(argc, argv);

  if (!args.inspect_paths.empty()) {
    bool failed = false;
    for (const std::string& path : args.inspect_paths) {
      ctbus::net::TraceFile trace;
      std::string error;
      if (ctbus::net::ReadTraceFile(path, &trace, &error)) {
        PrintInspection(path, trace, args.records);
      } else {
        std::fprintf(stderr, "MALFORMED %s\n", error.c_str());
        failed = true;
      }
    }
    return failed ? 1 : 0;
  }

  // Resolve the target: external server or self-hosted loopback.
  std::unique_ptr<ctbus::net::LoopbackServer> loopback;
  std::uint16_t port = static_cast<std::uint16_t>(args.port);
  if (args.port == 0) {
    ctbus::net::LoopbackOptions options;
    if (args.preset.empty() && args.fixture_dir.empty()) {
      options.preset = "midtown";
    } else {
      options.preset = args.preset;
    }
    options.preset_scale = args.scale;
    options.fixture_dir = args.fixture_dir;
    options.dataset_name = args.dataset;
    std::string error;
    loopback = ctbus::net::StartLoopbackServer(options, &error);
    if (loopback == nullptr) Die(error);
    port = loopback->port();
    std::printf("loopback server on 127.0.0.1:%u dataset=%s\n",
                static_cast<unsigned>(port), loopback->dataset.c_str());
  }

  if (!args.record_path.empty()) {
    if (args.spec.dataset.empty()) {
      args.spec.dataset =
          loopback != nullptr
              ? loopback->dataset
              : (args.dataset.empty() ? "midtown" : args.dataset);
    }
    ctbus::net::TraceFile trace = ctbus::net::MakeWorkload(args.spec);
    std::string error;
    if (!ctbus::net::RecordTrace(port, &trace, &error)) Die(error);
    if (!ctbus::net::WriteTraceFile(args.record_path, trace, &error)) {
      Die(error);
    }
    std::printf("recorded %zu requests to %s (dataset=%s)\n",
                trace.records.size(), args.record_path.c_str(),
                trace.dataset.c_str());
    return 0;
  }

  ctbus::net::TraceFile trace;
  std::string error;
  if (!ctbus::net::ReadTraceFile(args.replay_path, &trace, &error)) {
    Die(error);
  }
  const ctbus::net::ReplayReport report =
      ctbus::net::ReplayTrace(port, trace, args.replay);
  PrintReport(report, args.replay);
  if (!report.passed) {
    std::fprintf(stderr, "ctbus_loadgen: REPLAY FAILED\n");
    return 1;
  }
  std::printf("replay PASSED: outcomes bit-identical, budgets held\n");
  return 0;
}
