// ctbus_server: the framed-TCP front door (src/net) over a
// PlanningService, serving a gen:: preset or on-disk fixture dataset on
// 127.0.0.1. Prints "listening on 127.0.0.1:<port> dataset=<name>" once
// ready, serves until SIGINT/SIGTERM, then prints the final net.*
// metrics snapshot.
//
// Usage:
//   ctbus_server [--port N]
//                [--preset NAME | --fixture-dir DIR |
//                 --road FILE --transit FILE [--trips FILE]]
//                [--dataset NAME] [--scale X] [--snapshot FILE]
//                [--spill-dir DIR] [--threads N] [--queue N]
//                [--quota N] [--reject-on-overflow]
//                [--log-requests]
//
// Defaults: ephemeral port, preset "midtown", 1 worker, queue 1024,
// quota 64, OverflowPolicy::kBlock, request log off. --threads N also
// bounds set-up: a preset's trip trees and every precompute fan out over
// N threads, and both are bit-identical at any N. --dataset names
// fixture and file datasets only: a preset always serves under its own
// name.
// --reject-on-overflow switches the shard queues to kReject so a full
// queue sheds load as kRejectedOverload instead of blocking the reader.
//
// Cold-start accelerators (io/snapshot.h): the snapshot holds the
// networks, the spill holds the precompute. --snapshot loads the dataset
// from a CTBS city snapshot when the file is valid (and writes it there
// after a text build otherwise); --spill-dir persists precompute cache
// entries (on eviction and shutdown) so a restarted server answers its
// first query without recomputing. See docs/ARCHITECTURE.md,
// "Persistence".
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <semaphore.h>
#include <string>

#include "io/parse.h"
#include "net/server.h"
#include "service/dataset_catalog.h"
#include "service/planning_service.h"

namespace {

sem_t g_stop_sem;

void HandleSignal(int) { sem_post(&g_stop_sem); }

[[noreturn]] void Die(const std::string& message) {
  std::fprintf(stderr, "ctbus_server: %s\n", message.c_str());
  std::exit(2);
}

struct Args {
  int port = 0;
  std::string preset;
  std::string fixture_dir;
  std::string road_path;
  std::string transit_path;
  std::string trips_path;
  std::string snapshot_path;
  std::string spill_dir;
  std::string dataset;
  double scale = 1.0;
  int threads = 1;
  int queue = 1024;
  int quota = 64;
  bool reject_on_overflow = false;
  bool log_requests = false;
};

Args ParseArgs(int argc, char** argv) {
  Args args;
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
    if (flag == "--port") {
      args.port = int_value(0);
      if (args.port > 65535) Die("--port out of range");
    } else if (flag == "--preset") {
      args.preset = value();
    } else if (flag == "--fixture-dir") {
      args.fixture_dir = value();
    } else if (flag == "--road") {
      args.road_path = value();
    } else if (flag == "--transit") {
      args.transit_path = value();
    } else if (flag == "--trips") {
      args.trips_path = value();
    } else if (flag == "--snapshot") {
      args.snapshot_path = value();
    } else if (flag == "--spill-dir") {
      args.spill_dir = value();
    } else if (flag == "--dataset") {
      args.dataset = value();
    } else if (flag == "--scale") {
      const std::string token = value();
      if (!ctbus::io::ParseDouble(token, &args.scale) || args.scale <= 0.0) {
        Die("flag --scale: bad value \"" + token + "\"");
      }
    } else if (flag == "--threads") {
      args.threads = int_value(1);
    } else if (flag == "--queue") {
      args.queue = int_value(1);
    } else if (flag == "--quota") {
      args.quota = int_value(1);
    } else if (flag == "--reject-on-overflow") {
      args.reject_on_overflow = true;
    } else if (flag == "--log-requests") {
      args.log_requests = true;
    } else {
      Die("unknown flag " + flag);
    }
  }
  const bool from_files =
      !args.road_path.empty() || !args.transit_path.empty();
  const int sources = (!args.preset.empty() ? 1 : 0) +
                      (!args.fixture_dir.empty() ? 1 : 0) +
                      (from_files ? 1 : 0);
  if (sources > 1) {
    Die("--preset, --fixture-dir and --road/--transit are mutually "
        "exclusive");
  }
  if (from_files && (args.road_path.empty() || args.transit_path.empty())) {
    Die("file datasets need both --road and --transit");
  }
  if (sources == 0) {
    args.preset = "midtown";
  }
  if (!args.dataset.empty() && !args.preset.empty()) {
    Die("--dataset only names fixture and file datasets (preset " +
        args.preset + " serves under its own name)");
  }
  if (!args.snapshot_path.empty() && !args.preset.empty()) {
    Die("--snapshot only applies to file datasets (presets regenerate "
        "instantly)");
  }
  return args;
}

}  // namespace

int main(int argc, char** argv) {
  const Args args = ParseArgs(argc, argv);

  ctbus::service::ServiceOptions service_options;
  service_options.num_threads = args.threads;
  service_options.queue_capacity = static_cast<std::size_t>(args.queue);
  service_options.overflow_policy =
      args.reject_on_overflow ? ctbus::service::OverflowPolicy::kReject
                              : ctbus::service::OverflowPolicy::kBlock;
  service_options.cache_spill_dir = args.spill_dir;
  ctbus::service::PlanningService service(service_options);

  std::string dataset;
  if (!args.preset.empty()) {
    dataset = args.preset;
    try {
      service.RegisterPreset(args.preset, args.scale);
    } catch (const std::exception& e) {
      Die(e.what());
    }
  } else {
    dataset = args.dataset.empty() ? "grid" : args.dataset;
    ctbus::service::DatasetCatalog catalog(&service);
    ctbus::service::DatasetDescriptor descriptor;
    descriptor.name = dataset;
    if (!args.fixture_dir.empty()) {
      descriptor.road_path = args.fixture_dir + "/grid_road.tsv";
      descriptor.transit_path = args.fixture_dir + "/grid_transit.tsv";
      descriptor.trips_path = args.fixture_dir + "/grid_trips.csv";
    } else {
      descriptor.road_path = args.road_path;
      descriptor.transit_path = args.transit_path;
      descriptor.trips_path = args.trips_path;
    }
    descriptor.snapshot_path = args.snapshot_path;
    std::string error;
    const auto manifest = catalog.Register(descriptor, &error);
    if (!manifest) Die(error);
    if (manifest->loaded_from_snapshot) {
      std::printf("dataset %s loaded from snapshot %s\n", dataset.c_str(),
                  args.snapshot_path.c_str());
    } else if (manifest->snapshot_saved) {
      std::printf("dataset %s built from text; snapshot written to %s\n",
                  dataset.c_str(), args.snapshot_path.c_str());
    }
  }

  ctbus::net::ServerOptions server_options;
  server_options.port = static_cast<std::uint16_t>(args.port);
  server_options.max_inflight_per_client =
      static_cast<std::size_t>(args.quota);
  server_options.log = args.log_requests ? &std::cerr : nullptr;
  ctbus::net::Server server(&service, server_options);
  try {
    server.Start();
  } catch (const std::exception& e) {
    Die(e.what());
  }

  sem_init(&g_stop_sem, 0, 0);
  std::signal(SIGINT, HandleSignal);
  std::signal(SIGTERM, HandleSignal);
  std::printf("listening on 127.0.0.1:%u dataset=%s\n",
              static_cast<unsigned>(server.port()), dataset.c_str());
  std::fflush(stdout);
  while (sem_wait(&g_stop_sem) != 0) {
  }

  server.Stop();
  std::printf("shutdown metrics: ");
  std::fflush(stdout);
  ctbus::obs::WriteMetricsJson(server.MetricsSnapshot(), std::cout);
  std::cout << '\n';
  return 0;
}
