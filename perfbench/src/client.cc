#include "client.h"

#include <chrono>
#include <cinttypes>
#include <cstdio>
#include <thread>
#include <vector>

#include "net/client.h"

namespace perfbench {
namespace {

using Clock = std::chrono::steady_clock;

struct Record {
  std::int64_t index = 0;
  int connection = 0;
  double due = 0.0;   // seconds from the start of measurement
  double sent = 0.0;
  double received = 0.0;
  bool transport_ok = false;
  ctbus::net::ResponseFrame response;
};

double SecondsSince(Clock::time_point start) {
  return std::chrono::duration<double>(Clock::now() - start).count();
}

ctbus::net::RequestFrame Request(const ClientArgs& args, std::int64_t index) {
  ctbus::net::RequestFrame frame =
      MakeRequest(args.workload, args.seed, args.dataset, index);
  if (args.inject_unknown_dataset && index == 0) {
    frame.request.dataset = "no-such-dataset";
  }
  return frame;
}

bool Connect(const ClientArgs& args, ctbus::net::Client* client) {
  std::string error;
  if (!client->Connect(args.port, &error)) {
    std::fprintf(stderr, "perfbench: connect: %s\n", error.c_str());
    return false;
  }
  return true;
}

// One round trip on `client`, filling the record's response fields.
void CallInto(ctbus::net::Client* client,
              const ctbus::net::RequestFrame& frame, Clock::time_point start,
              Record* record) {
  std::string error;
  record->sent = SecondsSince(start);
  record->transport_ok = client->Call(frame, &record->response, &error);
  record->received = SecondsSince(start);
  if (!record->transport_ok) {
    std::fprintf(stderr, "perfbench: request %" PRId64 ": %s\n",
                 record->index, error.c_str());
  }
}

// Open loop: each connection has a sender that sleeps until each request
// is due and a receiver that collects responses in order, so a slow
// response never delays a later send.
std::vector<Record> RunOpenLoop(const ClientArgs& args) {
  const std::vector<double> due =
      OpenLoopArrivals(args.seed, kArrivalRate, args.seconds);
  std::vector<Record> records(due.size());
  for (std::size_t i = 0; i < due.size(); ++i) {
    records[i].index = static_cast<std::int64_t>(i);
    records[i].connection = static_cast<int>(i % kConnections);
    records[i].due = due[i];
  }
  std::vector<ctbus::net::Client> clients(kConnections);
  for (auto& client : clients) {
    if (!Connect(args, &client)) return records;
  }
  std::vector<ctbus::net::RequestFrame> frames;
  frames.reserve(records.size());
  for (const Record& r : records) frames.push_back(Request(args, r.index));

  const Clock::time_point start = Clock::now();
  std::vector<std::thread> threads;
  for (int c = 0; c < kConnections; ++c) {
    threads.emplace_back([&, c] {
      for (std::size_t i = c; i < records.size(); i += kConnections) {
        std::this_thread::sleep_until(
            start + std::chrono::duration_cast<Clock::duration>(
                        std::chrono::duration<double>(records[i].due)));
        records[i].sent = SecondsSince(start);
        std::string error;
        if (!clients[c].Send(frames[i], &error)) {
          // A failed send means a dead connection, so the receiver's
          // Receive fails too; the unanswered records stay failed.
          std::fprintf(stderr, "perfbench: send %zu: %s\n", i, error.c_str());
          return;
        }
      }
    });
    threads.emplace_back([&, c] {
      for (std::size_t i = c; i < records.size(); i += kConnections) {
        std::string error;
        if (!clients[c].Receive(&records[i].response, &error)) {
          std::fprintf(stderr, "perfbench: receive %zu: %s\n", i,
                       error.c_str());
          return;
        }
        records[i].received = SecondsSince(start);
        records[i].transport_ok = true;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  return records;
}

// Closed loop on one connection: the next request goes out when the
// previous response is in.
std::vector<Record> RunOnlineLoop(const ClientArgs& args) {
  std::vector<Record> records;
  ctbus::net::Client client;
  if (!Connect(args, &client)) return records;
  const Clock::time_point start = Clock::now();
  for (std::int64_t i = 0; SecondsSince(start) < args.seconds; ++i) {
    Record record;
    record.index = i;
    record.due = SecondsSince(start);
    CallInto(&client, Request(args, i), start, &record);
    records.push_back(std::move(record));
    if (!records.back().transport_ok) break;
  }
  return records;
}

bool WriteRecords(const std::string& path, const std::vector<Record>& records) {
  std::FILE* out = std::fopen(path.c_str(), "w");
  if (out == nullptr) return false;
  std::fprintf(out,
               "index\tconn\tdue\tsent\treceived\ttransport_ok\tstatus\t"
               "checksum\tqueue_s\tcache_hit\tbatch_size\n");
  for (const Record& r : records) {
    std::fprintf(out, "%" PRId64 "\t%d\t%.9f\t%.9f\t%.9f\t%d\t%s\t%016" PRIx64
                 "\t%.9f\t%d\t%u\n",
                 r.index, r.connection, r.due, r.sent, r.received,
                 r.transport_ok ? 1 : 0,
                 ctbus::net::ResponseStatusName(r.response.status),
                 ctbus::net::ResponseChecksum(r.response),
                 r.response.queue_seconds, r.response.cache_hit ? 1 : 0,
                 static_cast<unsigned>(r.response.batch_size));
  }
  return std::fclose(out) == 0;
}

}  // namespace

int RunClient(const ClientArgs& args) {
  {
    ctbus::net::Client client;
    if (!Connect(args, &client)) return 1;
    Record warm;
    CallInto(&client, MakeWarmupRequest(args.dataset),
             Clock::now(), &warm);
    if (!warm.transport_ok) return 1;
    std::printf("warm %s %016" PRIx64 "\n",
                ctbus::net::ResponseStatusName(warm.response.status),
                ctbus::net::ResponseChecksum(warm.response));
    std::fflush(stdout);
    if (warm.response.status != ctbus::net::ResponseStatus::kOk) return 1;
  }
  if (args.warmup_only) return 0;

  std::vector<Record> records;
  switch (args.workload) {
    case Workload::kHitMix:
      records = RunOpenLoop(args);
      break;
    case Workload::kOnlineEta:
      records = RunOnlineLoop(args);
      break;
  }
  if (!WriteRecords(args.records_path, records)) {
    std::fprintf(stderr, "perfbench: cannot write %s\n",
                 args.records_path.c_str());
    return 1;
  }
  std::printf("sent %zu\n", records.size());
  return 0;
}

}  // namespace perfbench
