#include "net/frame.h"

#include "io/bytes.h"

namespace ctbus::net {

namespace {

using io::AppendF64;
using io::AppendI32;
using io::AppendIntList;
using io::AppendString;
using io::AppendU16;
using io::AppendU32;
using io::AppendU64;
using io::AppendU8;

// ------------------------------------------------- request contract ----
// The request's fields and their bounds are written out here only: a
// trace record (net/trace_file.h) carries this same payload and reads it
// back through DecodeRequestPayload.

/// The one-byte encoding of the boolean CtBusOptions: bit 1
/// best_neighbor_only, 2 use_domination_table, 3 seed_all_edges,
/// 4 new_edges_only. Bit 0 (a retired precompute toggle) and bits 5-7 are
/// unknown and rejected.
constexpr std::uint8_t kKnownFlagBits = 0x1e;

std::uint8_t PackFlags(const core::CtBusOptions& options) {
  std::uint8_t flags = 0;
  if (options.best_neighbor_only) flags |= 1u << 1;
  if (options.use_domination_table) flags |= 1u << 2;
  if (options.seed_all_edges) flags |= 1u << 3;
  if (options.new_edges_only) flags |= 1u << 4;
  return flags;
}

void UnpackFlags(std::uint8_t flags, core::CtBusOptions* options) {
  options->best_neighbor_only = (flags & (1u << 1)) != 0;
  options->use_domination_table = (flags & (1u << 2)) != 0;
  options->seed_all_edges = (flags & (1u << 3)) != 0;
  options->new_edges_only = (flags & (1u << 4)) != 0;
}

void AppendEstimator(std::vector<std::uint8_t>* out,
                     const connectivity::EstimatorOptions& estimator) {
  AppendI32(out, estimator.probes);
  AppendI32(out, estimator.lanczos_steps);
  AppendU64(out, estimator.seed);
}

bool ReadEstimator(io::ByteReader* reader, const char* field,
                   connectivity::EstimatorOptions* estimator) {
  if (!reader->ReadI32(field, &estimator->probes) ||
      !reader->ReadI32(field, &estimator->lanczos_steps) ||
      !reader->ReadU64(field, &estimator->seed)) {
    return false;
  }
  if (estimator->probes < 1 || estimator->probes > 100000) {
    return reader->Fail(field, "probes out of [1, 100000]");
  }
  if (estimator->lanczos_steps < 1 || estimator->lanczos_steps > 10000) {
    return reader->Fail(field, "lanczos_steps out of [1, 10000]");
  }
  return true;
}

void AppendRequestPayload(std::vector<std::uint8_t>* out,
                          const RequestFrame& frame) {
  const service::PlanRequest& request = frame.request;
  const core::CtBusOptions& options = request.options;
  AppendU64(out, frame.request_id);
  AppendU32(out, frame.deadline_ms);
  AppendString(out, request.dataset);
  AppendU8(out, static_cast<std::uint8_t>(request.priority));
  AppendU8(out, static_cast<std::uint8_t>(request.planner));
  AppendU64(out, request.snapshot_version);
  AppendI32(out, options.k);
  AppendF64(out, options.w);
  AppendF64(out, options.tau);
  AppendI32(out, options.max_turns);
  AppendI32(out, options.seed_count);
  AppendI32(out, options.max_iterations);
  AppendEstimator(out, options.online_estimator);
  AppendEstimator(out, options.precompute_estimator);
  AppendU8(out, PackFlags(options));
}

void AppendDeterministicResponse(std::vector<std::uint8_t>* out,
                                 const ResponseFrame& response) {
  AppendU8(out, static_cast<std::uint8_t>(response.status));
  AppendU8(out, response.found ? 1 : 0);
  AppendU64(out, response.snapshot_version);
  AppendIntList(out, response.edges);
  AppendIntList(out, response.stops);
  AppendF64(out, response.objective);
  AppendF64(out, response.demand);
  AppendF64(out, response.connectivity_increment);
  AppendI32(out, response.iterations);
  AppendString(out, response.message);
}

std::vector<std::uint8_t> WrapFrame(FrameType type,
                                    std::vector<std::uint8_t> payload) {
  std::vector<std::uint8_t> frame;
  frame.reserve(kHeaderBytes + payload.size());
  AppendU32(&frame, kMagic);
  AppendU16(&frame, kProtocolVersion);
  AppendU16(&frame, static_cast<std::uint16_t>(type));
  AppendU32(&frame, static_cast<std::uint32_t>(payload.size()));
  AppendU32(&frame, io::Fnv1a32(payload.data(), payload.size()));
  frame.insert(frame.end(), payload.begin(), payload.end());
  return frame;
}

}  // namespace

const char* ResponseStatusName(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kOk:
      return "ok";
    case ResponseStatus::kRejectedQuota:
      return "rejected-quota";
    case ResponseStatus::kRejectedOverload:
      return "rejected-overload";
    case ResponseStatus::kRejectedDeadline:
      return "rejected-deadline";
    case ResponseStatus::kError:
      return "error";
  }
  return "unknown";
}

std::uint64_t ResponseChecksum(const ResponseFrame& response) {
  std::vector<std::uint8_t> canonical;
  AppendDeterministicResponse(&canonical, response);
  return io::Fnv1a64(canonical.data(), canonical.size());
}

std::vector<std::uint8_t> EncodeRequestFrame(const RequestFrame& request) {
  std::vector<std::uint8_t> payload;
  AppendRequestPayload(&payload, request);
  return WrapFrame(FrameType::kRequest, std::move(payload));
}

std::vector<std::uint8_t> EncodeResponseFrame(const ResponseFrame& response) {
  std::vector<std::uint8_t> payload;
  AppendDeterministicResponse(&payload, response);
  AppendU64(&payload, response.request_id);
  AppendF64(&payload, response.server_seconds);
  AppendF64(&payload, response.queue_seconds);
  AppendU8(&payload, response.cache_hit ? 1 : 0);
  AppendU32(&payload, response.batch_size);
  return WrapFrame(FrameType::kResponse, std::move(payload));
}

bool DecodeFrameHeader(const std::uint8_t* data, std::size_t size,
                       FrameHeader* header, std::string* error) {
  io::ByteReader reader(data, size);
  std::uint16_t type = 0;
  if (!reader.ReadU32("magic", &header->magic) ||
      !reader.ReadU16("version", &header->version) ||
      !reader.ReadU16("type", &type) ||
      !reader.ReadU32("payload_bytes", &header->payload_bytes) ||
      !reader.ReadU32("payload_checksum", &header->payload_checksum)) {
    if (error != nullptr) *error = reader.error();
    return false;
  }
  if (header->magic != kMagic) {
    if (error != nullptr) *error = "field magic: bad magic";
    return false;
  }
  if (header->version != kProtocolVersion) {
    if (error != nullptr) {
      *error = "field version: unsupported protocol version " +
               std::to_string(header->version);
    }
    return false;
  }
  if (type != static_cast<std::uint16_t>(FrameType::kRequest) &&
      type != static_cast<std::uint16_t>(FrameType::kResponse)) {
    if (error != nullptr) {
      *error = "field type: unknown frame type " + std::to_string(type);
    }
    return false;
  }
  header->type = static_cast<FrameType>(type);
  if (header->payload_bytes > kMaxPayloadBytes) {
    if (error != nullptr) {
      *error = "field payload_bytes: declared length " +
               std::to_string(header->payload_bytes) + " above bound " +
               std::to_string(kMaxPayloadBytes);
    }
    return false;
  }
  return true;
}

bool DecodeRequestPayload(const std::uint8_t* data, std::size_t size,
                          RequestFrame* request, std::string* error) {
  io::ByteReader reader(data, size);
  service::PlanRequest& plan = request->request;
  core::CtBusOptions& options = plan.options;
  options = core::CtBusOptions();  // server-side defaults for off-wire knobs
  std::uint8_t priority = 0;
  std::uint8_t planner = 0;
  std::uint8_t flags = 0;
  bool ok =
      reader.ReadU64("request_id", &request->request_id) &&
      reader.ReadU32("deadline_ms", &request->deadline_ms) &&
      reader.ReadString("dataset", kMaxDatasetNameBytes, &plan.dataset) &&
      reader.ReadU8("priority", &priority) &&
      reader.ReadU8("planner", &planner) &&
      reader.ReadU64("snapshot_version", &plan.snapshot_version) &&
      reader.ReadI32("k", &options.k) &&
      reader.ReadFiniteF64("w", &options.w) &&
      reader.ReadFiniteF64("tau", &options.tau) &&
      reader.ReadI32("max_turns", &options.max_turns) &&
      reader.ReadI32("seed_count", &options.seed_count) &&
      reader.ReadI32("max_iterations", &options.max_iterations) &&
      ReadEstimator(&reader, "online_estimator", &options.online_estimator) &&
      ReadEstimator(&reader, "precompute_estimator",
                    &options.precompute_estimator) &&
      reader.ReadU8("flags", &flags) && reader.ExpectEnd();
  if (ok) {
    const struct {
      const char* field;
      bool bad;
      const char* reason;
    } checks[] = {
        {"dataset", plan.dataset.empty(), "empty dataset name"},
        {"priority",
         priority > static_cast<std::uint8_t>(service::Priority::kSweep),
         "unknown priority"},
        {"planner", planner > static_cast<std::uint8_t>(core::Planner::kVkTsp),
         "unknown planner"},
        {"k", options.k < 1 || options.k > 1000000, "out of [1, 1000000]"},
        {"w", !(options.w >= 0.0 && options.w <= 1.0), "out of [0, 1]"},
        {"tau", options.tau < 0.0, "negative"},
        {"max_turns", options.max_turns < 0, "negative"},
        {"seed_count", options.seed_count < 0, "negative"},
        {"max_iterations", options.max_iterations < 1, "non-positive"},
        {"flags", (flags & ~kKnownFlagBits) != 0, "unknown flag bit set"},
    };
    for (const auto& check : checks) {
      if (check.bad) {
        ok = reader.Fail(check.field, check.reason);
        break;
      }
    }
  }
  if (!ok) {
    if (error != nullptr) *error = reader.error();
    return false;
  }
  plan.priority = static_cast<service::Priority>(priority);
  plan.planner = static_cast<core::Planner>(planner);
  UnpackFlags(flags, &options);
  return true;
}

bool DecodeResponsePayload(const std::uint8_t* data, std::size_t size,
                           ResponseFrame* response, std::string* error) {
  io::ByteReader reader(data, size);
  std::uint8_t status = 0;
  std::uint8_t found = 0;
  std::uint8_t cache_hit = 0;
  bool ok =
      reader.ReadU8("status", &status) && reader.ReadU8("found", &found) &&
      reader.ReadU64("snapshot_version", &response->snapshot_version) &&
      reader.ReadIntList("edges", &response->edges, kMaxRouteElements) &&
      reader.ReadIntList("stops", &response->stops, kMaxRouteElements) &&
      reader.ReadF64("objective", &response->objective) &&
      reader.ReadF64("demand", &response->demand) &&
      reader.ReadF64("connectivity_increment",
                     &response->connectivity_increment) &&
      reader.ReadI32("iterations", &response->iterations) &&
      reader.ReadString("message", kMaxMessageBytes, &response->message) &&
      reader.ReadU64("request_id", &response->request_id) &&
      reader.ReadF64("server_seconds", &response->server_seconds) &&
      reader.ReadF64("queue_seconds", &response->queue_seconds) &&
      reader.ReadU8("cache_hit", &cache_hit) &&
      reader.ReadU32("batch_size", &response->batch_size) &&
      reader.ExpectEnd();
  if (ok && status > static_cast<std::uint8_t>(ResponseStatus::kError)) {
    ok = reader.Fail("status", "unknown status");
  }
  if (!ok) {
    if (error != nullptr) *error = reader.error();
    return false;
  }
  response->status = static_cast<ResponseStatus>(status);
  response->found = found != 0;
  response->cache_hit = cache_hit != 0;
  return true;
}

ResponseFrame MakeOkResponse(std::uint64_t request_id,
                             const service::ServiceResult& result) {
  ResponseFrame response;
  response.request_id = request_id;
  response.status = ResponseStatus::kOk;
  response.found = result.plan.found;
  response.snapshot_version = result.stats.snapshot_version;
  response.edges = result.plan.path.edges();
  response.stops = result.plan.path.stops();
  response.objective = result.plan.objective;
  response.demand = result.plan.demand;
  response.connectivity_increment = result.plan.connectivity_increment;
  response.iterations = result.plan.iterations;
  response.queue_seconds = result.stats.queue_seconds;
  response.cache_hit = result.stats.precompute_cache_hit;
  return response;
}

}  // namespace ctbus::net
