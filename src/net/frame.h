// Wire protocol of the CT-Bus front door: length-prefixed frames over
// TCP, carrying planning requests and responses between ctbus_loadgen /
// ctbus_server (and any other client of the serving layer).
//
// Frame layout (all integers little-endian):
//
//   offset  size  field
//        0     4  magic            0x43544231 ("1BTC" on the wire)
//        4     2  protocol version (kProtocolVersion; mismatch rejected)
//        6     2  frame type       (FrameType: request / response)
//        8     4  payload bytes    (bounded by kMaxPayloadBytes)
//       12     4  payload checksum (FNV-1a 32-bit over the payload)
//       16   ...  payload
//
// Frames are encoded and decoded with io/bytes.h (checksum: io::Fnv1a32).
// Decode discipline mirrors io/parse.h: every read is bounded against
// the declared payload, the whole payload must be consumed, every
// numeric field is validated against explicit bounds (no NaN smuggled
// into the planner, no unbounded allocation from a hostile length), and
// every rejection produces a human-readable diagnostic naming the field
// and offset. A decoder failure can therefore never take the server
// down — the connection is dropped with a logged reason and every other
// connection keeps serving (tests/net_frame_test.cc holds the malformed
// corpus, tests/net_server_test.cc proves the server survives it).
//
// Response payloads have two sections: a DETERMINISTIC section (status,
// plan content, resolved snapshot version — everything that must be
// bit-identical when the same request replays against the same dataset)
// and a nondeterministic tail (server-side timings, cache info).
// ResponseChecksum hashes ONLY the deterministic section, which is what
// the record/replay harness (net/trace_file.h) compares across runs.
//
// precompute_threads and trace_every are deliberately NOT on the wire:
// the precompute is bit-identical at any thread count (core/options.h),
// so a client cannot make two servers disagree by sending different
// values. The server runs each precompute with the default
// precompute_threads (serial) and never records a convergence trace.
#ifndef CTBUS_NET_FRAME_H_
#define CTBUS_NET_FRAME_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "service/planning_service.h"

namespace ctbus::net {

inline constexpr std::uint32_t kMagic = 0x43544231u;  // "CTB1"
/// Version 2: an estimator's options are probes, lanczos_steps and seed
/// (version 1 also carried a probe-kind byte).
inline constexpr std::uint16_t kProtocolVersion = 2;
inline constexpr std::size_t kHeaderBytes = 16;
/// Upper bound on a declared payload: a hostile length field can never
/// make the receiver allocate more than this.
inline constexpr std::size_t kMaxPayloadBytes = 1u << 20;
inline constexpr std::size_t kMaxDatasetNameBytes = 256;
inline constexpr std::size_t kMaxMessageBytes = 4096;
/// Bound on route edge/stop list lengths in a response (a valid plan is
/// limited by CtBusOptions::k anyway; this bounds a hostile frame).
inline constexpr std::size_t kMaxRouteElements = 1u << 16;

enum class FrameType : std::uint16_t {
  kRequest = 1,
  kResponse = 2,
};

struct FrameHeader {
  std::uint32_t magic = kMagic;
  std::uint16_t version = kProtocolVersion;
  FrameType type = FrameType::kRequest;
  std::uint32_t payload_bytes = 0;
  std::uint32_t payload_checksum = 0;
};

/// One planning request on the wire.
struct RequestFrame {
  /// Client-chosen correlation id echoed in the response (responses on a
  /// connection arrive in request order, but ids make logs joinable).
  std::uint64_t request_id = 0;
  /// Admission deadline in milliseconds since the server received the
  /// frame; 0 = none. A response that would arrive past the deadline is
  /// shed (ResponseStatus::kRejectedDeadline) instead of delivered.
  std::uint32_t deadline_ms = 0;
  /// The planning request proper: dataset, planner, priority, snapshot
  /// version, and the result-affecting CtBusOptions fields.
  service::PlanRequest request;
};

enum class ResponseStatus : std::uint8_t {
  kOk = 0,
  /// Shed at admission: the connection exceeded its in-flight quota.
  kRejectedQuota = 1,
  /// Shed at admission: the dataset shard's queue was full
  /// (OverflowPolicy::kReject surfaced through the front door).
  kRejectedOverload = 2,
  /// Completed (or abandoned) past the request's deadline_ms.
  kRejectedDeadline = 3,
  /// Execution error (unknown dataset / snapshot version, ...);
  /// `message` carries the diagnostic.
  kError = 4,
};

/// Printable status name ("ok", "rejected-quota", ...), stable API the
/// structured request log and the trace inspector key on.
const char* ResponseStatusName(ResponseStatus status);

/// One planning response on the wire. Fields up to `message` are the
/// DETERMINISTIC section covered by ResponseChecksum; the tail is
/// timing/provenance and excluded (see file header).
struct ResponseFrame {
  std::uint64_t request_id = 0;
  ResponseStatus status = ResponseStatus::kOk;
  // --- deterministic section (checksummed) ---
  bool found = false;
  std::uint64_t snapshot_version = 0;
  std::vector<int> edges;
  std::vector<int> stops;
  double objective = 0.0;
  double demand = 0.0;
  double connectivity_increment = 0.0;
  std::int32_t iterations = 0;
  /// Reject/error diagnostic (empty on kOk).
  std::string message;
  // --- nondeterministic tail (NOT checksummed) ---
  double server_seconds = 0.0;  // receive -> response write
  double queue_seconds = 0.0;   // service queue wait
  bool cache_hit = false;
  /// Always 1: the service executes one request per dequeue. Kept on the
  /// wire so existing clients that read it keep decoding.
  std::uint32_t batch_size = 1;
};

/// FNV-1a 64 over the canonical encoding of the deterministic section
/// (status through message; request_id and the timing tail excluded).
/// This is the value recorded in trace files and compared on replay.
std::uint64_t ResponseChecksum(const ResponseFrame& response);

/// Encode a complete frame (header + payload), ready to send.
std::vector<std::uint8_t> EncodeRequestFrame(const RequestFrame& request);
std::vector<std::uint8_t> EncodeResponseFrame(const ResponseFrame& response);

/// Header decode + validation: false (with a diagnostic naming the bad
/// field) on short input, bad magic, unsupported version, unknown frame
/// type, or a declared payload above kMaxPayloadBytes. `data` must hold
/// at least kHeaderBytes when the size check passes.
bool DecodeFrameHeader(const std::uint8_t* data, std::size_t size,
                       FrameHeader* header, std::string* error);

/// Payload decoders: strict and bounded — every field read is checked
/// against the payload size, strings/lists are length-validated against
/// the kMax* bounds, enums and numeric options are range-checked (w in
/// [0,1], tau finite and >= 0, positive probe/step counts, no unknown
/// option flag bits, ...), and trailing bytes after the last field are an
/// error. On failure *error names the offending field; the output is
/// unspecified. DecodeRequestPayload is the one reader of a request: the
/// trace files (net/trace_file.h) store the same payload.
bool DecodeRequestPayload(const std::uint8_t* data, std::size_t size,
                          RequestFrame* request, std::string* error);
bool DecodeResponsePayload(const std::uint8_t* data, std::size_t size,
                           ResponseFrame* response, std::string* error);

/// Builds a response from an executed service result (status kOk) —
/// the single place the ServiceResult -> wire mapping lives, used by the
/// server and by tests asserting server-vs-direct bit-identity.
ResponseFrame MakeOkResponse(std::uint64_t request_id,
                             const service::ServiceResult& result);

}  // namespace ctbus::net

#endif  // CTBUS_NET_FRAME_H_
