// Workload trace files for the record-and-replay load harness: a
// deterministic, diffable text format holding one planning request per
// line — its intended submit offset on the workload timeline, the request
// as the wire carries it, and the recorded outcome (response status +
// deterministic-section checksum, net/frame.h). Replaying a trace
// against a server at any speed must reproduce every status and
// checksum bit-for-bit; the committed golden trace under tests/data/
// turns that into a regression gate.
//
// Format (header line, then one record per line, space-separated):
//
//   ctbus-trace-v2 protocol=<kProtocolVersion> dataset=<name> records=<n>
//   <offset_s> <status> <checksum> <payload>
//
// <payload> is the lowercase hex of the request frame's payload exactly as
// EncodeRequestFrame writes it (request_id 0), and it is read back only
// through DecodeRequestPayload: the request's fields and bounds live in
// net/frame.cc alone, so a trace loads iff the server would accept its
// requests. A trace of another protocol version is refused (the payload
// layout is the protocol's). <status> is the ResponseStatus number and
// <checksum> the 16-hex-digit ResponseChecksum.
//
// Offsets are the INTENDED schedule (deterministic by construction),
// not measured wall-clock times — so a recorded trace is byte-stable
// across machines and re-recordings. Offsets are written with round-trip
// precision. Every failure carries a "path:line: field <name>: reason"
// diagnostic via io::LineError.
#ifndef CTBUS_NET_TRACE_FILE_H_
#define CTBUS_NET_TRACE_FILE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "net/frame.h"

namespace ctbus::net {

inline constexpr char kTraceFormatName[] = "ctbus-trace-v2";

/// One recorded request + its outcome.
struct TraceRecord {
  /// Intended submit time, seconds from workload start (replay divides
  /// by the speedup factor).
  double offset_seconds = 0.0;
  std::uint32_t deadline_ms = 0;
  /// The request as sent (the writer encodes the trace's dataset).
  service::PlanRequest request;
  /// Recorded outcome: replay must reproduce both exactly.
  ResponseStatus status = ResponseStatus::kOk;
  std::uint64_t response_checksum = 0;
};

struct TraceFile {
  /// Dataset every record targets (one trace = one dataset's workload).
  std::string dataset;
  std::vector<TraceRecord> records;
};

/// Serializes `trace` to `path`; false with diagnostic on I/O failure.
bool WriteTraceFile(const std::string& path, const TraceFile& trace,
                    std::string* error);

/// Strict parse of `path` into `*trace`: header validated, every payload
/// decoded by the wire decoder (a trace file is untrusted input too) and
/// its dataset checked against the header's. False with a
/// "path:line: reason" diagnostic on the first malformed line.
bool ReadTraceFile(const std::string& path, TraceFile* trace,
                   std::string* error);

}  // namespace ctbus::net

#endif  // CTBUS_NET_TRACE_FILE_H_
