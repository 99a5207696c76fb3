#include "net/trace_file.h"

#include <cmath>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>

#include "io/parse.h"
#include "obs/json.h"

namespace ctbus::net {
namespace {

std::string Hex(const std::uint8_t* data, std::size_t size) {
  static const char digits[] = "0123456789abcdef";
  std::string out;
  out.reserve(2 * size);
  for (std::size_t i = 0; i < size; ++i) {
    out.push_back(digits[data[i] >> 4]);
    out.push_back(digits[data[i] & 0xf]);
  }
  return out;
}

/// Lowercase hex digits to bytes; false on odd length or any other char.
bool ParseHex(const std::string& token, std::vector<std::uint8_t>* out) {
  if (token.size() % 2 != 0) return false;
  out->clear();
  out->reserve(token.size() / 2);
  int high = -1;
  for (char c : token) {
    int digit = -1;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else return false;
    if (high < 0) {
      high = digit;
    } else {
      out->push_back(static_cast<std::uint8_t>(high << 4 | digit));
      high = -1;
    }
  }
  return true;
}

/// Round-trip double formatting shared with the JSON emitters (so a
/// written offset parses back to the identical bits).
std::string DoubleToken(double value) {
  std::ostringstream out;
  obs::WriteJsonDouble(out, value);
  return out.str();
}

}  // namespace

bool WriteTraceFile(const std::string& path, const TraceFile& trace,
                    std::string* error) {
  std::ofstream out(path);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  out << kTraceFormatName << " protocol=" << kProtocolVersion
      << " dataset=" << trace.dataset << " records=" << trace.records.size()
      << '\n';
  for (const TraceRecord& record : trace.records) {
    RequestFrame frame;
    frame.deadline_ms = record.deadline_ms;
    frame.request = record.request;
    frame.request.dataset = trace.dataset;
    const std::vector<std::uint8_t> wire = EncodeRequestFrame(frame);
    char checksum[17];
    std::snprintf(checksum, sizeof(checksum), "%016llx",
                  static_cast<unsigned long long>(record.response_checksum));
    out << DoubleToken(record.offset_seconds) << ' '
        << static_cast<int>(record.status) << ' ' << checksum << ' '
        << Hex(wire.data() + kHeaderBytes, wire.size() - kHeaderBytes)
        << '\n';
  }
  out.flush();
  if (!out) {
    if (error != nullptr) *error = "write failure on " + path;
    return false;
  }
  return true;
}

bool ReadTraceFile(const std::string& path, TraceFile* trace,
                   std::string* error) {
  std::ifstream in(path);
  if (!in) {
    if (error != nullptr) *error = "cannot open " + path;
    return false;
  }
  trace->dataset.clear();
  trace->records.clear();
  std::size_t line_number = 1;
  auto fail = [&](const std::string& field, const std::string& reason) {
    if (error != nullptr) {
      *error =
          io::LineError(path, line_number, "field " + field + ": " + reason);
    }
    return false;
  };

  std::string line;
  if (!std::getline(in, line)) return fail("format", "empty trace file");
  if (!line.empty() && line.back() == '\r') line.pop_back();
  std::istringstream header(line);
  std::string format;
  header >> format;
  if (format != kTraceFormatName) {
    return fail("format", "unknown trace format \"" + format +
                              "\", expected " + kTraceFormatName);
  }
  std::map<std::string, std::string> keys;
  for (std::string token; header >> token;) {
    const std::size_t eq = token.find('=');
    const std::string key = token.substr(0, eq);
    if (eq == std::string::npos ||
        (key != "protocol" && key != "dataset" && key != "records") ||
        !keys.emplace(key, token.substr(eq + 1)).second) {
      return fail("header", "unknown or repeated field \"" + token + "\"");
    }
  }
  const std::string expected_protocol = std::to_string(kProtocolVersion);
  if (keys["protocol"] != expected_protocol) {
    return fail("protocol", "trace protocol \"" + keys["protocol"] +
                                "\", this build speaks " + expected_protocol);
  }
  trace->dataset = keys["dataset"];
  if (trace->dataset.empty()) return fail("dataset", "missing or empty");
  long long declared_records = -1;
  if (!io::ParseInt64(keys["records"], &declared_records) ||
      declared_records < 0) {
    return fail("records",
                "malformed record count \"" + keys["records"] + "\"");
  }

  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    std::istringstream tokens(line);
    std::string offset, status, checksum, payload, extra;
    if (!(tokens >> offset >> status >> checksum >> payload) ||
        tokens >> extra) {
      return fail("line", "expected <offset_s> <status> <checksum> <payload>");
    }

    TraceRecord record;
    if (!io::ParseDouble(offset, &record.offset_seconds) ||
        !std::isfinite(record.offset_seconds) ||
        record.offset_seconds < 0.0) {
      return fail("offset_seconds",
                  "not a finite non-negative number \"" + offset + "\"");
    }
    int status_value = -1;
    if (!io::ParseInt(status, &status_value) || status_value < 0 ||
        status_value > static_cast<int>(ResponseStatus::kError)) {
      return fail("status", "unknown status \"" + status + "\"");
    }
    record.status = static_cast<ResponseStatus>(status_value);
    std::vector<std::uint8_t> bytes;
    if (!ParseHex(checksum, &bytes) || bytes.size() != 8) {
      return fail("checksum", "not 16 lowercase hex digits");
    }
    for (std::uint8_t byte : bytes) {
      record.response_checksum = record.response_checksum << 8 | byte;
    }
    if (!ParseHex(payload, &bytes)) {
      return fail("payload", "odd length or non-hex digit");
    }
    RequestFrame frame;
    std::string decode_error;
    if (!DecodeRequestPayload(bytes.data(), bytes.size(), &frame,
                              &decode_error)) {
      return fail("payload", decode_error);
    }
    if (frame.request_id != 0) return fail("payload", "request_id is not 0");
    if (frame.request.dataset != trace->dataset) {
      return fail("dataset", "payload names \"" + frame.request.dataset +
                                 "\", the header \"" + trace->dataset + "\"");
    }
    record.deadline_ms = frame.deadline_ms;
    record.request = std::move(frame.request);
    trace->records.push_back(std::move(record));
  }
  if (static_cast<long long>(trace->records.size()) != declared_records) {
    return fail("records", "header declares " +
                               std::to_string(declared_records) +
                               " records but file holds " +
                               std::to_string(trace->records.size()));
  }
  return true;
}

}  // namespace ctbus::net
