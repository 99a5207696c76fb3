#include "net/trace_file.h"

#include <cmath>
#include <fstream>
#include <limits>
#include <sstream>

#include "io/parse.h"
#include "obs/json.h"

namespace ctbus::net {
namespace {

/// Lowercase hex encoding for u64 fields (seeds, checksums): unlike
/// decimal, the full u64 range round-trips without signed-parse caveats.
std::string HexU64(std::uint64_t value) {
  static const char* digits = "0123456789abcdef";
  std::string out(16, '0');
  for (int i = 15; i >= 0; --i) {
    out[static_cast<std::size_t>(i)] = digits[value & 0xf];
    value >>= 4;
  }
  return out;
}

bool ParseHexU64(const std::string& token, std::uint64_t* out) {
  if (token.empty() || token.size() > 16) return false;
  std::uint64_t value = 0;
  for (char c : token) {
    int digit = -1;
    if (c >= '0' && c <= '9') digit = c - '0';
    else if (c >= 'a' && c <= 'f') digit = c - 'a' + 10;
    else return false;
    value = (value << 4) | static_cast<std::uint64_t>(digit);
  }
  *out = value;
  return true;
}

/// Round-trip double formatting shared with the JSON emitters (so a
/// written offset/w/tau parses back to the identical bits).
std::string DoubleToken(double value) {
  std::ostringstream out;
  obs::WriteJsonDouble(out, value);
  return out.str();
}

/// Strict token cursor over one record line: every Take* consumes one
/// whitespace-separated token and validates it whole (io::Parse*), with
/// the field name in the diagnostic.
class LineTokens {
 public:
  explicit LineTokens(const std::string& line) : stream_(line) {}

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  bool TakeDouble(const char* field, double* out) {
    std::string token;
    if (!Next(field, &token)) return false;
    if (!io::ParseDouble(token, out) || !std::isfinite(*out)) {
      return Fail(field, "malformed double \"" + token + "\"");
    }
    return true;
  }

  bool TakeInt(const char* field, int* out,
               int min_value = std::numeric_limits<int>::min(),
               int max_value = std::numeric_limits<int>::max()) {
    std::string token;
    if (!Next(field, &token)) return false;
    if (!io::ParseInt(token, out)) {
      return Fail(field, "malformed int \"" + token + "\"");
    }
    if (*out < min_value || *out > max_value) {
      return Fail(field, "value " + token + " out of [" +
                             std::to_string(min_value) + ", " +
                             std::to_string(max_value) + "]");
    }
    return true;
  }

  bool TakeHexU64(const char* field, std::uint64_t* out) {
    std::string token;
    if (!Next(field, &token)) return false;
    if (!ParseHexU64(token, out)) {
      return Fail(field, "malformed hex u64 \"" + token + "\"");
    }
    return true;
  }

  bool ExpectEnd() {
    std::string token;
    if (stream_ >> token) {
      return Fail("line", "trailing token \"" + token + "\"");
    }
    return ok();
  }

  /// Decimal non-negative int64 (snapshot versions, record counts).
  bool TakeU64(const char* field, std::uint64_t* out) {
    std::string token;
    if (!Next(field, &token)) return false;
    long long value = 0;
    if (!io::ParseInt64(token, &value) || value < 0) {
      return Fail(field, "malformed non-negative integer \"" + token + "\"");
    }
    *out = static_cast<std::uint64_t>(value);
    return true;
  }

  bool Fail(const char* field, const std::string& reason) {
    if (error_.empty()) {
      error_ = std::string("field ") + field + ": " + reason;
    }
    return false;
  }

 private:
  bool Next(const char* field, std::string* token) {
    if (!ok()) return false;
    if (!(stream_ >> *token)) return Fail(field, "missing token");
    return true;
  }

  std::istringstream stream_;
  std::string error_;
};

bool ParseEstimatorTokens(LineTokens* tokens, const char* which,
                          connectivity::EstimatorOptions* estimator) {
  int kind = 0;
  if (!tokens->TakeInt(which, &estimator->probes) ||
      !tokens->TakeInt(which, &estimator->lanczos_steps) ||
      !tokens->TakeHexU64(which, &estimator->seed) ||
      !tokens->TakeInt(which, &kind)) {
    return false;
  }
  estimator->probe_kind = static_cast<connectivity::ProbeKind>(kind);
  return true;
}

void WriteEstimatorTokens(std::ostream& out,
                          const connectivity::EstimatorOptions& estimator) {
  out << ' ' << estimator.probes << ' ' << estimator.lanczos_steps << ' '
      << HexU64(estimator.seed) << ' '
      << static_cast<int>(estimator.probe_kind);
}

}  // namespace

bool WriteTraceFile(const std::string& path, const TraceFile& trace,
                    std::string* error) {
  std::ofstream out(path);
  if (!out) {
    if (error != nullptr) *error = "cannot open " + path + " for writing";
    return false;
  }
  out << kTraceFormatName << " dataset=" << trace.dataset
      << " records=" << trace.records.size() << '\n';
  for (const TraceRecord& record : trace.records) {
    const core::CtBusOptions& options = record.request.options;
    out << DoubleToken(record.offset_seconds) << ' ' << record.deadline_ms
        << ' ' << static_cast<int>(record.request.priority) << ' '
        << static_cast<int>(record.request.planner) << ' '
        << record.request.snapshot_version << ' ' << options.k << ' '
        << DoubleToken(options.w) << ' ' << DoubleToken(options.tau) << ' '
        << options.max_turns << ' ' << options.seed_count << ' '
        << options.max_iterations;
    WriteEstimatorTokens(out, options.online_estimator);
    WriteEstimatorTokens(out, options.precompute_estimator);
    out << ' ' << static_cast<int>(PackFlags(options)) << ' '
        << static_cast<int>(record.status) << ' '
        << HexU64(record.response_checksum) << '\n';
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

  std::string line;
  std::size_t line_number = 0;
  if (!std::getline(in, line)) {
    if (error != nullptr) *error = io::LineError(path, 1, "empty trace file");
    return false;
  }
  ++line_number;
  if (!line.empty() && line.back() == '\r') line.pop_back();
  long long declared_records = -1;
  {
    std::istringstream header(line);
    std::string format;
    std::string field;
    header >> format;
    if (format != kTraceFormatName) {
      if (error != nullptr) {
        *error = io::LineError(path, line_number,
                               "unknown trace format \"" + format + "\"");
      }
      return false;
    }
    while (header >> field) {
      const std::size_t eq = field.find('=');
      if (eq == std::string::npos) {
        if (error != nullptr) {
          *error = io::LineError(path, line_number,
                                 "malformed header field \"" + field + "\"");
        }
        return false;
      }
      const std::string key = field.substr(0, eq);
      const std::string value = field.substr(eq + 1);
      if (key == "dataset") {
        trace->dataset = value;
      } else if (key == "records") {
        if (!io::ParseInt64(value, &declared_records) ||
            declared_records < 0) {
          if (error != nullptr) {
            *error = io::LineError(path, line_number,
                                   "malformed record count \"" + value + "\"");
          }
          return false;
        }
      } else {
        if (error != nullptr) {
          *error = io::LineError(path, line_number,
                                 "unknown header key \"" + key + "\"");
        }
        return false;
      }
    }
    if (trace->dataset.empty()) {
      if (error != nullptr) {
        *error = io::LineError(path, line_number, "header missing dataset=");
      }
      return false;
    }
  }

  while (std::getline(in, line)) {
    ++line_number;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    if (line.empty()) continue;
    LineTokens t(line);
    TraceRecord record;
    record.request.dataset = trace->dataset;
    core::CtBusOptions& options = record.request.options;
    options = core::CtBusOptions();
    std::uint64_t deadline_ms = 0;
    int priority = 0;
    int planner = 0;
    int flags = 0;
    int status = 0;
    bool record_ok =
        t.TakeDouble("offset_seconds", &record.offset_seconds) &&
        t.TakeU64("deadline_ms", &deadline_ms) &&
        t.TakeInt("priority", &priority, 0,
                  static_cast<int>(service::Priority::kSweep)) &&
        t.TakeInt("planner", &planner, 0,
                  static_cast<int>(core::Planner::kVkTsp)) &&
        t.TakeU64("snapshot_version", &record.request.snapshot_version) &&
        t.TakeInt("k", &options.k) && t.TakeDouble("w", &options.w) &&
        t.TakeDouble("tau", &options.tau) &&
        t.TakeInt("max_turns", &options.max_turns) &&
        t.TakeInt("seed_count", &options.seed_count) &&
        t.TakeInt("max_iterations", &options.max_iterations) &&
        ParseEstimatorTokens(&t, "online_estimator",
                             &options.online_estimator) &&
        ParseEstimatorTokens(&t, "precompute_estimator",
                             &options.precompute_estimator) &&
        t.TakeInt("flags", &flags, 0, 255) &&
        t.TakeInt("status", &status, 0,
                  static_cast<int>(ResponseStatus::kError)) &&
        t.TakeHexU64("checksum", &record.response_checksum) &&
        t.ExpectEnd();
    if (record_ok) {
      const char* field = nullptr;
      if (record.offset_seconds < 0.0) {
        record_ok = t.Fail("offset_seconds", "negative");
      } else if (deadline_ms > std::numeric_limits<std::uint32_t>::max()) {
        record_ok = t.Fail("deadline_ms", "above the u32 wire range");
      } else if (const char* reason = RequestOptionsError(options, &field)) {
        record_ok = t.Fail(field, reason);
      } else if (const char* flags_reason =
                     FlagsError(static_cast<std::uint8_t>(flags))) {
        record_ok = t.Fail("flags", flags_reason);
      }
    }
    if (!record_ok) {
      if (error != nullptr) {
        *error = io::LineError(path, line_number, t.error());
      }
      return false;
    }
    record.deadline_ms = static_cast<std::uint32_t>(deadline_ms);
    record.request.priority = static_cast<service::Priority>(priority);
    record.request.planner = static_cast<core::Planner>(planner);
    record.status = static_cast<ResponseStatus>(status);
    UnpackFlags(static_cast<std::uint8_t>(flags), &options);
    trace->records.push_back(std::move(record));
  }
  if (declared_records >= 0 &&
      static_cast<long long>(trace->records.size()) != declared_records) {
    if (error != nullptr) {
      *error = io::LineError(
          path, line_number,
          "header declares " + std::to_string(declared_records) +
              " records but file holds " +
              std::to_string(trace->records.size()));
    }
    return false;
  }
  return true;
}

}  // namespace ctbus::net
