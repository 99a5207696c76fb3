#include "io/bytes.h"

#include <cmath>
#include <cstring>
#include <utility>

namespace ctbus::io {

std::uint32_t Fnv1a32(const std::uint8_t* data, std::size_t size) {
  std::uint32_t hash = 0x811c9dc5u;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x01000193u;
  }
  return hash;
}

std::uint64_t Fnv1a64(const std::uint8_t* data, std::size_t size) {
  std::uint64_t hash = 0xcbf29ce484222325ull;
  for (std::size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

void AppendU8(std::vector<std::uint8_t>* out, std::uint8_t v) {
  out->push_back(v);
}

void AppendU16(std::vector<std::uint8_t>* out, std::uint16_t v) {
  out->push_back(static_cast<std::uint8_t>(v & 0xff));
  out->push_back(static_cast<std::uint8_t>(v >> 8));
}

void AppendU32(std::vector<std::uint8_t>* out, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) {
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void AppendU64(std::vector<std::uint8_t>* out, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    out->push_back(static_cast<std::uint8_t>(v >> (8 * i)));
  }
}

void AppendI32(std::vector<std::uint8_t>* out, std::int32_t v) {
  AppendU32(out, static_cast<std::uint32_t>(v));
}

void AppendI64(std::vector<std::uint8_t>* out, std::int64_t v) {
  AppendU64(out, static_cast<std::uint64_t>(v));
}

void AppendF64(std::vector<std::uint8_t>* out, double v) {
  std::uint64_t bits = 0;
  static_assert(sizeof(bits) == sizeof(v), "double must be 64-bit");
  std::memcpy(&bits, &v, sizeof(bits));
  AppendU64(out, bits);
}

void AppendString(std::vector<std::uint8_t>* out, const std::string& s) {
  AppendU16(out, static_cast<std::uint16_t>(s.size()));
  out->insert(out->end(), s.begin(), s.end());
}

void AppendIntList(std::vector<std::uint8_t>* out,
                   const std::vector<int>& values) {
  AppendU32(out, static_cast<std::uint32_t>(values.size()));
  for (int v : values) AppendI32(out, static_cast<std::int32_t>(v));
}

ByteReader::ByteReader(const std::uint8_t* data, std::size_t size,
                       std::string prefix)
    : data_(data), size_(size), prefix_(std::move(prefix)) {}

bool ByteReader::ReadU8(const char* field, std::uint8_t* out) {
  if (!Require(field, 1)) return false;
  *out = data_[offset_++];
  return true;
}

bool ByteReader::ReadU16(const char* field, std::uint16_t* out) {
  if (!Require(field, 2)) return false;
  *out = static_cast<std::uint16_t>(data_[offset_] |
                                    (data_[offset_ + 1] << 8));
  offset_ += 2;
  return true;
}

bool ByteReader::ReadU32(const char* field, std::uint32_t* out) {
  if (!Require(field, 4)) return false;
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) {
    v |= static_cast<std::uint32_t>(data_[offset_ + i]) << (8 * i);
  }
  offset_ += 4;
  *out = v;
  return true;
}

bool ByteReader::ReadU64(const char* field, std::uint64_t* out) {
  if (!Require(field, 8)) return false;
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) {
    v |= static_cast<std::uint64_t>(data_[offset_ + i]) << (8 * i);
  }
  offset_ += 8;
  *out = v;
  return true;
}

bool ByteReader::ReadI32(const char* field, std::int32_t* out) {
  std::uint32_t raw = 0;
  if (!ReadU32(field, &raw)) return false;
  *out = static_cast<std::int32_t>(raw);
  return true;
}

bool ByteReader::ReadI64(const char* field, std::int64_t* out) {
  std::uint64_t raw = 0;
  if (!ReadU64(field, &raw)) return false;
  *out = static_cast<std::int64_t>(raw);
  return true;
}

bool ByteReader::ReadF64(const char* field, double* out) {
  std::uint64_t bits = 0;
  if (!ReadU64(field, &bits)) return false;
  std::memcpy(out, &bits, sizeof(*out));
  return true;
}

bool ByteReader::ReadFiniteF64(const char* field, double* out) {
  if (!ReadF64(field, out)) return false;
  if (!std::isfinite(*out)) return Fail(field, "non-finite value");
  return true;
}

bool ByteReader::ReadBool(const char* field, bool* out) {
  std::uint8_t v = 0;
  if (!ReadU8(field, &v)) return false;
  if (v > 1) return Fail(field, "flag byte not 0 or 1");
  *out = v != 0;
  return true;
}

bool ByteReader::ReadString(const char* field, std::size_t max_bytes,
                            std::string* out) {
  std::uint16_t length = 0;
  if (!ReadU16(field, &length)) return false;
  if (length > max_bytes) return Fail(field, "length above bound");
  if (!Require(field, length)) return false;
  out->assign(reinterpret_cast<const char*>(data_ + offset_), length);
  offset_ += length;
  return true;
}

bool ByteReader::ReadCount(const char* field, std::size_t element_bytes,
                           std::uint32_t* out) {
  if (!ReadU32(field, out)) return false;
  return Require(field, static_cast<std::size_t>(*out) * element_bytes);
}

bool ByteReader::ReadIntList(const char* field, std::vector<int>* out,
                             std::size_t max_elements) {
  std::uint32_t count = 0;
  if (!ReadU32(field, &count)) return false;
  if (count > max_elements) return Fail(field, "element count above bound");
  if (!Require(field, static_cast<std::size_t>(count) * 4)) return false;
  out->clear();
  out->reserve(count);
  for (std::uint32_t i = 0; i < count; ++i) {
    std::int32_t v = 0;
    ReadI32(field, &v);
    out->push_back(static_cast<int>(v));
  }
  return ok();
}

bool ByteReader::ExpectEnd() {
  if (!ok()) return false;
  if (offset_ != size_) {
    return Fail("payload", "trailing bytes after last field");
  }
  return true;
}

bool ByteReader::Fail(const char* field, const std::string& reason) {
  if (error_.empty()) {
    error_ = prefix_ + "field " + field + " at offset " +
             std::to_string(offset_) + ": " + reason;
  }
  return false;
}

bool ByteReader::Require(const char* field, std::size_t bytes) {
  if (!ok()) return false;
  if (size_ - offset_ < bytes) return Fail(field, "truncated payload");
  return true;
}

}  // namespace ctbus::io
