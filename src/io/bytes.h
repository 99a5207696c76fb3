// The little-endian byte codec under every binary format in the tree:
// wire frames (net/frame.h) and CTBS snapshots (io/snapshot.h). Writers
// append fixed-width integers, doubles as exact IEEE-754 bit patterns,
// strings as u16 length + bytes, and int lists as u32 count + i32s.
//
// ByteReader is the strict cursor every decoder reads through: each
// Read* checks the remaining bytes first, counts are checked against
// their bound and the bytes present BEFORE the caller allocates, and the
// first failure is recorded as "<prefix>field <name> at offset <n>:
// <reason>". Every later read fails too, so call sites chain reads and
// check once. Nothing throws and no read runs past the buffer.
#ifndef CTBUS_IO_BYTES_H_
#define CTBUS_IO_BYTES_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace ctbus::io {

/// Standard FNV-1a: an integrity check against corruption, not crypto.
std::uint32_t Fnv1a32(const std::uint8_t* data, std::size_t size);
std::uint64_t Fnv1a64(const std::uint8_t* data, std::size_t size);

void AppendU8(std::vector<std::uint8_t>* out, std::uint8_t v);
void AppendU16(std::vector<std::uint8_t>* out, std::uint16_t v);
void AppendU32(std::vector<std::uint8_t>* out, std::uint32_t v);
void AppendU64(std::vector<std::uint8_t>* out, std::uint64_t v);
void AppendI32(std::vector<std::uint8_t>* out, std::int32_t v);
void AppendI64(std::vector<std::uint8_t>* out, std::int64_t v);
void AppendF64(std::vector<std::uint8_t>* out, double v);
/// u16 length + bytes; callers bound `s` below 64 KiB.
void AppendString(std::vector<std::uint8_t>* out, const std::string& s);
/// u32 count + one i32 per element.
void AppendIntList(std::vector<std::uint8_t>* out,
                   const std::vector<int>& values);

class ByteReader {
 public:
  /// `prefix` is prepended to every diagnostic (e.g. "section ROAD: ").
  ByteReader(const std::uint8_t* data, std::size_t size,
             std::string prefix = "");

  bool ok() const { return error_.empty(); }
  const std::string& error() const { return error_; }

  bool ReadU8(const char* field, std::uint8_t* out);
  bool ReadU16(const char* field, std::uint16_t* out);
  bool ReadU32(const char* field, std::uint32_t* out);
  bool ReadU64(const char* field, std::uint64_t* out);
  bool ReadI32(const char* field, std::int32_t* out);
  bool ReadI64(const char* field, std::int64_t* out);
  bool ReadF64(const char* field, double* out);
  /// Rejects NaN/Inf, which must never reach the planner.
  bool ReadFiniteF64(const char* field, double* out);
  /// One byte that must be 0 or 1.
  bool ReadBool(const char* field, bool* out);
  /// u16 length (at most `max_bytes`) + bytes.
  bool ReadString(const char* field, std::size_t max_bytes, std::string* out);
  /// A u32 count of `element_bytes`-sized elements, failing unless the
  /// buffer still holds count * element_bytes bytes.
  bool ReadCount(const char* field, std::size_t element_bytes,
                 std::uint32_t* out);
  /// u32 count + i32 elements. The count is checked against
  /// `max_elements` first, then against the bytes present.
  bool ReadIntList(const char* field, std::vector<int>* out,
                   std::size_t max_elements = UINT32_MAX);

  /// Fails on trailing bytes (a framing bug, or smuggled data).
  bool ExpectEnd();

  /// Records "<prefix>field <field> at offset <n>: <reason>" unless an
  /// earlier failure is already recorded. Always returns false.
  bool Fail(const char* field, const std::string& reason);

 private:
  bool Require(const char* field, std::size_t bytes);

  const std::uint8_t* data_;
  std::size_t size_;
  std::string prefix_;
  std::size_t offset_ = 0;
  std::string error_;
};

}  // namespace ctbus::io

#endif  // CTBUS_IO_BYTES_H_
