#pragma once

// Binary (de)serialization.
//
// The communication substrate marshals every model exchanged between server
// and clients through these writers so traffic is *measured*, not assumed.
// Format: little-endian, length-prefixed; whole records carry the framed
// header of core/record.hpp.  Floats are bit-copied (IEEE-754 assumed,
// statically checked).

#include <cstdint>
#include <cstring>
#include <span>
#include <string>
#include <vector>

#include "core/tensor.hpp"

namespace fedkemf::core {

static_assert(sizeof(float) == 4, "fedkemf requires 32-bit IEEE floats");

class ByteWriter {
 public:
  void reserve(std::size_t bytes) { buffer_.reserve(bytes); }
  void write_u8(std::uint8_t v) { buffer_.push_back(v); }
  void write_u32(std::uint32_t v);
  void write_u64(std::uint64_t v);
  void write_f32(float v);
  void write_f64(double v);
  void write_string(const std::string& s);
  void write_bytes(std::span<const std::uint8_t> bytes);
  void write_f32_array(std::span<const float> values);

  const std::vector<std::uint8_t>& buffer() const { return buffer_; }
  std::vector<std::uint8_t> take() { return std::move(buffer_); }
  std::size_t size() const { return buffer_.size(); }

 private:
  std::vector<std::uint8_t> buffer_;
};

/// Throws std::runtime_error on truncated/over-long input.
class ByteReader {
 public:
  explicit ByteReader(std::span<const std::uint8_t> bytes) : bytes_(bytes) {}

  std::uint8_t read_u8();
  std::uint32_t read_u32();
  std::uint64_t read_u64();
  float read_f32();
  double read_f64();
  std::string read_string();
  void read_f32_array(std::span<float> out);
  /// The next `n` bytes, as a view into the input.
  std::span<const std::uint8_t> read_bytes(std::size_t n);

  std::size_t remaining() const { return bytes_.size() - cursor_; }
  bool exhausted() const { return remaining() == 0; }

  /// Byte offset of the next read — used to report *where* a malformed
  /// payload went wrong.
  std::size_t position() const { return cursor_; }

 private:
  void require(std::size_t n) const;

  std::span<const std::uint8_t> bytes_;
  std::size_t cursor_ = 0;
};

/// Serializes shape + payload (9 + 8*rank + 4*numel bytes).
void write_tensor(ByteWriter& writer, const Tensor& tensor);

/// Deserializes a tensor written by write_tensor.
Tensor read_tensor(ByteReader& reader);

/// Number of bytes write_tensor will produce for `tensor`.
std::size_t tensor_wire_size(const Tensor& tensor);

/// CRC-32 (IEEE 802.3 / zlib polynomial, reflected) of `data`, continuing
/// from `crc` so checksums can be computed incrementally over chunks:
/// crc32(ab) == crc32(b, crc32(a)).  Every framed record (core/record.hpp)
/// carries this checksum so corrupted payloads are *detected* rather than
/// silently deserialized.
std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t crc = 0);

}  // namespace fedkemf::core
