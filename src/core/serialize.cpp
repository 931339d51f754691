#include "core/serialize.hpp"

#include <bit>
#include <cstring>
#include <stdexcept>

#if defined(__x86_64__) && defined(__GNUC__)
#include <immintrin.h>
#endif

namespace fedkemf::core {

void ByteWriter::write_u32(std::uint32_t v) {
  for (int i = 0; i < 4; ++i) buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::write_u64(std::uint64_t v) {
  for (int i = 0; i < 8; ++i) buffer_.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
}

void ByteWriter::write_f32(float v) {
  std::uint32_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  write_u32(bits);
}

void ByteWriter::write_f64(double v) {
  std::uint64_t bits;
  std::memcpy(&bits, &v, sizeof(bits));
  write_u64(bits);
}

void ByteWriter::write_string(const std::string& s) {
  write_u32(static_cast<std::uint32_t>(s.size()));
  buffer_.insert(buffer_.end(), s.begin(), s.end());
}

void ByteWriter::write_bytes(std::span<const std::uint8_t> bytes) {
  buffer_.insert(buffer_.end(), bytes.begin(), bytes.end());
}

void ByteWriter::write_f32_array(std::span<const float> values) {
  const std::size_t offset = buffer_.size();
  buffer_.resize(offset + values.size() * sizeof(float));
  std::memcpy(buffer_.data() + offset, values.data(), values.size() * sizeof(float));
}

void ByteReader::require(std::size_t n) const {
  if (n > bytes_.size() - cursor_) {
    throw std::runtime_error("ByteReader: truncated input (need " + std::to_string(n) +
                             " bytes, have " + std::to_string(bytes_.size() - cursor_) + ")");
  }
}

std::uint8_t ByteReader::read_u8() {
  require(1);
  return bytes_[cursor_++];
}

std::uint32_t ByteReader::read_u32() {
  require(4);
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i) v |= static_cast<std::uint32_t>(bytes_[cursor_++]) << (8 * i);
  return v;
}

std::uint64_t ByteReader::read_u64() {
  require(8);
  std::uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<std::uint64_t>(bytes_[cursor_++]) << (8 * i);
  return v;
}

float ByteReader::read_f32() {
  const std::uint32_t bits = read_u32();
  float v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

double ByteReader::read_f64() {
  const std::uint64_t bits = read_u64();
  double v;
  std::memcpy(&v, &bits, sizeof(v));
  return v;
}

std::string ByteReader::read_string() {
  const std::uint32_t size = read_u32();
  require(size);
  std::string s(reinterpret_cast<const char*>(bytes_.data() + cursor_), size);
  cursor_ += size;
  return s;
}

void ByteReader::read_f32_array(std::span<float> out) {
  require(out.size() * sizeof(float));
  std::memcpy(out.data(), bytes_.data() + cursor_, out.size() * sizeof(float));
  cursor_ += out.size() * sizeof(float);
}

std::span<const std::uint8_t> ByteReader::read_bytes(std::size_t n) {
  require(n);
  const std::span<const std::uint8_t> bytes = bytes_.subspan(cursor_, n);
  cursor_ += n;
  return bytes;
}

void write_tensor(ByteWriter& writer, const Tensor& tensor) {
  writer.write_u8(static_cast<std::uint8_t>(tensor.rank()));
  for (std::size_t axis = 0; axis < tensor.rank(); ++axis) {
    writer.write_u64(tensor.dim(axis));
  }
  writer.write_u64(tensor.numel());
  writer.write_f32_array(tensor.values());
}

Tensor read_tensor(ByteReader& reader) {
  const std::uint8_t rank = reader.read_u8();
  if (rank > Shape::kMaxRank) throw std::runtime_error("read_tensor: bad rank");
  Shape shape;
  {
    std::size_t dims[Shape::kMaxRank] = {};
    for (std::size_t axis = 0; axis < rank; ++axis) {
      dims[axis] = static_cast<std::size_t>(reader.read_u64());
    }
    switch (rank) {
      case 0: shape = Shape{}; break;
      case 1: shape = Shape{dims[0]}; break;
      case 2: shape = Shape{dims[0], dims[1]}; break;
      case 3: shape = Shape{dims[0], dims[1], dims[2]}; break;
      case 4: shape = Shape{dims[0], dims[1], dims[2], dims[3]}; break;
      default: throw std::runtime_error("read_tensor: unsupported rank");
    }
  }
  const std::uint64_t numel = reader.read_u64();
  if (numel != shape.numel()) throw std::runtime_error("read_tensor: numel mismatch");
  Tensor tensor(shape);
  reader.read_f32_array(tensor.values());
  return tensor;
}

std::size_t tensor_wire_size(const Tensor& tensor) {
  return 1 + 8 * tensor.rank() + 8 + 4 * tensor.numel();
}

namespace {

// Slicing-by-8: eight derived tables let the loop fold 8 input bytes per
// iteration (~6x the byte-at-a-time rate).  This is the portable path and
// the sub-64-byte tail of the PCLMUL path below; table 0 is the classic
// byte-wise table, so every path produces bit-identical CRCs.
struct Crc32Tables {
  std::uint32_t entries[8][256];
  constexpr Crc32Tables() : entries() {
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int bit = 0; bit < 8; ++bit) {
        c = (c & 1) ? 0xEDB88320u ^ (c >> 1) : (c >> 1);
      }
      entries[0][i] = c;
    }
    for (std::size_t table = 1; table < 8; ++table) {
      for (std::uint32_t i = 0; i < 256; ++i) {
        const std::uint32_t prev = entries[table - 1][i];
        entries[table][i] = entries[0][prev & 0xFFu] ^ (prev >> 8);
      }
    }
  }
};

constexpr Crc32Tables kCrc32Tables;

#if defined(__x86_64__) && defined(__GNUC__)

// PCLMULQDQ folding (the classic carry-less-multiply reduction, using the
// well-known folding constants for the reflected IEEE polynomial).  Four
// 128-bit accumulators fold 64 input bytes per iteration, then collapse
// through a 16-byte loop and a Barrett reduction — ~20 GB/s vs ~2 GB/s for
// slicing-by-8.  Takes and returns the *raw* (pre-final-xor) CRC register;
// consumes the longest multiple-of-16 prefix (caller guarantees >= 64 bytes)
// and reports it through `consumed` so the table path can finish the tail.
__attribute__((target("pclmul,sse4.1"))) std::uint32_t crc32_fold_pclmul(
    std::uint32_t crc, const std::uint8_t* buf, std::size_t len, std::size_t* consumed) {
  alignas(16) static const std::uint64_t k1k2[2] = {0x0154442bd4, 0x01c6e41596};
  alignas(16) static const std::uint64_t k3k4[2] = {0x01751997d0, 0x00ccaa009e};
  alignas(16) static const std::uint64_t k5k0[2] = {0x0163cd6124, 0x0000000000};
  alignas(16) static const std::uint64_t poly[2] = {0x01db710641, 0x01f7011641};
  const std::size_t total = len;
  __m128i x0 = _mm_load_si128(reinterpret_cast<const __m128i*>(k1k2));
  __m128i x1 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0));
  __m128i x2 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 16));
  __m128i x3 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 32));
  __m128i x4 = _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 48));
  x1 = _mm_xor_si128(x1, _mm_cvtsi32_si128(static_cast<int>(crc)));
  buf += 64;
  len -= 64;
  while (len >= 64) {
    __m128i x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    __m128i x6 = _mm_clmulepi64_si128(x2, x0, 0x00);
    __m128i x7 = _mm_clmulepi64_si128(x3, x0, 0x00);
    __m128i x8 = _mm_clmulepi64_si128(x4, x0, 0x00);
    x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
    x2 = _mm_clmulepi64_si128(x2, x0, 0x11);
    x3 = _mm_clmulepi64_si128(x3, x0, 0x11);
    x4 = _mm_clmulepi64_si128(x4, x0, 0x11);
    x1 = _mm_xor_si128(x1, x5);
    x2 = _mm_xor_si128(x2, x6);
    x3 = _mm_xor_si128(x3, x7);
    x4 = _mm_xor_si128(x4, x8);
    x1 = _mm_xor_si128(x1, _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 0)));
    x2 = _mm_xor_si128(x2, _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 16)));
    x3 = _mm_xor_si128(x3, _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 32)));
    x4 = _mm_xor_si128(x4, _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf + 48)));
    buf += 64;
    len -= 64;
  }
  x0 = _mm_load_si128(reinterpret_cast<const __m128i*>(k3k4));
  __m128i x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(x1, x2);
  x1 = _mm_xor_si128(x1, x5);
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(x1, x3);
  x1 = _mm_xor_si128(x1, x5);
  x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
  x1 = _mm_xor_si128(x1, x4);
  x1 = _mm_xor_si128(x1, x5);
  while (len >= 16) {
    x5 = _mm_clmulepi64_si128(x1, x0, 0x00);
    x1 = _mm_clmulepi64_si128(x1, x0, 0x11);
    x1 = _mm_xor_si128(x1, _mm_loadu_si128(reinterpret_cast<const __m128i*>(buf)));
    x1 = _mm_xor_si128(x1, x5);
    buf += 16;
    len -= 16;
  }
  // Fold the 128-bit accumulator to 64 bits, then Barrett-reduce to 32.
  const __m128i mask = _mm_setr_epi32(~0, 0, ~0, 0);
  x2 = _mm_clmulepi64_si128(x1, x0, 0x10);
  x1 = _mm_srli_si128(x1, 8);
  x1 = _mm_xor_si128(x1, x2);
  x0 = _mm_loadl_epi64(reinterpret_cast<const __m128i*>(k5k0));
  x2 = _mm_srli_si128(x1, 4);
  x1 = _mm_and_si128(x1, mask);
  x1 = _mm_clmulepi64_si128(x1, x0, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  x0 = _mm_load_si128(reinterpret_cast<const __m128i*>(poly));
  x2 = _mm_and_si128(x1, mask);
  x2 = _mm_clmulepi64_si128(x2, x0, 0x10);
  x2 = _mm_and_si128(x2, mask);
  x2 = _mm_clmulepi64_si128(x2, x0, 0x00);
  x1 = _mm_xor_si128(x1, x2);
  *consumed = total - len;
  return static_cast<std::uint32_t>(_mm_extract_epi32(x1, 1));
}

bool crc32_pclmul_available() {
  static const bool available =
      __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
  return available;
}

#endif  // defined(__x86_64__) && defined(__GNUC__)

}  // namespace

std::uint32_t crc32(std::span<const std::uint8_t> data, std::uint32_t crc) {
  const auto& t = kCrc32Tables.entries;
  std::uint32_t c = crc ^ 0xFFFFFFFFu;
  const std::uint8_t* p = data.data();
  std::size_t n = data.size();
#if defined(__x86_64__) && defined(__GNUC__)
  if (n >= 64 && crc32_pclmul_available()) {
    std::size_t consumed = 0;
    c = crc32_fold_pclmul(c, p, n, &consumed);
    p += consumed;
    n -= consumed;
  }
#endif
  if constexpr (std::endian::native == std::endian::little) {
    while (n >= 8) {
      std::uint32_t lo;
      std::uint32_t hi;
      std::memcpy(&lo, p, 4);
      std::memcpy(&hi, p + 4, 4);
      c ^= lo;
      c = t[7][c & 0xFFu] ^ t[6][(c >> 8) & 0xFFu] ^ t[5][(c >> 16) & 0xFFu] ^
          t[4][c >> 24] ^ t[3][hi & 0xFFu] ^ t[2][(hi >> 8) & 0xFFu] ^
          t[1][(hi >> 16) & 0xFFu] ^ t[0][hi >> 24];
      p += 8;
      n -= 8;
    }
  }
  for (; n > 0; ++p, --n) {
    c = t[0][(c ^ *p) & 0xFFu] ^ (c >> 8);
  }
  return c ^ 0xFFFFFFFFu;
}

}  // namespace fedkemf::core
