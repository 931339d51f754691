#include "comm/compression.hpp"

#include <cmath>
#include <cstring>
#include <stdexcept>

#include "comm/channel.hpp"  // ChecksumError
#include "core/record.hpp"

namespace fedkemf::comm {
namespace {

/// Version 2; every header or CRC failure is a ChecksumError.
constexpr core::RecordFormat kCompressedRecord{"compressed model", kCompressedMagic, 2, 0,
                                               core::throw_error<ChecksumError>};

void write_tensor_header(core::ByteWriter& writer, const core::Tensor& tensor) {
  writer.write_u8(static_cast<std::uint8_t>(tensor.rank()));
  for (std::size_t axis = 0; axis < tensor.rank(); ++axis) writer.write_u64(tensor.dim(axis));
  writer.write_u64(tensor.numel());
}

core::Shape read_tensor_header(core::ByteReader& reader, std::size_t* numel_out) {
  const std::uint8_t rank = reader.read_u8();
  if (rank > core::Shape::kMaxRank) throw std::runtime_error("decode_model: bad rank");
  std::size_t dims[core::Shape::kMaxRank] = {};
  for (std::size_t axis = 0; axis < rank; ++axis) {
    dims[axis] = static_cast<std::size_t>(reader.read_u64());
  }
  core::Shape shape;
  switch (rank) {
    case 0: shape = core::Shape{}; break;
    case 1: shape = core::Shape{dims[0]}; break;
    case 2: shape = core::Shape{dims[0], dims[1]}; break;
    case 3: shape = core::Shape{dims[0], dims[1], dims[2]}; break;
    case 4: shape = core::Shape{dims[0], dims[1], dims[2], dims[3]}; break;
    default: throw std::runtime_error("decode_model: unsupported rank");
  }
  const std::uint64_t numel = reader.read_u64();
  if (numel != shape.numel()) throw std::runtime_error("decode_model: numel mismatch");
  *numel_out = static_cast<std::size_t>(numel);
  return shape;
}

void encode_tensor(core::ByteWriter& writer, const core::Tensor& tensor, Codec codec) {
  write_tensor_header(writer, tensor);
  switch (codec) {
    case Codec::kFp32:
      writer.write_f32_array(tensor.values());
      break;
    case Codec::kFp16:
      for (float v : tensor.values()) {
        const std::uint16_t bits = float_to_half(v);
        writer.write_u8(static_cast<std::uint8_t>(bits & 0xFF));
        writer.write_u8(static_cast<std::uint8_t>(bits >> 8));
      }
      break;
    case Codec::kInt8: {
      const float scale = tensor.abs_max() / 127.0f;
      writer.write_f32(scale);
      const float inv = scale > 0.0f ? 1.0f / scale : 0.0f;
      for (float v : tensor.values()) {
        const long q = std::lroundf(v * inv);
        const long clamped = q < -127 ? -127 : (q > 127 ? 127 : q);
        writer.write_u8(static_cast<std::uint8_t>(static_cast<std::int8_t>(clamped)));
      }
      break;
    }
  }
}

core::Tensor decode_tensor(core::ByteReader& reader, Codec codec) {
  std::size_t numel = 0;
  const core::Shape shape = read_tensor_header(reader, &numel);
  core::Tensor tensor(shape);
  switch (codec) {
    case Codec::kFp32:
      reader.read_f32_array(tensor.values());
      break;
    case Codec::kFp16:
      for (std::size_t i = 0; i < numel; ++i) {
        const std::uint16_t lo = reader.read_u8();
        const std::uint16_t hi = reader.read_u8();
        tensor[i] = half_to_float(static_cast<std::uint16_t>(lo | (hi << 8)));
      }
      break;
    case Codec::kInt8: {
      const float scale = reader.read_f32();
      for (std::size_t i = 0; i < numel; ++i) {
        tensor[i] = static_cast<float>(static_cast<std::int8_t>(reader.read_u8())) * scale;
      }
      break;
    }
  }
  return tensor;
}

std::size_t tensor_encoded_size(const core::Tensor& tensor, Codec codec) {
  const std::size_t header = 1 + 8 * tensor.rank() + 8;
  switch (codec) {
    case Codec::kFp32: return header + 4 * tensor.numel();
    case Codec::kFp16: return header + 2 * tensor.numel();
    case Codec::kInt8: return header + 4 + tensor.numel();
  }
  throw std::logic_error("tensor_encoded_size: unknown codec");
}

}  // namespace

std::string to_string(Codec codec) {
  switch (codec) {
    case Codec::kFp32: return "fp32";
    case Codec::kFp16: return "fp16";
    case Codec::kInt8: return "int8";
  }
  return "unknown";
}

std::uint16_t float_to_half(float value) {
  std::uint32_t bits;
  std::memcpy(&bits, &value, sizeof(bits));
  const std::uint32_t sign = (bits >> 16) & 0x8000;
  const std::int32_t exponent = static_cast<std::int32_t>((bits >> 23) & 0xFF) - 127 + 15;
  std::uint32_t mantissa = bits & 0x7FFFFF;

  if (((bits >> 23) & 0xFF) == 0xFF) {
    // Inf / NaN.
    return static_cast<std::uint16_t>(sign | 0x7C00 | (mantissa != 0 ? 0x200 : 0));
  }
  if (exponent >= 0x1F) {
    return static_cast<std::uint16_t>(sign | 0x7C00);  // overflow -> inf
  }
  if (exponent <= 0) {
    if (exponent < -10) return static_cast<std::uint16_t>(sign);  // underflow -> 0
    // Subnormal half: shift mantissa (with implicit leading 1).
    mantissa |= 0x800000;
    const int shift = 14 - exponent;
    std::uint32_t sub = mantissa >> shift;
    // Round to nearest.
    if ((mantissa >> (shift - 1)) & 1) ++sub;
    return static_cast<std::uint16_t>(sign | sub);
  }
  // Normal: round mantissa to 10 bits (round-to-nearest-even).
  std::uint32_t rounded = mantissa + 0xFFF + ((mantissa >> 13) & 1);
  std::uint32_t exp_out = static_cast<std::uint32_t>(exponent);
  if (rounded & 0x800000) {
    rounded = 0;
    ++exp_out;
    if (exp_out >= 0x1F) return static_cast<std::uint16_t>(sign | 0x7C00);
  }
  return static_cast<std::uint16_t>(sign | (exp_out << 10) | (rounded >> 13));
}

float half_to_float(std::uint16_t half_bits) {
  const std::uint32_t sign = static_cast<std::uint32_t>(half_bits & 0x8000) << 16;
  const std::uint32_t exponent = (half_bits >> 10) & 0x1F;
  const std::uint32_t mantissa = half_bits & 0x3FF;
  std::uint32_t bits;
  if (exponent == 0x1F) {
    bits = sign | 0x7F800000 | (mantissa << 13);  // inf / nan
  } else if (exponent == 0) {
    if (mantissa == 0) {
      bits = sign;  // +-0
    } else {
      // Subnormal half -> normalized float.
      int e = -1;
      std::uint32_t m = mantissa;
      do {
        ++e;
        m <<= 1;
      } while ((m & 0x400) == 0);
      bits = sign | static_cast<std::uint32_t>(127 - 15 - e) << 23 | ((m & 0x3FF) << 13);
    }
  } else {
    bits = sign | ((exponent - 15 + 127) << 23) | (mantissa << 13);
  }
  float value;
  std::memcpy(&value, &bits, sizeof(value));
  return value;
}

std::vector<std::uint8_t> encode_model(nn::Module& model, Codec codec) {
  core::ByteWriter writer = core::begin_record();
  writer.write_u8(static_cast<std::uint8_t>(codec));
  const auto params = model.parameters();
  const auto buffers = model.buffers();
  writer.write_u32(static_cast<std::uint32_t>(params.size() + buffers.size()));
  for (nn::Parameter* p : params) encode_tensor(writer, p->value, codec);
  for (nn::Buffer* b : buffers) encode_tensor(writer, b->value, codec);
  std::vector<std::uint8_t> payload = writer.take();
  core::seal_record(payload, kCompressedMagic, kCompressedRecord.version);
  return payload;
}

void decode_model(std::span<const std::uint8_t> payload, nn::Module& model) {
  core::ByteReader reader(core::open_record(payload, kCompressedRecord));
  const std::uint8_t codec_raw = reader.read_u8();
  if (codec_raw > static_cast<std::uint8_t>(Codec::kInt8)) {
    throw std::runtime_error("decode_model: unknown codec");
  }
  const Codec codec = static_cast<Codec>(codec_raw);
  const std::uint32_t count = reader.read_u32();
  const auto params = model.parameters();
  const auto buffers = model.buffers();
  if (count != params.size() + buffers.size()) {
    throw std::invalid_argument("decode_model: tensor count mismatch");
  }
  for (nn::Parameter* p : params) {
    core::Tensor t = decode_tensor(reader, codec);
    if (t.shape() != p->value.shape()) {
      throw std::invalid_argument("decode_model: parameter shape mismatch");
    }
    p->value = std::move(t);
    p->grad = core::Tensor::zeros(p->value.shape());
  }
  for (nn::Buffer* b : buffers) {
    core::Tensor t = decode_tensor(reader, codec);
    if (t.shape() != b->value.shape()) {
      throw std::invalid_argument("decode_model: buffer shape mismatch");
    }
    b->value = std::move(t);
  }
  if (!reader.exhausted()) throw std::runtime_error("decode_model: trailing bytes");
}

std::size_t encoded_model_size(nn::Module& model, Codec codec) {
  std::size_t total = core::kRecordHeaderBytes + 1 + 4;  // header + codec + count
  for (nn::Parameter* p : model.parameters()) total += tensor_encoded_size(p->value, codec);
  for (nn::Buffer* b : model.buffers()) total += tensor_encoded_size(b->value, codec);
  return total;
}

}  // namespace fedkemf::comm
