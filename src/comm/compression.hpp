#pragma once

// Lossy payload codecs for the model wire format.
//
// The paper's future-work direction is "maximizing the efficiency of
// multi-model fusion on edge devices"; the classic systems lever is payload
// quantization.  Two codecs are provided on top of the fp32 wire format:
//
//   kFp16 — IEEE half precision, 2x smaller, ~1e-3 relative rounding;
//   kInt8 — symmetric per-tensor linear quantization (scale = absmax / 127),
//           4x smaller; adequate for knowledge-network exchange because the
//           ensemble-distillation server consumes *logits*, which are robust
//           to small weight perturbations (ablated in
//           bench_paper --only ablation-compression).
//
// Encoded format: a framed record (core/record.hpp) of version 2,
// [magic u32 = 0xFEDC0DE6][version u32 = 2][crc32 u32][codec u8]
// [tensor_count u32], then per tensor: rank/dims/numel header (as core
// serialize) followed by the codec payload (+ f32 scale for kInt8).  The
// crc32 covers everything after the checksum field, as in the uncompressed
// model wire format.

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "nn/module.hpp"

namespace fedkemf::comm {

enum class Codec : std::uint8_t {
  kFp32 = 0,  ///< lossless; identical to serialize_model's payload semantics
  kFp16 = 1,
  kInt8 = 2,
};

std::string to_string(Codec codec);

inline constexpr std::uint32_t kCompressedMagic = 0xFEDC0DE6;

/// Encodes parameters + buffers of `model` with the given codec.
std::vector<std::uint8_t> encode_model(nn::Module& model, Codec codec);

/// Decodes a payload produced by encode_model into `model` (any codec; the
/// payload is self-describing).  Throws ChecksumError on header and
/// integrity failures, and std::runtime_error / std::invalid_argument on
/// malformed input or architecture mismatch.
void decode_model(std::span<const std::uint8_t> payload, nn::Module& model);

/// Exact encoded size for `model` under `codec`.
std::size_t encoded_model_size(nn::Module& model, Codec codec);

// ---- scalar conversion helpers (exposed for tests) ----

/// Round-to-nearest-even fp32 -> fp16 bit pattern (handles inf/nan/subnormal).
std::uint16_t float_to_half(float value);

/// fp16 bit pattern -> fp32.
float half_to_float(std::uint16_t half_bits);

}  // namespace fedkemf::comm
