// Codec tests: fp16 scalar conversion against known bit patterns, model
// round trips under every codec, size accounting, quantization error bounds,
// and file checkpointing.

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <vector>

#include <gtest/gtest.h>

#include "comm/compression.hpp"
#include "comm/model_io.hpp"
#include "core/rng.hpp"
#include "core/serialize.hpp"
#include "models/zoo.hpp"
#include "nn/linear.hpp"

namespace fedkemf::comm {
namespace {

using core::Rng;
using core::Shape;
using core::Tensor;

TEST(HalfPrecision, KnownBitPatterns) {
  EXPECT_EQ(float_to_half(0.0f), 0x0000);
  EXPECT_EQ(float_to_half(-0.0f), 0x8000);
  EXPECT_EQ(float_to_half(1.0f), 0x3C00);
  EXPECT_EQ(float_to_half(-2.0f), 0xC000);
  EXPECT_EQ(float_to_half(0.5f), 0x3800);
  EXPECT_EQ(float_to_half(65504.0f), 0x7BFF);  // max finite half
  EXPECT_EQ(float_to_half(1e6f), 0x7C00);      // overflow -> +inf
  EXPECT_EQ(float_to_half(std::numeric_limits<float>::infinity()), 0x7C00);
  EXPECT_NE(float_to_half(std::nanf("")) & 0x3FF, 0);  // NaN keeps payload bit
}

TEST(HalfPrecision, RoundTripWithinHalfUlp) {
  Rng rng(1);
  for (int i = 0; i < 10000; ++i) {
    const float v = static_cast<float>(rng.normal(0.0, 2.0));
    const float back = half_to_float(float_to_half(v));
    // Half has 11 significand bits: relative error <= 2^-11.
    EXPECT_NEAR(back, v, std::fabs(v) * 0x1.0p-10 + 1e-7f) << v;
  }
}

TEST(HalfPrecision, SubnormalsSurvive) {
  const float tiny = 1e-5f;  // below half's normal range (min normal ~6.1e-5)
  const float back = half_to_float(float_to_half(tiny));
  EXPECT_NEAR(back, tiny, tiny * 0.1f);
}

TEST(HalfPrecision, ExhaustiveHalfToFloatToHalf) {
  // Every finite half value must survive half->float->half exactly.
  for (std::uint32_t bits = 0; bits < 0x10000; ++bits) {
    const std::uint16_t h = static_cast<std::uint16_t>(bits);
    if ((h & 0x7C00) == 0x7C00) continue;  // skip inf/nan
    ASSERT_EQ(float_to_half(half_to_float(h)), h) << std::hex << bits;
  }
}

std::unique_ptr<nn::Module> test_model(std::uint64_t seed) {
  Rng rng(seed);
  return models::build_model(
      models::ModelSpec{.arch = "resnet20", .num_classes = 10, .in_channels = 3,
                        .image_size = 8, .width_multiplier = 0.25},
      rng);
}

TEST(ModelCodec, Fp32RoundTripIsExact) {
  auto src = test_model(2);
  auto dst = test_model(3);
  const auto payload = encode_model(*src, Codec::kFp32);
  EXPECT_EQ(payload.size(), encoded_model_size(*src, Codec::kFp32));
  decode_model(payload, *dst);
  const auto ps = src->parameters();
  const auto pd = dst->parameters();
  for (std::size_t i = 0; i < ps.size(); ++i) {
    for (std::size_t j = 0; j < ps[i]->value.numel(); ++j) {
      ASSERT_EQ(pd[i]->value[j], ps[i]->value[j]);
    }
  }
}

class ModelCodecParam : public ::testing::TestWithParam<Codec> {};

TEST_P(ModelCodecParam, RoundTripPreservesValuesWithinCodecError) {
  const Codec codec = GetParam();
  auto src = test_model(4);
  auto dst = test_model(5);
  const auto payload = encode_model(*src, codec);
  EXPECT_EQ(payload.size(), encoded_model_size(*src, codec));
  decode_model(payload, *dst);
  const auto ps = src->parameters();
  const auto pd = dst->parameters();
  for (std::size_t i = 0; i < ps.size(); ++i) {
    const float absmax = ps[i]->value.abs_max();
    const float tolerance = codec == Codec::kFp32 ? 0.0f
                            : codec == Codec::kFp16
                                ? absmax * 0x1.0p-10f + 1e-6f
                                : absmax / 127.0f + 1e-6f;  // int8: half a step + rounding
    for (std::size_t j = 0; j < ps[i]->value.numel(); ++j) {
      ASSERT_NEAR(pd[i]->value[j], ps[i]->value[j], tolerance)
          << to_string(codec) << " param " << i << " entry " << j;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Codecs, ModelCodecParam,
                         ::testing::Values(Codec::kFp32, Codec::kFp16, Codec::kInt8));

TEST(ModelCodec, SizeRatios) {
  auto model = test_model(6);
  const std::size_t fp32 = encoded_model_size(*model, Codec::kFp32);
  const std::size_t fp16 = encoded_model_size(*model, Codec::kFp16);
  const std::size_t int8 = encoded_model_size(*model, Codec::kInt8);
  // Headers shift the exact 2x/4x slightly; bound generously.
  EXPECT_LT(static_cast<double>(fp16) / static_cast<double>(fp32), 0.56);
  EXPECT_LT(static_cast<double>(int8) / static_cast<double>(fp32), 0.32);
}

TEST(ModelCodec, QuantizedModelStillPredicts) {
  // int8 quantization must not destroy the function: logits of the original
  // and the round-tripped model should correlate strongly.
  auto src = test_model(7);
  auto dst = test_model(8);
  decode_model(encode_model(*src, Codec::kInt8), *dst);
  src->set_training(false);
  dst->set_training(false);
  Rng rng(9);
  Tensor x = Tensor::normal(Shape::nchw(4, 3, 8, 8), rng);
  Tensor a = src->forward(x);
  Tensor b = dst->forward(x);
  double dot = 0.0;
  double na = 0.0;
  double nb = 0.0;
  for (std::size_t i = 0; i < a.numel(); ++i) {
    dot += static_cast<double>(a[i]) * b[i];
    na += static_cast<double>(a[i]) * a[i];
    nb += static_cast<double>(b[i]) * b[i];
  }
  EXPECT_GT(dot / std::sqrt(na * nb), 0.98);
}

TEST(ModelCodec, RejectsCorruptPayloads) {
  auto model = test_model(10);
  auto payload = encode_model(*model, Codec::kFp16);
  payload[0] ^= 0xFF;  // magic
  EXPECT_THROW(decode_model(payload, *model), std::runtime_error);

  // v2 layout: magic, version, CRC32 over bytes [12, end), codec byte at 12.
  // Re-seal the CRC so the decoder gets past the checksum to the codec check.
  payload = encode_model(*model, Codec::kFp16);
  payload[12] = 99;
  const std::uint32_t crc = core::crc32(std::span<const std::uint8_t>(payload).subspan(12));
  for (int i = 0; i < 4; ++i) payload[8 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  try {
    decode_model(payload, *model);
    ADD_FAILURE() << "a payload with an unknown codec decoded";
  } catch (const std::runtime_error& error) {
    EXPECT_STREQ(error.what(), "decode_model: unknown codec");
  }

  payload = encode_model(*model, Codec::kFp16);
  payload.pop_back();  // truncate
  EXPECT_THROW(decode_model(payload, *model), std::runtime_error);
}

TEST(ModelCodec, ZeroTensorInt8IsStable) {
  Rng rng(11);
  nn::Sequential net;
  net.emplace<nn::Linear>(4, 3, rng);
  net.parameters()[0]->value.fill(0.0f);  // absmax = 0 -> scale 0 path
  nn::Sequential dst;
  dst.emplace<nn::Linear>(4, 3, rng);
  decode_model(encode_model(net, Codec::kInt8), dst);
  EXPECT_EQ(dst.parameters()[0]->value.abs_max(), 0.0f);
}

TEST(ModelIo, SaveLoadRoundTrip) {
  auto src = test_model(12);
  auto dst = test_model(13);
  const std::string path = ::testing::TempDir() + "/fedkemf_ckpt.bin";
  save_model(*src, path, Codec::kFp32);
  load_model(path, *dst);
  const auto ps = src->parameters();
  const auto pd = dst->parameters();
  for (std::size_t i = 0; i < ps.size(); ++i) {
    ASSERT_EQ(pd[i]->value[0], ps[i]->value[0]);
  }
  std::remove(path.c_str());
}

TEST(ModelIo, SaveLoadCompressed) {
  auto src = test_model(14);
  auto dst = test_model(15);
  const std::string path = ::testing::TempDir() + "/fedkemf_ckpt_int8.bin";
  save_model(*src, path, Codec::kInt8);
  load_model(path, *dst);  // codec auto-detected from the header
  EXPECT_NEAR(dst->parameters()[0]->value[0], src->parameters()[0]->value[0],
              src->parameters()[0]->value.abs_max() / 100.0f);
  std::remove(path.c_str());
}

TEST(ModelIo, MissingFileThrows) {
  auto model = test_model(16);
  EXPECT_THROW(load_model("/nonexistent/path/x.bin", *model), std::runtime_error);
  EXPECT_THROW(save_model(*model, "/nonexistent/path/x.bin"), std::runtime_error);
}

TEST(ModelIo, SaveOverwritesStaleTempFileAndLeavesNoneBehind) {
  auto src = test_model(17);
  auto dst = test_model(18);
  const std::string path = ::testing::TempDir() + "/fedkemf_ckpt_atomic.bin";
  const std::string tmp_path = path + ".tmp";
  {
    // A leftover .tmp from an earlier crash must be harmlessly overwritten.
    std::ofstream garbage(tmp_path, std::ios::binary);
    garbage << "not a checkpoint";
  }
  save_model(*src, path, Codec::kFp32);
  // The staging file was renamed away, and the checkpoint loads cleanly.
  std::ifstream stale(tmp_path);
  EXPECT_FALSE(stale.good());
  load_model(path, *dst);
  ASSERT_EQ(dst->parameters()[0]->value[0], src->parameters()[0]->value[0]);
  std::remove(path.c_str());
}

TEST(ModelIo, TruncatedCheckpointReportsClearError) {
  auto src = test_model(19);
  const std::string path = ::testing::TempDir() + "/fedkemf_ckpt_trunc.bin";
  save_model(*src, path, Codec::kFp32);
  // Truncate to half the payload, as an interrupted copy would.
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  const std::streamsize full = in.tellg();
  in.seekg(0);
  std::vector<char> bytes(static_cast<std::size_t>(full / 2));
  in.read(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  in.close();
  {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }
  try {
    load_model(path, *src);
    FAIL() << "load_model accepted a truncated checkpoint";
  } catch (const std::runtime_error& error) {
    EXPECT_NE(std::string(error.what()).find("corrupt or truncated"),
              std::string::npos)
        << error.what();
    EXPECT_NE(std::string(error.what()).find(path), std::string::npos);
  }
  std::remove(path.c_str());
}

}  // namespace
}  // namespace fedkemf::comm
