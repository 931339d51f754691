// Byte-level serialization tests: primitive round trips, tensor round trips,
// wire-size accounting, and malformed-input rejection.

#include "core/serialize.hpp"

#include <gtest/gtest.h>

#include "core/rng.hpp"

namespace fedkemf::core {
namespace {

TEST(ByteWriter, PrimitiveRoundTrip) {
  ByteWriter writer;
  writer.write_u8(0xAB);
  writer.write_u32(0xDEADBEEF);
  writer.write_u64(0x0123456789ABCDEFULL);
  writer.write_f32(3.14f);
  writer.write_f64(-2.718281828);
  writer.write_string("knowledge");

  ByteReader reader(writer.buffer());
  EXPECT_EQ(reader.read_u8(), 0xAB);
  EXPECT_EQ(reader.read_u32(), 0xDEADBEEF);
  EXPECT_EQ(reader.read_u64(), 0x0123456789ABCDEFULL);
  EXPECT_EQ(reader.read_f32(), 3.14f);
  EXPECT_EQ(reader.read_f64(), -2.718281828);
  EXPECT_EQ(reader.read_string(), "knowledge");
  EXPECT_TRUE(reader.exhausted());
}

TEST(ByteWriter, LittleEndianLayout) {
  ByteWriter writer;
  writer.write_u32(0x01020304);
  const auto& buf = writer.buffer();
  ASSERT_EQ(buf.size(), 4u);
  EXPECT_EQ(buf[0], 0x04);
  EXPECT_EQ(buf[1], 0x03);
  EXPECT_EQ(buf[2], 0x02);
  EXPECT_EQ(buf[3], 0x01);
}

TEST(ByteWriter, F32ArrayBulkCopy) {
  ByteWriter writer;
  const float values[] = {1.0f, -2.0f, 3.5f};
  writer.write_f32_array(values);
  ByteReader reader(writer.buffer());
  float out[3];
  reader.read_f32_array(out);
  EXPECT_EQ(out[0], 1.0f);
  EXPECT_EQ(out[1], -2.0f);
  EXPECT_EQ(out[2], 3.5f);
}

TEST(ByteReader, TruncatedInputThrows) {
  ByteWriter writer;
  writer.write_u32(7);
  ByteReader reader(writer.buffer());
  reader.read_u32();
  EXPECT_THROW(reader.read_u8(), std::runtime_error);
}

TEST(ByteReader, TruncatedStringThrows) {
  ByteWriter writer;
  writer.write_u32(100);  // claims 100 bytes follow; none do
  ByteReader reader(writer.buffer());
  EXPECT_THROW(reader.read_string(), std::runtime_error);
}

TEST(ByteReader, ReadBytesViewsTheInputAndChecksBounds) {
  const std::vector<std::uint8_t> bytes = {1, 2, 3, 4, 5};
  ByteReader reader(bytes);
  reader.read_u8();
  const std::span<const std::uint8_t> view = reader.read_bytes(3);
  EXPECT_EQ(view.data(), bytes.data() + 1);
  EXPECT_EQ(std::vector<std::uint8_t>(view.begin(), view.end()),
            (std::vector<std::uint8_t>{2, 3, 4}));
  EXPECT_THROW(reader.read_bytes(2), std::runtime_error);
  // A length near SIZE_MAX must not wrap the bounds check.
  EXPECT_THROW(reader.read_bytes(~std::size_t{0}), std::runtime_error);
  EXPECT_EQ(reader.read_bytes(1)[0], 5);
  EXPECT_TRUE(reader.exhausted());
}

TEST(TensorSerialize, RoundTripPreservesEverything) {
  Rng rng(9);
  for (const Shape& shape : {Shape{7}, Shape{3, 4}, Shape{2, 3, 4}, Shape{2, 3, 4, 5}}) {
    Tensor original = Tensor::normal(shape, rng);
    ByteWriter writer;
    write_tensor(writer, original);
    EXPECT_EQ(writer.size(), tensor_wire_size(original));

    ByteReader reader(writer.buffer());
    Tensor restored = read_tensor(reader);
    ASSERT_EQ(restored.shape(), original.shape());
    for (std::size_t i = 0; i < original.numel(); ++i) {
      ASSERT_EQ(restored[i], original[i]);  // bit-exact
    }
    EXPECT_TRUE(reader.exhausted());
  }
}

TEST(TensorSerialize, WireSizeFormula) {
  Tensor t = Tensor::zeros(Shape{3, 4});
  // 1 (rank) + 2*8 (dims) + 8 (numel) + 12*4 (payload) = 73.
  EXPECT_EQ(tensor_wire_size(t), 73u);
}

TEST(TensorSerialize, CorruptNumelRejected) {
  Tensor t = Tensor::zeros(Shape{2, 2});
  ByteWriter writer;
  write_tensor(writer, t);
  auto bytes = writer.take();
  bytes[1 + 16] ^= 0xFF;  // flip low byte of numel
  ByteReader reader(bytes);
  EXPECT_THROW(read_tensor(reader), std::runtime_error);
}

TEST(TensorSerialize, BadRankRejected) {
  std::vector<std::uint8_t> bytes = {9};  // rank 9 > kMaxRank
  ByteReader reader(bytes);
  EXPECT_THROW(read_tensor(reader), std::runtime_error);
}

TEST(Crc32, MatchesKnownVector) {
  // The canonical CRC-32 check value: crc32("123456789") == 0xCBF43926.
  const std::uint8_t digits[] = {'1', '2', '3', '4', '5', '6', '7', '8', '9'};
  EXPECT_EQ(crc32(std::span<const std::uint8_t>(digits, 9)), 0xCBF43926u);
}

TEST(Crc32, EmptyInputIsZero) {
  EXPECT_EQ(crc32(std::span<const std::uint8_t>{}), 0u);
}

TEST(Crc32, IncrementalEqualsOneShot) {
  Rng rng(42);
  std::vector<std::uint8_t> data(1024);
  for (auto& b : data) b = static_cast<std::uint8_t>(rng.uniform_index(256));
  const std::uint32_t one_shot = crc32(data);
  for (std::size_t split : {std::size_t{0}, std::size_t{1}, std::size_t{512},
                            std::size_t{1023}, std::size_t{1024}}) {
    const std::uint32_t first =
        crc32(std::span<const std::uint8_t>(data).subspan(0, split));
    const std::uint32_t chained =
        crc32(std::span<const std::uint8_t>(data).subspan(split), first);
    EXPECT_EQ(chained, one_shot) << "split at " << split;
  }
}

TEST(Crc32, DetectsSingleBitFlips) {
  std::vector<std::uint8_t> data(64, 0xAB);
  const std::uint32_t clean = crc32(data);
  for (std::size_t bit : {std::size_t{0}, std::size_t{100}, std::size_t{511}}) {
    std::vector<std::uint8_t> flipped = data;
    flipped[bit / 8] ^= static_cast<std::uint8_t>(1u << (bit % 8));
    EXPECT_NE(crc32(flipped), clean) << "bit " << bit;
  }
}

TEST(ByteReaderPosition, TracksCursor) {
  ByteWriter writer;
  writer.write_u32(7);
  writer.write_u64(9);
  ByteReader reader(writer.buffer());
  EXPECT_EQ(reader.position(), 0u);
  reader.read_u32();
  EXPECT_EQ(reader.position(), 4u);
  reader.read_u64();
  EXPECT_EQ(reader.position(), 12u);
}

TEST(TensorSerialize, MultipleTensorsSequential) {
  Rng rng(10);
  Tensor a = Tensor::normal(Shape{5}, rng);
  Tensor b = Tensor::normal(Shape{2, 2}, rng);
  ByteWriter writer;
  write_tensor(writer, a);
  write_tensor(writer, b);
  ByteReader reader(writer.buffer());
  Tensor a2 = read_tensor(reader);
  Tensor b2 = read_tensor(reader);
  EXPECT_EQ(a2.shape(), a.shape());
  EXPECT_EQ(b2.shape(), b.shape());
  EXPECT_EQ(b2[3], b[3]);
}

}  // namespace
}  // namespace fedkemf::core
