// Framed-record tests (core/record.hpp): the bytes every encoder writes are
// pinned, and a seeded mutation fuzz runs the decoder of each framed format
// (model, compressed model, checkpoint, net frame, WAL) against bit flips,
// truncations, extensions and header words rewritten with the CRC resealed.

#include "core/record.hpp"

#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "comm/channel.hpp"
#include "comm/compression.hpp"
#include "core/rng.hpp"
#include "fl/checkpoint/format.hpp"
#include "net/frame.hpp"
#include "net/wal.hpp"
#include "nn/linear.hpp"
#include "nn/norm.hpp"

namespace fedkemf {
namespace {

using Bytes = std::vector<std::uint8_t>;

// ---- Fixed inputs (no floating-point math, so every build agrees) ----

std::unique_ptr<nn::Sequential> pinned_model(bool blank = false) {
  core::Rng rng(1);
  auto model = std::make_unique<nn::Sequential>();
  model->emplace<nn::Linear>(6, 4, rng);
  model->emplace<nn::BatchNorm2d>(4);
  std::uint32_t state = 12345;
  const auto next = [&state, blank] {
    state = state * 1103515245u + 12345u;
    if (blank) return 0.0f;
    return static_cast<float>(static_cast<int>(state >> 16) % 2001 - 1000) / 256.0f;
  };
  for (nn::Parameter* p : model->parameters()) {
    for (float& v : p->value.values()) v = next();
  }
  for (nn::Buffer* b : model->buffers()) {
    for (float& v : b->value.values()) v = next();
  }
  return model;
}

ckpt::Checkpoint pinned_checkpoint() {
  ckpt::Checkpoint checkpoint;
  checkpoint.algorithm = "FedKEMF";
  checkpoint.next_round = 7;
  checkpoint.section("algorithm") = {1, 2, 3, 4, 5};
  checkpoint.section("runner") = Bytes(300, 0xA5);
  checkpoint.section("empty");
  return checkpoint;
}

net::Frame pinned_frame() {
  net::Frame frame;
  frame.type = net::FrameType::kUpload;
  frame.round = 3;
  frame.client = 9;
  frame.name = "knowledge_net";
  frame.scalars = {1.0, 0.05, -2.5};
  for (std::size_t i = 0; i < 200; ++i) frame.body.push_back(static_cast<std::uint8_t>(i * 7));
  return frame;
}

net::WalRecord pinned_wal_record() {
  const net::Frame frame = pinned_frame();
  net::WalRecord record;
  record.type = net::WalRecordType::kStaleApplied;
  record.round = frame.round;
  record.client = frame.client;
  record.aux = 5;
  record.name = frame.name;
  record.scalars = frame.scalars;
  record.body = frame.body;
  return record;
}

// ---- Encoder bytes ----

TEST(EncoderBytes, MatchTheValuesPinnedBeforeTheSharedHeader) {
  // CRC32s of each encoder's output, recorded before the five formats moved
  // onto core/record.hpp: the move changed no byte.
  auto model = pinned_model();
  const Bytes wire = comm::serialize_model(*model);
  EXPECT_EQ(wire.size(), 302u);
  EXPECT_EQ(wire.size(), comm::model_wire_size(*model));
  EXPECT_EQ(core::crc32(wire), 0xF20716CEu);
  const Bytes fp16 = comm::encode_model(*model, comm::Codec::kFp16);
  EXPECT_EQ(fp16.size(), comm::encoded_model_size(*model, comm::Codec::kFp16));
  EXPECT_EQ(core::crc32(fp16), 0x4B7DC848u);
  EXPECT_EQ(core::crc32(comm::encode_model(*model, comm::Codec::kInt8)), 0xD96FF6D1u);
  EXPECT_EQ(core::crc32(ckpt::encode_checkpoint(pinned_checkpoint())), 0x41EE51B1u);
  EXPECT_EQ(core::crc32(net::encode_frame(pinned_frame())), 0x833E4036u);
  const net::FrameKey key = net::derive_frame_key("pinned");
  EXPECT_EQ(core::crc32(net::encode_frame(pinned_frame(), &key)), 0xE6D365D7u);
}

TEST(EncoderBytes, WalRecordsUseTheFrameFieldOrder) {
  const Bytes record = net::encode_wal_record(pinned_wal_record());
  const std::optional<core::RecordHeader> header = core::peek_record_header(record);
  ASSERT_TRUE(header.has_value());
  EXPECT_EQ(header->magic, net::kWalMagic);
  EXPECT_EQ(header->word, record.size() - core::kRecordHeaderBytes);
  EXPECT_EQ(header->crc,
            core::crc32(std::span<const std::uint8_t>(record).subspan(core::kRecordHeaderBytes)));
}

// ---- Mutation fuzz ----

enum class Verdict {
  kOriginal,    ///< decoded the value that was encoded
  kRejected,    ///< threw the format's typed error (the WAL: stopped its scan)
  kIncomplete,  ///< a frame reader would wait for more bytes
  kWrongValue,  ///< decoded something else: the failure the fuzz hunts
};

struct Subject {
  std::string name;
  Bytes bytes;
  std::size_t tag_bytes = 0;  ///< trailing bytes outside the CRC span
  std::function<Verdict(const Bytes&)> decode;
};

using ModelDecoder = void (*)(std::span<const std::uint8_t>, nn::Module&);

/// Decodes into a blank model and compares its state with what the
/// unmutated bytes decode to.
Subject model_subject(std::string name, Bytes bytes, ModelDecoder decoder) {
  auto reference = pinned_model(/*blank=*/true);
  decoder(bytes, *reference);
  const Bytes expected = comm::serialize_model(*reference);
  Subject subject{std::move(name), std::move(bytes), 0, {}};
  subject.decode = [decoder, expected](const Bytes& mutated) {
    auto target = pinned_model(/*blank=*/true);
    try {
      decoder(mutated, *target);
    } catch (const comm::ChecksumError&) {
      return Verdict::kRejected;
    }
    return comm::serialize_model(*target) == expected ? Verdict::kOriginal
                                                      : Verdict::kWrongValue;
  };
  return subject;
}

Subject frame_subject(std::string name, const net::FrameKey* key) {
  const Bytes original = net::encode_frame(pinned_frame(), key);
  Subject subject{std::move(name), original, key != nullptr ? net::kFrameTagBytes : 0, {}};
  subject.decode = [key, original](const Bytes& bytes) {
    if (bytes.size() < net::kFrameHeaderBytes) return Verdict::kIncomplete;
    try {
      std::uint32_t crc = 0;
      const std::size_t length = net::decode_frame_header(
          std::span<const std::uint8_t, net::kFrameHeaderBytes>(bytes.data(),
                                                                net::kFrameHeaderBytes),
          net::FrameLimits{}, &crc);
      if (bytes.size() - net::kFrameHeaderBytes < length) return Verdict::kIncomplete;
      const net::Frame frame = net::decode_frame_body(
          std::span<const std::uint8_t>(bytes).subspan(net::kFrameHeaderBytes, length), crc,
          key);
      return net::encode_frame(frame, key) == original ? Verdict::kOriginal
                                                       : Verdict::kWrongValue;
    } catch (const net::ProtocolError&) {
      return Verdict::kRejected;
    }
  };
  return subject;
}

std::vector<Subject> subjects(const net::FrameKey& key, const std::string& wal_path) {
  auto model = pinned_model();
  std::vector<Subject> all;
  all.push_back(model_subject("model", comm::serialize_model(*model), comm::deserialize_model));
  all.push_back(model_subject("compressed fp16", comm::encode_model(*model, comm::Codec::kFp16),
                              comm::decode_model));
  all.push_back(model_subject("compressed int8", comm::encode_model(*model, comm::Codec::kInt8),
                              comm::decode_model));

  const Bytes checkpoint = ckpt::encode_checkpoint(pinned_checkpoint());
  all.push_back({"checkpoint", checkpoint, 0, [checkpoint](const Bytes& bytes) {
                   try {
                     return ckpt::encode_checkpoint(ckpt::decode_checkpoint(bytes)) == checkpoint
                                ? Verdict::kOriginal
                                : Verdict::kWrongValue;
                   } catch (const std::runtime_error&) {
                     return Verdict::kRejected;
                   }
                 }});

  all.push_back(frame_subject("frame", nullptr));
  all.push_back(frame_subject("keyed frame", &key));

  const Bytes wal = net::encode_wal_record(pinned_wal_record());
  all.push_back({"wal", wal, 0, [wal, wal_path](const Bytes& bytes) {
                   {
                     std::ofstream out(wal_path, std::ios::binary | std::ios::trunc);
                     out.write(reinterpret_cast<const char*>(bytes.data()),
                               static_cast<std::streamsize>(bytes.size()));
                   }
                   const net::WalScan scan = net::scan_wal(wal_path);
                   if (scan.records.empty()) return Verdict::kRejected;
                   return scan.records.size() == 1 &&
                                  net::encode_wal_record(scan.records[0]) == wal
                              ? Verdict::kOriginal
                              : Verdict::kWrongValue;
                 }});
  return all;
}

/// One seeded mutation of `original`; `what` describes it for failure messages.
Bytes mutate(const Subject& subject, core::Rng& rng, std::string* what) {
  Bytes bytes = subject.bytes;
  switch (rng.uniform_index(4)) {
    case 0: {
      const std::size_t flips = 1 + rng.uniform_index(3);
      *what = "flip";
      for (std::size_t i = 0; i < flips; ++i) {
        const std::size_t at = rng.uniform_index(bytes.size());
        const std::size_t bit = rng.uniform_index(8);
        bytes[at] ^= static_cast<std::uint8_t>(1u << bit);
        *what += " " + std::to_string(at) + ":" + std::to_string(bit);
      }
      break;
    }
    case 1:
      bytes.resize(rng.uniform_index(bytes.size()));
      *what = "truncate to " + std::to_string(bytes.size());
      break;
    case 2: {
      const std::size_t extra = 1 + rng.uniform_index(16);
      for (std::size_t i = 0; i < extra; ++i) {
        bytes.push_back(static_cast<std::uint8_t>(rng.uniform_index(256)));
      }
      *what = "extend by " + std::to_string(extra);
      break;
    }
    default: {
      // Rewrite the magic or the word, then reseal the CRC so the decoder
      // gets past the checksum to the header checks.
      const core::RecordHeader header = *core::peek_record_header(bytes);
      static constexpr std::uint32_t kMagics[] = {comm::kModelMagic, comm::kCompressedMagic,
                                                  ckpt::kCheckpointMagic, net::kFrameMagic,
                                                  net::kWalMagic};
      std::uint32_t magic = header.magic;
      std::uint32_t word = header.word;
      std::uint32_t& field = rng.uniform_index(2) == 0 ? magic : word;
      switch (rng.uniform_index(4)) {
        case 0: field = kMagics[rng.uniform_index(5)]; break;
        case 1: field += 1; break;
        case 2: field -= 1; break;
        default: field = static_cast<std::uint32_t>(rng.next_u64()); break;
      }
      core::seal_record(std::span<std::uint8_t>(bytes).first(bytes.size() - subject.tag_bytes),
                        magic, word);
      *what = "reseal magic " + std::to_string(magic) + " word " + std::to_string(word);
      break;
    }
  }
  return bytes;
}

TEST(RecordFuzz, EveryDecoderReturnsTheOriginalOrItsTypedError) {
  const net::FrameKey key = net::derive_frame_key("fuzz");
  const std::string wal_path = ::testing::TempDir() + "/fedkemf_record_fuzz.wal";
  constexpr std::size_t kCasesPerSubject = 500;
  core::Rng rng(20240601);
  for (const Subject& subject : subjects(key, wal_path)) {
    ASSERT_EQ(subject.decode(subject.bytes), Verdict::kOriginal) << subject.name;
    std::size_t rejected = 0;
    for (std::size_t i = 0; i < kCasesPerSubject; ++i) {
      std::string what;
      const Bytes mutated = mutate(subject, rng, &what);
      Verdict verdict = Verdict::kWrongValue;
      try {
        verdict = subject.decode(mutated);
      } catch (const std::exception& e) {
        ADD_FAILURE() << subject.name << ", " << what << ": untyped error " << e.what();
        continue;
      }
      ASSERT_NE(verdict, Verdict::kWrongValue) << subject.name << ", " << what;
      if (verdict == Verdict::kRejected) ++rejected;
    }
    EXPECT_GT(rejected, kCasesPerSubject / 4) << subject.name;
  }
  std::remove(wal_path.c_str());
}

}  // namespace
}  // namespace fedkemf
