#include "net/frame.hpp"

#include "core/record.hpp"

namespace fedkemf::net {

namespace {

/// Length-framed; decode_frame_header applies the caller's FrameLimits.
constexpr core::RecordFormat kFrameRecord{"frame", kFrameMagic, 0,
                                          FrameLimits{}.max_frame_bytes,
                                          core::throw_error<ProtocolError>};

std::uint64_t load_u64(const std::uint8_t* p) {
  std::uint64_t v = 0;
  for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
  return v;
}

void store_u64(std::uint8_t* p, std::uint64_t v) {
  for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> data, std::uint64_t h) {
  for (const std::uint8_t byte : data) {
    h ^= byte;
    h *= 0x100000001B3ull;
  }
  return h;
}

}  // namespace

std::string to_string(FrameType type) {
  switch (type) {
    case FrameType::kHello: return "HELLO";
    case FrameType::kTask: return "TASK";
    case FrameType::kUpload: return "UPLOAD";
    case FrameType::kAck: return "ACK";
    case FrameType::kBye: return "BYE";
    case FrameType::kPing: return "PING";
    case FrameType::kPong: return "PONG";
    case FrameType::kBusy: return "BUSY";
  }
  return "frame type " + std::to_string(static_cast<int>(type));
}

FrameKey derive_frame_key(const std::string& passphrase) {
  // Two FNV-1a streams with distinct tweak bytes fold the passphrase into
  // 128 deterministic key bits.  Not a KDF for adversarial offline attacks;
  // good enough to key the per-frame MAC between trusted processes.
  std::vector<std::uint8_t> bytes(passphrase.begin(), passphrase.end());
  bytes.push_back(0x00);
  const std::uint64_t k0 = fnv1a64(bytes, 0xcbf29ce484222325ull);
  bytes.back() = 0x01;
  const std::uint64_t k1 = fnv1a64(bytes, 0x9ae16a3b2f90404full);
  FrameKey key;
  store_u64(key.data(), k0);
  store_u64(key.data() + 8, k1);
  return key;
}

std::uint64_t siphash24(const FrameKey& key, std::span<const std::uint8_t> data) {
  const std::uint64_t k0 = load_u64(key.data());
  const std::uint64_t k1 = load_u64(key.data() + 8);
  std::uint64_t v0 = 0x736f6d6570736575ull ^ k0;
  std::uint64_t v1 = 0x646f72616e646f6dull ^ k1;
  std::uint64_t v2 = 0x6c7967656e657261ull ^ k0;
  std::uint64_t v3 = 0x7465646279746573ull ^ k1;
  const auto rotl = [](std::uint64_t x, int b) { return (x << b) | (x >> (64 - b)); };
  const auto sipround = [&] {
    v0 += v1;
    v1 = rotl(v1, 13);
    v1 ^= v0;
    v0 = rotl(v0, 32);
    v2 += v3;
    v3 = rotl(v3, 16);
    v3 ^= v2;
    v0 += v3;
    v3 = rotl(v3, 21);
    v3 ^= v0;
    v2 += v1;
    v1 = rotl(v1, 17);
    v1 ^= v2;
    v2 = rotl(v2, 32);
  };
  const std::size_t full = data.size() - data.size() % 8;
  for (std::size_t i = 0; i < full; i += 8) {
    const std::uint64_t m = load_u64(data.data() + i);
    v3 ^= m;
    sipround();
    sipround();
    v0 ^= m;
  }
  std::uint64_t tail = static_cast<std::uint64_t>(data.size() & 0xff) << 56;
  for (std::size_t i = full; i < data.size(); ++i) {
    tail |= static_cast<std::uint64_t>(data[i]) << (8 * (i - full));
  }
  v3 ^= tail;
  sipround();
  sipround();
  v0 ^= tail;
  v2 ^= 0xff;
  sipround();
  sipround();
  sipround();
  sipround();
  return v0 ^ v1 ^ v2 ^ v3;
}

std::vector<std::uint8_t> encode_frame(const Frame& frame, const FrameKey* key) {
  const std::size_t tag_bytes = key != nullptr ? kFrameTagBytes : 0;
  // 22 fixed bytes: type, flags, round, client and three u32 counts.
  core::ByteWriter writer = core::begin_record(22 + frame.name.size() +
                                               8 * frame.scalars.size() + frame.body.size() +
                                               tag_bytes);
  writer.write_u8(static_cast<std::uint8_t>(frame.type));
  writer.write_u8(key != nullptr ? static_cast<std::uint8_t>(frame.flags | kFlagAuthTag)
                                 : frame.flags);
  writer.write_u32(frame.round);
  writer.write_u32(frame.client);
  writer.write_string(frame.name);
  writer.write_u32(static_cast<std::uint32_t>(frame.scalars.size()));
  for (const double scalar : frame.scalars) writer.write_f64(scalar);
  writer.write_u32(static_cast<std::uint32_t>(frame.body.size()));
  writer.write_bytes(frame.body);
  if (key != nullptr) {
    const std::span<const std::uint8_t> payload(writer.buffer());
    writer.write_u64(siphash24(*key, payload.subspan(kFrameHeaderBytes)));
  }
  std::vector<std::uint8_t> out = writer.take();
  // The length counts the tag; the CRC covers the payload before it.
  core::seal_record(std::span<std::uint8_t>(out).first(out.size() - tag_bytes), kFrameMagic,
                    static_cast<std::uint32_t>(out.size() - kFrameHeaderBytes));
  return out;
}

std::size_t decode_frame_header(std::span<const std::uint8_t, kFrameHeaderBytes> header,
                                const FrameLimits& limits, std::uint32_t* crc_out) {
  core::RecordFormat format = kFrameRecord;
  format.max_length = limits.max_frame_bytes;
  const core::RecordHeader fields = core::read_record_header(header, format);
  if (crc_out != nullptr) *crc_out = fields.crc;
  return fields.word;
}

Frame decode_frame_payload(std::span<const std::uint8_t> payload,
                           std::uint32_t expected_crc) {
  core::verify_record_crc(payload, expected_crc, kFrameRecord);
  try {
    core::ByteReader reader(payload);
    Frame frame;
    const std::uint8_t type = reader.read_u8();
    if (type < static_cast<std::uint8_t>(FrameType::kHello) ||
        type > static_cast<std::uint8_t>(FrameType::kBusy)) {
      throw ProtocolError("frame: unknown type " + std::to_string(type));
    }
    frame.type = static_cast<FrameType>(type);
    frame.flags = reader.read_u8();
    frame.round = reader.read_u32();
    frame.client = reader.read_u32();
    frame.name = reader.read_string();
    const std::uint32_t scalar_count = reader.read_u32();
    if (static_cast<std::size_t>(scalar_count) * 8 > reader.remaining()) {
      throw ProtocolError("frame: scalar count " + std::to_string(scalar_count) +
                          " exceeds the remaining " + std::to_string(reader.remaining()) +
                          " payload bytes");
    }
    frame.scalars.resize(scalar_count);
    for (std::uint32_t i = 0; i < scalar_count; ++i) frame.scalars[i] = reader.read_f64();
    const std::uint32_t body_len = reader.read_u32();
    if (body_len != reader.remaining()) {
      throw ProtocolError("frame: body length " + std::to_string(body_len) +
                          " disagrees with the remaining " +
                          std::to_string(reader.remaining()) + " payload bytes");
    }
    const std::span<const std::uint8_t> body = reader.read_bytes(body_len);
    frame.body.assign(body.begin(), body.end());
    return frame;
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::exception& e) {
    // ByteReader truncation and friends: re-type so callers see one error
    // family for every malformed frame.
    throw ProtocolError(std::string("frame: malformed payload: ") + e.what());
  }
}

Frame decode_frame_body(std::span<const std::uint8_t> body, std::uint32_t expected_crc,
                        const FrameKey* key) {
  if (body.size() >= 2 && (body[1] & kFlagAuthTag) != 0) {
    if (key == nullptr) {
      throw AuthError(
          "frame: peer sent an authenticated frame but no pre-shared key is configured");
    }
    if (body.size() < 2 + kFrameTagBytes) {
      throw AuthError("frame: authenticated frame of " + std::to_string(body.size()) +
                      " bytes is too short to carry a tag");
    }
    const std::span<const std::uint8_t> payload = body.first(body.size() - kFrameTagBytes);
    const std::uint64_t expected_tag = load_u64(body.data() + payload.size());
    if (siphash24(*key, payload) != expected_tag) {
      throw AuthError(
          "frame: authentication tag mismatch (tampered frame or wrong pre-shared key)");
    }
    return decode_frame_payload(payload, expected_crc);
  }
  return decode_frame_payload(body, expected_crc);
}

Frame read_frame(int fd, const FrameLimits& limits, const Deadline& deadline,
                 const FrameKey* key) {
  std::uint8_t header[kFrameHeaderBytes];
  read_exact(fd, header, sizeof(header), deadline);
  std::uint32_t crc = 0;
  const std::size_t length =
      decode_frame_header(std::span<const std::uint8_t, kFrameHeaderBytes>(header), limits,
                          &crc);
  std::vector<std::uint8_t> body(length);
  if (length > 0) read_exact(fd, body.data(), length, deadline);
  return decode_frame_body(body, crc, key);
}

void write_frame(int fd, const Frame& frame, const Deadline& deadline,
                 const FrameKey* key) {
  const std::vector<std::uint8_t> bytes = encode_frame(frame, key);
  write_all(fd, bytes.data(), bytes.size(), deadline);
}

void validate_model_body(std::span<const std::uint8_t> body) {
  const std::span<const std::uint8_t> tensors = core::open_record(body, comm::kModelRecord);
  if (tensors.size() < 4) {
    throw comm::ChecksumError("model: no tensor count in " + std::to_string(tensors.size()) +
                              " body bytes");
  }
  const std::uint32_t tensor_count = core::ByteReader(tensors).read_u32();
  // write_tensor emits at least 9 bytes per tensor (dtype tag + rank + one
  // scalar's shape/data); a count that cannot fit is structurally bogus even
  // though its CRC matches (i.e. it was *serialized* that way).
  const std::size_t tensor_bytes = tensors.size() - 4;
  if (static_cast<std::size_t>(tensor_count) > tensor_bytes / 9 + 1) {
    throw comm::ChecksumError("model: tensor_count " + std::to_string(tensor_count) +
                              " cannot fit in " + std::to_string(tensor_bytes) +
                              " payload bytes");
  }
}

std::vector<std::uint8_t> encode_hello(const HelloRequest& request) {
  core::ByteWriter writer;
  writer.write_u32(request.protocol_version);
  writer.write_u8(request.mode);
  writer.write_string(request.algorithm);
  writer.write_u64(request.config_digest);
  writer.write_u32(static_cast<std::uint32_t>(request.owned_clients.size()));
  for (const std::uint32_t id : request.owned_clients) writer.write_u32(id);
  writer.write_u8(request.rejoin);
  return writer.take();
}

HelloRequest decode_hello(std::span<const std::uint8_t> body) {
  try {
    core::ByteReader reader(body);
    HelloRequest request;
    request.protocol_version = reader.read_u32();
    request.mode = reader.read_u8();
    request.algorithm = reader.read_string();
    request.config_digest = reader.read_u64();
    const std::uint32_t count = reader.read_u32();
    if (static_cast<std::size_t>(count) * 4 > reader.remaining()) {
      throw ProtocolError("hello: owned-client count " + std::to_string(count) +
                          " exceeds the body size");
    }
    request.owned_clients.resize(count);
    for (std::uint32_t i = 0; i < count; ++i) request.owned_clients[i] = reader.read_u32();
    request.rejoin = reader.read_u8();
    return request;
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::exception& e) {
    throw ProtocolError(std::string("hello: malformed body: ") + e.what());
  }
}

std::vector<std::uint8_t> encode_hello_reply(const HelloReply& reply) {
  core::ByteWriter writer;
  writer.write_u32(reply.protocol_version);
  writer.write_u8(reply.accepted);
  writer.write_u32(reply.current_round);
  writer.write_string(reply.message);
  return writer.take();
}

HelloReply decode_hello_reply(std::span<const std::uint8_t> body) {
  try {
    core::ByteReader reader(body);
    HelloReply reply;
    reply.protocol_version = reader.read_u32();
    reply.accepted = reader.read_u8();
    reply.current_round = reader.read_u32();
    reply.message = reader.read_string();
    return reply;
  } catch (const ProtocolError&) {
    throw;
  } catch (const std::exception& e) {
    throw ProtocolError(std::string("hello reply: malformed body: ") + e.what());
  }
}

}  // namespace fedkemf::net
