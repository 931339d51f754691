#pragma once

// Length-prefixed message protocol of the multi-process federation.
//
// Every message between fed_server and fed_client is one frame, a
// length-framed record (core/record.hpp):
//
//   [magic u32 = 0xFEDF4A3E] [length u32] [crc32 u32] [payload ...]
//
// `length` counts the payload bytes (everything after the crc field) and is
// bounded by FrameLimits::max_frame_bytes so a corrupt or hostile length can
// never drive an unbounded allocation.  `crc32` covers the payload, so any
// bit flip in flight is detected before a single field is parsed.  The
// payload is core::ByteWriter-encoded:
//
//   [type u8] [flags u8] [round u32] [client u32]
//   [name string] [scalar_count u32] [f64 scalars ...] [body bytes u32-len]
//
// Frame types: HELLO (client registration: owned ids + config digest),
// TASK (server -> client: a model payload to train against), UPLOAD
// (client -> server: the trained model payload + bookkeeping scalars),
// ACK (handshake replies), BYE (orderly goodbye), PING/PONG (liveness
// heartbeats, empty-bodied).  TASK/UPLOAD bodies are the model wire
// format, and validate_model_body screens them with a typed ChecksumError.
//
// When a pre-shared key is configured, every frame additionally carries an
// 8-byte SipHash-2-4 tag after the payload (`length` then counts payload +
// tag, and the payload's flags byte sets kFlagAuthTag so a receiver knows
// the tail is a tag before parsing).  The CRC still covers only the
// payload; the tag is keyed over the same bytes, so a tampered frame whose
// CRC was recomputed — which CRC32 cannot catch by construction — fails
// authentication with a typed AuthError.
//
// Decode errors are ProtocolError, derived from comm::ChecksumError: the
// transports surface malformed frames through the same typed-error contract
// the in-process channel already honors (never a hang, never a crash).

#include <array>
#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "comm/channel.hpp"
#include "core/record.hpp"
#include "net/socket.hpp"

namespace fedkemf::net {

inline constexpr std::uint32_t kFrameMagic = 0xFEDF4A3E;
inline constexpr std::uint32_t kProtocolVersion = 1;
/// magic + length + crc32.
inline constexpr std::size_t kFrameHeaderBytes = core::kRecordHeaderBytes;

/// A frame failed structural validation (bad magic, oversize length, CRC
/// mismatch, truncated or trailing payload bytes).
class ProtocolError : public comm::ChecksumError {
 public:
  using comm::ChecksumError::ChecksumError;
};

/// A frame failed authentication (missing or mismatched SipHash tag).
class AuthError : public ProtocolError {
 public:
  using ProtocolError::ProtocolError;
};

enum class FrameType : std::uint8_t {
  kHello = 1,
  kTask = 2,
  kUpload = 3,
  kAck = 4,
  kBye = 5,
  kPing = 6,
  kPong = 7,
  /// Server -> client: admission control refused the HELLO because the
  /// server is over its resource limits.  Unlike a kFlagReject ACK (a
  /// permanent configuration mismatch), BUSY is transient: scalars[0]
  /// carries a suggested retry-after in seconds and the client backs off
  /// with jitter instead of treating the connection as fatal.
  kBusy = 8,
};

std::string to_string(FrameType type);

/// ACK flag: the HELLO was rejected; the frame name carries the reason.
inline constexpr std::uint8_t kFlagReject = 0x1;
/// The frame carries an 8-byte SipHash-2-4 tag after the payload.
inline constexpr std::uint8_t kFlagAuthTag = 0x2;

/// 128-bit SipHash key derived from a pre-shared passphrase.
using FrameKey = std::array<std::uint8_t, 16>;
/// Bytes of the per-frame authentication tag.
inline constexpr std::size_t kFrameTagBytes = 8;

/// Derives a deterministic 128-bit frame key from a passphrase.
FrameKey derive_frame_key(const std::string& passphrase);

/// SipHash-2-4 of `data` under `key` (the frame authentication MAC).
std::uint64_t siphash24(const FrameKey& key, std::span<const std::uint8_t> data);

struct FrameLimits {
  /// Upper bound on one frame's payload (64 MiB holds any model this repo
  /// ships with two orders of magnitude to spare).
  std::size_t max_frame_bytes = 64ull << 20;
};

struct Frame {
  FrameType type = FrameType::kAck;
  std::uint8_t flags = 0;
  std::uint32_t round = 0;
  std::uint32_t client = 0;
  std::string name;             ///< payload name ("model", "knowledge_net", ...)
  std::vector<double> scalars;  ///< bookkeeping (steps, learning rate, loss)
  std::vector<std::uint8_t> body;
};

/// Serializes `frame` (header + CRC + payload), ready for write_all.  With
/// a key, sets kFlagAuthTag in the payload flags and appends the 8-byte
/// SipHash tag (counted by the header length).
std::vector<std::uint8_t> encode_frame(const Frame& frame, const FrameKey* key = nullptr);

/// Parses the 12-byte header; returns the payload length (including the
/// authentication tag, when present).  Throws ProtocolError on a bad magic
/// or a length above `limits`.
std::size_t decode_frame_header(std::span<const std::uint8_t, kFrameHeaderBytes> header,
                                const FrameLimits& limits, std::uint32_t* crc_out);

/// Decodes a payload whose CRC was read by decode_frame_header.  Throws
/// ProtocolError on CRC mismatch, unknown type, or malformed fields.
Frame decode_frame_payload(std::span<const std::uint8_t> payload, std::uint32_t expected_crc);

/// Decodes the `length` bytes that followed a frame header: peeks the flags
/// byte, strips + verifies the SipHash tag when kFlagAuthTag is set (throws
/// AuthError on mismatch or when no key is configured), then CRC-checks and
/// parses the payload like decode_frame_payload.
Frame decode_frame_body(std::span<const std::uint8_t> body, std::uint32_t expected_crc,
                        const FrameKey* key = nullptr);

/// Reads one full frame from `fd` (blocking up to `deadline` across the
/// whole frame).  Throws ProtocolError for malformed bytes and the IoError
/// family for transport failures.
Frame read_frame(int fd, const FrameLimits& limits, const Deadline& deadline,
                 const FrameKey* key = nullptr);

/// Writes one frame to `fd` (blocking up to `deadline`).
void write_frame(int fd, const Frame& frame, const Deadline& deadline,
                 const FrameKey* key = nullptr);

/// Validates that `body` is a structurally plausible model payload for the
/// socket transport: the model wire format's magic, version and CRC32, and a
/// tensor_count that could fit in the payload.  Throws comm::ChecksumError
/// like deserialize_model would, just earlier and without needing the
/// destination module.
void validate_model_body(std::span<const std::uint8_t> body);

// ---- HELLO / ACK bodies ----

/// Client registration payload (HELLO body).
struct HelloRequest {
  std::uint32_t protocol_version = kProtocolVersion;
  std::uint8_t mode = 0;  ///< 0 = mirror (lockstep replica), 1 = elastic
  std::string algorithm;
  std::uint64_t config_digest = 0;
  std::vector<std::uint32_t> owned_clients;
  std::uint8_t rejoin = 0;  ///< elastic: this is a reconnect after a restart
};

/// Server reply to HELLO (ACK body).
struct HelloReply {
  std::uint32_t protocol_version = kProtocolVersion;
  std::uint8_t accepted = 0;
  std::uint32_t current_round = 0;  ///< elastic rejoin: where the run is
  std::string message;              ///< rejection reason when !accepted
};

std::vector<std::uint8_t> encode_hello(const HelloRequest& request);
HelloRequest decode_hello(std::span<const std::uint8_t> body);
std::vector<std::uint8_t> encode_hello_reply(const HelloReply& reply);
HelloReply decode_hello_reply(std::span<const std::uint8_t> body);

}  // namespace fedkemf::net
