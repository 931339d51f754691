#pragma once

// The header every CRC-framed record in fedkemf starts with.
//
// Five formats share it: the model wire format (comm/channel.hpp), the
// compressed model (comm/compression.hpp), the checkpoint container
// (fl/checkpoint/format.hpp, which spill files reuse), net frames
// (net/frame.hpp) and WAL records (net/wal.hpp).  Each record is
//
//   [magic u32] [word u32] [crc32 u32] [body ...]
//
// little-endian.  The word is the format version (model, compressed model,
// checkpoint) or the body length (frame, WAL).  The crc32 covers the body,
// so a bit flip anywhere after the header, a truncation or an extension is
// detected before a single body field is parsed.  A keyed frame's trailing
// authentication tag is outside the CRC span (see net/frame.hpp).
//
// Only this module reads or writes the three header fields.  Writers build
// the record in place: begin_record reserves the header, the body is written
// after it, and seal_record patches magic, word and CRC without copying the
// body.  Decoders check the header and CRC here, and every failure throws the
// typed error the format's RecordFormat names.

#include <cstdint>
#include <optional>
#include <span>
#include <string>

#include "core/serialize.hpp"

namespace fedkemf::core {

inline constexpr std::size_t kRecordHeaderBytes = 12;

struct RecordHeader {
  std::uint32_t magic = 0;
  std::uint32_t word = 0;  ///< format version, or the body length
  std::uint32_t crc = 0;   ///< CRC-32 of the body
};

/// What a decoder expects of one format's header, and how it fails.
struct RecordFormat {
  const char* name;        ///< starts every error message
  std::uint32_t magic;
  std::uint32_t version;   ///< the word must equal it; 0: the word is the body length
  std::size_t max_length;  ///< length-framed records: the largest body accepted
  /// Throws the format's typed error carrying `message`.
  void (*fail)(const std::string& message);
};

/// RecordFormat::fail for a format whose decoder throws `Error`.
template <class Error>
void throw_error(const std::string& message) {
  throw Error(message);
}

/// A writer holding a zeroed header, with room for `body_bytes` more; write
/// the body, take() the bytes and seal_record them.
ByteWriter begin_record(std::size_t body_bytes = 0);

/// Fills the header at the front of `record`: magic, word and the CRC-32 of
/// every byte after the header.  `record` must hold at least the header.
void seal_record(std::span<std::uint8_t> record, std::uint32_t magic, std::uint32_t word);

/// The header at the front of `bytes`, unchecked; nullopt when `bytes` is
/// shorter than a header.
std::optional<RecordHeader> peek_record_header(std::span<const std::uint8_t> bytes);

/// The header at the front of `bytes`, after checking that it is whole, that
/// its magic is the format's and that its word is the format's version (or,
/// for a length-framed format, at most its max_length).
RecordHeader read_record_header(std::span<const std::uint8_t> bytes, const RecordFormat& format);

/// Checks `body` against the CRC its header carried.
void verify_record_crc(std::span<const std::uint8_t> body, std::uint32_t crc,
                       const RecordFormat& format);

/// read_record_header and verify_record_crc over a versioned record held
/// whole; returns its body.
std::span<const std::uint8_t> open_record(std::span<const std::uint8_t> record,
                                          const RecordFormat& format);

}  // namespace fedkemf::core
