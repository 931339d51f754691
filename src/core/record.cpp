#include "core/record.hpp"

#include <cstdio>
#include <stdexcept>

namespace fedkemf::core {

namespace {

std::string hex_u32(std::uint32_t v) {
  char text[11];
  std::snprintf(text, sizeof(text), "0x%08X", v);
  return text;
}

void store_u32(std::uint8_t* p, std::uint32_t v) {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

[[noreturn]] void fail(const RecordFormat& format, const std::string& what) {
  const std::string message = std::string(format.name) + ": " + what;
  format.fail(message);
  throw std::runtime_error(message);  // a fail that returned still stops the decode
}

}  // namespace

ByteWriter begin_record(std::size_t body_bytes) {
  ByteWriter writer;
  writer.reserve(kRecordHeaderBytes + body_bytes);
  for (std::size_t field = 0; field < 3; ++field) writer.write_u32(0);
  return writer;
}

void seal_record(std::span<std::uint8_t> record, std::uint32_t magic, std::uint32_t word) {
  store_u32(record.data(), magic);
  store_u32(record.data() + 4, word);
  store_u32(record.data() + 8, crc32(record.subspan(kRecordHeaderBytes)));
}

std::optional<RecordHeader> peek_record_header(std::span<const std::uint8_t> bytes) {
  if (bytes.size() < kRecordHeaderBytes) return std::nullopt;
  ByteReader reader(bytes);
  RecordHeader header;
  header.magic = reader.read_u32();
  header.word = reader.read_u32();
  header.crc = reader.read_u32();
  return header;
}

RecordHeader read_record_header(std::span<const std::uint8_t> bytes,
                                const RecordFormat& format) {
  const std::optional<RecordHeader> header = peek_record_header(bytes);
  if (!header) {
    fail(format, "truncated header (" + std::to_string(bytes.size()) + " bytes; need " +
                     std::to_string(kRecordHeaderBytes) + ")");
  }
  if (header->magic != format.magic) {
    fail(format, "bad magic at offset 0 (expected " + hex_u32(format.magic) + ", got " +
                     hex_u32(header->magic) + ")");
  }
  if (format.version != 0 && header->word != format.version) {
    fail(format, "unsupported version at offset 4 (expected " +
                     std::to_string(format.version) + ", got " + std::to_string(header->word) +
                     ")");
  }
  if (format.version == 0 && header->word > format.max_length) {
    fail(format, "declared length of " + std::to_string(header->word) +
                     " bytes at offset 4 exceeds the " + std::to_string(format.max_length) +
                     "-byte limit");
  }
  return *header;
}

void verify_record_crc(std::span<const std::uint8_t> body, std::uint32_t crc,
                       const RecordFormat& format) {
  const std::uint32_t actual = crc32(body);
  if (actual != crc) {
    fail(format, "checksum mismatch at offset 8 (expected " + hex_u32(crc) + ", got " +
                     hex_u32(actual) + "): corrupt or truncated");
  }
}

std::span<const std::uint8_t> open_record(std::span<const std::uint8_t> record,
                                          const RecordFormat& format) {
  const RecordHeader header = read_record_header(record, format);
  const std::span<const std::uint8_t> body = record.subspan(kRecordHeaderBytes);
  verify_record_crc(body, header.crc, format);
  return body;
}

}  // namespace fedkemf::core
