#include "net/wal.hpp"

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <map>
#include <stdexcept>

#include "core/record.hpp"
#include "net/server.hpp"
#include "obs/metrics.hpp"
#include "utils/logging.hpp"

namespace fedkemf::net {

namespace {

/// Length-framed with a generous ceiling: a record is one frame plus
/// bookkeeping, and the frame protocol itself caps payloads at 64 MiB.
constexpr core::RecordFormat kWalRecord{"wal", kWalMagic, 0, 80ull << 20,
                                        core::throw_error<std::runtime_error>};

obs::Counter& counter_wal_appends() {
  static auto& c = obs::MetricsRegistry::global().counter("wal.appends");
  return c;
}
obs::Counter& counter_wal_bytes() {
  static auto& c = obs::MetricsRegistry::global().counter("wal.bytes");
  return c;
}

bool valid_type(std::uint8_t type) {
  return type >= static_cast<std::uint8_t>(WalRecordType::kRoundStart) &&
         type <= static_cast<std::uint8_t>(WalRecordType::kCheckpointMark);
}

WalRecord decode_wal_payload(std::span<const std::uint8_t> payload) {
  core::ByteReader reader(payload);
  WalRecord record;
  const std::uint8_t type = reader.read_u8();
  if (!valid_type(type)) {
    throw std::runtime_error("wal: unknown record type " + std::to_string(type));
  }
  record.type = static_cast<WalRecordType>(type);
  record.round = reader.read_u32();
  record.client = reader.read_u32();
  record.aux = reader.read_u32();
  record.flag = reader.read_u8();
  record.name = reader.read_string();
  const std::uint32_t scalar_count = reader.read_u32();
  record.scalars.reserve(scalar_count);
  for (std::uint32_t i = 0; i < scalar_count; ++i) record.scalars.push_back(reader.read_f64());
  // The body is the final field, so its declared size must consume the
  // payload exactly (catches both truncation and trailing bytes).
  const std::uint64_t body_size = reader.read_u64();
  if (body_size != reader.remaining()) throw std::runtime_error("wal: record body size mismatch");
  const std::span<const std::uint8_t> body = reader.read_bytes(body_size);
  record.body.assign(body.begin(), body.end());
  return record;
}

/// Preallocation granularity: extending the file in extent-sized chunks
/// instead of per-append block allocation roughly halves the kernel cost of
/// each model-sized append on ext4 (the preallocated zero tail scans as torn
/// and is trimmed on clean close / truncated on reopen).
constexpr std::size_t kWalPreallocBytes = 8ull << 20;

}  // namespace

std::vector<std::uint8_t> encode_wal_record(const WalRecord& record) {
  // 30 fixed bytes: type, round, client, aux, flag and three counts.
  core::ByteWriter writer = core::begin_record(30 + record.name.size() +
                                               8 * record.scalars.size() + record.body.size());
  writer.write_u8(static_cast<std::uint8_t>(record.type));
  writer.write_u32(record.round);
  writer.write_u32(record.client);
  writer.write_u32(record.aux);
  writer.write_u8(record.flag);
  writer.write_string(record.name);
  writer.write_u32(static_cast<std::uint32_t>(record.scalars.size()));
  for (const double s : record.scalars) writer.write_f64(s);
  writer.write_u64(record.body.size());
  writer.write_bytes(record.body);
  std::vector<std::uint8_t> out = writer.take();
  core::seal_record(out, kWalMagic,
                    static_cast<std::uint32_t>(out.size() - core::kRecordHeaderBytes));
  return out;
}

WalScan scan_wal(const std::string& path) {
  WalScan scan;
  std::ifstream file(path, std::ios::binary | std::ios::ate);
  if (!file) return scan;  // no log yet: an empty valid prefix
  const std::streamsize size = file.tellg();
  file.seekg(0);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  file.read(reinterpret_cast<char*>(bytes.data()), size);
  if (!file) throw std::runtime_error("wal: read failed for '" + path + "'");

  std::span<const std::uint8_t> rest(bytes);
  try {
    while (!rest.empty()) {
      const core::RecordHeader header = core::read_record_header(rest, kWalRecord);
      if (rest.size() - core::kRecordHeaderBytes < header.word) break;  // torn tail
      const std::span<const std::uint8_t> payload =
          rest.subspan(core::kRecordHeaderBytes, header.word);
      core::verify_record_crc(payload, header.crc, kWalRecord);
      scan.records.push_back(decode_wal_payload(payload));
      rest = rest.subspan(core::kRecordHeaderBytes + header.word);
    }
  } catch (const std::exception&) {
    // A bad header or CRC, or a structurally invalid payload: stop here.
  }
  scan.valid_bytes = bytes.size() - rest.size();
  scan.torn = !rest.empty();
  return scan;
}

WriteAheadLog::WriteAheadLog(const std::string& path) : path_(path) {
  const WalScan scan = scan_wal(path);
  file_ = std::fopen(path.c_str(), "r+b");
  if (file_ == nullptr && errno == ENOENT) file_ = std::fopen(path.c_str(), "wb");
  if (file_ == nullptr) {
    throw std::runtime_error("wal: cannot open '" + path + "': " + std::strerror(errno));
  }
  if (scan.torn) {
    utils::log_warn("wal") << "truncating torn tail of '" << path << "' to "
                           << scan.valid_bytes << " bytes (" << scan.records.size()
                           << " valid records)";
  }
  if (::ftruncate(::fileno(file_), static_cast<off_t>(scan.valid_bytes)) != 0 ||
      std::fseek(file_, 0, SEEK_END) != 0) {
    std::fclose(file_);
    file_ = nullptr;
    throw std::runtime_error("wal: cannot position '" + path + "' for appending");
  }
  logical_size_ = scan.valid_bytes;
  preallocated_ = scan.valid_bytes;
}

WriteAheadLog::~WriteAheadLog() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ != nullptr) {
    std::fflush(file_);
    // Trim the preallocated zero tail so a cleanly closed log scans clean.
    // Best effort: an untrimmed tail is re-detected and truncated on reopen.
    if (::ftruncate(::fileno(file_), static_cast<off_t>(logical_size_)) != 0) {
      utils::log_warn("wal") << "could not trim '" << path_ << "' on close";
    }
    ::fsync(::fileno(file_));
    std::fclose(file_);
    file_ = nullptr;
  }
}

void WriteAheadLog::reserve_capacity(std::size_t need) {
  if (!preallocate_ || logical_size_ + need <= preallocated_) return;
  const std::size_t chunk = std::max(kWalPreallocBytes, need);
  if (::fallocate(::fileno(file_), 0, static_cast<off_t>(preallocated_),
                  static_cast<off_t>(chunk)) == 0) {
    preallocated_ += chunk;
  } else {
    preallocate_ = false;  // filesystem without extents: allocate lazily
  }
}

void WriteAheadLog::append(const WalRecord& record) {
  const std::vector<std::uint8_t> bytes = encode_wal_record(record);
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) throw std::runtime_error("wal: log is closed");
  reserve_capacity(bytes.size());
  // fwrite + fflush lands the record in the kernel, which survives any
  // process death; fsync (an OS-crash concern) is deferred to sync().
  if (std::fwrite(bytes.data(), 1, bytes.size(), file_) != bytes.size() ||
      std::fflush(file_) != 0) {
    throw std::runtime_error("wal: append failed for '" + path_ + "'");
  }
  logical_size_ += bytes.size();
  ++records_appended_;
  bytes_appended_ += bytes.size();
  counter_wal_appends().add(1);
  counter_wal_bytes().add(bytes.size());
}

void WriteAheadLog::sync() {
  std::lock_guard<std::mutex> lock(mutex_);
  if (file_ == nullptr) return;
  if (std::fflush(file_) != 0 || ::fsync(::fileno(file_)) != 0) {
    throw std::runtime_error("wal: fsync failed for '" + path_ + "'");
  }
}

std::size_t WriteAheadLog::records_appended() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_appended_;
}

std::size_t WriteAheadLog::bytes_appended() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return bytes_appended_;
}

WalRecovery plan_wal_recovery(const std::vector<WalRecord>& records,
                              std::uint64_t checkpoint_next_round) {
  WalRecovery plan;
  // Latest consumption per origin key wins: an upload re-parked by an
  // earlier crash cycle is consumed again, and only the newest consumption
  // decides durability.
  std::map<std::string, const WalRecord*> consumed;
  for (const WalRecord& record : records) {
    switch (record.type) {
      case WalRecordType::kUploadClaimed:
      case WalRecordType::kStaleApplied:
        // The key is the *origin* (round, client, name) — the same key the
        // server's idempotency set uses against redeliveries.
        consumed[EpollServer::upload_key(record.round, record.client, record.name)] =
            &record;
        break;
      case WalRecordType::kRoundStart:
        plan.last_round_started = std::max(plan.last_round_started, record.round);
        if (record.round >= checkpoint_next_round) ++plan.replayed;
        break;
      case WalRecordType::kMembership:
        if (record.round >= checkpoint_next_round) ++plan.replayed;
        break;
      case WalRecordType::kCheckpointMark:
        break;  // audit only: the horizon comes from the loaded checkpoint
    }
  }
  for (const auto& [key, record] : consumed) {
    // A claim feeds the fusion of its own round; a stale application lands
    // in consuming round `aux`'s stale-buffer blob.  Either effect is
    // durable once a checkpoint with next_round past that round exists.
    const std::uint32_t applied_at =
        record->type == WalRecordType::kStaleApplied ? record->aux : record->round;
    if (applied_at < checkpoint_next_round) {
      plan.applied_keys.push_back(key);
      continue;
    }
    Frame frame;
    frame.type = FrameType::kUpload;
    frame.round = record->round;
    frame.client = record->client;
    frame.name = record->name;
    frame.scalars = record->scalars;
    frame.body = record->body;
    plan.uploads.push_back(std::move(frame));
    ++plan.replayed;
  }
  return plan;
}

}  // namespace fedkemf::net
