#pragma once

// Durable run-state checkpoint container.
//
// A checkpoint is a single versioned, CRC-checked file holding named binary
// sections (algorithm state, runner history, watchdog snapshot, ...).  The
// container knows nothing about what the sections mean — the fl layer
// (fl/checkpoint/run_state.hpp) defines the section vocabulary — which keeps
// this library free of fl dependencies and reusable for any other durable
// state.
//
// On-disk layout: a framed record (core/record.hpp), little-endian,
//   [magic u32 = 0xFEDC4B01] [format u32 = kCheckpointFormatVersion]
//   [crc32 u32] [body]
//   body: [next_round u64] [algorithm string] [section_count u32]
//         { [name string] [payload u64-length-prefixed bytes] }*
// The CRC covers the whole body, so a torn write, a bit flip, or a truncation
// is *detected* at load time rather than silently deserialized — the same
// contract as the model wire format (comm/channel.hpp).
//
// Durability: files are staged to `<name>.tmp`, fsync'd, then renamed over
// the destination, and the directory itself is fsync'd after the rename — a
// crash at any instant leaves either the old checkpoint set or the new one,
// never a half-written file under a final name.
//
// A MANIFEST file (plain text, one "<file> <next_round>" line per checkpoint,
// oldest first) names the live checkpoints.  Retention keeps the newest K;
// loading walks the manifest newest-first and falls back across checkpoints
// that fail validation, so one corrupt file costs one checkpoint interval,
// not the run.

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

namespace fedkemf::ckpt {

inline constexpr std::uint32_t kCheckpointMagic = 0xFEDC4B01;
/// v2: RoundRecord gained the elastic-federation counters and the runner
/// section gained the churn/stale-buffer continuation blobs.
/// v3: the stale-buffer blob gained the budget-eviction counter and
/// RoundRecord gained the overload fields (degraded fusion, peak RSS).
inline constexpr std::uint32_t kCheckpointFormatVersion = 3;

struct Section {
  std::string name;
  std::vector<std::uint8_t> bytes;
};

struct Checkpoint {
  std::string algorithm;        ///< Algorithm::name() that produced the state
  std::uint64_t next_round = 0; ///< first round a resumed run executes
  std::vector<Section> sections;

  /// Section by name, or nullptr.
  [[nodiscard]] const Section* find(const std::string& name) const;

  /// Mutable payload for `name`, created on first use.
  std::vector<std::uint8_t>& section(const std::string& name);
};

/// Serializes `checkpoint` to the container format (header + CRC + body).
std::vector<std::uint8_t> encode_checkpoint(const Checkpoint& checkpoint);

/// Parses and validates a container; throws std::runtime_error naming the
/// failure (bad magic, unsupported version, CRC mismatch, truncation).
Checkpoint decode_checkpoint(std::span<const std::uint8_t> payload);

/// Stage + fsync + rename write of `bytes` to `path` (see header comment).
/// Throws std::runtime_error on I/O failure.
void atomic_write_file(const std::string& path, std::span<const std::uint8_t> bytes);

/// Reads a whole file; throws std::runtime_error when unreadable.
std::vector<std::uint8_t> read_file(const std::string& path);

struct ManifestEntry {
  std::string file;            ///< file name relative to the checkpoint dir
  std::uint64_t next_round = 0;
};

class CheckpointManager {
 public:
  /// Manages checkpoints under `dir` (created if missing), retaining the
  /// newest `retain` files.  retain must be >= 1.
  explicit CheckpointManager(std::string dir, std::size_t retain = 3);

  const std::string& dir() const { return dir_; }
  std::size_t retain() const { return retain_; }

  /// Atomically writes `checkpoint`, appends it to the manifest, and prunes
  /// beyond the retention budget.  Returns the full path written.
  std::string write(const Checkpoint& checkpoint);

  /// Live manifest, oldest first.  Falls back to scanning the directory for
  /// ckpt_*.bin files when the MANIFEST itself is missing or unreadable.
  [[nodiscard]] std::vector<ManifestEntry> manifest() const;

  /// True when at least one checkpoint file is on disk ("resume or start
  /// fresh" probe — does not validate contents).
  [[nodiscard]] bool has_checkpoint() const;

  /// Loads the newest checkpoint that passes validation, skipping (with a
  /// logged warning) any newer entry that fails CRC/parse.  nullopt when no
  /// valid checkpoint exists.
  [[nodiscard]] std::optional<Checkpoint> load_latest_valid() const;

 private:
  void write_manifest(const std::vector<ManifestEntry>& entries) const;

  std::string dir_;
  std::size_t retain_;
};

}  // namespace fedkemf::ckpt
