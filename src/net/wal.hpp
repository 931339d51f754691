#pragma once

// Write-ahead log of the durable elastic server.
//
// The elastic round loop keeps the federation's hot state in memory: parked
// uploads, membership, the stale buffer, and the algorithm's weights.  Full
// checkpoints (the ckpt:: container, written every --checkpoint-every rounds)
// make round boundaries durable; the WAL makes the *interval between
// checkpoints* recoverable.  Every event whose loss would change the resumed
// run is appended before it takes effect:
//
//   kRoundStart      round R began (the resume cursor's upper bound)
//   kUploadClaimed   await_upload handed a parked frame to aggregation during
//                    its own round — full frame, payload included, so the
//                    client's finished work survives the server
//   kStaleApplied    take_stale_uploads drained a parked frame into the stale
//                    buffer at consuming round `aux` — payload included
//   kMembership      a registered client joined (flag bit0, bit1 = rejoin) or
//                    left during round `round` — audit trail for the soak
//   kCheckpointMark  a full checkpoint with next_round = `round` was durably
//                    written; everything whose effect landed in earlier
//                    rounds is now baked into it
//
// Uploads are journaled when the round loop *consumes* them, not when the
// epoll loop parks them: consumption runs on the service thread, so durable
// logging never serializes the transport hot path, and the record set is
// exactly the set of uploads whose loss would change the resumed run.  An
// upload that was parked but never consumed before a crash is simply
// re-trained: the resumed round re-TASKs its reconnecting client.
//
// Record framing: a length-framed record (core/record.hpp) in the field
// order of a wire frame, [magic u32][length u32][crc32 u32][payload], CRC
// over the payload.  A torn tail, a truncation or a bit flip is *detected* —
// replay stops at the last valid record (one interval lost, never a crash or
// silent corruption), exactly the checkpoint container's contract.  Opening
// an existing log truncates the torn tail before appending, so a crashed
// process never poisons its successor's log.
//
// Durability policy: every append is flushed to the kernel (fwrite+fflush),
// so the log survives any process death — SIGKILL included.  fsync happens at
// round boundaries and checkpoints (sync()), so an OS/power crash costs at
// most the current round, the same interval a checkpoint already bounds.
//
// Recovery is split into a pure planning function (plan_wal_recovery,
// unit-tested against torn logs) and the injection hooks on EpollServer
// (recover_upload / mark_upload_applied): an upload whose consumption landed
// in a round the loaded checkpoint covers is only *remembered* (idempotency —
// a redelivery must not re-apply it); every other upload is re-parked, where
// the resumed round claims it or the stale path discounts it.

#include <cstdint>
#include <cstdio>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "net/frame.hpp"

namespace fedkemf::net {

inline constexpr std::uint32_t kWalMagic = 0xFEDAF11Eu;

enum class WalRecordType : std::uint8_t {
  kRoundStart = 1,
  kUploadClaimed = 2,
  kStaleApplied = 3,
  kMembership = 4,
  kCheckpointMark = 5,
};

/// One logged event.  Field use by type:
///   kRoundStart      round
///   kUploadClaimed   round/client/name/scalars/body — the full parked frame,
///                    claimed by its own round's fusion
///   kStaleApplied    round/client/name/scalars/body = the *origin* frame,
///                    aux = the round whose stale ingestion consumed it
///   kMembership      round = current round, client, flag (bit0 joined,
///                    bit1 rejoin)
///   kCheckpointMark  round = the checkpoint's next_round
struct WalRecord {
  WalRecordType type = WalRecordType::kRoundStart;
  std::uint32_t round = 0;
  std::uint32_t client = 0;
  std::uint32_t aux = 0;
  std::uint8_t flag = 0;
  std::string name;
  std::vector<double> scalars;
  std::vector<std::uint8_t> body;
};

/// Serializes one record to the framed on-disk form.
std::vector<std::uint8_t> encode_wal_record(const WalRecord& record);

/// What a sequential scan of a log file found.
struct WalScan {
  std::vector<WalRecord> records;  ///< every record up to the first invalid one
  std::size_t valid_bytes = 0;     ///< file offset where the valid prefix ends
  bool torn = false;               ///< trailing bytes past the valid prefix
};

/// Reads `path` front to back, stopping at the first truncated/corrupt
/// record.  A missing file scans as empty; an unreadable one throws.
WalScan scan_wal(const std::string& path);

/// Append-only writer.  Thread-safe (the epoll loop and the round loop both
/// append); every append lands in the kernel before it returns.
class WriteAheadLog {
 public:
  /// Opens `path` for appending, truncating any torn tail first (see header
  /// comment).  Throws std::runtime_error when the file cannot be opened.
  explicit WriteAheadLog(const std::string& path);
  ~WriteAheadLog();

  WriteAheadLog(const WriteAheadLog&) = delete;
  WriteAheadLog& operator=(const WriteAheadLog&) = delete;

  const std::string& path() const { return path_; }

  /// Encodes, writes, and flushes one record.  Throws on I/O failure — a
  /// server that cannot log must not pretend to be durable.
  void append(const WalRecord& record);

  /// fsync the log (round boundaries / checkpoints — see durability policy).
  void sync();

  std::size_t records_appended() const;
  std::size_t bytes_appended() const;

 private:
  /// Extends the file in extent-sized chunks ahead of the append cursor
  /// (mutex held).  The zero tail this leaves is trimmed on clean close and
  /// scans as torn — truncated like any other torn tail — after a kill.
  void reserve_capacity(std::size_t need);

  std::string path_;
  mutable std::mutex mutex_;
  std::FILE* file_ = nullptr;
  std::size_t records_appended_ = 0;
  std::size_t bytes_appended_ = 0;
  std::size_t logical_size_ = 0;   ///< end of the valid record prefix
  std::size_t preallocated_ = 0;   ///< end of the fallocated region
  bool preallocate_ = true;        ///< cleared when the filesystem says no
};

/// The restart plan derived from (checkpoint, WAL suffix).
struct WalRecovery {
  /// Consumed frames whose effect the checkpoint does NOT cover — re-park
  /// them so the resumed round claims them (or the stale path discounts
  /// them) without the client retraining.
  std::vector<Frame> uploads;
  /// Keys of uploads the checkpoint already covers — seed the idempotency
  /// set so a redelivery is re-ACKed but never re-applied.
  std::vector<std::string> applied_keys;
  /// Records whose effect had to be replayed (round starts, memberships and
  /// re-parked uploads past the checkpoint horizon) — the `wal.replayed`
  /// counter.
  std::size_t replayed = 0;
  /// Highest kRoundStart seen (audit: the round in flight at the crash).
  std::uint32_t last_round_started = 0;
};

/// Pure planning: classifies every logged upload against the checkpoint
/// horizon `checkpoint_next_round`.  A claim during round r is durable iff
/// r < horizon (its fusion landed in a checkpointed round); a stale
/// application at consuming round `aux` is durable iff aux < horizon (the
/// checkpointed stale-buffer blob carries it).  Everything else is re-parked.
WalRecovery plan_wal_recovery(const std::vector<WalRecord>& records,
                              std::uint64_t checkpoint_next_round);

}  // namespace fedkemf::net
