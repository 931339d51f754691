#pragma once

// Communication substrate.
//
// Every model that moves between server and clients in the simulator is
// marshalled through Channel::transfer(), which serializes the source model
// to a real byte buffer, meters the buffer size, and deserializes into the
// destination.  The communication-cost tables are therefore *measured* from
// actual wire payloads rather than computed from parameter counts (DESIGN.md
// decision #3).  A bandwidth/latency LinkModel converts bytes into simulated
// transfer time for the cost analyses.
//
// A Channel may carry a FaultHook (sim::FaultInjector implements it): each
// delivery attempt is offered to the hook, which can drop or corrupt the
// payload.  Corruption is *detected* — the wire format carries a CRC32 — and
// failed attempts are retried per the channel's RetryPolicy; every attempt is
// metered, because its bytes really crossed the (simulated) link.

#include <atomic>
#include <cstdint>
#include <functional>
#include <mutex>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/record.hpp"
#include "nn/module.hpp"

namespace fedkemf::comm {

// ---- Model wire format ----
// A framed record (core/record.hpp) of version 2:
//   [magic u32 = 0xFEDC0DE5] [version u32 = 2] [crc32 u32] [tensor_count u32]
//   tensors...
// The crc32 covers every byte after the checksum field (tensor_count +
// tensors), so any bit flip in the body — or in the checksum itself — is
// detected on deserialization.
// Tensor order: parameters in module order, then buffers in module order —
// the same deterministic order Module::parameters()/buffers() guarantees.

inline constexpr std::uint32_t kModelMagic = 0xFEDC0DE5;
inline constexpr std::uint32_t kModelVersion = 2;

/// A payload failed its CRC32 integrity check (or a fault-corrupted payload
/// was caught by a structural check before the CRC could be verified).
class ChecksumError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// The model wire format's header: every header or CRC failure is a
/// ChecksumError.
inline constexpr core::RecordFormat kModelRecord{"model", kModelMagic, kModelVersion, 0,
                                                 core::throw_error<ChecksumError>};

/// A transfer was abandoned after exhausting its retry budget (every attempt
/// was dropped or corrupted in flight).
class TransferFailed : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

/// Serializes parameters + buffers of `model` (wire format version 2).
std::vector<std::uint8_t> serialize_model(nn::Module& model);

/// Loads a payload produced by serialize_model into `model` (architectures
/// must match; throws ChecksumError on header and integrity failures,
/// std::runtime_error on malformed payloads and std::invalid_argument on
/// shape mismatches).
void deserialize_model(std::span<const std::uint8_t> payload, nn::Module& model);

/// Exact number of bytes serialize_model would produce.
std::size_t model_wire_size(nn::Module& model);

// ---- Traffic metering ----

enum class Direction { kDownlink, kUplink };

struct TrafficRecord {
  std::size_t round = 0;
  std::size_t client_id = 0;
  Direction direction = Direction::kDownlink;
  std::size_t bytes = 0;
  std::string payload;   ///< e.g. "knowledge_net", "model", "control_variate"
};

/// Thread-safe accumulator of every transfer in a run.
///
/// Concurrency contract (the epoll server meters uploads from many
/// connections at once): record() may be called from any number of threads
/// concurrently with any mix of readers.  The aggregate totals
/// (total/uplink/downlink bytes, transfer count) are kept in relaxed atomics
/// updated alongside the locked record list, so the hot-path queries the
/// simulator makes per client never contend with recording; per-round and
/// per-client breakdowns scan the list under the mutex.  Totals are exact
/// once the writers quiesce; a concurrent reader may observe a record whose
/// bytes are in the atomic but not yet in the list (or vice versa never —
/// atomics are updated first).
class TrafficMeter {
 public:
  void record(const TrafficRecord& record);

  std::size_t total_bytes() const;
  std::size_t uplink_bytes() const;
  std::size_t downlink_bytes() const;
  std::size_t bytes_for_round(std::size_t round) const;
  std::size_t bytes_for_client(std::size_t client_id) const;
  /// Bytes a single client moved during a single round (both directions) —
  /// what the simulated round clock converts into transfer time.
  std::size_t bytes_for(std::size_t round, std::size_t client_id) const;
  std::size_t num_transfers() const;

  /// Mean of (total bytes in round r) over rounds that had traffic.
  double mean_bytes_per_round() const;

  std::vector<TrafficRecord> records() const;

  void reset();

 private:
  mutable std::mutex mutex_;
  std::vector<TrafficRecord> records_;
  std::atomic<std::size_t> total_bytes_{0};
  std::atomic<std::size_t> uplink_bytes_{0};
  std::atomic<std::size_t> downlink_bytes_{0};
  std::atomic<std::size_t> num_transfers_{0};
};

enum class Codec : std::uint8_t;  // comm/compression.hpp

// ---- Fault injection hook ----

/// Interposes on every delivery attempt of a payload.  Implementations must
/// be thread-safe and derive all randomness from (round, client, direction,
/// attempt) so fault schedules are deterministic regardless of the thread
/// pool size.  sim::FaultInjector is the canonical implementation.
class FaultHook {
 public:
  enum class Action {
    kDeliver,  ///< payload arrives intact
    kCorrupt,  ///< payload was mutated in flight (hook already flipped bits)
    kDrop,     ///< payload lost; nothing arrives
  };

  virtual ~FaultHook() = default;

  /// Called once per attempt, before delivery.  May mutate `payload` (and
  /// must return kCorrupt if it did).
  virtual Action on_payload(std::size_t round, std::size_t client_id,
                            Direction direction, std::size_t attempt,
                            std::vector<std::uint8_t>& payload) = 0;
};

// ---- Transport seam ----

/// Moves one delivery attempt's payload across a (possibly real) link.
///
/// The default channel behavior — no transport installed — is pure in-process
/// delivery: the serialized payload is handed straight to the decoder.  A
/// Transport interposes on every attempt and can (a) pass the payload through
/// untouched (kLocal: an in-process leg, e.g. a client id no remote peer
/// owns), (b) substitute the bytes that actually arrived over a socket
/// (kReplaced: the uplink case — the decoder then consumes *wire* bytes, so
/// the CRC check covers the real network), or (c) report the attempt lost
/// (kDropped: a receive deadline expired or the peer vanished), which the
/// channel retries per its RetryPolicy exactly like a fault-injected drop.
///
/// Implementations must be thread-safe: the round loop delivers from many
/// pool threads concurrently.  net::ServerTransport / net::ClientTransport
/// (src/net/transport.hpp) are the socket implementations.
class Transport {
 public:
  enum class Outcome {
    kLocal,     ///< payload delivered as-is (in-process leg)
    kReplaced,  ///< payload swapped for the bytes received over the wire
    kDropped,   ///< attempt lost in transit; retry per policy
  };

  virtual ~Transport() = default;

  /// One delivery attempt.  May replace `payload` (and must return kReplaced
  /// if it did).  `attempt` counts retries of this transfer from 0.
  virtual Outcome attempt(std::vector<std::uint8_t>& payload, std::size_t round,
                          std::size_t client_id, Direction direction,
                          std::size_t attempt, const std::string& payload_name) = 0;
};

/// How a channel reacts to dropped/corrupted attempts.  Backoff is simulated
/// time, accounted by sim::Simulator — the process never sleeps.
struct RetryPolicy {
  std::size_t max_attempts = 3;
  double backoff_seconds = 0.05;    ///< wait before the first retry
  double backoff_multiplier = 2.0;  ///< exponential growth per further retry
  /// Decorrelated jitter (the AWS "decorrelated" strategy): each wait is
  /// drawn uniformly from [backoff_seconds, 3 * previous wait], capped at
  /// max_backoff_seconds.  Plain exponential backoff keeps every client that
  /// failed in the same fault window perfectly synchronized, so their
  /// retries stampede the link together; jitter decorrelates them.  Off by
  /// default (bit-compatible with the original deterministic schedule).
  bool decorrelated_jitter = false;
  double max_backoff_seconds = 5.0;  ///< jittered-wait cap
};

/// Total simulated backoff a client waits across `failures` failed attempts
/// under `policy`.  Without jitter this is the deterministic exponential sum
/// backoff * multiplier^i; with decorrelated_jitter the waits are drawn from
/// the stream seeded by `jitter_seed`, so the schedule is a pure function of
/// (policy, failures, seed) — deterministic, but different per (round,
/// client) when callers derive the seed from a per-client stream tag.
double retry_backoff_seconds(const RetryPolicy& policy, std::size_t failures,
                             std::uint64_t jitter_seed = 0);

/// Marshalling channel bound to a meter.
class Channel {
 public:
  explicit Channel(TrafficMeter* meter) : meter_(meter) {}

  /// Serializes `src`, meters the payload, deserializes into `dst`.
  /// Returns the payload size in bytes (one attempt's worth).  With a fault
  /// hook installed, dropped/corrupted attempts are retried up to
  /// RetryPolicy::max_attempts; throws TransferFailed once exhausted.
  std::size_t transfer(nn::Module& src, nn::Module& dst, std::size_t round,
                       std::size_t client_id, Direction direction,
                       const std::string& payload_name);

  /// Same, but through a lossy codec (comm/compression.hpp). kFp32 behaves
  /// like transfer() except for a few header bytes.
  std::size_t transfer_compressed(nn::Module& src, nn::Module& dst, std::size_t round,
                                  std::size_t client_id, Direction direction,
                                  const std::string& payload_name, Codec codec);

  /// Meters a raw payload that is not a model (e.g. SCAFFOLD control
  /// variates, FedNova step counts).  Returns `bytes` for convenience.
  /// Raw payloads bypass the fault hook: they are bookkeeping stand-ins with
  /// no real buffer to corrupt.
  std::size_t transfer_raw(std::size_t bytes, std::size_t round, std::size_t client_id,
                           Direction direction, const std::string& payload_name);

  TrafficMeter* meter() const { return meter_; }

  /// Installs (or clears, with nullptr) the fault hook consulted on every
  /// model transfer attempt.  Not thread-safe: install before the round loop.
  void set_fault_hook(FaultHook* hook) { fault_hook_ = hook; }
  FaultHook* fault_hook() const { return fault_hook_; }

  void set_retry_policy(const RetryPolicy& policy) { retry_ = policy; }
  const RetryPolicy& retry_policy() const { return retry_; }

  /// Installs (or clears, with nullptr) the transport that carries every
  /// delivery attempt.  nullptr (default) is pure in-process delivery —
  /// bit-identical to the historical behavior.  Not thread-safe: install
  /// before the round loop.  With a transport installed, dropped attempts
  /// are retried up to RetryPolicy::max_attempts even without a fault hook.
  void set_transport(Transport* transport) { transport_ = transport; }
  Transport* transport() const { return transport_; }

 private:
  /// Shared attempt loop: offers `payload` to the fault hook, meters every
  /// attempt, and calls `decode` on whatever arrives.  Throws TransferFailed
  /// after max_attempts dropped/corrupted deliveries.
  void deliver(const std::vector<std::uint8_t>& payload,
               const std::function<void(std::span<const std::uint8_t>)>& decode,
               std::size_t round, std::size_t client_id, Direction direction,
               const std::string& payload_name);

  TrafficMeter* meter_;
  FaultHook* fault_hook_ = nullptr;
  Transport* transport_ = nullptr;
  RetryPolicy retry_;
};

// ---- Link cost model ----

/// Simple bandwidth+latency model used to translate measured bytes into
/// simulated wall-clock transfer time.  Defaults approximate a WAN edge
/// uplink (20 Mbit/s, 40 ms RTT).
struct LinkModel {
  double bandwidth_bytes_per_second = 20e6 / 8.0;
  double latency_seconds = 0.04;

  [[nodiscard]] double transfer_seconds(std::size_t bytes) const {
    return latency_seconds + static_cast<double>(bytes) / bandwidth_bytes_per_second;
  }
};

}  // namespace fedkemf::comm
