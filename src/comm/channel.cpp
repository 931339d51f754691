#include "comm/channel.hpp"

#include <stdexcept>

#include "comm/compression.hpp"
#include "core/rng.hpp"
#include "core/serialize.hpp"
#include "obs/metrics.hpp"
#include "obs/trace.hpp"

namespace fedkemf::comm {

namespace {

/// Cached instrument references — deliver() sits on every wire transfer.
struct CommMetrics {
  obs::Counter& attempts;
  obs::Counter& delivered;
  obs::Counter& dropped;
  obs::Counter& corrupted;
  obs::Counter& retries;
  obs::Counter& failed;
  obs::Counter& bytes;
  obs::Histogram& payload_bytes;

  static CommMetrics& get() {
    auto& registry = obs::MetricsRegistry::global();
    static CommMetrics metrics{
        registry.counter("comm.attempts"),
        registry.counter("comm.delivered"),
        registry.counter("comm.dropped"),
        registry.counter("comm.corrupted"),
        registry.counter("comm.retries"),
        registry.counter("comm.transfer_failed"),
        registry.counter("comm.bytes"),
        registry.histogram("comm.payload_bytes", obs::Histogram::byte_bounds()),
    };
    return metrics;
  }
};

}  // namespace

std::vector<std::uint8_t> serialize_model(nn::Module& model) {
  core::ByteWriter writer = core::begin_record();
  const auto params = model.parameters();
  const auto buffers = model.buffers();
  writer.write_u32(static_cast<std::uint32_t>(params.size() + buffers.size()));
  for (nn::Parameter* p : params) core::write_tensor(writer, p->value);
  for (nn::Buffer* b : buffers) core::write_tensor(writer, b->value);
  std::vector<std::uint8_t> payload = writer.take();
  core::seal_record(payload, kModelMagic, kModelVersion);
  return payload;
}

void deserialize_model(std::span<const std::uint8_t> payload, nn::Module& model) {
  core::ByteReader reader(core::open_record(payload, kModelRecord));
  const std::uint32_t count = reader.read_u32();
  const auto params = model.parameters();
  const auto buffers = model.buffers();
  if (count != params.size() + buffers.size()) {
    throw std::invalid_argument("deserialize_model: tensor count mismatch (payload " +
                                std::to_string(count) + ", model " +
                                std::to_string(params.size() + buffers.size()) + ")");
  }
  for (nn::Parameter* p : params) {
    const std::size_t offset = reader.position();
    core::Tensor t = core::read_tensor(reader);
    if (t.shape() != p->value.shape()) {
      throw std::invalid_argument("deserialize_model: parameter shape mismatch at body offset " +
                                  std::to_string(offset) + " (" + t.shape().to_string() +
                                  " vs " + p->value.shape().to_string() + ")");
    }
    p->value = std::move(t);
    p->grad = core::Tensor::zeros(p->value.shape());
  }
  for (nn::Buffer* b : buffers) {
    const std::size_t offset = reader.position();
    core::Tensor t = core::read_tensor(reader);
    if (t.shape() != b->value.shape()) {
      throw std::invalid_argument("deserialize_model: buffer shape mismatch at body offset " +
                                  std::to_string(offset) + " (" + t.shape().to_string() +
                                  " vs " + b->value.shape().to_string() + ")");
    }
    b->value = std::move(t);
  }
  if (!reader.exhausted()) {
    throw std::runtime_error("deserialize_model: " + std::to_string(reader.remaining()) +
                             " trailing bytes at body offset " +
                             std::to_string(reader.position()));
  }
}

std::size_t model_wire_size(nn::Module& model) {
  std::size_t total = core::kRecordHeaderBytes + 4;  // header + tensor count
  for (nn::Parameter* p : model.parameters()) total += core::tensor_wire_size(p->value);
  for (nn::Buffer* b : model.buffers()) total += core::tensor_wire_size(b->value);
  return total;
}

void TrafficMeter::record(const TrafficRecord& rec) {
  // Aggregates first, list second: a concurrent total_bytes() may run ahead
  // of records() by at most the in-flight record, never behind it.
  total_bytes_.fetch_add(rec.bytes, std::memory_order_relaxed);
  if (rec.direction == Direction::kUplink) {
    uplink_bytes_.fetch_add(rec.bytes, std::memory_order_relaxed);
  } else {
    downlink_bytes_.fetch_add(rec.bytes, std::memory_order_relaxed);
  }
  num_transfers_.fetch_add(1, std::memory_order_relaxed);
  std::lock_guard<std::mutex> lock(mutex_);
  records_.push_back(rec);
}

std::size_t TrafficMeter::total_bytes() const {
  return total_bytes_.load(std::memory_order_relaxed);
}

std::size_t TrafficMeter::uplink_bytes() const {
  return uplink_bytes_.load(std::memory_order_relaxed);
}

std::size_t TrafficMeter::downlink_bytes() const {
  return downlink_bytes_.load(std::memory_order_relaxed);
}

std::size_t TrafficMeter::bytes_for_round(std::size_t round) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& r : records_) {
    if (r.round == round) total += r.bytes;
  }
  return total;
}

std::size_t TrafficMeter::bytes_for_client(std::size_t client_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& r : records_) {
    if (r.client_id == client_id) total += r.bytes;
  }
  return total;
}

std::size_t TrafficMeter::bytes_for(std::size_t round, std::size_t client_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  std::size_t total = 0;
  for (const auto& r : records_) {
    if (r.round == round && r.client_id == client_id) total += r.bytes;
  }
  return total;
}

std::size_t TrafficMeter::num_transfers() const {
  return num_transfers_.load(std::memory_order_relaxed);
}

double TrafficMeter::mean_bytes_per_round() const {
  std::lock_guard<std::mutex> lock(mutex_);
  if (records_.empty()) return 0.0;
  std::size_t max_round = 0;
  for (const auto& r : records_) max_round = std::max(max_round, r.round);
  std::vector<std::size_t> per_round(max_round + 1, 0);
  for (const auto& r : records_) per_round[r.round] += r.bytes;
  std::size_t total = 0;
  std::size_t active_rounds = 0;
  for (std::size_t bytes : per_round) {
    if (bytes > 0) {
      total += bytes;
      ++active_rounds;
    }
  }
  return active_rounds == 0 ? 0.0
                            : static_cast<double>(total) / static_cast<double>(active_rounds);
}

std::vector<TrafficRecord> TrafficMeter::records() const {
  std::lock_guard<std::mutex> lock(mutex_);
  return records_;
}

void TrafficMeter::reset() {
  std::lock_guard<std::mutex> lock(mutex_);
  records_.clear();
  total_bytes_.store(0, std::memory_order_relaxed);
  uplink_bytes_.store(0, std::memory_order_relaxed);
  downlink_bytes_.store(0, std::memory_order_relaxed);
  num_transfers_.store(0, std::memory_order_relaxed);
}

void Channel::deliver(const std::vector<std::uint8_t>& payload,
                      const std::function<void(std::span<const std::uint8_t>)>& decode,
                      std::size_t round, std::size_t client_id, Direction direction,
                      const std::string& payload_name) {
  obs::TraceSpan span("comm.deliver");
  CommMetrics& metrics = CommMetrics::get();
  const std::size_t max_attempts =
      fault_hook_ != nullptr || transport_ != nullptr
          ? std::max<std::size_t>(1, retry_.max_attempts)
          : 1;
  for (std::size_t attempt = 0; attempt < max_attempts; ++attempt) {
    std::vector<std::uint8_t> wire = payload;
    FaultHook::Action action =
        fault_hook_ != nullptr
            ? fault_hook_->on_payload(round, client_id, direction, attempt, wire)
            : FaultHook::Action::kDeliver;
    // The transport carries whatever survived the fault hook.  A transport
    // drop (receive deadline, vanished peer) is handled exactly like a
    // fault-injected drop: metered, counted, retried per policy.
    if (transport_ != nullptr && action != FaultHook::Action::kDrop) {
      const Transport::Outcome outcome = transport_->attempt(
          wire, round, client_id, direction, attempt, payload_name);
      if (outcome == Transport::Outcome::kDropped) action = FaultHook::Action::kDrop;
    }
    // Every attempt is metered: dropped or corrupted payloads still consumed
    // the link.
    if (meter_ != nullptr) {
      meter_->record({round, client_id, direction, wire.size(), payload_name});
    }
    metrics.attempts.add(1);
    if (attempt > 0) metrics.retries.add(1);
    metrics.bytes.add(wire.size());
    metrics.payload_bytes.observe(static_cast<double>(wire.size()));
    switch (action) {
      case FaultHook::Action::kDrop:
        metrics.dropped.add(1);
        continue;
      case FaultHook::Action::kDeliver:
        decode(wire);  // genuine decode errors (arch mismatch, bugs) propagate
        metrics.delivered.add(1);
        return;
      case FaultHook::Action::kCorrupt:
        metrics.corrupted.add(1);
        try {
          decode(wire);
          // Corruption that escapes every integrity check is delivered as-is
          // (cannot happen for wire format v2, whose CRC covers the payload).
          metrics.delivered.add(1);
          return;
        } catch (const std::exception&) {
          continue;  // detected — retry per policy
        }
    }
  }
  metrics.failed.add(1);
  throw TransferFailed("transfer failed: '" + payload_name + "' round " +
                       std::to_string(round) + " client " + std::to_string(client_id) +
                       " gave up after " + std::to_string(max_attempts) + " attempts");
}

std::size_t Channel::transfer(nn::Module& src, nn::Module& dst, std::size_t round,
                              std::size_t client_id, Direction direction,
                              const std::string& payload_name) {
  std::vector<std::uint8_t> payload;
  {
    obs::TraceSpan span("comm.serialize");
    payload = serialize_model(src);
  }
  deliver(payload,
          [&dst](std::span<const std::uint8_t> bytes) { deserialize_model(bytes, dst); },
          round, client_id, direction, payload_name);
  return payload.size();
}

std::size_t Channel::transfer_compressed(nn::Module& src, nn::Module& dst, std::size_t round,
                                         std::size_t client_id, Direction direction,
                                         const std::string& payload_name, Codec codec) {
  std::vector<std::uint8_t> payload;
  {
    obs::TraceSpan span("comm.serialize");
    payload = encode_model(src, codec);
  }
  deliver(payload,
          [&dst](std::span<const std::uint8_t> bytes) { decode_model(bytes, dst); },
          round, client_id, direction, payload_name + "/" + to_string(codec));
  return payload.size();
}

std::size_t Channel::transfer_raw(std::size_t bytes, std::size_t round, std::size_t client_id,
                                  Direction direction, const std::string& payload_name) {
  if (meter_ != nullptr) {
    meter_->record({round, client_id, direction, bytes, payload_name});
  }
  return bytes;
}

double retry_backoff_seconds(const RetryPolicy& policy, std::size_t failures,
                             std::uint64_t jitter_seed) {
  if (!policy.decorrelated_jitter) {
    // Deterministic exponential schedule: the i-th failure costs one wait of
    // backoff * multiplier^i before its retry.
    double total = 0.0;
    double step = policy.backoff_seconds;
    for (std::size_t i = 0; i < failures; ++i) {
      total += step;
      step *= policy.backoff_multiplier;
    }
    return total;
  }
  const double base = policy.backoff_seconds;
  const double cap = policy.max_backoff_seconds > base ? policy.max_backoff_seconds : base;
  core::Rng rng(jitter_seed);
  double total = 0.0;
  double previous = base;
  for (std::size_t i = 0; i < failures; ++i) {
    const double hi = previous * 3.0 < cap ? previous * 3.0 : cap;
    const double wait = hi > base ? rng.uniform(base, hi) : base;
    total += wait;
    previous = wait;
  }
  return total;
}

}  // namespace fedkemf::comm
