#include "net/transport.hpp"

#include <chrono>
#include <optional>
#include <thread>

#include "core/record.hpp"
#include "obs/metrics.hpp"

namespace fedkemf::net {

namespace {

std::uint64_t leg_key(std::size_t round, std::size_t client_id) {
  return (static_cast<std::uint64_t>(round) << 32) | static_cast<std::uint64_t>(client_id);
}

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

/// Deterministic per-attempt fault stream: hash everything that identifies
/// the attempt, then derive independent uniform draws from it.
std::uint64_t fault_hash(std::uint64_t seed, std::size_t round, std::size_t client,
                         comm::Direction direction, std::size_t attempt,
                         const std::string& name) {
  std::uint64_t h = seed ^ 0x9e3779b97f4a7c15ull;
  h = mix64(h ^ round);
  h = mix64(h ^ (static_cast<std::uint64_t>(client) << 1));
  h = mix64(h ^ (direction == comm::Direction::kUplink ? 0x5555ull : 0xaaaaull));
  h = mix64(h ^ attempt);
  for (const char c : name) h = mix64(h ^ static_cast<std::uint8_t>(c));
  return h;
}

double uniform_from(std::uint64_t h, std::uint64_t salt) {
  return static_cast<double>(mix64(h ^ salt) >> 11) * 0x1.0p-53;
}

}  // namespace

FaultyTransport::Outcome FaultyTransport::attempt(std::vector<std::uint8_t>& payload,
                                                  std::size_t round, std::size_t client_id,
                                                  comm::Direction direction,
                                                  std::size_t attempt,
                                                  const std::string& payload_name) {
  const std::uint64_t h =
      fault_hash(options_.seed, round, client_id, direction, attempt, payload_name);
  if (uniform_from(h, 0xD207ull) < options_.drop_rate) {
    drops_.fetch_add(1, std::memory_order_relaxed);
    static auto& counter = obs::MetricsRegistry::global().counter("net.faulty.drops");
    counter.add(1);
    return Outcome::kDropped;  // the attempt never reaches the inner transport
  }
  if (uniform_from(h, 0xDE1Aull) < options_.delay_rate && options_.delay_seconds > 0.0) {
    delays_.fetch_add(1, std::memory_order_relaxed);
    static auto& counter = obs::MetricsRegistry::global().counter("net.faulty.delays");
    counter.add(1);
    std::this_thread::sleep_for(std::chrono::duration<double>(options_.delay_seconds));
  }
  const Outcome outcome =
      inner_.attempt(payload, round, client_id, direction, attempt, payload_name);
  if (!payload.empty() && uniform_from(h, 0xC0B7ull) < options_.corrupt_rate) {
    corruptions_.fetch_add(1, std::memory_order_relaxed);
    static auto& counter = obs::MetricsRegistry::global().counter("net.faulty.corruptions");
    counter.add(1);
    payload[mix64(h ^ 0xF11Bull) % payload.size()] ^= 0x40;
  }
  return outcome;
}

void screen_wire_body(const std::vector<std::uint8_t>& body) {
  const std::optional<core::RecordHeader> header = core::peek_record_header(body);
  if (header && header->magic != comm::kModelMagic) return;  // codec-framed; its decoder checks
  validate_model_body(body);
}

bool ServerTransport::remote_leg(std::size_t round, std::size_t client_id) const {
  std::lock_guard<std::mutex> lock(mutex_);
  return remote_legs_.count(leg_key(round, client_id)) != 0;
}

void ServerTransport::mark_remote(std::size_t round, std::size_t client_id) {
  std::lock_guard<std::mutex> lock(mutex_);
  remote_legs_.insert(leg_key(round, client_id));
}

comm::Transport::Outcome ServerTransport::attempt(std::vector<std::uint8_t>& payload,
                                                  std::size_t round, std::size_t client_id,
                                                  comm::Direction direction,
                                                  std::size_t attempt,
                                                  const std::string& payload_name) {
  if (direction == comm::Direction::kDownlink) {
    Frame task;
    task.type = FrameType::kTask;
    task.round = static_cast<std::uint32_t>(round);
    task.client = static_cast<std::uint32_t>(client_id);
    task.name = payload_name;
    task.body = payload;
    const bool sent = server_.send_task(static_cast<std::uint32_t>(client_id), std::move(task));
    if (sent) {
      mark_remote(round, client_id);
      return Outcome::kLocal;  // local bytes == remote bytes by lockstep
    }
    if (remote_leg(round, client_id)) {
      // The owner vanished mid-round after an earlier payload reached it.
      if (options_.strict) {
        throw MirrorDesync("mirror: client " + std::to_string(client_id) +
                           "'s owner disconnected mid-round " + std::to_string(round));
      }
      return Outcome::kDropped;
    }
    return Outcome::kLocal;  // nobody owns this id: a pure in-process leg
  }

  // Uplink: only legs whose downlink reached a remote owner come back over
  // the wire; everything else stays in-process.
  if (!remote_leg(round, client_id)) return Outcome::kLocal;
  // Retry attempts after a timeout only poll: the peer will not re-send, so
  // a second full wait would just burn the round's clock.
  const Deadline deadline =
      attempt == 0 ? Deadline::after(options_.await_timeout_seconds) : Deadline::after(0);
  std::optional<Frame> upload = server_.await_upload(
      static_cast<std::uint32_t>(round), static_cast<std::uint32_t>(client_id), payload_name,
      deadline);
  if (!upload) {
    if (options_.strict) {
      throw MirrorDesync("mirror: no UPLOAD for client " + std::to_string(client_id) +
                         " round " + std::to_string(round) + " payload '" + payload_name +
                         "' (peer lost or deadline expired)");
    }
    return Outcome::kDropped;
  }
  // Strict mode surfaces the typed ChecksumError, the delivery contract's
  // promise for malformed wire payloads.  Elastic mode treats a corrupt
  // upload like a lost one: dropped, retried, recorded.
  try {
    screen_wire_body(upload->body);
  } catch (const comm::ChecksumError&) {
    if (options_.strict) throw;
    return Outcome::kDropped;
  }
  payload = std::move(upload->body);
  return Outcome::kReplaced;
}

ClientTransport::ClientTransport(ClientSession& session, std::vector<std::size_t> owned,
                                 TransportOptions options)
    : session_(session), owned_(owned.begin(), owned.end()), options_(options) {}

comm::Transport::Outcome ClientTransport::attempt(std::vector<std::uint8_t>& payload,
                                                  std::size_t round, std::size_t client_id,
                                                  comm::Direction direction,
                                                  std::size_t attempt,
                                                  const std::string& payload_name) {
  if (owned_.count(client_id) == 0) return Outcome::kLocal;

  if (direction == comm::Direction::kDownlink) {
    const Deadline deadline =
        attempt == 0 ? Deadline::after(options_.await_timeout_seconds) : Deadline::after(0);
    std::optional<Frame> task;
    try {
      task = session_.await_task(static_cast<std::uint32_t>(round),
                                 static_cast<std::uint32_t>(client_id), payload_name,
                                 deadline);
    } catch (const IoError& e) {
      if (options_.strict) {
        throw MirrorDesync(std::string("mirror: session died awaiting TASK: ") + e.what());
      }
      return Outcome::kDropped;
    }
    if (!task) {
      if (options_.strict) {
        throw MirrorDesync("mirror: no TASK for client " + std::to_string(client_id) +
                           " round " + std::to_string(round) + " payload '" + payload_name +
                           "' before the deadline");
      }
      return Outcome::kDropped;
    }
    screen_wire_body(task->body);
    payload = std::move(task->body);
    return Outcome::kReplaced;
  }

  Frame upload;
  upload.type = FrameType::kUpload;
  upload.round = static_cast<std::uint32_t>(round);
  upload.client = static_cast<std::uint32_t>(client_id);
  upload.name = payload_name;
  upload.body = payload;
  try {
    session_.send(upload, Deadline::after(options_.await_timeout_seconds));
  } catch (const IoError& e) {
    if (options_.strict) {
      throw MirrorDesync(std::string("mirror: session died sending UPLOAD: ") + e.what());
    }
    return Outcome::kDropped;
  }
  return Outcome::kLocal;
}

}  // namespace fedkemf::net
