// chaos_proxy: a deterministic fault-injecting TCP/Unix proxy for the frame
// protocol.
//
// Sits between fed_client processes and a fed_server, parses the 12-byte
// frame headers so faults land on whole-frame boundaries, and injects a
// seeded mix of the failures a real network serves up:
//
//   reset       both legs of the connection are torn down mid-stream
//   corrupt     one payload byte is flipped (CRC catches it downstream; with
//               --fix-crc the CRC is recomputed so only frame auth can)
//   duplicate   the frame is forwarded twice (idempotency probe)
//   reorder     the frame is held and swapped with the next one
//   delay       the frame is forwarded after a latency spike
//   dribble     the frame is forwarded a few bytes at a time (slow-loris)
//   partition   one global window during which every frame is discarded
//
// Every decision is a pure function of (--seed, connection, leg, frame
// index), so a run injects the same faults every time regardless of thread
// timing.  Frames arriving before --grace-seconds are exempt, keeping
// HELLO/ACK registration out of the blast radius (a rejected *first*
// registration is fatal to an elastic worker by design).
//
// On SIGTERM/SIGINT the proxy drains, writes per-class injection counts to
// --stats as JSON (the chaos harness asserts every class fired), and exits 0.
//
//   ./tools/chaos_proxy --listen unix:///tmp/chaos.sock
//       --upstream unix:///tmp/fed.sock --seed 7 --reset-rate 0.02
//       --corrupt-rate 0.05 --duplicate-rate 0.05 --reorder-rate 0.05
//       --delay-rate 0.1 --delay-seconds 0.2 --dribble-rate 0.05
//       --partition-at 10 --partition-for 8 --stats chaos_stats.json

#include <poll.h>
#include <sys/socket.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <memory>
#include <mutex>
#include <optional>
#include <span>
#include <string>
#include <thread>
#include <vector>

#include "core/record.hpp"
#include "net/frame.hpp"
#include "net/socket.hpp"
#include "utils/cli.hpp"
#include "utils/logging.hpp"

namespace {

using namespace fedkemf;

std::atomic<bool> g_stop{false};

void handle_signal(int) { g_stop.store(true, std::memory_order_relaxed); }

std::uint64_t mix64(std::uint64_t x) {
  x ^= x >> 33;
  x *= 0xff51afd7ed558ccdull;
  x ^= x >> 33;
  x *= 0xc4ceb9fe1a85ec53ull;
  x ^= x >> 33;
  return x;
}

double uniform_from(std::uint64_t h, std::uint64_t salt) {
  return static_cast<double>(mix64(h ^ salt) >> 11) * 0x1.0p-53;
}

struct FaultRates {
  double reset = 0.0;
  double corrupt = 0.0;
  double duplicate = 0.0;
  double reorder = 0.0;
  double delay = 0.0;
  double delay_seconds = 0.2;
  double dribble = 0.0;
  bool fix_crc = false;
  std::uint64_t seed = 0;
  double grace_seconds = 0.0;
  double partition_at = -1.0;   ///< seconds since start; < 0 disables
  double partition_for = 0.0;
};

struct Stats {
  std::atomic<std::uint64_t> connections{0};
  std::atomic<std::uint64_t> frames{0};
  std::atomic<std::uint64_t> resets{0};
  std::atomic<std::uint64_t> corruptions{0};
  std::atomic<std::uint64_t> duplicates{0};
  std::atomic<std::uint64_t> reorders{0};
  std::atomic<std::uint64_t> delays{0};
  std::atomic<std::uint64_t> dribbles{0};
  std::atomic<std::uint64_t> partition_drops{0};
};

Stats g_stats;

std::chrono::steady_clock::time_point g_start;

double seconds_since_start() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now() - g_start).count();
}

/// One proxied connection: the accepted client fd and the upstream fd, shared
/// by the two pump threads.  shutdown() on both unblocks the peer thread.
struct Conn {
  net::Fd client;
  net::Fd upstream;
  std::atomic<bool> dead{false};

  void kill() {
    if (dead.exchange(true)) return;
    if (client.valid()) ::shutdown(client.get(), SHUT_RDWR);
    if (upstream.valid()) ::shutdown(upstream.get(), SHUT_RDWR);
  }
};

/// Forwards `frame` (a complete header+payload span) honoring the dribble
/// decision.  Throws net::IoError on a dead destination.
void forward(int fd, std::span<const std::uint8_t> frame, bool dribble) {
  if (!dribble) {
    net::write_all(fd, frame.data(), frame.size(), net::Deadline::after(30.0));
    return;
  }
  g_stats.dribbles.fetch_add(1, std::memory_order_relaxed);
  const std::size_t chunk = std::max<std::size_t>(1024, frame.size() / 64);
  for (std::size_t off = 0; off < frame.size(); off += chunk) {
    const std::size_t n = std::min(chunk, frame.size() - off);
    net::write_all(fd, frame.data() + off, n, net::Deadline::after(30.0));
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    if (g_stop.load(std::memory_order_relaxed)) break;
  }
}

/// Pumps one direction of one connection, injecting faults per frame.
/// `leg` is 0 for client->upstream, 1 for upstream->client.
void pump_leg(const std::shared_ptr<Conn>& conn, std::uint64_t conn_id, int leg,
              const FaultRates& rates) {
  const int src = leg == 0 ? conn->client.get() : conn->upstream.get();
  const int dst = leg == 0 ? conn->upstream.get() : conn->client.get();
  std::vector<std::uint8_t> buf;
  std::vector<std::uint8_t> held;  // a reordered frame waiting for its swap
  std::uint64_t frame_index = 0;
  bool raw = false;  // magic mismatch: not our protocol, forward verbatim

  try {
    while (!g_stop.load(std::memory_order_relaxed) && !conn->dead.load()) {
      // Slice complete frames off the front of the buffer.
      while (!raw) {
        const std::optional<core::RecordHeader> header = core::peek_record_header(buf);
        if (!header) break;
        if (header->magic != net::kFrameMagic) {
          raw = true;
          break;
        }
        const std::size_t length = header->word;
        const std::size_t total = net::kFrameHeaderBytes + length;
        if (buf.size() < total) break;

        std::vector<std::uint8_t> frame(buf.begin(),
                                        buf.begin() + static_cast<std::ptrdiff_t>(total));
        buf.erase(buf.begin(), buf.begin() + static_cast<std::ptrdiff_t>(total));
        g_stats.frames.fetch_add(1, std::memory_order_relaxed);
        const std::uint64_t h =
            mix64(rates.seed ^ mix64(conn_id * 2 + static_cast<std::uint64_t>(leg)) ^
                  mix64(0x9e3779b97f4a7c15ull + frame_index));
        ++frame_index;

        const double now = seconds_since_start();
        const bool graced = now < rates.grace_seconds;
        if (!graced && rates.partition_at >= 0.0 && now >= rates.partition_at &&
            now < rates.partition_at + rates.partition_for) {
          // Partitioned: the frame silently vanishes (both directions do
          // this, so the window looks like a dead network to both sides).
          g_stats.partition_drops.fetch_add(1, std::memory_order_relaxed);
          continue;
        }
        if (!graced && uniform_from(h, 0x8E5E7ull) < rates.reset) {
          g_stats.resets.fetch_add(1, std::memory_order_relaxed);
          conn->kill();
          return;
        }
        if (!graced && uniform_from(h, 0xDE1Aull) < rates.delay) {
          g_stats.delays.fetch_add(1, std::memory_order_relaxed);
          std::this_thread::sleep_for(
              std::chrono::duration<double>(rates.delay_seconds));
        }
        if (!graced && length > 0 && uniform_from(h, 0xC0B7ull) < rates.corrupt) {
          g_stats.corruptions.fetch_add(1, std::memory_order_relaxed);
          frame[net::kFrameHeaderBytes + mix64(h ^ 0xF11Bull) % length] ^= 0x40;
          if (rates.fix_crc) {
            // Recompute the CRC over the tampered payload: the checksum now
            // passes and only keyed frame auth can reject the frame.
            core::seal_record(frame, header->magic, header->word);
          }
        }
        const bool dribble = !graced && uniform_from(h, 0xD81Bull) < rates.dribble;
        if (!graced && held.empty() && uniform_from(h, 0x8E08Dull) < rates.reorder) {
          g_stats.reorders.fetch_add(1, std::memory_order_relaxed);
          held = std::move(frame);
          continue;  // swapped with whatever frame comes next
        }
        forward(dst, frame, dribble);
        if (!graced && uniform_from(h, 0xD0B1ull) < rates.duplicate) {
          g_stats.duplicates.fetch_add(1, std::memory_order_relaxed);
          forward(dst, frame, false);
        }
        if (!held.empty()) {
          forward(dst, held, false);
          held.clear();
        }
      }
      if (raw && !buf.empty()) {
        net::write_all(dst, buf.data(), buf.size(), net::Deadline::after(30.0));
        buf.clear();
      }

      struct pollfd pfd {};
      pfd.fd = src;
      pfd.events = POLLIN;
      const int rc = ::poll(&pfd, 1, 250);
      if (rc < 0) {
        if (errno == EINTR) continue;
        break;
      }
      if (rc == 0) continue;
      std::uint8_t chunk[64 * 1024];
      const ssize_t n = ::recv(src, chunk, sizeof(chunk), MSG_DONTWAIT);
      if (n > 0) {
        buf.insert(buf.end(), chunk, chunk + n);
        continue;
      }
      if (n == 0) break;  // orderly EOF
      if (errno == EINTR || errno == EAGAIN || errno == EWOULDBLOCK) continue;
      break;
    }
    if (!held.empty() && !conn->dead.load()) forward(dst, held, false);
  } catch (const net::IoError&) {
    // Destination died mid-forward; tear the whole connection down below.
  }
  conn->kill();
}

void write_stats(const std::string& path) {
  if (path.empty()) return;
  std::ofstream out(path);
  if (!out) {
    utils::log_warn("chaos") << "cannot write stats to '" << path << "'";
    return;
  }
  out << "{\n"
      << "  \"connections\": " << g_stats.connections.load() << ",\n"
      << "  \"frames\": " << g_stats.frames.load() << ",\n"
      << "  \"injected\": {\n"
      << "    \"resets\": " << g_stats.resets.load() << ",\n"
      << "    \"corruptions\": " << g_stats.corruptions.load() << ",\n"
      << "    \"duplicates\": " << g_stats.duplicates.load() << ",\n"
      << "    \"reorders\": " << g_stats.reorders.load() << ",\n"
      << "    \"delays\": " << g_stats.delays.load() << ",\n"
      << "    \"dribbles\": " << g_stats.dribbles.load() << ",\n"
      << "    \"partition_drops\": " << g_stats.partition_drops.load() << "\n"
      << "  }\n"
      << "}\n";
}

}  // namespace

int main(int argc, char** argv) {
  std::string listen_uri = "unix:///tmp/chaos.sock";
  std::string upstream_uri = "unix:///tmp/fedkemf.sock";
  std::string stats_path;
  FaultRates rates;

  utils::Cli cli("chaos_proxy", "deterministic fault-injecting frame proxy");
  cli.flag("listen", &listen_uri, "endpoint clients connect to");
  cli.flag("upstream", &upstream_uri, "the real server endpoint");
  cli.flag("seed", &rates.seed, "fault-decision seed (same seed => same faults)");
  cli.flag("reset-rate", &rates.reset, "per-frame connection-reset probability");
  cli.flag("corrupt-rate", &rates.corrupt, "per-frame payload-byte-flip probability");
  cli.flag("fix-crc", &rates.fix_crc,
           "recompute the CRC after corrupting (only frame auth catches it)");
  cli.flag("duplicate-rate", &rates.duplicate, "per-frame duplication probability");
  cli.flag("reorder-rate", &rates.reorder, "per-frame swap-with-next probability");
  cli.flag("delay-rate", &rates.delay, "per-frame latency-spike probability");
  cli.flag("delay-seconds", &rates.delay_seconds, "seconds each latency spike lasts");
  cli.flag("dribble-rate", &rates.dribble, "per-frame slow-loris forwarding probability");
  cli.flag("grace-seconds", &rates.grace_seconds,
           "inject nothing during the first N seconds (protects registration)");
  cli.flag("partition-at", &rates.partition_at,
           "seconds after start when the global partition opens (<0 disables)");
  cli.flag("partition-for", &rates.partition_for, "partition window length in seconds");
  cli.flag("stats", &stats_path, "write injection counts here as JSON on exit");
  cli.parse(argc, argv);

  std::signal(SIGINT, handle_signal);
  std::signal(SIGTERM, handle_signal);
  std::signal(SIGPIPE, SIG_IGN);

  const net::Endpoint listen_ep = net::Endpoint::parse(listen_uri);
  const net::Endpoint upstream_ep = net::Endpoint::parse(upstream_uri);
  net::Fd listener;
  try {
    listener = net::listen_endpoint(listen_ep);
  } catch (const net::IoError& e) {
    std::fprintf(stderr, "chaos_proxy: %s\n", e.what());
    return 1;
  }
  g_start = std::chrono::steady_clock::now();
  utils::log_info("chaos") << "proxying " << listen_ep.to_string() << " -> "
                           << upstream_ep.to_string() << " seed=" << rates.seed;

  std::vector<std::thread> threads;
  std::vector<std::shared_ptr<Conn>> conns;
  std::uint64_t next_conn_id = 0;
  while (!g_stop.load(std::memory_order_relaxed)) {
    struct pollfd pfd {};
    pfd.fd = listener.get();
    pfd.events = POLLIN;
    const int rc = ::poll(&pfd, 1, 250);
    if (rc < 0 && errno != EINTR) break;
    if (rc <= 0) continue;
    const int accepted = ::accept(listener.get(), nullptr, nullptr);
    if (accepted < 0) continue;

    auto conn = std::make_shared<Conn>();
    conn->client.reset(accepted);
    try {
      conn->upstream = net::connect_endpoint(upstream_ep, net::Deadline::after(10.0));
    } catch (const net::IoError& e) {
      utils::log_warn("chaos") << "upstream connect failed: " << e.what();
      continue;  // dropping `conn` closes the accepted fd
    }
    net::set_nodelay(conn->client.get());
    net::set_nodelay(conn->upstream.get());
    g_stats.connections.fetch_add(1, std::memory_order_relaxed);
    const std::uint64_t conn_id = next_conn_id++;
    conns.push_back(conn);
    threads.emplace_back([conn, conn_id, &rates] { pump_leg(conn, conn_id, 0, rates); });
    threads.emplace_back([conn, conn_id, &rates] { pump_leg(conn, conn_id, 1, rates); });
  }

  // Flush the stats the moment the accept loop exits: a pump leg wedged in a
  // long injected delay (or a peer that never closes) can stall the joins
  // below, and the harness must still find the counts on SIGTERM.  Counters
  // are atomics, so this snapshot is safe while legs still run; the
  // post-join rewrite below replaces it with the final totals.
  for (const auto& conn : conns) conn->kill();
  write_stats(stats_path);
  for (auto& t : threads) t.join();
  write_stats(stats_path);
  return 0;
}
