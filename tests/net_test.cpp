// Socket-transport tests: read_exact/write_all against a dribbling
// socketpair, frame-protocol robustness (bad magic, truncated/oversize/
// corrupted frames, v1 model bodies) surfacing as typed errors, TrafficMeter
// concurrency, the Channel<->Transport delivery contract, EpollServer
// routing, and end-to-end mirror/elastic runs in one process.

#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <thread>

#include <gtest/gtest.h>

#include <sys/socket.h>

#include "comm/channel.hpp"
#include "core/rng.hpp"
#include "models/zoo.hpp"
#include "net/frame.hpp"
#include "net/server.hpp"
#include "net/service.hpp"
#include "net/session.hpp"
#include "net/socket.hpp"
#include "net/transport.hpp"
#include "obs/metrics.hpp"

namespace fedkemf::net {
namespace {

// ---- Helpers ----

struct SocketPair {
  int a = -1;
  int b = -1;
  SocketPair() {
    int fds[2];
    EXPECT_EQ(0, ::socketpair(AF_UNIX, SOCK_STREAM, 0, fds));
    a = fds[0];
    b = fds[1];
  }
  ~SocketPair() {
    if (a >= 0) ::close(a);
    if (b >= 0) ::close(b);
  }
};

std::unique_ptr<nn::Module> tiny_model(std::uint64_t seed) {
  core::Rng rng(seed);
  return models::build_model(
      models::ModelSpec{.arch = "mlp", .num_classes = 4, .in_channels = 1,
                        .image_size = 4, .width_multiplier = 0.25},
      rng);
}

std::string unique_socket_path(const std::string& tag) {
  return "/tmp/fedkemf_net_test_" + tag + "_" + std::to_string(::getpid()) + ".sock";
}

/// A small FedSpec every e2e test shares: 2 clients, 2 rounds, tiny model.
FedSpec tiny_spec(const std::string& algorithm) {
  FedSpec spec;
  spec.algorithm = algorithm;
  spec.federation.data = data::SyntheticSpec::cifar_like();
  spec.federation.data.image_size = 8;
  spec.federation.train_samples = 96;
  spec.federation.test_samples = 48;
  spec.federation.num_clients = 2;
  spec.federation.seed = 7;
  spec.client_model = {.arch = "cnn2",
                       .num_classes = spec.federation.data.num_classes,
                       .in_channels = spec.federation.data.channels,
                       .image_size = 8,
                       .width_multiplier = 0.25};
  spec.knowledge_model = spec.client_model;
  spec.local.epochs = 1;
  spec.local.batch_size = 16;
  spec.rounds = 2;
  return spec;
}

// ---- read_exact / write_all (satellite: EINTR-safe short-IO helpers) ----

TEST(SocketIo, ReadExactAssemblesOneByteAtATime) {
  SocketPair pair;
  const std::string message = "federated";
  std::thread writer([&] {
    for (const char c : message) {
      ASSERT_EQ(1, ::send(pair.a, &c, 1, 0));
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });
  std::vector<std::uint8_t> buffer(message.size());
  read_exact(pair.b, buffer.data(), buffer.size(), Deadline::after(5.0));
  writer.join();
  EXPECT_EQ(0, std::memcmp(buffer.data(), message.data(), message.size()));
}

TEST(SocketIo, ReadExactHonorsDeadlineOnSilentPeer) {
  SocketPair pair;
  std::uint8_t byte = 0;
  EXPECT_THROW(read_exact(pair.b, &byte, 1, Deadline::after(0.05)), IoTimeout);
}

TEST(SocketIo, ReadExactReportsPeerClose) {
  SocketPair pair;
  ::close(pair.a);
  pair.a = -1;
  std::uint8_t byte = 0;
  EXPECT_THROW(read_exact(pair.b, &byte, 1, Deadline::after(1.0)), IoClosed);
}

TEST(SocketIo, WriteAllMovesLargePayloadThroughSmallBuffers) {
  SocketPair pair;
  std::vector<std::uint8_t> payload(1 << 20);
  for (std::size_t i = 0; i < payload.size(); ++i) {
    payload[i] = static_cast<std::uint8_t>(i * 31);
  }
  std::thread writer(
      [&] { write_all(pair.a, payload.data(), payload.size(), Deadline::after(10.0)); });
  std::vector<std::uint8_t> received(payload.size());
  read_exact(pair.b, received.data(), received.size(), Deadline::after(10.0));
  writer.join();
  EXPECT_EQ(payload, received);
}

TEST(SocketIo, EndpointParsing) {
  const Endpoint tcp = Endpoint::parse("tcp://127.0.0.1:9000");
  EXPECT_EQ(tcp.kind, Endpoint::Kind::kTcp);
  EXPECT_EQ(tcp.host, "127.0.0.1");
  EXPECT_EQ(tcp.port, 9000);
  const Endpoint uds = Endpoint::parse("unix:///tmp/x.sock");
  EXPECT_EQ(uds.kind, Endpoint::Kind::kUnix);
  EXPECT_EQ(uds.path, "/tmp/x.sock");
  EXPECT_THROW(Endpoint::parse("http://nope"), std::invalid_argument);
  EXPECT_THROW(Endpoint::parse("tcp://nohost"), std::invalid_argument);
}

// ---- Frame protocol robustness (satellite: typed errors, never hangs) ----

Frame sample_frame() {
  Frame frame;
  frame.type = FrameType::kUpload;
  frame.round = 3;
  frame.client = 7;
  frame.name = "model";
  frame.scalars = {12.0, 0.05, 1.25};
  frame.body = {1, 2, 3, 4, 5};
  return frame;
}

TEST(FrameCodec, RoundTrip) {
  const std::vector<std::uint8_t> wire = encode_frame(sample_frame());
  std::uint32_t crc = 0;
  const std::size_t payload_len = decode_frame_header(
      std::span<const std::uint8_t, kFrameHeaderBytes>(wire.data(), kFrameHeaderBytes),
      FrameLimits{}, &crc);
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + payload_len);
  const Frame decoded = decode_frame_payload(
      std::span<const std::uint8_t>(wire.data() + kFrameHeaderBytes, payload_len), crc);
  EXPECT_EQ(decoded.type, FrameType::kUpload);
  EXPECT_EQ(decoded.round, 3u);
  EXPECT_EQ(decoded.client, 7u);
  EXPECT_EQ(decoded.name, "model");
  EXPECT_EQ(decoded.scalars, sample_frame().scalars);
  EXPECT_EQ(decoded.body, sample_frame().body);
}

TEST(FrameCodec, WrongMagicIsProtocolError) {
  std::vector<std::uint8_t> wire = encode_frame(sample_frame());
  wire[0] ^= 0xFF;
  std::uint32_t crc = 0;
  EXPECT_THROW(
      decode_frame_header(
          std::span<const std::uint8_t, kFrameHeaderBytes>(wire.data(), kFrameHeaderBytes),
          FrameLimits{}, &crc),
      ProtocolError);
}

TEST(FrameCodec, OversizeLengthIsProtocolError) {
  std::vector<std::uint8_t> wire = encode_frame(sample_frame());
  wire[4] = 0xFF;  // length field low byte
  wire[5] = 0xFF;
  wire[6] = 0xFF;
  wire[7] = 0xFF;
  std::uint32_t crc = 0;
  EXPECT_THROW(
      decode_frame_header(
          std::span<const std::uint8_t, kFrameHeaderBytes>(wire.data(), kFrameHeaderBytes),
          FrameLimits{}, &crc),
      ProtocolError);
}

TEST(FrameCodec, CorruptPayloadFailsCrc) {
  std::vector<std::uint8_t> wire = encode_frame(sample_frame());
  wire.back() ^= 0x40;
  std::uint32_t crc = 0;
  const std::size_t payload_len = decode_frame_header(
      std::span<const std::uint8_t, kFrameHeaderBytes>(wire.data(), kFrameHeaderBytes),
      FrameLimits{}, &crc);
  EXPECT_THROW(
      decode_frame_payload(
          std::span<const std::uint8_t>(wire.data() + kFrameHeaderBytes, payload_len), crc),
      ProtocolError);
}

TEST(FrameCodec, ProtocolErrorIsAChecksumError) {
  // The socket transport reports malformed bytes through the *existing*
  // typed-error contract, so callers catch one family either way.
  std::vector<std::uint8_t> wire = encode_frame(sample_frame());
  wire[0] ^= 0xFF;
  std::uint32_t crc = 0;
  EXPECT_THROW(
      decode_frame_header(
          std::span<const std::uint8_t, kFrameHeaderBytes>(wire.data(), kFrameHeaderBytes),
          FrameLimits{}, &crc),
      comm::ChecksumError);
}

TEST(FrameCodec, TruncatedFrameOverSocketIsIoClosed) {
  SocketPair pair;
  const std::vector<std::uint8_t> wire = encode_frame(sample_frame());
  // Send only half the frame, then hang up mid-payload.
  ASSERT_EQ(static_cast<ssize_t>(wire.size() / 2),
            ::send(pair.a, wire.data(), wire.size() / 2, 0));
  ::close(pair.a);
  pair.a = -1;
  EXPECT_THROW(read_frame(pair.b, FrameLimits{}, Deadline::after(1.0)), IoClosed);
}

TEST(FrameCodec, SocketRoundTrip) {
  SocketPair pair;
  std::thread writer([&] { write_frame(pair.a, sample_frame(), Deadline::after(5.0)); });
  const Frame frame = read_frame(pair.b, FrameLimits{}, Deadline::after(5.0));
  writer.join();
  EXPECT_EQ(frame.name, "model");
  EXPECT_EQ(frame.body, sample_frame().body);
}

TEST(FrameCodec, HelloRoundTrip) {
  HelloRequest request;
  request.mode = 1;
  request.algorithm = "fedprox";
  request.config_digest = 0xDEADBEEFCAFEull;
  request.owned_clients = {4, 2, 9};
  request.rejoin = 1;
  const HelloRequest decoded = decode_hello(encode_hello(request));
  EXPECT_EQ(decoded.mode, 1);
  EXPECT_EQ(decoded.algorithm, "fedprox");
  EXPECT_EQ(decoded.config_digest, request.config_digest);
  EXPECT_EQ(decoded.owned_clients, request.owned_clients);
  EXPECT_EQ(decoded.rejoin, 1);

  HelloReply reply;
  reply.accepted = 0;
  reply.current_round = 5;
  reply.message = "digest mismatch";
  const HelloReply round = decode_hello_reply(encode_hello_reply(reply));
  EXPECT_EQ(round.accepted, 0);
  EXPECT_EQ(round.current_round, 5u);
  EXPECT_EQ(round.message, "digest mismatch");
}

// ---- Model-body screening (satellite: v1 payloads rejected over sockets) --

TEST(ModelBodyScreen, AcceptsVersion2Payload) {
  auto model = tiny_model(1);
  EXPECT_NO_THROW(validate_model_body(comm::serialize_model(*model)));
}

TEST(ModelBodyScreen, RejectsVersion1Payload) {
  auto model = tiny_model(1);
  std::vector<std::uint8_t> body = comm::serialize_model(*model);
  body[4] = 1;  // version field: v1 carries no checksum -> untrusted on a wire
  EXPECT_THROW(validate_model_body(body), comm::ChecksumError);
}

TEST(ModelBodyScreen, RejectsOversizeTensorCount) {
  auto model = tiny_model(1);
  std::vector<std::uint8_t> body = comm::serialize_model(*model);
  // Claim an absurd tensor count and recompute the CRC so only the bound
  // check can reject it (a hostile-length guard, not a checksum catch).
  body[12] = 0xFF;
  body[13] = 0xFF;
  body[14] = 0xFF;
  body[15] = 0x7F;
  const std::uint32_t crc =
      core::crc32(std::span<const std::uint8_t>(body).subspan(12));
  for (int i = 0; i < 4; ++i) body[8 + i] = static_cast<std::uint8_t>(crc >> (8 * i));
  EXPECT_THROW(validate_model_body(body), comm::ChecksumError);
}

TEST(ModelBodyScreen, RejectsFlippedBit) {
  auto model = tiny_model(1);
  std::vector<std::uint8_t> body = comm::serialize_model(*model);
  body[body.size() / 2] ^= 0x10;
  EXPECT_THROW(validate_model_body(body), comm::ChecksumError);
}

TEST(ModelBodyScreen, RejectsTruncatedBody) {
  EXPECT_THROW(validate_model_body(std::vector<std::uint8_t>{1, 2, 3}),
               comm::ChecksumError);
}

// ---- TrafficMeter concurrency (satellite: exercised under TSan in CI) ----

TEST(TrafficMeterConcurrency, ConcurrentRecordsKeepExactTotals) {
  comm::TrafficMeter meter;
  constexpr std::size_t kThreads = 8;
  constexpr std::size_t kPerThread = 500;
  std::vector<std::thread> workers;
  for (std::size_t t = 0; t < kThreads; ++t) {
    workers.emplace_back([&meter, t] {
      for (std::size_t i = 0; i < kPerThread; ++i) {
        meter.record({.round = t,
                      .client_id = i % 4,
                      .direction = i % 2 ? comm::Direction::kUplink
                                         : comm::Direction::kDownlink,
                      .bytes = 10,
                      .payload = "model"});
      }
    });
  }
  // Concurrent readers must never tear or crash (relaxed totals are fine).
  std::atomic<bool> stop{false};
  std::thread reader([&] {
    while (!stop.load()) {
      (void)meter.total_bytes();
      (void)meter.num_transfers();
    }
  });
  for (auto& w : workers) w.join();
  stop.store(true);
  reader.join();
  EXPECT_EQ(meter.total_bytes(), kThreads * kPerThread * 10);
  EXPECT_EQ(meter.num_transfers(), kThreads * kPerThread);
  EXPECT_EQ(meter.uplink_bytes() + meter.downlink_bytes(), meter.total_bytes());
  EXPECT_EQ(meter.records().size(), kThreads * kPerThread);
}

// ---- Channel <-> Transport delivery contract ----

class ScriptedTransport : public comm::Transport {
 public:
  explicit ScriptedTransport(Outcome outcome) : outcome_(outcome) {}
  std::vector<std::uint8_t> replacement;
  std::size_t calls = 0;

  Outcome attempt(std::vector<std::uint8_t>& payload, std::size_t, std::size_t,
                  comm::Direction, std::size_t, const std::string&) override {
    ++calls;
    if (outcome_ == Outcome::kReplaced) payload = replacement;
    return outcome_;
  }

 private:
  Outcome outcome_;
};

TEST(ChannelTransport, ReplacedBytesReachTheDestinationAndTheMeter) {
  auto src = tiny_model(1);
  auto dst = tiny_model(2);
  auto other = tiny_model(3);
  comm::TrafficMeter meter;
  comm::Channel channel(&meter);
  ScriptedTransport transport(comm::Transport::Outcome::kReplaced);
  transport.replacement = comm::serialize_model(*other);
  channel.set_transport(&transport);
  channel.transfer(*src, *dst, 0, 0, comm::Direction::kUplink, "model");
  channel.set_transport(nullptr);
  // dst now holds `other`'s weights (the wire bytes), not src's.
  EXPECT_EQ(comm::serialize_model(*dst), comm::serialize_model(*other));
  // The meter accounted the bytes that actually crossed the wire.
  EXPECT_EQ(meter.total_bytes(), transport.replacement.size());
}

TEST(ChannelTransport, PersistentDropExhaustsRetriesAsTransferFailed) {
  auto src = tiny_model(1);
  auto dst = tiny_model(2);
  comm::TrafficMeter meter;
  comm::Channel channel(&meter);
  comm::RetryPolicy retry;
  retry.max_attempts = 3;
  channel.set_retry_policy(retry);
  ScriptedTransport transport(comm::Transport::Outcome::kDropped);
  channel.set_transport(&transport);
  EXPECT_THROW(channel.transfer(*src, *dst, 0, 0, comm::Direction::kUplink, "model"),
               comm::TransferFailed);
  channel.set_transport(nullptr);
  EXPECT_EQ(transport.calls, 3u);
}

// ---- EpollServer routing ----

class ServerFixture : public ::testing::Test {
 protected:
  void SetUp() override {
    path_ = unique_socket_path(::testing::UnitTest::GetInstance()
                                   ->current_test_info()
                                   ->name());
    server_ = std::make_unique<EpollServer>(Endpoint::parse("unix://" + path_));
    server_->start();
  }
  void TearDown() override {
    server_->stop();
    ::unlink(path_.c_str());
  }

  std::unique_ptr<ClientSession> connect(std::uint32_t id, bool collect_acks = false) {
    auto session = std::make_unique<ClientSession>(Endpoint::parse("unix://" + path_),
                                                   Deadline::after(5.0), FrameLimits{},
                                                   collect_acks);
    HelloRequest request;
    request.owned_clients = {id};
    const HelloReply reply = session->hello(request, Deadline::after(5.0));
    EXPECT_TRUE(reply.accepted);
    return session;
  }

  std::string path_;
  std::unique_ptr<EpollServer> server_;
};

TEST_F(ServerFixture, EarlyUploadIsParkedUntilAwaited) {
  auto session = connect(0);
  Frame upload;
  upload.type = FrameType::kUpload;
  upload.round = 0;
  upload.client = 0;
  upload.name = "model";
  upload.body = {9, 9, 9};
  session->send(upload, Deadline::after(5.0));
  // The upload arrives before anyone asks for it; await must still claim it.
  const std::optional<Frame> claimed =
      server_->await_upload(0, 0, "model", Deadline::after(5.0));
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(claimed->body, upload.body);
}

TEST_F(ServerFixture, AwaitUploadTimesOutWithoutTraffic) {
  auto session = connect(0);
  EXPECT_FALSE(server_->await_upload(0, 0, "model", Deadline::after(0.1)).has_value());
}

TEST_F(ServerFixture, ConcurrentUploadsFromManyClientsAllArrive) {
  constexpr std::uint32_t kClients = 6;
  // Every session stays open until all uploads are claimed: a session that
  // left early would be missing from the barrier below, and await_upload
  // gives up on an id that is no longer registered.
  std::atomic<bool> all_claimed{false};
  std::vector<std::thread> threads;
  for (std::uint32_t id = 0; id < kClients; ++id) {
    threads.emplace_back([this, id, &all_claimed] {
      auto session = connect(id);
      Frame upload;
      upload.type = FrameType::kUpload;
      upload.round = 1;
      upload.client = id;
      upload.name = "model";
      upload.body = {static_cast<std::uint8_t>(id)};
      session->send(upload, Deadline::after(5.0));
      const Deadline deadline = Deadline::after(30.0);
      while (!all_claimed.load() && !deadline.expired()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
      }
    });
  }
  // Barrier: await_upload treats an unregistered id as a dead owner, so wait
  // for every HELLO before claiming.
  EXPECT_TRUE(server_->wait_for_clients(kClients, Deadline::after(10.0)));
  std::vector<std::optional<Frame>> claimed(kClients);
  for (std::uint32_t id = 0; id < kClients; ++id) {
    claimed[id] = server_->await_upload(1, id, "model", Deadline::after(10.0));
  }
  all_claimed.store(true);
  for (auto& t : threads) t.join();
  for (std::uint32_t id = 0; id < kClients; ++id) {
    ASSERT_TRUE(claimed[id].has_value()) << "client " << id;
    EXPECT_EQ(claimed[id]->body.front(), static_cast<std::uint8_t>(id));
  }
}

TEST_F(ServerFixture, LateUploadsDrainViaTakeStaleUploads) {
  auto session = connect(3);
  Frame late;
  late.type = FrameType::kUpload;
  late.round = 1;
  late.client = 3;
  late.name = "model";
  late.scalars = {4.0, 0.05};
  late.body = {1};
  session->send(late, Deadline::after(5.0));
  // Wait for the loop to park it, then sweep as round 3 would.
  std::vector<Frame> stale;
  const Deadline deadline = Deadline::after(5.0);
  while (stale.empty() && !deadline.expired()) {
    stale = server_->take_stale_uploads(3);
    if (stale.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale.front().round, 1u);
  EXPECT_EQ(stale.front().client, 3u);
  EXPECT_EQ(stale.front().scalars, late.scalars);
  // Current-round uploads must NOT be swept.
  EXPECT_TRUE(server_->take_stale_uploads(1).empty());
}

TEST_F(ServerFixture, MembershipEventsTrackConnectAndDisconnect) {
  {
    auto session = connect(5);
    const Deadline deadline = Deadline::after(5.0);
    while (!server_->is_connected(5) && !deadline.expired()) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
    EXPECT_TRUE(server_->is_connected(5));
  }  // destructor: BYE + close
  const Deadline deadline = Deadline::after(5.0);
  while (server_->is_connected(5) && !deadline.expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(2));
  }
  const std::vector<MembershipEvent> events = server_->take_membership_events();
  ASSERT_EQ(events.size(), 2u);
  EXPECT_EQ(events[0].kind, MembershipEvent::Kind::kJoined);
  EXPECT_EQ(events[0].client_id, 5u);
  EXPECT_EQ(events[1].kind, MembershipEvent::Kind::kLeft);
  EXPECT_EQ(events[1].client_id, 5u);
}

TEST_F(ServerFixture, ValidatorRejectionClosesAfterReasonedAck) {
  server_->stop();
  server_ = std::make_unique<EpollServer>(Endpoint::parse("unix://" + path_));
  server_->set_hello_validator([](const HelloRequest&) {
    HelloReply reply;
    reply.accepted = 0;
    reply.message = "wrong digest";
    return reply;
  });
  server_->start();
  ClientSession session(Endpoint::parse("unix://" + path_), Deadline::after(5.0));
  HelloRequest request;
  request.owned_clients = {0};
  const HelloReply reply = session.hello(request, Deadline::after(5.0));
  EXPECT_FALSE(reply.accepted);
  EXPECT_EQ(reply.message, "wrong digest");
  EXPECT_TRUE(server_->connected_clients().empty());
}

TEST_F(ServerFixture, DuplicateOwnershipIsRejected) {
  auto first = connect(2);
  ClientSession second(Endpoint::parse("unix://" + path_), Deadline::after(5.0));
  HelloRequest request;
  request.owned_clients = {2};
  const HelloReply reply = second.hello(request, Deadline::after(5.0));
  EXPECT_FALSE(reply.accepted);
}

TEST_F(ServerFixture, GarbageBytesCloseTheConnectionNotTheServer) {
  auto victim = connect(0);
  {
    // Raw socket spewing garbage: the loop must drop it and keep serving.
    Fd raw = connect_endpoint(Endpoint::parse("unix://" + path_), Deadline::after(5.0));
    std::vector<std::uint8_t> garbage(256, 0xAB);
    write_all(raw.get(), garbage.data(), garbage.size(), Deadline::after(5.0));
    std::this_thread::sleep_for(std::chrono::milliseconds(50));
  }
  // The registered client still works end to end.
  Frame upload;
  upload.type = FrameType::kUpload;
  upload.round = 0;
  upload.client = 0;
  upload.name = "model";
  upload.body = {7};
  victim->send(upload, Deadline::after(5.0));
  EXPECT_TRUE(server_->await_upload(0, 0, "model", Deadline::after(5.0)).has_value());
}

// ---- Service layer ----

TEST(ServiceLayer, ConfigDigestSeparatesSpecs) {
  const FedSpec a = tiny_spec("fedavg");
  FedSpec b = a;
  EXPECT_EQ(config_digest(a), config_digest(b));
  b.local.learning_rate += 1e-9;
  EXPECT_NE(config_digest(a), config_digest(b));
  FedSpec c = a;
  c.algorithm = "fedprox";
  EXPECT_NE(config_digest(a), config_digest(c));
}

TEST(ServiceLayer, MakeAlgorithmCoversAllSeven) {
  for (const char* name :
       {"fedavg", "fedprox", "fednova", "scaffold", "fedkemf", "feddf", "fedmd"}) {
    FedSpec spec = tiny_spec(name);
    EXPECT_NE(make_algorithm(spec), nullptr) << name;
  }
  FedSpec bogus = tiny_spec("fedavg");
  bogus.algorithm = "fedsgd";
  EXPECT_THROW(make_algorithm(bogus), std::invalid_argument);
  EXPECT_TRUE(elastic_capable("fedavg"));
  EXPECT_TRUE(elastic_capable("fednova"));
  EXPECT_FALSE(elastic_capable("fedkemf"));
  EXPECT_FALSE(elastic_capable("scaffold"));
}

// ---- End-to-end: mirror parity in one process ----

TEST(MirrorEndToEnd, DistributedRunMatchesInProcessBitwise) {
  const FedSpec spec = tiny_spec("fedavg");
  const fl::RunResult reference = run_in_process(spec);

  const std::string path = unique_socket_path("mirror_e2e");
  ::unlink(path.c_str());
  MirrorServerOptions server_options;
  server_options.endpoint = Endpoint::parse("unix://" + path);
  server_options.expect_clients = 1;
  server_options.hello_wait_seconds = 30.0;
  server_options.await_timeout_seconds = 60.0;
  MirrorClientOptions client_options;
  client_options.endpoint = server_options.endpoint;
  client_options.owned = {0};
  client_options.await_timeout_seconds = 60.0;

  fl::RunResult server_result;
  fl::RunResult client_result;
  std::thread server([&] { server_result = run_mirror_server(spec, server_options); });
  std::thread client([&] { client_result = run_mirror_client(spec, client_options); });
  server.join();
  client.join();
  ::unlink(path.c_str());

  // The acceptance bar: identical accuracy AND identical per-round metered
  // bytes — the distributed run is indistinguishable from the simulator.
  EXPECT_EQ(server_result.final_accuracy, reference.final_accuracy);
  EXPECT_EQ(client_result.final_accuracy, reference.final_accuracy);
  EXPECT_EQ(server_result.total_bytes, reference.total_bytes);
  ASSERT_EQ(server_result.history.size(), reference.history.size());
  for (std::size_t i = 0; i < reference.history.size(); ++i) {
    EXPECT_EQ(server_result.history[i].round_bytes, reference.history[i].round_bytes);
    EXPECT_EQ(server_result.history[i].accuracy, reference.history[i].accuracy);
  }
}

TEST(MirrorEndToEnd, DigestMismatchIsRejectedAtHello) {
  const FedSpec spec = tiny_spec("fedavg");
  const std::string path = unique_socket_path("mirror_reject");
  ::unlink(path.c_str());
  MirrorServerOptions server_options;
  server_options.endpoint = Endpoint::parse("unix://" + path);
  server_options.expect_clients = 1;
  server_options.hello_wait_seconds = 2.0;
  FedSpec wrong = spec;
  wrong.local.learning_rate *= 2;
  MirrorClientOptions client_options;
  client_options.endpoint = server_options.endpoint;
  client_options.owned = {0};

  std::thread server([&] {
    // The only client is rejected, so the start barrier must time out.
    EXPECT_THROW(run_mirror_server(spec, server_options), std::runtime_error);
  });
  std::thread client([&] {
    EXPECT_THROW(run_mirror_client(wrong, client_options), std::runtime_error);
  });
  server.join();
  client.join();
  ::unlink(path.c_str());
}

// ---- End-to-end: elastic mode ----

TEST(ElasticEndToEnd, TwoWorkersServeAllRounds) {
  const FedSpec spec = tiny_spec("fedavg");
  const std::string path = unique_socket_path("elastic_e2e");
  ::unlink(path.c_str());
  ElasticServerOptions server_options;
  server_options.endpoint = Endpoint::parse("unix://" + path);
  server_options.min_clients = 2;
  server_options.join_wait_seconds = 30.0;
  server_options.upload_timeout_seconds = 30.0;

  fl::RunResult result;
  std::thread server([&] { result = run_elastic_server(spec, server_options); });
  std::vector<ElasticClientResult> served(2);
  std::vector<std::thread> workers;
  for (std::size_t id = 0; id < 2; ++id) {
    workers.emplace_back([&, id] {
      ElasticClientOptions options;
      options.endpoint = Endpoint::parse("unix://" + path);
      options.client_id = id;
      served[id] = run_elastic_client(spec, options);
    });
  }
  server.join();
  for (auto& w : workers) w.join();
  ::unlink(path.c_str());

  EXPECT_EQ(result.rounds_completed, spec.rounds);
  EXPECT_EQ(result.total_joined, 2u);
  EXPECT_GT(result.total_bytes, 0u);
  EXPECT_GE(result.final_accuracy, 0.0);
  EXPECT_EQ(served[0].rounds_served, spec.rounds);
  EXPECT_EQ(served[1].rounds_served, spec.rounds);
}

/// Runs `spec` on an elastic server with two workers that stay connected.
/// `worker_lag_seconds`, when given, receives how long after the server
/// returned the slower worker returned.
fl::RunResult run_elastic_pair(const FedSpec& spec, const std::string& tag,
                               double* worker_lag_seconds = nullptr) {
  using Clock = std::chrono::steady_clock;
  const std::string path = unique_socket_path(tag);
  ::unlink(path.c_str());
  ElasticServerOptions server_options;
  server_options.endpoint = Endpoint::parse("unix://" + path);
  server_options.min_clients = 2;
  server_options.join_wait_seconds = 30.0;
  server_options.upload_timeout_seconds = 30.0;
  fl::RunResult result;
  Clock::time_point server_done;
  std::vector<Clock::time_point> worker_done(2);
  std::thread server([&] {
    result = run_elastic_server(spec, server_options);
    server_done = Clock::now();
  });
  std::vector<std::thread> workers;
  for (std::size_t id = 0; id < 2; ++id) {
    workers.emplace_back([&, id] {
      ElasticClientOptions options;
      options.endpoint = server_options.endpoint;
      options.client_id = id;
      run_elastic_client(spec, options);
      worker_done[id] = Clock::now();
    });
  }
  server.join();
  for (auto& w : workers) w.join();
  ::unlink(path.c_str());
  if (worker_lag_seconds != nullptr) {
    const Clock::time_point last = std::max(worker_done[0], worker_done[1]);
    *worker_lag_seconds = std::chrono::duration<double>(last - server_done).count();
  }
  return result;
}

// With every worker connected and no faults, the elastic server's whole
// history equals the in-process run of the same spec, bit for bit; only the
// two registrations at round 0 tell the runs apart.
TEST(ElasticEndToEnd, HistoryMatchesInProcessRunBitwise) {
  FedSpec spec = tiny_spec("fedavg");
  spec.rounds = 3;
  const fl::RunResult reference = run_in_process(spec);
  const fl::RunResult elastic = run_elastic_pair(spec, "elastic_pin");

  ASSERT_EQ(elastic.history.size(), reference.history.size());
  for (std::size_t i = 0; i < reference.history.size(); ++i) {
    const fl::RoundRecord& got = elastic.history[i];
    const fl::RoundRecord& want = reference.history[i];
    EXPECT_EQ(got.round, want.round);
    EXPECT_EQ(got.accuracy, want.accuracy) << "round " << i;
    EXPECT_EQ(got.train_loss, want.train_loss) << "round " << i;
    EXPECT_EQ(got.round_bytes, want.round_bytes) << "round " << i;
    EXPECT_EQ(got.cumulative_bytes, want.cumulative_bytes) << "round " << i;
    EXPECT_EQ(got.clients_completed, want.clients_completed) << "round " << i;
    EXPECT_EQ(got.clients_joined, i == 0 ? 2u : 0u) << "round " << i;
    EXPECT_EQ(got.clients_left, 0u) << "round " << i;
    EXPECT_EQ(got.stale_applied, 0u) << "round " << i;
  }
  EXPECT_EQ(elastic.total_bytes, reference.total_bytes);
  EXPECT_EQ(elastic.final_accuracy, reference.final_accuracy);
  EXPECT_EQ(elastic.total_joined, 2u);
  EXPECT_EQ(elastic.total_left, 0u);
}

// Shutdown says BYE through each connection's write queue, so a worker
// never misses it and returns at once instead of burning its reconnect
// budget against a closed socket.
TEST(ElasticEndToEnd, WorkersReturnPromptlyAfterTheServer) {
  const FedSpec spec = tiny_spec("fedavg");
  for (int run = 0; run < 20; ++run) {
    double lag = 0.0;
    const fl::RunResult result = run_elastic_pair(spec, "elastic_bye", &lag);
    EXPECT_EQ(result.rounds_completed, spec.rounds) << "run " << run;
    EXPECT_LT(lag, 2.0) << "run " << run;
  }
}

TEST(ElasticEndToEnd, RejectsEnsembleAlgorithms) {
  const FedSpec spec = tiny_spec("fedkemf");
  ElasticServerOptions options;
  options.endpoint = Endpoint::parse("unix://" + unique_socket_path("elastic_bad"));
  EXPECT_THROW(run_elastic_server(spec, options), std::invalid_argument);
}

// ---- Hostname resolution (satellite: getaddrinfo endpoints) ----

TEST(SocketIo, HostnameResolvesViaGetaddrinfo) {
  Endpoint listen_ep;
  listen_ep.kind = Endpoint::Kind::kTcp;
  listen_ep.host = "127.0.0.1";
  listen_ep.port = 0;  // ephemeral
  Fd listener = listen_endpoint(listen_ep);
  const Endpoint bound = listener_endpoint(listener.get(), listen_ep);
  Endpoint by_name = bound;
  by_name.host = "localhost";
  const Fd conn = connect_endpoint(by_name, Deadline::after(5.0));
  EXPECT_TRUE(conn.valid());
}

TEST(SocketIo, UnresolvableHostnameIsTypedErrorNotAHang) {
  Endpoint ep;
  ep.kind = Endpoint::Kind::kTcp;
  ep.host = "no-such-host.invalid";
  ep.port = 9;
  const auto start = std::chrono::steady_clock::now();
  // Resolution failure surfaces as the typed IoError immediately — it must
  // never spin in the connect-retry loop until the deadline.
  EXPECT_THROW(connect_endpoint(ep, Deadline::after(60.0)), IoError);
  const double waited =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  EXPECT_LT(waited, 30.0);
}

// ---- Frame authentication (satellite: PSK SipHash tags) ----

TEST(FrameAuth, KeyedRoundTripVerifies) {
  const FrameKey key = derive_frame_key("secret");
  const std::vector<std::uint8_t> wire = encode_frame(sample_frame(), &key);
  std::uint32_t crc = 0;
  const std::size_t body_len = decode_frame_header(
      std::span<const std::uint8_t, kFrameHeaderBytes>(wire.data(), kFrameHeaderBytes),
      FrameLimits{}, &crc);
  ASSERT_EQ(wire.size(), kFrameHeaderBytes + body_len);
  const Frame decoded = decode_frame_body(
      std::span<const std::uint8_t>(wire.data() + kFrameHeaderBytes, body_len), crc, &key);
  EXPECT_TRUE(decoded.flags & kFlagAuthTag);
  EXPECT_EQ(decoded.body, sample_frame().body);
  EXPECT_EQ(decoded.name, sample_frame().name);
}

TEST(FrameAuth, DistinctPassphrasesProduceDistinctKeysAndTags) {
  EXPECT_NE(derive_frame_key("alpha"), derive_frame_key("beta"));
  const FrameKey a = derive_frame_key("alpha");
  const FrameKey b = derive_frame_key("beta");
  const std::vector<std::uint8_t> wire_a = encode_frame(sample_frame(), &a);
  const std::vector<std::uint8_t> wire_b = encode_frame(sample_frame(), &b);
  ASSERT_EQ(wire_a.size(), wire_b.size());
  // Same frame, different keys: the trailing 8-byte tags must differ.
  EXPECT_NE(std::vector<std::uint8_t>(wire_a.end() - kFrameTagBytes, wire_a.end()),
            std::vector<std::uint8_t>(wire_b.end() - kFrameTagBytes, wire_b.end()));
}

TEST(FrameAuth, TaggedFrameWithoutKeyIsAuthError) {
  const FrameKey key = derive_frame_key("secret");
  const std::vector<std::uint8_t> wire = encode_frame(sample_frame(), &key);
  std::uint32_t crc = 0;
  const std::size_t body_len = decode_frame_header(
      std::span<const std::uint8_t, kFrameHeaderBytes>(wire.data(), kFrameHeaderBytes),
      FrameLimits{}, &crc);
  EXPECT_THROW(
      decode_frame_body(
          std::span<const std::uint8_t>(wire.data() + kFrameHeaderBytes, body_len), crc,
          nullptr),
      AuthError);
}

TEST(FrameAuth, RecomputedCrcForgeryIsCaughtOnlyByAuth) {
  // The CRC protects against *transit* corruption, not tampering: flip a
  // payload byte and recompute the CRC, and the unkeyed decoder accepts the
  // forgery without complaint.
  std::vector<std::uint8_t> plain = encode_frame(sample_frame());
  const std::size_t plain_payload = plain.size() - kFrameHeaderBytes;
  plain[kFrameHeaderBytes] ^= 0x04;  // flips the frame type
  const std::uint32_t forged_crc = core::crc32(std::span<const std::uint8_t>(
      plain.data() + kFrameHeaderBytes, plain_payload));
  for (int i = 0; i < 4; ++i) {
    plain[8 + i] = static_cast<std::uint8_t>(forged_crc >> (8 * i));
  }
  std::uint32_t crc = 0;
  const std::size_t body_len = decode_frame_header(
      std::span<const std::uint8_t, kFrameHeaderBytes>(plain.data(), kFrameHeaderBytes),
      FrameLimits{}, &crc);
  const Frame forged = decode_frame_body(
      std::span<const std::uint8_t>(plain.data() + kFrameHeaderBytes, body_len), crc,
      nullptr);
  EXPECT_NE(forged.type, sample_frame().type);  // the forgery went through

  // The keyed decoder rejects the identical tamper: the attacker can fix the
  // CRC but cannot forge the SipHash tag without the key.
  const FrameKey key = derive_frame_key("secret");
  std::vector<std::uint8_t> keyed = encode_frame(sample_frame(), &key);
  const std::size_t keyed_payload = keyed.size() - kFrameHeaderBytes - kFrameTagBytes;
  keyed[kFrameHeaderBytes] ^= 0x04;
  const std::uint32_t keyed_crc = core::crc32(std::span<const std::uint8_t>(
      keyed.data() + kFrameHeaderBytes, keyed_payload));
  for (int i = 0; i < 4; ++i) {
    keyed[8 + i] = static_cast<std::uint8_t>(keyed_crc >> (8 * i));
  }
  std::uint32_t crc2 = 0;
  const std::size_t body_len2 = decode_frame_header(
      std::span<const std::uint8_t, kFrameHeaderBytes>(keyed.data(), kFrameHeaderBytes),
      FrameLimits{}, &crc2);
  EXPECT_THROW(
      decode_frame_body(
          std::span<const std::uint8_t>(keyed.data() + kFrameHeaderBytes, body_len2), crc2,
          &key),
      AuthError);
}

TEST(FrameAuth, ServerRejectsUnauthenticatedClient) {
  const std::string path = unique_socket_path("auth_reject");
  ::unlink(path.c_str());
  EpollServer server(Endpoint::parse("unix://" + path));
  server.set_frame_auth(derive_frame_key("secret"));
  server.start();
  const std::uint64_t before =
      obs::MetricsRegistry::global().snapshot().counter("net.server.auth_failures");
  ClientSession session(Endpoint::parse("unix://" + path), Deadline::after(5.0));
  HelloRequest request;
  request.owned_clients = {0};
  // The untagged HELLO closes the connection before any reply.
  EXPECT_THROW(session.hello(request, Deadline::after(5.0)), IoError);
  EXPECT_GT(obs::MetricsRegistry::global().snapshot().counter("net.server.auth_failures"),
            before);
  server.stop();
  ::unlink(path.c_str());
}

TEST(FrameAuth, AuthenticatedUploadFlowsEndToEnd) {
  const std::string path = unique_socket_path("auth_e2e");
  ::unlink(path.c_str());
  const FrameKey key = derive_frame_key("secret");
  EpollServer server(Endpoint::parse("unix://" + path));
  server.set_frame_auth(key);
  server.start();
  ClientSession session(Endpoint::parse("unix://" + path), Deadline::after(5.0),
                        FrameLimits{}, /*collect_acks=*/false, &key);
  HelloRequest request;
  request.owned_clients = {0};
  const HelloReply reply = session.hello(request, Deadline::after(5.0));
  EXPECT_TRUE(reply.accepted);
  Frame upload;
  upload.type = FrameType::kUpload;
  upload.round = 0;
  upload.client = 0;
  upload.name = "model";
  upload.body = {1, 2, 3};
  session.send(upload, Deadline::after(5.0));
  const std::optional<Frame> claimed =
      server.await_upload(0, 0, "model", Deadline::after(5.0));
  ASSERT_TRUE(claimed.has_value());
  EXPECT_EQ(claimed->body, upload.body);
  server.stop();
  ::unlink(path.c_str());
}

// ---- Idempotent redelivery (tentpole: duplicates never double-apply) ----

TEST_F(ServerFixture, DuplicateUploadIsAckedButAppliedOnce) {
  const std::uint64_t before =
      obs::MetricsRegistry::global().snapshot().counter("net.server.duplicate_uploads");
  auto session = connect(0, /*collect_acks=*/true);
  Frame upload;
  upload.type = FrameType::kUpload;
  upload.round = 0;
  upload.client = 0;
  upload.name = "model";
  upload.body = {1, 2, 3};
  session->send(upload, Deadline::after(5.0));
  ASSERT_TRUE(server_->await_upload(0, 0, "model", Deadline::after(5.0)).has_value());
  // Redeliver the identical upload after it was claimed (what a client retry
  // or chaos-proxy duplication produces).
  session->send(upload, Deadline::after(5.0));
  // Both deliveries are ACKed — the client's retry loop always terminates...
  EXPECT_TRUE(session->await_ack(0, 0, "model", Deadline::after(5.0)).has_value());
  EXPECT_TRUE(session->await_ack(0, 0, "model", Deadline::after(5.0)).has_value());
  // ...but the duplicate is never re-parked: no second claim, no stale leak.
  EXPECT_FALSE(server_->await_upload(0, 0, "model", Deadline::after(0.2)).has_value());
  EXPECT_TRUE(server_->take_stale_uploads(10).empty());
  EXPECT_GT(
      obs::MetricsRegistry::global().snapshot().counter("net.server.duplicate_uploads"),
      before);
}

TEST_F(ServerFixture, FinishedRoundUploadGoesStaleExactlyOnce) {
  auto session = connect(1, /*collect_acks=*/true);
  Frame late;
  late.type = FrameType::kUpload;
  late.round = 0;
  late.client = 1;
  late.name = "model";
  late.scalars = {4.0, 0.05};
  late.body = {9};
  session->send(late, Deadline::after(5.0));
  std::vector<Frame> stale;
  const Deadline deadline = Deadline::after(5.0);
  while (stale.empty() && !deadline.expired()) {
    stale = server_->take_stale_uploads(2);
    if (stale.empty()) std::this_thread::sleep_for(std::chrono::milliseconds(5));
  }
  ASSERT_EQ(stale.size(), 1u);
  EXPECT_EQ(stale.front().client, 1u);
  // Redelivery after the stale drain: ACKed, but never re-ingested.
  session->send(late, Deadline::after(5.0));
  EXPECT_TRUE(session->await_ack(0, 1, "model", Deadline::after(5.0)).has_value());
  EXPECT_TRUE(session->await_ack(0, 1, "model", Deadline::after(5.0)).has_value());
  EXPECT_TRUE(server_->take_stale_uploads(3).empty());
}

// ---- Heartbeats and backpressure (tentpole: bounded liveness) ----

TEST(Heartbeat, SilentConnectionIsEvictedWhileActiveOneSurvives) {
  const std::string path = unique_socket_path("heartbeat");
  ::unlink(path.c_str());
  EpollServer server(Endpoint::parse("unix://" + path));
  server.set_heartbeat(
      {.enabled = true, .interval_seconds = 0.1, .timeout_seconds = 0.5});
  server.start();
  const obs::MetricsSnapshot before = obs::MetricsRegistry::global().snapshot();

  ClientSession active(Endpoint::parse("unix://" + path), Deadline::after(5.0));
  HelloRequest hello_active;
  hello_active.owned_clients = {0};
  EXPECT_TRUE(active.hello(hello_active, Deadline::after(5.0)).accepted);
  ClientSession silent(Endpoint::parse("unix://" + path), Deadline::after(5.0));
  HelloRequest hello_silent;
  hello_silent.owned_clients = {1};
  EXPECT_TRUE(silent.hello(hello_silent, Deadline::after(5.0)).accepted);

  // The active client keeps pumping (answering PINGs); the silent one never
  // reads again — a SIGSTOP'd process as far as the server can tell.
  std::atomic<bool> stop{false};
  std::thread pumper([&] {
    while (!stop.load()) {
      try {
        (void)active.next_task(0, Deadline::after(0.05));
      } catch (const IoError&) {
        break;
      }
    }
  });
  const Deadline eviction = Deadline::after(5.0);
  while (server.is_connected(1) && !eviction.expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(server.is_connected(1));
  EXPECT_TRUE(server.is_connected(0));
  stop.store(true);
  pumper.join();

  const obs::MetricsSnapshot after = obs::MetricsRegistry::global().snapshot();
  EXPECT_GT(after.counter("net.server.liveness_evictions"),
            before.counter("net.server.liveness_evictions"));
  EXPECT_GT(after.counter("net.server.pings_sent"),
            before.counter("net.server.pings_sent"));
  bool saw_left = false;
  for (const MembershipEvent& event : server.take_membership_events()) {
    if (event.kind == MembershipEvent::Kind::kLeft && event.client_id == 1) {
      saw_left = true;
    }
  }
  EXPECT_TRUE(saw_left);
  server.stop();
  ::unlink(path.c_str());
}

TEST(Backpressure, OverflowingWriteQueueEvictsTheConnection) {
  const std::string path = unique_socket_path("backpressure");
  ::unlink(path.c_str());
  EpollServer server(Endpoint::parse("unix://" + path));
  server.set_write_queue_cap(1024);
  server.start();
  const std::uint64_t before = obs::MetricsRegistry::global().snapshot().counter(
      "net.server.backpressure_evictions");

  ClientSession session(Endpoint::parse("unix://" + path), Deadline::after(5.0));
  HelloRequest request;
  request.owned_clients = {0};
  EXPECT_TRUE(session.hello(request, Deadline::after(5.0)).accepted);
  Frame task;
  task.type = FrameType::kTask;
  task.round = 0;
  task.client = 0;
  task.name = "model";
  task.body.assign(256 * 1024, 0x5A);  // far past the 1 KiB cap
  EXPECT_TRUE(server.send_task(0, std::move(task)));
  const Deadline eviction = Deadline::after(5.0);
  while (server.is_connected(0) && !eviction.expired()) {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_FALSE(server.is_connected(0));
  EXPECT_GT(obs::MetricsRegistry::global().snapshot().counter(
                "net.server.backpressure_evictions"),
            before);
  server.stop();
  ::unlink(path.c_str());
}

// ---- FaultyTransport (tentpole: deterministic in-library chaos) ----

TEST(FaultyTransportTest, SameSeedInjectsIdenticalFaults) {
  ScriptedTransport inner(comm::Transport::Outcome::kLocal);
  FaultyTransportOptions options;
  options.drop_rate = 0.3;
  options.seed = 42;
  FaultyTransport a(inner, options);
  FaultyTransport b(inner, options);
  for (std::size_t round = 0; round < 8; ++round) {
    for (std::size_t client = 0; client < 8; ++client) {
      std::vector<std::uint8_t> payload = {1, 2, 3};
      const auto oa = a.attempt(payload, round, client, comm::Direction::kUplink, 0, "m");
      payload = {1, 2, 3};
      const auto ob = b.attempt(payload, round, client, comm::Direction::kUplink, 0, "m");
      EXPECT_EQ(oa, ob) << "round " << round << " client " << client;
    }
  }
  EXPECT_EQ(a.drops(), b.drops());
  EXPECT_GT(a.drops(), 0u);   // ~30% of 64 attempts
  EXPECT_LT(a.drops(), 64u);  // but not all of them
}

TEST(FaultyTransportTest, CorruptionFlipsExactlyOneByte) {
  ScriptedTransport inner(comm::Transport::Outcome::kLocal);
  FaultyTransportOptions options;
  options.corrupt_rate = 1.0;
  options.seed = 7;
  FaultyTransport faulty(inner, options);
  std::vector<std::uint8_t> payload(64, 0x11);
  const std::vector<std::uint8_t> original = payload;
  EXPECT_EQ(faulty.attempt(payload, 0, 0, comm::Direction::kDownlink, 0, "m"),
            comm::Transport::Outcome::kLocal);
  std::size_t diffs = 0;
  for (std::size_t i = 0; i < payload.size(); ++i) {
    if (payload[i] != original[i]) ++diffs;
  }
  EXPECT_EQ(diffs, 1u);
  EXPECT_EQ(faulty.corruptions(), 1u);
}

TEST(ElasticEndToEnd, CompletesUnderInjectedDrops) {
  const FedSpec spec = tiny_spec("fedavg");
  const std::string path = unique_socket_path("elastic_drops");
  ::unlink(path.c_str());
  ElasticServerOptions server_options;
  server_options.endpoint = Endpoint::parse("unix://" + path);
  server_options.min_clients = 2;
  server_options.join_wait_seconds = 30.0;
  server_options.upload_timeout_seconds = 10.0;
  server_options.fault.drop_rate = 0.2;
  server_options.fault.seed = 11;

  fl::RunResult result;
  std::thread server([&] { result = run_elastic_server(spec, server_options); });
  std::vector<std::thread> workers;
  for (std::size_t id = 0; id < 2; ++id) {
    workers.emplace_back([&, id] {
      ElasticClientOptions options;
      options.endpoint = Endpoint::parse("unix://" + path);
      options.client_id = id;
      (void)run_elastic_client(spec, options);
    });
  }
  server.join();
  for (auto& w : workers) w.join();
  ::unlink(path.c_str());

  // Every round closes despite the injected attempt drops: lost transfers
  // retry, exhausted retries become recorded per-client drops, never aborts.
  EXPECT_EQ(result.rounds_completed, spec.rounds);
  EXPECT_GE(result.final_accuracy, 0.0);
}

// ---- Auto-reconnect (tentpole: churn-path rejoin) ----

TEST(ElasticEndToEnd, ClientAutoReconnectsAfterForcedDisconnect) {
  const FedSpec spec = tiny_spec("fedavg");
  const std::string path = unique_socket_path("reconnect");
  ::unlink(path.c_str());
  EpollServer server(Endpoint::parse("unix://" + path));
  server.start();  // default validator: accepts the worker's elastic HELLO
  const std::uint64_t rejoins_before =
      obs::MetricsRegistry::global().snapshot().counter("net.server.rejoins");

  ElasticClientResult served;
  std::thread worker([&] {
    ElasticClientOptions options;
    options.endpoint = Endpoint::parse("unix://" + path);
    options.client_id = 0;
    options.max_reconnects = 4;
    options.reconnect_backoff_seconds = 0.05;
    options.reconnect_backoff_max_seconds = 0.3;
    served = run_elastic_client(spec, options);
  });

  ASSERT_TRUE(server.wait_for_clients(1, Deadline::after(10.0)));
  core::Rng rng(1);
  const std::unique_ptr<nn::Module> model = models::build_model(spec.client_model, rng);
  const std::vector<std::uint8_t> body = comm::serialize_model(*model);

  Frame task0;
  task0.type = FrameType::kTask;
  task0.round = 0;
  task0.client = 0;
  task0.name = "model";
  task0.body = body;
  ASSERT_TRUE(server.send_task(0, std::move(task0)));
  ASSERT_TRUE(server.await_upload(0, 0, "model", Deadline::after(60.0)).has_value());

  // Sever the connection server-side; the worker must notice and rejoin
  // through the churn path on its own.
  server.disconnect_client(0);
  bool saw_left = false;
  bool saw_rejoin = false;
  const Deadline rejoin_deadline = Deadline::after(20.0);
  while (!(saw_left && saw_rejoin) && !rejoin_deadline.expired()) {
    for (const MembershipEvent& event : server.take_membership_events()) {
      if (event.kind == MembershipEvent::Kind::kLeft && event.client_id == 0) {
        saw_left = true;
      }
      if (event.kind == MembershipEvent::Kind::kJoined && event.rejoin) {
        saw_rejoin = true;
      }
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
  }
  EXPECT_TRUE(saw_left);
  ASSERT_TRUE(saw_rejoin);

  Frame task1;
  task1.type = FrameType::kTask;
  task1.round = 1;
  task1.client = 0;
  task1.name = "model";
  task1.body = body;
  ASSERT_TRUE(server.send_task(0, std::move(task1)));
  ASSERT_TRUE(server.await_upload(1, 0, "model", Deadline::after(60.0)).has_value());

  server.stop();  // BYE ends the worker's serve loop without a reconnect
  worker.join();
  ::unlink(path.c_str());

  EXPECT_EQ(served.rounds_served, 2u);
  EXPECT_EQ(served.reconnects, 1u);
  EXPECT_GT(obs::MetricsRegistry::global().snapshot().counter("net.server.rejoins"),
            rejoins_before);
}

}  // namespace
}  // namespace fedkemf::net
