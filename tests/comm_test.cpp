// Communication substrate tests: model wire format round trips, CRC32
// integrity, byte-exact accounting, traffic metering, thread
// safety, fault-hook retry behavior, and the link cost model.

#include <cmath>
#include <limits>
#include <thread>

#include <gtest/gtest.h>

#include "comm/channel.hpp"
#include "comm/compression.hpp"
#include "core/rng.hpp"
#include "models/zoo.hpp"
#include "nn/linear.hpp"
#include "nn/norm.hpp"
#include "utils/thread_pool.hpp"

namespace fedkemf::comm {
namespace {

using core::Rng;
using core::Shape;
using core::Tensor;

std::unique_ptr<nn::Module> small_model(std::uint64_t seed) {
  Rng rng(seed);
  return models::build_model(
      models::ModelSpec{.arch = "resnet20", .num_classes = 10, .in_channels = 3,
                        .image_size = 8, .width_multiplier = 0.25},
      rng);
}

TEST(ModelSerialize, RoundTripPreservesForwardPass) {
  auto src = small_model(1);
  auto dst = small_model(2);  // different weights initially
  Rng rng(3);
  Tensor x = Tensor::normal(Shape::nchw(2, 3, 8, 8), rng);
  src->set_training(false);
  dst->set_training(false);
  Tensor before_src = src->forward(x);
  Tensor before_dst = dst->forward(x);
  bool differed = false;
  for (std::size_t i = 0; i < before_src.numel(); ++i) {
    if (before_src[i] != before_dst[i]) differed = true;
  }
  ASSERT_TRUE(differed);

  const auto payload = serialize_model(*src);
  deserialize_model(payload, *dst);
  Tensor after_dst = dst->forward(x);
  for (std::size_t i = 0; i < before_src.numel(); ++i) {
    ASSERT_EQ(after_dst[i], before_src[i]);  // bit-identical, buffers included
  }
}

TEST(ModelSerialize, WireSizeMatchesPayload) {
  auto model = small_model(4);
  const auto payload = serialize_model(*model);
  EXPECT_EQ(payload.size(), model_wire_size(*model));
}

TEST(ModelSerialize, WireSizeTracksParameterCount) {
  // Payload must be ~4 bytes per state scalar plus small headers.
  auto model = small_model(5);
  const std::size_t scalars = nn::state_numel(*model);
  const std::size_t bytes = model_wire_size(*model);
  EXPECT_GT(bytes, scalars * 4);
  EXPECT_LT(bytes, scalars * 4 + scalars);  // generous header allowance
}

TEST(ModelSerialize, RejectsWrongArchitecture) {
  auto src = small_model(6);
  Rng rng(7);
  nn::Sequential other;
  other.emplace<nn::Linear>(4, 2, rng);
  const auto payload = serialize_model(*src);
  EXPECT_THROW(deserialize_model(payload, other), std::invalid_argument);
}

TEST(ModelSerialize, RejectsCorruptMagic) {
  auto model = small_model(8);
  auto payload = serialize_model(*model);
  payload[0] ^= 0xFF;
  EXPECT_THROW(deserialize_model(payload, *model), std::runtime_error);
}

TEST(ModelSerialize, RejectsTrailingGarbage) {
  auto model = small_model(9);
  auto payload = serialize_model(*model);
  payload.push_back(0);
  EXPECT_THROW(deserialize_model(payload, *model), std::runtime_error);
}

TEST(ModelSerialize, DetectsBodyCorruptionViaChecksum) {
  auto src = small_model(20);
  auto dst = small_model(21);
  auto payload = serialize_model(*src);
  payload[payload.size() / 2] ^= 0x10;  // flip one bit deep in the body
  EXPECT_THROW(deserialize_model(payload, *dst), ChecksumError);
}

TEST(ModelSerialize, DetectsChecksumFieldCorruption) {
  auto src = small_model(22);
  auto dst = small_model(23);
  auto payload = serialize_model(*src);
  payload[9] ^= 0x01;  // the crc32 field itself (bytes 8..11)
  EXPECT_THROW(deserialize_model(payload, *dst), ChecksumError);
}

TEST(ModelSerialize, ChecksumErrorMessageNamesOffsetAndValues) {
  auto src = small_model(24);
  auto payload = serialize_model(*src);
  payload.back() ^= 0xFF;
  try {
    deserialize_model(payload, *src);
    FAIL() << "expected ChecksumError";
  } catch (const ChecksumError& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find("offset"), std::string::npos) << what;
    EXPECT_NE(what.find("expected"), std::string::npos) << what;
  }
}

TEST(TrafficMeter, AccumulatesByDirectionRoundAndClient) {
  TrafficMeter meter;
  meter.record({0, 1, Direction::kDownlink, 100, "model"});
  meter.record({0, 2, Direction::kUplink, 200, "model"});
  meter.record({1, 1, Direction::kUplink, 50, "tau"});
  EXPECT_EQ(meter.total_bytes(), 350u);
  EXPECT_EQ(meter.downlink_bytes(), 100u);
  EXPECT_EQ(meter.uplink_bytes(), 250u);
  EXPECT_EQ(meter.bytes_for_round(0), 300u);
  EXPECT_EQ(meter.bytes_for_round(1), 50u);
  EXPECT_EQ(meter.bytes_for_client(1), 150u);
  EXPECT_EQ(meter.num_transfers(), 3u);
  EXPECT_DOUBLE_EQ(meter.mean_bytes_per_round(), 175.0);
}

TEST(TrafficMeter, ResetClears) {
  TrafficMeter meter;
  meter.record({0, 0, Direction::kUplink, 10, "x"});
  meter.reset();
  EXPECT_EQ(meter.total_bytes(), 0u);
  EXPECT_EQ(meter.num_transfers(), 0u);
  EXPECT_DOUBLE_EQ(meter.mean_bytes_per_round(), 0.0);
}

TEST(TrafficMeter, ConcurrentRecordingFromThreadPool) {
  // The round loop meters transfers from worker threads; drive record() from
  // the same pool abstraction the algorithms use and check per-(round,
  // client) attribution survives the contention.
  TrafficMeter meter;
  utils::ThreadPool pool(4);
  constexpr std::size_t kClients = 16;
  constexpr std::size_t kPerClient = 200;
  pool.parallel_for(kClients, [&meter](std::size_t client) {
    for (std::size_t i = 0; i < kPerClient; ++i) {
      meter.record({/*round=*/i % 2, client, Direction::kUplink, client + 1, "m"});
    }
  });
  EXPECT_EQ(meter.num_transfers(), kClients * kPerClient);
  std::size_t expected_total = 0;
  for (std::size_t client = 0; client < kClients; ++client) {
    expected_total += kPerClient * (client + 1);
    EXPECT_EQ(meter.bytes_for_client(client), kPerClient * (client + 1));
    EXPECT_EQ(meter.bytes_for(0, client), (kPerClient / 2) * (client + 1));
  }
  EXPECT_EQ(meter.total_bytes(), expected_total);
}

TEST(TrafficMeter, ThreadSafeRecording) {
  TrafficMeter meter;
  std::vector<std::thread> threads;
  for (int t = 0; t < 8; ++t) {
    threads.emplace_back([&meter, t] {
      for (int i = 0; i < 500; ++i) {
        meter.record({static_cast<std::size_t>(t), 0, Direction::kUplink, 1, "x"});
      }
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(meter.total_bytes(), 4000u);
}

TEST(Channel, TransferMovesStateAndMeters) {
  TrafficMeter meter;
  Channel channel(&meter);
  auto src = small_model(10);
  auto dst = small_model(11);
  const std::size_t bytes =
      channel.transfer(*src, *dst, /*round=*/3, /*client=*/7, Direction::kDownlink, "kn");
  EXPECT_EQ(bytes, model_wire_size(*src));
  EXPECT_EQ(meter.total_bytes(), bytes);
  const auto records = meter.records();
  ASSERT_EQ(records.size(), 1u);
  EXPECT_EQ(records[0].round, 3u);
  EXPECT_EQ(records[0].client_id, 7u);
  EXPECT_EQ(records[0].payload, "kn");
  // Destination now matches source.
  const auto ps = src->parameters();
  const auto pd = dst->parameters();
  for (std::size_t i = 0; i < ps.size(); ++i) {
    for (std::size_t j = 0; j < ps[i]->value.numel(); ++j) {
      ASSERT_EQ(ps[i]->value[j], pd[i]->value[j]);
    }
  }
}

TEST(Channel, RawTransfersMeterWithoutMarshalling) {
  TrafficMeter meter;
  Channel channel(&meter);
  EXPECT_EQ(channel.transfer_raw(1234, 0, 0, Direction::kUplink, "control"), 1234u);
  EXPECT_EQ(meter.uplink_bytes(), 1234u);
}

TEST(Channel, NullMeterIsAllowed) {
  Channel channel(nullptr);
  auto src = small_model(12);
  auto dst = small_model(13);
  EXPECT_GT(channel.transfer(*src, *dst, 0, 0, Direction::kDownlink, "m"), 0u);
}

TEST(LinkModel, TransferTimeIsLatencyPlusSerialization) {
  LinkModel link{.bandwidth_bytes_per_second = 1000.0, .latency_seconds = 0.5};
  EXPECT_DOUBLE_EQ(link.transfer_seconds(0), 0.5);
  EXPECT_DOUBLE_EQ(link.transfer_seconds(2000), 2.5);
}

TEST(LinkModel, ZeroBytesCostsExactlyTheLatency) {
  LinkModel link{.bandwidth_bytes_per_second = 123.0, .latency_seconds = 0.0};
  EXPECT_DOUBLE_EQ(link.transfer_seconds(0), 0.0);
}

TEST(LinkModel, HugePayloadsStayFiniteAndMonotonic) {
  LinkModel link;  // WAN defaults
  const std::size_t huge = std::numeric_limits<std::size_t>::max() / 2;
  const double t_huge = link.transfer_seconds(huge);
  EXPECT_TRUE(std::isfinite(t_huge));
  EXPECT_GT(t_huge, link.transfer_seconds(huge / 2));
  // A terabyte at 2.5 MB/s is ~4.6 days; sanity-check the magnitude.
  const double t_tb = link.transfer_seconds(std::size_t{1} << 40);
  EXPECT_NEAR(t_tb, static_cast<double>(std::size_t{1} << 40) / (20e6 / 8.0), 1.0);
}

// ---- Fault hook / retry behavior ----

/// Deterministic scripted hook: applies a fixed list of actions, one per
/// attempt, then delivers.  Counts calls.
class ScriptedFaultHook final : public FaultHook {
 public:
  explicit ScriptedFaultHook(std::vector<Action> script) : script_(std::move(script)) {}

  Action on_payload(std::size_t, std::size_t, Direction, std::size_t,
                    std::vector<std::uint8_t>& payload) override {
    const std::size_t call = calls_++;
    const Action action =
        call < script_.size() ? script_[call] : Action::kDeliver;
    if (action == Action::kCorrupt && !payload.empty()) payload[payload.size() / 2] ^= 0x40;
    return action;
  }

  std::size_t calls() const { return calls_; }

 private:
  std::vector<Action> script_;
  std::size_t calls_ = 0;
};

TEST(ChannelFaults, CorruptedAttemptIsDetectedAndRetried) {
  TrafficMeter meter;
  Channel channel(&meter);
  ScriptedFaultHook hook({FaultHook::Action::kCorrupt});
  channel.set_fault_hook(&hook);
  channel.set_retry_policy({.max_attempts = 3});
  auto src = small_model(30);
  auto dst = small_model(31);
  ASSERT_NO_THROW(channel.transfer(*src, *dst, 0, 0, Direction::kDownlink, "model"));
  EXPECT_EQ(hook.calls(), 2u);  // corrupt, then clean retry
  EXPECT_EQ(meter.num_transfers(), 2u);  // both attempts consumed the link
  const auto ps = src->parameters();
  const auto pd = dst->parameters();
  for (std::size_t j = 0; j < ps[0]->value.numel(); ++j) {
    ASSERT_EQ(ps[0]->value[j], pd[0]->value[j]);
  }
}

TEST(ChannelFaults, DroppedAttemptsAreRetriedPerPolicy) {
  TrafficMeter meter;
  Channel channel(&meter);
  ScriptedFaultHook hook({FaultHook::Action::kDrop, FaultHook::Action::kDrop});
  channel.set_fault_hook(&hook);
  channel.set_retry_policy({.max_attempts = 3});
  auto src = small_model(32);
  auto dst = small_model(33);
  ASSERT_NO_THROW(channel.transfer(*src, *dst, 1, 2, Direction::kUplink, "model"));
  EXPECT_EQ(hook.calls(), 3u);
  EXPECT_EQ(meter.bytes_for(1, 2), 3 * model_wire_size(*src));
}

TEST(ChannelFaults, ExhaustedRetriesThrowTransferFailed) {
  Channel channel(nullptr);
  ScriptedFaultHook hook({FaultHook::Action::kDrop, FaultHook::Action::kDrop,
                          FaultHook::Action::kDrop});
  channel.set_fault_hook(&hook);
  channel.set_retry_policy({.max_attempts = 3});
  auto src = small_model(34);
  auto dst = small_model(35);
  EXPECT_THROW(channel.transfer(*src, *dst, 0, 0, Direction::kUplink, "model"),
               TransferFailed);
  EXPECT_EQ(hook.calls(), 3u);
}

TEST(ChannelFaults, CompressedTransfersAreAlsoProtected) {
  Channel channel(nullptr);
  ScriptedFaultHook hook({FaultHook::Action::kCorrupt, FaultHook::Action::kCorrupt});
  channel.set_fault_hook(&hook);
  channel.set_retry_policy({.max_attempts = 3});
  auto src = small_model(36);
  auto dst = small_model(37);
  ASSERT_NO_THROW(channel.transfer_compressed(*src, *dst, 0, 0, Direction::kDownlink,
                                              "kn", Codec::kFp16));
  EXPECT_EQ(hook.calls(), 3u);
}

TEST(ChannelFaults, NoHookMeansSingleAttemptSemantics) {
  TrafficMeter meter;
  Channel channel(&meter);
  channel.set_retry_policy({.max_attempts = 5});  // irrelevant without a hook
  auto src = small_model(38);
  auto dst = small_model(39);
  channel.transfer(*src, *dst, 0, 0, Direction::kDownlink, "model");
  EXPECT_EQ(meter.num_transfers(), 1u);
}

TEST(RetryBackoff, ExponentialClosedFormWithoutJitter) {
  RetryPolicy policy{.max_attempts = 5, .backoff_seconds = 0.05, .backoff_multiplier = 2.0};
  EXPECT_DOUBLE_EQ(retry_backoff_seconds(policy, 0), 0.0);
  EXPECT_DOUBLE_EQ(retry_backoff_seconds(policy, 1), 0.05);
  EXPECT_DOUBLE_EQ(retry_backoff_seconds(policy, 3), 0.05 + 0.10 + 0.20);
  // The seed is inert without jitter: the schedule stays deterministic.
  EXPECT_DOUBLE_EQ(retry_backoff_seconds(policy, 3, 7),
                   retry_backoff_seconds(policy, 3, 99));
}

TEST(RetryBackoff, DecorrelatedJitterIsDeterministicPerSeed) {
  RetryPolicy policy{.max_attempts = 5,
                     .backoff_seconds = 0.05,
                     .backoff_multiplier = 2.0,
                     .decorrelated_jitter = true,
                     .max_backoff_seconds = 1.0};
  for (std::size_t failures = 0; failures <= 4; ++failures) {
    EXPECT_DOUBLE_EQ(retry_backoff_seconds(policy, failures, 42),
                     retry_backoff_seconds(policy, failures, 42))
        << "failures=" << failures;
  }
}

TEST(RetryBackoff, DifferentSeedsDecorrelate) {
  RetryPolicy policy{.backoff_seconds = 0.05,
                     .decorrelated_jitter = true,
                     .max_backoff_seconds = 5.0};
  // At least one pair of seeds must diverge (the whole point of the jitter:
  // clients that failed in the same fault window stop retrying in lockstep).
  bool any_different = false;
  const double first = retry_backoff_seconds(policy, 3, 0);
  for (std::uint64_t seed = 1; seed <= 8; ++seed) {
    if (retry_backoff_seconds(policy, 3, seed) != first) any_different = true;
  }
  EXPECT_TRUE(any_different);
}

TEST(RetryBackoff, JitteredWaitsRespectBaseAndCap) {
  RetryPolicy policy{.backoff_seconds = 0.05,
                     .decorrelated_jitter = true,
                     .max_backoff_seconds = 0.3};
  for (std::uint64_t seed = 0; seed < 32; ++seed) {
    for (std::size_t failures = 1; failures <= 6; ++failures) {
      const double total = retry_backoff_seconds(policy, failures, seed);
      EXPECT_GE(total, policy.backoff_seconds * static_cast<double>(failures));
      EXPECT_LE(total, policy.max_backoff_seconds * static_cast<double>(failures));
    }
  }
}

TEST(PaperByteAccounting, FullWidthModelsMatchPaperMagnitudes) {
  // Table 1's per-round-per-client figures (down+up) for full-width models:
  // ResNet-20 about 2.1 MB, ResNet-32 about 3.6 MB, VGG-11 tens of MB.
  auto size_of = [](const char* arch) {
    Rng rng(0);
    auto model = models::build_model(
        models::ModelSpec{.arch = arch, .num_classes = 10, .in_channels = 3,
                          .image_size = 32, .width_multiplier = 1.0},
        rng);
    return static_cast<double>(model_wire_size(*model)) / (1024.0 * 1024.0);
  };
  const double r20 = 2 * size_of("resnet20");
  const double r32 = 2 * size_of("resnet32");
  const double vgg = 2 * size_of("vgg11");
  EXPECT_NEAR(r20, 2.1, 0.3);
  EXPECT_NEAR(r32, 3.6, 0.4);
  EXPECT_GT(vgg, 30.0);
  // The knowledge-network saving the paper reports: VGG-11 / ResNet-20 ~ 20x+.
  EXPECT_GT(vgg / r20, 20.0);
}

}  // namespace
}  // namespace fedkemf::comm
