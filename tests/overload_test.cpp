// Overload-robustness tests: the core::MemoryBudget accounting contract, the
// streaming / bounded fusion primitives, SpillStore's CRC-checked round trip
// and corruption tolerance, the StaleUpdateBuffer under capacity and budget
// pressure, ChurnModel phantom registrations, and the BUSY admission frame.

#include <cstddef>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <span>
#include <stdexcept>
#include <vector>

#include <gtest/gtest.h>

#include "core/memory_budget.hpp"
#include "core/rng.hpp"
#include "core/serialize.hpp"
#include "core/tensor.hpp"
#include "fl/algorithm.hpp"
#include "fl/fusion_stream.hpp"
#include "fl/spill.hpp"
#include "fl/stale_buffer.hpp"
#include "net/frame.hpp"
#include "net/session.hpp"
#include "nn/linear.hpp"
#include "nn/module.hpp"
#include "obs/process.hpp"
#include "sim/churn.hpp"

namespace fedkemf {
namespace {

namespace fs = std::filesystem;
using core::BudgetCategory;
using core::MemoryBudget;

// RAII temp directory — tests must not leak files between runs.
struct TempDir {
  explicit TempDir(const std::string& name) : path(fs::temp_directory_path() / name) {
    fs::remove_all(path);
    fs::create_directories(path);
  }
  ~TempDir() { fs::remove_all(path); }
  fs::path path;
};

// ---- core::MemoryBudget ----

TEST(MemoryBudget, UnlimitedBudgetAlwaysChargesButStillCounts) {
  MemoryBudget budget;  // limit 0 = unlimited
  EXPECT_TRUE(budget.unlimited());
  EXPECT_TRUE(budget.try_charge(BudgetCategory::kUploads, 1ull << 40));
  EXPECT_EQ(budget.used_bytes(), 1ull << 40);
  EXPECT_FALSE(budget.over_high_water());
  EXPECT_EQ(budget.rejected_charges(), 0u);
  budget.release(BudgetCategory::kUploads, 1ull << 40);
  EXPECT_EQ(budget.used_bytes(), 0u);
}

TEST(MemoryBudget, TryChargeRespectsTheLimit) {
  MemoryBudget budget(100);
  EXPECT_TRUE(budget.try_charge(BudgetCategory::kUploads, 80));
  EXPECT_FALSE(budget.try_charge(BudgetCategory::kStaleBuffer, 30));
  EXPECT_EQ(budget.rejected_charges(), 1u);
  EXPECT_EQ(budget.used_bytes(), 80u);  // the failed charge reserved nothing
  budget.release(BudgetCategory::kUploads, 50);
  EXPECT_TRUE(budget.try_charge(BudgetCategory::kStaleBuffer, 30));
  EXPECT_EQ(budget.used_bytes(BudgetCategory::kUploads), 30u);
  EXPECT_EQ(budget.used_bytes(BudgetCategory::kStaleBuffer), 30u);
}

TEST(MemoryBudget, UnconditionalChargeMayExceedTheLimit) {
  MemoryBudget budget(10);
  budget.charge(BudgetCategory::kClientState, 25);  // must-hold state
  EXPECT_EQ(budget.used_bytes(), 25u);
  EXPECT_TRUE(budget.over_high_water());
  budget.release(BudgetCategory::kClientState, 25);
  EXPECT_FALSE(budget.over_high_water());
}

TEST(MemoryBudget, HighWaterSignalAndPeakTracking) {
  MemoryBudget budget(100, 0.8);
  budget.charge(BudgetCategory::kUploads, 70);
  EXPECT_FALSE(budget.over_high_water());
  budget.charge(BudgetCategory::kStaleBuffer, 20);
  EXPECT_TRUE(budget.over_high_water());  // 90 > 80
  budget.release(BudgetCategory::kStaleBuffer, 20);
  EXPECT_FALSE(budget.over_high_water());
  EXPECT_EQ(budget.high_water_bytes(), 90u);  // peak survives the release
}

TEST(MemoryBudget, ReleaseClampsAtZeroDefensively) {
  MemoryBudget budget(100);
  budget.charge(BudgetCategory::kUploads, 10);
  budget.release(BudgetCategory::kUploads, 999);
  EXPECT_EQ(budget.used_bytes(), 0u);
}

// ---- fl::StreamingWeightedSum ----

std::vector<core::Tensor> linear_state(std::uint64_t seed) {
  core::Rng rng(seed);
  nn::Linear module(4, 3, rng);
  return nn::snapshot_state(module);
}

TEST(StreamingWeightedSum, MatchesTheBatchHelperBitwise) {
  core::Rng rng_a(11);
  core::Rng rng_b(11);
  nn::Linear batch_target(4, 3, rng_a);
  nn::Linear stream_target(4, 3, rng_b);

  const std::vector<core::Tensor> m0 = linear_state(1);
  const std::vector<core::Tensor> m1 = linear_state(2);
  const std::vector<core::Tensor> m2 = linear_state(3);
  const double weights[] = {1.0, 2.5, 0.5};

  const fl::StateContribution members[] = {
      {nullptr, &m0, weights[0]}, {nullptr, &m1, weights[1]}, {nullptr, &m2, weights[2]}};
  fl::weighted_state_average_into(batch_target, members);

  fl::StreamingWeightedSum sum(stream_target, weights[0] + weights[1] + weights[2]);
  sum.add(m0, weights[0]);
  sum.add(m1, weights[1]);
  sum.add(m2, weights[2]);
  EXPECT_EQ(sum.members_added(), 3u);
  sum.finalize();

  const std::vector<core::Tensor> batch = nn::snapshot_state(batch_target);
  const std::vector<core::Tensor> stream = nn::snapshot_state(stream_target);
  ASSERT_EQ(batch.size(), stream.size());
  for (std::size_t t = 0; t < batch.size(); ++t) {
    ASSERT_EQ(batch[t].numel(), stream[t].numel());
    for (std::size_t i = 0; i < batch[t].numel(); ++i) {
      EXPECT_EQ(batch[t].data()[i], stream[t].data()[i]) << "tensor " << t << " elem " << i;
    }
  }
}

TEST(StreamingWeightedSum, FinalizeWithoutMembersThrows) {
  core::Rng rng(5);
  nn::Linear target(2, 2, rng);
  fl::StreamingWeightedSum sum(target, 1.0);
  EXPECT_THROW(sum.finalize(), std::logic_error);
}

// ---- fl::SpillStore ----

TEST(SpillStore, StoreTakeRoundTripIsSingleUse) {
  TempDir dir("fedkemf_spill_roundtrip");
  fl::SpillStore store(dir.path.string());
  const std::vector<std::uint8_t> bytes = {1, 2, 3, 250, 251, 252};
  store.store(7, bytes);
  EXPECT_TRUE(store.contains(7));
  EXPECT_EQ(store.stored_count(), 1u);

  const auto loaded = store.take(7);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, bytes);
  // Spilled state is single-use: the file is consumed by the load.
  EXPECT_FALSE(store.contains(7));
  EXPECT_FALSE(store.take(7).has_value());
}

TEST(SpillStore, StoreReplacesAPreviousSpill) {
  TempDir dir("fedkemf_spill_replace");
  fl::SpillStore store(dir.path.string());
  store.store(3, std::vector<std::uint8_t>{1, 1, 1});
  store.store(3, std::vector<std::uint8_t>{9, 9});
  const auto loaded = store.take(3);
  ASSERT_TRUE(loaded.has_value());
  EXPECT_EQ(*loaded, (std::vector<std::uint8_t>{9, 9}));
}

TEST(SpillStore, CorruptFileDegradesToAbsentAndIsDropped) {
  TempDir dir("fedkemf_spill_corrupt");
  fl::SpillStore store(dir.path.string());
  store.store(4, std::vector<std::uint8_t>{10, 20, 30, 40});

  // Flip a byte at the end of the file so the container CRC fails.
  fs::path victim;
  for (const auto& entry : fs::directory_iterator(dir.path)) victim = entry.path();
  ASSERT_FALSE(victim.empty());
  std::fstream f(victim, std::ios::in | std::ios::out | std::ios::binary);
  f.seekp(-1, std::ios::end);
  char last = 0;
  f.seekg(-1, std::ios::end);
  f.read(&last, 1);
  last = static_cast<char>(last ^ 0x5A);
  f.seekp(-1, std::ios::end);
  f.write(&last, 1);
  f.close();

  EXPECT_FALSE(store.take(4).has_value());  // counted, never fatal
  EXPECT_FALSE(store.contains(4));          // the corrupt file was removed
  EXPECT_EQ(store.stored_count(), 0u);
}

TEST(SpillStore, DropRemovesWithoutLoading) {
  TempDir dir("fedkemf_spill_drop");
  fl::SpillStore store(dir.path.string());
  store.store(1, std::vector<std::uint8_t>{5});
  store.drop(1);
  EXPECT_FALSE(store.contains(1));
  store.drop(1);  // idempotent on absent ids
}

// ---- fl::StaleUpdateBuffer at capacity and under budget pressure ----

fl::StaleUpdate make_update(std::size_t client, std::size_t origin, std::size_t due) {
  fl::StaleUpdate update;
  update.client_id = client;
  update.origin_round = origin;
  update.due_round = due;
  core::Tensor t(core::Shape{{4, 4}});
  t.fill(static_cast<float>(client));
  update.state.push_back(t);
  return update;
}

TEST(StaleBufferOverload, CapacityEvictionKeepsCanonicalOrderAndCounts) {
  fl::StalenessOptions options;
  options.buffer_capacity = 2;
  fl::StaleUpdateBuffer buffer(options);
  // Push far beyond capacity in shuffled order; eviction happens at
  // take_due() so a burst cannot evict in thread-arrival order.
  buffer.push(make_update(3, 3, 9));
  buffer.push(make_update(0, 1, 9));
  buffer.push(make_update(2, 4, 9));
  buffer.push(make_update(1, 2, 9));
  EXPECT_EQ(buffer.size(), 4u);

  // Nothing is due yet, so this drain only applies the capacity bound to
  // what stays: the two oldest origins are evicted and counted.
  EXPECT_TRUE(buffer.take_due(0).empty());
  EXPECT_EQ(buffer.evicted_total(), 2u);
  EXPECT_EQ(buffer.budget_evicted_total(), 0u);
  EXPECT_EQ(buffer.size(), 2u);

  // The survivors are the newest origins, drained in canonical order.
  const std::vector<fl::StaleUpdate> due = buffer.take_due(9);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].origin_round, 3u);
  EXPECT_EQ(due[1].origin_round, 4u);
  EXPECT_EQ(buffer.size(), 0u);
}

TEST(StaleBufferOverload, ResidentBytesChargeAndReleaseAgainstTheBudget) {
  MemoryBudget budget(1 << 20);
  fl::StalenessOptions options;
  options.buffer_capacity = 8;
  fl::StaleUpdateBuffer buffer(options);
  buffer.set_memory_budget(&budget);

  buffer.push(make_update(0, 0, 1));
  buffer.push(make_update(1, 0, 1));
  EXPECT_GT(buffer.resident_bytes(), 0u);
  EXPECT_EQ(budget.used_bytes(BudgetCategory::kStaleBuffer), buffer.resident_bytes());

  (void)buffer.take_due(1);  // drain returns every reservation
  EXPECT_EQ(buffer.resident_bytes(), 0u);
  EXPECT_EQ(budget.used_bytes(BudgetCategory::kStaleBuffer), 0u);
  buffer.set_memory_budget(nullptr);
}

TEST(StaleBufferOverload, OverHighWaterBudgetShedsBeyondCapacity) {
  // A budget already over its high-water mark: parked stale uploads are the
  // lowest-priority resident state, so take_due shreds down to the entries
  // actually due even though the nominal capacity would keep them.
  MemoryBudget budget(100, 0.5);
  budget.charge(BudgetCategory::kClientState, 90);  // someone else's pressure
  fl::StalenessOptions options;
  options.buffer_capacity = 8;
  fl::StaleUpdateBuffer buffer(options);
  buffer.set_memory_budget(&budget);

  buffer.push(make_update(0, 0, 9));  // oldest origin — shed first
  buffer.push(make_update(1, 5, 9));
  const std::vector<fl::StaleUpdate> due = buffer.take_due(4);  // nothing due yet
  EXPECT_TRUE(due.empty());
  EXPECT_GT(buffer.budget_evicted_total(), 0u);
  EXPECT_LT(buffer.size(), 2u);
  buffer.set_memory_budget(nullptr);
}

TEST(StaleBufferOverload, SaveLoadRoundTripsEntriesAndEvictionCounters) {
  fl::StalenessOptions options;
  options.buffer_capacity = 2;
  fl::StaleUpdateBuffer original(options);
  original.push(make_update(0, 0, 9));
  original.push(make_update(1, 1, 9));
  original.push(make_update(2, 2, 9));
  (void)original.take_due(0);  // applies the capacity bound -> 1 eviction
  ASSERT_EQ(original.evicted_total(), 1u);

  core::ByteWriter writer;
  original.save_state(writer);
  fl::StaleUpdateBuffer restored(options);
  core::ByteReader reader(writer.buffer());
  restored.load_state(reader);

  EXPECT_EQ(restored.size(), original.size());
  EXPECT_EQ(restored.evicted_total(), 1u);
  const std::vector<fl::StaleUpdate> due = restored.take_due(9);
  ASSERT_EQ(due.size(), 2u);
  EXPECT_EQ(due[0].client_id, 1u);
  EXPECT_EQ(due[1].client_id, 2u);
}

// ---- sim::ChurnModel phantom registrations ----

TEST(ChurnPopulationScale, ParticipatingTraceIsIdenticalToScaleOne) {
  sim::ChurnOptions churn;
  churn.leave_prob = 0.3;
  churn.rejoin_prob = 0.4;
  sim::ChurnOptions scaled = churn;
  scaled.population_scale = 1000;

  sim::ChurnModel small(churn, 6, core::Rng(21));
  sim::ChurnModel large(scaled, 6, core::Rng(21));
  EXPECT_EQ(small.registered_clients(), 6u);
  EXPECT_EQ(large.registered_clients(), 6000u);
  EXPECT_EQ(large.num_clients(), 6u);

  for (std::size_t round = 0; round < 12; ++round) {
    const sim::ChurnEvents a = small.begin_round(round);
    const sim::ChurnEvents b = large.begin_round(round);
    EXPECT_EQ(a.joined, b.joined) << "round " << round;
    EXPECT_EQ(a.left, b.left) << "round " << round;
    EXPECT_EQ(small.present_clients(), large.present_clients()) << "round " << round;
    EXPECT_EQ(small.present_count(), large.present_count()) << "round " << round;
  }
  // Phantom registrations churn too, but only surface in the whole-population
  // count — never in events or the participating present set.
  EXPECT_GE(large.registered_present_count(), large.present_count());
  EXPECT_GT(large.registered_present_count(), 6u);
}

TEST(ChurnPopulationScale, SaveLoadCarriesThePhantomPopulation) {
  sim::ChurnOptions churn;
  churn.leave_prob = 0.25;
  churn.rejoin_prob = 0.25;
  churn.population_scale = 50;
  sim::ChurnModel model(churn, 4, core::Rng(8));
  model.begin_round(0);
  model.begin_round(1);

  core::ByteWriter writer;
  model.save_state(writer);
  // Same rng as the original: a resumed run reconstructs the simulator from
  // the run seed; only membership + position come from the checkpoint.
  sim::ChurnModel restored(churn, 4, core::Rng(8));
  core::ByteReader reader(writer.buffer());
  restored.load_state(reader);

  EXPECT_EQ(restored.registered_clients(), model.registered_clients());
  EXPECT_EQ(restored.registered_present_count(), model.registered_present_count());
  const sim::ChurnEvents a = model.begin_round(2);
  const sim::ChurnEvents b = restored.begin_round(2);
  EXPECT_EQ(a.joined, b.joined);
  EXPECT_EQ(a.left, b.left);
}

// ---- net BUSY admission frame ----

TEST(BusyFrame, RoundTripsWithRetryAfter) {
  net::Frame busy;
  busy.type = net::FrameType::kBusy;
  busy.scalars = {2.5};  // retry-after seconds

  const std::vector<std::uint8_t> wire = net::encode_frame(busy);
  std::uint32_t crc = 0;
  const std::size_t payload_len = net::decode_frame_header(
      std::span<const std::uint8_t, net::kFrameHeaderBytes>(wire.data(),
                                                            net::kFrameHeaderBytes),
      net::FrameLimits{}, &crc);
  const net::Frame decoded = net::decode_frame_payload(
      std::span<const std::uint8_t>(wire.data() + net::kFrameHeaderBytes, payload_len),
      crc);
  EXPECT_EQ(decoded.type, net::FrameType::kBusy);
  ASSERT_EQ(decoded.scalars.size(), 1u);
  EXPECT_EQ(decoded.scalars[0], 2.5);
}

TEST(BusyFrame, ServerBusyIsTransientNotAProtocolError) {
  const net::ServerBusy busy("server busy", 1.5);
  EXPECT_EQ(busy.retry_after_seconds(), 1.5);
  // Deliberately NOT an IoError / ProtocolError: a first-contact BUSY must
  // not be treated as a fatal registration failure by the elastic client.
  EXPECT_EQ(dynamic_cast<const net::ProtocolError*>(
                static_cast<const std::runtime_error*>(&busy)),
            nullptr);
}

// ---- obs process RSS probe ----

TEST(ProcessRss, PeakAndCurrentAreSaneOnLinux) {
  const std::size_t peak = obs::process_peak_rss_bytes();
  const std::size_t current = obs::process_current_rss_bytes();
  EXPECT_GT(peak, 0u);
  EXPECT_GT(current, 0u);
  EXPECT_GE(peak, current / 2);  // HWM can momentarily lag current only trivially
}

}  // namespace
}  // namespace fedkemf
