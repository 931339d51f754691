// Pinned server-fusion trajectories for FedKEMF and FedDF.
//
// Each configuration runs 3 rounds of a tiny MLP federation and compares, per
// round, accuracy, train loss, rejected uploads, applied stale updates and
// the fusion-degraded flag, plus a CRC32 of the final serialized global
// model, against goldens stored as hex floats.  The configurations cover the
// server fusion paths: reputation-weighted avg-logits with late uploads,
// trimmed mean under a sign-flip minority, the fusion-member cap, and
// FedKEMF's weight-average fusion with late uploads.  Every configuration
// runs inline and on a 3-thread pool, against the same goldens: the
// distiller's teacher logits are computed on the client pool.
//
// The build compiles with -ffp-contract=off, so a native build on an FMA host
// and a portable x86-64 build compute the same bits and share one golden set.
// On a mismatch the test prints the observed table in the golden format.

#include <array>
#include <cinttypes>
#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "comm/channel.hpp"
#include "core/serialize.hpp"
#include "fl/feddf.hpp"
#include "fl/fedkemf.hpp"
#include "fl/runner.hpp"
#include "sim/simulator.hpp"

namespace fedkemf::fl {
namespace {

constexpr std::size_t kRounds = 3;

struct PinnedRound {
  double accuracy;
  double train_loss;
  std::size_t rejected_updates;
  std::size_t stale_applied;
  bool fusion_degraded;
};

struct PinnedRun {
  const char* name;
  std::array<PinnedRound, kRounds> rounds;
  std::uint32_t model_crc;
};

// clang-format off
constexpr PinnedRun kGolden[] = {
    {"kemf_avg_reputation_stale", {{{0x1.2aaaaaaaaaaabp-2, 0x1.8a9c551666667p+0, 1, 0, false},
        {0x1.5555555555555p-2, 0x1.b722e47555555p+0, 1, 2, false},
        {0x1.4p-2, 0x1.d311ee9555555p-1, 1, 2, false}}}, 0x8568cd2a},
    {"kemf_trimmed_sign_flip", {{{0x1.eaaaaaaaaaaabp-3, 0x1.46fac8daeeeefp+1, 2, 0, false},
        {0x1.0aaaaaaaaaaabp-2, 0x1.cd837c1555555p+0, 3, 0, false},
        {0x1.1555555555555p-2, 0x1.c9121b27d27d3p-1, 3, 0, false}}}, 0x326f219a},
    {"kemf_max_capped", {{{0x1.5555555555555p-2, 0x1.8a9c551666667p+0, 0, 0, true},
        {0x1.ap-2, 0x1.88b44ee888888p+0, 0, 0, true},
        {0x1.cp-2, 0x1.c52da43555555p-1, 0, 0, true}}}, 0xed791d73},
    {"kemf_weight_average_stale", {{{0x1.5555555555555p-2, 0x1.8a9c551666667p+0, 0, 0, false},
        {0x1.0aaaaaaaaaaabp-1, 0x1.abc08f3333333p+0, 0, 2, false},
        {0x1.f555555555555p-2, 0x1.9462e11999999p-1, 0, 2, false}}}, 0x22ba2130},
    {"df_avg_reputation_stale", {{{0x1.2p-2, 0x1.ff8e061555555p-1, 1, 0, false},
        {0x1.ep-2, 0x1.52b18c3bbbbbcp+0, 1, 2, false},
        {0x1.b555555555555p-2, 0x1.a3e0fdc99999bp-1, 1, 2, false}}}, 0x655f8667},
    {"df_trimmed_sign_flip", {{{0x1.d555555555555p-3, 0x1.c71e226555555p+0, 3, 0, false},
        {0x1p-2, 0x1.cb2f167a4fa5p-1, 3, 0, false},
        {0x1.eaaaaaaaaaaabp-3, 0x1.2be2177cec16cp+0, 3, 0, false}}}, 0x43cd2127},
    {"df_max_capped", {{{0x1.4aaaaaaaaaaabp-2, 0x1.ff8e061555555p-1, 0, 0, true},
        {0x1.6aaaaaaaaaaabp-2, 0x1.fcc59cd333333p-1, 0, 0, true},
        {0x1.d555555555555p-2, 0x1.f351a01822223p-1, 0, 0, true}}}, 0xd1964426},
};
// clang-format on

FederationOptions pin_federation() {
  FederationOptions options;
  options.data = data::SyntheticSpec::cifar_like();
  options.data.image_size = 8;
  options.data.num_classes = 4;
  options.data.noise_stddev = 0.5;
  options.train_samples = 240;
  options.test_samples = 96;
  options.server_pool_samples = 48;
  options.num_clients = 6;
  options.dirichlet_alpha = 0.1;
  options.seed = 61;
  return options;
}

models::ModelSpec mlp_spec() {
  return models::ModelSpec{.arch = "mlp", .num_classes = 4, .in_channels = 3,
                           .image_size = 8, .width_multiplier = 0.25};
}

LocalTrainConfig local_config() {
  LocalTrainConfig config;
  config.epochs = 1;
  config.batch_size = 16;
  config.learning_rate = 0.05;
  config.momentum = 0.9;
  return config;
}

// The slow end of the default fleet misses this deadline; its uploads land
// one or two rounds late.
sim::SimOptions straggler_sim() {
  sim::SimOptions sim;
  sim.deadline_seconds = 0.2;
  sim.churn.min_staleness = 1;
  sim.churn.max_staleness = 2;
  return sim;
}

RunOptions base_run() {
  RunOptions run;
  run.rounds = kRounds;
  run.sample_ratio = 1.0;
  return run;
}

RunOptions stale_run() {
  RunOptions run = base_run();
  run.sim = straggler_sim();
  run.staleness = StalenessOptions{.alpha = 0.5};
  return run;
}

RunOptions sign_flip_run() {
  RunOptions run = base_run();
  run.sim = sim::SimOptions{};
  run.sim->adversary.poison_fraction = 0.25;
  run.sim->adversary.poison_mode = sim::PoisonMode::kSignFlip;
  return run;
}

RunOptions capped_run() {
  RunOptions run = stale_run();
  run.resources = ResourceLimits{};
  run.resources->max_fusion_members = 2;
  return run;
}

// A short warmup and a high bar let exclusion trigger within 3 rounds.
ReputationOptions reputation_on() {
  ReputationOptions reputation;
  reputation.enabled = true;
  reputation.warmup_observations = 1;
  reputation.exclude_below = 0.5;
  reputation.exclude_below_median = 0.9;
  return reputation;
}

std::unique_ptr<Algorithm> make_kemf(EnsembleStrategy ensemble, bool reputation,
                                     bool weight_average = false) {
  FedKemfOptions options;
  options.knowledge_spec = mlp_spec();
  options.distill_epochs = 1;
  options.ensemble = ensemble;
  options.fuse_by_weight_average = weight_average;
  if (reputation) options.reputation = reputation_on();
  return std::make_unique<FedKemf>(std::vector<models::ModelSpec>{mlp_spec()},
                                   local_config(), options);
}

std::unique_ptr<Algorithm> make_df(EnsembleStrategy ensemble, bool reputation) {
  FedDfOptions options;
  options.distill_epochs = 1;
  options.ensemble = ensemble;
  if (reputation) options.reputation = reputation_on();
  return std::make_unique<FedDf>(mlp_spec(), local_config(), options);
}

struct PinConfig {
  std::string name;
  std::unique_ptr<Algorithm> algorithm;
  RunOptions run;
};

std::vector<PinConfig> pin_configs() {
  std::vector<PinConfig> configs;
  configs.push_back({"kemf_avg_reputation_stale",
                     make_kemf(EnsembleStrategy::kAvgLogits, true), stale_run()});
  configs.push_back({"kemf_trimmed_sign_flip",
                     make_kemf(EnsembleStrategy::kTrimmedMean, true), sign_flip_run()});
  configs.push_back({"kemf_max_capped",
                     make_kemf(EnsembleStrategy::kMaxLogits, false), capped_run()});
  configs.push_back({"kemf_weight_average_stale",
                     make_kemf(EnsembleStrategy::kAvgLogits, false, true), stale_run()});
  configs.push_back({"df_avg_reputation_stale",
                     make_df(EnsembleStrategy::kAvgLogits, true), stale_run()});
  configs.push_back({"df_trimmed_sign_flip",
                     make_df(EnsembleStrategy::kTrimmedMean, true), sign_flip_run()});
  configs.push_back({"df_max_capped",
                     make_df(EnsembleStrategy::kMaxLogits, false), capped_run()});
  return configs;
}

std::string golden_line(const std::string& name, const RunResult& result,
                        std::uint32_t crc) {
  std::string line = "    {\"";
  line += name;
  line += "\", {{";
  for (std::size_t r = 0; r < result.history.size(); ++r) {
    const RoundRecord& record = result.history[r];
    char entry[160];
    std::snprintf(entry, sizeof(entry), "%s{%a, %a, %zu, %zu, %s}",
                  r > 0 ? ",\n        " : "", record.accuracy, record.train_loss,
                  record.rejected_updates, record.stale_applied,
                  record.fusion_degraded ? "true" : "false");
    line += entry;
  }
  char tail[32];
  std::snprintf(tail, sizeof(tail), "}}, 0x%08" PRIx32 "},\n", crc);
  line += tail;
  return line;
}

const PinnedRun* find_golden(const std::string& name) {
  for (const PinnedRun& run : kGolden) {
    if (name == run.name) return &run;
  }
  return nullptr;
}

TEST(ServerFusionPin, FedKemfAndFedDfTrajectoriesMatchGoldens) {
  std::string observed;
  bool any_stale = false;
  bool any_degraded = false;
  bool any_rejected = false;
  for (const std::size_t threads : {0u, 3u}) {
    for (PinConfig& config : pin_configs()) {
      SCOPED_TRACE(config.name + " threads=" + std::to_string(threads));
      Federation fed(pin_federation());
      config.run.num_threads = threads;
      const RunResult result = run_federated(fed, *config.algorithm, config.run);
      ASSERT_EQ(result.history.size(), kRounds);
      const std::uint32_t crc =
          core::crc32(comm::serialize_model(config.algorithm->global_model()));
      if (threads == 0) observed += golden_line(config.name, result, crc);

      bool stale = false;
      bool degraded = false;
      bool rejected = false;
      for (const RoundRecord& record : result.history) {
        stale = stale || record.stale_applied > 0;
        degraded = degraded || record.fusion_degraded;
        rejected = rejected || record.rejected_updates > 0;
      }
      // Each configuration must really take the path it is named for.
      // The capped runs shed every late upload: two fresh members fill the cap.
      if (config.run.resources) {
        EXPECT_TRUE(degraded) << "the fusion cap never shed";
      } else if (config.run.staleness) {
        EXPECT_TRUE(stale) << "no late upload was applied";
      }
      if (config.run.sim && config.run.sim->adversary.any()) {
        EXPECT_TRUE(rejected) << "no upload was rejected";
      }
      any_stale = any_stale || stale;
      any_degraded = any_degraded || degraded;
      any_rejected = any_rejected || rejected;

      const PinnedRun* golden = find_golden(config.name);
      if (golden == nullptr) {
        ADD_FAILURE() << "no golden for " << config.name;
        continue;
      }
      for (std::size_t r = 0; r < kRounds; ++r) {
        const RoundRecord& record = result.history[r];
        const PinnedRound& want = golden->rounds[r];
        EXPECT_EQ(record.accuracy, want.accuracy) << "round " << r;
        EXPECT_EQ(record.train_loss, want.train_loss) << "round " << r;
        EXPECT_EQ(record.rejected_updates, want.rejected_updates) << "round " << r;
        EXPECT_EQ(record.stale_applied, want.stale_applied) << "round " << r;
        EXPECT_EQ(record.fusion_degraded, want.fusion_degraded) << "round " << r;
      }
      EXPECT_EQ(crc, golden->model_crc);
    }
  }
  EXPECT_TRUE(any_stale);
  EXPECT_TRUE(any_degraded);
  EXPECT_TRUE(any_rejected);
  if (HasFailure()) {
    std::printf("observed:\n%s", observed.c_str());
  }
}

}  // namespace
}  // namespace fedkemf::fl
