// System-level integration tests: thread-count determinism, cross-algorithm
// communication ratios, learning under non-IID skew, and the traffic math the
// paper's tables rest on.

#include <cmath>
#include <cstdint>
#include <memory>

#include <gtest/gtest.h>

#include "comm/channel.hpp"
#include "core/serialize.hpp"
#include "fl/fedavg.hpp"
#include "fl/feddf.hpp"
#include "fl/fedkemf.hpp"
#include "fl/fednova.hpp"
#include "fl/fedprox.hpp"
#include "fl/runner.hpp"
#include "fl/scaffold.hpp"

namespace fedkemf::fl {
namespace {

FederationOptions integration_federation(std::uint64_t seed = 31) {
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
  options.seed = seed;
  return options;
}

models::ModelSpec conv_spec() {
  return models::ModelSpec{.arch = "resnet20", .num_classes = 4, .in_channels = 3,
                           .image_size = 8, .width_multiplier = 0.25};
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
  config.weight_decay = 1e-4;
  return config;
}

TEST(Integration, ThreadCountDoesNotChangeResults) {
  // The determinism contract: identical accuracy trajectory and byte counts
  // for 0, 2, and 5 worker threads.
  auto run_with = [&](std::size_t threads) {
    Federation fed(integration_federation());
    FedAvg algorithm(mlp_spec(), local_config());
    RunOptions run;
    run.rounds = 3;
    run.sample_ratio = 0.5;
    run.num_threads = threads;
    return run_federated(fed, algorithm, run);
  };
  const RunResult base = run_with(0);
  for (std::size_t threads : {2u, 5u}) {
    const RunResult other = run_with(threads);
    ASSERT_EQ(other.history.size(), base.history.size());
    for (std::size_t i = 0; i < base.history.size(); ++i) {
      EXPECT_DOUBLE_EQ(other.history[i].accuracy, base.history[i].accuracy)
          << "threads=" << threads << " round " << i;
    }
    EXPECT_EQ(other.total_bytes, base.total_bytes);
  }
}

TEST(Integration, FedKemfThreadCountDeterminism) {
  // FedKEMF and FedDF share the server distiller; both must be invariant to
  // the worker count.
  using MakeAlgorithm = std::unique_ptr<Algorithm> (*)();
  const MakeAlgorithm makers[] = {
      []() -> std::unique_ptr<Algorithm> {
        FedKemfOptions options;
        options.knowledge_spec = mlp_spec();
        options.distill_epochs = 1;
        return std::make_unique<FedKemf>(std::vector<models::ModelSpec>{mlp_spec()},
                                         local_config(), options);
      },
      []() -> std::unique_ptr<Algorithm> {
        FedDfOptions options;
        options.distill_epochs = 1;
        return std::make_unique<FedDf>(mlp_spec(), local_config(), options);
      }};
  for (const MakeAlgorithm make : makers) {
    // The final global model's CRC pins every weight, not only the metrics.
    auto run_with = [&](std::size_t threads, std::uint32_t& model_crc) {
      Federation fed(integration_federation());
      const std::unique_ptr<Algorithm> algorithm = make();
      RunOptions run;
      run.rounds = 3;
      run.sample_ratio = 0.5;
      run.num_threads = threads;
      RunResult result = run_federated(fed, *algorithm, run);
      model_crc = core::crc32(comm::serialize_model(algorithm->global_model()));
      return result;
    };
    std::uint32_t crc_a = 0;
    std::uint32_t crc_b = 0;
    const RunResult a = run_with(0, crc_a);
    const RunResult b = run_with(3, crc_b);
    SCOPED_TRACE(a.algorithm);
    ASSERT_EQ(a.history.size(), b.history.size());
    for (std::size_t i = 0; i < a.history.size(); ++i) {
      EXPECT_DOUBLE_EQ(a.history[i].accuracy, b.history[i].accuracy);
      EXPECT_DOUBLE_EQ(a.history[i].train_loss, b.history[i].train_loss);
    }
    EXPECT_EQ(crc_a, crc_b);
  }
}

TEST(Integration, RerunsAreBitReproducible) {
  auto run_once = [&] {
    Federation fed(integration_federation());
    Scaffold algorithm(mlp_spec(), local_config());
    RunOptions run;
    run.rounds = 2;
    run.sample_ratio = 0.5;
    return run_federated(fed, algorithm, run);
  };
  const RunResult a = run_once();
  const RunResult b = run_once();
  EXPECT_DOUBLE_EQ(a.final_accuracy, b.final_accuracy);
  EXPECT_EQ(a.total_bytes, b.total_bytes);
}

TEST(Integration, CommunicationRatiosMatchPaperStructure) {
  // Same federation / rounds / sampled clients for all algorithms; clients
  // train the larger conv model.  Expected per-round payload structure:
  //   FedAvg / FedProx : 2x model            (down + up)
  //   FedNova          : ~3x model           (down + up + momentum)
  //   SCAFFOLD         : ~4x model           (variates ride both directions)
  //   FedKEMF          : 2x knowledge net    (tiny)
  const std::size_t rounds = 2;
  auto total_bytes_of = [&](auto&& make_algorithm) {
    Federation fed(integration_federation());
    auto algorithm = make_algorithm();
    RunOptions run;
    run.rounds = rounds;
    run.sample_ratio = 0.5;
    run_federated(fed, *algorithm, run);
    return fed.meter().total_bytes();
  };

  const std::size_t fedavg = total_bytes_of(
      [&] { return std::make_unique<FedAvg>(conv_spec(), local_config()); });
  const std::size_t fedprox = total_bytes_of(
      [&] { return std::make_unique<FedProx>(conv_spec(), local_config(), 0.01); });
  const std::size_t fednova = total_bytes_of(
      [&] { return std::make_unique<FedNova>(conv_spec(), local_config()); });
  const std::size_t scaffold = total_bytes_of(
      [&] { return std::make_unique<Scaffold>(conv_spec(), local_config()); });
  const std::size_t fedkemf = total_bytes_of([&] {
    FedKemfOptions options;
    options.knowledge_spec = mlp_spec();  // tiny knowledge net
    options.knowledge_spec.width_multiplier = 0.05;
    options.distill_epochs = 1;
    return std::make_unique<FedKemf>(std::vector<models::ModelSpec>{conv_spec()},
                                     local_config(), options);
  });

  EXPECT_EQ(fedavg, fedprox);  // FedProx adds no traffic
  EXPECT_GT(fednova, fedavg * 4 / 3);
  EXPECT_GT(scaffold, fedavg * 17 / 10);
  EXPECT_LT(fedkemf, fedavg / 3);  // the headline saving
}

TEST(Integration, FedKemfSavingsScaleWithLocalModelSize) {
  // The knowledge net is fixed; making the local model bigger must leave
  // FedKEMF traffic unchanged while FedAvg traffic grows with the model.
  auto fedkemf_bytes = [&](const models::ModelSpec& local_model) {
    Federation fed(integration_federation());
    FedKemfOptions options;
    options.knowledge_spec = mlp_spec();
    options.distill_epochs = 1;
    FedKemf algorithm({local_model}, local_config(), options);
    RunOptions run;
    run.rounds = 1;
    run.sample_ratio = 0.5;
    run_federated(fed, algorithm, run);
    return fed.meter().total_bytes();
  };
  models::ModelSpec big = conv_spec();
  big.arch = "resnet32";
  EXPECT_EQ(fedkemf_bytes(conv_spec()), fedkemf_bytes(big));
}

TEST(Integration, NonIidLearningProgressesForAllAlgorithms) {
  // Under alpha=0.1 skew with full participation and a few rounds, every
  // algorithm must get well above the 25% chance level.
  auto best_of = [&](auto&& make_algorithm) {
    Federation fed(integration_federation(/*seed=*/37));
    auto algorithm = make_algorithm();
    RunOptions run;
    run.rounds = 10;
    run.sample_ratio = 1.0;
    return run_federated(fed, *algorithm, run).best_accuracy;
  };
  LocalTrainConfig lc = local_config();
  lc.epochs = 2;
  EXPECT_GT(best_of([&] { return std::make_unique<FedAvg>(mlp_spec(), lc); }), 0.4);
  EXPECT_GT(best_of([&] {
              FedKemfOptions options;
              options.knowledge_spec = mlp_spec();
              options.distill_epochs = 2;
              return std::make_unique<FedKemf>(std::vector<models::ModelSpec>{mlp_spec()},
                                               lc, options);
            }),
            0.4);
}

TEST(Integration, MeterRecordsConsistentRoundStructure) {
  Federation fed(integration_federation());
  FedAvg algorithm(mlp_spec(), local_config());
  RunOptions run;
  run.rounds = 3;
  run.sample_ratio = 0.5;
  run_federated(fed, algorithm, run);
  // 3 sampled clients per round (round(0.5 * 6)), 2 transfers each.
  EXPECT_EQ(fed.meter().num_transfers(), 3u * 3u * 2u);
  const std::size_t round0 = fed.meter().bytes_for_round(0);
  EXPECT_EQ(fed.meter().bytes_for_round(1), round0);
  EXPECT_EQ(fed.meter().bytes_for_round(2), round0);
  EXPECT_EQ(fed.meter().total_bytes(), 3 * round0);
}

TEST(Integration, HistoryCumulativeBytesMonotone) {
  Federation fed(integration_federation());
  FedNova algorithm(mlp_spec(), local_config());
  RunOptions run;
  run.rounds = 4;
  run.sample_ratio = 0.5;
  const RunResult result = run_federated(fed, algorithm, run);
  std::size_t previous = 0;
  for (const RoundRecord& record : result.history) {
    EXPECT_GT(record.cumulative_bytes, previous);
    previous = record.cumulative_bytes;
  }
  EXPECT_EQ(result.history.back().cumulative_bytes, result.total_bytes);
}

}  // namespace
}  // namespace fedkemf::fl
