// FedKEMF-specific tests: ensemble strategies (Eq. 5), deep mutual learning
// (Algorithm 1), server distillation (Algorithm 2), heterogeneous model
// pools, and communication properties.

#include <cmath>

#include <gtest/gtest.h>

#include "fl/defense/robust_ensemble.hpp"
#include "fl/fedavg.hpp"
#include "fl/fedkemf.hpp"
#include "fl/runner.hpp"
#include "core/tensor_ops.hpp"
#include "nn/loss.hpp"

namespace fedkemf::fl {
namespace {

using core::Rng;
using core::Shape;
using core::Tensor;

FederationOptions tiny_federation() {
  FederationOptions options;
  options.data = data::SyntheticSpec::cifar_like();
  options.data.image_size = 8;
  options.data.num_classes = 4;
  options.data.noise_stddev = 0.5;
  options.train_samples = 160;
  options.test_samples = 64;
  options.server_pool_samples = 48;
  options.num_clients = 4;
  options.dirichlet_alpha = 0.5;
  options.seed = 21;
  return options;
}

models::ModelSpec tiny_spec(const char* arch = "mlp") {
  return models::ModelSpec{.arch = arch, .num_classes = 4, .in_channels = 3,
                           .image_size = 8, .width_multiplier = 0.25};
}

LocalTrainConfig tiny_local() {
  LocalTrainConfig config;
  config.epochs = 1;
  config.batch_size = 16;
  config.learning_rate = 0.05;
  config.momentum = 0.0;
  config.weight_decay = 0.0;
  return config;
}

FedKemfOptions tiny_kemf(const char* knowledge_arch = "mlp") {
  FedKemfOptions options;
  options.knowledge_spec = tiny_spec(knowledge_arch);
  options.distill_epochs = 1;
  options.distill_batch_size = 16;
  return options;
}

// ---- ensemble_logits (Eq. 5 + ablation strategies) ----

TEST(EnsembleLogits, MaxIsElementwiseMaxima) {
  const float a_v[] = {1, 5, 2, 0};
  const float b_v[] = {3, 1, 2, 4};
  Tensor a = Tensor::from_values(Shape::matrix(2, 2), a_v);
  Tensor b = Tensor::from_values(Shape::matrix(2, 2), b_v);
  const Tensor members[] = {a, b};
  Tensor out = ensemble_logits(EnsembleStrategy::kMaxLogits, members);
  EXPECT_EQ(out.at2(0, 0), 3.0f);
  EXPECT_EQ(out.at2(0, 1), 5.0f);
  EXPECT_EQ(out.at2(1, 0), 2.0f);
  EXPECT_EQ(out.at2(1, 1), 4.0f);
}

TEST(EnsembleLogits, AvgIsElementwiseMean) {
  const float a_v[] = {1, 3};
  const float b_v[] = {3, 5};
  Tensor a = Tensor::from_values(Shape::matrix(1, 2), a_v);
  Tensor b = Tensor::from_values(Shape::matrix(1, 2), b_v);
  const Tensor members[] = {a, b};
  Tensor out = ensemble_logits(EnsembleStrategy::kAvgLogits, members);
  EXPECT_FLOAT_EQ(out.at2(0, 0), 2.0f);
  EXPECT_FLOAT_EQ(out.at2(0, 1), 4.0f);
}

TEST(EnsembleLogits, VoteProducesLogProbabilityHistogram) {
  const float a_v[] = {9, 0, 0};
  const float b_v[] = {8, 1, 0};
  const float c_v[] = {0, 7, 0};
  Tensor a = Tensor::from_values(Shape::matrix(1, 3), a_v);
  Tensor b = Tensor::from_values(Shape::matrix(1, 3), b_v);
  Tensor c = Tensor::from_values(Shape::matrix(1, 3), c_v);
  const Tensor members[] = {a, b, c};
  Tensor out = ensemble_logits(EnsembleStrategy::kMajorityVote, members);
  // Class 0 got 2 votes, class 1 got 1, class 2 got 0: strict ordering in
  // the log-space teacher.
  EXPECT_GT(out.at2(0, 0), out.at2(0, 1));
  EXPECT_GT(out.at2(0, 1), out.at2(0, 2));
  // Values behave like log-probabilities: exp sums to ~1.
  double total = 0.0;
  for (std::size_t cidx = 0; cidx < 3; ++cidx) total += std::exp(out.at2(0, cidx));
  EXPECT_NEAR(total, 1.0, 0.05);
}

TEST(EnsembleLogits, SingleMemberIsIdentityForMaxAndAvg) {
  Rng rng(1);
  Tensor a = Tensor::normal(Shape::matrix(3, 5), rng);
  const Tensor members[] = {a};
  for (EnsembleStrategy s : {EnsembleStrategy::kMaxLogits, EnsembleStrategy::kAvgLogits}) {
    Tensor out = ensemble_logits(s, members);
    for (std::size_t i = 0; i < a.numel(); ++i) ASSERT_EQ(out[i], a[i]);
  }
}

TEST(EnsembleLogits, SingleMemberIsIdentityForRobustStrategies) {
  Rng rng(3);
  Tensor a = Tensor::normal(Shape::matrix(3, 5), rng);
  const Tensor members[] = {a};
  for (EnsembleStrategy s : {EnsembleStrategy::kTrimmedMean, EnsembleStrategy::kMedian}) {
    Tensor out = ensemble_logits(s, members);
    for (std::size_t i = 0; i < a.numel(); ++i) ASSERT_EQ(out[i], a[i]);
  }
}

TEST(EnsembleLogits, TrimmedMeanDropsExtremesPerCoordinate) {
  // Column values per cell: {1, 2, 3, 4, 100}; trimming 1 each side (5
  // members at the default 0.3 fraction trims ceil(1.5)=2, so use 0.2 here)
  // leaves {2, 3, 4} -> mean 3.
  const float v0[] = {1.0f};
  const float v1[] = {2.0f};
  const float v2[] = {3.0f};
  const float v3[] = {4.0f};
  const float v4[] = {100.0f};
  const Tensor members[] = {Tensor::from_values(Shape::matrix(1, 1), v0),
                            Tensor::from_values(Shape::matrix(1, 1), v1),
                            Tensor::from_values(Shape::matrix(1, 1), v2),
                            Tensor::from_values(Shape::matrix(1, 1), v3),
                            Tensor::from_values(Shape::matrix(1, 1), v4)};
  EXPECT_FLOAT_EQ(trimmed_mean_logits(members, 0.2).data()[0], 3.0f);
  EXPECT_THROW(trimmed_mean_logits(members, 0.5), std::invalid_argument);
  EXPECT_THROW(trimmed_mean_logits(members, -0.1), std::invalid_argument);
}

TEST(EnsembleLogits, MedianIsCoordinateWise) {
  const float v0[] = {1.0f, 10.0f};
  const float v1[] = {5.0f, -10.0f};
  const float v2[] = {3.0f, 0.0f};
  const Tensor odd[] = {Tensor::from_values(Shape::matrix(1, 2), v0),
                        Tensor::from_values(Shape::matrix(1, 2), v1),
                        Tensor::from_values(Shape::matrix(1, 2), v2)};
  const Tensor med_odd = ensemble_logits(EnsembleStrategy::kMedian, odd);
  EXPECT_FLOAT_EQ(med_odd.data()[0], 3.0f);
  EXPECT_FLOAT_EQ(med_odd.data()[1], 0.0f);
  // Even member count averages the two middle values.
  const Tensor even[] = {odd[0], odd[1]};
  const Tensor med_even = ensemble_logits(EnsembleStrategy::kMedian, even);
  EXPECT_FLOAT_EQ(med_even.data()[0], 3.0f);
  EXPECT_FLOAT_EQ(med_even.data()[1], 0.0f);
}

TEST(EnsembleLogits, MinorityOfPoisonedMembersCannotMoveRobustFusion) {
  // 2 of 5 members emit hostile +/-1000 logits; the fused teacher must equal
  // the honest consensus exactly under both robust strategies.
  Rng rng(5);
  Tensor honest = Tensor::normal(Shape::matrix(4, 3), rng);
  Tensor high = honest.clone();
  Tensor low = honest.clone();
  for (std::size_t i = 0; i < high.numel(); ++i) {
    high.data()[i] = 1000.0f;
    low.data()[i] = -1000.0f;
  }
  const Tensor members[] = {low, honest, honest, honest, high};
  for (EnsembleStrategy s : {EnsembleStrategy::kTrimmedMean, EnsembleStrategy::kMedian}) {
    const Tensor fused = ensemble_logits(s, members);
    for (std::size_t i = 0; i < honest.numel(); ++i) {
      ASSERT_EQ(fused[i], honest[i]) << to_string(s) << " cell " << i;
    }
  }
}

TEST(EnsembleLogits, MajorityVoteTieBreaksDeterministically) {
  // Two members, two classes, opposite votes: a perfect tie.  The histogram
  // teacher must give both classes identical mass, and repeated fusion must
  // be bit-identical (no hidden randomness in tie handling).
  const float a_v[] = {5.0f, 0.0f};
  const float b_v[] = {0.0f, 5.0f};
  Tensor a = Tensor::from_values(Shape::matrix(1, 2), a_v);
  Tensor b = Tensor::from_values(Shape::matrix(1, 2), b_v);
  const Tensor members[] = {a, b};
  const Tensor first = ensemble_logits(EnsembleStrategy::kMajorityVote, members);
  const Tensor second = ensemble_logits(EnsembleStrategy::kMajorityVote, members);
  EXPECT_FLOAT_EQ(first.at2(0, 0), first.at2(0, 1));
  for (std::size_t i = 0; i < first.numel(); ++i) ASSERT_EQ(first[i], second[i]);
}

TEST(EnsembleLogits, Validation) {
  EXPECT_THROW(ensemble_logits(EnsembleStrategy::kMaxLogits, {}), std::invalid_argument);
  Tensor a = Tensor::zeros(Shape::matrix(1, 2));
  Tensor b = Tensor::zeros(Shape::matrix(1, 3));
  const Tensor members[] = {a, b};
  EXPECT_THROW(ensemble_logits(EnsembleStrategy::kMaxLogits, members),
               std::invalid_argument);
}

TEST(EnsembleLogits, EnsembleOfSpecialistsBeatsEachMember) {
  // Two "specialists": one confident/correct on class 0 rows, the other on
  // class 1 rows. Max-fusion should dominate both individuals.
  const std::size_t rows = 40;
  Tensor a(Shape::matrix(rows, 2));
  Tensor b(Shape::matrix(rows, 2));
  std::vector<std::size_t> labels(rows);
  Rng rng(2);
  for (std::size_t r = 0; r < rows; ++r) {
    labels[r] = r % 2;
    // Specialist A knows class 0: strong correct logit there, noise elsewhere.
    a.data()[r * 2 + 0] = labels[r] == 0 ? 5.0f : static_cast<float>(rng.normal());
    a.data()[r * 2 + 1] = static_cast<float>(rng.normal());
    b.data()[r * 2 + 1] = labels[r] == 1 ? 5.0f : static_cast<float>(rng.normal());
    b.data()[r * 2 + 0] = static_cast<float>(rng.normal());
  }
  const Tensor members[] = {a, b};
  Tensor fused = ensemble_logits(EnsembleStrategy::kMaxLogits, members);
  const double acc_a = nn::accuracy(a, labels);
  const double acc_b = nn::accuracy(b, labels);
  const double acc_fused = nn::accuracy(fused, labels);
  EXPECT_GT(acc_fused, acc_a);
  EXPECT_GT(acc_fused, acc_b);
  EXPECT_GT(acc_fused, 0.9);
}

// ---- deep_mutual_update (Algorithm 1) ----

TEST(DeepMutualUpdate, BothNetworksLearn) {
  Federation fed(tiny_federation());
  Rng rng(3);
  auto local = models::build_model(tiny_spec(), rng);
  auto knowledge = models::build_model(tiny_spec(), rng);
  LocalTrainConfig config = tiny_local();
  config.epochs = 6;
  const DmlResult first = deep_mutual_update(*local, *knowledge, fed.train_set(),
                                             fed.client_shard(0), config, 1.0f, Rng(4));
  const DmlResult second = deep_mutual_update(*local, *knowledge, fed.train_set(),
                                              fed.client_shard(0), config, 1.0f, Rng(5));
  EXPECT_LT(second.mean_local_loss, first.mean_local_loss);
  EXPECT_LT(second.mean_knowledge_loss, first.mean_knowledge_loss);
  EXPECT_GT(first.steps, 0u);
}

TEST(DeepMutualUpdate, PullsNetworksTogether) {
  // After DML, the two networks' predictions should agree more than two
  // independently trained ones.
  Federation fed(tiny_federation());
  Rng rng(6);
  auto local = models::build_model(tiny_spec(), rng);
  auto knowledge = models::build_model(tiny_spec(), rng);
  LocalTrainConfig config = tiny_local();
  config.epochs = 8;

  auto agreement = [&](nn::Module& m1, nn::Module& m2) {
    m1.set_training(false);
    m2.set_training(false);
    std::vector<std::size_t> all(fed.test_set().size());
    for (std::size_t i = 0; i < all.size(); ++i) all[i] = i;
    Tensor images = fed.test_set().gather_images(all);
    Tensor l1 = m1.forward(images);
    Tensor l2 = m2.forward(images);
    std::vector<std::size_t> p1(all.size());
    std::vector<std::size_t> p2(all.size());
    core::argmax_rows(l1, p1.data());
    core::argmax_rows(l2, p2.data());
    std::size_t same = 0;
    for (std::size_t i = 0; i < all.size(); ++i) {
      if (p1[i] == p2[i]) ++same;
    }
    return static_cast<double>(same) / static_cast<double>(all.size());
  };

  deep_mutual_update(*local, *knowledge, fed.train_set(), fed.client_shard(0), config,
                     /*kl_weight=*/2.0f, Rng(7));
  const double dml_agreement = agreement(*local, *knowledge);

  // Independent supervised training of two fresh models, no KL coupling.
  Rng rng2(8);
  auto solo1 = models::build_model(tiny_spec(), rng2);
  auto solo2 = models::build_model(tiny_spec(), rng2);
  supervised_local_update(*solo1, fed.train_set(), fed.client_shard(0), config, Rng(9));
  supervised_local_update(*solo2, fed.train_set(), fed.client_shard(0), config, Rng(10));
  const double solo_agreement = agreement(*solo1, *solo2);
  EXPECT_GE(dml_agreement, solo_agreement);
}

TEST(DeepMutualUpdate, WorksAcrossHeterogeneousArchitectures) {
  // Local model resnet20, knowledge net mlp: DML only couples logits, so any
  // pair of architectures must compose.
  Federation fed(tiny_federation());
  Rng rng(11);
  auto local = models::build_model(tiny_spec("resnet20"), rng);
  auto knowledge = models::build_model(tiny_spec("mlp"), rng);
  const DmlResult result = deep_mutual_update(*local, *knowledge, fed.train_set(),
                                              fed.client_shard(1), tiny_local(), 1.0f,
                                              Rng(12));
  EXPECT_GT(result.steps, 0u);
  EXPECT_TRUE(std::isfinite(result.mean_local_loss));
}

// ---- FedKemf end-to-end ----

TEST(FedKemf, OnlyKnowledgeNetworkCrossesTheWire) {
  // Clients train a *bigger* model locally; the metered traffic must match
  // the knowledge net's wire size, not the local model's.
  Federation fed(tiny_federation());
  FedKemfOptions options = tiny_kemf("mlp");
  FedKemf algorithm({tiny_spec("resnet20")}, tiny_local(), options);
  RunOptions run;
  run.rounds = 2;
  run.sample_ratio = 0.5;
  run_federated(fed, algorithm, run);

  Rng rng(13);
  auto knowledge = models::build_model(options.knowledge_spec, rng);
  const std::size_t expected_per_transfer = comm::model_wire_size(*knowledge);
  for (const auto& record : fed.meter().records()) {
    EXPECT_EQ(record.bytes, expected_per_transfer);
    EXPECT_EQ(record.payload, "knowledge_net");
  }
  // 2 rounds x 2 sampled clients x 2 directions.
  EXPECT_EQ(fed.meter().num_transfers(), 8u);
}

TEST(FedKemf, HeterogeneousPoolAssignsRoundRobin) {
  FedKemfOptions options = tiny_kemf();
  FedKemf algorithm({tiny_spec("resnet20"), tiny_spec("resnet32"), tiny_spec("mlp")},
                    tiny_local(), options);
  EXPECT_EQ(algorithm.client_spec(0).arch, "resnet20");
  EXPECT_EQ(algorithm.client_spec(1).arch, "resnet32");
  EXPECT_EQ(algorithm.client_spec(2).arch, "mlp");
  EXPECT_EQ(algorithm.client_spec(3).arch, "resnet20");
}

TEST(FedKemf, MultiModelFederationRunsAndEvaluatesClients) {
  Federation fed(tiny_federation());
  FedKemfOptions options = tiny_kemf();
  FedKemf algorithm({tiny_spec("mlp"), tiny_spec("resnet20")}, tiny_local(), options);
  RunOptions run;
  run.rounds = 3;
  run.sample_ratio = 1.0;
  run.evaluate_client_models = true;
  const RunResult result = run_federated(fed, algorithm, run);
  EXPECT_EQ(result.rounds_completed, 3u);
  EXPECT_FALSE(std::isnan(result.history.back().client_accuracy));
  EXPECT_GT(result.history.back().client_accuracy, 0.0);
}

TEST(FedKemf, ClientModelPersistsAcrossRounds) {
  Federation fed(tiny_federation());
  FedKemfOptions options = tiny_kemf();
  FedKemf algorithm({tiny_spec()}, tiny_local(), options);
  RunOptions run;
  run.rounds = 1;
  run.sample_ratio = 1.0;
  run_federated(fed, algorithm, run);
  nn::Module* before = algorithm.client_model(0);
  ASSERT_NE(before, nullptr);
  ASSERT_NE(before, &algorithm.global_model());  // private local model exists
  utils::ThreadPool pool(0);
  const std::size_t sampled_arr[] = {0, 1, 2, 3};
  algorithm.round(1, sampled_arr, pool);
  EXPECT_EQ(algorithm.client_model(0), before);  // same instance, kept learning
}

TEST(FedKemf, UnsampledClientFallsBackToGlobalKnowledge) {
  Federation fed(tiny_federation());
  FedKemfOptions options = tiny_kemf();
  FedKemf algorithm({tiny_spec()}, tiny_local(), options);
  algorithm.setup(fed);
  EXPECT_EQ(algorithm.client_model(2), &algorithm.global_model());
}

TEST(FedKemf, WeightAverageFusionModeRuns) {
  Federation fed(tiny_federation());
  FedKemfOptions options = tiny_kemf();
  options.fuse_by_weight_average = true;
  FedKemf algorithm({tiny_spec()}, tiny_local(), options);
  RunOptions run;
  run.rounds = 4;
  run.sample_ratio = 1.0;
  const RunResult result = run_federated(fed, algorithm, run);
  EXPECT_GT(result.best_accuracy, 0.25);
}

// Weight-average fusion keeps the distiller's screening and fusion cap.
TEST(FedKemf, WeightAverageFusionKeepsTheDefensesAndTheCap) {
  FederationOptions federation = tiny_federation();
  federation.num_clients = 6;
  auto run_with = [&](const FedKemfOptions& options, const RunOptions& run) {
    Federation fed(federation);
    FedKemf algorithm({tiny_spec()}, tiny_local(), options);
    return run_federated(fed, algorithm, run);
  };
  FedKemfOptions options = tiny_kemf();
  options.fuse_by_weight_average = true;
  RunOptions run;
  run.rounds = 3;
  run.sample_ratio = 1.0;

  RunOptions capped = run;
  capped.resources = ResourceLimits{};
  capped.resources->max_fusion_members = 2;
  for (const RoundRecord& record : run_with(options, capped).history) {
    EXPECT_TRUE(record.fusion_degraded) << "round " << record.round;
  }

  FedKemfOptions banded = options;
  banded.sanitize.enabled = true;
  banded.sanitize.max_norm_ratio = 1.0001;
  std::size_t rejected = 0;
  for (const RoundRecord& record : run_with(banded, run).history) {
    rejected += record.rejected_updates;
  }
  EXPECT_GT(rejected, 0u);
}

// The teacher logits live for one fusion step: T x P x C floats (P = the
// server pool) when distilling, T x batch x C (the reputation probe) in
// weight-average mode.  Round 1 runs against a fresh budget, so the slots
// charged in round 0 are not in it.
TEST(MemoryBudget, TeacherLogitsAreChargedOnlyDuringFusion) {
  const std::size_t pool_rows = tiny_federation().server_pool_samples;
  const std::size_t clients = tiny_federation().num_clients;
  const std::size_t batch = tiny_kemf().distill_batch_size;
  const std::size_t classes = tiny_federation().data.num_classes;
  const std::vector<std::size_t> sampled = {0, 1, 2, 3};
  for (const bool weight_average : {false, true}) {
    SCOPED_TRACE(weight_average ? "weight average + reputation" : "distill");
    Federation fed(tiny_federation());
    FedKemfOptions options = tiny_kemf();
    options.fuse_by_weight_average = weight_average;
    options.reputation.enabled = weight_average;
    FedKemf algorithm({tiny_spec()}, tiny_local(), options);
    algorithm.setup(fed);
    utils::ThreadPool pool(2);
    algorithm.round(0, sampled, pool);

    core::MemoryBudget budget;
    budget.charge(core::BudgetCategory::kUploads, 100);
    algorithm.set_memory_budget(&budget);
    algorithm.round(1, sampled, pool);
    const std::size_t rows = weight_average ? batch : pool_rows;
    EXPECT_EQ(budget.high_water_bytes(), 100 + clients * rows * classes * sizeof(float));
    EXPECT_EQ(budget.used_bytes(core::BudgetCategory::kClientState), 0u);
    EXPECT_EQ(budget.used_bytes(), 100u);
    algorithm.set_memory_budget(nullptr);
  }
}

class FedKemfEnsembles : public ::testing::TestWithParam<EnsembleStrategy> {};

TEST_P(FedKemfEnsembles, AllStrategiesTrainAboveChance) {
  Federation fed(tiny_federation());
  FedKemfOptions options = tiny_kemf();
  options.ensemble = GetParam();
  options.distill_epochs = 2;
  LocalTrainConfig local = tiny_local();
  local.epochs = 2;
  FedKemf algorithm({tiny_spec()}, local, options);
  RunOptions run;
  run.rounds = 6;
  run.sample_ratio = 1.0;
  const RunResult result = run_federated(fed, algorithm, run);
  EXPECT_GT(result.best_accuracy, 0.3) << to_string(GetParam());
}

INSTANTIATE_TEST_SUITE_P(Strategies, FedKemfEnsembles,
                         ::testing::Values(EnsembleStrategy::kMaxLogits,
                                           EnsembleStrategy::kAvgLogits,
                                           EnsembleStrategy::kMajorityVote));

TEST(FedKemf, RejectsEmptyArchPool) {
  EXPECT_THROW(FedKemf({}, tiny_local(), tiny_kemf()), std::invalid_argument);
}

}  // namespace
}  // namespace fedkemf::fl
