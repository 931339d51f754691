// FLOPs/cost model tests.  The strongest check locks flops.cpp to zoo.cpp:
// the analytic parameter count must equal the measured parameter count of a
// real instance for every architecture x width x resolution combination.

#include <gtest/gtest.h>

#include <ostream>

#include "core/rng.hpp"
#include "models/flops.hpp"

namespace fedkemf::models {
namespace {

struct SpecCase {
  const char* arch;
  std::size_t image;
  double width;
  std::size_t channels;
};

// Names each case by its value.  Without this gtest prints the raw bytes of
// the struct, which include the address of `arch` and so change every run.
void PrintTo(const SpecCase& c, std::ostream* os) {
  *os << c.arch << ' ' << c.image << 'x' << c.image << 'x' << c.channels << " w" << c.width;
}

class CostMatchesZoo : public ::testing::TestWithParam<SpecCase> {};

TEST_P(CostMatchesZoo, AnalyticParameterCountEqualsRealModel) {
  const auto p = GetParam();
  const ModelSpec spec{.arch = p.arch, .num_classes = 10, .in_channels = p.channels,
                       .image_size = p.image, .width_multiplier = p.width};
  const ModelCost cost = estimate_cost(spec);
  EXPECT_EQ(cost.parameter_count, parameter_count(spec))
      << spec.to_string() << " — flops.cpp walker diverged from zoo.cpp builder";
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, CostMatchesZoo,
    ::testing::Values(SpecCase{"mlp", 16, 1.0, 3}, SpecCase{"mlp", 8, 0.5, 1},
                      SpecCase{"cnn2", 28, 1.0, 1}, SpecCase{"cnn2", 16, 0.5, 3},
                      SpecCase{"resnet20", 32, 1.0, 3}, SpecCase{"resnet20", 16, 0.25, 3},
                      SpecCase{"resnet32", 32, 1.0, 3}, SpecCase{"resnet32", 16, 0.25, 3},
                      SpecCase{"resnet44", 32, 1.0, 3}, SpecCase{"vgg11", 32, 1.0, 3},
                      SpecCase{"vgg11", 16, 0.125, 3}, SpecCase{"vgg11", 8, 0.25, 3}));

TEST(ModelCost, ResNet20FullWidthFlopsMatchLiterature) {
  // Published: CIFAR ResNet-20 forward ~40.8 MFLOPs (multiply-add counted as
  // 2); our count includes BN/ReLU/shortcut overhead, so allow a band.
  const ModelSpec spec{.arch = "resnet20", .num_classes = 10, .in_channels = 3,
                       .image_size = 32, .width_multiplier = 1.0};
  const std::size_t flops = forward_flops(spec);
  EXPECT_GT(flops, 75e6);
  EXPECT_LT(flops, 100e6);  // 2*40.8M + overhead
}

TEST(ModelCost, DepthOrderingHolds) {
  auto flops_of = [](const char* arch) {
    return forward_flops(ModelSpec{.arch = arch, .num_classes = 10, .in_channels = 3,
                                   .image_size = 32, .width_multiplier = 1.0});
  };
  EXPECT_LT(flops_of("resnet20"), flops_of("resnet32"));
  EXPECT_LT(flops_of("resnet32"), flops_of("resnet44"));
  EXPECT_LT(flops_of("resnet44"), flops_of("vgg11"));
}

TEST(ModelCost, WidthScalesFlopsQuadratically) {
  const ModelSpec full{.arch = "resnet20", .num_classes = 10, .in_channels = 3,
                       .image_size = 32, .width_multiplier = 1.0};
  ModelSpec half = full;
  half.width_multiplier = 0.5;
  const double ratio = static_cast<double>(forward_flops(full)) /
                       static_cast<double>(forward_flops(half));
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 5.0);
}

TEST(ModelCost, ResolutionScalesFlopsQuadratically) {
  const ModelSpec big{.arch = "resnet20", .num_classes = 10, .in_channels = 3,
                      .image_size = 32, .width_multiplier = 0.25};
  ModelSpec small = big;
  small.image_size = 16;
  const double ratio = static_cast<double>(forward_flops(big)) /
                       static_cast<double>(forward_flops(small));
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 5.0);
}

TEST(ModelCost, TrainingIsThreeTimesForward) {
  const ModelSpec spec{.arch = "cnn2", .num_classes = 10, .in_channels = 1,
                       .image_size = 28, .width_multiplier = 1.0};
  const ModelCost cost = estimate_cost(spec);
  EXPECT_EQ(cost.training_flops(), 3 * cost.total_flops);
}

TEST(ModelCost, LayerBreakdownSumsToTotal) {
  const ModelSpec spec{.arch = "resnet20", .num_classes = 10, .in_channels = 3,
                       .image_size = 16, .width_multiplier = 0.25};
  const ModelCost cost = estimate_cost(spec);
  std::size_t total = 0;
  for (const LayerCost& layer : cost.layers) total += layer.flops;
  EXPECT_EQ(total, cost.total_flops);
  EXPECT_FALSE(cost.layers.empty());
  EXPECT_GT(cost.peak_activations, 0u);
}

TEST(ModelCost, UnknownArchThrows) {
  EXPECT_THROW(estimate_cost(ModelSpec{.arch = "densenet"}), std::invalid_argument);
}

}  // namespace
}  // namespace fedkemf::models
