// Model zoo tests: build every architecture at several widths/resolutions,
// check output shapes, parameter counts (full width against published
// figures), width scaling, and forward/backward viability.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <ostream>
#include <span>

#include "core/rng.hpp"
#include "models/zoo.hpp"
#include "nn/loss.hpp"

namespace fedkemf::models {
namespace {

using core::Rng;
using core::Shape;
using core::Tensor;

ModelSpec spec_of(const std::string& arch, std::size_t image = 32, double width = 1.0,
                  std::size_t channels = 3) {
  return ModelSpec{.arch = arch,
                   .num_classes = 10,
                   .in_channels = channels,
                   .image_size = image,
                   .width_multiplier = width};
}

struct ArchCase {
  const char* arch;
  std::size_t image;
  double width;
  std::size_t channels;
};

// Names each case by its value.  Without this gtest prints the raw bytes of
// the struct, which include the address of `arch` and so change every run.
void PrintTo(const ArchCase& c, std::ostream* os) {
  *os << c.arch << ' ' << c.image << 'x' << c.image << 'x' << c.channels << " w" << c.width;
}

class ArchBuilds : public ::testing::TestWithParam<ArchCase> {};

TEST_P(ArchBuilds, ForwardBackwardProducesFiniteValues) {
  const auto p = GetParam();
  Rng rng(1);
  auto model = build_model(spec_of(p.arch, p.image, p.width, p.channels), rng);
  Tensor x = Tensor::normal(Shape::nchw(2, p.channels, p.image, p.image), rng);
  Tensor logits = model->forward(x);
  EXPECT_EQ(logits.shape(), Shape::matrix(2, 10)) << p.arch;
  EXPECT_TRUE(logits.all_finite()) << p.arch;

  std::vector<std::size_t> labels = {0, 1};
  nn::SoftmaxCrossEntropy ce;
  nn::LossResult loss = ce.compute(logits, labels);
  Tensor dx = model->backward(loss.grad);
  EXPECT_EQ(dx.shape(), x.shape()) << p.arch;
  EXPECT_TRUE(dx.all_finite()) << p.arch;
  for (nn::Parameter* param : model->parameters()) {
    EXPECT_TRUE(param->grad.all_finite()) << p.arch << "/" << param->name;
  }
}

INSTANTIATE_TEST_SUITE_P(
    Zoo, ArchBuilds,
    ::testing::Values(ArchCase{"mlp", 16, 1.0, 3}, ArchCase{"cnn2", 28, 1.0, 1},
                      ArchCase{"cnn2", 16, 0.5, 3}, ArchCase{"resnet20", 32, 1.0, 3},
                      ArchCase{"resnet20", 16, 0.25, 3}, ArchCase{"resnet32", 16, 0.25, 3},
                      ArchCase{"resnet44", 16, 0.25, 3}, ArchCase{"resnet20", 8, 0.25, 1},
                      ArchCase{"vgg11", 32, 0.25, 3}, ArchCase{"vgg11", 16, 0.125, 3}));

// The server distiller computes each teacher's logits over the pool once, in
// chunks of the distill batch, and gathers every batch's rows from that
// cache.  That is exact only because an eval-mode forward is row-independent
// bit for bit: a row's logits do not depend on which rows share its batch,
// nor on the batch size.  Checked for every arch that can be a teacher, at
// fedbench's shape (12x12x3, width 0.25, batch 32), with a pool that is not a
// multiple of the batch so the last chunk and the last batch are partial.
class TeacherRowIndependence : public ::testing::TestWithParam<const char*> {};

Tensor gather_rows(const Tensor& images, std::span<const std::size_t> rows) {
  const std::size_t row_numel = images.numel() / images.dim(0);
  Tensor out(Shape::nchw(rows.size(), images.dim(1), images.dim(2), images.dim(3)));
  for (std::size_t i = 0; i < rows.size(); ++i) {
    std::memcpy(out.data() + i * row_numel, images.data() + rows[i] * row_numel,
                row_numel * sizeof(float));
  }
  return out;
}

TEST_P(TeacherRowIndependence, GatheredBatchEqualsChunkedPoolForwardBitwise) {
  constexpr std::size_t kPool = 80;
  constexpr std::size_t kBatch = 32;
  Rng rng(7);
  auto model = build_model(spec_of(GetParam(), 12, 0.25), rng);
  // One training step first, so BatchNorm's running statistics are not the
  // identity they start at.
  model->forward(Tensor::normal(Shape::nchw(kBatch, 3, 12, 12), rng));
  model->set_training(false);
  const Tensor pool = Tensor::normal(Shape::nchw(kPool, 3, 12, 12), rng);

  std::vector<std::size_t> rows(kPool);
  for (std::size_t i = 0; i < kPool; ++i) rows[i] = i;
  std::vector<Tensor> chunks;
  for (std::size_t start = 0; start < kPool; start += kBatch) {
    const std::size_t count = std::min(kBatch, kPool - start);
    chunks.push_back(model->forward(gather_rows(pool, {rows.data() + start, count})));
  }
  const std::size_t classes = chunks.front().dim(1);

  const std::vector<std::size_t> order = rng.permutation(kPool);
  ASSERT_FALSE(std::is_sorted(order.begin(), order.end()));
  for (std::size_t start = 0; start < kPool; start += kBatch) {
    const std::size_t count = std::min(kBatch, kPool - start);
    const Tensor batch = model->forward(gather_rows(pool, {order.data() + start, count}));
    for (std::size_t i = 0; i < count; ++i) {
      const std::size_t row = order[start + i];
      const float* cached = chunks[row / kBatch].data() + (row % kBatch) * classes;
      EXPECT_EQ(std::memcmp(batch.data() + i * classes, cached, classes * sizeof(float)), 0)
          << "pool row " << row << " at batch position " << start + i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Zoo, TeacherRowIndependence,
                         ::testing::Values("cnn2", "vgg11", "resnet20", "resnet32", "resnet44",
                                           "mlp"),
                         [](const ::testing::TestParamInfo<const char*>& param_info) {
                           return std::string(param_info.param);
                         });

TEST(ModelZoo, FullWidthParameterCountsMatchLiterature) {
  // Published CIFAR-10 counts: ResNet-20 ~0.27M, ResNet-32 ~0.46M,
  // ResNet-44 ~0.66M, VGG-11(+BN, 1-layer classifier) ~9.2M-9.8M.
  const std::size_t r20 = parameter_count(spec_of("resnet20"));
  const std::size_t r32 = parameter_count(spec_of("resnet32"));
  const std::size_t r44 = parameter_count(spec_of("resnet44"));
  const std::size_t vgg = parameter_count(spec_of("vgg11"));
  EXPECT_NEAR(static_cast<double>(r20), 272e3, 10e3);
  EXPECT_NEAR(static_cast<double>(r32), 466e3, 15e3);
  EXPECT_NEAR(static_cast<double>(r44), 661e3, 20e3);
  EXPECT_GT(vgg, 9e6);
  EXPECT_LT(vgg, 10.5e6);
  // Strict ordering by depth — the resource-heterogeneity premise.
  EXPECT_LT(r20, r32);
  EXPECT_LT(r32, r44);
  EXPECT_LT(r44, vgg);
}

TEST(ModelZoo, WidthMultiplierScalesQuadratically) {
  const std::size_t full = parameter_count(spec_of("resnet20", 32, 1.0));
  const std::size_t half = parameter_count(spec_of("resnet20", 32, 0.5));
  // Conv params scale ~w^2; allow generous tolerance for BN/classifier terms.
  const double ratio = static_cast<double>(full) / static_cast<double>(half);
  EXPECT_GT(ratio, 3.0);
  EXPECT_LT(ratio, 5.0);
}

TEST(ModelZoo, StateCountIncludesBuffers) {
  const ModelSpec spec = spec_of("resnet20", 16, 0.25);
  EXPECT_GT(state_count(spec), parameter_count(spec));
}

TEST(ModelZoo, UnknownArchThrows) {
  Rng rng(2);
  EXPECT_THROW(build_model(spec_of("resnet99"), rng), std::invalid_argument);
  EXPECT_FALSE(is_known_arch("alexnet"));
  EXPECT_TRUE(is_known_arch("vgg11"));
}

TEST(ModelZoo, InvalidGeometryThrows) {
  Rng rng(3);
  EXPECT_THROW(build_model(spec_of("cnn2", 4), rng), std::invalid_argument);
  EXPECT_THROW(build_model(spec_of("resnet20", 2), rng), std::invalid_argument);
  ModelSpec bad = spec_of("mlp");
  bad.num_classes = 1;
  EXPECT_THROW(build_model(bad, rng), std::invalid_argument);
  bad = spec_of("mlp");
  bad.width_multiplier = 0.0;
  EXPECT_THROW(build_model(bad, rng), std::invalid_argument);
}

TEST(ModelZoo, ScaledChannelsNeverZero) {
  EXPECT_EQ(scaled_channels(64, 0.001), 1u);
  EXPECT_EQ(scaled_channels(16, 0.25), 4u);
  EXPECT_EQ(scaled_channels(16, 1.0), 16u);
  EXPECT_THROW(scaled_channels(16, 0.0), std::invalid_argument);
}

TEST(ModelZoo, SameSpecSameRngSameWeights) {
  const ModelSpec spec = spec_of("resnet20", 16, 0.25);
  Rng rng1(7);
  Rng rng2(7);
  auto a = build_model(spec, rng1);
  auto b = build_model(spec, rng2);
  const auto pa = a->parameters();
  const auto pb = b->parameters();
  ASSERT_EQ(pa.size(), pb.size());
  for (std::size_t i = 0; i < pa.size(); ++i) {
    ASSERT_EQ(pa[i]->value.shape(), pb[i]->value.shape());
    for (std::size_t j = 0; j < pa[i]->value.numel(); ++j) {
      ASSERT_EQ(pa[i]->value[j], pb[i]->value[j]);
    }
  }
}

TEST(ModelZoo, DifferentSeedsDifferentWeights) {
  const ModelSpec spec = spec_of("mlp", 8, 1.0, 1);
  Rng rng1(7);
  Rng rng2(8);
  auto a = build_model(spec, rng1);
  auto b = build_model(spec, rng2);
  EXPECT_NE(a->parameters()[0]->value[0], b->parameters()[0]->value[0]);
}

TEST(ModelZoo, ResNetDepthsHaveCorrectBlockCount) {
  // depth = 6n+2: parameters grow with depth at fixed width.
  const std::size_t r20 = parameter_count(spec_of("resnet20", 16, 0.25));
  const std::size_t r32 = parameter_count(spec_of("resnet32", 16, 0.25));
  const std::size_t r44 = parameter_count(spec_of("resnet44", 16, 0.25));
  EXPECT_NEAR(static_cast<double>(r32 - r20), static_cast<double>(r44 - r32),
              static_cast<double>(r20));  // roughly linear in depth
}

TEST(ModelZoo, Vgg11HandlesTinyImages) {
  // At image_size 8 only three of the five pools fit; the model must still
  // build and produce [N, 10].
  Rng rng(9);
  auto model = build_model(spec_of("vgg11", 8, 0.125), rng);
  Tensor x = Tensor::normal(Shape::nchw(1, 3, 8, 8), rng);
  EXPECT_EQ(model->forward(x).shape(), Shape::matrix(1, 10));
}

TEST(ModelZoo, SpecToStringIsInformative) {
  const std::string s = spec_of("resnet20", 16, 0.25).to_string();
  EXPECT_NE(s.find("resnet20"), std::string::npos);
  EXPECT_NE(s.find("16"), std::string::npos);
}

}  // namespace
}  // namespace fedkemf::models
