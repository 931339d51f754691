// Unit tests for Shape and Tensor.

#include "core/tensor.hpp"

#include <cmath>
#include <limits>

#include <gtest/gtest.h>

#include "core/rng.hpp"

namespace fedkemf::core {
namespace {

TEST(Shape, BasicAccessors) {
  Shape s{2, 3, 4};
  EXPECT_EQ(s.rank(), 3u);
  EXPECT_EQ(s[0], 2u);
  EXPECT_EQ(s[1], 3u);
  EXPECT_EQ(s[2], 4u);
  EXPECT_EQ(s.numel(), 24u);
  EXPECT_EQ(s.to_string(), "[2, 3, 4]");
}

TEST(Shape, EmptyShape) {
  Shape s;
  EXPECT_EQ(s.rank(), 0u);
  EXPECT_EQ(s.numel(), 1u);
}

TEST(Shape, Equality) {
  EXPECT_EQ((Shape{2, 3}), (Shape{2, 3}));
  EXPECT_NE((Shape{2, 3}), (Shape{3, 2}));
  EXPECT_NE((Shape{2, 3}), (Shape{2, 3, 1}));
}

TEST(Shape, AxisOutOfRangeThrows) {
  Shape s{2, 3};
  EXPECT_THROW(s[2], std::out_of_range);
}

TEST(Shape, Factories) {
  EXPECT_EQ(Shape::vector(5), (Shape{5}));
  EXPECT_EQ(Shape::matrix(2, 3), (Shape{2, 3}));
  EXPECT_EQ(Shape::nchw(1, 2, 3, 4), (Shape{1, 2, 3, 4}));
}

TEST(Tensor, ZerosAndOnes) {
  Tensor z = Tensor::zeros(Shape{3, 3});
  Tensor o = Tensor::ones(Shape{3, 3});
  for (std::size_t i = 0; i < 9; ++i) {
    EXPECT_EQ(z[i], 0.0f);
    EXPECT_EQ(o[i], 1.0f);
  }
}

TEST(Tensor, FromValuesRoundTrip) {
  const float values[] = {1, 2, 3, 4, 5, 6};
  Tensor t = Tensor::from_values(Shape{2, 3}, values);
  EXPECT_EQ(t.at2(0, 0), 1.0f);
  EXPECT_EQ(t.at2(1, 2), 6.0f);
}

TEST(Tensor, FromValuesSizeMismatchThrows) {
  const float values[] = {1, 2, 3};
  EXPECT_THROW(Tensor::from_values(Shape{2, 3}, values), std::invalid_argument);
}

TEST(Tensor, CopyIsShallowCloneIsDeep) {
  Tensor a = Tensor::ones(Shape{4});
  Tensor b = a;           // shares storage
  Tensor c = a.clone();   // deep copy
  EXPECT_TRUE(a.shares_storage_with(b));
  EXPECT_FALSE(a.shares_storage_with(c));
  b[0] = 7.0f;
  EXPECT_EQ(a[0], 7.0f);
  EXPECT_EQ(c[0], 1.0f);
}

TEST(Tensor, ReshapeSharesStorage) {
  Tensor a = Tensor::ones(Shape{2, 6});
  Tensor b = a.reshaped(Shape{3, 4});
  EXPECT_TRUE(a.shares_storage_with(b));
  EXPECT_EQ(b.shape(), (Shape{3, 4}));
  EXPECT_THROW(a.reshaped(Shape{5}), std::invalid_argument);
}

TEST(Tensor, ElementwiseArithmetic) {
  const float av[] = {1, 2, 3, 4};
  const float bv[] = {10, 20, 30, 40};
  Tensor a = Tensor::from_values(Shape{4}, av);
  Tensor b = Tensor::from_values(Shape{4}, bv);

  Tensor sum = a.add(b);
  Tensor diff = b.sub(a);
  Tensor prod = a.mul(b);
  EXPECT_EQ(sum[2], 33.0f);
  EXPECT_EQ(diff[3], 36.0f);
  EXPECT_EQ(prod[1], 40.0f);
  // Out-of-place ops must not mutate operands.
  EXPECT_EQ(a[0], 1.0f);
  EXPECT_EQ(b[0], 10.0f);
}

TEST(Tensor, InPlaceAxpy) {
  const float av[] = {1, 2, 3};
  const float bv[] = {1, 1, 1};
  Tensor a = Tensor::from_values(Shape{3}, av);
  Tensor b = Tensor::from_values(Shape{3}, bv);
  a.add_scaled_(b, 0.5f);
  EXPECT_FLOAT_EQ(a[0], 1.5f);
  EXPECT_FLOAT_EQ(a[2], 3.5f);
}

TEST(Tensor, ShapeMismatchThrows) {
  Tensor a = Tensor::ones(Shape{3});
  Tensor b = Tensor::ones(Shape{4});
  EXPECT_THROW(a.add_(b), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(a.dot(b)), std::invalid_argument);
}

TEST(Tensor, Reductions) {
  const float v[] = {-1, 2, -3, 4};
  Tensor t = Tensor::from_values(Shape{4}, v);
  EXPECT_FLOAT_EQ(t.sum(), 2.0f);
  EXPECT_FLOAT_EQ(t.mean(), 0.5f);
  EXPECT_FLOAT_EQ(t.min(), -3.0f);
  EXPECT_FLOAT_EQ(t.max(), 4.0f);
  EXPECT_FLOAT_EQ(t.abs_max(), 4.0f);
  EXPECT_FLOAT_EQ(t.squared_norm(), 30.0f);
  EXPECT_FLOAT_EQ(t.dot(t), 30.0f);
}

TEST(Tensor, ClampMin) {
  const float v[] = {-2, 0, 2};
  Tensor t = Tensor::from_values(Shape{3}, v);
  t.clamp_min_(0.0f);
  EXPECT_EQ(t[0], 0.0f);
  EXPECT_EQ(t[1], 0.0f);
  EXPECT_EQ(t[2], 2.0f);
}

TEST(Tensor, AllFinite) {
  Tensor t = Tensor::ones(Shape{4});
  EXPECT_TRUE(t.all_finite());
  t[2] = std::numeric_limits<float>::infinity();
  EXPECT_FALSE(t.all_finite());
  t[2] = std::nanf("");
  EXPECT_FALSE(t.all_finite());
}

TEST(Tensor, BoundsCheckedAccess) {
  Tensor t = Tensor::ones(Shape{2, 2});
  EXPECT_THROW(t.at(4), std::out_of_range);
  EXPECT_THROW(t.at2(2, 0), std::out_of_range);
  EXPECT_THROW(t.at4(0, 0, 0, 0), std::logic_error);  // rank 2, not 4
}

TEST(Tensor, RandomFactoriesAreDeterministic) {
  Rng rng1(3);
  Rng rng2(3);
  Tensor a = Tensor::normal(Shape{32}, rng1);
  Tensor b = Tensor::normal(Shape{32}, rng2);
  for (std::size_t i = 0; i < 32; ++i) ASSERT_EQ(a[i], b[i]);
}

TEST(Tensor, UniformFactoryRange) {
  Rng rng(4);
  Tensor t = Tensor::uniform(Shape{1000}, rng, -2.0f, 3.0f);
  EXPECT_GE(t.min(), -2.0f);
  EXPECT_LT(t.max(), 3.0f);
  EXPECT_NEAR(t.mean(), 0.5f, 0.2f);
}

TEST(Tensor, SumIsStableForLargeTensors) {
  // 1M values of 0.1: float accumulation would drift; double accumulator
  // keeps it exact to ~1e-2.
  Tensor t = Tensor::full(Shape{1024 * 1024}, 0.1f);
  EXPECT_NEAR(t.sum(), 104857.6f, 15.0f);  // fp32 representation of 0.1 dominates
}

TEST(Tensor, EmptyTensorBehaviour) {
  Tensor t;
  EXPECT_FALSE(t.defined());
  EXPECT_EQ(t.numel(), 1u);  // rank-0 shape
  EXPECT_EQ(t.data(), nullptr);
}

}  // namespace
}  // namespace fedkemf::core
