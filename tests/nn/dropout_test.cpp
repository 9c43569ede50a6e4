#include "nn/dropout.h"

#include <gtest/gtest.h>

#include "gradcheck_util.h"

namespace fedtrip::nn {
namespace {

TEST(DropoutTest, EvalModeIsIdentity) {
  Dropout drop(0.5f);
  Tensor x = testing::random_tensor(Shape{2, 8}, 1);
  Tensor y = drop.forward(x, /*train=*/false);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_FLOAT_EQ(y[idx], x[idx]);
  }
}

TEST(DropoutTest, ZeroProbabilityIsIdentityInTrain) {
  Dropout drop(0.0f);
  Tensor x = testing::random_tensor(Shape{2, 8}, 2);
  Tensor y = drop.forward(x, /*train=*/true);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_FLOAT_EQ(y[idx], x[idx]);
  }
}

TEST(DropoutTest, TrainModeZeroesRoughlyPFraction) {
  Dropout drop(0.3f);
  Tensor x = Tensor::full(Shape{1, 10000}, 1.0f);
  Tensor y = drop.forward(x, true);
  int zeros = 0;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    if (y[static_cast<std::size_t>(i)] == 0.0f) ++zeros;
  }
  EXPECT_NEAR(static_cast<double>(zeros) / 10000.0, 0.3, 0.03);
}

TEST(DropoutTest, SurvivorsAreScaledUp) {
  Dropout drop(0.5f);
  Tensor x = Tensor::full(Shape{1, 100}, 1.0f);
  Tensor y = drop.forward(x, true);
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    const float v = y[static_cast<std::size_t>(i)];
    EXPECT_TRUE(v == 0.0f || std::abs(v - 2.0f) < 1e-6) << v;
  }
}

TEST(DropoutTest, ExpectationPreserved) {
  // Inverted dropout: E[output] == input.
  Dropout drop(0.4f);
  Tensor x = Tensor::full(Shape{1, 20000}, 3.0f);
  Tensor y = drop.forward(x, true);
  double sum = 0.0;
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    sum += y[static_cast<std::size_t>(i)];
  }
  EXPECT_NEAR(sum / 20000.0, 3.0, 0.15);
}

TEST(DropoutTest, BackwardUsesSameMask) {
  Dropout drop(0.5f);
  Tensor x = Tensor::full(Shape{1, 50}, 1.0f);
  Tensor y = drop.forward(x, true);
  Tensor g = Tensor::full(Shape{1, 50}, 1.0f);
  Tensor gx = drop.backward(g);
  for (std::int64_t i = 0; i < y.numel(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    // grad passes exactly where the activation passed, with the same scale.
    EXPECT_FLOAT_EQ(gx[idx], y[idx]);
  }
}

TEST(DropoutTest, ResetStreamsReproducesMask) {
  Dropout drop(0.5f, 42);
  Tensor x = Tensor::full(Shape{1, 64}, 1.0f);
  Tensor y1 = drop.forward(x, true);
  drop.reset_streams();
  Tensor y2 = drop.forward(x, true);
  for (std::int64_t i = 0; i < y1.numel(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    EXPECT_FLOAT_EQ(y1[idx], y2[idx]);
  }
}

TEST(DropoutTest, NoParameters) {
  Dropout drop(0.5f);
  EXPECT_TRUE(drop.parameters().empty());
}

}  // namespace
}  // namespace fedtrip::nn
