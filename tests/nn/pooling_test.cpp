#include "nn/pooling.h"

#include <gtest/gtest.h>

#include <limits>

#include "gradcheck_util.h"

namespace fedtrip::nn {
namespace {

TEST(MaxPoolTest, OutputShape) {
  MaxPool2d pool(2, 2);
  Tensor x = testing::random_tensor(Shape{2, 3, 8, 8}, 1);
  Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{2, 3, 4, 4}));
}

TEST(MaxPoolTest, PicksMaximum) {
  MaxPool2d pool(2, 2);
  Tensor x(Shape{1, 1, 2, 2}, {1.0f, 4.0f, 3.0f, 2.0f});
  Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.numel(), 1);
  EXPECT_FLOAT_EQ(y[0], 4.0f);
}

TEST(MaxPoolTest, BackwardRoutesToArgmax) {
  MaxPool2d pool(2, 2);
  Tensor x(Shape{1, 1, 2, 2}, {1.0f, 4.0f, 3.0f, 2.0f});
  pool.forward(x, true);
  Tensor g(Shape{1, 1, 1, 1}, {5.0f});
  Tensor gx = pool.backward(g);
  EXPECT_FLOAT_EQ(gx[0], 0.0f);
  EXPECT_FLOAT_EQ(gx[1], 5.0f);  // position of the max
  EXPECT_FLOAT_EQ(gx[2], 0.0f);
  EXPECT_FLOAT_EQ(gx[3], 0.0f);
}

TEST(MaxPoolTest, WindowWithoutMaximumRoutesToItself) {
  // Sample 1 is all -inf, so no element of its window is above the
  // starting -inf: its gradient goes to its own window, not to element 0
  // of sample 0.
  MaxPool2d pool(2, 2);
  const float inf = std::numeric_limits<float>::infinity();
  Tensor x(Shape{2, 1, 2, 2}, {1.0f, 4.0f, 3.0f, 2.0f, -inf, -inf, -inf, -inf});
  Tensor y = pool.forward(x, true);
  EXPECT_EQ(y[1], -inf);
  Tensor gx = pool.backward(Tensor(Shape{2, 1, 1, 1}, {5.0f, 100.0f}));
  EXPECT_EQ(gx[0], 0.0f);
  EXPECT_EQ(gx[1], 5.0f);
  EXPECT_EQ(gx[4], 100.0f);
}

TEST(MaxPoolTest, PlaneSmallerThanKernelPoolsOnlyItsOwnPixels) {
  // 1x1 planes under a 2x2 window: conv_out_size still gives one output
  // per plane, whose window holds only the plane's one pixel. Each plane's
  // neighbour in memory is larger, so reading past the plane would show.
  MaxPool2d pool(2, 2);
  Tensor x(Shape{2, 2, 1, 1}, {1.0f, 4.0f, 3.0f, 8.0f});
  Tensor y = pool.forward(x, true);
  ASSERT_EQ(y.shape(), (Shape{2, 2, 1, 1}));
  EXPECT_EQ(y[0], 1.0f);
  EXPECT_EQ(y[1], 4.0f);
  EXPECT_EQ(y[2], 3.0f);
  EXPECT_EQ(y[3], 8.0f);
  Tensor gx =
      pool.backward(Tensor(Shape{2, 2, 1, 1}, {1.0f, 2.0f, 3.0f, 4.0f}));
  EXPECT_EQ(gx[0], 1.0f);
  EXPECT_EQ(gx[1], 2.0f);
  EXPECT_EQ(gx[2], 3.0f);
  EXPECT_EQ(gx[3], 4.0f);
}

TEST(MaxPoolTest, NegativeInputsHandled) {
  MaxPool2d pool(2, 2);
  Tensor x(Shape{1, 1, 2, 2}, {-5.0f, -1.0f, -3.0f, -2.0f});
  Tensor y = pool.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], -1.0f);
}

TEST(MaxPoolTest, GradCheck) {
  MaxPool2d pool(2, 2);
  // Distinct values so the argmax is stable under the eps perturbation.
  Tensor x(Shape{1, 1, 4, 4});
  for (std::int64_t i = 0; i < 16; ++i) {
    x[static_cast<std::size_t>(i)] = static_cast<float>(i) * 0.37f;
  }
  testing::check_input_gradient(pool, x, 1e-2, 1e-3f);
}

TEST(MaxPoolTest, PerChannelIndependence) {
  MaxPool2d pool(2, 2);
  Tensor x(Shape{1, 2, 2, 2}, {1, 2, 3, 4, 40, 30, 20, 10});
  Tensor y = pool.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 4.0f);
  EXPECT_FLOAT_EQ(y[1], 40.0f);
}

TEST(AvgPoolTest, OutputShape) {
  AvgPool2d pool(2, 2);
  Tensor x = testing::random_tensor(Shape{1, 2, 6, 6}, 2);
  Tensor y = pool.forward(x, true);
  EXPECT_EQ(y.shape(), (Shape{1, 2, 3, 3}));
}

TEST(AvgPoolTest, ComputesMean) {
  AvgPool2d pool(2, 2);
  Tensor x(Shape{1, 1, 2, 2}, {1.0f, 2.0f, 3.0f, 6.0f});
  Tensor y = pool.forward(x, true);
  EXPECT_FLOAT_EQ(y[0], 3.0f);
}

TEST(AvgPoolTest, BackwardSpreadsUniformly) {
  AvgPool2d pool(2, 2);
  Tensor x = testing::random_tensor(Shape{1, 1, 2, 2}, 3);
  pool.forward(x, true);
  Tensor g(Shape{1, 1, 1, 1}, {4.0f});
  Tensor gx = pool.backward(g);
  for (std::int64_t i = 0; i < 4; ++i) {
    EXPECT_FLOAT_EQ(gx[static_cast<std::size_t>(i)], 1.0f);
  }
}

TEST(AvgPoolTest, GradCheck) {
  AvgPool2d pool(2, 2);
  testing::check_input_gradient(
      pool, testing::random_tensor(Shape{1, 2, 4, 4}, 4), 1e-2, 1e-3f);
}

}  // namespace
}  // namespace fedtrip::nn
