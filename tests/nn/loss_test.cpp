#include "nn/loss.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <vector>

#include "gradcheck_util.h"

namespace fedtrip::nn {
namespace {

TEST(CrossEntropyTest, UniformLogitsGiveLogC) {
  SoftmaxCrossEntropy ce;
  Tensor logits(Shape{2, 4});  // all zeros -> uniform softmax
  const float loss = ce.forward(logits, {0, 3});
  EXPECT_NEAR(loss, std::log(4.0f), 1e-5);
}

TEST(CrossEntropyTest, ConfidentCorrectIsLowLoss) {
  SoftmaxCrossEntropy ce;
  Tensor logits(Shape{1, 3}, {10.0f, 0.0f, 0.0f});
  EXPECT_LT(ce.forward(logits, {0}), 0.01f);
}

TEST(CrossEntropyTest, ConfidentWrongIsHighLoss) {
  SoftmaxCrossEntropy ce;
  Tensor logits(Shape{1, 3}, {10.0f, 0.0f, 0.0f});
  EXPECT_GT(ce.forward(logits, {1}), 5.0f);
}

TEST(CrossEntropyTest, GradientIsSoftmaxMinusOnehotOverN) {
  SoftmaxCrossEntropy ce;
  Tensor logits(Shape{2, 2});  // uniform -> p = 0.5 everywhere
  ce.forward(logits, {0, 1});
  Tensor g = ce.backward();
  EXPECT_NEAR(g.at(0, 0), (0.5f - 1.0f) / 2.0f, 1e-6);
  EXPECT_NEAR(g.at(0, 1), 0.5f / 2.0f, 1e-6);
  EXPECT_NEAR(g.at(1, 0), 0.5f / 2.0f, 1e-6);
  EXPECT_NEAR(g.at(1, 1), (0.5f - 1.0f) / 2.0f, 1e-6);
}

TEST(CrossEntropyTest, GradientRowsSumToZero) {
  SoftmaxCrossEntropy ce;
  Tensor logits = testing::random_tensor(Shape{4, 5}, 1);
  ce.forward(logits, {0, 1, 2, 3});
  Tensor g = ce.backward();
  for (std::int64_t n = 0; n < 4; ++n) {
    float sum = 0.0f;
    for (std::int64_t c = 0; c < 5; ++c) sum += g.at(n, c);
    EXPECT_NEAR(sum, 0.0f, 1e-6);
  }
}

TEST(CrossEntropyTest, NumericGradient) {
  SoftmaxCrossEntropy ce;
  Tensor logits = testing::random_tensor(Shape{3, 4}, 2);
  std::vector<std::int64_t> labels{1, 0, 3};
  ce.forward(logits, labels);
  Tensor g = ce.backward();
  const float eps = 1e-3f;
  for (std::int64_t i = 0; i < logits.numel(); ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const float orig = logits[idx];
    logits[idx] = orig + eps;
    SoftmaxCrossEntropy ce2;
    const float lp = ce2.forward(logits, labels);
    logits[idx] = orig - eps;
    const float lm = ce2.forward(logits, labels);
    logits[idx] = orig;
    EXPECT_NEAR(g[idx], (lp - lm) / (2.0f * eps), 2e-3);
  }
}

TEST(CrossEntropyTest, StableForExtremeLogits) {
  SoftmaxCrossEntropy ce;
  Tensor logits(Shape{1, 2}, {500.0f, -500.0f});
  const float loss = ce.forward(logits, {1});
  EXPECT_FALSE(std::isnan(loss));
  EXPECT_FALSE(std::isinf(loss));
}

TEST(AccuracyTest, PerfectPrediction) {
  Tensor logits(Shape{2, 3}, {5, 0, 0, 0, 0, 5});
  EXPECT_DOUBLE_EQ(accuracy(logits, {0, 2}), 1.0);
}

TEST(AccuracyTest, AllWrong) {
  Tensor logits(Shape{2, 3}, {5, 0, 0, 0, 0, 5});
  EXPECT_DOUBLE_EQ(accuracy(logits, {1, 1}), 0.0);
}

TEST(AccuracyTest, Half) {
  Tensor logits(Shape{2, 2}, {1, 0, 1, 0});
  EXPECT_DOUBLE_EQ(accuracy(logits, {0, 1}), 0.5);
}

TEST(AccuracyTest, EmptyBatchIsZero) {
  Tensor logits(Shape{0, 3});
  EXPECT_DOUBLE_EQ(accuracy(logits, {}), 0.0);
}

// A tie goes to the first maximum, and a NaN logit never beats the running
// best (so a NaN in column 0 keeps class 0). accuracy and mark_correct
// keep separate argmax loops; both are pinned here.
TEST(AccuracyTest, TiesGoToTheFirstMaximumAndNaNNeverWins) {
  const float nan = std::numeric_limits<float>::quiet_NaN();
  Tensor logits(Shape{4, 3}, {1, 1, 0,     // tie between 0 and 1: class 0
                              0, 2, 2,     // tie between 1 and 2: class 1
                              0, nan, -1,  // NaN skipped: class 0
                              nan, 5, 9}); // NaN first: class 0
  const std::vector<std::int64_t> right = {0, 1, 0, 0};
  const std::vector<std::int64_t> wrong = {1, 2, 1, 2};
  EXPECT_DOUBLE_EQ(accuracy(logits, right), 1.0);
  EXPECT_DOUBLE_EQ(accuracy(logits, wrong), 0.0);
  // Neither 0 nor 1, so a row left unwritten fails its check.
  std::uint8_t hits[4] = {2, 2, 2, 2};
  mark_correct(logits, right, hits);
  for (int n = 0; n < 4; ++n) EXPECT_EQ(hits[n], 1) << "row " << n;
  mark_correct(logits, wrong, hits);
  for (int n = 0; n < 4; ++n) EXPECT_EQ(hits[n], 0) << "row " << n;
}

}  // namespace
}  // namespace fedtrip::nn
