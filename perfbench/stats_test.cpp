// The benchmark's own statistics: tail percentiles with the ten-beyond
// rule, plain and per block, layer shares and self time, and the failed
// ratio.
#include "stats.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <stdexcept>

namespace perfbench {
namespace {

std::vector<double> one_to(std::size_t n) {
  std::vector<double> v(n);
  std::iota(v.begin(), v.end(), 1.0);
  return v;
}

TEST(Median, OddEvenAndOrderFree) {
  EXPECT_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.5);
  EXPECT_EQ(median({7.0}), 7.0);
  EXPECT_THROW(median({}), std::invalid_argument);
}

TEST(TailPercentile, NeedsTenSamplesBeyondTheRank) {
  // p90 of 1..100 is the 90th value, with exactly ten above it.
  EXPECT_EQ(tail_percentile(one_to(100), 0.9), 90.0);
  // 99 samples: the rank is 90 (ceil 89.1), leaving nine beyond.
  EXPECT_FALSE(tail_percentile(one_to(99), 0.9).has_value());
  EXPECT_EQ(samples_for_tail(0.9), 100u);
  EXPECT_EQ(samples_for_tail(0.5), 20u);
  EXPECT_EQ(samples_for_tail(0.99), 1000u);
  // Every size from samples_for_tail on reports.
  for (std::size_t n = 100; n < 400; ++n) {
    EXPECT_TRUE(tail_percentile(one_to(n), 0.9).has_value()) << n;
  }
}

TEST(TailPercentile, IgnoresInputOrder) {
  std::vector<double> v = one_to(200);
  std::reverse(v.begin(), v.end());
  EXPECT_EQ(tail_percentile(v, 0.9), 180.0);
  EXPECT_EQ(tail_percentile(v, 0.5), 100.0);
}

TEST(TailPercentile, RejectsPercentilesOutsideTheOpenUnitInterval) {
  EXPECT_THROW(tail_percentile(one_to(100), 1.0), std::invalid_argument);
  EXPECT_THROW(tail_percentile(one_to(100), 0.0), std::invalid_argument);
  EXPECT_FALSE(tail_percentile({}, 0.9).has_value());
}

TEST(BlockedTailPercentile, OneBlockIsThePlainTailPercentile) {
  EXPECT_FALSE(blocked_tail_percentile(one_to(99), 0.9).has_value());
  EXPECT_EQ(blocked_tail_percentile(one_to(100), 0.9), 90.0);
  // 199 samples are one block: the remainder joins it.
  EXPECT_EQ(blocked_tail_percentile(one_to(199), 0.9),
            tail_percentile(one_to(199), 0.9));
}

TEST(BlockedTailPercentile, ABurstInFewBlocksDoesNotMoveIt) {
  // Five blocks of 100 rounds at 1..100 ms; one block hit by a burst that
  // doubles every round in it. The pooled p90 moves, the blocked one not.
  std::vector<double> v;
  for (int b = 0; b < 5; ++b) {
    for (double x : one_to(100)) v.push_back(b == 2 ? 2.0 * x : x);
  }
  EXPECT_EQ(blocked_tail_percentile(v, 0.9), 90.0);
  EXPECT_GT(*tail_percentile(v, 0.9), 90.0);
  // Three of five blocks hit: now the median block is a burst block.
  for (std::size_t i = 0; i < 100; ++i) v[i] *= 2.0;
  for (std::size_t i = 400; i < 500; ++i) v[i] *= 2.0;
  EXPECT_EQ(blocked_tail_percentile(v, 0.9), 180.0);
}

TEST(LayerTable, SelfTimeIsTheLoopWallLeftAfterTheRows) {
  LayerTable t;
  t.loop_s = 10.0;
  t.rows = {{"fl.train_s", 5.0, 40, 0.1},
            {"fl.aggregate_s", 3.0, 10, 0.3},
            {"fl.select_s", 0.5, 10, 0.05}};
  EXPECT_DOUBLE_EQ(t.self_s(), 1.5);
  EXPECT_DOUBLE_EQ(t.share(t.rows[0]), 0.5);
  EXPECT_DOUBLE_EQ(t.share(t.rows[2]), 0.05);
}

TEST(LayerTable, RowsThatExceedTheLoopShowAsNegativeSelfTime) {
  // Overlapping or out-of-loop timings: the run's check rejects this.
  LayerTable t;
  t.loop_s = 2.0;
  t.rows = {{"fl.train_s", 1.5, 4, 0.4}, {"fl.aggregate_s", 0.75, 4, 0.2}};
  EXPECT_LT(t.self_s(), 0.0);
  t.loop_s = 0.0;
  EXPECT_DOUBLE_EQ(t.share(t.rows[0]), 0.0);
}

TEST(FailedRatio, CountsFailuresAgainstAttempts) {
  EXPECT_DOUBLE_EQ(failed_ratio(0, 0), 0.0);
  EXPECT_DOUBLE_EQ(failed_ratio(400, 0), 0.0);
  EXPECT_DOUBLE_EQ(failed_ratio(400, 100), 0.25);
  EXPECT_DOUBLE_EQ(failed_ratio(400, 400), 1.0);
  EXPECT_THROW(failed_ratio(1, 2), std::invalid_argument);
}

}  // namespace
}  // namespace perfbench
