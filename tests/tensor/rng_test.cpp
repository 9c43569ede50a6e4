#include "tensor/rng.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <vector>

namespace fedtrip {
namespace {

TEST(RngTest, DeterministicForSameSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, UniformInUnitInterval) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(RngTest, UniformRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const float u = rng.uniform(-2.0f, 3.0f);
    EXPECT_GE(u, -2.0f);
    EXPECT_LT(u, 3.0f);
  }
}

TEST(RngTest, UniformMeanIsHalf) {
  Rng rng(99);
  double sum = 0.0;
  const int n = 20000;
  for (int i = 0; i < n; ++i) sum += rng.uniform();
  EXPECT_NEAR(sum / n, 0.5, 0.02);
}

TEST(RngTest, UniformIntBounds) {
  Rng rng(5);
  for (int i = 0; i < 1000; ++i) EXPECT_LT(rng.uniform_int(17), 17u);
}

TEST(RngTest, UniformIntCoversRange) {
  Rng rng(5);
  std::set<std::uint64_t> seen;
  for (int i = 0; i < 500; ++i) seen.insert(rng.uniform_int(10));
  EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, NormalMoments) {
  Rng rng(11);
  const int n = 50000;
  double sum = 0.0, sq = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    sum += x;
    sq += x * x;
  }
  EXPECT_NEAR(sum / n, 0.0, 0.03);
  EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, NormalWithMeanStd) {
  Rng rng(13);
  const int n = 50000;
  double sum = 0.0;
  for (int i = 0; i < n; ++i) sum += rng.normal(5.0f, 2.0f);
  EXPECT_NEAR(sum / n, 5.0, 0.05);
}

TEST(RngTest, GammaMeanEqualsAlpha) {
  // E[Gamma(alpha, 1)] = alpha, for both alpha < 1 and alpha >= 1 branches.
  for (double alpha : {0.1, 0.5, 1.0, 3.0}) {
    Rng rng(17);
    const int n = 30000;
    double sum = 0.0;
    for (int i = 0; i < n; ++i) sum += rng.gamma(alpha);
    EXPECT_NEAR(sum / n, alpha, 0.05 * std::max(1.0, alpha))
        << "alpha=" << alpha;
  }
}

TEST(RngTest, GammaIsPositive) {
  Rng rng(19);
  for (int i = 0; i < 1000; ++i) {
    EXPECT_GT(rng.gamma(0.1), 0.0);
    EXPECT_GT(rng.gamma(2.0), 0.0);
  }
}

TEST(RngTest, DirichletSumsToOne) {
  Rng rng(23);
  for (double alpha : {0.1, 0.5, 5.0}) {
    auto p = rng.dirichlet(alpha, 10);
    ASSERT_EQ(p.size(), 10u);
    double sum = 0.0;
    for (double v : p) {
      EXPECT_GE(v, 0.0);
      sum += v;
    }
    EXPECT_NEAR(sum, 1.0, 1e-9);
  }
}

TEST(RngTest, DirichletLowAlphaIsSkewed) {
  // alpha = 0.05 should concentrate most mass on one class most of the time.
  Rng rng(29);
  int skewed = 0;
  for (int trial = 0; trial < 100; ++trial) {
    auto p = rng.dirichlet(0.05, 10);
    const double mx = *std::max_element(p.begin(), p.end());
    if (mx > 0.5) ++skewed;
  }
  EXPECT_GT(skewed, 70);
}

TEST(RngTest, DirichletHighAlphaIsFlat) {
  Rng rng(31);
  auto p = rng.dirichlet(1000.0, 10);
  for (double v : p) EXPECT_NEAR(v, 0.1, 0.03);
}

TEST(RngTest, PermutationIsPermutation) {
  Rng rng(37);
  auto perm = rng.permutation(100);
  std::set<std::size_t> seen(perm.begin(), perm.end());
  EXPECT_EQ(seen.size(), 100u);
  EXPECT_EQ(*seen.begin(), 0u);
  EXPECT_EQ(*seen.rbegin(), 99u);
}

TEST(RngTest, SampleWithoutReplacementDistinct) {
  Rng rng(41);
  auto sample = rng.sample_without_replacement(50, 10);
  ASSERT_EQ(sample.size(), 10u);
  std::set<std::size_t> seen(sample.begin(), sample.end());
  EXPECT_EQ(seen.size(), 10u);
  for (std::size_t v : sample) EXPECT_LT(v, 50u);
}

TEST(RngTest, SampleWithoutReplacementFull) {
  Rng rng(43);
  auto sample = rng.sample_without_replacement(10, 10);
  std::set<std::size_t> seen(sample.begin(), sample.end());
  EXPECT_EQ(seen.size(), 10u);
}

// The dense partial Fisher-Yates loop, frozen as the reference both paths
// of sample_without_replacement must reproduce.
std::vector<std::size_t> dense_sample_reference(Rng& rng, std::size_t n,
                                                std::size_t k) {
  std::vector<std::size_t> idx(n);
  for (std::size_t i = 0; i < n; ++i) idx[i] = i;
  for (std::size_t i = 0; i < k; ++i) {
    std::size_t j = i + rng.uniform_int(n - i);
    std::swap(idx[i], idx[j]);
  }
  idx.resize(k);
  return idx;
}

TEST(RngTest, SampleWithoutReplacementMatchesTheDenseLoop) {
  for (const std::size_t n : {1, 2, 15, 16, 17, 100, 100000}) {
    const std::size_t cut = n / Rng::kSparseSampleRatio;
    std::set<std::size_t> ks = {0, 1, cut, cut + 1, n / 2, n};
    if (cut > 0) ks.insert(cut - 1);
    for (const std::size_t k : ks) {
      if (k > n) continue;
      SCOPED_TRACE("n=" + std::to_string(n) + " k=" + std::to_string(k));
      Rng fast(n * 31 + k), reference(n * 31 + k);
      EXPECT_EQ(fast.sample_without_replacement(n, k),
                dense_sample_reference(reference, n, k));
      EXPECT_EQ(fast.next_u64(), reference.next_u64());
    }
  }
}

TEST(RngTest, SampleWithoutReplacementUniform) {
  // Every index should be selected roughly 4/10 of the time when sampling
  // 4 of 10 (the paper's client sampling).
  Rng rng(47);
  std::vector<int> counts(10, 0);
  const int trials = 5000;
  for (int t = 0; t < trials; ++t) {
    for (std::size_t k : rng.sample_without_replacement(10, 4)) {
      counts[k] += 1;
    }
  }
  for (int c : counts) {
    EXPECT_NEAR(static_cast<double>(c) / trials, 0.4, 0.03);
  }
}

TEST(RngTest, SplitStreamsAreIndependent) {
  Rng root(123);
  Rng a = root.split(1);
  Rng b = root.split(2);
  int same = 0;
  for (int i = 0; i < 64; ++i) same += (a.next_u64() == b.next_u64());
  EXPECT_LT(same, 2);
}

TEST(RngTest, SplitIsDeterministic) {
  Rng root1(123), root2(123);
  Rng a = root1.split(42);
  Rng b = root2.split(42);
  for (int i = 0; i < 20; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(RngTest, SplitDoesNotAdvanceParent) {
  Rng root(55);
  Rng probe(55);
  (void)root.split(9);
  EXPECT_EQ(root.next_u64(), probe.next_u64());
}

TEST(RngTest, ShuffleKeepsElements) {
  Rng rng(61);
  std::vector<int> v{1, 2, 3, 4, 5, 6};
  auto sorted = v;
  rng.shuffle(v);
  std::sort(v.begin(), v.end());
  EXPECT_EQ(v, sorted);
}

}  // namespace
}  // namespace fedtrip
