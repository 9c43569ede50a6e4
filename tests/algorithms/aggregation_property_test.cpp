// Aggregation invariants that every algorithm's server rule must satisfy,
// plus FedAvg-specific convexity properties.
#include <gtest/gtest.h>

#include <cmath>

#include "algo_util.h"
#include "algorithms/fedavg.h"
#include "algorithms/registry.h"

namespace fedtrip::algorithms {
namespace {

class AggregationPropertyTest : public ::testing::TestWithParam<std::string> {
};

fl::ClientUpdate make_update(std::vector<float> params, std::size_t samples,
                             std::size_t dim) {
  fl::ClientUpdate u;
  u.params = std::move(params);
  u.num_samples = samples;
  u.aux.assign(dim, 0.0f);  // SCAFFOLD expects a Delta c payload
  return u;
}

TEST_P(AggregationPropertyTest, IdenticalUpdatesIdempotentFamilies) {
  // When every client uploads exactly the pre-round global model, the
  // pseudo-gradient is zero; all server rules must keep the model fixed
  // (momentum states are zero at round 1).
  AlgoParams p;
  auto algo = make_algorithm(GetParam(), p);
  algo->initialize(4, 3);
  std::vector<float> global{1.0f, -2.0f, 3.0f};
  auto u1 = make_update({1.0f, -2.0f, 3.0f}, 5, 3);
  auto u2 = make_update({1.0f, -2.0f, 3.0f}, 7, 3);
  algo->aggregate(global, {u1, u2}, 1);
  EXPECT_NEAR(global[0], 1.0f, 1e-5);
  EXPECT_NEAR(global[1], -2.0f, 1e-5);
  EXPECT_NEAR(global[2], 3.0f, 1e-5);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, AggregationPropertyTest,
    // FedDyn excluded: its server state h intentionally shifts the model
    // even for stationary uploads (its fixed point differs by design).
    ::testing::Values("FedTrip", "FedAvg", "FedProx", "SlowMo", "MOON",
                      "SCAFFOLD", "FedDANE", "FedAvgM", "FedAdam"),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

TEST(FedAvgAggregationProperties, ResultInsideConvexHull) {
  FedAvg algo;
  std::vector<float> global{0.0f};
  auto u1 = make_update({2.0f}, 3, 1);
  auto u2 = make_update({8.0f}, 9, 1);
  algo.aggregate(global, {u1, u2}, 1);
  EXPECT_GE(global[0], 2.0f);
  EXPECT_LE(global[0], 8.0f);
}

TEST(FedAvgAggregationProperties, WeightsProportionalToSamples) {
  FedAvg algo;
  std::vector<float> global{0.0f};
  auto u1 = make_update({0.0f}, 1, 1);
  auto u2 = make_update({10.0f}, 9, 1);
  algo.aggregate(global, {u1, u2}, 1);
  EXPECT_FLOAT_EQ(global[0], 9.0f);
}

TEST(FedAvgAggregationProperties, PermutationInvariant) {
  FedAvg algo;
  auto u1 = make_update({1.0f, 4.0f}, 2, 2);
  auto u2 = make_update({7.0f, -2.0f}, 6, 2);
  std::vector<float> g1{0.0f, 0.0f}, g2{0.0f, 0.0f};
  algo.aggregate(g1, {u1, u2}, 1);
  algo.aggregate(g2, {u2, u1}, 1);
  EXPECT_FLOAT_EQ(g1[0], g2[0]);
  EXPECT_FLOAT_EQ(g1[1], g2[1]);
}

TEST(FedAvgAggregationProperties, SingleClientIsReplacement) {
  FedAvg algo;
  std::vector<float> global{99.0f};
  auto u = make_update({-3.5f}, 4, 1);
  algo.aggregate(global, {u}, 1);
  EXPECT_FLOAT_EQ(global[0], -3.5f);
}

// Local-training invariants shared by every method.
class LocalTrainingPropertyTest
    : public ::testing::TestWithParam<std::string> {};

TEST_P(LocalTrainingPropertyTest, UpdateHasFiniteParams) {
  testing::AlgoHarness h;
  AlgoParams p;
  auto algo = make_algorithm(GetParam(), p);
  algo->initialize(2, h.param_dim());
  if (GetParam() == "FedDANE") {
    std::vector<fl::ClientContext> ctxs;
    ctxs.push_back(h.context(0, 1));
    algo->pre_round(ctxs, h.workspaces);
    auto u = algo->train_client(ctxs[0]);
    for (float v : u.params) ASSERT_TRUE(std::isfinite(v));
    return;
  }
  auto ctx = h.context(0, 1);
  auto u = algo->train_client(ctx);
  EXPECT_EQ(u.params.size(), h.param_dim());
  for (float v : u.params) ASSERT_TRUE(std::isfinite(v));
  EXPECT_TRUE(std::isfinite(u.train_loss));
  EXPECT_GE(u.flops, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllMethods, LocalTrainingPropertyTest,
    ::testing::ValuesIn(all_methods()),
    [](const ::testing::TestParamInfo<std::string>& info) {
      return info.param;
    });

}  // namespace
}  // namespace fedtrip::algorithms
