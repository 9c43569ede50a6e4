#include "algorithms/feddane.h"

#include <gtest/gtest.h>

#include "algo_util.h"
#include "algorithms/fedprox.h"

namespace fedtrip::algorithms {
namespace {

TEST(FedDaneTest, Name) {
  FedDane algo(0.1f);
  EXPECT_EQ(algo.name(), "FedDANE");
}

TEST(FedDaneTest, PreRoundComputesGradientsAndFlops) {
  testing::AlgoHarness h;
  FedDane algo(0.1f);
  algo.initialize(2, h.param_dim());
  std::vector<fl::ClientContext> contexts;
  contexts.push_back(h.context(0, 1, 3));
  contexts.push_back(h.context(1, 1, 3));
  const double flops = algo.pre_round(contexts, h.workspaces);
  EXPECT_GT(flops, 0.0);
}

TEST(FedDaneTest, FullRoundProducesValidUpdate) {
  testing::AlgoHarness h;
  FedDane algo(0.1f);
  algo.initialize(2, h.param_dim());
  std::vector<fl::ClientContext> contexts;
  contexts.push_back(h.context(0, 1, 5));
  algo.pre_round(contexts, h.workspaces);
  auto u = algo.train_client(contexts[0]);
  EXPECT_EQ(u.params.size(), h.param_dim());
  EXPECT_EQ(u.extra_upload_floats, h.param_dim());  // gradient upload
}

TEST(FedDaneTest, ExtraDownlinkIsW) {
  FedDane algo(0.1f);
  EXPECT_EQ(algo.extra_downlink_floats(999), 999u);
}

TEST(FedDaneTest, SingleClientCorrectionVanishes) {
  // With one selected client, g_t == dF_k(w_global), so the DANE correction
  // g_t - dF_k is zero and FedDANE == FedProx with the same mu.
  testing::AlgoHarness h1, h2;
  FedDane dane(0.1f);
  dane.initialize(2, h1.param_dim());
  std::vector<fl::ClientContext> contexts;
  contexts.push_back(h1.context(0, 1, 7));
  dane.pre_round(contexts, h1.workspaces);
  auto u_dane = dane.train_client(contexts[0]);

  FedProx prox(0.1f);
  prox.initialize(2, h2.param_dim());
  auto ctx = h2.context(0, 1, 7);
  auto u_prox = prox.train_client(ctx);
  ASSERT_EQ(u_dane.params.size(), u_prox.params.size());
  for (std::size_t i = 0; i < u_dane.params.size(); ++i) {
    EXPECT_NEAR(u_dane.params[i], u_prox.params[i], 2e-4) << i;
  }
}

TEST(FedDaneTest, TwoClientsCorrectionNonZero) {
  testing::AlgoHarness h1, h2;
  FedDane dane(0.1f);
  dane.initialize(2, h1.param_dim());
  std::vector<fl::ClientContext> contexts;
  contexts.push_back(h1.context(0, 1, 9));
  contexts.push_back(h1.context(1, 1, 9));
  dane.pre_round(contexts, h1.workspaces);
  auto u_two = dane.train_client(contexts[0]);

  FedDane solo(0.1f);
  solo.initialize(2, h2.param_dim());
  std::vector<fl::ClientContext> solo_ctx;
  solo_ctx.push_back(h2.context(0, 1, 9));
  solo.pre_round(solo_ctx, h2.workspaces);
  auto u_one = solo.train_client(solo_ctx[0]);
  EXPECT_NE(u_two.params, u_one.params);
}

}  // namespace
}  // namespace fedtrip::algorithms
