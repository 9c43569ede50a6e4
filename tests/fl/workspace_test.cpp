#include "fl/workspace.h"

#include <gtest/gtest.h>

#include <condition_variable>
#include <mutex>
#include <set>
#include <thread>
#include <vector>

#include "algorithms/registry.h"
#include "fl/simulation.h"
#include "nn/parameter_vector.h"
#include "sim_util.h"
#include "tensor/thread_pool.h"

namespace fedtrip::fl {
namespace {

nn::ModelSpec tiny_mlp() {
  nn::ModelSpec spec;
  spec.arch = nn::Arch::kMLP;
  spec.channels = 1;
  spec.height = 2;
  spec.width = 2;
  spec.classes = 2;
  return spec;
}

WorkspacePool mlp_pool(optim::OptKind kind = optim::OptKind::kSGD) {
  return WorkspacePool(nn::make_model_factory(tiny_mlp(), 5), kind, 0.1f,
                       0.9f);
}

TEST(WorkspacePoolTest, ModelAndOptimizerFromTheConfiguration) {
  WorkspacePool pool = mlp_pool();
  const auto ws = pool.checkout();
  EXPECT_EQ(nn::flatten_parameters(ws->model()),
            nn::flatten_parameters(*nn::build_model(tiny_mlp(), 5)));
  EXPECT_EQ(ws->optimizer().name(), "SGD");
  EXPECT_FLOAT_EQ(ws->optimizer().learning_rate(), 0.1f);

  WorkspacePool momentum = mlp_pool(optim::OptKind::kSGDMomentum);
  EXPECT_EQ(momentum.checkout()->optimizer().name(), "SGDMomentum");
}

TEST(WorkspacePoolTest, ConcurrentTasksGetDistinctWorkspaces) {
  WorkspacePool pool = mlp_pool();
  constexpr std::size_t kThreads = 4;
  std::vector<Workspace*> held(kThreads, nullptr);
  std::vector<std::thread> threads;
  std::size_t arrived = 0;
  std::mutex mu;
  std::condition_variable all_in;
  for (std::size_t t = 0; t < kThreads; ++t) {
    threads.emplace_back([&, t] {
      const auto ws = pool.checkout();
      held[t] = &*ws;
      // Hold the lease until every thread has one.
      std::unique_lock<std::mutex> lock(mu);
      if (++arrived == kThreads) all_in.notify_all();
      all_in.wait(lock, [&] { return arrived == kThreads; });
    });
  }
  for (auto& th : threads) th.join();
  EXPECT_EQ(std::set<Workspace*>(held.begin(), held.end()).size(), kThreads);
  EXPECT_EQ(pool.size(), kThreads);
}

TEST(WorkspacePoolTest, NeverGrowsPastPeakConcurrency) {
  WorkspacePool pool = mlp_pool();
  EXPECT_EQ(pool.size(), 0u);
  Workspace* first = nullptr;
  for (int i = 0; i < 10; ++i) {
    const auto ws = pool.checkout();
    if (first == nullptr) first = &*ws;
    EXPECT_EQ(&*ws, first) << "a returned workspace is reused";
  }
  EXPECT_EQ(pool.size(), 1u);
  {
    const auto a = pool.checkout();
    const auto b = pool.checkout();
    const auto c = pool.checkout();
    EXPECT_EQ(pool.size(), 3u);
  }
  for (int i = 0; i < 10; ++i) (void)pool.checkout();
  EXPECT_EQ(pool.size(), 3u);

  // Many short tasks over a 3-thread pool: at most 3 run at once.
  WorkspacePool busy = mlp_pool();
  ThreadPool threads(3);
  parallel_for(
      0, 200, [&](std::size_t) { (void)busy.checkout()->model(); }, &threads);
  EXPECT_GE(busy.size(), 1u);
  EXPECT_LE(busy.size(), threads.size());
}

TEST(WorkspacePoolTest, AuxModelsBuiltOncePerWorkspace) {
  WorkspacePool pool = mlp_pool();
  nn::Sequential* a0 = nullptr;
  nn::Sequential* a1 = nullptr;
  {
    const auto ws = pool.checkout();
    a0 = &ws->aux_model(0);
    EXPECT_EQ(&ws->aux_model(0), a0);  // created once, reused
    a1 = &ws->aux_model(1);
    EXPECT_NE(a0, a1);
    EXPECT_NE(a0, &ws->model());
  }
  // Kept with the workspace across checkouts.
  const auto again = pool.checkout();
  EXPECT_EQ(&again->aux_model(0), a0);
  EXPECT_EQ(&again->aux_model(1), a1);
  EXPECT_EQ(pool.size(), 1u);
}

TEST(WorkspacePoolTest, AuxModelIndependentOfMainModel) {
  WorkspacePool pool = mlp_pool();
  const auto ws = pool.checkout();
  auto& aux = ws->aux_model(0);
  std::vector<float> zeros(
      static_cast<std::size_t>(nn::parameter_count(aux)), 0.0f);
  nn::load_parameters(aux, zeros);
  // Main model untouched.
  double norm = 0.0;
  for (float v : nn::flatten_parameters(ws->model())) {
    norm += static_cast<double>(v) * v;
  }
  EXPECT_GT(norm, 0.0);
}

TEST(WorkspacePoolTest, CheckoutRestoresDropoutStreams) {
  nn::ModelSpec spec;
  spec.arch = nn::Arch::kAlexNet;
  spec.channels = 3;
  spec.height = 32;
  spec.width = 32;
  spec.width_mult = 0.25;
  spec.dropout = 0.5f;
  WorkspacePool pool(nn::make_model_factory(spec, 11),
                     optim::OptKind::kSGDMomentum, 0.01f, 0.9f);
  Tensor x(Shape{2, 3, 32, 32});
  Rng rng(3);
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[static_cast<std::size_t>(i)] = rng.normal();
  }
  const Tensor fresh = nn::build_model(spec, 11)->forward(x, /*train=*/true);

  Tensor first;
  Tensor continued;
  {
    const auto ws = pool.checkout();
    first = ws->model().forward(x, /*train=*/true);
    // Without a reset the stream moves on and the masks change.
    continued = ws->model().forward(x, /*train=*/true);
  }
  const auto ws = pool.checkout();
  const Tensor reused = ws->model().forward(x, /*train=*/true);
  ASSERT_EQ(pool.size(), 1u);
  const auto values = [](const Tensor& t) {
    return std::vector<float>(t.data(), t.data() + t.numel());
  };
  EXPECT_EQ(values(first), values(fresh));
  EXPECT_NE(values(continued), values(fresh));
  EXPECT_EQ(values(reused), values(fresh));
}

TEST(WorkspacePoolTest, SimulationHoldsOneWorkspacePerRunningTask) {
  // 100 clients in pool mode: construction builds one workspace, not one
  // per client, and a run never holds more than one per training thread
  // plus the calling thread.
  ExperimentConfig cfg = testing::tiny_config();
  cfg.data_scale = 0.1;
  cfg.num_clients = 100;
  cfg.clients_per_round = 20;
  cfg.rounds = 3;
  cfg.workers = 3;
  algorithms::AlgoParams p;
  Simulation sim(cfg, algorithms::make_algorithm("FedTrip", p));
  EXPECT_EQ(sim.workspaces().size(), 1u);
  const auto result = sim.run();
  EXPECT_EQ(result.history.size(), cfg.rounds);
  EXPECT_GE(sim.workspaces().size(), 1u);
  EXPECT_LE(sim.workspaces().size(), cfg.workers + 1);
}

}  // namespace
}  // namespace fedtrip::fl
