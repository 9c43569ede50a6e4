// Micro-benchmarks (google-benchmark) for the hot kernels: GEMM, im2col
// convolution, the attaching operations whose 2|w| / 4|w| costs drive
// the paper's Table V/VIII accounting, and test-set evaluation.
#include <benchmark/benchmark.h>

#include <optional>

#include "algorithms/fedtrip.h"
#include "fl/simulation.h"
#include "nn/conv2d.h"
#include "nn/models.h"
#include "tensor/ops.h"
#include "tensor/rng.h"
#include "tensor/vec_math.h"

namespace {

using namespace fedtrip;

void BM_Gemm(benchmark::State& state) {
  const auto n = static_cast<std::int64_t>(state.range(0));
  Rng rng(1);
  std::vector<float> a(n * n), b(n * n), c(n * n);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  for (auto _ : state) {
    ops::gemm(a.data(), b.data(), c.data(), n, n, n);
    benchmark::DoNotOptimize(c.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n * n * n);
}
BENCHMARK(BM_Gemm)->Arg(64)->Arg(128)->Arg(256);

// The GEMMs of the models' hot layers, one benchmark per kernel with
// (m, k, n) as arguments.
template <auto Kernel>
void BM_GemmShape(benchmark::State& state) {
  const auto m = static_cast<std::int64_t>(state.range(0));
  const auto k = static_cast<std::int64_t>(state.range(1));
  const auto n = static_cast<std::int64_t>(state.range(2));
  Rng rng(9);
  std::vector<float> a(m * k), b(k * n), c(m * n);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  for (auto _ : state) {
    Kernel(a.data(), b.data(), c.data(), m, k, n, 1.0f, 1.0f);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}
// CNN last conv forward: a 1x1 output makes n = 1. gemm and gemm_tn take
// the narrow path below 16 output columns (n = 4: the CNN on 32x32 inputs)
// and the row path from 16 on (n = 16: AlexNet's 4x4 convs on 32x32
// inputs), so n = 8 and 15 time the path inside the cut and 16 the first
// width past it.
BENCHMARK(BM_GemmShape<ops::gemm>)
    ->Args({120, 400, 1})
    ->Args({120, 400, 4})
    ->Args({120, 400, 8})
    ->Args({120, 400, 15})
    ->Args({120, 400, 16})
    ->Args({96, 432, 16});
// Its weight gradient (a 1x1 output makes k = 1) and the MLP hidden layer.
BENCHMARK(BM_GemmShape<ops::gemm_nt>)->Args({120, 1, 400})->Args({32, 784, 100});
// Its input gradient, at the same widths.
BENCHMARK(BM_GemmShape<ops::gemm_tn>)
    ->Args({400, 120, 1})
    ->Args({400, 120, 4})
    ->Args({400, 120, 8})
    ->Args({400, 120, 15})
    ->Args({400, 120, 16})
    ->Args({432, 96, 16});

void BM_Conv2dForward(benchmark::State& state) {
  Rng rng(2);
  nn::Conv2d conv(6, 16, 5, 1, 0, rng);
  Tensor x(Shape{8, 6, 14, 14});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[static_cast<std::size_t>(i)] = rng.normal();
  }
  for (auto _ : state) {
    Tensor y = conv.forward(x, true);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Conv2dForward);

void BM_Conv2dBackward(benchmark::State& state) {
  Rng rng(3);
  nn::Conv2d conv(6, 16, 5, 1, 0, rng);
  Tensor x(Shape{8, 6, 14, 14});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[static_cast<std::size_t>(i)] = rng.normal();
  }
  Tensor y = conv.forward(x, true);
  Tensor g(y.shape());
  for (std::int64_t i = 0; i < g.numel(); ++i) {
    g[static_cast<std::size_t>(i)] = rng.normal();
  }
  for (auto _ : state) {
    conv.zero_grad();
    Tensor gx = conv.backward(g);
    benchmark::DoNotOptimize(gx.data());
  }
}
BENCHMARK(BM_Conv2dBackward);

// The FedTrip attaching operation on a CNN-sized parameter vector: measures
// the actual cost behind the paper's "negligible 4K|w|" claim.
void BM_FedTripAttach(benchmark::State& state) {
  const std::size_t n = 620'000;
  Rng rng(4);
  std::vector<float> w(n), wg(n), wh(n), delta(n);
  for (auto& v : w) v = rng.normal();
  for (auto& v : wg) v = rng.normal();
  for (auto& v : wh) v = rng.normal();
  const float mu = 0.4f, xi = 0.5f;
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) {
      delta[i] = mu * ((w[i] - wg[i]) + xi * (wh[i] - w[i]));
    }
    benchmark::DoNotOptimize(delta.data());
  }
  state.SetItemsProcessed(state.iterations() * 4 * n);
}
BENCHMARK(BM_FedTripAttach);

void BM_FedProxAttach(benchmark::State& state) {
  const std::size_t n = 620'000;
  Rng rng(5);
  std::vector<float> w(n), wg(n), delta(n);
  for (auto& v : w) v = rng.normal();
  for (auto& v : wg) v = rng.normal();
  const float mu = 0.1f;
  for (auto _ : state) {
    for (std::size_t i = 0; i < n; ++i) delta[i] = mu * (w[i] - wg[i]);
    benchmark::DoNotOptimize(delta.data());
  }
  state.SetItemsProcessed(state.iterations() * 2 * n);
}
BENCHMARK(BM_FedProxAttach);

// One feedforward of the CNN on a batch — the unit MOON pays (1+p) extra
// times per local iteration.
void BM_CnnFeedforward(benchmark::State& state) {
  nn::ModelSpec spec;
  spec.arch = nn::Arch::kCNN;
  auto model = nn::build_model(spec, 6);
  Rng rng(7);
  Tensor x(Shape{16, 1, 28, 28});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[static_cast<std::size_t>(i)] = rng.normal();
  }
  for (auto _ : state) {
    Tensor y = model->forward(x, false);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_CnnFeedforward);

// Simulation::evaluate on paper-cnn's test split (250 samples, CNN, 4
// workers). Argument 0: a fresh Simulation, which evaluates on the calling
// thread; 1: after one round of local training, over the training threads.
void BM_Evaluate(benchmark::State& state) {
  fl::ExperimentConfig cfg;
  cfg.model.arch = nn::Arch::kCNN;
  cfg.dataset = "mnist";
  cfg.data_scale = 0.1;
  cfg.num_clients = 10;
  cfg.clients_per_round = 4;
  cfg.rounds = 1;
  cfg.batch_size = 15;
  cfg.workers = 4;
  std::optional<fl::Simulation> sim;
  sim.emplace(cfg, std::make_unique<algorithms::FedTrip>(0.4f));
  std::vector<float> params = sim->run().final_params;
  if (state.range(0) == 0) {
    sim.emplace(cfg, std::make_unique<algorithms::FedTrip>(0.4f));
  }
  for (auto _ : state) {
    double acc = sim->evaluate(params);
    benchmark::DoNotOptimize(acc);
  }
  state.SetItemsProcessed(state.iterations() *
                          static_cast<std::int64_t>(sim->test_data().size()));
}
BENCHMARK(BM_Evaluate)->Arg(0)->Arg(1)->Unit(benchmark::kMillisecond)->UseRealTime();

void BM_WeightedAggregation(benchmark::State& state) {
  const std::size_t n = 620'000;
  Rng rng(8);
  std::vector<std::vector<float>> updates(4, std::vector<float>(n));
  for (auto& u : updates) {
    for (auto& v : u) v = rng.normal();
  }
  std::vector<float> global(n);
  for (auto _ : state) {
    vec::zero(global);
    for (const auto& u : updates) {
      vec::accumulate_weighted(global, 0.25f, u);
    }
    benchmark::DoNotOptimize(global.data());
  }
}
BENCHMARK(BM_WeightedAggregation);

// Rng::sample_without_replacement at the shapes the engine draws: one
// async refill and one 32-client cohort among 100k clients, a 1% draw
// among a million, the random mask of the MNIST CNN (|w| = 61,708, keep
// 0.1), the default bimodal-compute and straggler-network draws among
// 100k clients (20% and 10%), and k on either side of the sparse cut at
// 100k (n / 32 = 3125).
void BM_SampleWithoutReplacement(benchmark::State& state) {
  const auto n = static_cast<std::size_t>(state.range(0));
  const auto k = static_cast<std::size_t>(state.range(1));
  Rng rng(5);
  for (auto _ : state) {
    auto sample = rng.sample_without_replacement(n, k);
    benchmark::DoNotOptimize(sample.data());
  }
}
BENCHMARK(BM_SampleWithoutReplacement)
    ->Args({100000, 1})
    ->Args({100000, 32})
    ->Args({1000000, 10000})
    ->Args({61708, 6171})
    ->Args({100000, 20000})
    ->Args({100000, 10000})
    ->Args({100000, 3124})
    ->Args({100000, 3125});

}  // namespace

BENCHMARK_MAIN();
