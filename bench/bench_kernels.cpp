// Micro-benchmarks (google-benchmark) for the hot kernels: GEMM, im2col
// convolution, the attaching operations whose 2|w| / 4|w| costs drive
// the paper's Table V/VIII accounting, and test-set evaluation.
#include <benchmark/benchmark.h>

#include <optional>
#include <string>

#include "algorithms/fedtrip.h"
#include "fl/simulation.h"
#include "nn/conv2d.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "optim/sgd.h"
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

// The GEMMs of the models' hot layers, with (m, k, n) as arguments.
void BM_GemmShape(benchmark::State& state, ops::GemmFn kernel) {
  const auto m = static_cast<std::int64_t>(state.range(0));
  const auto k = static_cast<std::int64_t>(state.range(1));
  const auto n = static_cast<std::int64_t>(state.range(2));
  Rng rng(9);
  std::vector<float> a(m * k), b(k * n), c(m * n);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  for (auto _ : state) {
    kernel(a.data(), b.data(), c.data(), m, k, n, 1.0f, 1.0f);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}

// The shapes of the models' hot layers: gemm and gemm_tn take the narrow
// path below 16 output columns and the register-blocked wide path from 16
// on. The CNN's convs per sample: conv1 forward (6x25x784), conv2 forward
// (16x150x100) and its input gradient (gemm_tn 150x16x100); the CNN's
// batched 1x1 conv3 at paper-cnn's batch 15 and the evaluation's 16
// (forward 120x400xB, input gradient gemm_tn 400x120xB); AlexNet's 4x4
// convs on 32x32 inputs (n = 16); the MLP's hidden-layer weight gradient
// (gemm_tn 100x32x784). n = 1, 4 and 8 time the narrow path at other
// batch sizes.
void gemm_shapes(benchmark::internal::Benchmark* b) {
  b->Args({120, 400, 1})
      ->Args({120, 400, 8})
      ->Args({120, 400, 15})
      ->Args({120, 400, 16})
      ->Args({96, 432, 16})
      ->Args({6, 25, 784})
      ->Args({16, 150, 100});
}
void gemm_tn_shapes(benchmark::internal::Benchmark* b) {
  b->Args({400, 120, 1})
      ->Args({400, 120, 4})
      ->Args({400, 120, 15})
      ->Args({400, 120, 16})
      ->Args({432, 96, 16})
      ->Args({150, 16, 100})
      ->Args({100, 32, 784});
}
// The weight gradients of the convs (m = out_c, k = out_hw, n = C*k*k)
// and the Linear forwards of the MLP (batch 32) and the CNN (batch 15).
void gemm_nt_shapes(benchmark::internal::Benchmark* b) {
  b->Args({6, 784, 25})
      ->Args({16, 100, 150})
      ->Args({120, 1, 400})
      ->Args({32, 784, 100})
      ->Args({15, 120, 84});
}
BENCHMARK_CAPTURE(BM_GemmShape, gemm, &ops::gemm)->Apply(gemm_shapes);
BENCHMARK_CAPTURE(BM_GemmShape, gemm_tn, &ops::gemm_tn)->Apply(gemm_tn_shapes);
BENCHMARK_CAPTURE(BM_GemmShape, gemm_nt, &ops::gemm_nt)->Apply(gemm_nt_shapes);

// The batched 1x1-conv weight gradient: conv3's 120x400 over a batch.
void BM_AddOuterIsa(benchmark::State& state, ops::OuterFn kernel) {
  const std::int64_t m = 120, n = 400;
  const auto k = static_cast<std::int64_t>(state.range(0));
  Rng rng(10);
  std::vector<float> a(k * m), b(k * n), c(m * n);
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();
  for (auto _ : state) {
    kernel(a.data(), b.data(), c.data(), m, k, n);
    benchmark::DoNotOptimize(c.data());
    benchmark::ClobberMemory();
  }
  state.SetItemsProcessed(state.iterations() * 2 * m * k * n);
}

// The same shapes once per instruction-set variant this CPU runs
// (BM_GemmShape/<isa>/<kernel>), so each variant's block shapes are
// measured where they run; BM_GemmShape/<kernel> times the variant ops::
// dispatches to.
const bool kIsaBenchmarks = [] {
  for (const ops::GemmKernels& v : ops::gemm_variants()) {
    if (!v.supported()) continue;
    const std::string isa = v.isa;
    benchmark::RegisterBenchmark(("BM_GemmShape/" + isa + "/gemm").c_str(),
                                 BM_GemmShape, v.gemm)
        ->Apply(gemm_shapes);
    benchmark::RegisterBenchmark(("BM_GemmShape/" + isa + "/gemm_tn").c_str(),
                                 BM_GemmShape, v.gemm_tn)
        ->Apply(gemm_tn_shapes);
    benchmark::RegisterBenchmark(("BM_GemmShape/" + isa + "/gemm_nt").c_str(),
                                 BM_GemmShape, v.gemm_nt)
        ->Apply(gemm_nt_shapes);
    benchmark::RegisterBenchmark(
        ("BM_AddOuterIsa/" + isa).c_str(), BM_AddOuterIsa,
        v.add_outer_products)
        ->Arg(15);
  }
  return true;
}();

// paper-cnn's convs at its batch size (15): conv2 (6 -> 16, 5x5 on 14x14)
// and conv3, whose 1x1 output runs one GEMM over the batch (16 -> 120,
// 5x5 on 5x5). Argument: 0 for conv2, 1 for conv3.
nn::Conv2d make_conv(std::int64_t which, Rng& rng, Tensor& x) {
  if (which == 0) {
    x = Tensor(Shape{15, 6, 14, 14});
  } else {
    x = Tensor(Shape{15, 16, 5, 5});
  }
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[static_cast<std::size_t>(i)] = rng.normal();
  }
  return which == 0 ? nn::Conv2d(6, 16, 5, 1, 0, rng)
                    : nn::Conv2d(16, 120, 5, 1, 0, rng);
}

void BM_Conv2dForward(benchmark::State& state) {
  Rng rng(2);
  Tensor x;
  nn::Conv2d conv = make_conv(state.range(0), rng, x);
  for (auto _ : state) {
    Tensor y = conv.forward(x, true);
    benchmark::DoNotOptimize(y.data());
  }
}
BENCHMARK(BM_Conv2dForward)->Arg(0)->Arg(1);

void BM_Conv2dBackward(benchmark::State& state) {
  Rng rng(3);
  Tensor x;
  nn::Conv2d conv = make_conv(state.range(0), rng, x);
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
BENCHMARK(BM_Conv2dBackward)->Arg(0)->Arg(1);

// im2col and col2im of one sample, as the convs run them per sample: the
// CNN's conv1 (1x28x28, 5x5, pad 2; arg 0) and conv2 (6x14x14, 5x5; arg 1).
struct ImageGeom {
  std::int64_t channels, hw, kernel, pad;
};

ImageGeom image_geom(std::int64_t which) {
  return which == 0 ? ImageGeom{1, 28, 5, 2} : ImageGeom{6, 14, 5, 0};
}

void BM_Im2col(benchmark::State& state) {
  const ImageGeom g = image_geom(state.range(0));
  const std::int64_t out = ops::conv_out_size(g.hw, g.kernel, 1, g.pad);
  Rng rng(4);
  std::vector<float> img(g.channels * g.hw * g.hw);
  std::vector<float> cols(g.channels * g.kernel * g.kernel * out * out);
  for (auto& v : img) v = rng.normal();
  for (auto _ : state) {
    ops::im2col(img.data(), g.channels, g.hw, g.hw, g.kernel, g.kernel, 1,
                g.pad, cols.data());
    benchmark::DoNotOptimize(cols.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Im2col)->Arg(0)->Arg(1);

void BM_Col2im(benchmark::State& state) {
  const ImageGeom g = image_geom(state.range(0));
  const std::int64_t out = ops::conv_out_size(g.hw, g.kernel, 1, g.pad);
  Rng rng(5);
  std::vector<float> img(g.channels * g.hw * g.hw);
  std::vector<float> cols(g.channels * g.kernel * g.kernel * out * out);
  for (auto& v : cols) v = rng.normal();
  for (auto _ : state) {
    ops::col2im(cols.data(), g.channels, g.hw, g.hw, g.kernel, g.kernel, 1,
                g.pad, img.data());
    benchmark::DoNotOptimize(img.data());
    benchmark::ClobberMemory();
  }
}
BENCHMARK(BM_Col2im)->Arg(0)->Arg(1);

// One local training step as the training loop runs it: forward,
// cross-entropy, zero_grad, backward_params and an SGD step. Arguments:
// architecture (0 = the CNN on MNIST at paper-cnn's batch 15, 1 = the MLP
// at the default batch 32) and batch size.
void BM_TrainStep(benchmark::State& state) {
  nn::ModelSpec spec;
  spec.arch = state.range(0) == 0 ? nn::Arch::kCNN : nn::Arch::kMLP;
  auto model = nn::build_model(spec, 11);
  const auto batch = static_cast<std::int64_t>(state.range(1));
  Rng rng(12);
  Tensor x(Shape{batch, 1, 28, 28});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[static_cast<std::size_t>(i)] = rng.uniform(0.0f, 1.0f);
  }
  std::vector<std::int64_t> labels(static_cast<std::size_t>(batch));
  for (auto& l : labels) l = static_cast<std::int64_t>(rng.uniform_int(10));
  nn::SoftmaxCrossEntropy ce;
  optim::SGD sgd(0.01f);
  for (auto _ : state) {
    Tensor logits = model->forward(x, true);
    benchmark::DoNotOptimize(ce.forward(logits, labels));
    model->zero_grad();
    model->backward_params(ce.backward());
    sgd.step(*model);
  }
  state.SetItemsProcessed(state.iterations() * batch);
}
BENCHMARK(BM_TrainStep)->Args({0, 15})->Args({1, 32});

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
