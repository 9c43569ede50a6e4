// Harness for unit-testing FederatedAlgorithm implementations without a
// full Simulation: tiny clients (a loader each), hand-built contexts.
#pragma once

#include <memory>
#include <vector>

#include "data/dataloader.h"
#include "data/dataset.h"
#include "fl/algorithm.h"
#include "fl/workspace.h"
#include "nn/models.h"
#include "nn/parameter_vector.h"
#include "tensor/rng.h"

namespace fedtrip::algorithms::testing {

inline nn::ModelSpec unit_spec() {
  nn::ModelSpec spec;
  spec.arch = nn::Arch::kMLP;
  spec.channels = 1;
  spec.height = 4;
  spec.width = 4;
  spec.classes = 4;
  return spec;
}

struct AlgoHarness {
  nn::ModelSpec spec = unit_spec();
  data::Dataset dataset;
  std::vector<data::DataLoader> loaders;
  fl::WorkspacePool workspaces;
  /// The workspace every context trains in: train_client starts from
  /// global_params with a reset optimizer, so one is enough.
  fl::WorkspacePool::Lease workspace;
  std::vector<float> global_params;
  fl::HistoryStore history{4};

  explicit AlgoHarness(std::size_t num_clients = 2,
                       std::size_t samples_per_client = 12,
                       std::uint64_t seed = 77)
      : dataset("unit", 4, 1, 4, 4),
        workspaces(nn::make_model_factory(spec, seed),
                   optim::OptKind::kSGDMomentum, 0.05f, 0.9f),
        workspace(workspaces.checkout()) {
    Rng rng(seed);
    const std::size_t total = num_clients * samples_per_client;
    for (std::size_t i = 0; i < total; ++i) {
      std::vector<float> pixels(16);
      const auto label = static_cast<std::int64_t>(i % 4);
      for (std::size_t p = 0; p < 16; ++p) {
        pixels[p] = static_cast<float>(label) * 0.5f + 0.3f * rng.normal();
      }
      dataset.add_sample(pixels, label);
    }
    for (std::size_t k = 0; k < num_clients; ++k) {
      std::vector<std::size_t> idx;
      for (std::size_t i = 0; i < samples_per_client; ++i) {
        idx.push_back(k * samples_per_client + i);
      }
      loaders.emplace_back(dataset, std::move(idx), /*batch_size=*/6);
    }
    global_params = nn::flatten_parameters(workspace->model());
  }

  fl::ClientContext context(std::size_t client_id, std::size_t round,
                            std::uint64_t rng_key = 1) {
    fl::ClientContext ctx;
    ctx.round = round;
    ctx.client_id = client_id;
    ctx.loader = &loaders[client_id];
    ctx.global_params = &global_params;
    ctx.history = history.get(client_id);
    ctx.workspace = &*workspace;
    ctx.local_epochs = 1;
    ctx.rng = Rng(rng_key * 1000 + round * 10 + client_id);
    return ctx;
  }

  std::size_t param_dim() const { return global_params.size(); }
};

}  // namespace fedtrip::algorithms::testing
