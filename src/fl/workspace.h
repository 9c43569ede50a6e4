// Workspace: the model state one task runs on — a model, its optimizer and
// MOON's frozen representation models. Clients own data, not models: every
// local round of Algorithm 1 restarts from the broadcast global model, so
// the engine needs one workspace per task running at once (a train_client
// call, FedDANE's per-client pre-round, an evaluation range), never one per
// client or per dispatch. WorkspacePool::checkout() hands out a free one or
// builds one, restoring every Dropout stream to its seed; every task loads
// its parameters first, so which workspace it gets never changes a bit.
#pragma once

#include <array>
#include <memory>
#include <mutex>
#include <utility>
#include <vector>

#include "nn/models.h"
#include "optim/optimizer.h"

namespace fedtrip::fl {

class Workspace {
 public:
  nn::Sequential& model() { return *model_; }
  optim::Optimizer& optimizer() { return *optimizer_; }

  /// MOON's frozen representation models (slot 0: global, 1: historical),
  /// built on first use and kept with the workspace.
  nn::Sequential& aux_model(std::size_t slot) {
    auto& aux = aux_models_.at(slot);
    if (!aux) aux = factory_();
    return *aux;
  }

 private:
  friend class WorkspacePool;
  Workspace(const nn::ModelFactory& factory, optim::OptimizerPtr optimizer)
      : factory_(factory),
        model_(factory()),
        optimizer_(std::move(optimizer)) {}

  const nn::ModelFactory& factory_;
  std::unique_ptr<nn::Sequential> model_;
  optim::OptimizerPtr optimizer_;
  std::array<std::unique_ptr<nn::Sequential>, 2> aux_models_;
};

class WorkspacePool {
 public:
  /// Workspaces build their models with `factory` and their optimizers as
  /// make_optimizer(kind, lr, momentum).
  WorkspacePool(nn::ModelFactory factory, optim::OptKind kind, float lr,
                float momentum)
      : factory_(std::move(factory)),
        kind_(kind),
        lr_(lr),
        momentum_(momentum) {}
  // Workspaces and leases hold the pool's address.
  WorkspacePool(const WorkspacePool&) = delete;
  WorkspacePool& operator=(const WorkspacePool&) = delete;

  struct Return {
    WorkspacePool* pool;
    void operator()(Workspace* ws) const;
  };
  /// A checked-out workspace; destroying the lease returns it to the pool.
  using Lease = std::unique_ptr<Workspace, Return>;

  /// Thread-safe.
  Lease checkout();

  /// Workspaces built so far: the peak number checked out at once.
  std::size_t size() const;

 private:
  const nn::ModelFactory factory_;
  const optim::OptKind kind_;
  const float lr_, momentum_;
  mutable std::mutex mutex_;
  std::vector<std::unique_ptr<Workspace>> workspaces_;  // guarded by mutex_
  std::vector<Workspace*> free_;                        // guarded by mutex_
};

}  // namespace fedtrip::fl
