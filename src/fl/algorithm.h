// FederatedAlgorithm: the strategy interface every FL method implements.
//
// The engine (Simulation) drives the FedAvg-shaped outer loop — client
// sampling, broadcast, parallel local training, aggregation — and delegates
// the method-specific pieces to this interface:
//   * train_client(): the local objective / update rule (Algorithm 1, lines
//     5-9 for FedTrip; analogous loops for the baselines);
//   * aggregate(): server-side model combination (weighted average by
//     default; SlowMo/FedDyn/SCAFFOLD override to apply server state);
//   * pre_round(): optional extra communication phase (FedDANE's gradient
//     averaging).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "data/dataloader.h"
#include "fl/history.h"
#include "fl/types.h"
#include "fl/workspace.h"
#include "optim/optimizer.h"
#include "tensor/rng.h"

namespace fedtrip::fl {

/// Everything a client needs for one round of local training.
struct ClientContext {
  std::size_t round = 0;  // t, 1-based
  std::size_t client_id = 0;
  const data::DataLoader* loader = nullptr;
  const std::vector<float>* global_params = nullptr;
  const HistoryEntry* history = nullptr;  // nullptr before first participation
  Workspace* workspace = nullptr;  // train_client only
  std::size_t local_epochs = 1;
  /// Deterministic per-(trial, round, client) stream.
  Rng rng;
};

/// Normalised aggregation weights over a round's updates: the paper's Eq 2
/// sample-count weighting, scaled by each update's scheduler-applied
/// `weight_scale` (async staleness discount). When every scale is exactly 1
/// this reduces bit-for-bit to the legacy n_i / sum(n) float division.
std::vector<float> aggregation_weights(const std::vector<ClientUpdate>& updates);

class FederatedAlgorithm {
 public:
  virtual ~FederatedAlgorithm() = default;

  virtual std::string name() const = 0;

  /// Called once before round 1. `param_dim` is |w|.
  virtual void initialize(std::size_t num_clients, std::size_t param_dim) {
    (void)num_clients;
    (void)param_dim;
  }

  /// Optional extra phase before local training (FedDANE). Contexts cover
  /// the selected clients; implementations may run forward/backward passes
  /// in workspaces checked out of `workspaces` (one per task, returned when
  /// the task ends) and must record their FLOPs via the returned value
  /// (FLOPs per client, summed by the engine into the round cost).
  virtual double pre_round(std::vector<ClientContext>& contexts,
                           WorkspacePool& workspaces) {
    (void)contexts;
    (void)workspaces;
    return 0.0;
  }

  /// Local training of one client in ctx.workspace, which it must start
  /// from ctx.global_params with a reset optimizer. Must be thread-safe
  /// across distinct clients (per-client algorithm state only).
  virtual ClientUpdate train_client(ClientContext& ctx) = 0;

  /// Server aggregation: combines updates into `global`. Default: Eq 2,
  /// weighted average by sample count.
  virtual void aggregate(std::vector<float>& global,
                         const std::vector<ClientUpdate>& updates,
                         std::size_t round);

  /// The optimizer family this method uses locally (paper §V-A: SGDm by
  /// default, plain SGD for SlowMo / FedDyn / SCAFFOLD).
  virtual optim::OptKind optimizer_kind() const {
    return optim::OptKind::kSGDMomentum;
  }

  /// Extra per-round downlink floats per client beyond |w| (SCAFFOLD: |w|
  /// for the server control variate; FedDANE: |w| for the averaged
  /// gradient).
  virtual std::size_t extra_downlink_floats(std::size_t param_dim) const {
    (void)param_dim;
    return 0;
  }

  /// Extra per-round uplink floats per client beyond |w| (SCAFFOLD: |w|
  /// for the control delta; FedDANE: |w| for the local gradient). Must
  /// match what train_client sets in ClientUpdate::extra_upload_floats —
  /// schedulers predict arrival times from it before training runs.
  virtual std::size_t extra_uplink_floats(std::size_t param_dim) const {
    (void)param_dim;
    return 0;
  }

  /// True when train_client reads ClientContext::history (FedTrip's ~w_k,
  /// MOON's historical representation model). When false the engine skips
  /// storing per-client history entirely — at a million clients the store
  /// would otherwise hold O(participants x |w|) floats for nothing.
  virtual bool uses_history() const { return true; }

  /// True when train_client is a pure function of its ClientContext (plus
  /// immutable hyperparameters): no reads of mutable algorithm state that
  /// aggregate(), pre_round() or other clients' rounds update. Such a
  /// dispatch can execute in a separate worker process given only (config,
  /// dispatch, history) — the distributed-runner contract (src/net/,
  /// docs/TRANSPORT.md). SCAFFOLD and FedDyn (per-client control/gradient
  /// state mutated on the train path and read next round) and FedDANE
  /// (cohort-coupled pre_round gradient averaging) override this to false
  /// and must train in-process.
  virtual bool remote_trainable() const { return true; }
};

using AlgorithmPtr = std::unique_ptr<FederatedAlgorithm>;

}  // namespace fedtrip::fl
