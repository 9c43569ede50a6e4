// FedDANE (Li et al., ACSSC 2019): federated Newton-type method.
//
// Two-phase round:
//  1. pre_round: every selected client computes its full-batch local
//     gradient at w_global; the server averages them into g_t.
//  2. local training minimises the DANE surrogate
//       F_k(w) + <g_t - dF_k(w_global), w> + (mu/2)||w - w_global||^2
//     i.e. attaching gradient  g_t - dF_k(w_global) + mu (w - w_global).
// Extra communication: gradient up + averaged gradient down (2|w|).
// The paper cites FedDANE as a regularization relative that "consistently
// underperforms FedProx" — included here as a related-work comparator.
#pragma once

#include <vector>

#include "algorithms/gradient_adjusting.h"

namespace fedtrip::algorithms {

class FedDane : public GradientAdjustingAlgorithm {
 public:
  explicit FedDane(float mu) : mu_(mu) {}

  std::string name() const override { return "FedDANE"; }
  bool uses_history() const override { return false; }

  void initialize(std::size_t num_clients, std::size_t param_dim) override {
    local_grads_.assign(num_clients, {});
    avg_grad_.assign(param_dim, 0.0f);
  }

  double pre_round(std::vector<fl::ClientContext>& contexts,
                   fl::WorkspacePool& workspaces) override;

  std::size_t extra_downlink_floats(std::size_t param_dim) const override {
    return param_dim;  // averaged gradient broadcast
  }

  std::size_t extra_uplink_floats(std::size_t param_dim) const override {
    return param_dim;  // local gradient upload (see on_round_end)
  }

  /// pre_round averages gradients over the whole cohort — sharding the
  /// batch across workers would average over shards instead.
  bool remote_trainable() const override { return false; }

 protected:
  double adjust_gradients(std::vector<float>& delta,
                          const std::vector<float>& w,
                          const fl::ClientContext& ctx) override;
  void on_round_end(const std::vector<float>& final_params, std::size_t steps,
                    fl::ClientContext& ctx, fl::ClientUpdate& update) override {
    (void)final_params;
    (void)steps;
    (void)ctx;
    update.extra_upload_floats = avg_grad_.size();  // gradient upload
  }

 private:
  float mu_;
  std::vector<std::vector<float>> local_grads_;  // dF_k(w_global) per client
  std::vector<float> avg_grad_;                  // g_t
};

}  // namespace fedtrip::algorithms
