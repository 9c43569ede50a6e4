#include "algorithms/feddyn.h"

#include <cassert>

namespace fedtrip::algorithms {

double FedDyn::adjust_gradients(std::vector<float>& delta,
                                const std::vector<float>& w,
                                const fl::ClientContext& ctx) {
  const std::vector<float>& wg = *ctx.global_params;
  const std::vector<float>& gk = grad_memory_[ctx.client_id];
  const std::size_t n = w.size();
  for (std::size_t i = 0; i < n; ++i) {
    delta[i] = -gk[i] + alpha_ * (w[i] - wg[i]);
  }
  return 4.0 * static_cast<double>(n);
}

void FedDyn::on_round_end(const std::vector<float>& final_params,
                          std::size_t /*steps*/, fl::ClientContext& ctx,
                          fl::ClientUpdate& /*update*/) {
  // g_k <- g_k - alpha (w_k - w_global). Safe under parallel clients: each
  // client touches only its own slot.
  auto& gk = grad_memory_[ctx.client_id];
  const std::vector<float>& wg = *ctx.global_params;
  const std::size_t n = gk.size();
  for (std::size_t i = 0; i < n; ++i) {
    gk[i] -= alpha_ * (final_params[i] - wg[i]);
  }
}

void FedDyn::aggregate(std::vector<float>& global,
                       const std::vector<fl::ClientUpdate>& updates,
                       std::size_t round) {
  assert(!updates.empty());
  const std::size_t n = global.size();
  // h <- h - (alpha/N) sum_k (w_k - w_global)
  const float scale = alpha_ / static_cast<float>(num_clients_);
  for (const auto& u : updates) {
    for (std::size_t i = 0; i < n; ++i) {
      h_[i] -= scale * (u.params[i] - global[i]);
    }
  }
  // w <- avg(w_k) - h/alpha
  FederatedAlgorithm::aggregate(global, updates, round);
  const float inv_alpha = 1.0f / alpha_;
  for (std::size_t i = 0; i < n; ++i) global[i] -= h_[i] * inv_alpha;
}

}  // namespace fedtrip::algorithms
