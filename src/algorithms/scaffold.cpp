#include "algorithms/scaffold.h"

#include <cassert>

namespace fedtrip::algorithms {

double Scaffold::adjust_gradients(std::vector<float>& delta,
                                  const std::vector<float>& w,
                                  const fl::ClientContext& ctx) {
  (void)w;
  const auto& ck = c_clients_[ctx.client_id];
  const std::size_t n = delta.size();
  for (std::size_t i = 0; i < n; ++i) delta[i] = c_server_[i] - ck[i];
  return 2.0 * static_cast<double>(n);
}

void Scaffold::on_round_end(const std::vector<float>& final_params,
                            std::size_t steps, fl::ClientContext& ctx,
                            fl::ClientUpdate& update) {
  if (steps == 0) return;
  auto& ck = c_clients_[ctx.client_id];
  const std::vector<float>& wg = *ctx.global_params;
  const std::size_t n = ck.size();
  const float inv = 1.0f / (static_cast<float>(steps) * client_lr_);

  update.aux.resize(n);  // Delta c upload
  update.extra_upload_floats = n;
  for (std::size_t i = 0; i < n; ++i) {
    // Option II: c_k+ = c_k - c + (w_global - w_k)/(K lr)
    const float ck_new =
        ck[i] - c_server_[i] + (wg[i] - final_params[i]) * inv;
    update.aux[i] = ck_new - ck[i];
    ck[i] = ck_new;
  }
}

void Scaffold::aggregate(std::vector<float>& global,
                         const std::vector<fl::ClientUpdate>& updates,
                         std::size_t round) {
  FederatedAlgorithm::aggregate(global, updates, round);
  // c <- c + (|S|/N) * avg(Delta c)
  assert(!updates.empty());
  const float scale = 1.0f / static_cast<float>(num_clients_);
  const std::size_t n = c_server_.size();
  for (const auto& u : updates) {
    assert(u.aux.size() == n);
    for (std::size_t i = 0; i < n; ++i) c_server_[i] += scale * u.aux[i];
  }
  (void)round;
}

}  // namespace fedtrip::algorithms
