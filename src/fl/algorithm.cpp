#include "fl/algorithm.h"

#include <cassert>

#include "tensor/vec_math.h"

namespace fedtrip::fl {

std::vector<float> aggregation_weights(
    const std::vector<ClientUpdate>& updates) {
  assert(!updates.empty());
  std::vector<float> rho(updates.size(), 0.0f);
  bool plain = true;
  for (const auto& u : updates) plain = plain && u.weight_scale == 1.0f;
  if (plain) {
    // Exact legacy path (Eq 2): float division of integer sample counts, so
    // sync-scheduled runs stay bit-identical to the pre-scheduler loop.
    std::size_t total_samples = 0;
    for (const auto& u : updates) total_samples += u.num_samples;
    assert(total_samples > 0);
    for (std::size_t i = 0; i < updates.size(); ++i) {
      rho[i] = static_cast<float>(updates[i].num_samples) /
               static_cast<float>(total_samples);
    }
  } else {
    // Staleness-discounted weights, normalised: rho_i ∝ n_i / (1+s_i)^a.
    double total = 0.0;
    for (const auto& u : updates) {
      total += static_cast<double>(u.num_samples) *
               static_cast<double>(u.weight_scale);
    }
    assert(total > 0.0);
    for (std::size_t i = 0; i < updates.size(); ++i) {
      rho[i] = static_cast<float>(
          static_cast<double>(updates[i].num_samples) *
          static_cast<double>(updates[i].weight_scale) / total);
    }
  }
  return rho;
}

void FederatedAlgorithm::aggregate(std::vector<float>& global,
                                   const std::vector<ClientUpdate>& updates,
                                   std::size_t /*round*/) {
  const auto rho = aggregation_weights(updates);
  vec::zero(global);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    vec::accumulate_weighted(global, rho[i], updates[i].params);
  }
}

}  // namespace fedtrip::fl
