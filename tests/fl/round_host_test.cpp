// RoundHost::select pinned against the idle-vector construction it
// replaced: the ranks drawn among the idle clients index the ascending
// list of idle ids. The reference draws from the selection stream split
// from the Simulation's root as Simulation::run_reference splits it; the
// busy-free draw checks that it is the stream the host draws from.
#include "fl/round_host.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "algorithms/registry.h"
#include "fl/simulation.h"
#include "sim_util.h"

namespace fedtrip::fl {
namespace {

/// The parent implementation of the busy-mask draw, frozen.
std::vector<std::size_t> idle_vector_select(Rng& rng, std::size_t count,
                                            const std::vector<bool>& busy) {
  std::vector<std::size_t> available;
  for (std::size_t k = 0; k < busy.size(); ++k) {
    if (!busy[k]) available.push_back(k);
  }
  count = std::min(count, available.size());
  std::vector<std::size_t> selected;
  for (std::size_t i :
       rng.sample_without_replacement(available.size(), count)) {
    selected.push_back(available[i]);
  }
  std::sort(selected.begin(), selected.end());
  return selected;
}

TEST(RoundHostSelectTest, MatchesTheIdleVectorConstruction) {
  for (const std::size_t n : {1, 2, 37, 1000, 4096}) {
    SCOPED_TRACE("clients=" + std::to_string(n));
    auto cfg = testing::tiny_config();
    cfg.client_data = "virtual";
    cfg.shard_samples = 4;
    cfg.num_clients = n;
    cfg.clients_per_round = 1;
    Simulation sim(cfg, algorithms::make_algorithm("FedAvg", {}));
    RunResult result;
    RoundHost host(sim, result);
    Rng reference = Rng(cfg.seed ^ 0xF37D7431Full).split(0x5E1EC7);

    const std::size_t first = std::min<std::size_t>(3, n);
    auto want = reference.sample_without_replacement(n, first);
    std::sort(want.begin(), want.end());
    ASSERT_EQ(host.select(first, nullptr), want);

    std::vector<std::vector<bool>> masks;
    masks.emplace_back(n, false);  // nobody busy
    masks.emplace_back(n, true);   // everybody busy
    masks.emplace_back(n, false);  // the first and the last id busy
    masks.back().front() = true;
    masks.back().back() = true;
    Rng mask_rng(n);
    for (const double density : {0.01, 0.3, 0.7, 0.99}) {
      std::vector<bool> busy(n);
      for (std::size_t k = 0; k < n; ++k) busy[k] = mask_rng.uniform() < density;
      masks.push_back(std::move(busy));
    }
    for (std::size_t m = 0; m < masks.size(); ++m) {
      for (const std::size_t count : {std::size_t{0}, std::size_t{1},
                                      std::size_t{5}, n / 2, n}) {
        SCOPED_TRACE("mask " + std::to_string(m) +
                     " count=" + std::to_string(count));
        EXPECT_EQ(host.select(count, &masks[m]),
                  idle_vector_select(reference, count, masks[m]));
      }
    }
  }
}

}  // namespace
}  // namespace fedtrip::fl
