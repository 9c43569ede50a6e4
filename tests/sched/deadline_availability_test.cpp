// Availability-aware deadline dispatch: both the remaining on-window
// (AvailabilityModel::online_until) and the predicted round-trip +
// compute time are known exactly at dispatch, so the deadline policy
// refuses to dispatch work that cannot arrive before the client churns
// off. The claim: under churn whose windows are short relative to the
// round-trip, no broadcast is spent on a flight that was lost from the
// start — broadcasts equal aggregated updates.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>

#include "algorithms/registry.h"
#include "fl/simulation.h"
#include "../fl/sim_util.h"

namespace fedtrip {
namespace {

/// Tight-window churn: every client repeats 10 s on / 10 s off (staggered
/// per client), while the 1 Mbps links put one round-trip (~5 s for the
/// tiny MLP's ~318 KB messages) at half a window — dispatches late in a
/// window are doomed.
fl::ExperimentConfig churny_config(const std::string& trace_path) {
  fl::ExperimentConfig cfg = fl::testing::tiny_config();
  cfg.rounds = 6;
  cfg.sched.policy = "deadline";
  cfg.comm.network.profile = comm::NetProfile::kUniform;
  cfg.comm.network.bandwidth_mbps = 1.0;
  cfg.comm.network.latency_ms = 50.0;
  cfg.clients.availability = "trace";
  cfg.clients.availability_trace = trace_path;
  return cfg;
}

std::string write_staggered_trace(std::size_t num_clients) {
  const std::string path = ::testing::TempDir() + "/staggered_windows.csv";
  std::ofstream out(path);
  out << "client,start_s,end_s\n";
  for (std::size_t c = 0; c < num_clients; ++c) {
    for (int k = 0; k < 300; ++k) {
      const double start = 20.0 * k + 2.0 * static_cast<double>(c);
      out << c << "," << start << "," << start + 10.0 << "\n";
    }
  }
  return path;
}

TEST(DeadlineAvailabilityTest, SkippingDoomedDispatchesWastesNoBroadcast) {
  const std::string trace = write_staggered_trace(5);
  algorithms::AlgoParams p;
  fl::Simulation sim(churny_config(trace),
                     algorithms::make_algorithm("FedTrip", p));
  const auto result = sim.run();
  std::remove(trace.c_str());

  // The scenario actually exercises churn.
  std::size_t unavailable = 0;
  for (const auto& r : result.history) unavailable += r.unavailable;
  EXPECT_GT(unavailable, 0u);
  // With exact predictions the skip catches every doomed dispatch: no
  // broadcast is ever wasted, so broadcasts == aggregated updates.
  EXPECT_EQ(result.comm_stats.messages_down, result.participation.total());
}

}  // namespace
}  // namespace fedtrip
