// The acceptance gate of the distributed runner: a socket-backed run —
// training fanned out to worker processes' WorkerServer loops over real
// sockets, every dispatch and update crossing the wire — must be
// bit-identical to the in-process engine. Same full CSV (every column,
// clock included), same final parameters, same byte accounting; for all
// four scheduling policies, with compression + error feedback + delta +
// churn + a compute model enabled at once. The workers here run in
// threads over loopback TCP, each one a separate Simulation rebuilt from
// the wire-shipped config — exactly what a separate process does (the CI
// smoke covers the fork/exec path); nothing in-process is shared with the
// coordinator's engine.
#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <optional>
#include <sstream>
#include <string>
#include <thread>

#include "algorithms/registry.h"
#include "fl/checkpoint.h"
#include "fl/round_host.h"
#include "fl/simulation.h"
#include "net/net_host.h"
#include "net/pool.h"
#include "net/socket.h"
#include "net/worker.h"
#include "../fl/sim_util.h"

namespace fedtrip {
namespace {

/// The everything-on configuration the equivalence claim is made for:
/// error-feedback top-k uplink with delta framing, qsgd downlink, a
/// straggler network, bimodal compute speeds, Markov churn.
fl::ExperimentConfig loaded_config() {
  fl::ExperimentConfig cfg = fl::testing::tiny_config();
  cfg.rounds = 4;
  cfg.comm.uplink = "ef+topk";
  cfg.comm.downlink = "qsgd8";
  cfg.comm.params.topk_fraction = 0.1f;
  cfg.comm.delta_uplink = true;
  cfg.comm.network.profile = comm::NetProfile::kStraggler;
  cfg.clients.compute_profile = "bimodal";
  cfg.clients.availability = "markov";
  cfg.clients.markov_mean_on_s = 40.0;
  cfg.clients.markov_mean_off_s = 15.0;
  return cfg;
}

fl::RunResult run_in_process(const fl::ExperimentConfig& cfg) {
  algorithms::AlgoParams p;
  fl::Simulation sim(cfg, algorithms::make_algorithm("FedTrip", p));
  return sim.run();
}

/// `traffic` (optional) receives the NetHost's socket accounting.
fl::RunResult run_distributed(const fl::ExperimentConfig& cfg,
                              std::size_t num_workers,
                              net::NetHost::Traffic* traffic = nullptr) {
  net::Listener listener(0);
  const std::uint16_t port = listener.port();

  // Each worker thread is a full WorkerServer session over its own TCP
  // connection — its world is rebuilt from the Setup message alone.
  std::vector<std::thread> workers;
  workers.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    workers.emplace_back([port]() {
      net::Socket conn = net::connect_to("127.0.0.1", port);
      net::WorkerServer server;
      server.serve(std::move(conn));
    });
  }
  std::vector<net::Socket> conns;
  conns.reserve(num_workers);
  for (std::size_t i = 0; i < num_workers; ++i) {
    conns.push_back(listener.accept());
  }

  algorithms::AlgoParams p;
  fl::Simulation sim(cfg, algorithms::make_algorithm("FedTrip", p));
  net::SetupMsg setup;
  setup.method = "FedTrip";
  setup.algo = p;
  setup.config = cfg;
  auto pool =
      net::WorkerPool::handshake(std::move(conns), setup, sim.param_dim());

  std::optional<net::NetHost> host;
  auto result = sim.run_with_host([&](fl::RoundHost& inner) -> sched::Host& {
    host.emplace(inner, pool);
    return *host;
  });
  if (traffic != nullptr) *traffic = host->traffic();
  pool.shutdown();
  for (auto& w : workers) w.join();
  return result;
}

std::string csv_of(const fl::RunResult& result, const char* tag) {
  const std::string path =
      ::testing::TempDir() + "/net_eq_" + tag + ".csv";
  fl::save_history_csv(path, result.history);
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  return ss.str();
}

void expect_bit_identical(const fl::ExperimentConfig& cfg,
                          const std::string& label) {
  const auto local = run_in_process(cfg);
  const auto remote = run_distributed(cfg, 2);
  EXPECT_EQ(local.final_params, remote.final_params) << label;
  EXPECT_EQ(csv_of(local, "local"), csv_of(remote, "remote")) << label;
  EXPECT_EQ(local.comm_stats.bytes_down, remote.comm_stats.bytes_down)
      << label;
  EXPECT_EQ(local.comm_stats.bytes_up, remote.comm_stats.bytes_up) << label;
  EXPECT_EQ(local.comm_stats.messages_down, remote.comm_stats.messages_down)
      << label;
  EXPECT_EQ(local.comm_stats.messages_up, remote.comm_stats.messages_up)
      << label;
  EXPECT_EQ(local.comm_seconds, remote.comm_seconds) << label;
  EXPECT_EQ(local.participation, remote.participation) << label;
}

TEST(NetEquivalenceTest, SyncBitIdentical) {
  fl::ExperimentConfig cfg = loaded_config();
  cfg.sched.policy = "sync";
  expect_bit_identical(cfg, "sync");
}

TEST(NetEquivalenceTest, FastKBitIdentical) {
  fl::ExperimentConfig cfg = loaded_config();
  cfg.sched.policy = "fastk";
  expect_bit_identical(cfg, "fastk");
}

TEST(NetEquivalenceTest, AsyncBitIdentical) {
  fl::ExperimentConfig cfg = loaded_config();
  cfg.sched.policy = "async";
  cfg.sched.buffer_size = 2;
  expect_bit_identical(cfg, "async");
}

TEST(NetEquivalenceTest, DeadlineBitIdentical) {
  fl::ExperimentConfig cfg = loaded_config();
  cfg.sched.policy = "deadline";
  expect_bit_identical(cfg, "deadline");
}

TEST(NetEquivalenceTest, WireCodecStaysBitIdentical) {
  // The Setup-negotiated wire codec compresses socket traffic with a
  // verify-and-fallback envelope — by construction it may shrink frames
  // but never change a float. Every policy-visible output must match the
  // in-process run exactly, with a sparsifying codec on the wire.
  fl::ExperimentConfig cfg = loaded_config();
  cfg.sched.policy = "sync";
  cfg.net.wire_codec = "topk";
  expect_bit_identical(cfg, "sync/wire-codec=topk");
}

TEST(NetEquivalenceTest, LossyWireCodecStaysBitIdentical) {
  // qsgd reconstruction is almost never bit-exact, so the verify step
  // must keep every vector raw — the run still matches in-process.
  fl::ExperimentConfig cfg = loaded_config();
  cfg.sched.policy = "deadline";
  cfg.net.wire_codec = "qsgd4";
  expect_bit_identical(cfg, "deadline/wire-codec=qsgd4");
}

TEST(NetEquivalenceTest, FailFastPoolShipsEachWorkerShareInOneFrame) {
  // The fail-fast wire contract: one dispatch frame per worker per train
  // call, carrying the broadcast snapshot once plus a history vector for
  // every client already uplinked (from round 2 on, all of them). Each
  // float vector is an 8-byte count plus 4-byte floats.
  fl::ExperimentConfig cfg = fl::testing::tiny_config();
  cfg.num_clients = 4;
  cfg.clients_per_round = 4;
  cfg.rounds = 3;
  cfg.sched.policy = "sync";
  const auto local = run_in_process(cfg);
  net::NetHost::Traffic traffic;
  const auto remote = run_distributed(cfg, 2, &traffic);
  EXPECT_EQ(local.final_params, remote.final_params);

  const std::uint64_t R = cfg.rounds;
  const std::uint64_t K = cfg.num_clients;
  const std::uint64_t vec_bytes = 8 + 4 * local.final_params.size();
  EXPECT_EQ(traffic.dispatch_frames, 2 * R);
  EXPECT_EQ(traffic.down.raw_bytes, (2 * R + K * (R - 1)) * vec_bytes);
  EXPECT_EQ(traffic.replayed + traffic.stolen + traffic.evicted_workers +
                traffic.heartbeats,
            0u);
}

TEST(NetEquivalenceTest, OneWorkerAndManyWorkersAgree) {
  // Sharding is a pure partition: 1-, 2- and 3-worker pools must all
  // produce the in-process result.
  fl::ExperimentConfig cfg = loaded_config();
  cfg.sched.policy = "fastk";
  const auto local = run_in_process(cfg);
  for (std::size_t n : {1, 3}) {
    const auto remote = run_distributed(cfg, n);
    EXPECT_EQ(local.final_params, remote.final_params) << n << " workers";
  }
}

}  // namespace
}  // namespace fedtrip
