// The acceptance gate of virtual shards: a run that synthesizes each
// client's dataset at dispatch time and releases it after training
// (client_data = "virtual") must be bit-identical to the reference run
// that materializes every shard up front (client_data = "shard") — full
// CSV (every column, clock included), final parameters, byte accounting
// and the participation tally — for all four scheduling policies, with
// error-feedback top-k + delta uplink, qsgd downlink, a straggler
// network, bimodal compute and Markov churn enabled at once, in-process
// AND with training fanned out to a 2-worker socket pool. ~100 clients so
// the sparse state maps are genuinely exercised and a round trains more
// dispatches than there are threads (workspaces are reused within one
// train call). An AlexNet config with dropout pins that a reused workspace
// draws the same dropout masks as a freshly built model, for any thread
// count.
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

/// The everything-on configuration the equivalence claim is made for.
fl::ExperimentConfig loaded_config() {
  fl::ExperimentConfig cfg = fl::testing::tiny_config();
  cfg.num_clients = 100;
  cfg.clients_per_round = 8;
  cfg.rounds = 4;
  cfg.shard_samples = 16;
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

/// AlexNet with dropout on the CIFAR-10 analogue: all 4 clients train in
/// both rounds, so every client trains twice, and a Dropout stream that
/// carried over from a client's (or a workspace's) earlier dispatch would
/// change its masks.
fl::ExperimentConfig dropout_config() {
  fl::ExperimentConfig cfg = fl::testing::tiny_config();
  cfg.dataset = "cifar10";
  cfg.model.arch = nn::Arch::kAlexNet;
  cfg.model.channels = 3;
  cfg.model.height = 32;
  cfg.model.width = 32;
  cfg.model.width_mult = 0.25;
  cfg.model.dropout = 0.5f;
  cfg.num_clients = 4;
  cfg.clients_per_round = 4;
  cfg.rounds = 2;
  cfg.shard_samples = 4;
  cfg.batch_size = 2;
  cfg.eval_max_samples = 16;
  return cfg;
}

fl::RunResult run_in_process(fl::ExperimentConfig cfg,
                             const std::string& client_data,
                             const std::string& method = "FedTrip") {
  cfg.client_data = client_data;
  algorithms::AlgoParams p;
  fl::Simulation sim(cfg, algorithms::make_algorithm(method, p));
  return sim.run();
}

fl::RunResult run_distributed(fl::ExperimentConfig cfg,
                              const std::string& client_data,
                              std::size_t num_workers,
                              const std::string& method = "FedTrip") {
  cfg.client_data = client_data;
  net::Listener listener(0);
  const std::uint16_t port = listener.port();

  // Each worker thread is a full WorkerServer session over its own TCP
  // connection — it rebuilds the virtual-shard world from the Setup
  // message alone and synthesizes shards on its own side of the wire.
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
  fl::Simulation sim(cfg, algorithms::make_algorithm(method, p));
  net::SetupMsg setup;
  setup.method = method;
  setup.algo = p;
  setup.config = cfg;
  auto pool =
      net::WorkerPool::handshake(std::move(conns), setup, sim.param_dim());

  std::optional<net::NetHost> host;
  auto result = sim.run_with_host([&](fl::RoundHost& inner) -> sched::Host& {
    host.emplace(inner, pool);
    return *host;
  });
  pool.shutdown();
  for (auto& w : workers) w.join();
  return result;
}

std::string csv_of(const fl::RunResult& result, const char* tag) {
  const std::string path =
      ::testing::TempDir() + "/vshard_eq_" + tag + ".csv";
  fl::save_history_csv(path, result.history);
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  return ss.str();
}

void expect_equal_runs(const fl::RunResult& ref, const fl::RunResult& got,
                       const std::string& label) {
  EXPECT_EQ(ref.final_params, got.final_params) << label;
  EXPECT_EQ(csv_of(ref, "ref"), csv_of(got, "got")) << label;
  EXPECT_EQ(ref.comm_stats.bytes_down, got.comm_stats.bytes_down) << label;
  EXPECT_EQ(ref.comm_stats.bytes_up, got.comm_stats.bytes_up) << label;
  EXPECT_EQ(ref.comm_stats.messages_down, got.comm_stats.messages_down)
      << label;
  EXPECT_EQ(ref.comm_stats.messages_up, got.comm_stats.messages_up) << label;
  EXPECT_EQ(ref.comm_seconds, got.comm_seconds) << label;
  EXPECT_EQ(ref.participation, got.participation) << label;
}

void expect_virtual_matches_materialized(const fl::ExperimentConfig& cfg,
                                         const std::string& label,
                                         const std::string& method =
                                             "FedTrip") {
  const auto materialized = run_in_process(cfg, "shard", method);
  const auto virt = run_in_process(cfg, "virtual", method);
  expect_equal_runs(materialized, virt, label + "/in-process");
  const auto virt_remote = run_distributed(cfg, "virtual", 2, method);
  expect_equal_runs(materialized, virt_remote, label + "/socket-pool");
}

TEST(VirtualShardEquivalenceTest, SyncBitIdentical) {
  fl::ExperimentConfig cfg = loaded_config();
  cfg.sched.policy = "sync";
  expect_virtual_matches_materialized(cfg, "sync");
}

TEST(VirtualShardEquivalenceTest, FastKBitIdentical) {
  fl::ExperimentConfig cfg = loaded_config();
  cfg.sched.policy = "fastk";
  expect_virtual_matches_materialized(cfg, "fastk");
}

TEST(VirtualShardEquivalenceTest, AsyncBitIdentical) {
  fl::ExperimentConfig cfg = loaded_config();
  cfg.sched.policy = "async";
  cfg.sched.buffer_size = 2;
  expect_virtual_matches_materialized(cfg, "async");
}

TEST(VirtualShardEquivalenceTest, DeadlineBitIdentical) {
  fl::ExperimentConfig cfg = loaded_config();
  cfg.sched.policy = "deadline";
  expect_virtual_matches_materialized(cfg, "deadline");
}

TEST(VirtualShardEquivalenceTest, DropoutFedTripBitIdentical) {
  expect_virtual_matches_materialized(dropout_config(), "dropout/FedTrip");
}

TEST(VirtualShardEquivalenceTest, DropoutMoonBitIdentical) {
  expect_virtual_matches_materialized(dropout_config(), "dropout/MOON",
                                      "MOON");
}

TEST(VirtualShardEquivalenceTest, DropoutThreadCountIsTransparent) {
  // Which workspace, and how many, a round's tasks get depends on the
  // thread count; the dropout masks, and so every bit, must not.
  fl::ExperimentConfig cfg = dropout_config();
  for (const char* method : {"FedTrip", "MOON"}) {
    cfg.workers = 0;
    const auto reference = run_in_process(cfg, "shard", method);
    for (std::size_t workers : {1, 3, 4}) {
      cfg.workers = workers;
      expect_equal_runs(reference, run_in_process(cfg, "virtual", method),
                        std::string(method) +
                            "/workers=" + std::to_string(workers));
    }
  }
}

TEST(VirtualShardEquivalenceTest, StreamingSinkMatchesBatchCsv) {
  // The streaming writer fed round by round from the sink must produce
  // byte-for-byte the file save_history_csv writes at the end — and with
  // keep_in_result false the in-memory history stays empty.
  fl::ExperimentConfig cfg = loaded_config();
  cfg.sched.policy = "sync";
  cfg.client_data = "virtual";

  const std::string streamed_path =
      ::testing::TempDir() + "/vshard_streamed.csv";
  algorithms::AlgoParams p;
  fl::Simulation sim(cfg, algorithms::make_algorithm("FedTrip", p));
  fl::HistoryCsvWriter csv(streamed_path);
  sim.set_round_sink([&](const fl::RoundRecord& r) { csv.append(r); });
  const auto streamed = sim.run();
  EXPECT_TRUE(streamed.history.empty())
      << "sink without keep_in_result must leave RunResult::history empty";
  EXPECT_EQ(csv.rows(), cfg.rounds);

  const auto batch = run_in_process(cfg, "virtual");
  std::ifstream in(streamed_path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(streamed_path.c_str());
  EXPECT_EQ(ss.str(), csv_of(batch, "batch"));
  EXPECT_EQ(streamed.final_params, batch.final_params);
}

TEST(VirtualShardEquivalenceTest, SinkCanKeepHistoryToo) {
  fl::ExperimentConfig cfg = loaded_config();
  cfg.sched.policy = "sync";
  cfg.client_data = "virtual";
  algorithms::AlgoParams p;
  fl::Simulation sim(cfg, algorithms::make_algorithm("FedTrip", p));
  std::size_t seen = 0;
  sim.set_round_sink([&](const fl::RoundRecord&) { ++seen; },
                     /*keep_in_result=*/true);
  const auto result = sim.run();
  EXPECT_EQ(seen, cfg.rounds);
  EXPECT_EQ(result.history.size(), cfg.rounds);
}

TEST(VirtualShardEquivalenceTest, ParticipationOptOutOnlyDropsTheTally) {
  fl::ExperimentConfig cfg = loaded_config();
  cfg.sched.policy = "fastk";
  const auto tracked = run_in_process(cfg, "virtual");
  cfg.track_participation = false;
  cfg.partition_stats = false;
  const auto untracked = run_in_process(cfg, "virtual");
  EXPECT_FALSE(tracked.participation.empty());
  EXPECT_TRUE(untracked.participation.empty());
  EXPECT_TRUE(untracked.partition_histograms.empty());
  EXPECT_EQ(tracked.final_params, untracked.final_params)
      << "opting out of bookkeeping must never change training";
  EXPECT_EQ(csv_of(tracked, "tracked"), csv_of(untracked, "untracked"));
}

TEST(VirtualShardEquivalenceTest, VirtualRequiresRemoteTrainable) {
  // SCAFFOLD keeps dense per-client control variates across rounds — state
  // the virtual mode cannot persist; the constructor must reject it loudly
  // rather than silently diverge.
  fl::ExperimentConfig cfg = loaded_config();
  cfg.client_data = "virtual";
  algorithms::AlgoParams p;
  EXPECT_THROW(
      fl::Simulation(cfg, algorithms::make_algorithm("SCAFFOLD", p)),
      std::invalid_argument);
}

}  // namespace
}  // namespace fedtrip
