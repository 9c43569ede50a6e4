// The acceptance gate of elastic fleets: a socket-backed run
// whose workers are killed, slowed, dropped-and-rejoined or struck mute
// mid-run must still be bit-identical to the in-process engine — same
// full CSV, same final parameters, same byte accounting, same
// participation log — for all four scheduling policies with compression
// + error feedback + delta + churn enabled at once. Faults are injected
// deterministically by the workers themselves (net::ChaosConfig counts
// executed dispatches), so every scenario here reproduces exactly.
//
// The workers run in threads over loopback TCP, each a separate
// WorkerServer whose world is rebuilt from the wire-shipped Setup — the
// same thing fl_worker does in a separate process (the CI chaos smoke
// covers the fork/exec path). A dropped worker redials the pool's rejoin
// door the way fl_worker's serve loop does. Workers are accepted one at a
// time, each before the next thread starts, so servers[i] is slot i and
// the client_id % slots assignment puts each chaos fault on a known share.
#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <fstream>
#include <functional>
#include <memory>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "algorithms/registry.h"
#include "fl/checkpoint.h"
#include "fl/round_host.h"
#include "fl/simulation.h"
#include "net/elastic/chaos.h"
#include "net/frame.h"
#include "net/net_host.h"
#include "net/pool.h"
#include "net/socket.h"
#include "net/worker.h"
#include "../fl/sim_util.h"

namespace fedtrip {
namespace {

/// Everything-on config, sized so each of 3 workers queues at least two
/// dispatches per round (stealing and chaos thresholds need real queues):
/// error-feedback top-k uplink with delta framing, qsgd downlink, a
/// straggler network, bimodal compute, Markov churn.
fl::ExperimentConfig chaos_config() {
  fl::ExperimentConfig cfg = fl::testing::tiny_config();
  cfg.num_clients = 8;
  cfg.clients_per_round = 6;
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

/// The fl_worker session loop in a thread: serve, and when chaos drops
/// the connection, redial the coordinator's rejoin door and serve on.
/// Every other ending — orderly shutdown, injected kill, the socket
/// closed under us by an eviction — ends the thread.
void worker_main(std::uint16_t port, net::WorkerServer* server) {
  net::Socket conn;
  try {
    conn = net::connect_to("127.0.0.1", port);
  } catch (...) {
    return;
  }
  while (true) {
    net::SessionEnd end;
    try {
      end = server->serve(std::move(conn));
    } catch (...) {
      return;  // evicted mid-session or the run is over
    }
    if (end != net::SessionEnd::kChaosDropped) return;
    conn = net::Socket();
    for (int attempt = 0; attempt < 200 && !conn.valid(); ++attempt) {
      try {
        conn = net::connect_to(server->rejoin_host(), server->rejoin_port());
      } catch (const net::NetError&) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
      }
    }
    if (!conn.valid()) return;
  }
}

struct ElasticRun {
  fl::RunResult result;
  net::NetHost::Traffic stats;
  std::vector<net::EvictReason> reasons;  // per slot, at end of run
  std::vector<std::string> surviving_labels;  // slots still active
  std::vector<std::string> stats_labels;      // lanes of collect_stats()
  std::vector<std::unique_ptr<net::WorkerServer>> servers;
};

/// Accepts one worker per entry of `mains`, each before the next thread
/// starts: conns[i] is the worker threads[i] runs, never an accept race.
std::vector<net::Socket> accept_in_order(
    net::Listener& listener, std::vector<std::function<void()>> mains,
    std::vector<std::thread>& threads) {
  std::vector<net::Socket> conns;
  for (auto& main : mains) {
    threads.emplace_back(std::move(main));
    conns.push_back(listener.accept());
  }
  return conns;
}

/// One elastic run with `chaos.size()` worker threads, chaos[i] armed on
/// servers[i], which is pool slot i.
ElasticRun run_elastic(const fl::ExperimentConfig& cfg,
                       const std::vector<net::ChaosConfig>& chaos,
                       net::ElasticConfig ecfg = {},
                       double heartbeat_interval_s = 0.05) {
  net::Listener listener(0);
  const std::uint16_t port = listener.port();

  ElasticRun out;
  std::vector<std::function<void()>> mains;
  for (const auto& c : chaos) {
    out.servers.push_back(std::make_unique<net::WorkerServer>(nullptr, c));
    mains.push_back([port, server = out.servers.back().get()] {
      worker_main(port, server);
    });
  }
  std::vector<std::thread> threads;
  std::vector<net::Socket> conns =
      accept_in_order(listener, std::move(mains), threads);

  algorithms::AlgoParams p;
  fl::Simulation sim(cfg, algorithms::make_algorithm("FedTrip", p));
  net::SetupMsg setup;
  setup.method = "FedTrip";
  setup.algo = p;
  setup.config = cfg;
  setup.elastic = true;
  setup.heartbeat_interval_s = heartbeat_interval_s;
  auto pool =
      net::WorkerPool::handshake(std::move(conns), setup, sim.param_dim());

  std::optional<net::NetHost> host;
  out.result = sim.run_with_host([&](fl::RoundHost& inner) -> sched::Host& {
    host.emplace(inner, pool, ecfg);
    return *host;
  });
  out.stats = host->traffic();
  for (std::size_t w = 0; w < host->health().size(); ++w) {
    out.reasons.push_back(host->health().reason(w));
    if (host->health().active(w)) {
      out.surviving_labels.push_back(pool.label(w));
    }
  }
  for (const auto& lane : pool.collect_stats()) {
    out.stats_labels.push_back(lane.name);
  }
  pool.shutdown();
  for (auto& t : threads) t.join();
  return out;
}

std::string csv_of(const fl::RunResult& result, const char* tag) {
  const std::string path =
      ::testing::TempDir() + "/elastic_chaos_" + tag + ".csv";
  fl::save_history_csv(path, result.history);
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  return ss.str();
}

void expect_bit_identical(const fl::RunResult& local,
                          const fl::RunResult& remote,
                          const std::string& label) {
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

TEST(ElasticChaosTest, CleanFleetMatchesInProcessWithNoLifecycleEvents) {
  fl::ExperimentConfig cfg = chaos_config();
  cfg.sched.policy = "sync";
  const auto local = run_in_process(cfg);
  // A fast beacon (10ms) so even this fast clean run observes heartbeats.
  const auto run = run_elastic(cfg, {{}, {}, {}}, {}, 0.01);
  expect_bit_identical(local, run.result, "clean fleet");
  EXPECT_EQ(run.stats.evicted_workers, 0u);
  EXPECT_EQ(run.stats.replayed, 0u);
  EXPECT_EQ(run.stats.rejoined_workers, 0u);
  EXPECT_GT(run.stats.dispatch_frames, 0u);
  EXPECT_GT(run.stats.heartbeats, 0u);
}

TEST(ElasticChaosTest, KilledWorkerIsEvictedAndItsWorkReplayed) {
  fl::ExperimentConfig cfg = chaos_config();
  cfg.sched.policy = "sync";
  const auto local = run_in_process(cfg);

  net::ChaosConfig killer;
  killer.kill_after_dispatches = 3;
  const auto run = run_elastic(cfg, {killer, {}, {}});
  expect_bit_identical(local, run.result, "kill mid-run");
  EXPECT_EQ(run.stats.evicted_workers, 1u);
  // The kill drops the connection with a result pending — that in-flight
  // work must have been replayed on a survivor.
  EXPECT_GE(run.stats.replayed, 1u);
  EXPECT_GE(run.servers[0]->dispatches_executed(), 3u);
  std::size_t disconnected = 0;
  for (const auto r : run.reasons) {
    if (r == net::EvictReason::kDisconnected) ++disconnected;
  }
  EXPECT_EQ(disconnected, 1u);
  // Stats lanes are named by slot: after the eviction, each survivor's
  // report still carries its own label, not the evicted slot's.
  EXPECT_EQ(run.stats_labels, run.surviving_labels);
  EXPECT_EQ(run.surviving_labels,
            (std::vector<std::string>{"worker 2/3", "worker 3/3"}));
}

TEST(ElasticChaosTest, SlowedWorkerShedsLoadThroughStealing) {
  fl::ExperimentConfig cfg = chaos_config();
  cfg.sched.policy = "sync";
  const auto local = run_in_process(cfg);

  net::ChaosConfig slow;
  slow.delay_dispatch_ms = 60.0;
  const auto run = run_elastic(cfg, {slow, {}, {}});
  expect_bit_identical(local, run.result, "slow worker");
  // The straggler holds one dispatch at a time; idle peers must have
  // raided its queue rather than waiting it out.
  EXPECT_GT(run.stats.stolen, 0u);
  EXPECT_EQ(run.stats.evicted_workers, 0u);
}

TEST(ElasticChaosTest, DroppedWorkerRejoinsAndServesAgain) {
  fl::ExperimentConfig cfg = chaos_config();
  cfg.sched.policy = "sync";
  const auto local = run_in_process(cfg);

  net::ChaosConfig dropper;
  dropper.drop_after_dispatches = 2;  // early: plenty of run left to rejoin
  const auto run = run_elastic(cfg, {dropper, {}, {}});
  expect_bit_identical(local, run.result, "drop + rejoin");
  EXPECT_EQ(run.stats.evicted_workers, 1u);
  EXPECT_GE(run.stats.rejoined_workers, 1u);
  // The dropped server redialed the rejoin door and was handed a second
  // session — and executed real work in it (the fault does not re-arm:
  // thresholds are cumulative across sessions).
  EXPECT_EQ(run.servers[0]->sessions_served(), 2u);
  EXPECT_GT(run.servers[0]->dispatches_executed(), 2u);
}

TEST(ElasticChaosTest, SilentWorkerIsDeadlineEvictedAndReplayed) {
  fl::ExperimentConfig cfg = chaos_config();
  cfg.sched.policy = "sync";
  const auto local = run_in_process(cfg);

  net::Listener listener(0);
  const std::uint16_t port = listener.port();

  algorithms::AlgoParams p;
  fl::Simulation sim(cfg, algorithms::make_algorithm("FedTrip", p));
  const std::uint64_t dim = sim.param_dim();

  std::vector<std::unique_ptr<net::WorkerServer>> servers;
  servers.push_back(std::make_unique<net::WorkerServer>());
  servers.push_back(std::make_unique<net::WorkerServer>());
  std::vector<std::function<void()>> mains;
  mains.push_back([port, s = servers[0].get()] { worker_main(port, s); });
  mains.push_back([port, s = servers[1].get()] { worker_main(port, s); });
  // A scripted zombie: handshakes like a real worker, then answers
  // nothing — no acks, no results, no heartbeats. Only the deadline
  // sweep can unstick the batch it is holding.
  mains.push_back([port, dim]() {
    try {
      net::Socket conn = net::connect_to("127.0.0.1", port);
      net::Frame hello = net::recv_frame(conn, "coordinator");
      if (hello.type != wire::RecordType::kNetHello) return;
      net::send_frame(conn, wire::RecordType::kNetHello, 0,
                      net::serialize_hello(net::HelloMsg{}));
      net::Frame setup = net::recv_frame(conn, "coordinator");
      if (setup.type != wire::RecordType::kNetSetup) return;
      net::send_frame(conn, wire::RecordType::kNetSetupAck, 0,
                      net::serialize_setup_ack(net::SetupAckMsg{dim}));
      while (true) (void)net::recv_frame(conn, "coordinator");
    } catch (...) {
      // Evicted: the coordinator hung up on us. As planned.
    }
  });
  std::vector<std::thread> threads;
  std::vector<net::Socket> conns =
      accept_in_order(listener, std::move(mains), threads);

  net::SetupMsg setup;
  setup.method = "FedTrip";
  setup.algo = p;
  setup.config = cfg;
  setup.elastic = true;
  setup.heartbeat_interval_s = 0.05;
  auto pool = net::WorkerPool::handshake(std::move(conns), setup, dim);

  net::ElasticConfig ecfg;
  ecfg.worker_deadline_s = 0.6;  // >> the 50ms heartbeat interval
  std::optional<net::NetHost> host;
  auto remote = sim.run_with_host([&](fl::RoundHost& inner) -> sched::Host& {
    host.emplace(inner, pool, ecfg);
    return *host;
  });
  const net::NetHost::Traffic stats = host->traffic();
  std::size_t deadline_evictions = 0;
  for (std::size_t w = 0; w < host->health().size(); ++w) {
    if (host->health().reason(w) == net::EvictReason::kDeadlineExpired) {
      ++deadline_evictions;
    }
  }
  pool.shutdown();
  for (auto& t : threads) t.join();

  expect_bit_identical(local, remote, "silent worker");
  EXPECT_EQ(deadline_evictions, 1u);
  EXPECT_EQ(stats.evicted_workers, 1u);
  EXPECT_GE(stats.replayed, 1u);
}

TEST(ElasticChaosTest, KillPlusSlowBitIdenticalForAllFourPolicies) {
  // The headline acceptance claim: one worker killed mid-run, another
  // chaos-slowed, and the CSV is still bit-identical to the in-process
  // engine under every scheduling policy.
  net::ChaosConfig killer;
  killer.kill_after_dispatches = 4;
  net::ChaosConfig slow;
  slow.delay_dispatch_ms = 25.0;

  for (const std::string policy : {"sync", "fastk", "async", "deadline"}) {
    fl::ExperimentConfig cfg = chaos_config();
    cfg.sched.policy = policy;
    if (policy == "async") cfg.sched.buffer_size = 2;
    const auto local = run_in_process(cfg);
    const auto run = run_elastic(cfg, {killer, slow, {}});
    expect_bit_identical(local, run.result, policy + " under chaos");
    EXPECT_EQ(run.stats.evicted_workers, 1u) << policy;
    EXPECT_GE(run.stats.replayed, 1u) << policy;
  }
}

}  // namespace
}  // namespace fedtrip
