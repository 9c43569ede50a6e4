#include "workloads.h"

#include <cmath>
#include <memory>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>
#include <unordered_set>

#include "algorithms/registry.h"
#include "clients/virtual_shard.h"
#include "fl/round_host.h"
#include "fl/simulation.h"
#include "net/net_host.h"
#include "net/pool.h"
#include "net/socket.h"
#include "net/worker.h"
#include "proc.h"
#include "stats.h"

namespace perfbench {

namespace algorithms = fedtrip::algorithms;
namespace data = fedtrip::data;
namespace net = fedtrip::net;
namespace nn = fedtrip::nn;

namespace {

// Table IV's CNN/MNIST-90% case with the paper's defaults: Dir-0.5,
// 4 of 10 clients, batch 15, one local epoch, identity channel, FedTrip
// mu = 0.4, evaluation every round.
Workload paper_cnn() {
  Workload w;
  w.name = "paper-cnn";
  w.algo.mu = 0.4f;
  fl::ExperimentConfig& c = w.cfg;
  c.model.arch = nn::Arch::kCNN;
  c.dataset = "mnist";
  c.data_scale = 0.1;
  c.heterogeneity = data::Heterogeneity::kDir05;
  c.num_clients = 10;
  c.clients_per_round = 4;
  c.rounds = 20;
  c.batch_size = 15;
  c.local_epochs = 1;
  c.eval_every = 1;
  c.workers = 4;
  w.training_threads = 4;
  w.target_accuracy = 0.90;
  w.final_loss = {0.0, 2.5};
  w.final_accuracy = {0.0, 1.0};
  w.ref_final_loss = {0.0, 0.1};
  w.ref_final_accuracy = {0.95, 1.0};
  w.ref_rounds_to_target = {7, 14};
  return w;
}

// bench_distributed's comm-bound regime under FedTrip: a CNN on a sliver of
// data, a top-k downlink and the top-k socket wire codec, over loopback to
// two WorkerServer threads. Every dispatch ships a sparse snapshot and
// FedTrip's dense history entry down and a dense model up, so framing,
// codec and sockets are a large share of the loop while training is small.
Workload socket_comm() {
  Workload w;
  w.name = "socket-comm";
  w.algo.mu = 0.4f;
  fl::ExperimentConfig& c = w.cfg;
  c.model.arch = nn::Arch::kCNN;
  c.dataset = "mnist";
  c.data_scale = 0.01;
  c.heterogeneity = data::Heterogeneity::kDir05;
  c.num_clients = 16;
  c.clients_per_round = 8;
  c.rounds = 100;
  c.batch_size = 32;
  c.local_epochs = 1;
  c.eval_every = 1000000;  // the final round only
  c.comm.downlink = "topk";
  c.comm.params.topk_fraction = 0.05f;
  c.net.wire_codec = "topk";
  c.workers = 2;  // per worker pool: 2 workers x 2 threads
  w.socket_workers = 2;
  w.training_threads = 4;
  w.target_accuracy = 0.0;  // the final round's model
  w.final_loss = {2.25, 2.35};
  w.final_accuracy = {0.05, 0.15};
  w.ref_final_loss = w.final_loss;
  w.ref_final_accuracy = w.final_accuracy;
  w.ref_rounds_to_target = {100, 100};
  return w;
}

// A large virtual fleet under buffered async aggregation on the virtual
// clock: 100k virtual-shard clients, 32 in flight, a buffer of 32,
// bimodal compute, Markov churn and a straggler network. Shards are
// synthesized at dispatch, each dispatch trains as its own unit batch,
// selection scans the whole busy vector, and nearly every uplink adds a
// history entry. One SGD step per dispatch keeps training from hiding the
// scheduler's share.
Workload fleet_async() {
  Workload w;
  w.name = "fleet-async";
  w.algo.mu = 1.0f;
  fl::ExperimentConfig& c = w.cfg;
  c.model.arch = nn::Arch::kMLP;
  c.dataset = "mnist";
  c.data_scale = 0.1;
  c.heterogeneity = data::Heterogeneity::kDir05;
  c.client_data = "virtual";
  c.shard_samples = 32;
  c.partition_stats = false;
  c.num_clients = 100000;
  c.clients_per_round = 32;
  c.rounds = 30;
  c.batch_size = 32;
  c.local_epochs = 1;
  c.eval_every = 1;
  c.sched.policy = "async";
  c.sched.buffer_size = 32;
  c.clients.compute_profile = "bimodal";
  c.clients.availability = "markov";
  c.comm.network.profile = comm::NetProfile::kStraggler;
  c.workers = 4;
  w.training_threads = 4;
  w.target_accuracy = 0.60;
  w.final_loss = {0.5, 1.2};
  w.final_accuracy = {0.55, 0.90};
  w.ref_final_loss = {0.70, 0.95};
  w.ref_final_accuracy = {0.70, 0.82};
  w.ref_rounds_to_target = {17, 27};
  return w;
}

std::uint64_t expected_dispatches(const fl::ExperimentConfig& c) {
  if (c.sched.policy == "async") {
    const std::size_t b =
        c.sched.buffer_size > 0 ? c.sched.buffer_size : c.clients_per_round;
    return static_cast<std::uint64_t>(c.rounds) * b;
  }
  return static_cast<std::uint64_t>(c.rounds) * c.clients_per_round;
}

// ---------------------------------------------------------------- transport

/// The run's transport, built in one place (make_transport): nothing for
/// in-process runs; for socket runs a static WorkerPool handshaken with
/// WorkerServer threads over loopback, and the NetHost over it.
class Transport {
 public:
  Transport() = default;
  ~Transport() { close(); }
  Transport(const Transport&) = delete;
  Transport& operator=(const Transport&) = delete;

  /// The Host the scheduler drives below the TimedHost.
  sched::Host& wrap(fl::RoundHost& inner) {
    if (!pool_) return inner;
    host_.emplace(inner, *pool_);
    return *host_;
  }

  /// Shuts the pool down and joins the workers. Returns the first error a
  /// worker thread raised (empty when none did).
  std::string close() {
    if (pool_) pool_->shutdown();
    for (auto& t : threads_) {
      if (t.joinable()) t.join();
    }
    std::lock_guard<std::mutex> lock(mu_);
    return error_;
  }

  NetCounts counts() const {
    NetCounts n;
    if (!host_) return n;
    const net::NetHost::Traffic& t = host_->traffic();
    n.frames = t.dispatch_frames;
    n.down_raw_bytes = t.down.raw_bytes;
    n.down_wire_bytes = t.down.wire_bytes;
    n.up_raw_bytes = t.up.raw_bytes;
    n.up_wire_bytes = t.up.wire_bytes;
    n.encoded_vecs = t.down.encoded_vecs + t.up.encoded_vecs;
    return n;
  }

 private:
  friend std::unique_ptr<Transport> make_transport(
      std::size_t, const Workload&, const fl::ExperimentConfig&,
      const fl::Simulation&);

  std::optional<net::WorkerPool> pool_;
  std::optional<net::NetHost> host_;
  std::mutex mu_;
  std::string error_;  // guarded by mu_
  std::vector<std::thread> threads_;
};

std::unique_ptr<Transport> make_transport(std::size_t socket_workers,
                                          const Workload& w,
                                          const fl::ExperimentConfig& cfg,
                                          const fl::Simulation& sim) {
  auto t = std::make_unique<Transport>();
  if (socket_workers == 0) return t;
  net::Listener listener(0);
  const std::uint16_t port = listener.port();
  for (std::size_t i = 0; i < socket_workers; ++i) {
    t->threads_.emplace_back([tp = t.get(), port] {
      try {
        net::WorkerServer server;
        server.serve(net::connect_to("127.0.0.1", port));
      } catch (const std::exception& e) {
        std::lock_guard<std::mutex> lock(tp->mu_);
        if (tp->error_.empty()) tp->error_ = e.what();
      }
    });
  }
  std::vector<net::Socket> conns;
  for (std::size_t i = 0; i < socket_workers; ++i) {
    conns.push_back(listener.accept());
  }
  net::SetupMsg setup;
  setup.method = w.method;
  setup.algo = w.algo;
  setup.config = cfg;
  t->pool_.emplace(
      net::WorkerPool::handshake(std::move(conns), setup, sim.param_dim()));
  return t;
}

// ------------------------------------------------------------ output checks

void expect_eq(std::vector<std::string>& failures, const char* what,
               std::uint64_t got, std::uint64_t want) {
  if (got != want) {
    failures.push_back(std::string(what) + " = " + std::to_string(got) +
                       ", expected " + std::to_string(want));
  }
}

void expect_in(std::vector<std::string>& failures, const char* what,
               double got, const Band& band) {
  if (!std::isfinite(got) || !band.contains(got)) {
    failures.push_back(std::string(what) + " = " + std::to_string(got) +
                       " outside [" + std::to_string(band.lo) + ", " +
                       std::to_string(band.hi) + "]");
  }
}

/// Socket float-vector layout: an 8-byte count and 4-byte floats.
std::uint64_t vec_bytes(std::size_t floats) { return 8 + 4 * floats; }

/// What the socket transport must have carried for the trained
/// dispatches: one dispatch frame per (train call, worker) with work, each
/// snapshot once per frame, and a history vector for every client already
/// uplinked earlier in the trial (the engine stores one per uplink; under
/// sync rounds every client of a train call is uplinked before the next).
void check_socket_counts(const Trial& t, const TimedHost& host,
                         std::size_t workers, std::size_t dim,
                         std::vector<std::string>& failures) {
  std::uint64_t frames = 0, down_vecs = 0;
  std::set<std::pair<std::size_t, std::size_t>> frame_keys;
  std::set<std::tuple<std::size_t, std::size_t, const void*>> snapshots;
  std::unordered_set<std::size_t> uplinked, in_batch;
  std::size_t batch = 0;
  for (const TrainedDispatch& d : host.trained()) {
    if (d.batch != batch) {
      uplinked.insert(in_batch.begin(), in_batch.end());
      in_batch.clear();
      batch = d.batch;
    }
    if (frame_keys.insert({d.batch, d.client % workers}).second) ++frames;
    if (snapshots.insert({d.batch, d.client % workers, d.snapshot}).second) {
      ++down_vecs;
    }
    if (uplinked.count(d.client) != 0) ++down_vecs;
    in_batch.insert(d.client);
  }
  const HostCounts& c = host.counts();
  expect_eq(failures, "net.frames", t.net.frames, frames);
  expect_eq(failures, "net.down_raw_bytes", t.net.down_raw_bytes,
            down_vecs * vec_bytes(dim));
  // Every update ships its params and aux vectors.
  expect_eq(failures, "net.up_raw_bytes", t.net.up_raw_bytes,
            2 * c.dispatches * vec_bytes(0) + 4 * c.update_floats);
  // A wire codec may add at most its one-byte envelope to a vector.
  if (t.net.down_wire_bytes > t.net.down_raw_bytes + down_vecs) {
    failures.push_back("net.down_wire_bytes exceed raw bytes + envelope");
  }
  if (t.net.up_wire_bytes > t.net.up_raw_bytes + 2 * c.dispatches) {
    failures.push_back("net.up_wire_bytes exceed raw bytes + envelope");
  }
}

void check_trial(const Workload& w, const fl::ExperimentConfig& cfg,
                 const fl::Simulation& sim, const TimedHost& host,
                 std::size_t socket_workers, bool full_length, Trial& t) {
  auto& f = t.failures;
  const HostCounts& c = host.counts();
  expect_eq(f, "sched.rounds", c.rounds, cfg.rounds);
  expect_eq(f, "sched.dispatches", c.dispatches, expected_dispatches(cfg));
  expect_eq(f, "uplinks", c.uplinks, c.dispatches);
  expect_eq(f, "aggregated updates", c.aggregated, c.dispatches);
  std::uint64_t samples = 0;
  for (const TrainedDispatch& d : host.trained()) {
    samples += sim.client_num_samples(d.client) * cfg.local_epochs;
  }
  expect_eq(f, "fl.samples", c.samples, samples);
  expect_eq(f, "comm.down_bytes", t.comm_down_bytes,
            c.broadcast_copies * host.down_message_bytes());
  expect_eq(f, "comm.up_bytes", t.comm_up_bytes,
            c.uplinks * host.up_message_bytes());
  if (socket_workers > 0) {
    check_socket_counts(t, host, socket_workers, sim.param_dim(), f);
  }
  if (!full_length) return;
  if (cfg.seed != w.reference_seed) {
    expect_in(f, "final train loss", t.final_loss, w.final_loss);
    expect_in(f, "final test accuracy", t.final_accuracy, w.final_accuracy);
    return;
  }
  expect_in(f, "final train loss", t.final_loss, w.ref_final_loss);
  expect_in(f, "final test accuracy", t.final_accuracy, w.ref_final_accuracy);
  if (!t.time_to_target_s) {
    f.push_back("target accuracy never reached");
  } else {
    expect_in(f, "rounds to target", static_cast<double>(t.rounds_to_target),
              w.ref_rounds_to_target);
  }
}

/// Times direct public calls the loop makes internally: evaluation of the
/// final model and, where clients are virtual shards, synthesis of every
/// dispatched client's shard. Pool-mode clients are built at construction
/// and never synthesized.
void time_direct_calls(fl::Simulation& sim, const TimedHost& host, Trial& t) {
  constexpr int kEvalCalls = 5;
  for (int i = 0; i < kEvalCalls; ++i) {
    const auto t0 = Clock::now();
    const double acc = sim.evaluate(t.final_params);
    t.evaluate_s.push_back(seconds(t0, Clock::now()));
    if (acc != t.final_accuracy) {
      t.failures.push_back("direct evaluate disagrees with the final round");
    }
  }
  const clients::ShardSynthesizer* synth = sim.shard_synthesizer();
  if (synth == nullptr) return;
  for (const TrainedDispatch& d : host.trained()) {
    const auto t0 = Clock::now();
    const data::Dataset shard = synth->make_shard(d.client);
    t.make_shard_s.push_back(seconds(t0, Clock::now()));
    if (shard.size() == 0) t.failures.push_back("empty synthesized shard");
  }
}

}  // namespace

Workload make_workload(const std::string& name) {
  if (name == "paper-cnn") return paper_cnn();
  if (name == "socket-comm") return socket_comm();
  if (name == "fleet-async") return fleet_async();
  throw std::invalid_argument("unknown workload: " + name);
}

const std::vector<std::string>& workload_names() {
  static const std::vector<std::string> names = {"paper-cnn", "socket-comm",
                                                 "fleet-async"};
  return names;
}

std::uint64_t trial_seed(std::uint64_t seed, std::size_t i) {
  if (i == 0) return seed;
  // splitmix64 of (seed, i): independent of every other run's seeds.
  std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (i + 1);
  z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
  z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
  return z ^ (z >> 31);
}

Trial run_trial(const Workload& w, std::uint64_t seed,
                const TrialOptions& opt) {
  Trial t;
  t.seed = seed;
  fl::ExperimentConfig cfg = w.cfg;
  cfg.seed = seed;
  if (opt.rounds > 0) cfg.rounds = opt.rounds;
  const std::size_t socket_workers = opt.in_process ? 0 : w.socket_workers;
  if (socket_workers == 0) cfg.workers = w.training_threads;
  // Declared outside the try so a throw still reports the dispatches
  // attempted; after the run it touches none of the hosts it wrapped.
  std::optional<TimedHost> host;
  reset_peak_rss();
  try {
    const auto t0 = Clock::now();
    fl::Simulation sim(cfg, algorithms::make_algorithm(w.method, w.algo));
    const auto t1 = Clock::now();
    std::unique_ptr<Transport> transport =
        make_transport(socket_workers, w, cfg, sim);
    const auto t2 = Clock::now();
    t.construct_s = seconds(t0, t1);
    t.connect_s = seconds(t1, t2);

    std::vector<fl::RoundRecord> records;
    sim.set_round_sink(
        [&records](const fl::RoundRecord& r) { records.push_back(r); });
    fl::RunResult result;
    try {
      result = sim.run_with_host([&](fl::RoundHost& inner) -> sched::Host& {
        host.emplace(transport->wrap(inner), opt.traced, cfg.local_epochs);
        if (opt.delay_call) host->inject_delay(*opt.delay_call, opt.delay_s);
        if (opt.setup_only) host->stop_at_first_call();
        return *host;
      });
    } catch (const TimedHost::SetupDone&) {
      const std::string worker_error = transport->close();
      if (!worker_error.empty()) {
        t.failures.push_back("worker failed: " + worker_error);
      }
      t.setup_s = seconds(t0, *host->loop_start());
      return t;
    }
    const std::string worker_error = transport->close();
    if (!worker_error.empty()) {
      t.failures.push_back("worker failed: " + worker_error);
    }
    t.net = transport->counts();
    if (!host || !host->loop_start() || host->round_ends().empty() ||
        records.empty()) {
      t.failures.push_back("the run made no round");
      return t;
    }
    const Clock::time_point start = *host->loop_start();
    t.setup_s = seconds(t0, start);
    Clock::time_point prev = start;
    for (const Clock::time_point& end : host->round_ends()) {
      t.round_s.push_back(seconds(prev, end));
      prev = end;
    }
    t.loop_s = seconds(start, prev);
    for (const fl::RoundRecord& r : records) {
      if (r.test_accuracy >= w.target_accuracy && r.round >= 1 &&
          r.round <= host->round_ends().size()) {
        t.rounds_to_target = r.round;
        t.time_to_target_s = seconds(start, host->round_ends()[r.round - 1]);
        break;
      }
    }
    t.final_loss = records.back().train_loss;
    t.final_accuracy = records.back().test_accuracy;
    t.final_params = std::move(result.final_params);
    t.counts = host->counts();
    t.comm_down_bytes = result.comm_stats.bytes_down;
    t.comm_up_bytes = result.comm_stats.bytes_up;
    t.setup_rss_mb = host->setup_rss_mb();
    t.peak_rss_mb = peak_rss_mb();
    t.times = host->times();
    t.train_cpu_s = host->train_cpu_s();
    check_trial(w, cfg, sim, *host, socket_workers, opt.rounds == 0, t);
    if (opt.traced) {
      LayerTable table;
      table.loop_s = t.loop_s;
      for (const CallTimes& c : t.times) table.rows.push_back({"", c.total_s});
      if (table.self_s() < 0.0) {
        t.failures.push_back("timed Host calls exceed the loop wall");
      }
    }
    if (opt.direct_calls) time_direct_calls(sim, *host, t);
  } catch (const std::exception& e) {
    t.failures.push_back(std::string("threw: ") + e.what());
    if (host) t.counts = host->counts();
  }
  return t;
}

}  // namespace perfbench
