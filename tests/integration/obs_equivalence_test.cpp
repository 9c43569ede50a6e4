// The observability layer's two load-bearing claims, tested end to end:
//
//  1. Transparency — attaching a Tracer never changes a run. CSV, final
//     parameters and byte accounting are bit-identical between a traced
//     and an untraced run, in-process and over sockets alike (the
//     HetTransparency discipline applied to obs/).
//  2. Determinism — the *virtual-clock* span stream and the deterministic
//     registries (counters, gauges) are pure functions of the
//     configuration: identical across repeated runs, across 1-vs-N worker
//     pools, and between the in-process and socket engines, for all four
//     scheduling policies. Wall-clock spans and timers are explicitly out
//     of scope (real seconds differ by machine and by run).
//
// The socket runs use the net_equivalence harness shape: WorkerServer
// sessions in threads over loopback TCP, worlds rebuilt from the wire.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <optional>
#include <sstream>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "algorithms/registry.h"
#include "fl/checkpoint.h"
#include "fl/round_host.h"
#include "fl/simulation.h"
#include "net/net_host.h"
#include "net/pool.h"
#include "net/socket.h"
#include "net/worker.h"
#include "obs/flight.h"
#include "obs/histogram.h"
#include "obs/stream.h"
#include "obs/tracer.h"
#include "../fl/sim_util.h"

namespace fedtrip {
namespace {

/// Everything-on: EF top-k + delta uplink, qsgd downlink, stragglers,
/// bimodal compute, Markov churn — the config the transparency and
/// determinism claims have to hold for.
fl::ExperimentConfig loaded_config(const std::string& policy) {
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
  cfg.sched.policy = policy;
  if (policy == "async") cfg.sched.buffer_size = 2;
  return cfg;
}

const char* kPolicies[] = {"sync", "fastk", "async", "deadline"};

struct TracedRun {
  fl::RunResult result;
  obs::TraceData trace;  // empty when the run was untraced
};

TracedRun run_in_process(const fl::ExperimentConfig& cfg, bool traced) {
  algorithms::AlgoParams p;
  fl::Simulation sim(cfg, algorithms::make_algorithm("FedTrip", p));
  std::optional<obs::Tracer> tracer;
  if (traced) {
    tracer.emplace();
    sim.set_tracer(&*tracer);
  }
  TracedRun out;
  out.result = sim.run();
  if (traced) out.trace = tracer->snapshot();
  return out;
}

/// The full PR-10 live-telemetry stack, in process: tracer + armed flight
/// recorder + NDJSON streamer fed from the round sink (exactly the wiring
/// run_experiment builds for --metrics-interval / --flight-recorder).
TracedRun run_in_process_streamed(const fl::ExperimentConfig& cfg,
                                  const std::string& ndjson_path) {
  algorithms::AlgoParams p;
  fl::Simulation sim(cfg, algorithms::make_algorithm("FedTrip", p));
  obs::Tracer tracer;
  sim.set_tracer(&tracer);
  obs::FlightRecorder flight;
  tracer.set_flight_recorder(&flight);
  obs::MetricsStreamer streamer(ndjson_path, /*interval_s=*/0.0);
  fl::RoundHost* engine = nullptr;
  std::uint64_t rounds_done = 0;
  sim.set_round_sink(
      [&](const fl::RoundRecord& r) {
        ++rounds_done;
        if (!streamer.due()) return;
        std::vector<obs::TraceLane> live;
        live.push_back({"coordinator", tracer.snapshot()});
        streamer.emit(engine != nullptr ? engine->clock_seconds() : 0.0,
                      r.round, rounds_done, live);
      },
      /*keep_in_result=*/true);
  TracedRun out;
  out.result = sim.run_with_host([&](fl::RoundHost& h) -> sched::Host& {
    engine = &h;
    return h;
  });
  out.trace = tracer.snapshot();
  EXPECT_GT(streamer.records(), 0u) << "streamer never emitted";
  EXPECT_FALSE(flight.recent().empty()) << "flight ring never fed";
  return out;
}

/// `ndjson_path` non-empty additionally attaches a MetricsStreamer to the
/// NetHost (mid-run kNetStatsReq polling of every worker) and arms a
/// flight recorder on the coordinator tracer — the --metrics-interval +
/// --flight-recorder configuration whose transparency is under test.
TracedRun run_distributed(fl::ExperimentConfig cfg, std::size_t num_workers,
                          bool traced, const std::string& ndjson_path = "") {
  cfg.obs.enabled = traced;  // shipped to the workers in Setup
  net::Listener listener(0);
  const std::uint16_t port = listener.port();
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
  std::optional<obs::Tracer> tracer;
  if (traced) {
    tracer.emplace();
    sim.set_tracer(&*tracer);
  }
  obs::FlightRecorder flight;
  std::optional<obs::MetricsStreamer> streamer;
  if (!ndjson_path.empty()) {
    streamer.emplace(ndjson_path, /*interval_s=*/0.0);
    if (tracer) tracer->set_flight_recorder(&flight);
  }
  net::SetupMsg setup;
  setup.method = "FedTrip";
  setup.algo = p;
  setup.config = cfg;
  auto pool =
      net::WorkerPool::handshake(std::move(conns), setup, sim.param_dim());

  TracedRun out;
  std::optional<net::NetHost> host;
  out.result = sim.run_with_host([&](fl::RoundHost& inner) -> sched::Host& {
    host.emplace(inner, pool);
    if (streamer) host->set_metrics(&*streamer);
    return *host;
  });
  if (streamer) {
    EXPECT_GT(streamer->records(), 0u) << "streamer never emitted";
  }
  if (traced) {
    // The workers must answer the stats request with parseable reports
    // even in this harness; their content (wall spans, net counters) is
    // engine-specific and not compared here.
    const auto reports = pool.collect_stats();
    EXPECT_EQ(reports.size(), num_workers);
  }
  pool.shutdown();
  for (auto& w : workers) w.join();
  if (traced) out.trace = tracer->snapshot();
  return out;
}

/// How a run is instrumented: untraced, traced, or traced with the live
/// stack (streamer + flight recorder) attached. kTracedRepeat is a second,
/// independent execution of kTraced — the run the repeat-determinism
/// assertions compare it against.
enum class Mode { kPlain, kTraced, kTracedRepeat, kStreamed };

/// The tests below look at the same few dozen runs from different angles,
/// so each distinct (policy, engine, mode) runs once per binary, on first
/// use. `workers` 0 is the in-process engine, N > 0 a pool of N socket
/// workers.
const TracedRun& cached_run(const std::string& policy, std::size_t workers,
                            Mode mode) {
  static std::map<std::tuple<std::string, std::size_t, Mode>, TracedRun>
      cache;
  const auto key = std::make_tuple(policy, workers, mode);
  if (auto it = cache.find(key); it != cache.end()) return it->second;
  const auto cfg = loaded_config(policy);
  const bool traced = mode != Mode::kPlain;
  TracedRun run;
  if (mode == Mode::kStreamed) {
    const std::string ndjson = ::testing::TempDir() + "/obs_eq_stream_" +
                               policy + "_" + std::to_string(workers) +
                               ".ndjson";
    run = workers == 0 ? run_in_process_streamed(cfg, ndjson)
                       : run_distributed(cfg, workers, true, ndjson);
    std::remove(ndjson.c_str());
  } else {
    run = workers == 0 ? run_in_process(cfg, traced)
                       : run_distributed(cfg, workers, traced);
  }
  return cache.emplace(key, std::move(run)).first->second;
}

std::string csv_of(const fl::RunResult& result, const char* tag) {
  const std::string path =
      ::testing::TempDir() + "/obs_eq_" + tag + ".csv";
  fl::save_history_csv(path, result.history);
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  std::remove(path.c_str());
  return ss.str();
}

/// The deterministic virtual-clock stream, rendered for diffable failure
/// output: emission order, names, timestamps and args all participate.
std::vector<std::string> virtual_stream(const obs::TraceData& d) {
  std::vector<std::string> out;
  for (const auto& s : d.spans) {
    if (s.clock != obs::SpanClock::kVirtual) continue;
    char buf[64];
    std::snprintf(buf, sizeof(buf), " [%.17g, %.17g]", s.t0, s.t1);
    out.push_back(obs::format_span(s) + buf);
  }
  return out;
}

/// Deterministic counters only: sched.* and comm.* are pure functions of
/// the run; net.* (frames, bytes on the socket) and *.calls from wall
/// timers legitimately differ between engines and worker counts.
std::map<std::string, std::uint64_t> comparable_counters(
    const obs::TraceData& d) {
  std::map<std::string, std::uint64_t> out;
  for (const auto& [name, v] : d.counters) {
    if (name.rfind("sched.", 0) == 0 || name.rfind("comm.", 0) == 0) {
      out[name] = v;
    }
  }
  return out;
}

/// Deterministic histograms only: `vspan.*` is fed from the virtual clock
/// on the coordinator lane and must be bit-identical (including the
/// order-sensitive double sum — the observation order is deterministic).
/// `wall.*` and `*_ns` histograms measure real seconds and are excluded,
/// same split as comparable_counters.
std::map<std::string, obs::Histogram> comparable_histograms(
    const obs::TraceData& d) {
  std::map<std::string, obs::Histogram> out;
  for (const auto& [name, h] : d.histograms) {
    if (name.rfind("vspan.", 0) == 0) out[name] = h;
  }
  return out;
}

void expect_histograms_identical(const obs::TraceData& a,
                                 const obs::TraceData& b,
                                 const std::string& label) {
  const auto ha = comparable_histograms(a);
  const auto hb = comparable_histograms(b);
  ASSERT_FALSE(ha.empty()) << label << ": no vspan.* histograms recorded";
  ASSERT_EQ(ha.size(), hb.size()) << label;
  for (const auto& [name, h] : ha) {
    ASSERT_TRUE(hb.count(name)) << label << ": " << name;
    const obs::Histogram& o = hb.at(name);
    EXPECT_TRUE(h == o) << label << ": vspan histogram " << name
                        << " diverged — a: " << obs::histogram_row(h)
                        << "  b: " << obs::histogram_row(o);
  }
}

void expect_results_identical(const fl::RunResult& a, const fl::RunResult& b,
                              const std::string& label) {
  EXPECT_EQ(a.final_params, b.final_params) << label;
  EXPECT_EQ(csv_of(a, "a"), csv_of(b, "b")) << label;
  EXPECT_EQ(a.comm_stats.bytes_down, b.comm_stats.bytes_down) << label;
  EXPECT_EQ(a.comm_stats.bytes_up, b.comm_stats.bytes_up) << label;
  EXPECT_EQ(a.comm_stats.messages_down, b.comm_stats.messages_down) << label;
  EXPECT_EQ(a.comm_stats.messages_up, b.comm_stats.messages_up) << label;
  EXPECT_EQ(a.comm_seconds, b.comm_seconds) << label;
  EXPECT_EQ(a.participation, b.participation) << label;
}

TEST(ObsTransparencyTest, TracedInProcessRunIsBitIdenticalToUntraced) {
  for (const char* policy : kPolicies) {
    const auto& plain = cached_run(policy, 0, Mode::kPlain);
    const auto& traced = cached_run(policy, 0, Mode::kTraced);
    expect_results_identical(plain.result, traced.result, policy);
    EXPECT_FALSE(traced.trace.spans.empty()) << policy;
  }
}

TEST(ObsTransparencyTest, TracedSocketRunIsBitIdenticalToUntraced) {
  const auto& plain = cached_run("fastk", 2, Mode::kPlain);
  const auto& traced = cached_run("fastk", 2, Mode::kTraced);
  expect_results_identical(plain.result, traced.result, "fastk/2 workers");
}

TEST(ObsTransparencyTest, StreamedFlightArmedInProcessRunIsBitIdentical) {
  // --metrics-interval + --flight-recorder must inherit the transparency
  // guarantee: streaming live NDJSON snapshots every round and feeding the
  // flight ring cannot move a single byte of the run, for any policy.
  for (const char* policy : kPolicies) {
    const auto& plain = cached_run(policy, 0, Mode::kPlain);
    const auto& streamed = cached_run(policy, 0, Mode::kStreamed);
    expect_results_identical(plain.result, streamed.result, policy);
  }
}

TEST(ObsTransparencyTest, StreamedFlightArmedSocketRunIsBitIdentical) {
  // Same claim over sockets: the mid-run kNetStatsReq polls the streamer
  // adds between batches are extra wire frames, not extra behaviour —
  // workers answer from their tracer snapshot without touching training
  // state, so a 2-worker streamed run byte-matches the plain one.
  for (const char* policy : kPolicies) {
    const auto& plain = cached_run(policy, 2, Mode::kPlain);
    const auto& streamed = cached_run(policy, 2, Mode::kStreamed);
    expect_results_identical(plain.result, streamed.result, policy);
  }
}

TEST(ObsDeterminismTest, VirtualSpansAndCountersRepeatExactly) {
  for (const char* policy : kPolicies) {
    const auto& a = cached_run(policy, 0, Mode::kTraced);
    const auto& b = cached_run(policy, 0, Mode::kTracedRepeat);
    EXPECT_EQ(virtual_stream(a.trace), virtual_stream(b.trace)) << policy;
    EXPECT_EQ(comparable_counters(a.trace), comparable_counters(b.trace))
        << policy;
    EXPECT_EQ(a.trace.gauges, b.trace.gauges) << policy;
  }
}

TEST(ObsDeterminismTest, VirtualSpansIdenticalInProcessVsSocket) {
  // The virtual-clock stream is emitted by the policies, which run on the
  // coordinator in both engines — shipping training over sockets must not
  // perturb a single timestamp, arg, or emission position.
  for (const char* policy : kPolicies) {
    const auto& local = cached_run(policy, 0, Mode::kTraced);
    const auto& remote = cached_run(policy, 2, Mode::kTraced);
    EXPECT_EQ(virtual_stream(local.trace), virtual_stream(remote.trace))
        << policy;
    EXPECT_EQ(comparable_counters(local.trace),
              comparable_counters(remote.trace))
        << policy;
    EXPECT_EQ(local.trace.gauges, remote.trace.gauges) << policy;
  }
}

TEST(ObsDeterminismTest, VirtualSpansInvariantUnderWorkerCount) {
  const auto& one = cached_run("deadline", 1, Mode::kTraced);
  for (std::size_t n : {2, 3}) {
    const auto& many = cached_run("deadline", n, Mode::kTraced);
    EXPECT_EQ(virtual_stream(one.trace), virtual_stream(many.trace))
        << n << " workers";
    EXPECT_EQ(comparable_counters(one.trace),
              comparable_counters(many.trace))
        << n << " workers";
  }
}

TEST(ObsDeterminismTest, VspanHistogramsDeterministicAcrossEngines) {
  // vspan.* histograms are the percentile view of the virtual-span stream:
  // coordinator-only, observed in deterministic order, so they repeat
  // bit-for-bit (sum included) across runs and between the in-process and
  // socket engines, for every policy.
  for (const char* policy : kPolicies) {
    const auto& a = cached_run(policy, 0, Mode::kTraced);
    const auto& b = cached_run(policy, 0, Mode::kTracedRepeat);
    expect_histograms_identical(a.trace, b.trace,
                                std::string(policy) + "/repeat");
    const auto& remote = cached_run(policy, 2, Mode::kTraced);
    expect_histograms_identical(a.trace, remote.trace,
                                std::string(policy) + "/local-vs-socket");
  }
}

TEST(ObsDeterminismTest, VspanHistogramsInvariantUnderWorkerCount) {
  // 1-vs-N: shipping training over more sockets must not perturb a single
  // bucket count or the order-sensitive sum — the virtual clock schedule,
  // and with it every vspan observation, is a pure function of the config.
  const auto& one = cached_run("fastk", 1, Mode::kTraced);
  for (std::size_t n : {2, 3}) {
    const auto& many = cached_run("fastk", n, Mode::kTraced);
    expect_histograms_identical(one.trace, many.trace,
                                std::to_string(n) + " workers");
  }
}

TEST(ObsDeterminismTest, EfResidualGaugeIsRecordedAndDeterministic) {
  // The EF stack is on in loaded_config; the residual-norm gauge must be
  // present and repeat exactly (it is a pure function of the run).
  const auto& a = cached_run("sync", 0, Mode::kTraced);
  ASSERT_TRUE(a.trace.gauges.count("comm.ef_residual_l2.up"));
  EXPECT_GT(a.trace.gauges.at("comm.ef_residual_l2.up"), 0.0);
}

}  // namespace
}  // namespace fedtrip
