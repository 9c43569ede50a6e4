// run_experiment: a full command-line driver over the library — any method,
// model, dataset, heterogeneity, schedule and client profile — with CSV +
// checkpoint export. This is the binary a downstream user scripts their own
// sweeps with.
//
// Flags are registered once in fl::experiment_flags() (src/fl/flags.h): the
// --help text is generated from that table and this file's handler map is
// checked against it at startup, so the accepted flags and the documented
// flags cannot drift apart.
//
// Usage (one shell line; wrapped here without continuations so the
// comment stays -Wcomment-clean):
//   ./run_experiment --method FedTrip --model cnn --dataset mnist
//       --het Dir-0.5 --rounds 50 --clients 10 --per-round 4
//       --schedule deadline --deadline 20 --compute-profile bimodal
//       --availability markov --network straggler --out history.csv
#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <functional>
#include <iostream>
#include <map>
#include <optional>
#include <stdexcept>
#include <string>

#include "algorithms/registry.h"
#include "comm/registry.h"
#include "data/idx_loader.h"
#include "fl/checkpoint.h"
#include "fl/flags.h"
#include "fl/metrics.h"
#include "fl/round_host.h"
#include "fl/simulation.h"
#include "net/net_host.h"
#include "net/pool.h"
#include "obs/export.h"
#include "obs/flight.h"
#include "obs/stream.h"
#include "obs/tracer.h"

namespace {

/// Directory of this process's executable + "/fl_worker" — the default
/// --worker-bin (the two binaries are built side by side).
std::string default_worker_bin(const char* argv0) {
  std::string path = argv0;
  const auto slash = path.rfind('/');
  if (slash == std::string::npos) return "./fl_worker";
  return path.substr(0, slash + 1) + "fl_worker";
}

std::vector<fedtrip::net::Endpoint> parse_endpoint_list(
    const std::string& list) {
  std::vector<fedtrip::net::Endpoint> endpoints;
  std::size_t start = 0;
  while (start <= list.size()) {
    const auto comma = list.find(',', start);
    const std::string spec =
        list.substr(start, comma == std::string::npos ? std::string::npos
                                                      : comma - start);
    if (!spec.empty()) {
      endpoints.push_back(fedtrip::net::parse_endpoint(spec));
    }
    if (comma == std::string::npos) break;
    start = comma + 1;
  }
  return endpoints;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace fedtrip;

  fl::ExperimentConfig cfg;
  cfg.model.arch = nn::Arch::kCNN;
  cfg.dataset = "mnist";
  cfg.data_scale = 0.1;
  cfg.rounds = 30;
  cfg.batch_size = 32;
  std::string method = "FedTrip";
  std::string out_csv, save_model, load_model, idx_dir;
  std::size_t workers_remote = 0;
  std::string connect_list;
  std::string worker_bin = default_worker_bin(argv[0]);
  bool elastic = false;
  double heartbeat_interval_s = 0.25;
  net::ElasticConfig elastic_cfg;
  algorithms::AlgoParams params;
  params.mu = 0.4f;

  const std::string usage = fl::experiment_usage();

  // One handler per registered flag; boolean flags receive nullptr. A
  // handler throws std::invalid_argument on a value it cannot take.
  using Handler = std::function<void(const char*)>;
  const std::map<std::string, Handler> handlers = {
      {"--method", [&](const char* v) { method = v; }},
      {"--model",
       [&](const char* v) { cfg.model.arch = nn::arch_from_name(v); }},
      {"--dataset", [&](const char* v) { cfg.dataset = v; }},
      {"--het",
       [&](const char* v) {
         cfg.heterogeneity = data::heterogeneity_from_name(v);
       }},
      {"--rounds",
       [&](const char* v) { cfg.rounds = fl::parse_flag<std::size_t>(v); }},
      {"--clients",
       [&](const char* v) {
         cfg.num_clients = fl::parse_flag<std::size_t>(v);
       }},
      {"--per-round",
       [&](const char* v) {
         cfg.clients_per_round = fl::parse_flag<std::size_t>(v);
       }},
      {"--batch",
       [&](const char* v) { cfg.batch_size = fl::parse_flag<std::size_t>(v); }},
      {"--epochs",
       [&](const char* v) {
         cfg.local_epochs = fl::parse_flag<std::size_t>(v);
       }},
      {"--mu",
       [&](const char* v) { params.mu = fl::parse_flag<float>(v); }},
      {"--xi-scale",
       [&](const char* v) { params.xi_scale = fl::parse_flag<float>(v); }},
      {"--lr",
       [&](const char* v) {
         cfg.lr = fl::parse_flag<float>(v);
         params.lr = cfg.lr;
       }},
      {"--scale",
       [&](const char* v) { cfg.data_scale = fl::parse_flag<double>(v); }},
      {"--seed",
       [&](const char* v) { cfg.seed = fl::parse_flag<std::uint64_t>(v); }},
      {"--width-mult",
       [&](const char* v) {
         cfg.model.width_mult = fl::parse_flag<double>(v);
       }},
      {"--client-data", [&](const char* v) { cfg.client_data = v; }},
      {"--shard-samples",
       [&](const char* v) {
         cfg.shard_samples = fl::parse_flag<std::size_t>(v);
       }},
      {"--no-participation",
       [&](const char*) { cfg.track_participation = false; }},
      {"--no-partition-stats",
       [&](const char*) { cfg.partition_stats = false; }},
      {"--out", [&](const char* v) { out_csv = v; }},
      {"--save-model", [&](const char* v) { save_model = v; }},
      {"--load-model", [&](const char* v) { load_model = v; }},
      {"--idx-dir", [&](const char* v) { idx_dir = v; }},
      {"--compressor", [&](const char* v) { cfg.comm.uplink = v; }},
      {"--down-compressor", [&](const char* v) { cfg.comm.downlink = v; }},
      {"--topk-frac",
       [&](const char* v) {
         cfg.comm.params.topk_fraction = fl::parse_flag<float>(v);
       }},
      {"--qsgd-bits",
       [&](const char* v) {
         cfg.comm.params.qsgd_bits = fl::parse_flag<int>(v);
       }},
      {"--mask-keep",
       [&](const char* v) {
         cfg.comm.params.mask_keep = fl::parse_flag<float>(v);
       }},
      {"--delta", [&](const char*) { cfg.comm.delta_uplink = true; }},
      {"--network",
       [&](const char* v) {
         cfg.comm.network.profile = comm::net_profile_from_name(v);
       }},
      {"--bandwidth",
       [&](const char* v) {
         cfg.comm.network.bandwidth_mbps = fl::parse_flag<double>(v);
       }},
      {"--latency",
       [&](const char* v) {
         cfg.comm.network.latency_ms = fl::parse_flag<double>(v);
       }},
      {"--schedule", [&](const char* v) { cfg.sched.policy = v; }},
      {"--overselect",
       [&](const char* v) {
         cfg.sched.overselect = fl::parse_flag<std::size_t>(v);
       }},
      {"--buffer",
       [&](const char* v) {
         cfg.sched.buffer_size = fl::parse_flag<std::size_t>(v);
       }},
      {"--staleness-alpha",
       [&](const char* v) {
         cfg.sched.staleness_alpha = fl::parse_flag<double>(v);
       }},
      {"--deadline",
       [&](const char* v) {
         cfg.sched.deadline_s = fl::parse_flag<double>(v);
       }},
      {"--compute-profile",
       [&](const char* v) { cfg.clients.compute_profile = v; }},
      {"--seconds-per-sample",
       [&](const char* v) {
         cfg.clients.seconds_per_sample = fl::parse_flag<double>(v);
       }},
      {"--availability",
       [&](const char* v) {
         // "always" and "markov" are kinds; anything else is a CSV trace.
         const std::string a = v;
         if (a == "always" || a == "markov") {
           cfg.clients.availability = a;
         } else {
           cfg.clients.availability = "trace";
           cfg.clients.availability_trace = a;
         }
       }},
      {"--avail-on",
       [&](const char* v) {
         cfg.clients.markov_mean_on_s = fl::parse_flag<double>(v);
       }},
      {"--avail-off",
       [&](const char* v) {
         cfg.clients.markov_mean_off_s = fl::parse_flag<double>(v);
       }},
      {"--workers-remote",
       [&](const char* v) { workers_remote = fl::parse_flag<std::size_t>(v); }},
      {"--connect", [&](const char* v) { connect_list = v; }},
      {"--worker-bin", [&](const char* v) { worker_bin = v; }},
      {"--elastic", [&](const char*) { elastic = true; }},
      {"--heartbeat-interval",
       [&](const char* v) {
         heartbeat_interval_s = fl::parse_flag<double>(v);
       }},
      {"--worker-deadline",
       [&](const char* v) {
         elastic_cfg.worker_deadline_s = fl::parse_flag<double>(v);
       }},
      {"--wire-codec",
       [&](const char* v) {
         // Fail at parse time, not at the first worker handshake.
         (void)comm::make_compressor(v, cfg.comm.params);
         cfg.net.wire_codec = v;
       }},
      {"--obs", [&](const char*) { cfg.obs.enabled = true; }},
      {"--trace-out",
       [&](const char* v) {
         cfg.obs.enabled = true;
         cfg.obs.trace_out = v;
       }},
      {"--metrics-out",
       [&](const char* v) {
         cfg.obs.enabled = true;
         cfg.obs.metrics_out = v;
       }},
      {"--metrics-interval",
       [&](const char* v) {
         cfg.obs.enabled = true;
         cfg.obs.metrics_interval_s = std::max(0.0, fl::parse_flag<double>(v));
       }},
      {"--metrics-ndjson",
       [&](const char* v) {
         cfg.obs.enabled = true;
         cfg.obs.metrics_stream = v;
       }},
      {"--flight-recorder",
       [&](const char* v) {
         cfg.obs.enabled = true;
         cfg.obs.flight_dir = v;
       }},
      {"--help",
       [&](const char*) {
         std::printf("%s", usage.c_str());
         std::exit(0);
       }},
  };

  // Drift guard: the handler map and the registered flag table must agree
  // (this runs on every invocation, including the CI smoke runs).
  const auto& specs = fl::experiment_flags();
  for (const auto& s : specs) {
    if (handlers.find(s.name) == handlers.end()) {
      std::fprintf(stderr, "BUG: registered flag %s has no handler\n",
                   s.name);
      return 2;
    }
  }
  if (handlers.size() != specs.size()) {
    for (const auto& [name, fn] : handlers) {
      (void)fn;
      bool found = false;
      for (const auto& s : specs) found |= name == s.name;
      if (!found) {
        std::fprintf(stderr,
                     "BUG: handler for %s missing from experiment_flags()\n",
                     name.c_str());
      }
    }
    return 2;
  }

  for (int i = 1; i < argc; ++i) {
    const auto it = handlers.find(argv[i]);
    if (it == handlers.end()) {
      std::fprintf(stderr, "unknown option %s\n%s", argv[i], usage.c_str());
      return 2;
    }
    const fl::FlagSpec* spec = nullptr;
    for (const auto& s : specs) {
      if (it->first == s.name) spec = &s;
    }
    const char* value = nullptr;
    if (spec->value_name != nullptr) {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n%s", argv[i],
                     usage.c_str());
        return 2;
      }
      value = argv[++i];
    }
    try {
      it->second(value);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "%s: %s\n", it->first.c_str(), e.what());
      return 2;
    }
  }

  if (cfg.dataset == "emnist") cfg.model.classes = 47;
  if (cfg.dataset == "cifar10") {
    cfg.model.channels = 3;
    cfg.model.height = 32;
    cfg.model.width = 32;
  }
  // Real data on disk takes precedence over the synthetic generator.
  std::optional<data::TrainTest> real_data;
  if (!idx_dir.empty()) {
    auto real = data::try_load_mnist_dir(idx_dir, cfg.model.classes);
    if (!real.has_value()) {
      std::fprintf(stderr,
                   "IDX files not found under %s; falling back to the "
                   "synthetic analogue\n",
                   idx_dir.c_str());
    } else {
      std::printf("loaded %zu train / %zu test samples from %s\n",
                  real->train.size(), real->test.size(), idx_dir.c_str());
      real_data = data::TrainTest{std::move(real->train),
                                  std::move(real->test)};
    }
  }

  std::printf("method=%s model=%s dataset=%s het=%s rounds=%zu "
              "clients=%zu/%zu batch=%zu epochs=%zu mu=%.2f seed=%llu "
              "schedule=%s compute=%s availability=%s\n",
              method.c_str(), nn::arch_name(cfg.model.arch),
              cfg.dataset.c_str(),
              data::heterogeneity_name(cfg.heterogeneity), cfg.rounds,
              cfg.clients_per_round, cfg.num_clients, cfg.batch_size,
              cfg.local_epochs, params.mu,
              static_cast<unsigned long long>(cfg.seed),
              cfg.sched.policy.c_str(), cfg.clients.compute_profile.c_str(),
              cfg.clients.availability.c_str());

  const bool distributed = workers_remote > 0 || !connect_list.empty();
  if (elastic && !distributed) {
    std::fprintf(stderr,
                 "--elastic needs a worker pool (--workers-remote or "
                 "--connect)\n");
    return 2;
  }
  // An unknown method, a config the engine rejects (--per-round 0, a
  // dataset too small for the clients) or a --load-model checkpoint that
  // does not load or fit the model ends the run like a bad flag.
  std::optional<fl::Simulation> built;
  std::vector<float> initial;
  try {
    auto algorithm = algorithms::make_algorithm(method, params);
    if (distributed && !algorithm->remote_trainable()) {
      std::fprintf(stderr,
                   "method %s is not remote-trainable (mutable algorithm "
                   "state on the train path; see docs/TRANSPORT.md) — run "
                   "it in-process\n",
                   method.c_str());
      return 2;
    }
    if (real_data.has_value()) {
      built.emplace(cfg, std::move(algorithm), std::move(*real_data));
    } else {
      built.emplace(cfg, std::move(algorithm));
    }
    if (!load_model.empty()) {
      initial = fl::load_parameters_file(load_model);
      built->set_initial_params(initial);
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "%s\n", e.what());
    return 2;
  }
  fl::Simulation& sim = *built;
  if (!load_model.empty()) {
    std::printf("resumed from %s (%zu parameters, accuracy %.2f%%)\n",
                load_model.c_str(), initial.size(),
                100.0 * sim.evaluate(initial));
  }

  // Observability: the runner owns the Tracer (the Simulation holds only a
  // pointer). Off by default; when off nothing below ever touches it and
  // results are bit-identical to a build without tracing.
  std::optional<obs::Tracer> tracer;
  if (cfg.obs.enabled) {
    tracer.emplace(cfg.obs);
    sim.set_tracer(&*tracer);
  }
  // Crash flight recorder: the tracer feeds the event ring; a distributed
  // failure or a fatal signal dumps <dir>/flight-<pid>.json with the last
  // spans this process touched.
  obs::FlightRecorder flight;
  if (!cfg.obs.flight_dir.empty()) {
    tracer->set_flight_recorder(&flight);
    obs::FlightRecorder::arm_process(&flight, cfg.obs.flight_dir, &*tracer);
    std::printf("flight recorder armed (%s/flight-<pid>.json)\n",
                cfg.obs.flight_dir.c_str());
  }
  // In-flight metrics stream: one NDJSON record per due interval, merged
  // across the coordinator and (distributed) every live worker lane.
  const bool streaming =
      cfg.obs.metrics_interval_s >= 0.0 || !cfg.obs.metrics_stream.empty();
  std::optional<obs::MetricsStreamer> streamer;
  if (streaming) {
    const std::string stream_path = cfg.obs.metrics_stream.empty()
                                        ? std::string("metrics.ndjson")
                                        : cfg.obs.metrics_stream;
    // --metrics-ndjson alone defaults to 1 s; an explicit 0 means "every
    // poll point" (MetricsStreamer's own contract).
    const double interval_s = cfg.obs.metrics_interval_s >= 0.0
                                  ? cfg.obs.metrics_interval_s
                                  : 1.0;
    try {
      streamer.emplace(stream_path, interval_s);
    } catch (const std::exception& e) {
      std::fprintf(stderr, "--metrics-interval: %s\n", e.what());
      return 1;
    }
    std::printf("streaming live metrics to %s every %.3g s "
                "(tail with fl_top)\n",
                stream_path.c_str(), interval_s);
  }
  // Lanes of the merged export: coordinator first, then one per worker
  // (filled from the StatsReports collected before shutdown).
  std::vector<obs::TraceLane> lanes;

  fl::RunResult result;
  if (distributed) {
    net::SetupMsg setup;
    setup.method = method;
    setup.algo = params;
    setup.config = cfg;
    setup.idx_dir = real_data.has_value() ? idx_dir : std::string();
    setup.heartbeat_interval_s = heartbeat_interval_s;
    setup.elastic = elastic;
    try {
      net::WorkerPool pool =
          !connect_list.empty()
              ? net::WorkerPool::connect(parse_endpoint_list(connect_list),
                                         setup, sim.param_dim())
              : net::WorkerPool::spawn_local(workers_remote, worker_bin,
                                             setup, sim.param_dim());
      if (elastic) {
        std::printf("distributed (elastic): %zu worker process(es), "
                    "rejoin port %u\n",
                    pool.size(), pool.rejoin_port());
      } else {
        std::printf("distributed: training sharded across %zu worker "
                    "process(es)\n",
                    pool.size());
      }
      std::optional<net::NetHost> host;
      result = sim.run_with_host([&](fl::RoundHost& inner) -> sched::Host& {
        host.emplace(inner, pool, elastic_cfg);
        if (streamer) host->set_metrics(&*streamer);
        return *host;
      });
      if (elastic) {
        const auto& t = host->traffic();
        std::printf("elastic: %llu dispatch frames, %llu replayed, %llu "
                    "stolen, %llu evicted, %llu rejoined\n",
                    static_cast<unsigned long long>(t.dispatch_frames),
                    static_cast<unsigned long long>(t.replayed),
                    static_cast<unsigned long long>(t.stolen),
                    static_cast<unsigned long long>(t.evicted_workers),
                    static_cast<unsigned long long>(t.rejoined_workers));
      }
      if (cfg.obs.enabled) {
        for (auto& lane : pool.collect_stats()) {
          lanes.push_back(std::move(lane));
        }
      }
      pool.shutdown();
    } catch (const std::exception& e) {
      // NetError for transport failures; wire::WireError can still
      // surface from a hostile peer's payload — both end the run with
      // the diagnostic, not a terminate.
      std::fprintf(stderr, "distributed run failed: %s\n", e.what());
      if (!cfg.obs.flight_dir.empty()) {
        const std::string path = flight.dump(cfg.obs.flight_dir, e.what(),
                                             tracer ? &*tracer : nullptr);
        if (!path.empty()) {
          std::fprintf(stderr, "flight dump: %s\n", path.c_str());
        }
      }
      return 1;
    }
  } else if (streamer) {
    // Live streaming without a worker pool: a round sink emits the
    // coordinator lane between rounds, stamped with the engine's virtual
    // clock (reached through the host-wrapper hook).
    fl::RoundHost* engine = nullptr;
    std::uint64_t rounds_done = 0;
    sim.set_round_sink(
        [&](const fl::RoundRecord& r) {
          ++rounds_done;
          if (!streamer->due()) return;
          std::vector<obs::TraceLane> live;
          live.push_back({"coordinator",
                          tracer ? tracer->snapshot() : obs::TraceData{}});
          streamer->emit(engine != nullptr ? engine->clock_seconds() : 0.0,
                         r.round, rounds_done, live);
        },
        /*keep_in_result=*/true);
    result = sim.run_with_host([&](fl::RoundHost& h) -> sched::Host& {
      engine = &h;
      return h;
    });
  } else {
    result = sim.run();
  }

  for (const auto& r : result.history) {
    std::printf("round %3zu  acc %6.2f%%  loss %7.4f  gflops %9.2f\n",
                r.round, 100.0 * r.test_accuracy, r.train_loss,
                r.cum_gflops);
  }
  std::printf("best accuracy: %.2f%%\n",
              100.0 * fl::best_accuracy(result.history));
  std::printf("comm: channel %s  down %.3f MB  up %.3f MB",
              result.channel_name.c_str(), result.comm_stats.mb_down(),
              result.comm_stats.mb_up());
  if (cfg.comm.network.profile != comm::NetProfile::kNone) {
    std::printf("  simulated %.2f s over %s network", result.comm_seconds,
                comm::net_profile_name(cfg.comm.network.profile));
  } else if (cfg.clients.compute_profile != "none") {
    std::printf("  simulated %.2f s (compute only)", result.comm_seconds);
  }
  std::printf("\n");
  if (cfg.sched.policy != "sync" && !result.history.empty()) {
    const auto& last = result.history.back();
    std::printf("schedule %s: last-round staleness mean %.2f max %zu, "
                "dropped %zu, deferred %zu\n",
                result.sched_policy.c_str(), last.mean_staleness,
                last.max_staleness, last.dropped, last.deadline_deferred);
  }
  if (cfg.clients.availability != "always" && !result.history.empty()) {
    std::size_t unavailable = 0;
    for (const auto& r : result.history) unavailable += r.unavailable;
    std::printf("availability %s: %zu dispatches lost to offline clients\n",
                cfg.clients.availability.c_str(), unavailable);
  }

  if (!out_csv.empty()) {
    fl::save_history_csv(out_csv, result.history);
    std::printf("history written to %s\n", out_csv.c_str());
  }
  if (!save_model.empty()) {
    fl::save_parameters(save_model, result.final_params);
    std::printf("final model written to %s\n", save_model.c_str());
  }

  if (cfg.obs.enabled) {
    lanes.insert(lanes.begin(), {"coordinator", tracer->snapshot()});
    try {
      if (!cfg.obs.trace_out.empty()) {
        obs::write_chrome_trace(cfg.obs.trace_out, lanes);
        std::printf("trace written to %s (%zu lane(s); load in Perfetto or "
                    "chrome://tracing)\n",
                    cfg.obs.trace_out.c_str(), lanes.size());
      }
      if (!cfg.obs.metrics_out.empty()) {
        obs::write_metrics_json(cfg.obs.metrics_out, lanes);
        std::printf("metrics written to %s\n", cfg.obs.metrics_out.c_str());
      }
    } catch (const std::exception& e) {
      std::fprintf(stderr, "observability export failed: %s\n", e.what());
      return 1;
    }
  }
  return 0;
}
