// The benchmark's workloads and one trial of each: build the engine and
// its transport, run the round loop under a TimedHost, check the outputs.
#pragma once

#include <array>
#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "algorithms/params.h"
#include "fl/config.h"
#include "timed_host.h"

namespace perfbench {

/// Closed interval an output must fall in.
struct Band {
  double lo = 0.0;
  double hi = 0.0;
  bool contains(double x) const { return x >= lo && x <= hi; }
};

struct Workload {
  std::string name;
  std::string method = "FedTrip";
  fedtrip::algorithms::AlgoParams algo;
  /// Everything but the seed, which each trial sets.
  fl::ExperimentConfig cfg;
  /// WorkerServer threads behind a socket pool; 0 runs in-process.
  std::size_t socket_workers = 0;
  /// Threads that train: the in-process pool, or all worker pools.
  std::size_t training_threads = 0;
  /// Test accuracy that ends time-to-target (first evaluated round at or
  /// above it).
  double target_accuracy = 0.0;
  /// Seed of the reference experiment that time-to-target is measured on:
  /// how many rounds reach the target is a property of the seed, not of
  /// the program's speed.
  std::uint64_t reference_seed = 42;
  /// Output bands of a full-length trial, recorded when the benchmark was
  /// made (over many seeds, and for the reference seed) and widened so a
  /// change of reduction order stays inside.
  Band final_loss;
  Band final_accuracy;
  Band ref_final_loss;
  Band ref_final_accuracy;
  Band ref_rounds_to_target;
};

/// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name);
const std::vector<std::string>& workload_names();

/// Seed of trial `i` of a run started with `seed`: the seed itself for
/// trial 0, independent derived seeds after it.
std::uint64_t trial_seed(std::uint64_t seed, std::size_t i);

struct TrialOptions {
  bool traced = false;
  /// Stop at the first dispatch: a set-up probe.
  bool setup_only = false;
  /// Rounds to run instead of the workload's (warm-up); skips the bands.
  std::size_t rounds = 0;
  /// Runs a socket workload in-process (the transport replay).
  bool in_process = false;
  /// Red-path self-test: sleep delay_s inside every delay_call.
  std::optional<Call> delay_call;
  double delay_s = 0.0;
  /// Traced only: time direct evaluate and make_shard calls afterwards.
  bool direct_calls = false;
};

/// Socket traffic of one trial (net::NetHost::Traffic, flattened).
struct NetCounts {
  std::uint64_t frames = 0;
  std::uint64_t down_raw_bytes = 0;
  std::uint64_t down_wire_bytes = 0;
  std::uint64_t up_raw_bytes = 0;
  std::uint64_t up_wire_bytes = 0;
  std::uint64_t encoded_vecs = 0;
};

struct Trial {
  std::uint64_t seed = 0;
  /// Construction start to the first dispatch, and the two timed parts
  /// of it: the Simulation constructor and make_transport.
  double setup_s = 0.0;
  double construct_s = 0.0;
  double connect_s = 0.0;
  /// First dispatch to the end of the last aggregation.
  double loop_s = 0.0;
  /// Wall time of every aggregation round; they tile the loop.
  std::vector<double> round_s;
  std::optional<double> time_to_target_s;
  std::size_t rounds_to_target = 0;
  double final_loss = 0.0;
  double final_accuracy = 0.0;
  std::vector<float> final_params;
  HostCounts counts;
  std::uint64_t comm_down_bytes = 0;
  std::uint64_t comm_up_bytes = 0;
  NetCounts net;
  double setup_rss_mb = 0.0;
  /// Highest resident memory from the trial's start to its end.
  double peak_rss_mb = 0.0;
  /// Traced only.
  std::array<CallTimes, kNumCalls> times;
  double train_cpu_s = 0.0;
  std::vector<double> evaluate_s;    // direct evaluate calls
  std::vector<double> make_shard_s;  // direct make_shard calls
  /// Output checks that failed (empty = correct).
  std::vector<std::string> failures;
};

/// Runs one trial; never throws — a throw becomes a failure.
Trial run_trial(const Workload& w, std::uint64_t seed,
                const TrialOptions& opt);

}  // namespace perfbench
