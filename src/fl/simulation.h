// Simulation: the FL engine around the paper's Algorithm 1.
//
// The Simulation owns the clients' data, the pool of model workspaces, the
// comm channel and the history store, and exposes them to a
// sched::Scheduler as Host primitives (select / broadcast / train / uplink /
// aggregate). The configured policy (sync / fastk / async / deadline, see
// src/sched/) owns the outer loop: who trains when on the event-driven
// virtual clock fed by comm::NetworkModel. Client training uses pre-split
// RNG streams keyed per dispatch, so results are bit-identical for any
// worker count, and the default sync policy reproduces the classic
// wait-for-everyone loop (run_reference) bit for bit.
#pragma once

#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "clients/availability.h"
#include "clients/compute.h"
#include "clients/virtual_shard.h"
#include "comm/channel.h"
#include "comm/network.h"
#include "data/dataloader.h"
#include "data/partition.h"
#include "data/synthetic.h"
#include "fl/algorithm.h"
#include "fl/config.h"
#include "fl/history.h"
#include "fl/types.h"
#include "fl/workspace.h"
#include "sched/scheduler.h"
#include "tensor/thread_pool.h"

namespace fedtrip::fl {

class RoundHost;

struct RunResult {
  std::vector<RoundRecord> history;
  /// Parameters of the final global model.
  std::vector<float> final_params;
  /// Per-client label histograms of the training partition (Fig 4 data).
  std::vector<std::vector<std::int64_t>> partition_histograms;
  double model_params = 0.0;          // |w|
  double model_forward_flops = 0.0;   // FP per sample
  double model_backward_flops = 0.0;  // BP per sample
  /// Final channel accounting (wire bytes per direction, message counts).
  comm::ChannelStats comm_stats;
  /// Virtual clock at the end of the run (0 without a network model).
  double comm_seconds = 0.0;
  /// "down:<codec>/up:<codec>" of the channel the run went through.
  std::string channel_name;
  /// Scheduling policy that orchestrated the rounds ("sync" by default).
  std::string sched_policy;
  /// Per-client count of aggregated updates over the run — the
  /// participation-fairness data (fastk starving the slow tail shows up
  /// here). Sparse: only participants occupy memory. Filled by run() unless
  /// config.track_participation is off; empty from run_reference().
  ParticipationMap participation;
};

/// One unit of the shard-executable train core: a scheduler dispatch plus
/// the history entry it trains against. The in-process host passes its own
/// store's entry; a distributed worker passes the entry shipped inside the
/// dispatch message (src/net/) — both paths run the identical
/// Simulation::train_shard code.
struct ShardWork {
  sched::Dispatch d;
  const HistoryEntry* history = nullptr;
};

class Simulation {
 public:
  /// Generates the configured synthetic dataset analogue.
  Simulation(const ExperimentConfig& config, AlgorithmPtr algorithm);

  /// Uses caller-provided data (e.g. real MNIST loaded via data::load_idx).
  /// config.dataset / data_scale are ignored for data generation but the
  /// per-client sample budget still follows the named spec when it matches.
  Simulation(const ExperimentConfig& config, AlgorithmPtr algorithm,
             data::TrainTest dataset);
  // Client loaders hold the address of the pooled training data.
  Simulation(const Simulation&) = delete;
  Simulation& operator=(const Simulation&) = delete;
  ~Simulation();

  /// Runs the configured number of rounds under the configured scheduling
  /// policy and returns the recorded history.
  RunResult run();

  /// Host wrapper hook: given the in-process RoundHost, returns the Host
  /// the scheduler should actually drive. The distributed runner
  /// (net::NetHost) wraps train() with a worker-pool fan-out and delegates
  /// everything else; the returned reference must stay valid for the run.
  using HostWrapper = std::function<sched::Host&(RoundHost&)>;

  /// run() with `wrap` interposed between the engine and the scheduler
  /// (nullptr = in-process, identical to run()).
  RunResult run_with_host(const HostWrapper& wrap);

  /// The shard-executable train core: algorithm pre-round phase over
  /// `work`, then parallel local training with per-dispatch RNG streams
  /// (FLOPs of the pre-round phase go to *pre_round_flops; per-update
  /// FLOPs ride each ClientUpdate), one workspace per running task. Pure
  /// function of (config seed, work): both the in-process host and a
  /// remote worker process produce bit-identical updates from equal inputs.
  std::vector<ClientUpdate> train_shard(const std::vector<ShardWork>& work,
                                        double* pre_round_flops);

  /// |w| of the configured model — what a remote worker cross-checks
  /// against the coordinator during the transport handshake.
  std::size_t param_dim() const { return global_params_.size(); }

  /// Attaches an observability sink (non-owning; the caller keeps it alive
  /// for the run) and propagates it to the channel. nullptr detaches.
  /// Tracing never perturbs RNG streams or accounting — a traced run is
  /// bit-identical to an untraced one.
  void set_tracer(obs::Tracer* tracer);
  obs::Tracer* tracer() const { return tracer_; }

  /// Streams each RoundRecord to `sink` the moment it is produced (the
  /// streaming-CSV path for long runs). With keep_in_result false,
  /// RunResult::history stays empty — O(1) record memory regardless of
  /// round count. Never changes what the records contain; run_reference()
  /// ignores the sink (it is the frozen legacy spec).
  using RoundSink = std::function<void(const RoundRecord&)>;
  void set_round_sink(RoundSink sink, bool keep_in_result = false) {
    round_sink_ = std::move(sink);
    sink_keeps_history_ = keep_in_result;
  }

  /// Training samples of one client — constant per run in the shard data
  /// modes (no shard needed), the client's loader size in pool mode.
  /// Schedulers predict compute time from this before any shard exists.
  std::size_t client_num_samples(std::size_t client) const {
    return synth_ ? synth_->samples_per_client() : loaders_[client].size();
  }

  /// The shard synthesizer (nullptr in pool mode) — what property tests
  /// drive directly.
  const clients::ShardSynthesizer* shard_synthesizer() const {
    return synth_.get();
  }

  /// The pre-scheduler synchronous loop, preserved verbatim as the
  /// executable specification of the sync policy: a run() with the default
  /// SchedConfig must match it bit for bit (enforced by
  /// tests/integration/sched_equivalence_test.cpp). Ignores config.sched.
  RunResult run_reference();

  /// Evaluates parameters on the held-out test set (accuracy in [0, 1]):
  /// the mean over 128-sample batches of each batch's accuracy, weighted by
  /// its size. Once this process has trained locally, the test samples are
  /// split into contiguous ranges over the training threads, each in its
  /// own workspace; before that (a socket coordinator never trains
  /// locally) it runs on the calling thread. Per-sample predictions do not
  /// depend on which samples share a forward pass, so the result is the
  /// same double either way. Throws std::invalid_argument when `params`
  /// does not have the configured model's size.
  double evaluate(const std::vector<float>& params);

  /// Replaces the initial global model (e.g. loaded from a checkpoint via
  /// fl::load_parameters_file) before run()/run_reference() — the resume
  /// path. Throws std::invalid_argument on a size mismatch with the
  /// configured model.
  void set_initial_params(const std::vector<float>& params);

  const data::Dataset& test_data() const { return data_.test; }
  const data::Partition& partition() const { return partition_; }
  const comm::Channel& channel() const { return *channel_; }
  const comm::NetworkModel& network() const { return *network_; }
  const clients::ComputeModel& compute() const { return *compute_; }
  const clients::AvailabilityModel& availability() const {
    return *availability_;
  }
  /// The model workspaces; size() is the peak number held at once.
  const WorkspacePool& workspaces() const { return *workspaces_; }

 private:
  friend class RoundHost;  // the sched::Host adapter (simulation.cpp)

  std::vector<ClientUpdate> run_round(std::size_t round,
                                      const std::vector<std::size_t>& selected,
                                      const std::vector<float>& round_params,
                                      double* pre_round_flops);
  /// Shared head of run()/run_reference(): partition stats, model FLOPs.
  void init_result(RunResult* result) const;

  /// The pool local training runs on: a dedicated pool of config.workers
  /// threads, started on the first call, or the global pool when workers
  /// is 0. Also marks this process as one that trains, which evaluate()
  /// reads.
  ThreadPool* training_pool();

  ExperimentConfig config_;
  AlgorithmPtr algorithm_;
  data::TrainTest data_;
  data::Partition partition_;
  /// Client k is its loader loaders_[k]; empty in virtual mode.
  std::vector<data::DataLoader> loaders_;
  /// Shard data modes: the per-client synthesizer (nullptr in pool mode)
  /// and the materialized shards loaders_ read in "shard" mode.
  std::unique_ptr<clients::ShardSynthesizer> synth_;
  std::vector<std::unique_ptr<data::Dataset>> shard_data_;
  bool virtual_mode_ = false;
  RoundSink round_sink_;
  bool sink_keeps_history_ = false;
  /// Every model of the process; the first, warmed up at construction,
  /// gives the initial parameters and the FLOP costs.
  std::unique_ptr<WorkspacePool> workspaces_;
  double forward_flops_ = 0.0;   // per sample
  double backward_flops_ = 0.0;  // per sample
  HistoryStore history_;
  std::vector<float> global_params_;
  std::unique_ptr<comm::Channel> channel_;
  std::unique_ptr<comm::NetworkModel> network_;
  std::unique_ptr<clients::ComputeModel> compute_;
  std::unique_ptr<clients::AvailabilityModel> availability_;
  Rng root_rng_;
  /// Dedicated pool when config.workers > 0, started by the first local
  /// training; otherwise the global pool.
  std::unique_ptr<ThreadPool> own_pool_;
  /// The pool that has run local training (nullptr until the first).
  ThreadPool* train_pool_ = nullptr;
  /// Observability sink (non-owning, nullptr = tracing off).
  obs::Tracer* tracer_ = nullptr;
};

}  // namespace fedtrip::fl
