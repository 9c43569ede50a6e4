#include "fl/simulation.h"

#include <algorithm>
#include <optional>
#include <stdexcept>
#include <utility>

#include "clients/registry.h"
#include "comm/registry.h"
#include "fl/round_host.h"
#include "nn/loss.h"
#include "nn/parameter_vector.h"
#include "obs/tracer.h"
#include "sched/registry.h"
#include "tensor/thread_pool.h"
#include "tensor/vec_math.h"

namespace fedtrip::fl {

namespace {

// Warm-up forward so conv layers know their output geometry; required before
// forward_flops_per_sample() is meaningful.
void warm_up(nn::Sequential& model, const data::Dataset& ds) {
  if (ds.size() == 0) return;
  Tensor x = ds.make_batch({0});
  (void)model.forward(x, /*train=*/false);
}

// Shard data modes synthesize per-client training data on their own; only
// the evaluation split is generated here (identical to pool mode's — the
// prototype and test streams don't depend on train_samples).
data::TrainTest generate_for_mode(const ExperimentConfig& config) {
  auto spec = data::spec_by_name(config.dataset, config.data_scale);
  if (config.client_data != "pool") spec.train_samples = 0;
  return data::generate(spec, config.seed);
}

// The layers check input shapes only with assert, which optimized builds
// compile out, so a model that does not fit its data would read and write
// out of bounds. `data` names what the shape came from.
void check_model_fits(const nn::ModelSpec& model, const std::string& data,
                      std::int64_t channels, std::int64_t height,
                      std::int64_t width, std::int64_t classes) {
  if (model.channels == channels && model.height == height &&
      model.width == width && model.classes == classes) {
    return;
  }
  const auto shape = [](std::int64_t c, std::int64_t h, std::int64_t w,
                        std::int64_t k) {
    return std::to_string(c) + "x" + std::to_string(h) + "x" +
           std::to_string(w) + " inputs with " + std::to_string(k) +
           " classes";
  };
  throw std::invalid_argument(
      "model expects " +
      shape(model.channels, model.height, model.width, model.classes) +
      ", but " + data + " has " + shape(channels, height, width, classes));
}

void check_model_fits(const nn::ModelSpec& model, const data::Dataset& ds) {
  check_model_fits(model, "dataset " + ds.name(), ds.channels(), ds.height(),
                   ds.width(), ds.classes());
}

// Samples per forward pass of an evaluating thread.
constexpr std::size_t kEvalSubBatch = 16;
// The batch size of the evaluation formula: accuracy is averaged over
// consecutive batches of this many test samples, weighted by batch size.
constexpr std::size_t kEvalBatch = 128;

}  // namespace

Simulation::Simulation(const ExperimentConfig& config, AlgorithmPtr algorithm)
    : Simulation(config, std::move(algorithm), generate_for_mode(config)) {}

Simulation::Simulation(const ExperimentConfig& config, AlgorithmPtr algorithm,
                       data::TrainTest dataset)
    : config_(config),
      algorithm_(std::move(algorithm)),
      data_(std::move(dataset)),
      partition_(),
      history_(config.num_clients),
      root_rng_(config.seed ^ 0xF37D7431Full) {
  if (config_.clients_per_round == 0 ||
      config_.clients_per_round > config_.num_clients) {
    throw std::invalid_argument(
        "clients_per_round must be in [1, num_clients]");
  }
  const auto spec = data::spec_by_name(config_.dataset, config_.data_scale);
  const bool shard_mode = config_.client_data != "pool";
  check_model_fits(config_.model, data_.test);
  if (!shard_mode) {
    check_model_fits(config_.model, data_.train);
    // Per-client sample budget: the Table II per-client count, clamped so
    // the partition always fits in the generated training split.
    std::size_t per_client = static_cast<std::size_t>(spec.client_samples);
    per_client =
        std::min(per_client, data_.train.size() / config_.num_clients);
    if (per_client == 0) {
      throw std::invalid_argument("dataset too small for num_clients");
    }

    Rng part_rng = root_rng_.split(0xDA7A);
    partition_ =
        data::make_partition(config_.heterogeneity, data_.train,
                             config_.num_clients, per_client, part_rng);

    loaders_.reserve(config_.num_clients);
    for (std::size_t k = 0; k < config_.num_clients; ++k) {
      loaders_.emplace_back(data_.train, partition_[k], config_.batch_size);
    }
  } else {
    if (config_.client_data != "shard" && config_.client_data != "virtual") {
      throw std::invalid_argument("unknown client_data mode: " +
                                  config_.client_data);
    }
    check_model_fits(config_.model, "dataset " + spec.name, spec.channels,
                     spec.height, spec.width, spec.classes);
    const std::size_t per_client =
        config_.shard_samples > 0
            ? config_.shard_samples
            : static_cast<std::size_t>(spec.client_samples);
    synth_ = std::make_unique<clients::ShardSynthesizer>(
        spec, config_.heterogeneity, config_.seed, config_.num_clients,
        per_client);

    if (config_.client_data == "shard") {
      // Materialized reference: every shard built up front, exactly what
      // virtual mode must reproduce bit for bit.
      shard_data_.reserve(config_.num_clients);
      loaders_.reserve(config_.num_clients);
      for (std::size_t k = 0; k < config_.num_clients; ++k) {
        shard_data_.push_back(
            std::make_unique<data::Dataset>(synth_->make_shard(k)));
        loaders_.emplace_back(*shard_data_.back(), config_.batch_size);
      }
    } else {
      if (!algorithm_->remote_trainable()) {
        throw std::invalid_argument(
            "client_data=virtual requires a remote-trainable algorithm (" +
            algorithm_->name() +
            " holds dense per-client state across rounds)");
      }
      virtual_mode_ = true;
    }
  }

  workspaces_ = std::make_unique<WorkspacePool>(
      nn::make_model_factory(config_.model, config_.seed),
      algorithm_->optimizer_kind(), config_.lr, config_.momentum);
  {
    const auto first = workspaces_->checkout();
    warm_up(first->model(), data_.test);
    global_params_ = nn::flatten_parameters(first->model());
    forward_flops_ = first->model().forward_flops_per_sample();
    backward_flops_ = first->model().backward_flops_per_sample();
  }

  // Channel, network and client-heterogeneity models draw from dedicated
  // split streams: configuring them never perturbs partitioning, model
  // init, or training randomness. Shard modes use per-client-stream
  // network/compute draws — O(1) state, and client k's draw is independent
  // of population size and query order.
  channel_ = comm::make_channel(config_.comm);
  if (shard_mode) {
    network_ = std::make_unique<comm::NetworkModel>(
        comm::NetworkModel::per_client_streams(config_.comm.network,
                                               config_.num_clients,
                                               root_rng_.split(0x4E7F10)));
    compute_ = std::make_unique<clients::ComputeModel>(
        clients::ComputeModel::per_client_streams(
            config_.clients, config_.num_clients,
            root_rng_.split(0xC04B07E)));
  } else {
    network_ = std::make_unique<comm::NetworkModel>(
        config_.comm.network, config_.num_clients, root_rng_.split(0x4E7F10));
    compute_ = std::make_unique<clients::ComputeModel>(clients::make_compute(
        config_.clients, config_.num_clients, root_rng_.split(0xC04B07E)));
  }
  availability_ = std::make_unique<clients::AvailabilityModel>(
      clients::make_availability(config_.clients, config_.num_clients,
                                 root_rng_.split(0xAB51E47)));

  algorithm_->initialize(config_.num_clients, global_params_.size());
}

Simulation::~Simulation() = default;

void Simulation::set_tracer(obs::Tracer* tracer) {
  tracer_ = tracer;
  channel_->set_tracer(tracer);
}

void Simulation::set_initial_params(const std::vector<float>& params) {
  if (params.size() != global_params_.size()) {
    throw std::invalid_argument(
        "checkpoint has " + std::to_string(params.size()) +
        " parameters, model expects " +
        std::to_string(global_params_.size()));
  }
  global_params_ = params;
}

ThreadPool* Simulation::training_pool() {
  if (train_pool_ == nullptr) {
    if (config_.workers > 0) {
      own_pool_ = std::make_unique<ThreadPool>(config_.workers);
      train_pool_ = own_pool_.get();
    } else {
      train_pool_ = &ThreadPool::global();
    }
  }
  return train_pool_;
}

double Simulation::evaluate(const std::vector<float>& params) {
  if (params.size() != global_params_.size()) {
    throw std::invalid_argument(
        "evaluate got " + std::to_string(params.size()) +
        " parameters, model expects " +
        std::to_string(global_params_.size()));
  }
  const std::size_t total =
      config_.eval_max_samples > 0
          ? std::min(config_.eval_max_samples, data_.test.size())
          : data_.test.size();
  if (total == 0) return 0.0;

  // One contiguous range of the test samples per training thread; hits[i]
  // records whether sample i was classified correctly.
  const std::size_t sub_batches = (total + kEvalSubBatch - 1) / kEvalSubBatch;
  const std::size_t threads =
      train_pool_ != nullptr ? std::min(train_pool_->size(), sub_batches) : 1;
  const std::size_t range = (total + threads - 1) / threads;
  std::vector<std::uint8_t> hits(total);
  const auto evaluate_range = [&](std::size_t t) {
    const auto ws = workspaces_->checkout();
    nn::Sequential& model = ws->model();
    nn::load_parameters(model, params);
    const std::size_t end = std::min(total, (t + 1) * range);
    std::vector<std::size_t> idx;
    for (std::size_t start = t * range; start < end; start += kEvalSubBatch) {
      idx.resize(std::min(end, start + kEvalSubBatch) - start);
      for (std::size_t i = 0; i < idx.size(); ++i) idx[i] = start + i;
      Tensor logits =
          model.forward(data_.test.make_batch(idx), /*train=*/false);
      nn::mark_correct(logits, data_.test.make_batch_labels(idx),
                       hits.data() + start);
    }
  };
  if (threads == 1) {
    evaluate_range(0);
  } else {
    parallel_for(0, threads, evaluate_range, train_pool_);
  }

  double acc_sum = 0.0;
  for (std::size_t start = 0; start < total; start += kEvalBatch) {
    const std::size_t end = std::min(total, start + kEvalBatch);
    const auto correct = std::count(hits.begin() + start, hits.begin() + end, 1);
    const double n = static_cast<double>(end - start);
    acc_sum += static_cast<double>(correct) / n * n;
  }
  return acc_sum / static_cast<double>(total);
}

void Simulation::init_result(RunResult* result) const {
  if (config_.partition_stats) {
    if (synth_ != nullptr) {
      result->partition_histograms.reserve(config_.num_clients);
      for (std::size_t k = 0; k < config_.num_clients; ++k) {
        result->partition_histograms.push_back(synth_->label_histogram(k));
      }
    } else {
      result->partition_histograms =
          data::partition_histograms(data_.train, partition_);
    }
  }
  result->model_params = static_cast<double>(global_params_.size());
  result->model_forward_flops = forward_flops_;
  result->model_backward_flops = backward_flops_;
  result->channel_name = channel_->name();
}

// ----------------------------------------------------- scheduler adapter
//
// The sched::Host adapter itself lives in fl/round_host.{h,cpp} — it is
// public API now, because the distributed runner (net::NetHost) wraps it.

std::vector<ClientUpdate> Simulation::train_shard(
    const std::vector<ShardWork>& work, double* pre_round_flops) {
  std::vector<ClientContext> contexts;
  contexts.reserve(work.size());
  for (const auto& wk : work) {
    ClientContext ctx;
    ctx.round = wk.d.round;
    ctx.client_id = wk.d.client_id;
    if (!virtual_mode_) ctx.loader = &loaders_[wk.d.client_id];
    ctx.global_params = wk.d.params.get();
    ctx.history = wk.history;
    ctx.local_epochs = config_.local_epochs;
    // Stream keyed by the dispatch: identical for any thread schedule —
    // and for any process, since root_rng_ derives from config.seed alone.
    ctx.rng = root_rng_.split(wk.d.train_key);
    contexts.push_back(std::move(ctx));
  }

  // Virtual mode admits only remote-trainable algorithms, whose pre_round
  // is the no-op default, so no pre-round reads a loader not built yet.
  *pre_round_flops = algorithm_->pre_round(contexts, *workspaces_);

  obs::Tracer* const tr = tracer_;
  std::vector<ClientUpdate> updates(contexts.size());
  parallel_for(
      0, contexts.size(),
      [&](std::size_t i) {
        ClientContext& ctx = contexts[i];
        std::optional<data::Dataset> shard;
        std::optional<data::DataLoader> loader;
        if (virtual_mode_) {
          shard.emplace(synth_->make_shard(ctx.client_id));
          ctx.loader = &loader.emplace(*shard, config_.batch_size);
        }
        const auto ws = workspaces_->checkout();
        ctx.workspace = &*ws;
        obs::WallSpan span(
            tr, "train_shard",
            {{"client", static_cast<double>(ctx.client_id)},
             {"round", static_cast<double>(ctx.round)}});
        updates[i] = algorithm_->train_client(ctx);
        updates[i].client_id = ctx.client_id;
      },
      training_pool());
  return updates;
}

RunResult Simulation::run() { return run_with_host(nullptr); }

RunResult Simulation::run_with_host(const HostWrapper& wrap) {
  auto scheduler =
      sched::make_scheduler(config_.sched, algorithm_->remote_trainable());

  RunResult result;
  init_result(&result);
  result.sched_policy = scheduler->name();

  RoundHost host(*this, result);
  sched::Host& driven = wrap ? wrap(host) : static_cast<sched::Host&>(host);
  scheduler->run(driven);

  result.final_params = global_params_;
  result.comm_stats = channel_->stats();
  result.comm_seconds = host.clock_seconds();
  return result;
}

// ------------------------------------------------------- reference loop
//
// The pre-scheduler synchronous loop, frozen as the executable spec of the
// sync policy. Do not refactor it to share code with the scheduler path:
// its value is being an independent implementation the equivalence test
// compares against. (It predates delta_uplink and ignores that flag.)

std::vector<ClientUpdate> Simulation::run_round(
    std::size_t round, const std::vector<std::size_t>& selected,
    const std::vector<float>& round_params, double* pre_round_flops) {
  std::vector<ClientContext> contexts;
  contexts.reserve(selected.size());
  for (std::size_t k : selected) {
    ClientContext ctx;
    ctx.round = round;
    ctx.client_id = k;
    ctx.loader = &loaders_[k];
    ctx.global_params = &round_params;
    ctx.history = history_.get(k);
    ctx.local_epochs = config_.local_epochs;
    // Stream keyed by (round, client): identical for any thread schedule.
    ctx.rng = root_rng_.split((round << 20) ^ (k + 1));
    contexts.push_back(std::move(ctx));
  }

  *pre_round_flops = algorithm_->pre_round(contexts, *workspaces_);

  std::vector<ClientUpdate> updates(contexts.size());
  parallel_for(
      0, contexts.size(),
      [&](std::size_t i) {
        const auto ws = workspaces_->checkout();
        contexts[i].workspace = &*ws;
        updates[i] = algorithm_->train_client(contexts[i]);
        updates[i].client_id = contexts[i].client_id;
      },
      training_pool());
  return updates;
}

RunResult Simulation::run_reference() {
  if (virtual_mode_) {
    throw std::logic_error(
        "run_reference requires materialized clients "
        "(client_data=pool|shard)");
  }
  RunResult result;
  init_result(&result);
  result.sched_policy = "reference";

  const std::size_t dim = global_params_.size();
  double cum_flops = 0.0;
  double cum_comm_seconds = 0.0;
  Rng select_rng = root_rng_.split(0x5E1EC7);
  // Compression streams live under their own root; even keys drive the
  // round's downlink encode, odd keys the per-client uplink encodes.
  Rng comm_rng = root_rng_.split(0xC0B17E5);

  for (std::size_t t = 1; t <= config_.rounds; ++t) {
    auto selected = select_rng.sample_without_replacement(
        config_.num_clients, config_.clients_per_round);
    std::sort(selected.begin(), selected.end());

    // Broadcast through the channel: one encode, one delivery per selected
    // client. The transparent (identity) path hands clients the global
    // vector itself — bit-identical, no copy.
    Rng down_rng = comm_rng.split(2 * t);
    const std::vector<float>* round_params = &global_params_;
    std::vector<float> bcast;
    std::size_t down_wire = 0;
    if (channel_->lossless(comm::Direction::kDown)) {
      down_wire = channel_->transmit(comm::Direction::kDown, global_params_,
                                     down_rng, selected.size());
    } else {
      bcast = global_params_;
      down_wire = channel_->transmit(comm::Direction::kDown, bcast, down_rng,
                                     selected.size());
      round_params = &bcast;
    }

    double pre_flops = 0.0;
    auto updates = run_round(t, selected, *round_params, &pre_flops);
    cum_flops += pre_flops;

    double loss_sum = 0.0;
    std::size_t extra_up = 0;
    for (const auto& u : updates) {
      cum_flops += u.flops;
      loss_sum += u.train_loss;
      extra_up += u.extra_upload_floats;
    }

    // Uplink: each client's update goes through the channel; the server
    // aggregates what it decodes. Clients keep their own uncompressed local
    // model, so the history store snapshots params before transmission.
    const bool lossy_up = !channel_->lossless(comm::Direction::kUp);
    std::vector<std::vector<float>> local_models;
    if (lossy_up) local_models.resize(updates.size());
    std::vector<std::size_t> up_bytes(updates.size(), 0);
    for (std::size_t i = 0; i < updates.size(); ++i) {
      if (lossy_up) local_models[i] = updates[i].params;
      Rng up_rng =
          comm_rng.split((t << 20) ^ (2 * updates[i].client_id + 1));
      up_bytes[i] = channel_->transmit(comm::Direction::kUp,
                                       updates[i].params, up_rng, 1,
                                       updates[i].client_id);
    }

    // Algorithm extras (control variates, averaged gradients) ride the
    // channel uncompressed.
    const std::size_t extra_down =
        updates.size() * algorithm_->extra_downlink_floats(dim);
    channel_->account_raw(comm::Direction::kDown, extra_down);
    channel_->account_raw(comm::Direction::kUp, extra_up);

    if (network_->enabled()) {
      std::vector<std::size_t> client_up(updates.size());
      for (std::size_t i = 0; i < updates.size(); ++i) {
        client_up[i] = up_bytes[i] + 4 * updates[i].extra_upload_floats;
      }
      const std::size_t client_down =
          down_wire + 4 * algorithm_->extra_downlink_floats(dim);
      cum_comm_seconds +=
          network_->round_seconds(selected, client_down, client_up);
    }

    algorithm_->aggregate(global_params_, updates, t);

    // Historical models: each participating client's freshly-produced local
    // model becomes its ~w_k (Algorithm 1: "generated at the last local
    // training").
    for (std::size_t i = 0; i < updates.size(); ++i) {
      history_.put(updates[i].client_id,
                   lossy_up ? std::move(local_models[i]) : updates[i].params,
                   t);
    }

    if (t % config_.eval_every == 0 || t == config_.rounds) {
      RoundRecord rec;
      rec.round = t;
      rec.test_accuracy = evaluate(global_params_);
      rec.train_loss = loss_sum / static_cast<double>(updates.size());
      rec.cum_gflops = cum_flops / 1e9;
      const auto& stats = channel_->stats();
      rec.cum_comm_mb = stats.total_mb();
      rec.cum_mb_down = stats.mb_down();
      rec.cum_mb_up = stats.mb_up();
      rec.cum_comm_seconds = cum_comm_seconds;
      result.history.push_back(rec);
    }
  }

  result.final_params = global_params_;
  result.comm_stats = channel_->stats();
  result.comm_seconds = cum_comm_seconds;
  return result;
}

}  // namespace fedtrip::fl
