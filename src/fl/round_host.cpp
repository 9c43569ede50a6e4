#include "fl/round_host.h"

#include <algorithm>
#include <cassert>

#include "obs/tracer.h"
#include "tensor/thread_pool.h"
#include "tensor/vec_math.h"

namespace fedtrip::fl {

RoundHost::RoundHost(Simulation& sim, RunResult& result)
    : sim_(sim),
      result_(result),
      dim_(sim.global_params_.size()),
      select_rng_(sim.root_rng_.split(0x5E1EC7)),
      comm_rng_(sim.root_rng_.split(0xC0B17E5)) {}

std::size_t RoundHost::num_clients() const {
  return sim_.config_.num_clients;
}
std::size_t RoundHost::clients_per_round() const {
  return sim_.config_.clients_per_round;
}
std::size_t RoundHost::total_rounds() const { return sim_.config_.rounds; }
const comm::NetworkModel& RoundHost::network() const {
  return *sim_.network_;
}
const clients::AvailabilityModel& RoundHost::availability() const {
  return *sim_.availability_;
}
bool RoundHost::compute_enabled() const { return sim_.compute_->enabled(); }
double RoundHost::compute_seconds(std::size_t client) const {
  // client_num_samples never touches a shard — in virtual mode none exists
  // until the dispatch trains.
  return sim_.compute_->train_seconds(client,
                                      sim_.client_num_samples(client),
                                      sim_.config_.local_epochs);
}
std::size_t RoundHost::message_bytes(comm::Direction dir) const {
  return sim_.channel_->message_bytes(dir, dim_);
}
std::size_t RoundHost::extra_down_bytes() const {
  return 4 * sim_.algorithm_->extra_downlink_floats(dim_);
}
std::size_t RoundHost::extra_up_bytes() const {
  return 4 * sim_.algorithm_->extra_uplink_floats(dim_);
}

const HistoryEntry* RoundHost::client_history(std::size_t client) const {
  return sim_.history_.get(client);
}

obs::Tracer* RoundHost::tracer() const { return sim_.tracer(); }

std::vector<std::size_t> RoundHost::select(std::size_t count,
                                           const std::vector<bool>* busy) {
  std::vector<std::size_t> selected;
  if (busy == nullptr) {
    selected = select_rng_.sample_without_replacement(
        sim_.config_.num_clients, count);
  } else {
    // Draws ranks among the idle clients and maps rank r to the r-th idle
    // id. With busy ids b_0 < b_1 < ..., b_j - j idle ids lie below b_j,
    // so rank r skips exactly the busy ids whose count is <= r.
    std::vector<std::size_t> idle_below_busy;
    for (std::size_t k = 0; k < busy->size(); ++k) {
      if ((*busy)[k]) idle_below_busy.push_back(k - idle_below_busy.size());
    }
    const std::size_t idle = busy->size() - idle_below_busy.size();
    count = std::min(count, idle);
    for (std::size_t r : select_rng_.sample_without_replacement(idle, count)) {
      selected.push_back(r + static_cast<std::size_t>(
                                 std::upper_bound(idle_below_busy.begin(),
                                                  idle_below_busy.end(), r) -
                                 idle_below_busy.begin()));
    }
  }
  std::sort(selected.begin(), selected.end());
  return selected;
}

std::shared_ptr<const std::vector<float>> RoundHost::broadcast(
    std::uint64_t key, std::size_t copies, bool alias_ok,
    std::size_t* wire_bytes) {
  Rng down_rng = comm_rng_.split(key);
  std::shared_ptr<const std::vector<float>> snapshot;
  if (sim_.channel_->lossless(comm::Direction::kDown)) {
    *wire_bytes = sim_.channel_->transmit(
        comm::Direction::kDown, sim_.global_params_, down_rng, copies);
    if (alias_ok) {
      // Non-owning view of the live global vector: valid because the
      // caller consumes it before the next aggregation mutates it.
      snapshot = std::shared_ptr<const std::vector<float>>(
          std::shared_ptr<void>(), &sim_.global_params_);
    } else {
      snapshot = std::make_shared<std::vector<float>>(sim_.global_params_);
    }
  } else {
    auto bcast = std::make_shared<std::vector<float>>(sim_.global_params_);
    *wire_bytes = sim_.channel_->transmit(comm::Direction::kDown, *bcast,
                                          down_rng, copies);
    snapshot = std::move(bcast);
  }
  sim_.channel_->account_raw(
      comm::Direction::kDown,
      copies * sim_.algorithm_->extra_downlink_floats(dim_));
  return snapshot;
}

std::vector<ClientUpdate> RoundHost::train(
    const std::vector<sched::Dispatch>& batch) {
  obs::WallSpan span(sim_.tracer(), "train_batch",
                     {{"dispatches", static_cast<double>(batch.size())}});
  std::vector<ShardWork> work;
  work.reserve(batch.size());
  for (const auto& d : batch) {
    work.push_back(ShardWork{d, sim_.history_.get(d.client_id)});
  }
  double pre_flops = 0.0;
  auto updates = sim_.train_shard(work, &pre_flops);
  cum_flops_ += pre_flops;
  return updates;
}

std::size_t RoundHost::uplink(ClientUpdate& update, std::uint64_t key,
                              const std::vector<float>& sent_from,
                              std::size_t round) {
  cum_flops_ += update.flops;
  Rng up_rng = comm_rng_.split(key);
  // Algorithms that never read history (FedAvg at a million clients) skip
  // the store entirely — the entries would pin O(participants x |w|)
  // floats for nothing. Never changes CSV/params/bytes: the store only
  // feeds ClientContext::history, which such algorithms ignore.
  const bool keep_history = sim_.algorithm_->uses_history();
  std::size_t bytes;
  if (sim_.channel_->lossless(comm::Direction::kUp)) {
    // Lossless: the decode is bit-exact whether or not a delta was
    // framed, so skip the delta round-trip (x - ref + ref re-rounds).
    bytes = sim_.channel_->transmit(comm::Direction::kUp, update.params,
                                    up_rng, 1, update.client_id);
    if (keep_history) {
      sim_.history_.put(update.client_id, update.params, round);
    }
  } else {
    // The client keeps its own uncompressed model as its history entry;
    // the server aggregates what it decodes.
    std::vector<float> local;
    if (keep_history) local = update.params;
    if (sim_.config_.comm.delta_uplink) {
      vec::sub(update.params, sent_from, update.params);
      bytes = sim_.channel_->transmit(comm::Direction::kUp, update.params,
                                      up_rng, 1, update.client_id);
      vec::add(update.params, sent_from, update.params);
    } else {
      bytes = sim_.channel_->transmit(comm::Direction::kUp, update.params,
                                      up_rng, 1, update.client_id);
    }
    if (keep_history) {
      sim_.history_.put(update.client_id, std::move(local), round);
    }
  }
  sim_.channel_->account_raw(comm::Direction::kUp,
                             update.extra_upload_floats);
  return bytes;
}

void RoundHost::aggregate(std::vector<ClientUpdate>& updates,
                          const sched::RoundMeta& meta) {
  assert(!updates.empty());
  obs::WallSpan span(sim_.tracer(), "aggregate",
                     {{"round", static_cast<double>(meta.round)},
                      {"updates", static_cast<double>(updates.size())}});
  double loss_sum = 0.0;
  for (const auto& u : updates) {
    loss_sum += u.train_loss;
    if (sim_.config_.track_participation) {
      result_.participation.record(u.client_id);
    }
  }

  sim_.algorithm_->aggregate(sim_.global_params_, updates, meta.round);
  clock_seconds_ = meta.clock_seconds;

  const std::size_t t = meta.round;
  if (t % sim_.config_.eval_every == 0 || t == sim_.config_.rounds) {
    RoundRecord rec;
    rec.round = t;
    {
      obs::WallSpan eval_span(sim_.tracer(), "eval",
                              {{"round", static_cast<double>(t)}});
      rec.test_accuracy = sim_.evaluate(sim_.global_params_);
    }
    rec.train_loss = loss_sum / static_cast<double>(updates.size());
    rec.cum_gflops = cum_flops_ / 1e9;
    const auto& stats = sim_.channel_->stats();
    rec.cum_comm_mb = stats.total_mb();
    rec.cum_mb_down = stats.mb_down();
    rec.cum_mb_up = stats.mb_up();
    rec.cum_comm_seconds = clock_seconds_;
    rec.mean_staleness = meta.mean_staleness;
    rec.max_staleness = meta.max_staleness;
    rec.dropped = meta.dropped;
    rec.unavailable = meta.unavailable;
    rec.deadline_deferred = meta.deadline_deferred;
    rec.mean_compute_seconds = meta.mean_compute_seconds;
    rec.mean_comm_seconds = meta.mean_comm_seconds;
    if (sim_.round_sink_) {
      sim_.round_sink_(rec);
      if (sim_.sink_keeps_history_) result_.history.push_back(rec);
    } else {
      result_.history.push_back(rec);
    }
  }
}

}  // namespace fedtrip::fl
