// RoundHost: the sched::Host the Simulation hands to the configured policy.
//
// Each primitive is one stage of the classic round — select / broadcast /
// train / uplink / aggregate over the Simulation's models, channel, history
// store and data — so the sync policy driving them in legacy order with
// legacy RNG stream keys reproduces Simulation::run_reference() bit for
// bit.
//
// The class is public (rather than an implementation detail of
// simulation.cpp) because it is the in-process half of the remote-host
// contract: net::NetHost wraps a RoundHost and overrides only train(),
// fanning dispatch batches out to worker processes while every stateful
// primitive (channel encode/decode, error-feedback residuals, history
// store, aggregation, the virtual clock) keeps running here on the
// coordinator. That split is what makes a distributed run bit-identical to
// the in-process engine (docs/TRANSPORT.md). The hooks NetHost needs —
// add_flops() for the pre-round FLOPs of remotely-executed training and
// client_history() for shipping per-dispatch history entries — live at the
// bottom.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "fl/simulation.h"
#include "sched/scheduler.h"
#include "tensor/rng.h"

namespace fedtrip::fl {

class RoundHost final : public sched::Host {
 public:
  RoundHost(Simulation& sim, RunResult& result);

  std::size_t num_clients() const override;
  std::size_t clients_per_round() const override;
  std::size_t total_rounds() const override;
  const comm::NetworkModel& network() const override;
  const clients::AvailabilityModel& availability() const override;
  bool compute_enabled() const override;
  double compute_seconds(std::size_t client) const override;
  std::size_t message_bytes(comm::Direction dir) const override;
  std::size_t extra_down_bytes() const override;
  std::size_t extra_up_bytes() const override;

  std::vector<std::size_t> select(std::size_t count,
                                  const std::vector<bool>* busy) override;
  std::shared_ptr<const std::vector<float>> broadcast(
      std::uint64_t key, std::size_t copies, bool alias_ok,
      std::size_t* wire_bytes) override;
  std::vector<ClientUpdate> train(
      const std::vector<sched::Dispatch>& batch) override;
  std::size_t uplink(ClientUpdate& update, std::uint64_t key,
                     const std::vector<float>& sent_from,
                     std::size_t round) override;
  void aggregate(std::vector<ClientUpdate>& updates,
                 const sched::RoundMeta& meta) override;
  /// The Simulation's observability sink (nullptr when tracing is off).
  obs::Tracer* tracer() const override;

  /// Virtual clock at the last aggregation (the run's final comm_seconds).
  double clock_seconds() const { return clock_seconds_; }

  // ---- remote-host hooks (net::NetHost) ----

  /// Accounts the pre-round FLOPs of a batch trained outside this host (a
  /// remote worker), which train() charges for in-process training. Each
  /// update's own FLOPs are charged by uplink(), in consumption order, so
  /// a wrapper that bypasses train() charges only this.
  void add_flops(double flops) { cum_flops_ += flops; }

  /// Historical local model of a client (nullptr before first
  /// participation) — what a wrapper ships to the worker that trains the
  /// client remotely.
  const HistoryEntry* client_history(std::size_t client) const;

 private:
  Simulation& sim_;
  RunResult& result_;
  std::size_t dim_;
  Rng select_rng_;
  Rng comm_rng_;
  double cum_flops_ = 0.0;
  double clock_seconds_ = 0.0;
};

}  // namespace fedtrip::fl
