// NetHost: the socket-backed sched::Host.
//
// Wraps the in-process fl::RoundHost and overrides exactly one primitive:
// train() runs the batch's dispatches on the pool's workers, shipping
// each with its broadcast snapshot and history entry, and reassembles the
// returned ClientUpdates into the original batch order — the
// deterministic, seq-ordered form the schedulers expect, bit-identical to
// in-process training because the workers run the same
// Simulation::train_shard from the same seed. Everything else — selection
// RNG, channel encode/decode and error-feedback state, history store,
// aggregation, the virtual clock — delegates to the wrapped RoundHost on
// the coordinator, which is why no policy code knows the difference (the
// documented remote contract of sched::Host; docs/TRANSPORT.md).
//
// train() is one event loop over the worker sockets. Every dispatch is a
// job in a JobTable (queued -> in-flight -> completed), first queued on
// the live slot `client_id % live slots` — the workers' shard rule. The
// pool's Setup picks the fleet mode:
//
//   * fail-fast (the default): one frame per worker carries its whole
//     share, snapshots deduplicated per frame, and the first failure
//     (disconnect, error frame, desynchronised or malformed result)
//     throws NetError with the worker's label and the cause;
//   * elastic: one dispatch per frame, and the loop survives its fleet —
//     any frame refreshes a worker's liveness (WorkerHealth), silence past
//     the deadline or any failure evicts it with a typed reason, an
//     evicted worker's jobs replay onto survivors (safe: a dispatch's
//     result depends only on its config seed, keys, snapshot and history
//     entry), an idle worker steals the tail half of the longest queue,
//     and a dropped worker may rejoin through the pool's listener
//     mid-loop. The run fails only when a job exhausts its attempts or
//     the whole fleet is gone.
//
// FLOPs accounting mirrors the in-process host: train() charges the summed
// pre-round FLOPs, and the wrapped RoundHost's uplink() charges each
// update's FLOPs in consumption order, however the results arrived.
#pragma once

#include <chrono>
#include <cstdint>
#include <vector>

#include "fl/round_host.h"
#include "net/elastic/health.h"
#include "net/pool.h"
#include "sched/scheduler.h"

namespace fedtrip::obs {
class MetricsStreamer;
}  // namespace fedtrip::obs

namespace fedtrip::net {

/// Coordinator-side knobs of an elastic fleet. The heartbeat *interval*
/// is not here: it is the workers' knob and ships to them inside Setup
/// (SetupMsg::heartbeat_interval_s) before the pool exists.
struct ElasticConfig {
  /// Evict a worker silent for longer than this (wall seconds). Must
  /// comfortably exceed the Setup heartbeat interval.
  double worker_deadline_s = 10.0;
};

class NetHost final : public sched::Host {
 public:
  NetHost(fl::RoundHost& inner, WorkerPool& pool, ElasticConfig cfg = {});

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
  std::size_t uplink(fl::ClientUpdate& update, std::uint64_t key,
                     const std::vector<float>& sent_from,
                     std::size_t round) override;
  void aggregate(std::vector<fl::ClientUpdate>& updates,
                 const sched::RoundMeta& meta) override;
  /// The coordinator's tracer (the wrapped RoundHost's Simulation owns
  /// the pointer) — policies see one sink whichever engine runs them.
  obs::Tracer* tracer() const override;

  /// The remote primitive: the event loop described in the file comment.
  std::vector<fl::ClientUpdate> train(
      const std::vector<sched::Dispatch>& batch) override;

  /// Socket traffic and fleet events accumulated across train() calls
  /// (the numbers the net.wire.* and net.elastic.* counters report;
  /// exposed as a struct so benches and tests read them without a
  /// Tracer). The lifecycle counts stay 0 under a fail-fast pool; under an
  /// elastic one they depend on wall-clock timing.
  struct Traffic {
    std::uint64_t dispatch_frames = 0;
    WireStats down;  // coordinator -> worker (dispatch batches)
    WireStats up;    // worker -> coordinator (train results)
    std::uint64_t replayed = 0;  // in-flight jobs requeued
    std::uint64_t stolen = 0;    // jobs moved by work-stealing
    std::uint64_t evicted_workers = 0;
    std::uint64_t rejoined_workers = 0;
    std::uint64_t heartbeats = 0;
    std::uint64_t duplicate_results = 0;  // replay-idempotence hits
  };
  const Traffic& traffic() const { return traffic_; }
  const WorkerHealth& health() const { return health_; }

  /// Attaches the in-flight metrics stream (non-owning; nullptr detaches).
  /// When the streamer is due, train() polls every connected worker's
  /// stats (WorkerPool::collect_stats) *between* batches — the workers
  /// are idle then — and appends one merged snapshot record. Pure
  /// observer: dispatch bytes, RNG streams and update order are untouched
  /// (tests/integration/obs_equivalence_test.cpp).
  void set_metrics(obs::MetricsStreamer* metrics) { metrics_ = metrics; }

 private:
  /// Monotonic seconds since construction — the axis WorkerHealth runs on.
  double now() const;

  fl::RoundHost& inner_;
  WorkerPool& pool_;
  ElasticConfig cfg_;
  WorkerHealth health_;
  Traffic traffic_;
  std::uint64_t batch_seq_ = 0;
  std::chrono::steady_clock::time_point epoch_;
  obs::MetricsStreamer* metrics_ = nullptr;
};

}  // namespace fedtrip::net
