// Round scheduler: client orchestration on an event-driven virtual clock.
//
// A Scheduler owns the outer loop of an FL run — which clients are
// dispatched when, in what order their updates arrive at the server (fed by
// comm::NetworkModel::client_seconds), and when the server aggregates.
// fl::RoundHost implements the Host interface (broadcast / train / uplink /
// aggregate primitives over the Simulation's workspaces, channel and data),
// and the Simulation delegates its round loop to the configured policy:
//
//   sync     — the classic loop: K clients per round, everyone waited for.
//              Reproduces the pre-scheduler Simulation bit-identically.
//   fastk    — over-select M > K clients, aggregate the K fastest arrivals
//              (virtual-clock order, ties broken by client id), drop the
//              rest.
//   async    — FedBuff-style buffered aggregation: K clients train
//              continuously on possibly-stale global params; the server
//              aggregates every B arrivals with staleness-discounted
//              weights 1/(1+s)^a and immediately re-dispatches the freed
//              slot.
//   deadline — semi-sync hybrid: each round aggregates whatever arrived
//              within T virtual seconds; stragglers stay in flight and fold
//              into later rounds as staleness-discounted async arrivals.
//
// Arrival times combine the network round-trip (comm::NetworkModel) with
// the client's local compute time (clients::ComputeModel), and dispatching
// consults the availability model (clients::AvailabilityModel): offline
// clients are skipped, and the event-driven policies drop in-flight work
// when a client churns off before its upload completes.
//
// Determinism is a hard invariant: arrival times derive only from the
// per-client links/speeds (drawn once from dedicated RNG streams) and
// data-independent wire byte counts, with ties broken by client id — so the
// event trace is identical for any worker count.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "clients/availability.h"
#include "comm/channel.h"
#include "comm/network.h"
#include "fl/types.h"
#include "sched/config.h"

namespace fedtrip::obs {
class Tracer;
}  // namespace fedtrip::obs

namespace fedtrip::sched {

/// One unit of client work handed out by a scheduler: train client
/// `client_id` starting from the broadcast snapshot `params`.
struct Dispatch {
  /// Unique dispatch number across the run (1-based); async policies key
  /// RNG streams by it because a (round, client) pair is not unique there.
  std::size_t seq = 0;
  std::size_t client_id = 0;
  /// Server round the snapshot belongs to (1-based); becomes the training
  /// context's round (FedTrip's participation-gap input).
  std::size_t round = 0;
  /// Key of the per-dispatch training RNG stream (host splits its root).
  std::uint64_t train_key = 0;
  /// Key of the uplink encode RNG stream.
  std::uint64_t up_key = 0;
  /// Decoded broadcast snapshot the client trains from. Shared between the
  /// receivers of one broadcast; kept alive across aggregations for async.
  std::shared_ptr<const std::vector<float>> params;
  /// Virtual seconds at which the snapshot left the server.
  double dispatch_time = 0.0;
};

/// Per-aggregation bookkeeping a policy hands to the host.
struct RoundMeta {
  /// Server round this aggregation produces (1-based, == history round).
  std::size_t round = 0;
  /// Absolute virtual clock at aggregation time (cumulative seconds).
  double clock_seconds = 0.0;
  /// fastk: dispatched updates discarded this round (M - K).
  std::size_t dropped = 0;
  /// Staleness (server rounds between dispatch and aggregation) over the
  /// aggregated updates. Zero under sync/fastk.
  double mean_staleness = 0.0;
  std::size_t max_staleness = 0;
  /// Dispatch attempts lost to offline clients this round: selected-but-
  /// offline skips plus in-flight work dropped when a client churned off.
  std::size_t unavailable = 0;
  /// deadline: this round's dispatches still in flight when the round
  /// closed (they defer to later rounds as staleness-discounted arrivals).
  std::size_t deadline_deferred = 0;
  /// Mean per-update local compute seconds over the aggregated updates
  /// (0 without a compute model) — the compute share of the round's time.
  double mean_compute_seconds = 0.0;
  /// Mean per-update network round-trip seconds over the aggregated
  /// updates (0 without a network model) — the comm share.
  double mean_comm_seconds = 0.0;
};

/// The engine primitives a scheduler drives. Implemented by fl::Simulation;
/// the split keeps sched/ below fl/simulation in the layer DAG (it sees
/// fl's value types but no engine internals).
class Host {
 public:
  virtual ~Host() = default;

  virtual std::size_t num_clients() const = 0;
  virtual std::size_t clients_per_round() const = 0;
  virtual std::size_t total_rounds() const = 0;

  virtual const comm::NetworkModel& network() const = 0;

  /// Availability model consulted at dispatch time (always-available by
  /// default; policies fast-path on availability().always()).
  virtual const clients::AvailabilityModel& availability() const = 0;

  /// Whether a compute-time model is configured. When false,
  /// compute_seconds() is identically zero and round durations reduce
  /// bit-for-bit to the communication-only clock.
  virtual bool compute_enabled() const = 0;

  /// Predicted == charged local-training seconds of one dispatch for
  /// `client`: local samples x epochs x seconds-per-sample x the client's
  /// drawn speed factor. Data-independent, so schedulers rank arrivals
  /// before training runs and the prediction is exact.
  virtual double compute_seconds(std::size_t client) const = 0;

  /// Data-independent wire bytes of one |w| message in `dir` under the
  /// channel's codec (no extras) — what arrival-time prediction uses before
  /// any training has run.
  virtual std::size_t message_bytes(comm::Direction dir) const = 0;

  /// Bytes of the algorithm's raw per-client downlink extras (e.g.
  /// SCAFFOLD's server control variate): 4 * extra_downlink_floats(|w|).
  virtual std::size_t extra_down_bytes() const = 0;

  /// Bytes of the algorithm's raw per-client uplink extras (e.g.
  /// SCAFFOLD's control delta): 4 * extra_uplink_floats(|w|).
  virtual std::size_t extra_up_bytes() const = 0;

  /// Draws `count` distinct clients from the selection stream, sorted by
  /// id. `busy` (optional, size num_clients) excludes in-flight clients;
  /// `count` is clamped to the available pool.
  virtual std::vector<std::size_t> select(std::size_t count,
                                          const std::vector<bool>* busy) = 0;

  /// Encodes the current global params once for `copies` receivers with the
  /// downlink stream keyed by `key`; accounts wire bytes and the
  /// algorithm's downlink extras per copy. Returns the decoded snapshot and
  /// writes per-copy wire bytes (excluding extras) to `*wire_bytes`.
  /// `alias_ok`: the caller consumes the snapshot before the next
  /// aggregation, so a transparent downlink may alias the live global
  /// vector instead of copying (the sync fast path).
  virtual std::shared_ptr<const std::vector<float>> broadcast(
      std::uint64_t key, std::size_t copies, bool alias_ok,
      std::size_t* wire_bytes) = 0;

  /// Trains every dispatch in `batch` (algorithm pre-round phase, then
  /// parallel local training) and accounts the pre-round FLOPs. Updates
  /// align with the batch; each carries its own FLOPs, which uplink()
  /// charges.
  virtual std::vector<fl::ClientUpdate> train(
      const std::vector<Dispatch>& batch) = 0;

  /// Sends one update through the uplink stream keyed by `key`, replacing
  /// its params with what the server decodes; accounts wire bytes, the
  /// update's upload extras and its FLOPs; stores the client's own
  /// (pre-transmit) model in the history store for `round`. Returns
  /// per-copy wire bytes (excluding extras). FLOPs are charged here, in
  /// consumption order, not when the update trained, so training ahead of
  /// an arrival leaves earlier rounds' cumulative GFLOPs unchanged; a
  /// policy uplinks every trained update exactly once.
  virtual std::size_t uplink(fl::ClientUpdate& update, std::uint64_t key,
                             const std::vector<float>& sent_from,
                             std::size_t round) = 0;

  /// Aggregates `updates` into the global model as server round
  /// `meta.round`, advances the virtual clock to `meta.clock_seconds`, and
  /// records metrics/eval on the configured cadence.
  virtual void aggregate(std::vector<fl::ClientUpdate>& updates,
                         const RoundMeta& meta) = 0;

  /// Observability sink, or nullptr when tracing is off (the default).
  /// Policies emit deterministic virtual-clock spans and counters through
  /// it; every site guards with a single null check.
  virtual obs::Tracer* tracer() const { return nullptr; }
};

class Scheduler {
 public:
  virtual ~Scheduler() = default;
  virtual std::string name() const = 0;
  /// Runs the whole experiment loop (total_rounds server rounds).
  virtual void run(Host& host) = 0;
};

using SchedulerPtr = std::unique_ptr<Scheduler>;

}  // namespace fedtrip::sched
