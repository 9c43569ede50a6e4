#include "sched/policies.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <functional>
#include <stdexcept>
#include <tuple>

#include "obs/tracer.h"

namespace fedtrip::sched {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr double kEpsilon = std::numeric_limits<double>::epsilon();
constexpr std::size_t kNoCap = std::numeric_limits<std::size_t>::max();

// Cap on "wait for a client to come back online" retry loops: with fresh
// selection draws every attempt this is unreachable unless the availability
// model never brings anyone back.
constexpr std::size_t kStarveGuard = 100000;

// Legacy stream keys of the pre-scheduler Simulation loop: sync must keep
// them verbatim for bit-identity; fastk reuses them because a (round,
// client) pair is unique there too.
std::uint64_t train_key(std::size_t round, std::size_t client) {
  return (static_cast<std::uint64_t>(round) << 20) ^ (client + 1);
}
std::uint64_t up_key(std::size_t round, std::size_t client) {
  return (static_cast<std::uint64_t>(round) << 20) ^ (2 * client + 1);
}

std::vector<Dispatch> make_batch(
    const std::vector<std::size_t>& clients, std::size_t round,
    const std::shared_ptr<const std::vector<float>>& params) {
  std::vector<Dispatch> batch;
  batch.reserve(clients.size());
  for (std::size_t k : clients) {
    Dispatch d;
    d.client_id = k;
    d.round = round;
    d.train_key = train_key(round, k);
    d.up_key = up_key(round, k);
    d.params = params;
    batch.push_back(std::move(d));
  }
  return batch;
}

/// Earliest comeback among the idle clients (kInf when nobody ever
/// returns) — where the clock jumps when a whole dispatch found everyone
/// offline.
double earliest_comeback(const Host& host, const std::vector<bool>* busy,
                         double now) {
  double t = kInf;
  for (std::size_t k = 0; k < host.num_clients(); ++k) {
    if (busy != nullptr && (*busy)[k]) continue;
    t = std::min(t, host.availability().next_available_time(k, now));
  }
  return t;
}

/// Earliest instant at which some idle client's availability state
/// *changes* (an offline client comes back, an online client churns off).
/// The doomed-skipping deadline dispatch waits on this instead of
/// earliest_comeback: when every online client's remaining window is too
/// short, the comeback of an online client is "now" and the clock would
/// never advance — but after the client churns off and returns, its fresh
/// window may fit, so the state-change instant always makes progress
/// (online clients' windows end strictly later than now; an infinite
/// window can never be doomed, so it never lands in this wait).
double earliest_availability_change(const Host& host,
                                    const std::vector<bool>* busy,
                                    double now) {
  const auto& avail = host.availability();
  double t = kInf;
  for (std::size_t k = 0; k < host.num_clients(); ++k) {
    if (busy != nullptr && (*busy)[k]) continue;
    t = std::min(t, avail.available(k, now)
                        ? avail.online_until(k, now)
                        : avail.next_available_time(k, now));
  }
  return t;
}

/// Draws `count` clients and keeps the ones online at *clock, counting
/// offline skips in *unavailable (the server's dispatch ping goes
/// unanswered). When every sampled client is offline, advances *clock to
/// the earliest comeback among idle clients and re-samples — fresh draws
/// plus clock progress guarantee termination whenever anyone ever returns.
/// With the always-available default this is exactly one host.select call.
/// Emits the deterministic "wait" virtual span when a policy jumps the
/// clock forward to an availability event (no-op for zero-length jumps).
void trace_wait(Host& host, double from, double to) {
  obs::Tracer* tr = host.tracer();
  if (tr == nullptr || to <= from) return;
  tr->virtual_span("wait", from, to);
  tr->count("sched.waits");
}

std::vector<std::size_t> select_online(Host& host, std::size_t count,
                                       const std::vector<bool>* busy,
                                       double* clock,
                                       std::size_t* unavailable) {
  const auto& avail = host.availability();
  auto selected = host.select(count, busy);
  if (avail.always() || selected.empty()) return selected;
  for (std::size_t attempt = 0; attempt < kStarveGuard; ++attempt) {
    std::vector<std::size_t> online;
    online.reserve(selected.size());
    for (std::size_t c : selected) {
      if (avail.available(c, *clock)) {
        online.push_back(c);
      } else {
        ++*unavailable;
        if (obs::Tracer* tr = host.tracer()) {
          tr->count("sched.skipped_offline");
        }
      }
    }
    if (!online.empty()) return online;
    const double t = earliest_comeback(host, busy, *clock);
    if (!std::isfinite(t)) {
      throw std::runtime_error(
          "availability: no client ever comes back online");
    }
    trace_wait(host, *clock, std::max(*clock, t));
    *clock = std::max(*clock, t);
    selected = host.select(count, busy);
    if (selected.empty()) return selected;
  }
  throw std::runtime_error("availability: client selection starved");
}

// Synchronous round tail shared by sync and fastk: uplink every update,
// advance the clock by the slowest participant (network round-trip plus
// local compute), aggregate. `round_start` is the virtual clock when the
// round's dispatch went out — the left edge of its trace spans.
void finish_round(Host& host, std::vector<Dispatch>& batch,
                  std::vector<fl::ClientUpdate>& updates,
                  const std::vector<std::size_t>& participants,
                  std::size_t round, std::size_t down_wire, double* clock,
                  std::size_t dropped, std::size_t unavailable,
                  double round_start) {
  std::vector<std::size_t> up_wire(updates.size(), 0);
  for (std::size_t i = 0; i < updates.size(); ++i) {
    up_wire[i] =
        host.uplink(updates[i], batch[i].up_key, *batch[i].params, round);
  }

  const bool net = host.network().enabled();
  const bool comp = host.compute_enabled();
  obs::Tracer* tr = host.tracer();

  RoundMeta meta;
  meta.round = round;
  meta.dropped = dropped;
  meta.unavailable = unavailable;

  // Per-participant arrival offsets relative to round_start (zero without
  // time models) — also the per-dispatch trace spans.
  std::vector<double> rt(participants.size(), 0.0);
  std::vector<double> cs(participants.size(), 0.0);

  if ((net || comp) && !participants.empty()) {
    const std::size_t client_down = down_wire + host.extra_down_bytes();
    std::vector<std::size_t> client_up(updates.size(), 0);
    for (std::size_t i = 0; i < updates.size(); ++i) {
      client_up[i] = up_wire[i] + 4 * updates[i].extra_upload_floats;
      if (net) {
        rt[i] = host.network().client_seconds(participants[i], client_down,
                                              client_up[i]);
      }
      if (comp) cs[i] = host.compute_seconds(participants[i]);
    }
    if (!comp) {
      // Communication-only: the round_seconds accounting call kept
      // verbatim, so runs without a compute model stay bit-identical to
      // the reference loop.
      *clock += host.network().round_seconds(participants, client_down,
                                             client_up);
    } else {
      double slowest = 0.0;
      std::size_t total_bytes = 0;
      for (std::size_t i = 0; i < participants.size(); ++i) {
        slowest = std::max(slowest, rt[i] + cs[i]);
        total_bytes += client_down + client_up[i];
      }
      *clock += slowest +
                (net ? host.network().server_seconds(total_bytes) : 0.0);
    }
    double comm_sum = 0.0, comp_sum = 0.0;
    for (std::size_t i = 0; i < participants.size(); ++i) {
      comm_sum += rt[i];
      comp_sum += cs[i];
    }
    meta.mean_comm_seconds =
        comm_sum / static_cast<double>(participants.size());
    meta.mean_compute_seconds =
        comp_sum / static_cast<double>(participants.size());
  }

  meta.clock_seconds = *clock;
  host.aggregate(updates, meta);

  if (tr != nullptr) {
    for (std::size_t i = 0; i < participants.size(); ++i) {
      tr->virtual_span("dispatch", round_start, round_start + rt[i] + cs[i],
                       {{"client", static_cast<double>(participants[i])},
                        {"round", static_cast<double>(round)},
                        {"staleness", 0.0}});
    }
    tr->virtual_span("round", round_start, *clock,
                     {{"round", static_cast<double>(round)},
                      {"clients", static_cast<double>(updates.size())},
                      {"dropped", static_cast<double>(dropped)},
                      {"unavailable", static_cast<double>(unavailable)}});
    tr->count("sched.rounds");
    tr->count("sched.updates", updates.size());
    tr->count("sched.dispatches", updates.size() + dropped);
    if (dropped > 0) tr->count("sched.dropped", dropped);
  }
}

}  // namespace

// ------------------------------------------------------------------- sync

void SyncScheduler::run(Host& host) {
  double clock = 0.0;
  for (std::size_t t = 1; t <= host.total_rounds(); ++t) {
    std::size_t unavailable = 0;
    auto selected = select_online(host, host.clients_per_round(), nullptr,
                                  &clock, &unavailable);
    const double round_start = clock;
    std::size_t down_wire = 0;
    auto params = host.broadcast(2 * t, selected.size(), /*alias_ok=*/true,
                                 &down_wire);
    auto batch = make_batch(selected, t, params);
    auto updates = host.train(batch);
    finish_round(host, batch, updates, selected, t, down_wire, &clock,
                 /*dropped=*/0, unavailable, round_start);
  }
}

// ------------------------------------------------------------------ fastk

std::size_t FastKScheduler::overselect_for(const SchedConfig& config,
                                           std::size_t k, std::size_t n) {
  const std::size_t m = config.overselect > 0 ? config.overselect : 2 * k;
  return std::clamp(m, k, n);
}

void FastKScheduler::run(Host& host) {
  const std::size_t k = host.clients_per_round();
  const std::size_t m =
      overselect_for(config_, k, host.num_clients());
  // Predicted round-trip bytes are data-independent (every codec's wire
  // size is a pure function of dim, and the algorithm's extras are a fixed
  // per-client amount) and so is the compute term (sample count x drawn
  // speed), so the ranking never depends on training results.
  const std::size_t down_pred =
      host.message_bytes(comm::Direction::kDown) + host.extra_down_bytes();
  const std::size_t up_pred =
      host.message_bytes(comm::Direction::kUp) + host.extra_up_bytes();
  auto predicted = [&](std::size_t c) {
    return host.network().client_seconds(c, down_pred, up_pred) +
           host.compute_seconds(c);
  };

  double clock = 0.0;
  for (std::size_t t = 1; t <= host.total_rounds(); ++t) {
    std::size_t unavailable = 0;
    auto selected = select_online(host, m, nullptr, &clock, &unavailable);
    const double round_start = clock;
    std::size_t down_wire = 0;
    auto params = host.broadcast(2 * t, selected.size(), /*alias_ok=*/true,
                                 &down_wire);

    // Keep the K fastest predicted arrivals; `selected` is sorted by id, so
    // a stable sort breaks round-trip ties by client id. Under churn the
    // online cohort may be smaller than K: everyone who answered trains.
    std::vector<std::size_t> order = selected;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return predicted(a) < predicted(b);
                     });
    const std::size_t k_eff = std::min(k, order.size());
    std::vector<std::size_t> winners(
        order.begin(), order.begin() + static_cast<long>(k_eff));
    std::sort(winners.begin(), winners.end());

    // Only the winners train: the dropped clients' rounds are cancelled
    // before their (simulated) upload, costing downlink bytes but no
    // compute and no uplink.
    auto batch = make_batch(winners, t, params);
    auto updates = host.train(batch);
    finish_round(host, batch, updates, winners, t, down_wire, &clock,
                 /*dropped=*/order.size() - k_eff, unavailable, round_start);
  }
}

// ------------------------------------------------------------------ async
//                                                            and deadline
//
// Shared machinery of the two event-driven policies: a Flight is one
// dispatched unit of work, a FlightDeck owns the in-flight bookkeeping
// (dispatch construction, arrival-time prediction with the churn-drop
// clamp, the busy/queue invariants, training), and both policies drain the
// same event heap.
//
// Lookahead: when an untrained flight pops, the deck can train with it
// every other live flight the run is certain to consume, in one
// Host::train call. That is exact only when train_client is a pure
// function of its context (FederatedAlgorithm::remote_trainable()): a
// dispatch's update then depends only on its snapshot, shard, train key
// and the client's history entry, and a busy client's entry cannot change
// while it flies. Each policy decides which flights are certain.

namespace {

struct Flight {
  Dispatch d;
  /// Server rounds completed at dispatch time; staleness at aggregation is
  /// (rounds completed then) - version.
  std::size_t version = 0;
  /// `update` holds the result: the flight trained when it popped, or
  /// earlier, together with the flight that did.
  bool trained = false;
  /// The client churned offline before the upload would have completed:
  /// the work is lost and the event time is the drop instant (when the
  /// server notices the disconnect), not an arrival.
  bool lost = false;
  double comm_seconds = 0.0;     // network share of the round-trip
  double compute_seconds = 0.0;  // local-training share
  fl::ClientUpdate update;
};

/// The async staleness discount 1/(1+s)^a (1 when disabled).
float staleness_weight(double alpha, std::size_t staleness) {
  if (alpha <= 0.0) return 1.0f;
  return static_cast<float>(
      1.0 / std::pow(1.0 + static_cast<double>(staleness), alpha));
}

class FlightDeck {
 public:
  /// `skip_doomed` turns on availability-aware dispatch (the deadline
  /// policy): clients whose remaining on-window cannot fit their predicted
  /// round-trip + compute time are skipped instead of dispatched to work
  /// that is doomed to be dropped. Both inputs are exact at dispatch time,
  /// so the skip catches precisely the flights that would otherwise be
  /// lost to churn — and it runs before the broadcast, so no downlink bytes
  /// are spent on them.
  FlightDeck(Host& host, bool skip_doomed)
      : host_(host),
        avail_(host.availability()),
        // Uplink transit bytes per arrival: codec wire bytes plus the
        // algorithm's raw extras — the same bytes sync's round accounting
        // charges, so cross-policy time comparisons measure scheduling,
        // not accounting gaps.
        up_bytes_(host.message_bytes(comm::Direction::kUp) +
                  host.extra_up_bytes()),
        // Downlink prediction for the doomed-dispatch check: equals the
        // actual per-dispatch broadcast bytes (every codec's wire size is
        // a pure function of dim), known before any broadcast runs.
        down_bytes_pred_(host.message_bytes(comm::Direction::kDown) +
                         host.extra_down_bytes()),
        skip_doomed_(skip_doomed),
        busy_(host.num_clients(), false) {}

  /// Lower bound on the virtual seconds from any dispatch to its arrival:
  /// the minimum over all clients of the arrival-time arithmetic in
  /// dispatch(), with the data-independent byte predictions (equal to the
  /// actual broadcast bytes for every codec). One O(clients) scan.
  double min_round_trip() const {
    const double server_s =
        host_.network().server_seconds(down_bytes_pred_ + up_bytes_);
    double m = kInf;
    for (std::size_t c = 0; c < host_.num_clients(); ++c) {
      m = std::min(m, host_.network().client_seconds(c, down_bytes_pred_,
                                                     up_bytes_) +
                          server_s + host_.compute_seconds(c));
    }
    return m;
  }

  std::size_t in_flight() const { return in_flight_; }
  /// In-flight dispatches that will actually arrive (excludes flights
  /// already doomed by churn) — what "deferred stragglers" means.
  std::size_t live_in_flight() const { return in_flight_ - lost_in_flight_; }
  bool empty() const { return in_flight_ == 0; }
  const std::vector<bool>& busy() const { return busy_; }
  Flight& flight(std::size_t idx) { return flights_[idx]; }

  /// Dispatches up to `count` idle clients at `now`, tagging flights with
  /// `round` (the training context round) and `version` (server rounds
  /// completed, the staleness baseline). Offline clients are skipped and
  /// counted in *unavailable — the server's ping goes unanswered.
  void dispatch(std::size_t count, double now, std::size_t round,
                std::size_t version, std::size_t* unavailable) {
    obs::Tracer* tr = host_.tracer();
    for (std::size_t c : host_.select(count, &busy_)) {
      if (!avail_.always() && !avail_.available(c, now)) {
        ++*unavailable;
        if (tr != nullptr) tr->count("sched.skipped_offline");
        continue;
      }
      if (skip_doomed_ && !avail_.always()) {
        // Predicted arrival vs the end of the client's current on-window:
        // identical arithmetic to the flight construction below, with the
        // data-independent downlink prediction standing in for the actual
        // broadcast bytes (they are equal for every codec).
        const double predicted =
            now +
            host_.network().client_seconds(c, down_bytes_pred_, up_bytes_) +
            host_.network().server_seconds(down_bytes_pred_ + up_bytes_) +
            host_.compute_seconds(c);
        if (avail_.online_until(c, now) < predicted) {
          ++*unavailable;
          if (tr != nullptr) tr->count("sched.skipped_doomed");
          continue;
        }
      }
      ++seq_;
      std::size_t down_wire = 0;
      // Unicast: every dispatch carries the *current* global model, so the
      // snapshot must outlive later aggregations (no aliasing).
      auto params =
          host_.broadcast(2 * seq_, 1, /*alias_ok=*/false, &down_wire);
      Flight f;
      f.d.seq = seq_;
      f.d.client_id = c;
      f.d.round = round;
      f.d.train_key = train_key(seq_, c);
      f.d.up_key = up_key(seq_, c);
      f.d.params = std::move(params);
      f.d.dispatch_time = now;
      f.version = version;
      // Round-trip on the client link, plus the shared server link's
      // per-message serialisation when one is configured (round_seconds
      // charges the same bytes once per sync round), plus local compute.
      const std::size_t down_bytes = down_wire + host_.extra_down_bytes();
      const double link_s =
          host_.network().client_seconds(c, down_bytes, up_bytes_);
      const double server_s =
          host_.network().server_seconds(down_bytes + up_bytes_);
      f.compute_seconds = host_.compute_seconds(c);
      double event_time = now + link_s + server_s + f.compute_seconds;
      f.comm_seconds = link_s + server_s;
      // Churn: a client whose on-window closes before the work would
      // arrive drops it; the server notices at the disconnect.
      if (!avail_.always()) {
        const double until = avail_.online_until(c, now);
        if (until < event_time) {
          f.lost = true;
          event_time = until;
          ++lost_in_flight_;
        }
      }
      busy_[c] = true;
      ++in_flight_;
      if (tr != nullptr) {
        tr->count("sched.dispatches");
        if (f.lost) tr->count("sched.lost_to_churn");
      }
      flights_.push_back(std::move(f));
      queue_.emplace_back(event_time, c, flights_.size() - 1);
      std::push_heap(queue_.begin(), queue_.end(), std::greater<Event>());
    }
  }

  /// Pops the next event (arrival or churn-drop) and frees its slot.
  /// Returns the flight index; writes the event's virtual time.
  std::size_t pop(double* event_time) {
    std::pop_heap(queue_.begin(), queue_.end(), std::greater<Event>());
    const auto [time, client, idx] = queue_.back();
    queue_.pop_back();
    busy_[client] = false;
    --in_flight_;
    if (flights_[idx].lost) --lost_in_flight_;
    *event_time = time;
    return idx;
  }

  /// Virtual time of the next event without popping it.
  double next_event_time() const { return std::get<0>(queue_.front()); }

  /// Indices of the in-flight live flights due before `bound` (at or
  /// before it when `inclusive`), in pop order, at most `cap` of them.
  /// When an untrained flight pops, none of them has trained: a flight
  /// trained ahead is due before every flight still untrained after that
  /// call, so it has popped already.
  std::vector<std::size_t> live_before(double bound, bool inclusive,
                                       std::size_t cap) const {
    std::vector<Event> due;
    for (const Event& e : queue_) {
      const auto& [time, client, idx] = e;
      if (!flights_[idx].lost && (inclusive ? time <= bound : time < bound)) {
        due.push_back(e);
      }
    }
    std::sort(due.begin(), due.end());  // pop order
    due.resize(std::min(due.size(), cap));
    std::vector<std::size_t> flights;
    for (const auto& [time, client, idx] : due) flights.push_back(idx);
    return flights;
  }

  /// Trains the popped flight `idx` together with the flights `ahead` in
  /// one Host::train call and stores each update in its flight.
  void train(std::size_t idx, const std::vector<std::size_t>& ahead) {
    std::vector<Dispatch> batch{flights_[idx].d};
    for (std::size_t a : ahead) batch.push_back(flights_[a].d);
    auto updates = host_.train(batch);
    for (std::size_t i = 0; i < batch.size(); ++i) {
      Flight& f = flights_[i == 0 ? idx : ahead[i - 1]];
      f.update = std::move(updates[i]);
      f.trained = true;
    }
  }

 private:
  // Min-heap of (event virtual seconds, client id, flight index): the id
  // tie-break makes the event trace a pure function of the links. Every
  // key is unique, so pop order is the keys' sorted order.
  using Event = std::tuple<double, std::size_t, std::size_t>;

  Host& host_;
  const clients::AvailabilityModel& avail_;
  std::size_t up_bytes_;
  std::size_t down_bytes_pred_;
  bool skip_doomed_;
  std::vector<Flight> flights_;
  std::vector<bool> busy_;
  std::size_t in_flight_ = 0;
  std::size_t lost_in_flight_ = 0;
  std::size_t seq_ = 0;  // unique dispatch counter (keys RNG streams)
  std::vector<Event> queue_;  // heap under std::greater<Event>
};

}  // namespace

void AsyncScheduler::run(Host& host) {
  const std::size_t concurrency = host.clients_per_round();
  const std::size_t rounds = host.total_rounds();
  const std::size_t buffer_size =
      config_.buffer_size > 0 ? config_.buffer_size : concurrency;
  const double alpha = config_.staleness_alpha;

  FlightDeck deck(host, /*skip_doomed=*/false);
  std::size_t version = 0;  // server rounds completed
  double clock = 0.0;
  std::size_t unavailable = 0;  // offline skips/drops since last aggregation
  auto dispatch = [&](std::size_t count, double now) {
    deck.dispatch(count, now, version + 1, version, &unavailable);
  };

  dispatch(concurrency, 0.0);
  // No dispatch made at or after the clock arrives within min_rtt of it.
  // Scanned after the first dispatch, so set-up ends at the first select.
  const double min_rtt = train_ahead_ ? deck.min_round_trip() : 0.0;

  std::vector<fl::ClientUpdate> buffer;
  buffer.reserve(buffer_size);
  double staleness_sum = 0.0;
  std::size_t staleness_max = 0;
  double comm_sum = 0.0, compute_sum = 0.0;
  std::size_t starve = 0;
  std::size_t consecutive_lost = 0;

  obs::Tracer* tr = host.tracer();
  double round_open = 0.0;  // clock at the previous aggregation

  while (version < rounds) {
    if (deck.empty()) {
      // Every candidate was offline at its dispatch instant: jump to the
      // earliest comeback among idle clients and refill (fresh selection
      // draws each attempt make progress even when the comeback is now).
      if (++starve > kStarveGuard) {
        throw std::runtime_error("async: client dispatch starved");
      }
      const double t = earliest_comeback(host, &deck.busy(), clock);
      if (!std::isfinite(t)) {
        throw std::runtime_error("async: no client ever comes back online");
      }
      trace_wait(host, clock, std::max(clock, t));
      clock = std::max(clock, t);
      dispatch(concurrency - deck.in_flight(), clock);
      continue;
    }
    starve = 0;
    double event_time = 0.0;
    const std::size_t idx = deck.pop(&event_time);
    Flight& f = deck.flight(idx);
    clock = std::max(clock, event_time);

    if (f.lost) {
      ++unavailable;
      if (tr != nullptr) {
        tr->virtual_span(
            "dispatch", f.d.dispatch_time, event_time,
            {{"client", static_cast<double>(f.d.client_id)},
             {"seq", static_cast<double>(f.d.seq)},
             {"lost", 1.0}});
      }
      f.d.params.reset();
      // Progress guard: with on-windows consistently shorter than the
      // round-trip every flight is lost and no round ever completes —
      // fail loudly instead of spinning on the virtual clock forever.
      if (++consecutive_lost > kStarveGuard) {
        throw std::runtime_error(
            "async: every dispatch is lost to churn before arriving");
      }
      if (version < rounds) dispatch(concurrency - deck.in_flight(), clock);
      continue;
    }
    consecutive_lost = 0;

    if (!f.trained) {
      // Train ahead every live flight due before clock + min_rtt: each pops
      // before any later dispatch can arrive, and the cap at the arrivals
      // the run still needs (this one included) means each is consumed.
      // The horizon is shrunk by more than rounding can lower an arrival's
      // sum, so a flight exactly at the horizon waits for its own pop.
      // Without train_ahead_ the flight trains as its own unit batch: the
      // pre-round phase sees exactly one client, so cohort-coupled
      // corrections (FedDANE's gradient averaging) consistently degenerate
      // to the solo client, as async has no round cohort.
      std::vector<std::size_t> ahead;
      if (train_ahead_) {
        const double horizon = (clock + min_rtt) * (1.0 - 8.0 * kEpsilon);
        const std::size_t consumed = version * buffer_size + buffer.size();
        ahead = deck.live_before(horizon, /*inclusive=*/false,
                                 rounds * buffer_size - consumed - 1);
      }
      deck.train(idx, ahead);
    }

    host.uplink(f.update, f.d.up_key, *f.d.params, version + 1);
    f.d.params.reset();  // release the snapshot

    const std::size_t staleness = version - f.version;
    if (tr != nullptr) {
      tr->virtual_span("dispatch", f.d.dispatch_time, event_time,
                       {{"client", static_cast<double>(f.d.client_id)},
                        {"seq", static_cast<double>(f.d.seq)},
                        {"staleness", static_cast<double>(staleness)}});
    }
    f.update.staleness = staleness;
    f.update.weight_scale = staleness_weight(alpha, staleness);
    staleness_sum += static_cast<double>(staleness);
    staleness_max = std::max(staleness_max, staleness);
    comm_sum += f.comm_seconds;
    compute_sum += f.compute_seconds;
    buffer.push_back(std::move(f.update));

    if (buffer.size() >= buffer_size) {
      ++version;
      RoundMeta meta;
      meta.round = version;
      meta.clock_seconds = clock;
      meta.mean_staleness =
          staleness_sum / static_cast<double>(buffer.size());
      meta.max_staleness = staleness_max;
      meta.unavailable = unavailable;
      meta.mean_comm_seconds =
          comm_sum / static_cast<double>(buffer.size());
      meta.mean_compute_seconds =
          compute_sum / static_cast<double>(buffer.size());
      const std::size_t aggregated = buffer.size();
      host.aggregate(buffer, meta);
      if (tr != nullptr) {
        tr->virtual_span(
            "round", round_open, clock,
            {{"round", static_cast<double>(version)},
             {"clients", static_cast<double>(aggregated)},
             {"max_staleness", static_cast<double>(staleness_max)},
             {"unavailable", static_cast<double>(unavailable)}});
        tr->count("sched.rounds");
        tr->count("sched.updates", aggregated);
      }
      round_open = clock;
      buffer.clear();
      staleness_sum = 0.0;
      staleness_max = 0;
      unavailable = 0;
      comm_sum = compute_sum = 0.0;
    }

    // Top back up to K in flight with the (possibly just-aggregated)
    // global. With always-available clients exactly one slot is free here;
    // under churn this also re-fills slots whose earlier refill drew an
    // offline client, so concurrency does not decay below K.
    if (version < rounds) dispatch(concurrency - deck.in_flight(), clock);
  }
}

// --------------------------------------------------------------- deadline

double DeadlineScheduler::deadline_for(const SchedConfig& config,
                                       const Host& host) {
  if (config.deadline_s > 0.0) return config.deadline_s;
  // Auto: 1.5x the median predicted per-client round-trip + compute time —
  // roughly "wait for the typical client, not the tail".
  const std::size_t down_pred =
      host.message_bytes(comm::Direction::kDown) + host.extra_down_bytes();
  const std::size_t up_pred =
      host.message_bytes(comm::Direction::kUp) + host.extra_up_bytes();
  std::vector<double> predicted;
  predicted.reserve(host.num_clients());
  for (std::size_t c = 0; c < host.num_clients(); ++c) {
    predicted.push_back(
        host.network().client_seconds(c, down_pred, up_pred) +
        host.compute_seconds(c));
  }
  std::sort(predicted.begin(), predicted.end());
  const double median = predicted.empty()
                            ? 0.0
                            : predicted[predicted.size() / 2];
  // Without any time model every arrival is instantaneous and any positive
  // deadline admits the whole cohort.
  return median > 0.0 ? 1.5 * median : 1.0;
}

void DeadlineScheduler::run(Host& host) {
  const std::size_t k = host.clients_per_round();
  const std::size_t rounds = host.total_rounds();
  const double alpha = config_.staleness_alpha;
  const double deadline = deadline_for(config_, host);

  FlightDeck deck(host, /*skip_doomed=*/true);
  double clock = 0.0;
  std::size_t unavailable = 0;  // per-round offline skips/drops

  // Single-pass top-up to K in flight at `now`: offline or straggling
  // clients leave the cohort short this round; the next round tops it up
  // again. Flights carry version = round - 1 (rounds completed at
  // dispatch), so staleness at round t is t - dispatch_round.
  auto dispatch_fill = [&](std::size_t round, double now) {
    if (deck.in_flight() < k) {
      deck.dispatch(k - deck.in_flight(), now, round, round - 1,
                    &unavailable);
    }
  };

  // Top up, and when every idle client is offline or online but doomed,
  // wait for the earliest availability change so at least one dispatch is
  // always in flight.
  auto ensure_in_flight = [&](std::size_t round) {
    dispatch_fill(round, clock);
    std::size_t guard = 0;
    while (deck.empty()) {
      if (++guard > kStarveGuard) {
        throw std::runtime_error("deadline: client dispatch starved");
      }
      const double t =
          earliest_availability_change(host, &deck.busy(), clock);
      if (!std::isfinite(t)) {
        throw std::runtime_error(
            "deadline: no client ever comes back online");
      }
      trace_wait(host, clock, std::max(clock, t));
      clock = std::max(clock, t);
      dispatch_fill(round, clock);
    }
  };

  obs::Tracer* tr = host.tracer();
  std::size_t consecutive_lost = 0;
  for (std::size_t t = 1; t <= rounds; ++t) {
    const double round_start = clock;
    ensure_in_flight(t);
    const double close_target = clock + deadline;
    double close = close_target;

    std::vector<fl::ClientUpdate> harvest;
    double staleness_sum = 0.0, comm_sum = 0.0, compute_sum = 0.0;
    std::size_t staleness_max = 0;

    // Drain every event due by the deadline; when nothing has arrived by
    // then (an all-straggler or all-churned round) keep going to the first
    // real arrival — a server round cannot aggregate nothing.
    while (true) {
      if (deck.empty()) {
        if (!harvest.empty()) break;
        ensure_in_flight(t);
      }
      if (deck.next_event_time() > close_target && !harvest.empty()) break;
      double event_time = 0.0;
      const std::size_t idx = deck.pop(&event_time);
      Flight& f = deck.flight(idx);
      clock = std::max(clock, event_time);

      if (f.lost) {
        ++unavailable;
        if (tr != nullptr) {
          tr->virtual_span(
              "dispatch", f.d.dispatch_time, event_time,
              {{"client", static_cast<double>(f.d.client_id)},
               {"seq", static_cast<double>(f.d.seq)},
               {"lost", 1.0}});
        }
        f.d.params.reset();
        if (++consecutive_lost > kStarveGuard) {
          throw std::runtime_error(
              "deadline: every dispatch is lost to churn before arriving");
        }
        continue;
      }
      consecutive_lost = 0;

      // A flight pops exactly once here: train it unless it already was
      // (stragglers' compute was already charged into their event time),
      // uplink at the aggregation round, and weight by the staleness
      // discount. Every live flight due by close_target pops in this round,
      // so with pure training they all train in this one call.
      if (!f.trained) {
        deck.train(idx, train_ahead_
                            ? deck.live_before(close_target,
                                               /*inclusive=*/true, kNoCap)
                            : std::vector<std::size_t>{});
      }
      fl::ClientUpdate update = std::move(f.update);
      host.uplink(update, f.d.up_key, *f.d.params, t);
      f.d.params.reset();

      const std::size_t staleness = (t - 1) - f.version;
      if (tr != nullptr) {
        // "late": the arrival that extended the round past its deadline —
        // the deadline verdict of this dispatch.
        tr->virtual_span("dispatch", f.d.dispatch_time, event_time,
                         {{"client", static_cast<double>(f.d.client_id)},
                          {"seq", static_cast<double>(f.d.seq)},
                          {"staleness", static_cast<double>(staleness)},
                          {"late", event_time > close_target ? 1.0 : 0.0}});
      }
      update.staleness = staleness;
      update.weight_scale = staleness_weight(alpha, staleness);
      staleness_sum += static_cast<double>(staleness);
      staleness_max = std::max(staleness_max, staleness);
      comm_sum += f.comm_seconds;
      compute_sum += f.compute_seconds;
      harvest.push_back(std::move(update));
      if (event_time > close_target) close = event_time;  // extended round
    }

    // Nothing left in flight: there is no straggler to wait for, so the
    // round closes at its last arrival instead of idling until T (with no
    // time models at all this keeps the clock at zero, like sync).
    if (deck.empty()) close = std::min(close, clock);
    clock = std::max(clock, close);
    RoundMeta meta;
    meta.round = t;
    meta.clock_seconds = clock;
    meta.mean_staleness =
        staleness_sum / static_cast<double>(harvest.size());
    meta.max_staleness = staleness_max;
    meta.unavailable = unavailable;
    // Stragglers carried into round t+1; flights already doomed by churn
    // are not deferred work, they are counted as unavailable when their
    // drop event pops.
    meta.deadline_deferred = deck.live_in_flight();
    meta.mean_comm_seconds =
        comm_sum / static_cast<double>(harvest.size());
    meta.mean_compute_seconds =
        compute_sum / static_cast<double>(harvest.size());
    const std::size_t harvested = harvest.size();
    host.aggregate(harvest, meta);
    if (tr != nullptr) {
      tr->virtual_span(
          "round", round_start, clock,
          {{"round", static_cast<double>(t)},
           {"clients", static_cast<double>(harvested)},
           {"deferred", static_cast<double>(meta.deadline_deferred)},
           {"unavailable", static_cast<double>(unavailable)}});
      tr->count("sched.rounds");
      tr->count("sched.updates", harvested);
      if (meta.deadline_deferred > 0) {
        tr->count("sched.deferred", meta.deadline_deferred);
      }
    }
    unavailable = 0;
  }
}

}  // namespace fedtrip::sched
