// The four built-in scheduling policies (see scheduler.h for semantics).
#pragma once

#include "sched/scheduler.h"

namespace fedtrip::sched {

/// Classic synchronous rounds: K clients, everyone waited for. Drives the
/// host primitives in exactly the pre-scheduler Simulation order with the
/// same RNG stream keys, so runs are bit-identical to the legacy loop
/// (enforced by tests/integration/sched_equivalence_test.cpp).
class SyncScheduler : public Scheduler {
 public:
  std::string name() const override { return "sync"; }
  void run(Host& host) override;
};

/// Semi-synchronous fastest-K: dispatch M >= K clients, aggregate the K
/// whose round-trips finish first on the virtual clock (ties by client id),
/// drop the rest without training them — their slots' compute is the price
/// of the shorter round. Without a network model every arrival is
/// instantaneous and the K lowest client ids win.
class FastKScheduler : public Scheduler {
 public:
  explicit FastKScheduler(const SchedConfig& config) : config_(config) {}
  std::string name() const override { return "fastk"; }
  void run(Host& host) override;

  /// M for a run: config.overselect, defaulting to 2K, clamped to [K, N].
  static std::size_t overselect_for(const SchedConfig& config, std::size_t k,
                                    std::size_t n);

 private:
  SchedConfig config_;
};

/// FedBuff/FedAsync-style buffered asynchronous aggregation: K clients are
/// always in flight, each training on the global snapshot it was dispatched
/// with; the server aggregates every B arrivals with staleness-discounted
/// weights 1/(1+s)^a, then refills the freed slot with a fresh dispatch of
/// the *new* global model. One aggregation == one server round.
///
/// With `train_ahead` (the algorithm is remote-trainable: its training is
/// a pure function of the dispatch), the flight that pops untrained trains
/// in one Host::train call with every in-flight arrival certain to come
/// before any later dispatch's, up to the arrivals the run still needs.
/// Otherwise each flight trains as its own unit batch when it pops. The
/// outputs are the same bits either way.
class AsyncScheduler : public Scheduler {
 public:
  AsyncScheduler(const SchedConfig& config, bool train_ahead)
      : config_(config), train_ahead_(train_ahead) {}
  std::string name() const override { return "async"; }
  void run(Host& host) override;

 private:
  SchedConfig config_;
  bool train_ahead_;
};

/// Semi-synchronous deadline hybrid: K clients are kept in flight; every
/// round the server aggregates whatever arrived within T virtual seconds
/// of the round's start (at least one arrival — an all-straggler round
/// extends to the first). Stragglers are not discarded: they stay in
/// flight and fold into the round they arrive in, weighted by the async
/// staleness discount 1/(1+s)^a. T defaults to 1.5x the median predicted
/// per-client round-trip + compute time (SchedConfig::deadline_s = 0).
///
/// With `train_ahead` (as for AsyncScheduler), the first untrained flight
/// to pop in a round trains in one Host::train call with every live flight
/// due by the round's deadline, since all of them pop in that round.
class DeadlineScheduler : public Scheduler {
 public:
  DeadlineScheduler(const SchedConfig& config, bool train_ahead)
      : config_(config), train_ahead_(train_ahead) {}
  std::string name() const override { return "deadline"; }
  void run(Host& host) override;

  /// The deadline for a run: config.deadline_s, or the auto heuristic over
  /// the host's predicted per-client times when it is 0.
  static double deadline_for(const SchedConfig& config, const Host& host);

 private:
  SchedConfig config_;
  bool train_ahead_;
};

}  // namespace fedtrip::sched
