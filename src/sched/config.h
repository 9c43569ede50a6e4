// Round-scheduler configuration.
//
// SchedConfig selects how the Simulation orchestrates client rounds on the
// virtual clock (sched/scheduler.h): `sync` reproduces the classic
// wait-for-everyone loop bit-identically, `fastk` over-selects and keeps the
// fastest arrivals, `async` streams buffered aggregations of possibly-stale
// updates, `deadline` aggregates whatever arrived within T virtual seconds
// and defers the stragglers. Defaults are fully transparent — the sync
// policy with no tuning knobs — so a default-configured run is unchanged by
// this subsystem.
#pragma once

#include <cstdint>
#include <string>

namespace fedtrip::sched {

struct SchedConfig {
  /// Policy registry name: "sync" | "fastk" | "async" | "deadline"
  /// (sched/registry.h).
  std::string policy = "sync";
  /// fastk: number of clients dispatched per round (M >= clients_per_round;
  /// the K fastest arrivals are aggregated, the rest dropped).
  /// 0 = 2 * clients_per_round, capped at num_clients.
  std::size_t overselect = 0;
  /// async: arrivals buffered per server aggregation (FedBuff's B).
  /// 0 = clients_per_round.
  std::size_t buffer_size = 0;
  /// async + deadline: staleness discount exponent `a` in weight 1/(1+s)^a,
  /// where s is the number of server rounds that passed between a client's
  /// dispatch and its arrival. 0 disables discounting.
  double staleness_alpha = 0.5;
  /// deadline: virtual seconds the server waits each round before
  /// aggregating whatever arrived; in-flight stragglers defer to later
  /// rounds as staleness-discounted arrivals. 0 = auto: 1.5x the median
  /// predicted per-client round-trip + compute time.
  double deadline_s = 0.0;
};

}  // namespace fedtrip::sched
