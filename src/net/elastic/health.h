// WorkerHealth: the coordinator's worker-lifecycle state machine.
//
// One slot per worker that ever joined the run (original pool members and
// rejoiners alike); a slot moves active -> evicted exactly once, with a
// typed reason, and never back — a worker that returns after eviction is a
// *new* slot (its world is rebuilt from Setup anyway; docs/TRANSPORT.md).
//
// Health is heartbeat/deadline based: every frame received from a worker —
// heartbeats, dispatch acks, results — refreshes last_heard, and a worker
// silent for longer than the configured deadline is evicted as
// kDeadlineExpired. Time enters through explicit `now` parameters (seconds
// on any monotonic axis), so the whole machine is deterministic under test
// (tests/net/elastic_test.cpp); the host feeds it a steady_clock.
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "net/error.h"

namespace fedtrip::net {

/// Why a worker left the run. The reason is terminal per slot and shows up
/// in diagnostics, the net.elastic.evicted.* counters and the run summary.
enum class EvictReason : std::uint8_t {
  kNone = 0,             // still active
  kDisconnected = 1,     // socket EOF / transport failure mid-session
  kProtocolViolation = 2,  // kNetError frame, desync, or malformed payload
  kDeadlineExpired = 3,  // silent past the worker deadline (hung or gone)
  kRetired = 4,          // orderly end of run (shutdown; not a failure)
};

const char* evict_reason_name(EvictReason r);

class WorkerHealth {
 public:
  /// Registers a worker slot (initially active, heard from at `now`).
  /// Returns the slot index.
  std::size_t add_worker(double now);

  std::size_t size() const { return slots_.size(); }
  std::size_t num_active() const { return active_; }
  bool active(std::size_t w) const;
  EvictReason reason(std::size_t w) const;
  double last_heard(std::size_t w) const;

  /// Any frame from the worker counts as a sign of life.
  void heard_from(std::size_t w, double now);

  /// active -> evicted with `reason`. Evicting an already-evicted slot
  /// throws (NetError): the lifecycle is one-way and a double eviction is
  /// a coordinator bug.
  void evict(std::size_t w, EvictReason reason);

  /// Active slots whose silence exceeds `deadline_s` at `now`, in slot
  /// order. The caller evicts them as kDeadlineExpired.
  std::vector<std::size_t> expired(double now, double deadline_s) const;

  /// Active slots in index order (the deterministic iteration the host's
  /// assignment, stealing and eviction sweeps all use).
  std::vector<std::size_t> active_slots() const;

  /// "worker slot 2: deadline-expired, worker slot 3: disconnected" — the
  /// evicted slots with reasons, for the all-workers-gone diagnostic
  /// (orderly kRetired slots are omitted: not failures).
  std::string evicted_brief() const;

 private:
  struct Slot {
    EvictReason reason = EvictReason::kNone;  // kNone == active
    double last_heard = 0.0;
  };

  void check(std::size_t w) const;

  std::vector<Slot> slots_;
  std::size_t active_ = 0;
};

}  // namespace fedtrip::net
