// JobTable: the per-dispatch lifecycle ledger of NetHost::train.
//
// Every dispatch of one Host::train() batch is a *job* with a typed state,
// modelled on the IPP job lifecycle (queued/processing/completed/aborted
// with requeue) that a production print server uses to survive its fleet:
//
//     queued ----dispatch----> in-flight ----complete----> completed
//       ^  \                      |
//       |   `--(steal/reassign stays queued, worker changes)
//       |                         |
//       `-------enqueue------- requeued   (worker evicted mid-flight)
//
//     any non-completed state --evict--> evicted   (retry budget spent;
//                                                   terminal, fails the run)
//
// The table is pure bookkeeping — no I/O, no clocks — which is what makes
// every legal and illegal transition, the replay-idempotence rule (a
// duplicate completion is ignored, never double-counted) and the
// deterministic steal order unit-testable (tests/net/elastic_test.cpp).
// Replay is safe by construction: the train contract is deterministic, so
// re-executing a requeued dispatch on any worker yields bit-identical
// bytes; this table only ensures each job's result is recorded exactly
// once and that no job is silently lost.
//
// Worker queues live here too: each worker slot owns a FIFO of queued
// jobs; dispatching pops the front; stealing moves the tail half of the
// longest queue (ties: lowest worker index) to an idle thief, preserving
// seq order within the moved range. Illegal transitions throw NetError —
// a coordinator bug, never a recoverable condition.
#pragma once

#include <cstddef>
#include <deque>
#include <string>
#include <vector>

#include "net/error.h"

namespace fedtrip::net {

enum class JobState : std::uint8_t {
  kQueued = 0,     // assigned to a worker's queue, not yet shipped
  kInFlight = 1,   // shipped in a dispatch sub-batch, result outstanding
  kCompleted = 2,  // result recorded (terminal)
  kRequeued = 3,   // was in-flight on an evicted worker; awaiting reassign
  kEvicted = 4,    // retry budget spent (terminal; the run fails)
};

const char* job_state_name(JobState s);

class JobTable {
 public:
  static constexpr std::size_t kNoWorker = static_cast<std::size_t>(-1);

  /// `jobs` dispatches, `workers` initial worker slots, all jobs start
  /// queued and unassigned (enqueue() assigns them).
  JobTable(std::size_t jobs, std::size_t workers);

  std::size_t num_jobs() const { return jobs_.size(); }
  std::size_t num_workers() const { return queues_.size(); }

  /// Grows the worker-slot space by one (a rejoined worker); returns the
  /// new slot index. The new queue starts empty.
  std::size_t add_worker();

  JobState state(std::size_t job) const;
  /// Worker the job is queued on / in flight to; kNoWorker when unassigned.
  std::size_t worker_of(std::size_t job) const;
  /// Times the job has been shipped (replays included).
  std::size_t attempts(std::size_t job) const;

  /// Assigns a queued or requeued job to `worker`'s queue (requeued jobs
  /// return to queued — the replay path). Queued jobs may be re-enqueued
  /// onto a different worker (eviction reassign); enqueueing a job that is
  /// in flight, completed or evicted throws.
  void enqueue(std::size_t job, std::size_t worker);

  /// Pops the front of `worker`'s queue and marks it in flight
  /// (attempts + 1). Throws on an empty queue.
  std::size_t pop_dispatch(std::size_t worker);

  /// Marks an in-flight job completed. Returns false — and records
  /// nothing — when the job is already completed (the replay-idempotence
  /// rule: a result that raced an eviction must not be double-counted).
  /// Throws when the job was never in flight (queued/evicted): a result
  /// for work never shipped is a protocol violation, not idempotence.
  bool complete(std::size_t job);

  /// Marks every non-completed job owned by `worker` for replay and
  /// returns them in ascending job order: in-flight jobs become requeued,
  /// queued jobs stay queued; both lose their worker assignment. The
  /// caller re-enqueues them onto surviving workers. Completed/evicted
  /// jobs are untouched.
  std::vector<std::size_t> evict_worker(std::size_t worker);

  /// Terminal failure of one job (retry budget spent). Throws if already
  /// completed or evicted.
  void evict_job(std::size_t job);

  /// Work-stealing: moves the tail half (ceil(len/2)) of the longest
  /// queue — ties broken toward the lowest worker index — onto idle
  /// `thief`'s queue, preserving order. Returns the moved jobs (empty when
  /// every other queue is empty or the longest queue belongs to the thief).
  std::vector<std::size_t> steal_into(std::size_t thief);

  const std::deque<std::size_t>& queue(std::size_t worker) const;
  /// Jobs not yet completed (evicted jobs still count: they will never
  /// complete, and the host turns that into a typed run failure).
  std::size_t remaining() const { return remaining_; }
  bool all_completed() const { return remaining_ == 0; }

 private:
  struct Job {
    JobState state = JobState::kQueued;
    std::size_t worker = kNoWorker;
    std::size_t attempts = 0;
  };

  void check_job(std::size_t job) const;
  void check_worker(std::size_t worker) const;

  std::vector<Job> jobs_;
  std::vector<std::deque<std::size_t>> queues_;
  std::size_t remaining_ = 0;
};

}  // namespace fedtrip::net
