// TimedHost: the benchmark's view of a run from outside the engine.
//
// A sched::Host decorator installed with Simulation::run_with_host between
// the scheduler and the engine's host (fl::RoundHost in-process,
// net::NetHost over sockets). Untraced, it reads the clock only at the
// first primitive call (the end of set-up) and at the end of every
// aggregation (the round boundaries), so end-to-end timings carry almost
// no observer cost. Traced, it also times every primitive call and the
// process CPU spent inside train(). Either way it counts the work that
// crosses the Host boundary, which the output checks compare with the
// engine's own accounting.
//
// The wrapped hosts live only as long as the run: after it, read the
// recorded values, never the forwarding methods.
//
// The scheduler's own bookkeeping queries (compute_seconds, availability,
// message_bytes, ...) are forwarded untimed: their cost stays in the
// scheduler's self time, which is the loop wall minus the timed calls.
#pragma once

#include <array>
#include <chrono>
#include <cstdint>
#include <optional>
#include <vector>

#include "sched/scheduler.h"

namespace perfbench {

namespace clients = fedtrip::clients;
namespace comm = fedtrip::comm;
namespace fl = fedtrip::fl;
namespace obs = fedtrip::obs;
namespace sched = fedtrip::sched;

using Clock = std::chrono::steady_clock;

/// Seconds from `a` to `b`.
inline double seconds(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

/// The five engine primitives a scheduler drives.
enum class Call : std::size_t { kSelect, kBroadcast, kTrain, kUplink, kAggregate };
inline constexpr std::size_t kNumCalls = 5;

/// Per-layer metric name of a call ("fl.train_s", "comm.uplink_s", ...).
const char* layer_name(Call c);

/// Work that crossed the Host boundary.
struct HostCounts {
  std::uint64_t rounds = 0;
  std::uint64_t dispatches = 0;  // trained dispatches
  std::uint64_t samples = 0;     // num_samples x local epochs, as trained
  std::uint64_t broadcast_copies = 0;
  std::uint64_t uplinks = 0;
  std::uint64_t aggregated = 0;   // updates folded into the global model
  std::uint64_t unavailable = 0;  // dispatches lost to churn or offline
  std::uint64_t update_floats = 0;  // params + aux floats of trained updates
};

/// One trained dispatch: which train() call carried it, for which client,
/// from which broadcast snapshot.
struct TrainedDispatch {
  std::size_t batch = 0;
  std::size_t client = 0;
  const void* snapshot = nullptr;
};

struct CallTimes {
  double total_s = 0.0;
  std::vector<double> durations;
};

class TimedHost final : public sched::Host {
 public:
  TimedHost(sched::Host& inner, bool per_call, std::size_t local_epochs);

  /// Red-path self-test: sleep `seconds` inside every `call`, within the
  /// timed region, so the added time lands on that call's layer row.
  void inject_delay(Call call, double seconds) {
    delay_call_ = call;
    delay_s_ = seconds;
  }

  /// Thrown at the first primitive call when the run is to end there, so a
  /// set-up can be timed without running the loop.
  struct SetupDone {};
  void stop_at_first_call() { stop_at_first_call_ = true; }

  std::size_t num_clients() const override { return inner_.num_clients(); }
  std::size_t clients_per_round() const override {
    return inner_.clients_per_round();
  }
  std::size_t total_rounds() const override { return inner_.total_rounds(); }
  const comm::NetworkModel& network() const override {
    return inner_.network();
  }
  const clients::AvailabilityModel& availability() const override {
    return inner_.availability();
  }
  bool compute_enabled() const override { return inner_.compute_enabled(); }
  double compute_seconds(std::size_t client) const override {
    return inner_.compute_seconds(client);
  }
  std::size_t message_bytes(comm::Direction dir) const override {
    return inner_.message_bytes(dir);
  }
  std::size_t extra_down_bytes() const override {
    return inner_.extra_down_bytes();
  }
  std::size_t extra_up_bytes() const override {
    return inner_.extra_up_bytes();
  }
  obs::Tracer* tracer() const override { return inner_.tracer(); }

  std::vector<std::size_t> select(std::size_t count,
                                  const std::vector<bool>* busy) override;
  std::shared_ptr<const std::vector<float>> broadcast(
      std::uint64_t key, std::size_t copies, bool alias_ok,
      std::size_t* wire_bytes) override;
  std::vector<fl::ClientUpdate> train(
      const std::vector<sched::Dispatch>& batch) override;
  std::size_t uplink(fl::ClientUpdate& update, std::uint64_t key,
                     const std::vector<float>& sent_from,
                     std::size_t round) override;
  void aggregate(std::vector<fl::ClientUpdate>& updates,
                 const sched::RoundMeta& meta) override;

  /// First primitive call: the end of set-up and start of the round loop.
  /// Empty until the scheduler has called in.
  std::optional<Clock::time_point> loop_start() const { return loop_start_; }
  /// End of every aggregation, in round order.
  const std::vector<Clock::time_point>& round_ends() const {
    return round_ends_;
  }
  const HostCounts& counts() const { return counts_; }
  /// Every trained dispatch, in training order.
  const std::vector<TrainedDispatch>& trained() const { return trained_; }
  /// Resident memory at the first dispatch.
  double setup_rss_mb() const { return setup_rss_mb_; }
  /// Simulated-channel bytes of one message in each direction, extras
  /// included, as the engine predicted them at the first dispatch.
  std::size_t down_message_bytes() const { return down_message_bytes_; }
  std::size_t up_message_bytes() const { return up_message_bytes_; }
  /// Traced only: per-call times, and process CPU seconds inside train().
  const std::array<CallTimes, kNumCalls>& times() const { return times_; }
  double train_cpu_s() const { return train_cpu_s_; }

 private:
  /// Scope of one primitive call: marks the loop start, times the call
  /// when tracing, and applies an injected delay inside the timed region.
  class Scope;

  sched::Host& inner_;
  const bool per_call_;
  const std::size_t local_epochs_;
  std::optional<Call> delay_call_;
  double delay_s_ = 0.0;
  bool stop_at_first_call_ = false;
  std::optional<Clock::time_point> loop_start_;
  std::vector<Clock::time_point> round_ends_;
  HostCounts counts_;
  std::vector<TrainedDispatch> trained_;
  std::size_t train_calls_ = 0;
  double setup_rss_mb_ = 0.0;
  std::size_t down_message_bytes_ = 0;
  std::size_t up_message_bytes_ = 0;
  std::array<CallTimes, kNumCalls> times_;
  double train_cpu_s_ = 0.0;
};

}  // namespace perfbench
