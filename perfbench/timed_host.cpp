#include "timed_host.h"

#include <thread>

#include "proc.h"

namespace perfbench {

namespace {

constexpr std::array<const char*, kNumCalls> kLayerNames = {
    "fl.select_s", "comm.broadcast_s", "fl.train_s", "comm.uplink_s",
    "fl.aggregate_s"};

}  // namespace

const char* layer_name(Call c) {
  return kLayerNames[static_cast<std::size_t>(c)];
}

class TimedHost::Scope {
 public:
  Scope(TimedHost& host, Call call) : host_(host), call_(call) {
    if (!host_.loop_start_) {
      host_.loop_start_ = Clock::now();
      host_.setup_rss_mb_ = current_rss_mb();
      host_.down_message_bytes_ =
          host_.inner_.message_bytes(comm::Direction::kDown) +
          host_.inner_.extra_down_bytes();
      host_.up_message_bytes_ =
          host_.inner_.message_bytes(comm::Direction::kUp) +
          host_.inner_.extra_up_bytes();
      if (host_.stop_at_first_call_) throw SetupDone{};
    }
    if (host_.per_call_) start_ = Clock::now();
    if (host_.delay_call_ == call_) {
      std::this_thread::sleep_for(
          std::chrono::duration<double>(host_.delay_s_));
    }
  }
  ~Scope() {
    if (!host_.per_call_) return;
    const double d = seconds(start_, Clock::now());
    CallTimes& t = host_.times_[static_cast<std::size_t>(call_)];
    t.total_s += d;
    t.durations.push_back(d);
  }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  TimedHost& host_;
  Call call_;
  Clock::time_point start_;
};

TimedHost::TimedHost(sched::Host& inner, bool per_call,
                     std::size_t local_epochs)
    : inner_(inner), per_call_(per_call), local_epochs_(local_epochs) {}

std::vector<std::size_t> TimedHost::select(std::size_t count,
                                           const std::vector<bool>* busy) {
  Scope s(*this, Call::kSelect);
  return inner_.select(count, busy);
}

std::shared_ptr<const std::vector<float>> TimedHost::broadcast(
    std::uint64_t key, std::size_t copies, bool alias_ok,
    std::size_t* wire_bytes) {
  counts_.broadcast_copies += copies;
  Scope s(*this, Call::kBroadcast);
  return inner_.broadcast(key, copies, alias_ok, wire_bytes);
}

std::vector<fl::ClientUpdate> TimedHost::train(
    const std::vector<sched::Dispatch>& batch) {
  for (const auto& d : batch) {
    trained_.push_back({train_calls_, d.client_id, d.params.get()});
  }
  ++train_calls_;
  counts_.dispatches += batch.size();
  std::vector<fl::ClientUpdate> updates;
  {
    const double cpu0 = per_call_ ? process_cpu_s() : 0.0;
    Scope s(*this, Call::kTrain);
    updates = inner_.train(batch);
    if (per_call_) train_cpu_s_ += process_cpu_s() - cpu0;
  }
  for (const auto& u : updates) {
    counts_.samples += u.num_samples * local_epochs_;
    counts_.update_floats += u.params.size() + u.aux.size();
  }
  return updates;
}

std::size_t TimedHost::uplink(fl::ClientUpdate& update, std::uint64_t key,
                              const std::vector<float>& sent_from,
                              std::size_t round) {
  ++counts_.uplinks;
  Scope s(*this, Call::kUplink);
  return inner_.uplink(update, key, sent_from, round);
}

void TimedHost::aggregate(std::vector<fl::ClientUpdate>& updates,
                          const sched::RoundMeta& meta) {
  ++counts_.rounds;
  counts_.aggregated += updates.size();
  counts_.unavailable += meta.unavailable;
  {
    Scope s(*this, Call::kAggregate);
    inner_.aggregate(updates, meta);
  }
  round_ends_.push_back(Clock::now());
}

}  // namespace perfbench
