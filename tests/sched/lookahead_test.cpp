// Lookahead training pinned against unit batches. The async and deadline
// policies may train, in one Host::train call, every in-flight dispatch the
// run is certain to consume (make_scheduler(..., true)); without that fact
// each flight trains as its own unit batch when it pops (false). Both
// drive one fl::RoundHost each, built from the same config, through a
// recording Host decorator, and every output must match bit for bit: the
// round records (cumulative GFLOPs included), the uplink stream (client,
// round and params bytes, in order), and the dispatches trained, each
// uplinked exactly once.
#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <tuple>
#include <vector>

#include "algorithms/registry.h"
#include "fl/round_host.h"
#include "fl/simulation.h"
#include "sched/registry.h"
#include "../fl/sim_util.h"

namespace fedtrip {
namespace {

/// One uplinked update: the client's model bits as trained.
struct Uplink {
  std::size_t client = 0;
  std::size_t round = 0;
  std::vector<std::uint32_t> params;
  bool operator==(const Uplink&) const = default;
};

std::vector<std::uint32_t> bits(const std::vector<float>& v) {
  std::vector<std::uint32_t> out(v.size());
  std::transform(v.begin(), v.end(), out.begin(),
                 [](float x) { return std::bit_cast<std::uint32_t>(x); });
  return out;
}

/// Forwards every call to the wrapped host and records the train batches
/// and the uplink stream. Uplink keys are unique per dispatch, so they
/// name what was trained and what was consumed.
class RecordingHost final : public sched::Host {
 public:
  explicit RecordingHost(sched::Host& inner) : inner_(inner) {}

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
  std::vector<std::size_t> select(std::size_t count,
                                  const std::vector<bool>* busy) override {
    return inner_.select(count, busy);
  }
  std::shared_ptr<const std::vector<float>> broadcast(
      std::uint64_t key, std::size_t copies, bool alias_ok,
      std::size_t* wire_bytes) override {
    return inner_.broadcast(key, copies, alias_ok, wire_bytes);
  }
  std::vector<fl::ClientUpdate> train(
      const std::vector<sched::Dispatch>& batch) override {
    batch_sizes.push_back(batch.size());
    for (const auto& d : batch) trained_keys.push_back(d.up_key);
    return inner_.train(batch);
  }
  std::size_t uplink(fl::ClientUpdate& update, std::uint64_t key,
                     const std::vector<float>& sent_from,
                     std::size_t round) override {
    uplinked_keys.push_back(key);
    uplinks.push_back({update.client_id, round, bits(update.params)});
    return inner_.uplink(update, key, sent_from, round);
  }
  void aggregate(std::vector<fl::ClientUpdate>& updates,
                 const sched::RoundMeta& meta) override {
    inner_.aggregate(updates, meta);
  }

  std::vector<std::size_t> batch_sizes;
  std::vector<std::uint64_t> trained_keys;
  std::vector<std::uint64_t> uplinked_keys;
  std::vector<Uplink> uplinks;

 private:
  sched::Host& inner_;
};

struct Recorded {
  std::vector<fl::RoundRecord> records;
  std::vector<std::size_t> batch_sizes;
  std::vector<std::uint64_t> trained_keys;
  std::vector<std::uint64_t> uplinked_keys;
  std::vector<Uplink> uplinks;
};

Recorded run(const fl::ExperimentConfig& cfg, const std::string& method,
             bool train_ahead) {
  algorithms::AlgoParams p;
  p.lr = cfg.lr;
  fl::Simulation sim(cfg, algorithms::make_algorithm(method, p));
  fl::RunResult result;
  fl::RoundHost host(sim, result);
  RecordingHost recording(host);
  sched::make_scheduler(cfg.sched, train_ahead)->run(recording);
  return {result.history, recording.batch_sizes, recording.trained_keys,
          recording.uplinked_keys, recording.uplinks};
}

void expect_same_records(const std::vector<fl::RoundRecord>& a,
                         const std::vector<fl::RoundRecord>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    SCOPED_TRACE("record " + std::to_string(i));
    EXPECT_EQ(a[i].round, b[i].round);
    EXPECT_EQ(a[i].test_accuracy, b[i].test_accuracy);
    EXPECT_EQ(a[i].train_loss, b[i].train_loss);
    EXPECT_EQ(a[i].cum_gflops, b[i].cum_gflops);
    EXPECT_EQ(a[i].cum_comm_mb, b[i].cum_comm_mb);
    EXPECT_EQ(a[i].cum_mb_down, b[i].cum_mb_down);
    EXPECT_EQ(a[i].cum_mb_up, b[i].cum_mb_up);
    EXPECT_EQ(a[i].cum_comm_seconds, b[i].cum_comm_seconds);
    EXPECT_EQ(a[i].mean_staleness, b[i].mean_staleness);
    EXPECT_EQ(a[i].max_staleness, b[i].max_staleness);
    EXPECT_EQ(a[i].dropped, b[i].dropped);
    EXPECT_EQ(a[i].unavailable, b[i].unavailable);
    EXPECT_EQ(a[i].deadline_deferred, b[i].deadline_deferred);
    EXPECT_EQ(a[i].mean_compute_seconds, b[i].mean_compute_seconds);
    EXPECT_EQ(a[i].mean_comm_seconds, b[i].mean_comm_seconds);
  }
}

/// Every trained dispatch is uplinked exactly once.
void expect_each_trained_once(const Recorded& r) {
  std::vector<std::uint64_t> trained = r.trained_keys;
  std::vector<std::uint64_t> uplinked = r.uplinked_keys;
  std::sort(trained.begin(), trained.end());
  std::sort(uplinked.begin(), uplinked.end());
  EXPECT_EQ(std::adjacent_find(trained.begin(), trained.end()),
            trained.end());
  EXPECT_EQ(trained, uplinked);
}

enum class TimeModel { kHeterogeneous, kLognormal, kUniform, kNone };

const char* time_model_name(TimeModel m) {
  switch (m) {
    case TimeModel::kHeterogeneous:
      return "BimodalStragglerMarkov";
    case TimeModel::kLognormal:
      return "LognormalHeterogeneous";
    case TimeModel::kUniform:
      return "UniformTies";
    case TimeModel::kNone:
      return "NoTimeModel";
  }
  return "?";
}

fl::ExperimentConfig lookahead_config(const std::string& policy,
                                      TimeModel model) {
  auto cfg = fl::testing::tiny_config();
  cfg.num_clients = 12;
  cfg.clients_per_round = 5;
  cfg.rounds = 8;
  cfg.sched.policy = policy;
  switch (model) {
    case TimeModel::kHeterogeneous:
      cfg.clients.compute_profile = "bimodal";
      cfg.clients.bimodal_fraction = 0.4;
      cfg.clients.seconds_per_sample = 0.05;
      cfg.clients.availability = "markov";
      cfg.clients.markov_mean_on_s = 8.0;
      cfg.clients.markov_mean_off_s = 3.0;
      cfg.comm.network.profile = comm::NetProfile::kStraggler;
      cfg.comm.network.straggler_fraction = 0.4;
      break;
    case TimeModel::kLognormal:
      cfg.clients.compute_profile = "lognormal";
      cfg.comm.network.profile = comm::NetProfile::kHeterogeneous;
      break;
    case TimeModel::kUniform:
      // Every client has the same round trip, so every arrival of a
      // dispatch made at the horizon's clock lands exactly on it.
      cfg.clients.compute_profile = "uniform";
      cfg.comm.network.profile = comm::NetProfile::kUniform;
      break;
    case TimeModel::kNone:
      break;
  }
  return cfg;
}

using Case = std::tuple<std::string, std::string, TimeModel>;

class LookaheadTest : public ::testing::TestWithParam<Case> {};

TEST_P(LookaheadTest, MatchesUnitBatchesBitForBit) {
  const auto& [method, policy, model] = GetParam();
  const auto cfg = lookahead_config(policy, model);
  const Recorded unit = run(cfg, method, /*train_ahead=*/false);
  const Recorded ahead = run(cfg, method, /*train_ahead=*/true);

  expect_same_records(unit.records, ahead.records);
  EXPECT_EQ(unit.records.size(), cfg.rounds);
  EXPECT_TRUE(unit.uplinks == ahead.uplinks);
  EXPECT_EQ(unit.uplinked_keys, ahead.uplinked_keys);
  expect_each_trained_once(unit);
  expect_each_trained_once(ahead);

  EXPECT_EQ(*std::max_element(unit.batch_sizes.begin(),
                              unit.batch_sizes.end()),
            1u);
  const std::size_t widest =
      *std::max_element(ahead.batch_sizes.begin(), ahead.batch_sizes.end());
  if (model != TimeModel::kNone) {
    EXPECT_GT(widest, 1u);
    EXPECT_LT(ahead.batch_sizes.size(), unit.batch_sizes.size());
  } else if (policy == "async") {
    // Every arrival is instantaneous: nothing is due strictly before the
    // horizon, so async degenerates to unit batches.
    EXPECT_EQ(widest, 1u);
  } else {
    // Every flight is due at its round's start, so each deadline round
    // trains its whole cohort in one call, like sync.
    EXPECT_EQ(ahead.batch_sizes.size(), cfg.rounds);
    EXPECT_EQ(widest, cfg.clients_per_round);
  }
}

INSTANTIATE_TEST_SUITE_P(
    MethodsPoliciesTimeModels, LookaheadTest,
    ::testing::Combine(::testing::Values("FedTrip", "MOON", "FedAvg"),
                       ::testing::Values("async", "deadline"),
                       ::testing::Values(TimeModel::kHeterogeneous,
                                         TimeModel::kLognormal,
                                         TimeModel::kUniform,
                                         TimeModel::kNone)),
    [](const ::testing::TestParamInfo<Case>& info) {
      return std::get<0>(info.param) + "_" + std::get<1>(info.param) + "_" +
             time_model_name(std::get<2>(info.param));
    });

// Virtual shards: each shard is synthesized on the thread that trains it,
// and a lookahead batch holds more dispatches than there are training
// threads, so workspaces are reused within one train call.
TEST(LookaheadVirtualTest, VirtualShardsMatchUnitBatches) {
  auto cfg = lookahead_config("async", TimeModel::kHeterogeneous);
  cfg.client_data = "virtual";
  cfg.shard_samples = 12;
  cfg.num_clients = 400;
  cfg.clients_per_round = 16;
  cfg.sched.buffer_size = 8;
  cfg.workers = 4;
  const Recorded unit = run(cfg, "FedTrip", false);
  const Recorded ahead = run(cfg, "FedTrip", true);
  expect_same_records(unit.records, ahead.records);
  EXPECT_TRUE(unit.uplinks == ahead.uplinks);
  expect_each_trained_once(ahead);
  EXPECT_GT(*std::max_element(ahead.batch_sizes.begin(),
                              ahead.batch_sizes.end()),
            cfg.workers);
}

}  // namespace
}  // namespace fedtrip
