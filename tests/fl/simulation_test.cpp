#include "fl/simulation.h"

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>
#include <string>
#include <vector>

#include "algorithms/fedavg.h"
#include "algorithms/fedtrip.h"
#include "data/synthetic.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "nn/parameter_vector.h"
#include "sim_util.h"

namespace fedtrip::fl {
namespace {

TEST(SimulationTest, RunsConfiguredRounds) {
  auto cfg = testing::tiny_config();
  Simulation sim(cfg, std::make_unique<algorithms::FedAvg>());
  auto result = sim.run();
  EXPECT_EQ(result.history.size(), cfg.rounds);
  for (std::size_t i = 0; i < result.history.size(); ++i) {
    EXPECT_EQ(result.history[i].round, i + 1);
  }
}

TEST(SimulationTest, EvalEverySkipsRounds) {
  auto cfg = testing::tiny_config();
  cfg.rounds = 6;
  cfg.eval_every = 3;
  Simulation sim(cfg, std::make_unique<algorithms::FedAvg>());
  auto result = sim.run();
  ASSERT_EQ(result.history.size(), 2u);
  EXPECT_EQ(result.history[0].round, 3u);
  EXPECT_EQ(result.history[1].round, 6u);
}

TEST(SimulationTest, AccuraciesAreProbabilities) {
  auto cfg = testing::tiny_config();
  Simulation sim(cfg, std::make_unique<algorithms::FedAvg>());
  for (const auto& r : sim.run().history) {
    EXPECT_GE(r.test_accuracy, 0.0);
    EXPECT_LE(r.test_accuracy, 1.0);
  }
}

TEST(SimulationTest, FlopsAndCommAreMonotone) {
  auto cfg = testing::tiny_config();
  cfg.rounds = 4;
  Simulation sim(cfg, std::make_unique<algorithms::FedAvg>());
  auto result = sim.run();
  for (std::size_t i = 1; i < result.history.size(); ++i) {
    EXPECT_GT(result.history[i].cum_gflops, result.history[i - 1].cum_gflops);
    EXPECT_GT(result.history[i].cum_comm_mb,
              result.history[i - 1].cum_comm_mb);
  }
}

TEST(SimulationTest, CommVolumeMatchesClosedForm) {
  auto cfg = testing::tiny_config();
  cfg.rounds = 5;
  Simulation sim(cfg, std::make_unique<algorithms::FedAvg>());
  auto result = sim.run();
  // FedAvg: 2 |w| per selected client per round.
  const double expected_mb = 5.0 * cfg.clients_per_round * 2.0 *
                             result.model_params * 4.0 / 1e6;
  EXPECT_NEAR(result.history.back().cum_comm_mb, expected_mb, 1e-9);
}

TEST(SimulationTest, PartitionHistogramsExposed) {
  auto cfg = testing::tiny_config();
  Simulation sim(cfg, std::make_unique<algorithms::FedAvg>());
  auto result = sim.run();
  ASSERT_EQ(result.partition_histograms.size(), cfg.num_clients);
  for (const auto& hist : result.partition_histograms) {
    EXPECT_EQ(hist.size(), 10u);
    std::int64_t total = 0;
    for (auto c : hist) total += c;
    EXPECT_GT(total, 0);
  }
}

TEST(SimulationTest, FinalParamsMatchModelSize) {
  auto cfg = testing::tiny_config();
  Simulation sim(cfg, std::make_unique<algorithms::FedAvg>());
  auto result = sim.run();
  EXPECT_EQ(static_cast<double>(result.final_params.size()),
            result.model_params);
  // MLP 784-100-10.
  EXPECT_EQ(result.final_params.size(), 79510u);
}

TEST(SimulationTest, ModelCostsPopulated) {
  auto cfg = testing::tiny_config();
  Simulation sim(cfg, std::make_unique<algorithms::FedAvg>());
  auto result = sim.run();
  EXPECT_GT(result.model_forward_flops, 0.0);
  EXPECT_GT(result.model_backward_flops, result.model_forward_flops);
}

TEST(SimulationTest, InvalidClientCountsThrow) {
  auto cfg = testing::tiny_config();
  cfg.clients_per_round = 0;
  EXPECT_THROW(Simulation(cfg, std::make_unique<algorithms::FedAvg>()),
               std::invalid_argument);
  cfg.clients_per_round = 99;
  EXPECT_THROW(Simulation(cfg, std::make_unique<algorithms::FedAvg>()),
               std::invalid_argument);
}

// A model whose input geometry or class count does not match the data is
// rejected up front, naming both shapes.
void expect_misfit_throws(const ExperimentConfig& cfg,
                          const std::string& model_shape,
                          const std::string& data_shape) {
  try {
    Simulation sim(cfg, std::make_unique<algorithms::FedAvg>());
    ADD_FAILURE() << "expected std::invalid_argument";
  } catch (const std::invalid_argument& e) {
    const std::string what = e.what();
    EXPECT_NE(what.find(model_shape), std::string::npos) << what;
    EXPECT_NE(what.find(data_shape), std::string::npos) << what;
  }
}

TEST(SimulationTest, ModelChannelsMustMatchTheData) {
  auto cfg = testing::tiny_config();
  cfg.dataset = "cifar10";
  cfg.model.height = 32;
  cfg.model.width = 32;
  expect_misfit_throws(cfg, "1x32x32 inputs with 10 classes",
                       "3x32x32 inputs with 10 classes");
}

TEST(SimulationTest, ModelHeightMustMatchTheData) {
  auto cfg = testing::tiny_config();
  cfg.model.height = 27;
  expect_misfit_throws(cfg, "1x27x28", "1x28x28");
}

TEST(SimulationTest, ModelWidthMustMatchTheData) {
  auto cfg = testing::tiny_config();
  cfg.model.width = 29;
  expect_misfit_throws(cfg, "1x28x29", "1x28x28");
}

TEST(SimulationTest, ModelClassesMustMatchTheData) {
  auto cfg = testing::tiny_config();
  cfg.dataset = "emnist";
  expect_misfit_throws(cfg, "with 10 classes", "with 47 classes");
}

TEST(SimulationTest, SynthesizedShardsMustFitTheModelToo) {
  // Caller-provided MNIST-shaped data fits the model, but shard mode
  // synthesizes client data from the named (47-class) spec.
  auto cfg = testing::tiny_config();
  cfg.client_data = "shard";
  cfg.dataset = "emnist";
  auto mnist = data::generate(data::mnist_spec(0.02), cfg.seed);
  EXPECT_THROW(Simulation(cfg, std::make_unique<algorithms::FedAvg>(),
                          std::move(mnist)),
               std::invalid_argument);
}

// Test-set accuracy as one model on one thread computes it: the mean over
// 128-sample batches of each batch's accuracy, weighted by its size.
double reference_accuracy(const ExperimentConfig& cfg,
                          const data::Dataset& test,
                          const std::vector<float>& params) {
  auto model = nn::build_model(cfg.model, 0);
  nn::load_parameters(*model, params);
  const std::size_t total =
      cfg.eval_max_samples > 0 ? std::min(cfg.eval_max_samples, test.size())
                               : test.size();
  double acc_sum = 0.0;
  std::size_t seen = 0;
  for (std::size_t start = 0; start < total; start += 128) {
    std::vector<std::size_t> idx;
    for (std::size_t i = start; i < std::min(total, start + 128); ++i) {
      idx.push_back(i);
    }
    Tensor logits = model->forward(test.make_batch(idx), /*train=*/false);
    acc_sum += nn::accuracy(logits, test.make_batch_labels(idx)) *
               static_cast<double>(idx.size());
    seen += idx.size();
  }
  return acc_sum / static_cast<double>(seen);
}

TEST(SimulationTest, EvaluateOnLoadedParams) {
  auto cfg = testing::tiny_config();
  Simulation trainer(cfg, std::make_unique<algorithms::FedAvg>());
  const auto result = trainer.run();
  const std::vector<float>& params = result.final_params;
  EXPECT_EQ(trainer.evaluate(params), result.history.back().test_accuracy);
  ASSERT_EQ(trainer.test_data().size(), 250u);

  cfg.rounds = 1;
  for (std::size_t workers : {0, 1, 2, 3, 4}) {
    for (std::size_t max_samples : {1, 127, 128, 129, 0}) {
      SCOPED_TRACE("workers=" + std::to_string(workers) +
                   " eval_max_samples=" + std::to_string(max_samples));
      cfg.workers = workers;
      cfg.eval_max_samples = max_samples;
      Simulation sim(cfg, std::make_unique<algorithms::FedAvg>());
      const double want = reference_accuracy(cfg, sim.test_data(), params);
      // Never trained: evaluates on the calling thread.
      EXPECT_EQ(sim.evaluate(params), want);
      // Trained: evaluates over the training threads.
      sim.run();
      EXPECT_EQ(sim.evaluate(params), want);
    }
  }
}

TEST(SimulationTest, EvaluateRejectsParamsOfTheWrongSize) {
  auto cfg = testing::tiny_config();
  Simulation sim(cfg, std::make_unique<algorithms::FedAvg>());
  const std::vector<float> params = sim.run().final_params;
  std::vector<float> short_params(params.begin(), params.end() - 1);
  EXPECT_THROW(sim.evaluate(short_params), std::invalid_argument);
  std::vector<float> long_params = params;
  long_params.push_back(0.0f);
  EXPECT_THROW(sim.evaluate(long_params), std::invalid_argument);
  EXPECT_THROW(sim.evaluate({}), std::invalid_argument);
  EXPECT_NO_THROW(sim.evaluate(params));
}

TEST(SimulationTest, CnnEvaluationSplitOverThreadsMatchesOneModel) {
  auto cfg = testing::tiny_config();
  cfg.model.arch = nn::Arch::kCNN;
  cfg.rounds = 1;
  cfg.workers = 3;
  cfg.eval_max_samples = 129;
  Simulation sim(cfg, std::make_unique<algorithms::FedAvg>());
  const auto result = sim.run();
  EXPECT_EQ(sim.evaluate(result.final_params),
            reference_accuracy(cfg, sim.test_data(), result.final_params));
  EXPECT_EQ(sim.evaluate(result.final_params),
            result.history.back().test_accuracy);
}

TEST(SimulationTest, TrainingImprovesOverInit) {
  auto cfg = testing::learning_config();
  Simulation sim(cfg, std::make_unique<algorithms::FedAvg>());
  auto result = sim.run();
  // Final accuracy clearly above the 10% chance level.
  EXPECT_GT(result.history.back().test_accuracy, 0.3);
}

TEST(SimulationTest, FedTripRunsEndToEnd) {
  auto cfg = testing::tiny_config();
  Simulation sim(cfg, std::make_unique<algorithms::FedTrip>(0.4f));
  auto result = sim.run();
  EXPECT_EQ(result.history.size(), cfg.rounds);
}

TEST(SimulationTest, TrainLossRecorded) {
  auto cfg = testing::tiny_config();
  Simulation sim(cfg, std::make_unique<algorithms::FedAvg>());
  for (const auto& r : sim.run().history) {
    EXPECT_GT(r.train_loss, 0.0);
    EXPECT_LT(r.train_loss, 20.0);
  }
}

}  // namespace
}  // namespace fedtrip::fl
