// Small, fast ExperimentConfig presets shared by the fl / algorithm /
// integration tests.
#pragma once

#include "fl/config.h"

namespace fedtrip::fl::testing {

/// Tiny MLP-on-MNIST-analogue setup: runs a full FL round in milliseconds.
inline ExperimentConfig tiny_config() {
  ExperimentConfig cfg;
  cfg.model.arch = nn::Arch::kMLP;
  cfg.model.classes = 10;
  cfg.dataset = "mnist";
  cfg.data_scale = 0.02;  // 120 train / 250 test samples, 12 per client
  cfg.heterogeneity = data::Heterogeneity::kDir05;
  cfg.num_clients = 5;
  cfg.clients_per_round = 2;
  cfg.rounds = 3;
  cfg.local_epochs = 1;
  cfg.batch_size = 8;
  cfg.seed = 123;
  return cfg;
}

/// Slightly larger config that actually learns within ~20 rounds.
inline ExperimentConfig learning_config() {
  ExperimentConfig cfg = tiny_config();
  cfg.data_scale = 0.1;  // 600 train samples, 60 per client
  cfg.rounds = 20;
  cfg.batch_size = 16;
  return cfg;
}

}  // namespace fedtrip::fl::testing
