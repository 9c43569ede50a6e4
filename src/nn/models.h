// Model zoo: the three architectures evaluated in the paper (Table III).
//
//  - MLP: 2 fully-connected layers (100, classes), ReLU after the first —
//    trained on MNIST / FMNIST.
//  - CNN: LeNet5-style, 3 conv layers with 5x5 filters + FC-84 + FC-classes —
//    trained on MNIST / FMNIST / EMNIST.
//  - AlexNet: compact AlexNet for 32x32x3 inputs (~2.7M params) — trained on
//    CIFAR-10. `width_mult` scales channel counts for quick bench runs.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>

#include "nn/sequential.h"

namespace fedtrip::nn {

enum class Arch { kMLP, kCNN, kAlexNet };

struct ModelSpec {
  Arch arch = Arch::kMLP;
  std::int64_t channels = 1;
  std::int64_t height = 28;
  std::int64_t width = 28;
  std::int64_t classes = 10;
  /// Channel/width multiplier in (0, 1] for scaled-down bench runs; 1.0
  /// reproduces the paper architecture.
  double width_mult = 1.0;
  /// Dropout probability for AlexNet FC layers (0 disables).
  float dropout = 0.0f;
};

/// Builds a freshly-initialised model. `seed` controls weight init (all
/// clients in an FL run share the same initial global model, so the engine
/// passes one seed per trial).
std::unique_ptr<Sequential> build_model(const ModelSpec& spec,
                                        std::uint64_t seed);

/// A reusable builder bound to a spec + seed; the FL engine's workspace
/// pool builds every model (MOON's auxiliary ones too) with it.
using ModelFactory = std::function<std::unique_ptr<Sequential>()>;

ModelFactory make_model_factory(const ModelSpec& spec, std::uint64_t seed);

const char* arch_name(Arch arch);
Arch arch_from_name(const std::string& name);

}  // namespace fedtrip::nn
