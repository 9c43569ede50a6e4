// Dropout: inverted dropout (scale at train time, identity at eval).
//
// Holds its own RNG stream so a client's training trajectory is fully
// determined by its seed, independent of thread scheduling.
#pragma once

#include "nn/module.h"
#include "tensor/rng.h"

namespace fedtrip::nn {

class Dropout : public Module {
 public:
  explicit Dropout(float p, std::uint64_t seed = 0xD509)
      : p_(p), seed_(seed), rng_(seed) {}

  Tensor forward(const Tensor& input, bool train) override {
    if (!train || p_ <= 0.0f) {
      mask_ = Tensor();  // identity backward
      return input;
    }
    Tensor out = input;
    mask_ = Tensor(input.shape());
    const float scale = 1.0f / (1.0f - p_);
    const std::int64_t n = input.numel();
    for (std::int64_t i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      if (rng_.uniform() < p_) {
        out[idx] = 0.0f;
        mask_[idx] = 0.0f;
      } else {
        out[idx] *= scale;
        mask_[idx] = scale;
      }
    }
    return out;
  }

  Tensor backward(const Tensor& grad_output) override {
    if (mask_.empty()) return grad_output;
    Tensor grad = grad_output;
    const std::int64_t n = grad.numel();
    for (std::int64_t i = 0; i < n; ++i) {
      const auto idx = static_cast<std::size_t>(i);
      grad[idx] *= mask_[idx];
    }
    return grad;
  }

  std::string name() const override { return "Dropout"; }

  void reset_streams() override { rng_ = Rng(seed_); }

 private:
  float p_;
  std::uint64_t seed_;
  Rng rng_;
  Tensor mask_;
};

}  // namespace fedtrip::nn
