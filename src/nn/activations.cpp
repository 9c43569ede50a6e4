#include "nn/activations.h"

#include <cassert>
#include <cmath>

namespace fedtrip::nn {

Tensor ReLU::forward(const Tensor& input, bool /*train*/) {
  Tensor out(input.shape());
  if (mask_.shape() != input.shape()) mask_ = Tensor(input.shape());
  const std::int64_t n = input.numel();
  const float* x = input.data();
  float* y = out.data();
  float* mask = mask_.data();
  // Selects, not branches: x > 0 is false for -0, +0 and NaN, which all
  // give +0 and a zero mask.
  for (std::int64_t i = 0; i < n; ++i) {
    const bool pos = x[i] > 0.0f;
    y[i] = pos ? x[i] : 0.0f;
    mask[i] = pos ? 1.0f : 0.0f;
  }
  last_per_sample_ = input.shape()[0] > 0 ? n / input.shape()[0] : 0;
  return out;
}

Tensor ReLU::backward(const Tensor& grad_output) {
  assert(grad_output.shape() == mask_.shape());
  Tensor grad = grad_output;
  const std::int64_t n = grad.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    grad[idx] *= mask_[idx];
  }
  return grad;
}

Tensor Tanh::forward(const Tensor& input, bool /*train*/) {
  Tensor out = input;
  const std::int64_t n = input.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    out[idx] = std::tanh(out[idx]);
  }
  output_cache_ = out;
  last_per_sample_ = input.shape()[0] > 0 ? n / input.shape()[0] : 0;
  return out;
}

Tensor Tanh::backward(const Tensor& grad_output) {
  assert(grad_output.shape() == output_cache_.shape());
  Tensor grad = grad_output;
  const std::int64_t n = grad.numel();
  for (std::int64_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    const float y = output_cache_[idx];
    grad[idx] *= (1.0f - y * y);
  }
  return grad;
}

}  // namespace fedtrip::nn
