#include "nn/linear.h"

#include <cassert>
#include <cmath>

#include "tensor/ops.h"

namespace fedtrip::nn {

Linear::Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng)
    : in_features_(in_features),
      out_features_(out_features),
      weight_(Shape{out_features, in_features}),
      bias_(Shape{out_features}),
      grad_weight_(Shape{out_features, in_features}),
      grad_bias_(Shape{out_features}) {
  // Kaiming-uniform with gain for ReLU nets: U(-b, b), b = sqrt(6 / fan_in).
  const float bound =
      std::sqrt(6.0f / static_cast<float>(in_features > 0 ? in_features : 1));
  for (std::int64_t i = 0; i < weight_.numel(); ++i) {
    weight_[static_cast<std::size_t>(i)] = rng.uniform(-bound, bound);
  }
  bias_.zero();
}

Tensor Linear::forward(const Tensor& input, bool /*train*/) {
  assert(input.shape().rank() == 2 && input.shape()[1] == in_features_);
  input_cache_ = input;
  const std::int64_t batch = input.shape()[0];
  Tensor out(Shape{batch, out_features_});
  // out = input (B x in) * W^T (in x out): gemm_nt with B stored out x in.
  ops::gemm_nt(input.data(), weight_.data(), out.data(), batch, in_features_,
               out_features_);
  for (std::int64_t n = 0; n < batch; ++n) {
    float* row = out.data() + n * out_features_;
    for (std::int64_t j = 0; j < out_features_; ++j) row[j] += bias_[j];
  }
  return out;
}

Tensor Linear::backward(const Tensor& grad_output) {
  backward_params(grad_output);
  // grad_input (B x in) = grad_output (B x out) * W (out x in)
  const std::int64_t batch = grad_output.shape()[0];
  Tensor grad_input(Shape{batch, in_features_});
  ops::gemm(grad_output.data(), weight_.data(), grad_input.data(), batch,
            out_features_, in_features_);
  return grad_input;
}

void Linear::backward_params(const Tensor& grad_output) {
  assert(grad_output.shape().rank() == 2 &&
         grad_output.shape()[1] == out_features_);
  const std::int64_t batch = grad_output.shape()[0];
  assert(input_cache_.shape()[0] == batch);

  // grad_weight (out x in) += grad_output^T (out x B) * input (B x in)
  ops::gemm_tn(grad_output.data(), input_cache_.data(), grad_weight_.data(),
               out_features_, batch, in_features_, 1.0f, 1.0f);
  // grad_bias += column sums of grad_output
  for (std::int64_t n = 0; n < batch; ++n) {
    const float* row = grad_output.data() + n * out_features_;
    for (std::int64_t j = 0; j < out_features_; ++j) grad_bias_[j] += row[j];
  }
}

}  // namespace fedtrip::nn
