// Conv2d: 2-D convolution with full backward. A stride-1 conv with an
// output larger than 1x1 runs the direct kernels (ops::conv_forward,
// ops::conv_backward_params) for its forward and parameter gradients; the
// rest, and every input gradient, run im2col + GEMM.
#pragma once

#include <vector>

#include "nn/module.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace fedtrip::nn {

class Conv2d : public Module {
 public:
  Conv2d(std::int64_t in_channels, std::int64_t out_channels,
         std::int64_t kernel, std::int64_t stride, std::int64_t pad, Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;

  std::vector<Tensor*> parameters() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> gradients() override {
    return {&grad_weight_, &grad_bias_};
  }
  std::string name() const override { return "Conv2d"; }

  double forward_flops_per_sample() const override;

  std::int64_t in_channels() const { return in_channels_; }
  std::int64_t out_channels() const { return out_channels_; }
  std::int64_t kernel() const { return kernel_; }
  std::int64_t stride() const { return stride_; }
  std::int64_t pad() const { return pad_; }

 private:
  // The direct kernels' geometry for a batch at the last forward's size.
  ops::ConvShape shape(std::int64_t batch) const;

  std::int64_t in_channels_;
  std::int64_t out_channels_;
  std::int64_t kernel_;
  std::int64_t stride_;
  std::int64_t pad_;
  Tensor weight_;       // (out_c, in_c * k * k)
  Tensor bias_;         // (out_c)
  Tensor grad_weight_;
  Tensor grad_bias_;
  Tensor input_cache_;  // (N, C, H, W)
  // im2col scratch, kept across calls (a model belongs to one thread at a
  // time). A 1x1 output stacks the batch's columns here too.
  std::vector<float> cols_;
  std::vector<float> dcols_;
  // Cached output spatial geometry from the last forward.
  std::int64_t last_h_ = 0, last_w_ = 0, last_out_h_ = 0, last_out_w_ = 0;
};

}  // namespace fedtrip::nn
