// Linear: fully-connected layer y = x W^T + b.
#pragma once

#include "nn/module.h"
#include "tensor/rng.h"

namespace fedtrip::nn {

class Linear : public Module {
 public:
  /// Weight is stored (out_features x in_features) row-major; bias is
  /// (out_features). Weights are Kaiming-uniform initialised from `rng`.
  Linear(std::int64_t in_features, std::int64_t out_features, Rng& rng);

  Tensor forward(const Tensor& input, bool train) override;
  Tensor backward(const Tensor& grad_output) override;
  void backward_params(const Tensor& grad_output) override;

  std::vector<Tensor*> parameters() override { return {&weight_, &bias_}; }
  std::vector<Tensor*> gradients() override {
    return {&grad_weight_, &grad_bias_};
  }
  std::string name() const override { return "Linear"; }

  double forward_flops_per_sample() const override {
    // GEMV: 2*in*out multiply-adds, plus the bias add.
    return 2.0 * static_cast<double>(in_features_) *
               static_cast<double>(out_features_) +
           static_cast<double>(out_features_);
  }

  std::int64_t in_features() const { return in_features_; }
  std::int64_t out_features() const { return out_features_; }

  Tensor& weight() { return weight_; }
  Tensor& bias() { return bias_; }

 private:
  std::int64_t in_features_;
  std::int64_t out_features_;
  Tensor weight_;
  Tensor bias_;
  Tensor grad_weight_;
  Tensor grad_bias_;
  Tensor input_cache_;
};

}  // namespace fedtrip::nn
