// Module: base class for all neural-network layers.
//
// There is deliberately no autograd tape: every layer implements an explicit
// backward() that consumes the gradient w.r.t. its output and produces the
// gradient w.r.t. its input, accumulating parameter gradients along the way;
// backward_params() is the same pass for a caller that needs only the
// parameter gradients.
// This keeps the per-layer FLOP accounting (Tables III/V/VIII of the paper)
// exact and auditable.
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "tensor/tensor.h"

namespace fedtrip::nn {

class Module {
 public:
  virtual ~Module() = default;

  /// Computes the layer output for a batch. `train` toggles train-time
  /// behaviour (e.g. dropout). Implementations cache whatever they need for
  /// backward().
  virtual Tensor forward(const Tensor& input, bool train) = 0;

  /// Propagates `grad_output` (dL/d output) backwards: accumulates parameter
  /// gradients (+=) and returns dL/d input. Must be called after forward()
  /// on the same batch.
  virtual Tensor backward(const Tensor& grad_output) = 0;

  /// Accumulates the parameter gradients backward() would (+=), and may
  /// skip dL/d input, which the caller does not read: what training calls
  /// on the first layers of a model. Must be called after forward() on the
  /// same batch. By default it runs backward() and drops the result.
  virtual void backward_params(const Tensor& grad_output) {
    backward(grad_output);
  }

  /// Learnable parameter tensors (may be empty).
  virtual std::vector<Tensor*> parameters() { return {}; }

  /// Gradient tensors, parallel to parameters().
  virtual std::vector<Tensor*> gradients() { return {}; }

  virtual std::string name() const = 0;

  /// FLOPs of one forward pass for a single sample (multiply-add = 2 FLOPs).
  virtual double forward_flops_per_sample() const { return 0.0; }

  /// FLOPs of one backward pass for a single sample. The standard estimate
  /// for dense layers is 2x forward (grad-input + grad-weight GEMMs).
  virtual double backward_flops_per_sample() const {
    return 2.0 * forward_flops_per_sample();
  }

  void zero_grad() {
    for (Tensor* g : gradients()) g->zero();
  }

  /// Restores internal random streams (Dropout) to their seeds, so a reused
  /// module draws exactly what a freshly built one would.
  virtual void reset_streams() {}

  std::int64_t parameter_count() {
    std::int64_t n = 0;
    for (Tensor* p : parameters()) n += p->numel();
    return n;
  }
};

using ModulePtr = std::unique_ptr<Module>;

}  // namespace fedtrip::nn
