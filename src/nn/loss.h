// SoftmaxCrossEntropy: fused softmax + NLL loss over integer labels.
#pragma once

#include <cstdint>
#include <vector>

#include "tensor/tensor.h"

namespace fedtrip::nn {

class SoftmaxCrossEntropy {
 public:
  /// Computes mean cross-entropy of `logits` (N x C) against `labels` (N).
  /// Caches softmax probabilities for backward().
  float forward(const Tensor& logits, const std::vector<std::int64_t>& labels);

  /// Returns dL/dlogits = (softmax - onehot) / N.
  Tensor backward() const;

  /// Softmax probabilities from the last forward (N x C).
  const Tensor& probabilities() const { return probs_; }

 private:
  Tensor probs_;
  std::vector<std::int64_t> labels_;
};

/// Sets hits[n] to 1 where row n of `logits` (N x C) has its argmax (the
/// first maximum) at labels[n], else to 0. `hits` holds N bytes.
void mark_correct(const Tensor& logits, const std::vector<std::int64_t>& labels,
                  std::uint8_t* hits);

/// Argmax classification accuracy of `logits` (N x C) against `labels`.
double accuracy(const Tensor& logits, const std::vector<std::int64_t>& labels);

}  // namespace fedtrip::nn
