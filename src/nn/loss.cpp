#include "nn/loss.h"

#include <cassert>
#include <cmath>

#include "tensor/ops.h"

namespace fedtrip::nn {

float SoftmaxCrossEntropy::forward(const Tensor& logits,
                                   const std::vector<std::int64_t>& labels) {
  assert(logits.shape().rank() == 2);
  const std::int64_t batch = logits.shape()[0];
  const std::int64_t classes = logits.shape()[1];
  assert(static_cast<std::size_t>(batch) == labels.size());

  probs_ = logits;
  ops::softmax_rows(probs_.data(), batch, classes);
  labels_ = labels;

  double loss = 0.0;
  for (std::int64_t n = 0; n < batch; ++n) {
    const float p = probs_.at(n, labels[static_cast<std::size_t>(n)]);
    loss -= std::log(std::max(p, 1e-12f));
  }
  return static_cast<float>(loss / static_cast<double>(batch));
}

Tensor SoftmaxCrossEntropy::backward() const {
  const std::int64_t batch = probs_.shape()[0];
  const std::int64_t classes = probs_.shape()[1];
  Tensor grad = probs_;
  const float inv = 1.0f / static_cast<float>(batch);
  for (std::int64_t n = 0; n < batch; ++n) {
    float* row = grad.data() + n * classes;
    row[labels_[static_cast<std::size_t>(n)]] -= 1.0f;
    for (std::int64_t c = 0; c < classes; ++c) row[c] *= inv;
  }
  return grad;
}

void mark_correct(const Tensor& logits,
                  const std::vector<std::int64_t>& labels,
                  std::uint8_t* hits) {
  assert(logits.shape().rank() == 2);
  const std::int64_t batch = logits.shape()[0];
  const std::int64_t classes = logits.shape()[1];
  for (std::int64_t n = 0; n < batch; ++n) {
    const float* row = logits.data() + n * classes;
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < classes; ++c) {
      if (row[c] > row[best]) best = c;
    }
    hits[n] = best == labels[static_cast<std::size_t>(n)] ? 1 : 0;
  }
}

double accuracy(const Tensor& logits,
                const std::vector<std::int64_t>& labels) {
  assert(logits.shape().rank() == 2);
  const std::int64_t batch = logits.shape()[0];
  const std::int64_t classes = logits.shape()[1];
  if (batch == 0) return 0.0;
  std::int64_t correct = 0;
  for (std::int64_t n = 0; n < batch; ++n) {
    const float* row = logits.data() + n * classes;
    std::int64_t best = 0;
    for (std::int64_t c = 1; c < classes; ++c) {
      if (row[c] > row[best]) best = c;
    }
    if (best == labels[static_cast<std::size_t>(n)]) ++correct;
  }
  return static_cast<double>(correct) / static_cast<double>(batch);
}

}  // namespace fedtrip::nn
