#include "nn/pooling.h"

#include <algorithm>
#include <cassert>
#include <limits>

#include "tensor/ops.h"

namespace fedtrip::nn {

Tensor MaxPool2d::forward(const Tensor& input, bool /*train*/) {
  assert(input.shape().rank() == 4);
  input_shape_ = input.shape();
  const std::int64_t batch = input.shape()[0];
  const std::int64_t channels = input.shape()[1];
  const std::int64_t h = input.shape()[2];
  const std::int64_t w = input.shape()[3];
  const std::int64_t out_h = ops::conv_out_size(h, kernel_, stride_, 0);
  const std::int64_t out_w = ops::conv_out_size(w, kernel_, stride_, 0);

  Tensor out(Shape{batch, channels, out_h, out_w});
  argmax_.assign(static_cast<std::size_t>(out.numel()), 0);
  last_out_per_sample_ = channels * out_h * out_w;

  // Without padding every window starts inside the plane, and on a plane
  // at least as large as the kernel it ends inside too. A plane smaller
  // than the kernel still gets one window (conv_out_size truncates toward
  // zero), clipped here to the plane's rows and columns. A window with no
  // element above -inf (all -inf or NaN) routes its gradient to its own
  // first element.
  std::size_t oi = 0;
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < channels; ++c) {
      const std::int64_t plane_base = (n * channels + c) * h * w;
      const float* plane = input.data() + plane_base;
      for (std::int64_t oh = 0; oh < out_h; ++oh) {
        const std::int64_t rows = std::min(kernel_, h - oh * stride_);
        for (std::int64_t ow = 0; ow < out_w; ++ow, ++oi) {
          const std::int64_t cols = std::min(kernel_, w - ow * stride_);
          const std::int64_t first = oh * stride_ * w + ow * stride_;
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t best_idx = first;
          for (std::int64_t ki = 0; ki < rows; ++ki) {
            for (std::int64_t kj = 0; kj < cols; ++kj) {
              const std::int64_t idx = first + ki * w + kj;
              const float v = plane[idx];
              // The first strictly greater element wins; NaN never does.
              const bool greater = v > best;
              best = greater ? v : best;
              best_idx = greater ? idx : best_idx;
            }
          }
          out[oi] = best;
          argmax_[oi] = plane_base + best_idx;
        }
      }
    }
  }
  return out;
}

Tensor MaxPool2d::backward(const Tensor& grad_output) {
  Tensor grad_input(input_shape_);
  const std::int64_t n = grad_output.numel();
  assert(static_cast<std::size_t>(n) == argmax_.size());
  for (std::int64_t i = 0; i < n; ++i) {
    const auto idx = static_cast<std::size_t>(i);
    grad_input[static_cast<std::size_t>(argmax_[idx])] += grad_output[idx];
  }
  return grad_input;
}

Tensor AvgPool2d::forward(const Tensor& input, bool /*train*/) {
  assert(input.shape().rank() == 4);
  input_shape_ = input.shape();
  const std::int64_t batch = input.shape()[0];
  const std::int64_t channels = input.shape()[1];
  const std::int64_t h = input.shape()[2];
  const std::int64_t w = input.shape()[3];
  const std::int64_t out_h = ops::conv_out_size(h, kernel_, stride_, 0);
  const std::int64_t out_w = ops::conv_out_size(w, kernel_, stride_, 0);

  Tensor out(Shape{batch, channels, out_h, out_w});
  last_out_per_sample_ = channels * out_h * out_w;
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);

  std::size_t oi = 0;
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < channels; ++c) {
      const float* plane = input.data() + (n * channels + c) * h * w;
      for (std::int64_t oh = 0; oh < out_h; ++oh) {
        for (std::int64_t ow = 0; ow < out_w; ++ow, ++oi) {
          float acc = 0.0f;
          for (std::int64_t ki = 0; ki < kernel_; ++ki) {
            const std::int64_t ih = oh * stride_ + ki;
            if (ih >= h) continue;
            for (std::int64_t kj = 0; kj < kernel_; ++kj) {
              const std::int64_t iw = ow * stride_ + kj;
              if (iw >= w) continue;
              acc += plane[ih * w + iw];
            }
          }
          out[oi] = acc * inv;
        }
      }
    }
  }
  return out;
}

Tensor AvgPool2d::backward(const Tensor& grad_output) {
  Tensor grad_input(input_shape_);
  const std::int64_t batch = input_shape_[0];
  const std::int64_t channels = input_shape_[1];
  const std::int64_t h = input_shape_[2];
  const std::int64_t w = input_shape_[3];
  const std::int64_t out_h = grad_output.shape()[2];
  const std::int64_t out_w = grad_output.shape()[3];
  const float inv = 1.0f / static_cast<float>(kernel_ * kernel_);

  std::size_t oi = 0;
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < channels; ++c) {
      float* plane = grad_input.data() + (n * channels + c) * h * w;
      for (std::int64_t oh = 0; oh < out_h; ++oh) {
        for (std::int64_t ow = 0; ow < out_w; ++ow, ++oi) {
          const float g = grad_output[oi] * inv;
          for (std::int64_t ki = 0; ki < kernel_; ++ki) {
            const std::int64_t ih = oh * stride_ + ki;
            if (ih >= h) continue;
            for (std::int64_t kj = 0; kj < kernel_; ++kj) {
              const std::int64_t iw = ow * stride_ + kj;
              if (iw >= w) continue;
              plane[ih * w + iw] += g;
            }
          }
        }
      }
    }
  }
  return grad_input;
}

}  // namespace fedtrip::nn
