#include "nn/conv2d.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <vector>

#include "tensor/ops.h"

namespace fedtrip::nn {

namespace {

// Grows a scratch buffer to at least n floats. Every caller overwrites
// what it reads, so the contents are never cleared.
void grow(std::vector<float>& buf, std::int64_t n) {
  if (static_cast<std::int64_t>(buf.size()) < n) {
    buf.resize(static_cast<std::size_t>(n));
  }
}

}  // namespace

Conv2d::Conv2d(std::int64_t in_channels, std::int64_t out_channels,
               std::int64_t kernel, std::int64_t stride, std::int64_t pad,
               Rng& rng)
    : in_channels_(in_channels),
      out_channels_(out_channels),
      kernel_(kernel),
      stride_(stride),
      pad_(pad),
      weight_(Shape{out_channels, in_channels * kernel * kernel}),
      bias_(Shape{out_channels}),
      grad_weight_(Shape{out_channels, in_channels * kernel * kernel}),
      grad_bias_(Shape{out_channels}) {
  const std::int64_t fan_in = in_channels * kernel * kernel;
  const float bound = std::sqrt(6.0f / static_cast<float>(fan_in));
  for (std::int64_t i = 0; i < weight_.numel(); ++i) {
    weight_[static_cast<std::size_t>(i)] = rng.uniform(-bound, bound);
  }
  bias_.zero();
}

ops::ConvShape Conv2d::shape(std::int64_t batch) const {
  return {batch, in_channels_, last_h_, last_w_, out_channels_, kernel_, pad_};
}

Tensor Conv2d::forward(const Tensor& input, bool /*train*/) {
  assert(input.shape().rank() == 4 && input.shape()[1] == in_channels_);
  input_cache_ = input;
  const std::int64_t batch = input.shape()[0];
  const std::int64_t h = input.shape()[2];
  const std::int64_t w = input.shape()[3];
  const std::int64_t out_h = ops::conv_out_size(h, kernel_, stride_, pad_);
  const std::int64_t out_w = ops::conv_out_size(w, kernel_, stride_, pad_);
  last_h_ = h;
  last_w_ = w;
  last_out_h_ = out_h;
  last_out_w_ = out_w;

  const std::int64_t col_rows = in_channels_ * kernel_ * kernel_;
  const std::int64_t col_cols = out_h * out_w;
  Tensor out(Shape{batch, out_channels_, out_h, out_w});
  const std::int64_t img_size = in_channels_ * h * w;
  const std::int64_t out_size = out_channels_ * col_cols;

  if (col_cols == 1) {
    // One output pixel per sample: column n of cols_ is sample n's
    // window, and one GEMM over the batch computes (out_c x batch), each
    // element exactly as the per-sample GEMV would.
    grow(cols_, col_rows * batch);
    grow(dcols_, std::max(col_rows, out_channels_ * batch));
    for (std::int64_t n = 0; n < batch; ++n) {
      ops::im2col(input.data() + n * img_size, in_channels_, h, w, kernel_,
                  kernel_, stride_, pad_, dcols_.data());
      for (std::int64_t r = 0; r < col_rows; ++r) {
        cols_[static_cast<std::size_t>(r * batch + n)] =
            dcols_[static_cast<std::size_t>(r)];
      }
    }
    ops::gemm(weight_.data(), cols_.data(), dcols_.data(), out_channels_,
              col_rows, batch);
    for (std::int64_t n = 0; n < batch; ++n) {
      for (std::int64_t c = 0; c < out_channels_; ++c) {
        out[static_cast<std::size_t>(n * out_channels_ + c)] =
            dcols_[static_cast<std::size_t>(c * batch + n)] +
            bias_[static_cast<std::size_t>(c)];
      }
    }
    return out;
  }

  if (stride_ == 1) {
    ops::conv_forward(input.data(), weight_.data(), bias_.data(), out.data(),
                      shape(batch));
    return out;
  }

  grow(cols_, col_rows * col_cols);
  for (std::int64_t n = 0; n < batch; ++n) {
    ops::im2col(input.data() + n * img_size, in_channels_, h, w, kernel_,
                kernel_, stride_, pad_, cols_.data());
    // out[n] (out_c x out_hw) = W (out_c x col_rows) * cols
    ops::gemm(weight_.data(), cols_.data(), out.data() + n * out_size,
              out_channels_, col_rows, col_cols);
    float* o = out.data() + n * out_size;
    for (std::int64_t c = 0; c < out_channels_; ++c) {
      const float b = bias_[static_cast<std::size_t>(c)];
      for (std::int64_t i = 0; i < col_cols; ++i) o[c * col_cols + i] += b;
    }
  }
  return out;
}

void Conv2d::backward_params(const Tensor& grad_output) {
  const std::int64_t batch = grad_output.shape()[0];
  assert(grad_output.shape()[1] == out_channels_);
  const std::int64_t col_cols = grad_output.shape()[2] * grad_output.shape()[3];
  assert(grad_output.shape()[2] == last_out_h_ &&
         grad_output.shape()[3] == last_out_w_);
  const std::int64_t col_rows = in_channels_ * kernel_ * kernel_;
  const std::int64_t img_size = in_channels_ * last_h_ * last_w_;
  const std::int64_t out_size = out_channels_ * col_cols;

  if (stride_ == 1 && col_cols > 1) {
    ops::conv_backward_params(input_cache_.data(), grad_output.data(),
                              grad_weight_.data(), grad_bias_.data(),
                              shape(batch));
    return;
  }

  for (std::int64_t n = 0; n < batch; ++n) {
    const float* go = grad_output.data() + n * out_size;
    // grad_bias += per-channel sums
    for (std::int64_t c = 0; c < out_channels_; ++c) {
      float acc = 0.0f;
      for (std::int64_t i = 0; i < col_cols; ++i) acc += go[c * col_cols + i];
      grad_bias_[static_cast<std::size_t>(c)] += acc;
    }
  }

  if (col_cols == 1) {
    // grad_weight += sum over n of grad_output[n] (out_c x 1) * cols[n]^T,
    // in sample order, in one pass: row n of cols_ is sample n's window.
    grow(cols_, batch * col_rows);
    for (std::int64_t n = 0; n < batch; ++n) {
      ops::im2col(input_cache_.data() + n * img_size, in_channels_, last_h_,
                  last_w_, kernel_, kernel_, stride_, pad_,
                  cols_.data() + n * col_rows);
    }
    ops::add_outer_products(grad_output.data(), cols_.data(),
                            grad_weight_.data(), out_channels_, batch,
                            col_rows);
    return;
  }

  grow(cols_, col_rows * col_cols);
  for (std::int64_t n = 0; n < batch; ++n) {
    // grad_weight += grad_output[n] (out_c x out_hw) * cols^T
    ops::im2col(input_cache_.data() + n * img_size, in_channels_, last_h_,
                last_w_, kernel_, kernel_, stride_, pad_, cols_.data());
    ops::gemm_nt(grad_output.data() + n * out_size, cols_.data(),
                 grad_weight_.data(), out_channels_, col_cols, col_rows, 1.0f,
                 1.0f);
  }
}

Tensor Conv2d::backward(const Tensor& grad_output) {
  backward_params(grad_output);

  const std::int64_t batch = grad_output.shape()[0];
  const std::int64_t col_cols = grad_output.shape()[2] * grad_output.shape()[3];
  const std::int64_t col_rows = in_channels_ * kernel_ * kernel_;
  const std::int64_t img_size = in_channels_ * last_h_ * last_w_;
  const std::int64_t out_size = out_channels_ * col_cols;
  Tensor grad_input(Shape{batch, in_channels_, last_h_, last_w_});

  if (col_cols == 1) {
    // dcols (col_rows x batch) = W^T (col_rows x out_c) * grad_output^T:
    // column n is what the per-sample GEMV gives sample n.
    grow(dcols_, std::max(col_rows, out_channels_ * batch));
    grow(cols_, col_rows * batch);
    for (std::int64_t n = 0; n < batch; ++n) {
      for (std::int64_t c = 0; c < out_channels_; ++c) {
        dcols_[static_cast<std::size_t>(c * batch + n)] =
            grad_output[static_cast<std::size_t>(n * out_channels_ + c)];
      }
    }
    ops::gemm_tn(weight_.data(), dcols_.data(), cols_.data(), col_rows,
                 out_channels_, batch);
    for (std::int64_t n = 0; n < batch; ++n) {
      for (std::int64_t r = 0; r < col_rows; ++r) {
        dcols_[static_cast<std::size_t>(r)] =
            cols_[static_cast<std::size_t>(r * batch + n)];
      }
      ops::col2im(dcols_.data(), in_channels_, last_h_, last_w_, kernel_,
                  kernel_, stride_, pad_, grad_input.data() + n * img_size);
    }
    return grad_input;
  }

  grow(dcols_, col_rows * col_cols);
  for (std::int64_t n = 0; n < batch; ++n) {
    // dcols (col_rows x out_hw) = W^T (col_rows x out_c) * grad_output[n]
    ops::gemm_tn(weight_.data(), grad_output.data() + n * out_size,
                 dcols_.data(), col_rows, out_channels_, col_cols);
    ops::col2im(dcols_.data(), in_channels_, last_h_, last_w_, kernel_, kernel_,
                stride_, pad_, grad_input.data() + n * img_size);
  }
  return grad_input;
}

double Conv2d::forward_flops_per_sample() const {
  // Requires the geometry from the last forward; before any forward we fall
  // back to assuming output spatial == input unknown, so return 0.
  if (last_out_h_ == 0) return 0.0;
  const double macs = static_cast<double>(out_channels_) * in_channels_ *
                      kernel_ * kernel_ * last_out_h_ * last_out_w_;
  return 2.0 * macs + static_cast<double>(out_channels_) * last_out_h_ *
                          last_out_w_;
}

}  // namespace fedtrip::nn
