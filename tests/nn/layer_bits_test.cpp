// The bitwise layer checker (the naive-vs-device shape, one level above
// tests/tensor/ops_property_test.cpp): the per-sample Conv2d and Linear
// forward and backward, and the scalar ReLU and MaxPool, are frozen here as
// the loops the fast layers replaced, built on the frozen kernels. The
// layers must reproduce them byte for byte (memcmp) on the models' layer
// shapes, at several batch sizes, on inputs with exact zeros and special
// values. backward_params() must leave backward()'s parameter gradients.
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "../tensor/frozen_kernels.h"
#include "nn/activations.h"
#include "nn/conv2d.h"
#include "nn/linear.h"
#include "nn/loss.h"
#include "nn/models.h"
#include "nn/parameter_vector.h"
#include "nn/pooling.h"
#include "tensor/rng.h"

namespace fedtrip::nn {
namespace {

bool same_bytes(const float* x, const float* y, std::int64_t n) {
  return n == 0 ||
         std::memcmp(x, y, static_cast<std::size_t>(n) * sizeof(float)) == 0;
}

bool same_bytes(const Tensor& x, const std::vector<float>& y) {
  return x.numel() == static_cast<std::int64_t>(y.size()) &&
         same_bytes(x.data(), y.data(), x.numel());
}

// N(0, 1) with about a third exact zeros (of both signs), as after a ReLU
// or a masked gradient.
Tensor sparse_tensor(Shape shape, Rng& rng) {
  Tensor t(shape);
  for (std::int64_t i = 0; i < t.numel(); ++i) {
    const std::uint64_t r = rng.uniform_int(100);
    float x = rng.normal();
    if (r < 30) x = 0.0f;
    if (r < 3) x = -0.0f;
    t[static_cast<std::size_t>(i)] = x;
  }
  return t;
}

float quiet_nan() {
  volatile float inf = std::numeric_limits<float>::infinity();
  return inf - inf;
}

// --------------------------------------------------------- frozen layers

struct Grads {
  std::vector<float> out, grad_input, grad_weight, grad_bias;
};

// Conv2d as it was: per sample im2col + GEMM forward; backward per sample
// (bias sums, grad_weight via gemm_nt, dcols via gemm_tn, col2im), applied
// `passes` times so the parameter gradients also accumulate from non-zero.
Grads frozen_conv(const Tensor& weight, const Tensor& bias, const Tensor& x,
                  const Tensor& g, std::int64_t out_c, std::int64_t kk,
                  std::int64_t stride, std::int64_t pad, int passes) {
  const std::int64_t batch = x.shape()[0], in_c = x.shape()[1];
  const std::int64_t h = x.shape()[2], w = x.shape()[3];
  const std::int64_t out_h = ops::conv_out_size(h, kk, stride, pad);
  const std::int64_t out_w = ops::conv_out_size(w, kk, stride, pad);
  const std::int64_t col_rows = in_c * kk * kk, col_cols = out_h * out_w;
  const std::int64_t img_size = in_c * h * w, out_size = out_c * col_cols;
  Grads r;
  r.out.assign(static_cast<std::size_t>(batch * out_size), 0.0f);
  r.grad_input.assign(static_cast<std::size_t>(batch * img_size), 0.0f);
  r.grad_weight.assign(static_cast<std::size_t>(out_c * col_rows), 0.0f);
  r.grad_bias.assign(static_cast<std::size_t>(out_c), 0.0f);
  std::vector<float> cols(static_cast<std::size_t>(col_rows * col_cols));
  std::vector<float> dcols(cols.size());
  for (std::int64_t n = 0; n < batch; ++n) {
    frozen::im2col(x.data() + n * img_size, in_c, h, w, kk, kk, stride, pad,
                   cols.data());
    float* o = r.out.data() + n * out_size;
    frozen::gemm(weight.data(), cols.data(), o, out_c, col_rows, col_cols);
    for (std::int64_t c = 0; c < out_c; ++c) {
      for (std::int64_t i = 0; i < col_cols; ++i) {
        o[c * col_cols + i] += bias[static_cast<std::size_t>(c)];
      }
    }
  }
  for (int pass = 0; pass < passes; ++pass) {
    std::fill(r.grad_input.begin(), r.grad_input.end(), 0.0f);
    for (std::int64_t n = 0; n < batch; ++n) {
      const float* go = g.data() + n * out_size;
      for (std::int64_t c = 0; c < out_c; ++c) {
        float acc = 0.0f;
        for (std::int64_t i = 0; i < col_cols; ++i) acc += go[c * col_cols + i];
        r.grad_bias[static_cast<std::size_t>(c)] += acc;
      }
      frozen::im2col(x.data() + n * img_size, in_c, h, w, kk, kk, stride, pad,
                     cols.data());
      frozen::gemm_nt(go, cols.data(), r.grad_weight.data(), out_c, col_cols,
                      col_rows, 1.0f, 1.0f);
      frozen::gemm_tn(weight.data(), go, dcols.data(), col_rows, out_c,
                      col_cols);
      frozen::col2im(dcols.data(), in_c, h, w, kk, kk, stride, pad,
                     r.grad_input.data() + n * img_size);
    }
  }
  return r;
}

// Linear as it was: gemm_nt forward; gemm_tn weight gradient, column sums,
// gemm input gradient.
Grads frozen_linear(const Tensor& weight, const Tensor& bias, const Tensor& x,
                    const Tensor& g, int passes) {
  const std::int64_t batch = x.shape()[0], in = x.shape()[1];
  const std::int64_t out = weight.shape()[0];
  Grads r;
  r.out.assign(static_cast<std::size_t>(batch * out), 0.0f);
  frozen::gemm_nt(x.data(), weight.data(), r.out.data(), batch, in, out);
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t j = 0; j < out; ++j) {
      r.out[static_cast<std::size_t>(n * out + j)] +=
          bias[static_cast<std::size_t>(j)];
    }
  }
  r.grad_weight.assign(static_cast<std::size_t>(out * in), 0.0f);
  r.grad_bias.assign(static_cast<std::size_t>(out), 0.0f);
  r.grad_input.assign(static_cast<std::size_t>(batch * in), 0.0f);
  for (int pass = 0; pass < passes; ++pass) {
    frozen::gemm_tn(g.data(), x.data(), r.grad_weight.data(), out, batch, in,
                    1.0f, 1.0f);
    for (std::int64_t n = 0; n < batch; ++n) {
      for (std::int64_t j = 0; j < out; ++j) {
        r.grad_bias[static_cast<std::size_t>(j)] +=
            g[static_cast<std::size_t>(n * out + j)];
      }
    }
    frozen::gemm(g.data(), weight.data(), r.grad_input.data(), batch, out, in);
  }
  return r;
}

// ReLU as it was: a copy, zeroed where x > 0 fails, and a mask of ones.
void frozen_relu(const std::vector<float>& x, std::vector<float>& out,
                 std::vector<float>& mask) {
  out = x;
  mask.assign(x.size(), 0.0f);
  for (std::size_t i = 0; i < x.size(); ++i) {
    if (out[i] > 0.0f) {
      mask[i] = 1.0f;
    } else {
      out[i] = 0.0f;
    }
  }
}

// MaxPool2d forward as it was (bounds tests, branches, argmax starting at
// flat index 0); returns the flat argmax of every output.
std::vector<std::int64_t> frozen_maxpool(const Tensor& input,
                                         std::int64_t kernel,
                                         std::int64_t stride,
                                         std::vector<float>& out) {
  const std::int64_t batch = input.shape()[0], channels = input.shape()[1];
  const std::int64_t h = input.shape()[2], w = input.shape()[3];
  const std::int64_t out_h = ops::conv_out_size(h, kernel, stride, 0);
  const std::int64_t out_w = ops::conv_out_size(w, kernel, stride, 0);
  out.assign(static_cast<std::size_t>(batch * channels * out_h * out_w), 0.0f);
  std::vector<std::int64_t> argmax(out.size(), 0);
  std::size_t oi = 0;
  for (std::int64_t n = 0; n < batch; ++n) {
    for (std::int64_t c = 0; c < channels; ++c) {
      const float* plane = input.data() + (n * channels + c) * h * w;
      const std::int64_t plane_base = (n * channels + c) * h * w;
      for (std::int64_t oh = 0; oh < out_h; ++oh) {
        for (std::int64_t ow = 0; ow < out_w; ++ow, ++oi) {
          float best = -std::numeric_limits<float>::infinity();
          std::int64_t best_idx = 0;
          for (std::int64_t ki = 0; ki < kernel; ++ki) {
            const std::int64_t ih = oh * stride + ki;
            if (ih >= h) continue;
            for (std::int64_t kj = 0; kj < kernel; ++kj) {
              const std::int64_t iw = ow * stride + kj;
              if (iw >= w) continue;
              const float v = plane[ih * w + iw];
              if (v > best) {
                best = v;
                best_idx = plane_base + ih * w + iw;
              }
            }
          }
          out[oi] = best;
          argmax[oi] = best_idx;
        }
      }
    }
  }
  return argmax;
}

// ----------------------------------------------------------------- convs

// (in_c, out_c, kernel, stride, pad, h == w)
using ConvCase = std::tuple<int, int, int, int, int, int>;

class ConvBitsTest
    : public ::testing::TestWithParam<std::tuple<ConvCase, int>> {};

TEST_P(ConvBitsTest, MatchesFrozenPerSampleConv) {
  const auto [geom, batch] = GetParam();
  const auto [in_c, out_c, kk, stride, pad, hw] = geom;
  Rng rng(static_cast<std::uint64_t>(in_c * 1000 + out_c * 10 + batch));
  Conv2d conv(in_c, out_c, kk, stride, pad, rng);
  Tensor& weight = *conv.parameters()[0];
  Tensor& bias = *conv.parameters()[1];
  weight = sparse_tensor(weight.shape(), rng);  // zeros exercise the skip
  bias = sparse_tensor(bias.shape(), rng);
  const Tensor x = sparse_tensor(Shape{batch, in_c, hw, hw}, rng);
  const std::int64_t out_hw = ops::conv_out_size(hw, kk, stride, pad);
  const Tensor g = sparse_tensor(Shape{batch, out_c, out_hw, out_hw}, rng);
  const Grads want =
      frozen_conv(weight, bias, x, g, out_c, kk, stride, pad, /*passes=*/2);

  // Full backward, twice: parameter gradients accumulate.
  Tensor y = conv.forward(x, true);
  EXPECT_TRUE(same_bytes(y, want.out)) << "forward";
  Tensor gx = conv.backward(g);
  gx = conv.backward(g);
  EXPECT_TRUE(same_bytes(gx, want.grad_input)) << "grad_input";
  EXPECT_TRUE(same_bytes(*conv.gradients()[0], want.grad_weight))
      << "grad_weight";
  EXPECT_TRUE(same_bytes(*conv.gradients()[1], want.grad_bias)) << "grad_bias";

  // backward_params: the same parameter gradients, from a fresh start.
  conv.zero_grad();
  conv.forward(x, true);
  conv.backward_params(g);
  conv.backward_params(g);
  EXPECT_TRUE(same_bytes(*conv.gradients()[0], want.grad_weight))
      << "backward_params grad_weight";
  EXPECT_TRUE(same_bytes(*conv.gradients()[1], want.grad_bias))
      << "backward_params grad_bias";
}

INSTANTIATE_TEST_SUITE_P(
    ModelConvs, ConvBitsTest,
    ::testing::Combine(
        ::testing::Values(
            // The CNN on MNIST: conv1 (padded), conv2, conv3 (1x1 output).
            ConvCase{1, 6, 5, 1, 2, 28}, ConvCase{6, 16, 5, 1, 0, 14},
            ConvCase{16, 120, 5, 1, 0, 5},
            // AlexNet on CIFAR-10 at width 0.25: the stride-2 padded conv1,
            // the padded 3x3 convs on 8x8 and on 4x4 (a 16-column output).
            ConvCase{3, 16, 3, 2, 1, 32}, ConvCase{16, 48, 3, 1, 1, 8},
            ConvCase{48, 96, 3, 1, 1, 4},
            // 1x1 outputs whose windows see padding or skip by stride.
            ConvCase{4, 8, 5, 1, 1, 3}, ConvCase{3, 5, 3, 2, 0, 4}),
        ::testing::Values(1, 15, 16, 32)));

// ---------------------------------------------------------------- linear

// (in, out)
class LinearBitsTest
    : public ::testing::TestWithParam<std::tuple<std::tuple<int, int>, int>> {};

TEST_P(LinearBitsTest, MatchesFrozenLinear) {
  const auto [dims, batch] = GetParam();
  const auto [in, out] = dims;
  Rng rng(static_cast<std::uint64_t>(in * 100 + out + batch));
  Linear fc(in, out, rng);
  fc.weight() = sparse_tensor(fc.weight().shape(), rng);
  fc.bias() = sparse_tensor(fc.bias().shape(), rng);
  const Tensor x = sparse_tensor(Shape{batch, in}, rng);
  const Tensor g = sparse_tensor(Shape{batch, out}, rng);
  const Grads want = frozen_linear(fc.weight(), fc.bias(), x, g, 2);

  Tensor y = fc.forward(x, true);
  EXPECT_TRUE(same_bytes(y, want.out)) << "forward";
  Tensor gx = fc.backward(g);
  gx = fc.backward(g);
  EXPECT_TRUE(same_bytes(gx, want.grad_input)) << "grad_input";
  EXPECT_TRUE(same_bytes(*fc.gradients()[0], want.grad_weight))
      << "grad_weight";
  EXPECT_TRUE(same_bytes(*fc.gradients()[1], want.grad_bias)) << "grad_bias";

  fc.zero_grad();
  fc.forward(x, true);
  fc.backward_params(g);
  fc.backward_params(g);
  EXPECT_TRUE(same_bytes(*fc.gradients()[0], want.grad_weight))
      << "backward_params grad_weight";
  EXPECT_TRUE(same_bytes(*fc.gradients()[1], want.grad_bias))
      << "backward_params grad_bias";
}

INSTANTIATE_TEST_SUITE_P(
    ModelLinears, LinearBitsTest,
    ::testing::Combine(
        // The MLP's two layers and the CNN's classifier.
        ::testing::Values(std::tuple<int, int>{784, 100},
                          std::tuple<int, int>{100, 10},
                          std::tuple<int, int>{120, 84},
                          std::tuple<int, int>{84, 10}),
        ::testing::Values(1, 15, 16, 32)));

// ---------------------------------------------------- ReLU and MaxPool

// Special values: NaN of both signs, ±0, ±Inf, subnormals of both signs,
// and a few normals that repeat, so pooling windows hold ties.
std::vector<float> special_values(std::size_t n, Rng& rng) {
  const float inf = std::numeric_limits<float>::infinity();
  const float tiny = std::numeric_limits<float>::denorm_min();
  const float nan = quiet_nan();
  const float pool[] = {nan,  -nan,        0.0f, -0.0f, inf,  -inf,
                        tiny, -3.0f * tiny, 1.5f, 1.5f,  -2.0f, 0.25f};
  std::vector<float> v(n);
  for (auto& x : v) {
    const std::uint64_t r = rng.uniform_int(3);
    x = r == 0 ? pool[rng.uniform_int(std::size(pool))] : rng.normal();
  }
  return v;
}

TEST(ActivationBitsTest, ReluMatchesFrozenOnSpecialValues) {
  Rng rng(21);
  const std::vector<float> x = special_values(4 * 257, rng);
  const std::vector<float> g = special_values(x.size(), rng);
  std::vector<float> want_out, mask;
  frozen_relu(x, want_out, mask);
  std::vector<float> want_grad = g;
  for (std::size_t i = 0; i < g.size(); ++i) want_grad[i] *= mask[i];

  ReLU relu;
  const Tensor y = relu.forward(Tensor(Shape{4, 257}, x), true);
  EXPECT_TRUE(same_bytes(y, want_out));
  const Tensor gx = relu.backward(Tensor(Shape{4, 257}, g));
  EXPECT_TRUE(same_bytes(gx, want_grad));
}

TEST(PoolingBitsTest, MaxPoolMatchesFrozenOnSpecialValues) {
  // (kernel, stride, h, w); the last three have planes smaller than the
  // kernel in one or both dimensions, whose one window is clipped.
  for (const auto& [kernel, stride, h, w] :
       {std::tuple<int, int, int, int>{2, 2, 28, 28}, {2, 2, 9, 9},
        {3, 2, 11, 11}, {2, 1, 6, 6}, {2, 2, 1, 1}, {2, 2, 1, 5},
        {3, 2, 2, 9}}) {
    Rng rng(static_cast<std::uint64_t>(kernel * 100 + stride * 10 + h));
    const Shape shape{3, 2, h, w};
    const Tensor x(shape, special_values(static_cast<std::size_t>(
                                             shape.numel()),
                                         rng));
    std::vector<float> want_out;
    std::vector<std::int64_t> argmax =
        frozen_maxpool(x, kernel, stride, want_out);
    // The one behaviour change: a window with no element above -inf (all
    // -inf or NaN) routes its gradient to its own first element.
    const std::int64_t out_h = ops::conv_out_size(h, kernel, stride, 0);
    const std::int64_t out_w = ops::conv_out_size(w, kernel, stride, 0);
    for (std::size_t oi = 0; oi < argmax.size(); ++oi) {
      if (want_out[oi] > -std::numeric_limits<float>::infinity()) continue;
      const auto o = static_cast<std::int64_t>(oi);
      const std::int64_t plane = o / (out_h * out_w);
      const std::int64_t oh = (o / out_w) % out_h;
      const std::int64_t ow = o % out_w;
      argmax[oi] = plane * h * w + oh * stride * w + ow * stride;
    }
    const std::vector<float> g_values =
        special_values(want_out.size(), rng);
    std::vector<float> want_grad(static_cast<std::size_t>(shape.numel()),
                                 0.0f);
    for (std::size_t oi = 0; oi < argmax.size(); ++oi) {
      want_grad[static_cast<std::size_t>(argmax[oi])] += g_values[oi];
    }

    MaxPool2d pool(kernel, stride);
    const Tensor y = pool.forward(x, true);
    EXPECT_TRUE(same_bytes(y, want_out))
        << "forward k" << kernel << " " << h << "x" << w;
    const Tensor gx = pool.backward(Tensor(y.shape(), g_values));
    EXPECT_TRUE(same_bytes(gx, want_grad))
        << "backward k" << kernel << " " << h << "x" << w;
  }
}

// ---------------------------------------------------- backward_params

// backward_params() on a whole model leaves exactly the parameter
// gradients backward() does, dropout included.
void check_backward_params(const ModelSpec& spec, std::int64_t batch) {
  auto full = build_model(spec, 5);
  auto params_only = build_model(spec, 5);
  Rng rng(6);
  Tensor x(Shape{batch, spec.channels, spec.height, spec.width});
  for (std::int64_t i = 0; i < x.numel(); ++i) {
    x[static_cast<std::size_t>(i)] = rng.normal();
  }
  std::vector<std::int64_t> labels(static_cast<std::size_t>(batch));
  for (auto& l : labels) l = static_cast<std::int64_t>(rng.uniform_int(10));
  for (int step = 0; step < 2; ++step) {
    SoftmaxCrossEntropy ce_full, ce_params;
    ce_full.forward(full->forward(x, true), labels);
    ce_params.forward(params_only->forward(x, true), labels);
    full->zero_grad();
    params_only->zero_grad();
    full->backward(ce_full.backward());
    params_only->backward_params(ce_params.backward());
    const std::vector<float> want = flatten_gradients(*full);
    const std::vector<float> got = flatten_gradients(*params_only);
    ASSERT_EQ(got.size(), want.size());
    EXPECT_TRUE(same_bytes(got.data(), want.data(),
                           static_cast<std::int64_t>(got.size())))
        << arch_name(spec.arch) << " step " << step;
  }
}

TEST(BackwardParamsTest, MlpMatchesBackward) {
  ModelSpec spec;
  spec.arch = Arch::kMLP;
  check_backward_params(spec, 15);
}

TEST(BackwardParamsTest, CnnMatchesBackward) {
  ModelSpec spec;
  spec.arch = Arch::kCNN;
  check_backward_params(spec, 15);
}

TEST(BackwardParamsTest, AlexNetWithDropoutMatchesBackward) {
  ModelSpec spec;
  spec.arch = Arch::kAlexNet;
  spec.channels = 3;
  spec.height = 32;
  spec.width = 32;
  spec.width_mult = 0.25;
  spec.dropout = 0.5f;
  check_backward_params(spec, 8);
}

}  // namespace
}  // namespace fedtrip::nn
