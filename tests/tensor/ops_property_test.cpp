// Property sweeps over kernel shapes: GEMM kernels against a naive
// reference and, bit for bit, against the scalar kernels they replaced, in
// every instruction-set variant the host can run; the direct convolutions
// against frozen im2col + GEMM in every variant; im2col/col2im against
// their frozen loops and adjointness, across a parameter grid.
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "frozen_kernels.h"
#include "tensor/ops.h"
#include "tensor/rng.h"

namespace fedtrip {
namespace {

using GemmFn = ops::GemmFn;

// C += row p of A (k x m) times row p of B (k x n), one k = 1 gemm_nt per
// p: what add_outer_products must reproduce.
void frozen_add_outer(const float* a, const float* b, float* c,
                      std::int64_t m, std::int64_t k, std::int64_t n) {
  for (std::int64_t p = 0; p < k; ++p) {
    frozen::gemm_nt(a + p * m, b + p * n, c, m, 1, n, 1.0f, 1.0f);
  }
}

struct Kernel {
  const char* name;
  GemmFn ops::GemmKernels::*kernel;
  GemmFn reference;
};

const Kernel kKernels[] = {
    {"gemm", &ops::GemmKernels::gemm, &frozen::gemm},
    {"gemm_tn", &ops::GemmKernels::gemm_tn, &frozen::gemm_tn},
    {"gemm_nt", &ops::GemmKernels::gemm_nt, &frozen::gemm_nt},
};

// The instruction-set variants this CPU can run: the ISA axis of every
// check below. The baseline runs everywhere, so a wider host still checks
// it.
std::vector<const ops::GemmKernels*> runnable_variants() {
  std::vector<const ops::GemmKernels*> out;
  for (const ops::GemmKernels& v : ops::gemm_variants()) {
    if (v.supported()) out.push_back(&v);
  }
  return out;
}

// (alpha, beta) pairs: plain product, accumulate, scaled both ways, and an
// alpha of zero, which skips every term of gemm/gemm_tn.
const float kAlphaBeta[][2] = {{1.0f, 0.0f}, {1.0f, 1.0f}, {0.5f, 2.0f},
                               {0.0f, 1.0f}};

enum class Fill {
  kNormal,         // N(0, 1) with a fifth exact zeros
  kSpecial,        // plus ±0, subnormals and a few ±Inf and NaN
  kMixedNaNSigns,  // kSpecial with NaNs of both signs
  kNoZeros,        // kSpecial without exact zeros: no term is skipped
};

// The NaN an invalid operation produces on this machine: what the engine's
// own NaNs are.
float default_nan() {
  volatile float inf = std::numeric_limits<float>::infinity();
  return inf - inf;
}

void fill(std::vector<float>& v, Rng& rng, Fill how) {
  const float inf = std::numeric_limits<float>::infinity();
  const float tiny = std::numeric_limits<float>::denorm_min();
  const float nan = default_nan();
  for (auto& x : v) {
    const std::uint64_t r = rng.uniform_int(100);
    x = r < 20 ? 0.0f : rng.normal();
    if (how == Fill::kNormal) continue;
    if (r < 4) x = -0.0f;
    if (r >= 20 && r < 28) x = (r % 2 ? -3.0f : 5.0f) * tiny;  // subnormal
    if (how == Fill::kNoZeros && x == 0.0f) x = r % 2 ? -1.5f : 0.25f;
  }
  if (how == Fill::kNormal || v.empty()) return;
  // A handful of non-finite values, so most outputs stay finite.
  const float odd[] = {inf, -inf, nan,
                       how == Fill::kMixedNaNSigns ? -nan : nan};
  for (float x : odd) v[rng.uniform_int(v.size())] = x;
}

// Bytes of v with every NaN replaced by one NaN pattern.
std::vector<float> nan_canonical(std::vector<float> v) {
  for (auto& x : v) {
    if (std::isnan(x)) x = std::numeric_limits<float>::quiet_NaN();
  }
  return v;
}

bool same_bytes(const std::vector<float>& x, const std::vector<float>& y) {
  return x.size() == y.size() &&
         (x.empty() ||
          std::memcmp(x.data(), y.data(), x.size() * sizeof(float)) == 0);
}

using GemmShape = std::tuple<int, int, int>;  // m, k, n

class GemmPropertyTest : public ::testing::TestWithParam<GemmShape> {
 protected:
  // Every kernel of every runnable variant and every (alpha, beta) on
  // inputs filled `how`, against the frozen kernel on the same bytes.
  void check_bits(Fill how) {
    const auto [m, k, n] = GetParam();
    Rng rng(static_cast<std::uint64_t>(m * 10007 + k * 101 + n) ^
            (static_cast<std::uint64_t>(how) << 40));
    // One buffer size fits A in either storage order, likewise B.
    std::vector<float> a(static_cast<std::size_t>(m) * k);
    std::vector<float> b(static_cast<std::size_t>(k) * n);
    std::vector<float> c0(static_cast<std::size_t>(m) * n);
    fill(a, rng, how);
    fill(b, rng, how);
    fill(c0, rng, how == Fill::kNoZeros ? Fill::kSpecial : how);
    // Which NaN a sum of two different NaNs returns is left open by IEEE
    // 754; only then are NaNs compared as one pattern.
    const auto same = [&](std::vector<float> got, std::vector<float> want) {
      if (how == Fill::kMixedNaNSigns) {
        want = nan_canonical(std::move(want));
        got = nan_canonical(std::move(got));
      }
      return same_bytes(got, want);
    };
    for (const ops::GemmKernels* v : runnable_variants()) {
      for (const Kernel& kernel : kKernels) {
        for (const auto& ab : kAlphaBeta) {
          std::vector<float> want = c0, got = c0;
          kernel.reference(a.data(), b.data(), want.data(), m, k, n, ab[0],
                           ab[1]);
          (v->*kernel.kernel)(a.data(), b.data(), got.data(), m, k, n, ab[0],
                              ab[1]);
          ASSERT_TRUE(same(got, want)) << v->isa << " " << kernel.name
                                       << " alpha=" << ab[0]
                                       << " beta=" << ab[1];
        }
      }
      // add_outer_products reads A as (k x m).
      std::vector<float> want = c0, got = c0;
      frozen_add_outer(a.data(), b.data(), want.data(), m, k, n);
      v->add_outer_products(a.data(), b.data(), got.data(), m, k, n);
      ASSERT_TRUE(same(got, want)) << v->isa << " add_outer_products";
    }
  }
};

TEST_P(GemmPropertyTest, AllVariantsMatchReference) {
  const auto [m, k, n] = GetParam();
  Rng rng(static_cast<std::uint64_t>(m * 10007 + k * 101 + n));
  std::vector<float> a(static_cast<std::size_t>(m * k));
  std::vector<float> b(static_cast<std::size_t>(k * n));
  for (auto& v : a) v = rng.normal();
  for (auto& v : b) v = rng.normal();

  // Reference.
  std::vector<float> ref(static_cast<std::size_t>(m * n), 0.0f);
  for (int i = 0; i < m; ++i) {
    for (int j = 0; j < n; ++j) {
      float acc = 0.0f;
      for (int p = 0; p < k; ++p) acc += a[i * k + p] * b[p * n + j];
      ref[i * n + j] = acc;
    }
  }

  // gemm (NN).
  std::vector<float> c(static_cast<std::size_t>(m * n), 0.0f);
  ops::gemm(a.data(), b.data(), c.data(), m, k, n);
  for (std::size_t i = 0; i < c.size(); ++i) {
    ASSERT_NEAR(c[i], ref[i], 1e-3f * (std::abs(ref[i]) + 1.0f));
  }

  // gemm_tn with explicitly transposed A storage.
  std::vector<float> at(static_cast<std::size_t>(k * m));
  for (int i = 0; i < m; ++i) {
    for (int p = 0; p < k; ++p) at[p * m + i] = a[i * k + p];
  }
  std::vector<float> c_tn(static_cast<std::size_t>(m * n), 0.0f);
  ops::gemm_tn(at.data(), b.data(), c_tn.data(), m, k, n);
  for (std::size_t i = 0; i < c_tn.size(); ++i) {
    ASSERT_NEAR(c_tn[i], ref[i], 1e-3f * (std::abs(ref[i]) + 1.0f));
  }

  // gemm_nt with explicitly transposed B storage.
  std::vector<float> bt(static_cast<std::size_t>(n * k));
  for (int p = 0; p < k; ++p) {
    for (int j = 0; j < n; ++j) bt[j * k + p] = b[p * n + j];
  }
  std::vector<float> c_nt(static_cast<std::size_t>(m * n), 0.0f);
  ops::gemm_nt(a.data(), bt.data(), c_nt.data(), m, k, n);
  for (std::size_t i = 0; i < c_nt.size(); ++i) {
    ASSERT_NEAR(c_nt[i], ref[i], 1e-3f * (std::abs(ref[i]) + 1.0f));
  }
}

TEST_P(GemmPropertyTest, BitIdenticalToScalarKernels) {
  check_bits(Fill::kNormal);
}

TEST_P(GemmPropertyTest, SpecialValuesBitIdentical) {
  check_bits(Fill::kSpecial);
}

TEST_P(GemmPropertyTest, MixedSignNaNsStayNaN) {
  check_bits(Fill::kMixedNaNSigns);
}

TEST_P(GemmPropertyTest, NoSkippedTermBitIdentical) {
  check_bits(Fill::kNoZeros);
}

std::vector<GemmShape> gemm_shapes() {
  std::vector<GemmShape> shapes = {
      {1, 1, 1},    {1, 7, 3},    {5, 1, 9},   {8, 8, 8},
      {3, 17, 2},   {16, 5, 11},  {2, 2, 32},  {31, 13, 7},
      {5, 0, 3},    {5, 0, 20},   // k = 0: C is only scaled
      {120, 400, 1},              // CNN last conv forward, one sample
      {120, 400, 15},             // ... over paper-cnn's batch
      {120, 1, 400},              // one sample's weight gradient (gemm_nt)
      {400, 120, 1},              // one sample's input gradient (gemm_tn)
      {400, 120, 15},             // the batch's input gradient (gemm_tn)
      {6, 25, 784},               // CNN conv1 forward
      {16, 150, 100},             // CNN conv2 forward
      {150, 16, 100},             // its input gradient (gemm_tn)
      {32, 784, 100},             // MLP hidden layer forward (gemm_nt)
  };
  // Every narrow width and the wide path on both sides of the cut; 19 rows
  // leave a tail after each row block, and the widths past 16 leave a
  // partial last vector at 4, 8 and 16 lanes.
  for (int n = 1; n <= 17; ++n) shapes.emplace_back(19, 23, n);
  for (int n : {31, 33, 65, 100, 784}) shapes.emplace_back(19, 23, n);
  // Every row remainder of the narrow kernel's blocks (8 rows at 4 and 8
  // lanes, 16 at 16 lanes), at two widths below the cut.
  for (int m = 1; m <= 33; ++m) {
    shapes.emplace_back(m, 7, 8);
    shapes.emplace_back(m, 5, 1 + (m * 7) % 15);
  }
  return shapes;
}

TEST(GemmVariantsTest, BaselineLastAndTheFirstSupportedRuns) {
  const auto variants = ops::gemm_variants();
  ASSERT_FALSE(variants.empty());
  EXPECT_STREQ(variants.back().isa, "baseline");
  EXPECT_TRUE(variants.back().supported());
  const auto first = std::find_if(variants.begin(), variants.end(),
                                  [](const ops::GemmKernels& v) {
                                    return v.supported();
                                  });
  EXPECT_EQ(&ops::active_gemm(), &*first);
}

INSTANTIATE_TEST_SUITE_P(ShapeGrid, GemmPropertyTest,
                         ::testing::ValuesIn(gemm_shapes()));

// (in_c, out_c, h, w, kernel, pad) of a stride-1 convolution.
using DirectGeom = std::tuple<int, int, int, int, int, int>;

class DirectConvPropertyTest : public ::testing::TestWithParam<DirectGeom> {
 protected:
  // conv_forward and conv_backward_params of every runnable variant on
  // three samples filled `how`, against per-sample frozen im2col + gemm
  // (+ bias) and bias sums + frozen im2col + gemm_nt, the gradients over
  // two accumulating passes from non-zero starting values.
  void check_bits(Fill how) {
    const auto [in_c, out_c, h, w, kk, pad] = GetParam();
    const ops::ConvShape s{3, in_c, h, w, out_c, kk, pad};
    const std::int64_t out_h = ops::conv_out_size(h, kk, 1, pad);
    const std::int64_t out_w = ops::conv_out_size(w, kk, 1, pad);
    const std::int64_t taps = in_c * kk * kk, out_hw = out_h * out_w;
    const std::int64_t img = in_c * h * w, out_size = out_c * out_hw;
    Rng rng(static_cast<std::uint64_t>(in_c * 7919 + out_c * 613 + h * 31 +
                                       w * 7 + kk * 3 + pad) ^
            (static_cast<std::uint64_t>(how) << 40));
    std::vector<float> x(static_cast<std::size_t>(s.batch * img));
    std::vector<float> weight(static_cast<std::size_t>(out_c * taps));
    std::vector<float> bias(static_cast<std::size_t>(out_c));
    std::vector<float> dy(static_cast<std::size_t>(s.batch * out_size));
    std::vector<float> gw0(weight.size()), gb0(bias.size());
    for (auto* v : {&x, &weight, &bias, &dy, &gw0, &gb0}) fill(*v, rng, how);

    std::vector<float> want_y(dy.size()), want_gw = gw0, want_gb = gb0;
    std::vector<float> cols(static_cast<std::size_t>(taps * out_hw));
    for (int pass = 0; pass < 2; ++pass) {
      for (std::int64_t n = 0; n < s.batch; ++n) {
        frozen::im2col(x.data() + n * img, in_c, h, w, kk, kk, 1, pad,
                       cols.data());
        const float* go = dy.data() + n * out_size;
        if (pass == 0) {
          float* o = want_y.data() + n * out_size;
          frozen::gemm(weight.data(), cols.data(), o, out_c, taps, out_hw);
          for (std::int64_t c = 0; c < out_c; ++c) {
            for (std::int64_t q = 0; q < out_hw; ++q) {
              o[c * out_hw + q] += bias[static_cast<std::size_t>(c)];
            }
          }
        }
        for (std::int64_t c = 0; c < out_c; ++c) {
          float sum = 0.0f;
          for (std::int64_t q = 0; q < out_hw; ++q) sum += go[c * out_hw + q];
          want_gb[static_cast<std::size_t>(c)] += sum;
        }
        frozen::gemm_nt(go, cols.data(), want_gw.data(), out_c, out_hw, taps,
                        1.0f, 1.0f);
      }
    }
    const auto same = [&](std::vector<float> got, std::vector<float> want) {
      if (how == Fill::kMixedNaNSigns) {
        want = nan_canonical(std::move(want));
        got = nan_canonical(std::move(got));
      }
      return same_bytes(got, want);
    };
    for (const ops::GemmKernels* v : runnable_variants()) {
      std::vector<float> y(dy.size(), 7.0f), gw = gw0, gb = gb0;
      v->conv_forward(x.data(), weight.data(), bias.data(), y.data(), s);
      EXPECT_TRUE(same(y, want_y)) << v->isa << " conv_forward";
      for (int pass = 0; pass < 2; ++pass) {
        v->conv_backward_params(x.data(), dy.data(), gw.data(), gb.data(), s);
      }
      EXPECT_TRUE(same(gw, want_gw)) << v->isa << " grad_weight";
      EXPECT_TRUE(same(gb, want_gb)) << v->isa << " grad_bias";
    }
  }
};

TEST_P(DirectConvPropertyTest, BitIdenticalToIm2colGemm) {
  check_bits(Fill::kNormal);
}

TEST_P(DirectConvPropertyTest, SpecialValuesBitIdentical) {
  check_bits(Fill::kSpecial);
}

TEST_P(DirectConvPropertyTest, MixedSignNaNsStayNaN) {
  check_bits(Fill::kMixedNaNSigns);
}

TEST_P(DirectConvPropertyTest, NoSkippedTermBitIdentical) {
  check_bits(Fill::kNoZeros);
}

INSTANTIATE_TEST_SUITE_P(
    GeomGrid, DirectConvPropertyTest,
    ::testing::Values(
        // The CNN's conv1 and conv2.
        DirectGeom{1, 6, 28, 28, 5, 2}, DirectGeom{6, 16, 14, 14, 5, 0},
        // AlexNet's padded 3x3 convs on 8x8 and 4x4 (width 0.25).
        DirectGeom{16, 48, 8, 8, 3, 1}, DirectGeom{48, 96, 4, 4, 3, 1},
        // Output widths that are no multiple of 4, 8 or 16 lanes, and a
        // non-square image.
        DirectGeom{2, 5, 9, 13, 3, 1}, DirectGeom{3, 7, 11, 6, 3, 0},
        // K = 1, K = 7 with pad 3, pad 3 with K = 3, and a 1x1 output.
        DirectGeom{3, 4, 6, 5, 1, 0}, DirectGeom{2, 3, 12, 10, 7, 3},
        DirectGeom{2, 6, 5, 7, 3, 3}, DirectGeom{4, 8, 3, 3, 3, 0},
        // C_out = 1, 17 and 33.
        DirectGeom{3, 1, 10, 10, 5, 2}, DirectGeom{2, 17, 9, 9, 3, 1},
        DirectGeom{2, 33, 7, 7, 3, 1}));

// (channels, h, w, kernel, stride, pad)
using ConvGeom = std::tuple<int, int, int, int, int, int>;

class Im2ColPropertyTest : public ::testing::TestWithParam<ConvGeom> {};

TEST_P(Im2ColPropertyTest, AdjointIdentity) {
  const auto [c, h, w, kk, stride, pad] = GetParam();
  const std::int64_t oh = ops::conv_out_size(h, kk, stride, pad);
  const std::int64_t ow = ops::conv_out_size(w, kk, stride, pad);
  ASSERT_GT(oh, 0);
  ASSERT_GT(ow, 0);
  Rng rng(static_cast<std::uint64_t>(c * 131 + h * 17 + kk));
  const std::size_t img_n = static_cast<std::size_t>(c * h * w);
  const std::size_t col_n =
      static_cast<std::size_t>(c * kk * kk * oh * ow);
  std::vector<float> x(img_n), y(col_n), cols(col_n, 0.0f),
      back(img_n, 0.0f);
  for (auto& v : x) v = rng.normal();
  for (auto& v : y) v = rng.normal();
  ops::im2col(x.data(), c, h, w, kk, kk, stride, pad, cols.data());
  ops::col2im(y.data(), c, h, w, kk, kk, stride, pad, back.data());
  // <im2col(x), y> == <x, col2im(y)>
  double lhs = 0.0, rhs = 0.0;
  for (std::size_t i = 0; i < col_n; ++i) {
    lhs += static_cast<double>(cols[i]) * y[i];
  }
  for (std::size_t i = 0; i < img_n; ++i) {
    rhs += static_cast<double>(x[i]) * back[i];
  }
  EXPECT_NEAR(lhs, rhs, 1e-2 * (std::abs(lhs) + 1.0));
}

TEST_P(Im2ColPropertyTest, BitIdenticalToFrozenLoops) {
  const auto [c, h, w, kk, stride, pad] = GetParam();
  const std::int64_t oh = ops::conv_out_size(h, kk, stride, pad);
  const std::int64_t ow = ops::conv_out_size(w, kk, stride, pad);
  Rng rng(static_cast<std::uint64_t>(c * 7 + h * 3 + kk + stride * 1000));
  const std::size_t img_n = static_cast<std::size_t>(c * h * w);
  const std::size_t col_n = static_cast<std::size_t>(c * kk * kk * oh * ow);
  std::vector<float> img(img_n), cols(col_n);
  fill(img, rng, Fill::kSpecial);
  fill(cols, rng, Fill::kSpecial);
  // Start from garbage so every element im2col must write is checked.
  std::vector<float> want(col_n, 7.0f), got(col_n, 7.0f);
  frozen::im2col(img.data(), c, h, w, kk, kk, stride, pad, want.data());
  ops::im2col(img.data(), c, h, w, kk, kk, stride, pad, got.data());
  EXPECT_TRUE(same_bytes(got, want)) << "im2col";
  // col2im accumulates into what the image holds.
  std::vector<float> want_img = img, got_img = img;
  frozen::col2im(cols.data(), c, h, w, kk, kk, stride, pad, want_img.data());
  ops::col2im(cols.data(), c, h, w, kk, kk, stride, pad, got_img.data());
  EXPECT_TRUE(same_bytes(got_img, want_img)) << "col2im";
}

TEST_P(Im2ColPropertyTest, ColumnsContainOnlyImagePixelsOrZero) {
  const auto [c, h, w, kk, stride, pad] = GetParam();
  const std::int64_t oh = ops::conv_out_size(h, kk, stride, pad);
  const std::int64_t ow = ops::conv_out_size(w, kk, stride, pad);
  ASSERT_GT(oh, 0);
  ASSERT_GT(ow, 0);
  // Unique pixel values: every column entry must be one of them or 0 (pad).
  const std::size_t img_n = static_cast<std::size_t>(c * h * w);
  std::vector<float> x(img_n);
  for (std::size_t i = 0; i < img_n; ++i) {
    x[i] = static_cast<float>(i + 1);
  }
  std::vector<float> cols(
      static_cast<std::size_t>(c * kk * kk * oh * ow), -1.0f);
  ops::im2col(x.data(), c, h, w, kk, kk, stride, pad, cols.data());
  for (float v : cols) {
    const bool is_zero_pad = (v == 0.0f);
    const bool is_pixel =
        v >= 1.0f && v <= static_cast<float>(img_n) &&
        v == std::floor(v);
    EXPECT_TRUE(is_zero_pad || is_pixel) << v;
  }
}

INSTANTIATE_TEST_SUITE_P(
    GeomGrid, Im2ColPropertyTest,
    ::testing::Values(ConvGeom{1, 4, 4, 1, 1, 0}, ConvGeom{1, 5, 5, 3, 1, 1},
                      ConvGeom{2, 6, 6, 3, 2, 1}, ConvGeom{3, 8, 8, 5, 1, 2},
                      ConvGeom{2, 7, 5, 3, 2, 0}, ConvGeom{1, 9, 9, 5, 2, 2},
                      ConvGeom{4, 4, 4, 2, 2, 0}, ConvGeom{2, 5, 7, 3, 3, 2},
                      // The CNN's three convs and AlexNet's first two.
                      ConvGeom{1, 28, 28, 5, 1, 2}, ConvGeom{6, 14, 14, 5, 1, 0},
                      ConvGeom{16, 5, 5, 5, 1, 0}, ConvGeom{3, 32, 32, 3, 2, 1},
                      ConvGeom{16, 8, 8, 3, 1, 1}));

}  // namespace
}  // namespace fedtrip
