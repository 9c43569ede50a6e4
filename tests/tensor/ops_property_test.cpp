// Property sweeps over kernel shapes: GEMM variants against a naive
// reference and, bit for bit, against the scalar kernels they replaced;
// im2col/col2im adjointness, across a parameter grid.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <tuple>
#include <vector>

#include "tensor/ops.h"
#include "tensor/rng.h"

namespace fedtrip {
namespace {

// The scalar GEMM kernels, frozen: the reference every ops:: GEMM must
// reproduce bit for bit (the exactness contract in tensor/ops.h).
namespace frozen {

inline void gemm_row_update(const float* b_row, float* c_row, float a_ik,
                            std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) c_row[j] += a_ik * b_row[j];
}

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n, float alpha, float beta) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* c_row = c + i * n;
    if (beta == 0.0f) {
      std::memset(c_row, 0, static_cast<std::size_t>(n) * sizeof(float));
    } else if (beta != 1.0f) {
      for (std::int64_t j = 0; j < n; ++j) c_row[j] *= beta;
    }
    const float* a_row = a + i * k;
    for (std::int64_t p = 0; p < k; ++p) {
      const float a_ip = alpha * a_row[p];
      if (a_ip != 0.0f) gemm_row_update(b + p * n, c_row, a_ip, n);
    }
  }
}

void gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, float alpha, float beta) {
  // A is stored (k x m); we compute C(m x n) = alpha A^T B + beta C.
  for (std::int64_t i = 0; i < m; ++i) {
    float* c_row = c + i * n;
    if (beta == 0.0f) {
      std::memset(c_row, 0, static_cast<std::size_t>(n) * sizeof(float));
    } else if (beta != 1.0f) {
      for (std::int64_t j = 0; j < n; ++j) c_row[j] *= beta;
    }
    for (std::int64_t p = 0; p < k; ++p) {
      const float a_pi = alpha * a[p * m + i];
      if (a_pi != 0.0f) gemm_row_update(b + p * n, c_row, a_pi, n);
    }
  }
}

void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, float alpha, float beta) {
  // B is stored (n x k); C(m x n) = alpha A B^T + beta C. Dot-product form.
  for (std::int64_t i = 0; i < m; ++i) {
    const float* a_row = a + i * k;
    float* c_row = c + i * n;
    for (std::int64_t j = 0; j < n; ++j) {
      const float* b_row = b + j * k;
      float acc = 0.0f;
      for (std::int64_t p = 0; p < k; ++p) acc += a_row[p] * b_row[p];
      c_row[j] = alpha * acc + (beta == 0.0f ? 0.0f : beta * c_row[j]);
    }
  }
}

}  // namespace frozen

using GemmFn = void (*)(const float*, const float*, float*, std::int64_t,
                        std::int64_t, std::int64_t, float, float);

struct Variant {
  const char* name;
  GemmFn kernel;
  GemmFn reference;
};

const Variant kVariants[] = {
    {"gemm", &ops::gemm, &frozen::gemm},
    {"gemm_tn", &ops::gemm_tn, &frozen::gemm_tn},
    {"gemm_nt", &ops::gemm_nt, &frozen::gemm_nt},
};

// (alpha, beta) pairs: plain product, accumulate, scaled both ways, and an
// alpha of zero, which skips every term of gemm/gemm_tn.
const float kAlphaBeta[][2] = {{1.0f, 0.0f}, {1.0f, 1.0f}, {0.5f, 2.0f},
                               {0.0f, 1.0f}};

enum class Fill {
  kNormal,         // N(0, 1) with a fifth exact zeros
  kSpecial,        // plus ±0, subnormals and a few ±Inf and NaN
  kMixedNaNSigns,  // kSpecial with NaNs of both signs
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
  // Every kernel and (alpha, beta) on inputs filled `how`, against the
  // frozen kernel on the same bytes.
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
    fill(c0, rng, how);
    for (const Variant& v : kVariants) {
      for (const auto& ab : kAlphaBeta) {
        std::vector<float> want = c0, got = c0;
        v.reference(a.data(), b.data(), want.data(), m, k, n, ab[0], ab[1]);
        v.kernel(a.data(), b.data(), got.data(), m, k, n, ab[0], ab[1]);
        // Which NaN a sum of two different NaNs returns is left open by
        // IEEE 754; only then are NaNs compared as one pattern.
        if (how == Fill::kMixedNaNSigns) {
          want = nan_canonical(std::move(want));
          got = nan_canonical(std::move(got));
        }
        ASSERT_TRUE(same_bytes(got, want))
            << v.name << " alpha=" << ab[0] << " beta=" << ab[1];
      }
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

std::vector<GemmShape> gemm_shapes() {
  std::vector<GemmShape> shapes = {
      {1, 1, 1},    {1, 7, 3},    {5, 1, 9},   {8, 8, 8},
      {3, 17, 2},   {16, 5, 11},  {2, 2, 32},  {31, 13, 7},
      {5, 0, 3},    {5, 0, 20},   // k = 0: C is only scaled
      {120, 400, 1},              // CNN last conv forward (1x1 output)
      {120, 1, 400},              // its weight gradient (gemm_nt)
      {400, 120, 1},              // its input gradient (gemm_tn)
      {32, 784, 100},             // MLP hidden layer forward (gemm_nt)
  };
  // Every narrow width and the wide path on both sides of the cut; 19 rows
  // leave a tail after each row block.
  for (int n = 1; n <= 17; ++n) shapes.emplace_back(19, 23, n);
  for (int n : {31, 100, 784}) shapes.emplace_back(19, 23, n);
  return shapes;
}

INSTANTIATE_TEST_SUITE_P(ShapeGrid, GemmPropertyTest,
                         ::testing::ValuesIn(gemm_shapes()));

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
                      ConvGeom{4, 4, 4, 2, 2, 0}));

}  // namespace
}  // namespace fedtrip
