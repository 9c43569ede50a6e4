#include "tensor/ops.h"

#include <algorithm>
#include <array>
#include <cassert>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

namespace fedtrip::ops {

namespace {
// Register-blocked inner kernel: C[i,:] += a_ik * B[k,:]. This "saxpy over
// rows" formulation streams B and C which vectorises well with -O2.
inline void gemm_row_update(const float* b_row, float* c_row, float a_ik,
                            std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) c_row[j] += a_ik * b_row[j];
}

// Element (i, p) of op(A): A is (m x k), or (k x m) when kTransA.
template <bool kTransA>
inline float a_at(const float* a, std::int64_t m, std::int64_t k,
                  std::int64_t i, std::int64_t p) {
  return kTransA ? a[p * m + i] : a[i * k + p];
}

// gemm and gemm_tn with n >= kNarrowCols: each row of C is scaled by beta,
// then takes one saxpy of a row of B per nonzero alpha * a_ip. Out of line
// so the narrow dispatch in its callers cannot change how this loop is
// compiled.
template <bool kTransA>
[[gnu::noinline]] void gemm_rows(const float* a, const float* b, float* c,
                                 std::int64_t m, std::int64_t k,
                                 std::int64_t n, float alpha, float beta) {
  for (std::int64_t i = 0; i < m; ++i) {
    float* c_row = c + i * n;
    if (beta == 0.0f) {
      std::memset(c_row, 0, static_cast<std::size_t>(n) * sizeof(float));
    } else if (beta != 1.0f) {
      for (std::int64_t j = 0; j < n; ++j) c_row[j] *= beta;
    }
    for (std::int64_t p = 0; p < k; ++p) {
      const float a_ip = alpha * a_at<kTransA>(a, m, k, i, p);
      if (a_ip != 0.0f) gemm_row_update(b + p * n, c_row, a_ip, n);
    }
  }
}

// Four floats in one SIMD register (GCC/Clang vector extension). +, * and
// != act lane by lane with the scalar operators' IEEE semantics, so a lane
// computes exactly what the scalar loop computes for its element.
typedef float f32x4 __attribute__((vector_size(16)));
typedef std::int32_t i32x4 __attribute__((vector_size(16)));

inline f32x4 load4(const float* p) {
  f32x4 v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

inline f32x4 splat(float x) { return f32x4{x, x, x, x}; }

// Lanes of `yes` where `mask` is set, of `no` elsewhere.
inline f32x4 select(i32x4 mask, f32x4 yes, f32x4 no) {
  return (f32x4)(((i32x4)yes & mask) | ((i32x4)no & ~mask));
}

// What gemm and gemm_tn start an element of C from.
inline float beta_start(const float* c, float beta) {
  if (beta == 0.0f) return 0.0f;
  return beta != 1.0f ? *c * beta : *c;
}

// ---------------------------------------------------------------- narrow
//
// gemm and gemm_tn with fewer than kNarrowCols output columns (a 1x1 conv
// output makes n = 1). Streaming C rows of length n through memory costs a
// store-to-load round trip per term; instead kNarrowRows rows at a time
// keep their outputs in registers, one row per lane, for the whole p loop.
// Each element still starts from its beta value and adds alpha*a_ip*b_pj in
// ascending p, skipping exactly the terms whose alpha*a_ip compares equal
// to zero.
//
// The cut is measured (bench_kernels' BM_GemmShape, and a sweep of every
// n from 1 to 32 on the CNN's 120x400 and AlexNet's 96x432 shapes, both
// transposes): this path beats gemm_rows at every n up to 15, by 1.3x to
// 10x, even where its 2n accumulators outnumber the 16 SSE registers. At
// n = 16, where a row of C is four whole vectors, its lead falls to 1.1x to
// 1.3x and it loses (0.86x) on AlexNet's 432x96 gemm_tn, a shape that
// models reach (AlexNet's 4x4 convs on 32x32 inputs).

constexpr std::int64_t kNarrowCols = 16;
// Rows per block: two f32x4 lanes of rows.
constexpr std::int64_t kNarrowRows = 8;

// Rows [i, i + kNarrowRows) of C, which has N columns.
template <std::int64_t N, bool kTransA>
void narrow_block(const float* a, const float* b, float* c, std::int64_t m,
                  std::int64_t k, std::int64_t i, float alpha, float beta) {
  f32x4 acc[N][2];
  for (std::int64_t j = 0; j < N; ++j) {
    float start[kNarrowRows];
    for (int r = 0; r < kNarrowRows; ++r) {
      start[r] = beta_start(c + (i + r) * N + j, beta);
    }
    acc[j][0] = load4(start);
    acc[j][1] = load4(start + 4);
  }
  const f32x4 alpha4 = splat(alpha);
  const f32x4 zero = {};
  for (std::int64_t p = 0; p < k; ++p) {
    f32x4 a_p[2];
    for (int v = 0; v < 2; ++v) {
      const std::int64_t r = i + 4 * v;
      a_p[v] = kTransA ? load4(a + p * m + r)
                       : f32x4{a[r * k + p], a[(r + 1) * k + p],
                               a[(r + 2) * k + p], a[(r + 3) * k + p]};
      a_p[v] = alpha4 * a_p[v];
    }
    const i32x4 live[2] = {a_p[0] != zero, a_p[1] != zero};
    const float* b_row = b + p * N;
    for (std::int64_t j = 0; j < N; ++j) {
      const f32x4 b_pj = splat(b_row[j]);
      for (int v = 0; v < 2; ++v) {
        acc[j][v] = select(live[v], acc[j][v] + a_p[v] * b_pj, acc[j][v]);
      }
    }
  }
  for (std::int64_t j = 0; j < N; ++j) {
    float out[kNarrowRows];
    std::memcpy(out, acc[j], sizeof out);
    for (int r = 0; r < kNarrowRows; ++r) c[(i + r) * N + j] = out[r];
  }
}

// Row i of C alone: the rows left over after the blocks.
template <std::int64_t N, bool kTransA>
void narrow_row(const float* a, const float* b, float* c, std::int64_t m,
                std::int64_t k, std::int64_t i, float alpha, float beta) {
  float acc[N];
  for (std::int64_t j = 0; j < N; ++j) acc[j] = beta_start(c + i * N + j, beta);
  for (std::int64_t p = 0; p < k; ++p) {
    const float a_ip = alpha * a_at<kTransA>(a, m, k, i, p);
    if (a_ip == 0.0f) continue;
    for (std::int64_t j = 0; j < N; ++j) acc[j] += a_ip * b[p * N + j];
  }
  for (std::int64_t j = 0; j < N; ++j) c[i * N + j] = acc[j];
}

template <std::int64_t N, bool kTransA>
void narrow_gemm(const float* a, const float* b, float* c, std::int64_t m,
                 std::int64_t k, float alpha, float beta) {
  std::int64_t i = 0;
  for (; i + kNarrowRows <= m; i += kNarrowRows) {
    narrow_block<N, kTransA>(a, b, c, m, k, i, alpha, beta);
  }
  for (; i < m; ++i) narrow_row<N, kTransA>(a, b, c, m, k, i, alpha, beta);
}

using NarrowFn = void (*)(const float*, const float*, float*, std::int64_t,
                          std::int64_t, float, float);

template <bool kTransA, std::size_t... Ns>
constexpr std::array<NarrowFn, sizeof...(Ns)> narrow_table(
    std::index_sequence<Ns...>) {
  return {&narrow_gemm<static_cast<std::int64_t>(Ns) + 1, kTransA>...};
}

// Dispatches on n in [1, kNarrowCols) to the kernel compiled for it.
template <bool kTransA>
void gemm_narrow(const float* a, const float* b, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n, float alpha, float beta) {
  static constexpr auto kTable = narrow_table<kTransA>(
      std::make_index_sequence<static_cast<std::size_t>(kNarrowCols - 1)>());
  kTable[static_cast<std::size_t>(n - 1)](a, b, c, m, k, alpha, beta);
}

// ---------------------------------------------------------------- gemm_nt
//
// B (n x k) is copied eight rows at a time into a p-major panel, padded
// with zeros past n, so each step of p loads eight consecutive floats. R
// rows of A against one panel keep R x 8 dot products in registers. Every
// dot product starts from +0.0f and adds a_ip * b_jp in ascending p; the
// padded columns are computed and dropped.

constexpr std::int64_t kNtCols = 8;
constexpr std::int64_t kNtRows = 4;

template <std::int64_t R>
void nt_block(const float* a, const float* panel, float* c, std::int64_t k,
              std::int64_t n, std::int64_t i, std::int64_t j0,
              std::int64_t cols, float alpha, float beta) {
  f32x4 acc[R][2] = {};
  for (std::int64_t p = 0; p < k; ++p) {
    const f32x4 b0 = load4(panel + p * kNtCols);
    const f32x4 b1 = load4(panel + p * kNtCols + 4);
    for (std::int64_t r = 0; r < R; ++r) {
      const f32x4 a_ip = splat(a[(i + r) * k + p]);
      acc[r][0] += a_ip * b0;
      acc[r][1] += a_ip * b1;
    }
  }
  const f32x4 alpha4 = splat(alpha);
  const f32x4 beta4 = splat(beta);
  for (std::int64_t r = 0; r < R; ++r) {
    // alpha * dot + (beta == 0 ? 0 : beta * c), lane by lane.
    float* c_row = c + (i + r) * n + j0;
    if (cols == kNtCols) {
      for (int v = 0; v < 2; ++v) {
        const f32x4 c_old =
            beta == 0.0f ? f32x4{} : beta4 * load4(c_row + 4 * v);
        const f32x4 c_new = alpha4 * acc[r][v] + c_old;
        std::memcpy(c_row + 4 * v, &c_new, sizeof c_new);
      }
    } else {
      float dot[kNtCols];
      std::memcpy(dot, acc[r], sizeof dot);
      for (std::int64_t jj = 0; jj < cols; ++jj) {
        c_row[jj] =
            alpha * dot[jj] + (beta == 0.0f ? 0.0f : beta * c_row[jj]);
      }
    }
  }
}
}  // namespace

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n, float alpha, float beta) {
  if (n >= kNarrowCols) {
    gemm_rows<false>(a, b, c, m, k, n, alpha, beta);
  } else if (n > 0) {
    gemm_narrow<false>(a, b, c, m, k, n, alpha, beta);
  }
}

void gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, float alpha, float beta) {
  // A is stored (k x m); we compute C(m x n) = alpha A^T B + beta C.
  if (n >= kNarrowCols) {
    gemm_rows<true>(a, b, c, m, k, n, alpha, beta);
  } else if (n > 0) {
    gemm_narrow<true>(a, b, c, m, k, n, alpha, beta);
  }
}

void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, float alpha, float beta) {
  // B is stored (n x k); C(m x n) = alpha A B^T + beta C.
  std::vector<float> panel(static_cast<std::size_t>(k * kNtCols));
  for (std::int64_t j0 = 0; j0 < n; j0 += kNtCols) {
    const std::int64_t cols = std::min(kNtCols, n - j0);
    for (std::int64_t p = 0; p < k; ++p) {
      for (std::int64_t jj = 0; jj < kNtCols; ++jj) {
        panel[static_cast<std::size_t>(p * kNtCols + jj)] =
            jj < cols ? b[(j0 + jj) * k + p] : 0.0f;
      }
    }
    std::int64_t i = 0;
    for (; i + kNtRows <= m; i += kNtRows) {
      nt_block<kNtRows>(a, panel.data(), c, k, n, i, j0, cols, alpha, beta);
    }
    for (; i < m; ++i) {
      nt_block<1>(a, panel.data(), c, k, n, i, j0, cols, alpha, beta);
    }
  }
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  assert(a.shape().rank() == 2 && b.shape().rank() == 2);
  assert(a.shape()[1] == b.shape()[0]);
  Tensor c(Shape{a.shape()[0], b.shape()[1]});
  gemm(a.data(), b.data(), c.data(), a.shape()[0], a.shape()[1], b.shape()[1]);
  return c;
}

void im2col(const float* img, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* cols) {
  const std::int64_t out_h = conv_out_size(height, kh, stride, pad);
  const std::int64_t out_w = conv_out_size(width, kw, stride, pad);
  const std::int64_t out_hw = out_h * out_w;
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t ki = 0; ki < kh; ++ki) {
      for (std::int64_t kj = 0; kj < kw; ++kj) {
        float* col_row = cols + ((c * kh + ki) * kw + kj) * out_hw;
        for (std::int64_t oh = 0; oh < out_h; ++oh) {
          const std::int64_t ih = oh * stride - pad + ki;
          if (ih < 0 || ih >= height) {
            std::memset(col_row + oh * out_w, 0,
                        static_cast<std::size_t>(out_w) * sizeof(float));
            continue;
          }
          const float* img_row = img + (c * height + ih) * width;
          for (std::int64_t ow = 0; ow < out_w; ++ow) {
            const std::int64_t iw = ow * stride - pad + kj;
            col_row[oh * out_w + ow] =
                (iw >= 0 && iw < width) ? img_row[iw] : 0.0f;
          }
        }
      }
    }
  }
}

void col2im(const float* cols, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* img) {
  const std::int64_t out_h = conv_out_size(height, kh, stride, pad);
  const std::int64_t out_w = conv_out_size(width, kw, stride, pad);
  const std::int64_t out_hw = out_h * out_w;
  for (std::int64_t c = 0; c < channels; ++c) {
    for (std::int64_t ki = 0; ki < kh; ++ki) {
      for (std::int64_t kj = 0; kj < kw; ++kj) {
        const float* col_row = cols + ((c * kh + ki) * kw + kj) * out_hw;
        for (std::int64_t oh = 0; oh < out_h; ++oh) {
          const std::int64_t ih = oh * stride - pad + ki;
          if (ih < 0 || ih >= height) continue;
          float* img_row = img + (c * height + ih) * width;
          for (std::int64_t ow = 0; ow < out_w; ++ow) {
            const std::int64_t iw = ow * stride - pad + kj;
            if (iw >= 0 && iw < width) img_row[iw] += col_row[oh * out_w + ow];
          }
        }
      }
    }
  }
}

void softmax_rows(float* x, std::int64_t rows, std::int64_t cols) {
  for (std::int64_t r = 0; r < rows; ++r) {
    float* row = x + r * cols;
    float mx = row[0];
    for (std::int64_t j = 1; j < cols; ++j) mx = std::max(mx, row[j]);
    float sum = 0.0f;
    for (std::int64_t j = 0; j < cols; ++j) {
      row[j] = std::exp(row[j] - mx);
      sum += row[j];
    }
    const float inv = 1.0f / sum;
    for (std::int64_t j = 0; j < cols; ++j) row[j] *= inv;
  }
}

}  // namespace fedtrip::ops
