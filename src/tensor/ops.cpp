#include "tensor/ops.h"

#include <algorithm>
#include <cassert>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

namespace fedtrip::ops {

namespace {

// GCC/Clang vector extension types. +, * and != act lane by lane with the
// scalar operators' IEEE semantics, so a lane computes exactly what the
// scalar loop computes for its element.
typedef float f32x4 __attribute__((vector_size(16)));
typedef std::int32_t i32x4 __attribute__((vector_size(16)));
typedef float f32x8 __attribute__((vector_size(32)));
typedef std::int32_t i32x8 __attribute__((vector_size(32)));
typedef float f32x16 __attribute__((vector_size(64)));
typedef std::int32_t i32x16 __attribute__((vector_size(64)));

// How the wide kernel updates an element of C per term (ops_kernels.inc).
enum class Update { kGemm, kGemmDense, kOuter };

struct WideArgs {
  const float* a;
  const float* b;
  float* c;
  std::int64_t m, k, n;
  float alpha, beta;
  const float* tail;  // k x lanes panel of B's last columns, or nullptr
  // A direct convolution's B: row p starts at b + shifts[p] (ops_kernels.inc)
  const std::int64_t* shifts;
};

// ------------------------------------------------------- per-ISA builds
//
// ops_kernels.inc compiled once per instruction set, each with the block
// shapes bench_kernels measured fastest for it (BM_GemmShape/<isa>/...):
//   kWideRows x kWideVecs   rows x vectors of C a wide block keeps in
//                           registers;
//   kDenseBlocks            whether a wide row block with no skipped term
//                           drops the blend (on AVX2 and SSE2 an extra
//                           instruction per vector; on AVX-512 folded
//                           into a masked add);
//   kNarrowCols             below this many output columns gemm and
//                           gemm_tn take the narrow kernel, which holds
//                           kNarrowVecs vectors of rows;
//   kNtRows x kNtVecs       rows x vectors of gemm_nt's panel;
//   kGradTaps x kGradVecs   taps x vectors of output channels a block of
//                           conv_backward_params keeps in registers.
// No signature in ops_kernels.inc passes a vector by value, so none
// depends on the vector ABI (-Wpsabi).

#define FEDTRIP_KERNEL [[gnu::always_inline]] inline FEDTRIP_TARGET

#if defined(__x86_64__) || defined(__i386__)
namespace avx512 {
using V = f32x16;
using M = i32x16;
constexpr int kWideRows = 4, kWideVecs = 4;
constexpr bool kDenseBlocks = false;
constexpr std::int64_t kNarrowCols = 16;
constexpr int kNarrowVecs = 1;
constexpr int kNtRows = 8, kNtVecs = 1;
constexpr int kGradTaps = 8, kGradVecs = 2;
#define FEDTRIP_TARGET __attribute__((target("avx512f")))
#include "tensor/ops_kernels.inc"
#undef FEDTRIP_TARGET
}  // namespace avx512

namespace avx2 {
using V = f32x8;
using M = i32x8;
constexpr int kWideRows = 4, kWideVecs = 2;
constexpr bool kDenseBlocks = true;
constexpr std::int64_t kNarrowCols = 16;
constexpr int kNarrowVecs = 1;
constexpr int kNtRows = 4, kNtVecs = 1;
constexpr int kGradTaps = 4, kGradVecs = 2;
#define FEDTRIP_TARGET __attribute__((target("avx2")))
#include "tensor/ops_kernels.inc"
#undef FEDTRIP_TARGET
}  // namespace avx2

bool has_avx512f() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f");
}
bool has_avx2() {
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2");
}
#endif

namespace baseline {
using V = f32x4;
using M = i32x4;
constexpr int kWideRows = 4, kWideVecs = 2;
constexpr bool kDenseBlocks = true;
constexpr std::int64_t kNarrowCols = 16;
constexpr int kNarrowVecs = 2;
constexpr int kNtRows = 4, kNtVecs = 2;
constexpr int kGradTaps = 4, kGradVecs = 2;
#define FEDTRIP_TARGET
#include "tensor/ops_kernels.inc"
#undef FEDTRIP_TARGET
}  // namespace baseline

#undef FEDTRIP_KERNEL

bool has_baseline() { return true; }

// Off x86 only the baseline, compiled for the target's own vectors.
const GemmKernels kVariants[] = {
#if defined(__x86_64__) || defined(__i386__)
    {"avx512f", &has_avx512f, &avx512::gemm, &avx512::gemm_tn,
     &avx512::gemm_nt, &avx512::add_outer_products, &avx512::conv_forward,
     &avx512::conv_backward_params},
    {"avx2", &has_avx2, &avx2::gemm, &avx2::gemm_tn, &avx2::gemm_nt,
     &avx2::add_outer_products, &avx2::conv_forward,
     &avx2::conv_backward_params},
#endif
    {"baseline", &has_baseline, &baseline::gemm, &baseline::gemm_tn,
     &baseline::gemm_nt, &baseline::add_outer_products,
     &baseline::conv_forward, &baseline::conv_backward_params},
};

const GemmKernels& pick_variant() {
  for (const GemmKernels& v : kVariants) {
    if (v.supported()) return v;
  }
  return kVariants[std::size(kVariants) - 1];
}

}  // namespace

std::span<const GemmKernels> gemm_variants() { return kVariants; }

const GemmKernels& active_gemm() {
  static const GemmKernels& active = pick_variant();
  return active;
}

void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n, float alpha, float beta) {
  active_gemm().gemm(a, b, c, m, k, n, alpha, beta);
}

void gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, float alpha, float beta) {
  active_gemm().gemm_tn(a, b, c, m, k, n, alpha, beta);
}

void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, float alpha, float beta) {
  active_gemm().gemm_nt(a, b, c, m, k, n, alpha, beta);
}

void add_outer_products(const float* a, const float* b, float* c,
                        std::int64_t m, std::int64_t k, std::int64_t n) {
  active_gemm().add_outer_products(a, b, c, m, k, n);
}

void conv_forward(const float* x, const float* weight, const float* bias,
                  float* y, const ConvShape& s) {
  active_gemm().conv_forward(x, weight, bias, y, s);
}

void conv_backward_params(const float* x, const float* grad_y,
                          float* grad_weight, float* grad_bias,
                          const ConvShape& s) {
  active_gemm().conv_backward_params(x, grad_y, grad_weight, grad_bias, s);
}

Tensor matmul(const Tensor& a, const Tensor& b) {
  assert(a.shape().rank() == 2 && b.shape().rank() == 2);
  assert(a.shape()[1] == b.shape()[0]);
  Tensor c(Shape{a.shape()[0], b.shape()[1]});
  gemm(a.data(), b.data(), c.data(), a.shape()[0], a.shape()[1], b.shape()[1]);
  return c;
}

namespace {

// The output columns ow whose input column ow * stride - pad + kj lies in
// [0, width): [lo, hi).
void valid_cols(std::int64_t out_w, std::int64_t width, std::int64_t kj,
                std::int64_t stride, std::int64_t pad, std::int64_t& lo,
                std::int64_t& hi) {
  const std::int64_t first = pad - kj;  // ow * stride >= first
  lo = first > 0 ? (first + stride - 1) / stride : 0;
  const std::int64_t last = width - 1 + pad - kj;  // ow * stride <= last
  hi = last < 0 ? 0 : std::min(out_w, last / stride + 1);
  lo = std::min(lo, hi);
}

}  // namespace

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
        std::int64_t lo, hi;
        valid_cols(out_w, width, kj, stride, pad, lo, hi);
        for (std::int64_t oh = 0; oh < out_h; ++oh) {
          float* out = col_row + oh * out_w;
          const std::int64_t ih = oh * stride - pad + ki;
          if (ih < 0 || ih >= height) {
            std::fill(out, out + out_w, 0.0f);
            continue;
          }
          const float* in_row = img + (c * height + ih) * width;
          const std::int64_t shift = kj - pad;
          std::fill(out, out + lo, 0.0f);
          for (std::int64_t ow = lo; ow < hi; ++ow) {
            out[ow] = in_row[ow * stride + shift];
          }
          std::fill(out + hi, out + out_w, 0.0f);
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
        std::int64_t lo, hi;
        valid_cols(out_w, width, kj, stride, pad, lo, hi);
        for (std::int64_t oh = 0; oh < out_h; ++oh) {
          const std::int64_t ih = oh * stride - pad + ki;
          if (ih < 0 || ih >= height) continue;
          float* out_row = img + (c * height + ih) * width;
          const std::int64_t shift = kj - pad;
          const float* in = col_row + oh * out_w;
          for (std::int64_t ow = lo; ow < hi; ++ow) {
            out_row[ow * stride + shift] += in[ow];
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
