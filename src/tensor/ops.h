// ops: dense kernels (GEMM family, direct stride-1 convolution,
// im2col/col2im, row softmax) used by the nn layers. All matrices are
// row-major.
//
// Exactness contract of the GEMM family and the direct convolutions.
// Results are bit-identical to the plain scalar loops, for every shape, on
// every path a kernel takes and in every instruction-set variant
// (tests/tensor/ops_property_test.cpp pins each variant the host can run
// against frozen copies):
//   * gemm / gemm_tn: element (i, j) starts from 0 when beta == 0, else
//     from c * beta when beta != 1, else from c; then, for p = 0 .. k-1 in
//     ascending order, it adds (alpha * a_ip) * b_pj, skipping the term when
//     alpha * a_ip compares equal to zero.
//   * gemm_nt: element (i, j) is alpha * dot + (beta == 0 ? 0 : beta * c),
//     where dot starts from +0.0f and adds a_ip * b_jp for p = 0 .. k-1 in
//     ascending order, with no skip.
//   * add_outer_products: element (i, j) starts from c and, for p = 0 ..
//     k-1 in ascending order, becomes (0.0f + a_pi * b_pj) + c: exactly k
//     calls of gemm_nt with k = 1 and alpha = beta = 1, one per p.
//   * conv_forward and conv_backward_params: per sample, exactly gemm
//     (alpha 1, beta 0, then + bias) and gemm_nt (alpha = beta = 1, after
//     the bias sums) on the im2col columns of the image; see below.
//   * Every add and multiply is a separately rounded float operation: no
//     fused multiply-add, no reassociation, no split accumulators.
// A kernel may block, pack and vectorise across output elements, but never
// across the index its sums run over (p; the output pixels q in the
// convolution's weight gradient). An element therefore depends only on its
// own row of A, column of B and starting value, not on m or on which rows
// share a call, which is what lets evaluation split a batch over threads
// without changing a bit.
// Where NaNs of different sign or payload meet in one sum, which of them
// the result carries is left open, as IEEE 754 leaves it.
//
// Instruction-set variants. On x86, ops.cpp compiles every kernel three
// times from one source: for AVX-512F, for AVX2 and for the baseline (SSE2;
// elsewhere the baseline alone, for the target's own vectors),
// each with block shapes measured for it (bench_kernels runs the GEMM
// shapes and the direct convolutions once per variant). The first variant
// in gemm_variants() that the CPU supports, asked once through
// __builtin_cpu_supports, runs every call; nothing else selects it. Two
// build rules keep the variants exact and honest:
//   * ops.cpp is compiled with -ffp-contract=off. AVX-512F implies FMA, and
//     GCC (C++ default -ffp-contract=fast) and clang (default "on") would
//     otherwise fuse acc + a * b into one rounding. ops.cpp.o must contain
//     no vfmadd instruction (tools/ci/check_no_fma.sh, a CI step).
//   * Variants are target("...")-attributed functions chosen by
//     __builtin_cpu_supports, never target_clones("arch=..."): GCC 12
//     resolves arch= clones with __builtin_cpu_is, which knows no recent
//     server models (on a family 6, model 207 Xeon it returns 0 for
//     skylake-avx512, icelake-server and sapphirerapids) and so silently
//     runs the default clone.
#pragma once

#include <cstdint>
#include <span>

#include "tensor/tensor.h"

namespace fedtrip::ops {

/// C = alpha * A(MxK) * B(KxN) + beta * C(MxN)
void gemm(const float* a, const float* b, float* c, std::int64_t m,
          std::int64_t k, std::int64_t n, float alpha = 1.0f,
          float beta = 0.0f);

/// C = alpha * A^T(KxM stored as MxK... ) — explicitly: A is (K x M) stored
/// row-major, result C = alpha * A^T * B + beta * C with A^T of shape (M x K).
void gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, float alpha = 1.0f,
             float beta = 0.0f);

/// C = alpha * A(MxK) * B^T (B stored as N x K row-major) + beta * C.
void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
             std::int64_t k, std::int64_t n, float alpha = 1.0f,
             float beta = 0.0f);

/// C(M x N) += the outer products of row p of A (K x M) and row p of
/// B (K x N), for p = 0 .. K-1 in order (see the contract above). A conv
/// layer's weight gradient over a batch of 1x1 outputs.
void add_outer_products(const float* a, const float* b, float* c,
                        std::int64_t m, std::int64_t k, std::int64_t n);

/// A stride-1 convolution of a batch of [in_c, height, width] images (NCHW,
/// row-major) by out_c filters of [in_c, kernel, kernel], zero-padded by
/// `pad` on every side. The weight is (out_c x in_c * kernel * kernel) and
/// tap p = (c * kernel + ky) * kernel + kx, as im2col orders its rows.
struct ConvShape {
  std::int64_t batch, in_c, height, width, out_c, kernel, pad;
};

/// y (batch x out_c x out_h x out_w) = the convolution plus bias, read
/// straight from a zero-bordered copy of each image (no im2col columns).
/// Bit-identical to, per sample, im2col with stride 1, gemm(weight, cols)
/// with alpha = 1 and beta = 0, then `out += bias[co]`: element (co, y, x)
/// starts from +0.0f, adds w[co][p] * x_pad[c][y + ky][x + kx] for p in
/// ascending order, skipping the term when w[co][p] compares equal to zero
/// (the border holds +0.0f), then adds bias[co].
void conv_forward(const float* x, const float* weight, const float* bias,
                  float* y, const ConvShape& s);

/// The parameter gradients of conv_forward, accumulated sample by sample
/// in batch order. Bit-identical to, per sample, bias sums then
/// gemm_nt(grad_y, im2col(x)) with alpha = beta = 1: grad_weight[co][p]
/// becomes dot + grad_weight[co][p], where dot starts from +0.0f and adds
/// grad_y[co][q] * x_pad[...] over the output pixels q in ascending order,
/// border taps included and no term skipped; grad_bias[co] becomes
/// grad_bias[co] + sum, where sum starts from +0.0f and adds grad_y[co][q]
/// in ascending q. The lanes of a vector hold output channels.
void conv_backward_params(const float* x, const float* grad_y,
                          float* grad_weight, float* grad_bias,
                          const ConvShape& s);

using GemmFn = void (*)(const float*, const float*, float*, std::int64_t,
                        std::int64_t, std::int64_t, float, float);
using OuterFn = void (*)(const float*, const float*, float*, std::int64_t,
                         std::int64_t, std::int64_t);
using ConvForwardFn = void (*)(const float*, const float*, const float*,
                               float*, const ConvShape&);
using ConvParamsFn = void (*)(const float*, const float*, float*, float*,
                              const ConvShape&);

/// One instruction-set build of the GEMM family and the direct
/// convolutions.
struct GemmKernels {
  const char* isa;        // "avx512f", "avx2" or "baseline"
  bool (*supported)();    // whether this CPU can run it
  GemmFn gemm;
  GemmFn gemm_tn;
  GemmFn gemm_nt;
  OuterFn add_outer_products;
  ConvForwardFn conv_forward;
  ConvParamsFn conv_backward_params;
};

/// Every variant compiled in, widest instruction set first; the baseline
/// is last and runs everywhere.
std::span<const GemmKernels> gemm_variants();

/// The variant every kernel above runs: the first in gemm_variants() this
/// CPU supports.
const GemmKernels& active_gemm();

/// Tensor convenience wrappers (shapes asserted).
Tensor matmul(const Tensor& a, const Tensor& b);

/// Unfolds an input image [C, H, W] into columns for convolution:
/// output is [C*kh*kw, out_h*out_w] row-major.
void im2col(const float* img, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* cols);

/// Inverse of im2col: accumulates columns back into the image buffer
/// (caller zeroes img first).
void col2im(const float* cols, std::int64_t channels, std::int64_t height,
            std::int64_t width, std::int64_t kh, std::int64_t kw,
            std::int64_t stride, std::int64_t pad, float* img);

/// Output spatial size of a convolution/pooling window.
inline std::int64_t conv_out_size(std::int64_t in, std::int64_t kernel,
                                  std::int64_t stride, std::int64_t pad) {
  return (in + 2 * pad - kernel) / stride + 1;
}

/// Numerically-stable in-place softmax over each row of a (rows x cols)
/// matrix.
void softmax_rows(float* x, std::int64_t rows, std::int64_t cols);

}  // namespace fedtrip::ops
