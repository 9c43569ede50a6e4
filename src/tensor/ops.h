// ops: dense kernels (GEMM family, im2col/col2im, row softmax) used by the
// nn layers. All matrices are row-major.
//
// Exactness contract of the GEMM family. Results are bit-identical to the
// plain scalar loops, for every shape, on every path a kernel takes and in
// every instruction-set variant (tests/tensor/ops_property_test.cpp pins
// each variant the host can run against frozen copies):
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
//   * Every add and multiply is a separately rounded float operation: no
//     fused multiply-add, no reassociation, no split accumulators.
// A kernel may block, pack and vectorise across output elements, but never
// across p. An element therefore depends only on its own row of A, column
// of B and starting value, not on m or on which rows share a call, which is
// what lets evaluation split a batch over threads without changing a bit.
// Where NaNs of different sign or payload meet in one sum, which of them
// the result carries is left open, as IEEE 754 leaves it.
//
// Instruction-set variants. On x86, ops.cpp compiles every kernel three
// times from one source: for AVX-512F, for AVX2 and for the baseline (SSE2;
// elsewhere the baseline alone, for the target's own vectors),
// each with block shapes measured for it (bench_kernels runs the GEMM
// shapes once per variant). The first variant in gemm_variants() that the
// CPU supports, asked once through __builtin_cpu_supports, runs every
// call; nothing else selects it. Two build rules keep the variants exact
// and honest:
//   * ops.cpp is compiled with -ffp-contract=off. AVX-512F implies FMA, and
//     GCC (C++ default -ffp-contract=fast) and clang (default "on") would
//     otherwise fuse acc + a * b into one rounding. ops.cpp.o must contain
//     no vfmadd instruction.
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

using GemmFn = void (*)(const float*, const float*, float*, std::int64_t,
                        std::int64_t, std::int64_t, float, float);
using OuterFn = void (*)(const float*, const float*, float*, std::int64_t,
                         std::int64_t, std::int64_t);

/// One instruction-set build of the GEMM family.
struct GemmKernels {
  const char* isa;        // "avx512f", "avx2" or "baseline"
  bool (*supported)();    // whether this CPU can run it
  GemmFn gemm;
  GemmFn gemm_tn;
  GemmFn gemm_nt;
  OuterFn add_outer_products;
};

/// Every variant compiled in, widest instruction set first; the baseline
/// is last and runs everywhere.
std::span<const GemmKernels> gemm_variants();

/// The variant gemm, gemm_tn, gemm_nt and add_outer_products run: the
/// first in gemm_variants() this CPU supports.
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
