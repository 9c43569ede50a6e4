// ops: dense kernels (GEMM family, im2col/col2im, row softmax) used by the
// nn layers. All matrices are row-major.
//
// Exactness contract of the GEMM family. Results are bit-identical to the
// plain scalar loops, for every shape and on every path a kernel takes
// (tests/tensor/ops_property_test.cpp pins them against frozen copies):
//   * gemm / gemm_tn: element (i, j) starts from 0 when beta == 0, else
//     from c * beta when beta != 1, else from c; then, for p = 0 .. k-1 in
//     ascending order, it adds (alpha * a_ip) * b_pj, skipping the term when
//     alpha * a_ip compares equal to zero.
//   * gemm_nt: element (i, j) is alpha * dot + (beta == 0 ? 0 : beta * c),
//     where dot starts from +0.0f and adds a_ip * b_jp for p = 0 .. k-1 in
//     ascending order, with no skip.
//   * Every add and multiply is a separately rounded float operation: no
//     fused multiply-add, no reassociation, no split accumulators.
// A kernel may block, pack and vectorise across output elements, but never
// across p. An element therefore depends only on its own row of A, column
// of B and starting value, not on m or on which rows share a call, which is
// what lets evaluation split a batch over threads without changing a bit.
// Where NaNs of different sign or payload meet in one sum, which of them
// the result carries is left open, as IEEE 754 leaves it.
#pragma once

#include <cstdint>

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
