// The scalar tensor kernels, frozen: the reference every ops:: kernel and
// every layer built on them must reproduce bit for bit (the exactness
// contract in tensor/ops.h). Never optimise these; they are the plain loops
// the fast paths replaced.
#pragma once

#include <cstdint>
#include <cstring>

#include "tensor/ops.h"

namespace fedtrip::frozen {

inline void gemm_row_update(const float* b_row, float* c_row, float a_ik,
                            std::int64_t n) {
  for (std::int64_t j = 0; j < n; ++j) c_row[j] += a_ik * b_row[j];
}

inline void gemm(const float* a, const float* b, float* c, std::int64_t m,
                 std::int64_t k, std::int64_t n, float alpha = 1.0f,
                 float beta = 0.0f) {
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

inline void gemm_tn(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n, float alpha = 1.0f,
                    float beta = 0.0f) {
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

inline void gemm_nt(const float* a, const float* b, float* c, std::int64_t m,
                    std::int64_t k, std::int64_t n, float alpha = 1.0f,
                    float beta = 0.0f) {
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

inline void im2col(const float* img, std::int64_t channels,
                   std::int64_t height, std::int64_t width, std::int64_t kh,
                   std::int64_t kw, std::int64_t stride, std::int64_t pad,
                   float* cols) {
  const std::int64_t out_h = ops::conv_out_size(height, kh, stride, pad);
  const std::int64_t out_w = ops::conv_out_size(width, kw, stride, pad);
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

inline void col2im(const float* cols, std::int64_t channels,
                   std::int64_t height, std::int64_t width, std::int64_t kh,
                   std::int64_t kw, std::int64_t stride, std::int64_t pad,
                   float* img) {
  const std::int64_t out_h = ops::conv_out_size(height, kh, stride, pad);
  const std::int64_t out_w = ops::conv_out_size(width, kw, stride, pad);
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

}  // namespace fedtrip::frozen
