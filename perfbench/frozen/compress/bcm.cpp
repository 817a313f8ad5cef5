#include "compress/bcm.h"

#include <cmath>

#include "util/check.h"
#include "util/math.h"

namespace ehdnn::cmp {

std::unique_ptr<nn::BcmDense> project_to_bcm(const nn::Dense& dense, std::size_t block) {
  const std::size_t in = dense.in_features();
  const std::size_t out = dense.out_features();
  auto bcm = std::make_unique<nn::BcmDense>(in, out, block, !dense.bias().empty());

  const std::size_t k = block;
  const std::size_t in_pad = div_ceil(in, k) * k;
  const auto w = dense.weights();

  for (std::size_t bi = 0; bi < out / k; ++bi) {
    for (std::size_t bj = 0; bj < in_pad / k; ++bj) {
      auto col = bcm->first_col(bi, bj);
      // Mean along each wrapped diagonal d: positions (r, c) with
      // (r - c) mod k == d. Columns beyond the real input width are
      // zero-padding and do not contribute.
      for (std::size_t d = 0; d < k; ++d) {
        double sum = 0.0;
        std::size_t n = 0;
        for (std::size_t c = 0; c < k; ++c) {
          const std::size_t src_col = bj * k + c;
          if (src_col >= in) continue;
          const std::size_t r = (d + c) % k;
          sum += w[(bi * k + r) * in + src_col];
          ++n;
        }
        col[d] = n > 0 ? static_cast<float>(sum / static_cast<double>(n)) : 0.0f;
      }
    }
  }

  if (!dense.bias().empty()) {
    auto b = bcm->bias();
    for (std::size_t o = 0; o < out; ++o) b[o] = dense.bias()[o];
  }
  return bcm;
}

double bcm_projection_error(const nn::Dense& dense, std::size_t block) {
  auto bcm = project_to_bcm(dense, block);
  const auto wd = bcm->to_dense();
  const auto w = dense.weights();
  double num = 0.0, den = 0.0;
  for (std::size_t i = 0; i < w.size(); ++i) {
    const double d = static_cast<double>(w[i]) - wd[i];
    num += d * d;
    den += static_cast<double>(w[i]) * w[i];
  }
  return den > 0.0 ? std::sqrt(num / den) : 0.0;
}

std::size_t dense_storage_bytes(std::size_t rows, std::size_t cols, int bits) {
  return rows * cols * static_cast<std::size_t>(bits) / 8;
}

std::size_t bcm_storage_bytes(std::size_t rows, std::size_t cols, std::size_t block, int bits) {
  check(rows % block == 0, "bcm_storage_bytes: rows not divisible by block");
  const std::size_t cols_pad = div_ceil(cols, block) * block;
  const std::size_t n_blocks = (rows / block) * (cols_pad / block);
  return n_blocks * block * static_cast<std::size_t>(bits) / 8;
}

}  // namespace ehdnn::cmp
