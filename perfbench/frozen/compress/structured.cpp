#include "compress/structured.h"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "util/check.h"

namespace ehdnn::cmp {

std::vector<double> position_importance(const nn::Conv2D& conv) {
  std::vector<double> imp(conv.kernel_h() * conv.kernel_w(), 0.0);
  for (std::size_t f = 0; f < conv.out_channels(); ++f) {
    for (std::size_t c = 0; c < conv.in_channels(); ++c) {
      for (std::size_t r = 0; r < conv.kernel_h(); ++r) {
        for (std::size_t s = 0; s < conv.kernel_w(); ++s) {
          const double w = conv.w(f, c, r, s);
          imp[r * conv.kernel_w() + s] += w * w;
        }
      }
    }
  }
  return imp;
}

std::vector<bool> top_positions_mask(const nn::Conv2D& conv, std::size_t keep) {
  check(keep >= 1 && keep <= conv.kernel_h() * conv.kernel_w(),
        "top_positions_mask: keep out of range");
  const auto imp = position_importance(conv);
  std::vector<std::size_t> order(imp.size());
  std::iota(order.begin(), order.end(), std::size_t{0});
  std::stable_sort(order.begin(), order.end(),
                   [&](std::size_t a, std::size_t b) { return imp[a] > imp[b]; });
  std::vector<bool> mask(imp.size(), false);
  for (std::size_t i = 0; i < keep; ++i) mask[order[i]] = true;
  return mask;
}

void project_shape_sparse(nn::Conv2D& conv, std::size_t keep) {
  conv.set_shape_mask(top_positions_mask(conv, keep));
}

double shape_compression(const nn::Conv2D& conv) {
  return static_cast<double>(conv.kernel_h() * conv.kernel_w()) /
         static_cast<double>(conv.live_positions());
}

}  // namespace ehdnn::cmp
