#include "nn/bcm_dense.h"

#include <cmath>

#include "dsp/fft.h"
#include "util/math.h"

namespace ehdnn::nn {

BcmDense::BcmDense(std::size_t in, std::size_t out, std::size_t block, bool bias)
    : in_(in), out_(out), k_(block) {
  check(is_pow2(k_), "BcmDense: block size must be a power of two (FFT)");
  check(out_ % k_ == 0, "BcmDense: output features must be a multiple of the block size");
  p_ = out_ / k_;
  in_pad_ = div_ceil(in_, k_) * k_;
  q_ = in_pad_ / k_;
  cols_.assign(p_ * q_ * k_, 0.0f);
  gcols_.assign(cols_.size(), 0.0f);
  if (bias) {
    b_.assign(out_, 0.0f);
    gb_.assign(out_, 0.0f);
  }
}

void BcmDense::init(Rng& rng) {
  // Each first column materializes a k x k circulant block, so the fan-in
  // per output is q_*k_ dense-equivalent weights; match He-uniform of the
  // dense layer it replaces.
  const float bound = std::sqrt(6.0f / static_cast<float>(in_pad_));
  for (auto& v : cols_) v = static_cast<float>(rng.uniform(-bound, bound));
  for (auto& v : b_) v = 0.0f;
}

Tensor BcmDense::forward(const Tensor& x) {
  check(x.size() == in_, "BcmDense: input size mismatch");
  last_x_ = x;

  // Spectra of the (zero-padded) input blocks: one FFT per block column.
  xf_.assign(q_ * k_, {0.0, 0.0});
  for (std::size_t j = 0; j < q_; ++j) {
    std::span<std::complex<double>> blk(&xf_[j * k_], k_);
    for (std::size_t t = 0; t < k_; ++t) {
      const std::size_t src = j * k_ + t;
      blk[t] = src < in_ ? static_cast<double>(x[src]) : 0.0;
    }
    dsp::fft(blk);
  }

  // Spectra of all first columns.
  cf_.assign(p_ * q_ * k_, {0.0, 0.0});
  for (std::size_t b = 0; b < p_ * q_; ++b) {
    std::span<std::complex<double>> blk(&cf_[b * k_], k_);
    const float* col = &cols_[b * k_];
    for (std::size_t t = 0; t < k_; ++t) blk[t] = static_cast<double>(col[t]);
    dsp::fft(blk);
  }

  Tensor y({out_});
  std::vector<std::complex<double>> acc(k_);
  for (std::size_t i = 0; i < p_; ++i) {
    std::fill(acc.begin(), acc.end(), std::complex<double>(0.0, 0.0));
    for (std::size_t j = 0; j < q_; ++j) {
      const auto* cfb = &cf_[(i * q_ + j) * k_];
      const auto* xfb = &xf_[j * k_];
      for (std::size_t t = 0; t < k_; ++t) acc[t] += cfb[t] * xfb[t];
    }
    dsp::ifft(acc);
    for (std::size_t t = 0; t < k_; ++t) {
      const std::size_t o = i * k_ + t;
      y[o] = static_cast<float>(acc[t].real()) + (b_.empty() ? 0.0f : b_[o]);
    }
  }
  return y;
}

Tensor BcmDense::backward(const Tensor& dy) {
  check(dy.size() == out_, "BcmDense: grad size mismatch");

  // Spectra of the output-gradient blocks.
  std::vector<std::complex<double>> dyf(p_ * k_, {0.0, 0.0});
  for (std::size_t i = 0; i < p_; ++i) {
    std::span<std::complex<double>> blk(&dyf[i * k_], k_);
    for (std::size_t t = 0; t < k_; ++t) blk[t] = static_cast<double>(dy[i * k_ + t]);
    dsp::fft(blk);
  }

  // dL/dc_ij = Re IDFT( DFT(dy_i) o conj(DFT(x_j)) )   (circular correlation)
  std::vector<std::complex<double>> tmp(k_);
  for (std::size_t i = 0; i < p_; ++i) {
    for (std::size_t j = 0; j < q_; ++j) {
      const auto* dyb = &dyf[i * k_];
      const auto* xfb = &xf_[j * k_];
      for (std::size_t t = 0; t < k_; ++t) tmp[t] = dyb[t] * std::conj(xfb[t]);
      dsp::ifft(tmp);
      float* g = &gcols_[(i * q_ + j) * k_];
      for (std::size_t t = 0; t < k_; ++t) g[t] += static_cast<float>(tmp[t].real());
    }
  }

  // dL/dx_j = Re IDFT( sum_i conj(DFT(c_ij)) o DFT(dy_i) )   (transpose block)
  Tensor dx({in_});
  std::vector<std::complex<double>> acc(k_);
  for (std::size_t j = 0; j < q_; ++j) {
    std::fill(acc.begin(), acc.end(), std::complex<double>(0.0, 0.0));
    for (std::size_t i = 0; i < p_; ++i) {
      const auto* cfb = &cf_[(i * q_ + j) * k_];
      const auto* dyb = &dyf[i * k_];
      for (std::size_t t = 0; t < k_; ++t) acc[t] += std::conj(cfb[t]) * dyb[t];
    }
    dsp::ifft(acc);
    for (std::size_t t = 0; t < k_; ++t) {
      const std::size_t dst = j * k_ + t;
      if (dst < in_) dx[dst] = static_cast<float>(acc[t].real());
    }
  }

  if (!gb_.empty()) {
    for (std::size_t o = 0; o < out_; ++o) gb_[o] += dy[o];
  }
  return dx;
}

std::vector<ParamView> BcmDense::params() {
  std::vector<ParamView> p{{cols_, gcols_}};
  if (!b_.empty()) p.push_back({b_, gb_});
  return p;
}

std::vector<std::size_t> BcmDense::output_shape(const std::vector<std::size_t>& in) const {
  check(Tensor::count(in) == in_, "BcmDense: input shape mismatch");
  return {out_};
}

std::vector<float> BcmDense::to_dense() const {
  std::vector<float> w(out_ * in_, 0.0f);
  for (std::size_t i = 0; i < p_; ++i) {
    for (std::size_t j = 0; j < q_; ++j) {
      const float* col = &cols_[(i * q_ + j) * k_];
      for (std::size_t r = 0; r < k_; ++r) {
        for (std::size_t c = 0; c < k_; ++c) {
          const std::size_t row = i * k_ + r;
          const std::size_t colx = j * k_ + c;
          if (colx < in_) w[row * in_ + colx] = col[(r + k_ - c) % k_];
        }
      }
    }
  }
  return w;
}

}  // namespace ehdnn::nn
