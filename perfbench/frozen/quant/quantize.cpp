#include "quant/quantize.h"

#include <cmath>

#include "nn/bcm_dense.h"
#include "nn/conv.h"
#include "nn/dense.h"
#include "nn/simple_layers.h"
#include "util/check.h"

namespace ehdnn::quant {

namespace {

// Smallest integer e with max_abs / 2^e < 1 (so q15 can hold the value).
int scale_exp(double max_abs) {
  int e = 0;
  while (max_abs / std::exp2(e) >= 1.0) ++e;
  while (e > -12 && max_abs / std::exp2(e - 1) < 1.0) --e;  // tighten for precision
  return e;
}

std::vector<fx::q15_t> quantize_span(std::span<const float> w, int w_exp) {
  std::vector<fx::q15_t> q(w.size());
  const double inv = std::exp2(-w_exp);
  for (std::size_t i = 0; i < w.size(); ++i) {
    q[i] = fx::to_q15(static_cast<double>(w[i]) * inv);
  }
  return q;
}

}  // namespace

QuantModel quantize(nn::Model& model, std::span<const nn::Tensor> calib,
                    const std::vector<std::size_t>& input_shape, const QuantizeOptions& opts) {
  check(!calib.empty(), "quantize: calibration set is empty");

  // --- calibration: per-layer peak |activation| --------------------------
  const std::size_t n_layers = model.layer_count();
  std::vector<double> act_max(n_layers, 0.0);
  for (const auto& sample : calib) {
    nn::Tensor a = sample;
    for (std::size_t l = 0; l < n_layers; ++l) {
      a = model.layer(l).forward(a);
      act_max[l] = std::max(act_max[l], static_cast<double>(a.max_abs()));
    }
  }

  QuantModel qm;
  qm.name = opts.model_name;
  qm.input_exp = 0;  // RAD-normalized inputs live in [-1, 1]

  std::vector<std::size_t> shape = input_shape;
  int in_exp = qm.input_exp;

  for (std::size_t l = 0; l < n_layers; ++l) {
    nn::Layer& layer = model.layer(l);
    QLayer q;
    q.in_shape = shape;
    q.out_shape = layer.output_shape(shape);
    q.in_exp = in_exp;

    const double peak = act_max[l] * opts.headroom;

    if (auto* conv = dynamic_cast<nn::Conv2D*>(&layer)) {
      q.kind = QKind::kConv2D;
      q.in_ch = conv->in_channels();
      q.out_ch = conv->out_channels();
      q.kh = conv->kernel_h();
      q.kw = conv->kernel_w();
      q.shape_mask = conv->shape_mask();
      q.out_exp = std::max(0, scale_exp(peak));
      double wmax = 0.0;
      for (float v : conv->weights()) wmax = std::max(wmax, std::abs(static_cast<double>(v)));
      q.w_exp = scale_exp(wmax);
      q.weights = quantize_span(conv->weights(), q.w_exp);
      q.bias = quantize_span(conv->bias(), q.out_exp);
    } else if (auto* conv1 = dynamic_cast<nn::Conv1D*>(&layer)) {
      q.kind = QKind::kConv1D;
      q.in_ch = conv1->in_channels();
      q.out_ch = conv1->out_channels();
      q.k = conv1->kernel();
      q.out_exp = std::max(0, scale_exp(peak));
      double wmax = 0.0;
      for (float v : conv1->weights()) wmax = std::max(wmax, std::abs(static_cast<double>(v)));
      q.w_exp = scale_exp(wmax);
      q.weights = quantize_span(conv1->weights(), q.w_exp);
      q.bias = quantize_span(conv1->bias(), q.out_exp);
    } else if (auto* bcm = dynamic_cast<nn::BcmDense*>(&layer)) {
      q.kind = QKind::kBcmDense;
      q.k = bcm->block_size();
      q.bp = bcm->blocks_out();
      q.bq = bcm->blocks_in();
      q.out_exp = std::max(0, scale_exp(peak));
      double wmax = 0.0;
      std::vector<float> cols;
      cols.reserve(q.bp * q.bq * q.k);
      for (std::size_t i = 0; i < q.bp; ++i) {
        for (std::size_t j = 0; j < q.bq; ++j) {
          auto col = bcm->first_col(i, j);
          cols.insert(cols.end(), col.begin(), col.end());
          for (float v : col) wmax = std::max(wmax, std::abs(static_cast<double>(v)));
        }
      }
      q.w_exp = scale_exp(wmax);
      q.weights = quantize_span(cols, q.w_exp);
      q.bias = quantize_span(bcm->bias(), q.out_exp);
    } else if (dynamic_cast<nn::CosineDense*>(&layer) != nullptr) {
      // CosineDense is a training-time normalization device; RAD re-trains
      // the final model with plain Dense/BcmDense layers whose ranges the
      // cosine constraint already tamed. Deploying it directly would need
      // an on-device divide, which the LEA does not have.
      fail("quantize: CosineDense must be folded before quantization");
    } else if (auto* dense = dynamic_cast<nn::Dense*>(&layer)) {
      q.kind = QKind::kDense;
      q.in_ch = dense->in_features();
      q.out_ch = dense->out_features();
      q.out_exp = std::max(0, scale_exp(peak));
      double wmax = 0.0;
      for (float v : dense->weights()) wmax = std::max(wmax, std::abs(static_cast<double>(v)));
      q.w_exp = scale_exp(wmax);
      q.weights = quantize_span(dense->weights(), q.w_exp);
      q.bias = quantize_span(dense->bias(), q.out_exp);
    } else if (dynamic_cast<nn::ReLU*>(&layer) != nullptr) {
      q.kind = QKind::kReLU;
      q.out_exp = in_exp;  // scale-preserving
    } else if (dynamic_cast<nn::MaxPool2D*>(&layer) != nullptr) {
      q.kind = QKind::kMaxPool2D;
      q.out_exp = in_exp;
    } else if (dynamic_cast<nn::Flatten*>(&layer) != nullptr) {
      q.kind = QKind::kFlatten;
      q.out_exp = in_exp;
    } else {
      fail("quantize: unsupported layer kind " + layer.name());
    }

    in_exp = q.out_exp;
    shape = q.out_shape;
    qm.layers.push_back(std::move(q));
  }
  return qm;
}

std::vector<fx::q15_t> quantize_input(const QuantModel& qm, const nn::Tensor& x,
                                      fx::SatStats* stats) {
  const double inv = std::exp2(-qm.input_exp);
  std::vector<fx::q15_t> out(x.size());
  for (std::size_t i = 0; i < x.size(); ++i) {
    out[i] = fx::to_q15(static_cast<double>(x[i]) * inv, stats);
  }
  return out;
}

}  // namespace ehdnn::quant
