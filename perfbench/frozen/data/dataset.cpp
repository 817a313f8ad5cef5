#include "data/dataset.h"

#include <algorithm>
#include <cmath>
#include <numbers>

namespace ehdnn::data {

namespace {

// Clamp into the RAD-normalized activation range.
float clamp1(double v) { return static_cast<float>(std::clamp(v, -1.0, 1.0)); }

// Draw a polyline "stroke" glyph into a 28x28 canvas: the per-class
// prototype is a fixed set of control points; samples jitter them.
struct Glyph {
  std::vector<std::pair<double, double>> points;  // in [4, 24]^2
};

Glyph make_glyph(Rng& rng, int n_points) {
  Glyph g;
  double px = rng.uniform(6.0, 22.0);
  double py = rng.uniform(6.0, 22.0);
  g.points.push_back({px, py});
  for (int i = 1; i < n_points; ++i) {
    px = std::clamp(px + rng.uniform(-10.0, 10.0), 4.0, 24.0);
    py = std::clamp(py + rng.uniform(-10.0, 10.0), 4.0, 24.0);
    g.points.push_back({px, py});
  }
  return g;
}

void draw_segment(nn::Tensor& img, double x0, double y0, double x1, double y1) {
  const int steps = static_cast<int>(std::max(std::abs(x1 - x0), std::abs(y1 - y0)) * 2) + 2;
  for (int s = 0; s <= steps; ++s) {
    const double t = static_cast<double>(s) / steps;
    const double cx = x0 + t * (x1 - x0);
    const double cy = y0 + t * (y1 - y0);
    // Soft 2-pixel brush.
    for (int dy = -1; dy <= 1; ++dy) {
      for (int dx = -1; dx <= 1; ++dx) {
        const int ix = static_cast<int>(cx) + dx;
        const int iy = static_cast<int>(cy) + dy;
        if (ix < 0 || ix >= 28 || iy < 0 || iy >= 28) continue;
        const double d2 = (cx - ix) * (cx - ix) + (cy - iy) * (cy - iy);
        const double ink = std::exp(-d2 / 0.8);
        float& px = img.at(0, static_cast<std::size_t>(iy), static_cast<std::size_t>(ix));
        px = static_cast<float>(std::min(1.0, px + ink));
      }
    }
  }
}

nn::Tensor render_glyph(const Glyph& g, Rng& rng, double jitter, double noise) {
  nn::Tensor img({1, 28, 28});
  const double sx = rng.uniform(-2.0, 2.0);  // random shift
  const double sy = rng.uniform(-2.0, 2.0);
  for (std::size_t i = 0; i + 1 < g.points.size(); ++i) {
    const auto [x0, y0] = g.points[i];
    const auto [x1, y1] = g.points[i + 1];
    draw_segment(img, x0 + sx + rng.gauss(0.0, jitter), y0 + sy + rng.gauss(0.0, jitter),
                 x1 + sx + rng.gauss(0.0, jitter), y1 + sy + rng.gauss(0.0, jitter));
  }
  // Map ink in [0,1] to [-1,1] and add pixel noise.
  for (std::size_t i = 0; i < img.size(); ++i) {
    img[i] = clamp1(2.0 * img[i] - 1.0 + rng.gauss(0.0, noise));
  }
  return img;
}

Dataset render_glyph_set(const std::vector<Glyph>& protos, Rng& rng, std::size_t n,
                         double jitter, double noise) {
  Dataset d;
  d.num_classes = protos.size();
  d.sample_shape = {1, 28, 28};
  d.x.reserve(n);
  d.y.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    const int cls = static_cast<int>(rng.below(protos.size()));
    d.x.push_back(render_glyph(protos[static_cast<std::size_t>(cls)], rng, jitter, noise));
    d.y.push_back(cls);
  }
  return d;
}

}  // namespace

TrainTest make_mnist_like(Rng& rng, std::size_t n_train, std::size_t n_test) {
  std::vector<Glyph> protos;
  for (int c = 0; c < 10; ++c) protos.push_back(make_glyph(rng, 4 + c % 3));
  TrainTest tt;
  tt.train = render_glyph_set(protos, rng, n_train, /*jitter=*/0.6, /*noise=*/0.15);
  tt.test = render_glyph_set(protos, rng, n_test, 0.6, 0.15);
  return tt;
}

TrainTest make_har_like(Rng& rng, std::size_t n_train, std::size_t n_test) {
  constexpr std::size_t kLen = 121;
  constexpr std::size_t kClasses = 6;

  // Class signatures: (frequency, amplitude) pairs. Neighbouring classes
  // share a component so the task is not trivially separable — this is
  // what keeps accuracy in the high-80s band the paper reports for HAR.
  struct Sig {
    double f1, a1, f2, a2;
  };
  std::vector<Sig> sigs;
  for (std::size_t c = 0; c < kClasses; ++c) {
    sigs.push_back({0.02 + 0.013 * static_cast<double>(c), 0.55,
                    0.05 + 0.011 * static_cast<double>((c + 1) % kClasses), 0.3});
  }

  auto gen = [&](std::size_t n) {
    Dataset d;
    d.num_classes = kClasses;
    d.sample_shape = {1, kLen};
    for (std::size_t i = 0; i < n; ++i) {
      const int cls = static_cast<int>(rng.below(kClasses));
      const Sig& s = sigs[static_cast<std::size_t>(cls)];
      const double ph1 = rng.uniform(0.0, 2.0 * std::numbers::pi);
      const double ph2 = rng.uniform(0.0, 2.0 * std::numbers::pi);
      const double drift = rng.uniform(-0.15, 0.15);
      nn::Tensor t({1, kLen});
      for (std::size_t j = 0; j < kLen; ++j) {
        const double x = static_cast<double>(j);
        double v = s.a1 * std::sin(2.0 * std::numbers::pi * s.f1 * x + ph1) +
                   s.a2 * std::sin(2.0 * std::numbers::pi * s.f2 * x + ph2) +
                   drift * (x / kLen) + rng.gauss(0.0, 0.22);
        t.at(0, j) = clamp1(v);
      }
      d.x.push_back(std::move(t));
      d.y.push_back(cls);
    }
    return d;
  };

  TrainTest tt;
  tt.train = gen(n_train);
  tt.test = gen(n_test);
  return tt;
}

TrainTest make_okg_like(Rng& rng, std::size_t n_train, std::size_t n_test) {
  constexpr std::size_t kClasses = 12;  // 10 keywords + silence + unknown

  // Per-class formant tracks: start/end rows of two frequency bands that
  // sweep across the 28 time frames.
  struct Formant {
    double f1_start, f1_end, f2_start, f2_end;
  };
  std::vector<Formant> protos;
  for (std::size_t c = 0; c < kClasses; ++c) {
    protos.push_back({rng.uniform(3.0, 24.0), rng.uniform(3.0, 24.0),
                      rng.uniform(3.0, 24.0), rng.uniform(3.0, 24.0)});
  }

  auto gen = [&](std::size_t n) {
    Dataset d;
    d.num_classes = kClasses;
    d.sample_shape = {1, 28, 28};
    for (std::size_t i = 0; i < n; ++i) {
      const int cls = static_cast<int>(rng.below(kClasses));
      const Formant& f = protos[static_cast<std::size_t>(cls)];
      nn::Tensor t({1, 28, 28});
      const double shift = rng.uniform(-2.0, 2.0);  // temporal misalignment
      const double wobble = rng.uniform(0.5, 1.5);
      for (std::size_t time = 0; time < 28; ++time) {
        const double u = static_cast<double>(time) / 27.0;
        const double c1 = f.f1_start + u * (f.f1_end - f.f1_start) + shift;
        const double c2 = f.f2_start + u * (f.f2_end - f.f2_start) + shift;
        for (std::size_t freq = 0; freq < 28; ++freq) {
          const double d1 = (static_cast<double>(freq) - c1) / (1.2 * wobble);
          const double d2 = (static_cast<double>(freq) - c2) / (1.6 * wobble);
          double v = 0.9 * std::exp(-d1 * d1) + 0.6 * std::exp(-d2 * d2);
          v += rng.gauss(0.0, 0.30);  // babble noise drives the ~82% band
          t.at(0, freq, time) = clamp1(2.0 * v - 1.0);
        }
      }
      d.x.push_back(std::move(t));
      d.y.push_back(cls);
    }
    return d;
  };

  TrainTest tt;
  tt.train = gen(n_train);
  tt.test = gen(n_test);
  return tt;
}

}  // namespace ehdnn::data
