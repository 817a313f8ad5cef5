// Sequential model container plus weight (de)serialization.
#pragma once

#include <iosfwd>
#include <memory>
#include <vector>

#include "nn/layer.h"
#include "util/rng.h"

namespace ehdnn::nn {

class Model {
 public:
  Model() = default;
  Model(Model&&) = default;
  Model& operator=(Model&&) = default;

  template <typename L, typename... Args>
  L* add(Args&&... args) {
    auto layer = std::make_unique<L>(std::forward<Args>(args)...);
    L* raw = layer.get();
    layers_.push_back(std::move(layer));
    return raw;
  }

  std::size_t layer_count() const { return layers_.size(); }
  Layer& layer(std::size_t i) { return *layers_.at(i); }
  const Layer& layer(std::size_t i) const { return *layers_.at(i); }

  Tensor forward(const Tensor& x) {
    Tensor a = x;
    for (auto& l : layers_) a = l->forward(a);
    return a;
  }

  // Backward from the loss gradient at the output; returns dL/dinput.
  Tensor backward(const Tensor& dy) {
    Tensor g = dy;
    for (auto it = layers_.rbegin(); it != layers_.rend(); ++it) g = (*it)->backward(g);
    return g;
  }

  std::vector<ParamView> params() {
    std::vector<ParamView> all;
    for (auto& l : layers_) {
      for (auto& p : l->params()) all.push_back(p);
    }
    return all;
  }

  void zero_grad() {
    for (auto& l : layers_) l->zero_grad();
  }

  std::size_t param_count() {
    std::size_t n = 0;
    for (auto& p : params()) n += p.value.size();
    return n;
  }

  // Stored (compressed) weights across layers — what ships to FRAM.
  std::size_t stored_weights() const {
    std::size_t n = 0;
    for (const auto& l : layers_) n += l->stored_weights();
    return n;
  }

  std::vector<std::size_t> output_shape(std::vector<std::size_t> in) const {
    for (const auto& l : layers_) in = l->output_shape(in);
    return in;
  }

  // Binary weight serialization (parameters only; topology is code).
  void save_weights(std::ostream& os);
  void load_weights(std::istream& is);

 private:
  std::vector<LayerPtr> layers_;
};

}  // namespace ehdnn::nn
