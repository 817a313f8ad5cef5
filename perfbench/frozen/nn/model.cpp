#include "nn/model.h"

#include <cstdint>
#include <istream>
#include <ostream>

#include "util/check.h"

namespace ehdnn::nn {

namespace {
constexpr std::uint32_t kMagic = 0x45484e4e;  // "EHNN"
}

void Model::save_weights(std::ostream& os) {
  const std::uint32_t magic = kMagic;
  os.write(reinterpret_cast<const char*>(&magic), sizeof(magic));
  auto ps = params();
  const std::uint32_t n = static_cast<std::uint32_t>(ps.size());
  os.write(reinterpret_cast<const char*>(&n), sizeof(n));
  for (const auto& p : ps) {
    const std::uint64_t len = p.value.size();
    os.write(reinterpret_cast<const char*>(&len), sizeof(len));
    os.write(reinterpret_cast<const char*>(p.value.data()),
             static_cast<std::streamsize>(len * sizeof(float)));
  }
  check(os.good(), "Model::save_weights: stream error");
}

void Model::load_weights(std::istream& is) {
  std::uint32_t magic = 0, n = 0;
  is.read(reinterpret_cast<char*>(&magic), sizeof(magic));
  check(magic == kMagic, "Model::load_weights: bad magic");
  is.read(reinterpret_cast<char*>(&n), sizeof(n));
  auto ps = params();
  check(n == ps.size(), "Model::load_weights: parameter group count mismatch");
  for (auto& p : ps) {
    std::uint64_t len = 0;
    is.read(reinterpret_cast<char*>(&len), sizeof(len));
    check(len == p.value.size(), "Model::load_weights: parameter size mismatch");
    is.read(reinterpret_cast<char*>(p.value.data()),
            static_cast<std::streamsize>(len * sizeof(float)));
  }
  check(is.good(), "Model::load_weights: stream error");
}

}  // namespace ehdnn::nn
