#include "quant/qserial.h"

#include <cstdint>
#include <istream>
#include <ostream>

#include "util/check.h"

namespace ehdnn::quant {

namespace {

constexpr std::uint32_t kMagic = 0x4d514845;  // "EHQM"
constexpr std::uint32_t kVersion = 1;

template <typename T>
void put(std::ostream& os, T v) {
  os.write(reinterpret_cast<const char*>(&v), sizeof(T));
}

template <typename T>
T get(std::istream& is) {
  T v{};
  is.read(reinterpret_cast<char*>(&v), sizeof(T));
  check(is.good(), "load_qmodel: truncated stream");
  return v;
}

void put_sizes(std::ostream& os, const std::vector<std::size_t>& v) {
  put<std::uint32_t>(os, static_cast<std::uint32_t>(v.size()));
  for (auto s : v) put<std::uint64_t>(os, s);
}

std::vector<std::size_t> get_sizes(std::istream& is) {
  std::vector<std::size_t> v(get<std::uint32_t>(is));
  for (auto& s : v) s = static_cast<std::size_t>(get<std::uint64_t>(is));
  return v;
}

void put_words(std::ostream& os, const std::vector<fx::q15_t>& v) {
  put<std::uint64_t>(os, v.size());
  os.write(reinterpret_cast<const char*>(v.data()),
           static_cast<std::streamsize>(v.size() * sizeof(fx::q15_t)));
}

std::vector<fx::q15_t> get_words(std::istream& is) {
  std::vector<fx::q15_t> v(static_cast<std::size_t>(get<std::uint64_t>(is)));
  is.read(reinterpret_cast<char*>(v.data()),
          static_cast<std::streamsize>(v.size() * sizeof(fx::q15_t)));
  check(is.good(), "load_qmodel: truncated weights");
  return v;
}

}  // namespace

void save_qmodel(const QuantModel& qm, std::ostream& os) {
  put(os, kMagic);
  put(os, kVersion);
  put<std::uint32_t>(os, static_cast<std::uint32_t>(qm.layers.size()));
  put<std::int32_t>(os, qm.input_exp);
  put<std::uint32_t>(os, static_cast<std::uint32_t>(qm.name.size()));
  os.write(qm.name.data(), static_cast<std::streamsize>(qm.name.size()));

  for (const auto& l : qm.layers) {
    put<std::uint8_t>(os, static_cast<std::uint8_t>(l.kind));
    put<std::int32_t>(os, l.w_exp);
    put<std::int32_t>(os, l.in_exp);
    put<std::int32_t>(os, l.out_exp);
    for (std::size_t d : {l.in_ch, l.out_ch, l.kh, l.kw, l.k, l.bp, l.bq}) {
      put<std::uint64_t>(os, d);
    }
    put_sizes(os, l.in_shape);
    put_sizes(os, l.out_shape);
    put<std::uint32_t>(os, static_cast<std::uint32_t>(l.shape_mask.size()));
    for (bool b : l.shape_mask) put<std::uint8_t>(os, b ? 1 : 0);
    put_words(os, l.weights);
    put_words(os, l.bias);
  }
  check(os.good(), "save_qmodel: stream error");
}

QuantModel load_qmodel(std::istream& is) {
  check(get<std::uint32_t>(is) == kMagic, "load_qmodel: bad magic");
  check(get<std::uint32_t>(is) == kVersion, "load_qmodel: unsupported version");
  QuantModel qm;
  const auto n_layers = get<std::uint32_t>(is);
  qm.input_exp = get<std::int32_t>(is);
  qm.name.resize(get<std::uint32_t>(is));
  is.read(qm.name.data(), static_cast<std::streamsize>(qm.name.size()));

  for (std::uint32_t i = 0; i < n_layers; ++i) {
    QLayer l;
    l.kind = static_cast<QKind>(get<std::uint8_t>(is));
    l.w_exp = get<std::int32_t>(is);
    l.in_exp = get<std::int32_t>(is);
    l.out_exp = get<std::int32_t>(is);
    for (std::size_t* d : {&l.in_ch, &l.out_ch, &l.kh, &l.kw, &l.k, &l.bp, &l.bq}) {
      *d = static_cast<std::size_t>(get<std::uint64_t>(is));
    }
    l.in_shape = get_sizes(is);
    l.out_shape = get_sizes(is);
    l.shape_mask.resize(get<std::uint32_t>(is));
    for (std::size_t m = 0; m < l.shape_mask.size(); ++m) {
      l.shape_mask[m] = get<std::uint8_t>(is) != 0;
    }
    l.weights = get_words(is);
    l.bias = get_words(is);
    qm.layers.push_back(std::move(l));
  }
  return qm;
}

}  // namespace ehdnn::quant
