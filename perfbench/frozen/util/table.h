// ASCII table printer for bench / example output.
//
// Benches print paper-style rows (framework x dataset x metric); this
// keeps the formatting in one place and aligned regardless of cell width.
#pragma once

#include <iomanip>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

namespace ehdnn {

class Table {
 public:
  explicit Table(std::vector<std::string> header) : header_(std::move(header)) {}

  void add_row(std::vector<std::string> cells) { rows_.push_back(std::move(cells)); }

  // Convenience: format a double with fixed precision.
  static std::string num(double v, int precision = 2) {
    std::ostringstream os;
    os << std::fixed << std::setprecision(precision) << v;
    return os.str();
  }

  static std::string pct(double fraction, int precision = 2) {
    return num(100.0 * fraction, precision) + "%";
  }

  void print(std::ostream& os) const {
    std::vector<std::size_t> width(header_.size(), 0);
    auto widen = [&](const std::vector<std::string>& cells) {
      for (std::size_t i = 0; i < cells.size() && i < width.size(); ++i) {
        width[i] = std::max(width[i], cells[i].size());
      }
    };
    widen(header_);
    for (const auto& r : rows_) widen(r);

    auto rule = [&] {
      os << '+';
      for (auto w : width) os << std::string(w + 2, '-') << '+';
      os << '\n';
    };
    auto line = [&](const std::vector<std::string>& cells) {
      os << '|';
      for (std::size_t i = 0; i < width.size(); ++i) {
        const std::string& c = i < cells.size() ? cells[i] : std::string();
        os << ' ' << c << std::string(width[i] - c.size(), ' ') << " |";
      }
      os << '\n';
    };

    rule();
    line(header_);
    rule();
    for (const auto& r : rows_) line(r);
    rule();
  }

 private:
  std::vector<std::string> header_;
  std::vector<std::vector<std::string>> rows_;
};

}  // namespace ehdnn
