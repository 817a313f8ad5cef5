#include "util/cli.h"

#include <algorithm>
#include <iostream>
#include <limits>
#include <ostream>

#include "power/factory.h"
#include "sim/scenario.h"
#include "util/check.h"
#include "util/parse.h"

namespace ehdnn {

CliParser::CliParser(std::string prog, std::string summary)
    : prog_(std::move(prog)), summary_(std::move(summary)) {}

CliParser& CliParser::value(std::string flag, std::string metavar, std::string help,
                            std::function<void(const std::string&)> fn) {
  opts_.push_back({std::move(flag), std::move(metavar), std::move(help), std::move(fn),
                   nullptr, false});
  return *this;
}

CliParser& CliParser::flag(std::string flag, std::string help, std::function<void()> fn) {
  opts_.push_back({std::move(flag), "", std::move(help), nullptr, std::move(fn), false});
  return *this;
}

CliParser& CliParser::terminal(std::string flag, std::string help,
                               std::function<void()> fn) {
  opts_.push_back({std::move(flag), "", std::move(help), nullptr, std::move(fn), true});
  return *this;
}

CliParser& CliParser::str(std::string flag, std::string metavar, std::string help,
                          std::string* out) {
  return value(std::move(flag), std::move(metavar), std::move(help),
               [out](const std::string& v) { *out = v; });
}

CliParser& CliParser::int_min(std::string flag, std::string metavar, std::string help,
                              int* out, int min) {
  const std::string f = flag;
  return value(std::move(flag), std::move(metavar), std::move(help),
               [out, min, f](const std::string& v) {
                 const auto n = parse_int(v, min, std::numeric_limits<int>::max());
                 check_input(n.has_value(), f + " needs an integer >= " +
                                                std::to_string(min) +
                                                " that fits an int, got \"" + v + "\"");
                 *out = *n;
               });
}

CliParser& CliParser::num(std::string flag, std::string metavar, std::string help,
                          double* out) {
  const std::string f = flag;
  return value(std::move(flag), std::move(metavar), std::move(help),
               [out, f](const std::string& v) {
                 const auto d = parse_double(v);
                 check_input(d.has_value(), f + " needs a number, got \"" + v + "\"");
                 *out = *d;
               });
}

CliParser& CliParser::seed(std::string flag, std::string metavar, std::string help,
                           std::uint64_t* out) {
  const std::string f = flag;
  return value(std::move(flag), std::move(metavar), std::move(help),
               [out, f](const std::string& v) {
                 constexpr auto kMax = std::numeric_limits<std::uint64_t>::max();
                 const auto n = parse_int(v, std::uint64_t{0}, kMax);
                 check_input(n.has_value(),
                             f + " needs an unsigned 64-bit integer, got \"" + v + "\"");
                 *out = *n;
               });
}

CliParser& CliParser::toggle(std::string flag, std::string help, bool* out, bool to) {
  return this->flag(std::move(flag), std::move(help), [out, to]() { *out = to; });
}

CliParser& CliParser::positionals(std::string metavar, std::string help,
                                  std::function<void(const std::string&)> fn) {
  pos_metavar_ = std::move(metavar);
  pos_help_ = std::move(help);
  on_positional_ = std::move(fn);
  return *this;
}

const CliParser::Opt* CliParser::find(const std::string& flag) const {
  for (const Opt& o : opts_) {
    if (o.flag == flag) return &o;
  }
  return nullptr;
}

int CliParser::parse(int argc, char** argv) {
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    try {
      if (arg == "--help" || arg == "-h") {
        print_help(std::cout);
        return 0;
      }
      if (arg.rfind("--", 0) == 0) {
        const Opt* o = find(arg);
        if (o == nullptr) {
          std::cerr << prog_ << ": unknown option " << arg << " (see --help)\n";
          return 2;
        }
        if (o->on_value) {
          check_input(i + 1 < argc, arg + " needs a value");
          o->on_value(argv[++i]);
        } else {
          o->on_flag();
          if (o->is_terminal) return 0;
        }
      } else {
        check_input(static_cast<bool>(on_positional_),
              "unexpected argument \"" + arg + "\" (see --help)");
        on_positional_(arg);
      }
    } catch (const Error& e) {
      std::cerr << prog_ << ": " << e.what() << "\n";
      return 2;
    }
  }
  return -1;
}

void CliParser::print_help(std::ostream& os) const {
  os << "usage: " << prog_ << " [options]";
  if (on_positional_) os << " [" << pos_metavar_ << "...]";
  os << "\n\n" << summary_ << "\n\noptions:\n";
  // Align the help column on the widest head, but never past column 28 —
  // an oversized metavar (--scenario's spec grammar) wraps to its own
  // line instead of pushing every description off the screen.
  constexpr std::size_t kMaxCol = 28;
  std::size_t width = 6;  // "--help"
  auto head = [](const Opt& o) {
    return o.metavar.empty() ? o.flag : o.flag + " " + o.metavar;
  };
  for (const Opt& o : opts_) {
    if (head(o).size() <= kMaxCol) width = std::max(width, head(o).size());
  }
  auto row = [&](const std::string& h, const std::string& help) {
    if (h.size() > width) {
      os << "  " << h << "\n  " << std::string(width + 2, ' ') << help << "\n";
    } else {
      os << "  " << h << std::string(width - h.size() + 2, ' ') << help << "\n";
    }
  };
  for (const Opt& o : opts_) row(head(o), o.help);
  if (on_positional_) row(pos_metavar_ + "...", pos_help_);
  row("--help", "show this message");
}

void add_listing_flags(CliParser& p) {
  p.terminal("--list-runtimes", "print the runtime-table keys and exit", []() {
    for (const auto& k : sim::all_runtime_keys()) std::cout << k << "\n";
  });
  p.terminal("--list-sources", "print the harvest source kinds and exit", []() {
    for (const auto& k : power::harvest_source_kinds()) std::cout << k << "\n";
  });
}

}  // namespace ehdnn
