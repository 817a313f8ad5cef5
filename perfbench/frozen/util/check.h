// Lightweight precondition / invariant checking.
//
// Library code throws ehdnn::Error on contract violations so that callers
// (tests, benches, examples) get a diagnosable failure instead of UB. Hot
// inner loops use plain assert() where the cost of a branch matters.
#pragma once

#include <source_location>
#include <stdexcept>
#include <string>

namespace ehdnn {

// Base error type for all ehdnn failures.
class Error : public std::runtime_error {
 public:
  explicit Error(const std::string& what) : std::runtime_error(what) {}
};

namespace detail {
// Out-of-line cold throw path: keeps check() itself down to a predicted
// branch, with no message materialization on the success path.
[[noreturn]] [[gnu::noinline]] [[gnu::cold]] inline void check_throw(
    const char* msg, const std::source_location& loc) {
  throw Error(std::string(loc.file_name()) + ":" + std::to_string(loc.line()) +
              ": check failed: " + msg);
}
}  // namespace detail

// Throws Error with file:line context when `cond` is false. The
// const char* overload is what string-literal call sites resolve to —
// bounds checks in memory/device hot paths run millions of times, and a
// std::string parameter would heap-allocate the message on every
// successful check.
inline void check(bool cond, const char* msg,
                  std::source_location loc = std::source_location::current()) {
  if (!cond) [[unlikely]] {
    detail::check_throw(msg, loc);
  }
}

inline void check(bool cond, const std::string& msg,
                  std::source_location loc = std::source_location::current()) {
  if (!cond) [[unlikely]] {
    detail::check_throw(msg.c_str(), loc);
  }
}

// Unconditional failure with context (e.g. unreachable switch arms).
[[noreturn]] inline void fail(const std::string& msg,
                              std::source_location loc = std::source_location::current()) {
  throw Error(std::string(loc.file_name()) + ":" + std::to_string(loc.line()) + ": " + msg);
}

}  // namespace ehdnn
