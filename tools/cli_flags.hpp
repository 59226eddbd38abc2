// Checked flag-value parsing shared by the command-line tools.
//
// A bare strtoull reads "-1" as 2^64 - 1 and "abc" as 0, so a typo would
// run with a wrapped or zero value. FlagParser accepts only what the
// flag can hold: an integer is base-10 digits (a leading '-' only for
// signed types) inside [lo, hi] of its target type, a number parses in
// full and is finite, and a vertex list is comma-separated vertex ids.
// Anything else goes to the tool's usage(), which prints the message and
// exits 2 before the tool does any work.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdlib>
#include <limits>
#include <string>
#include <system_error>
#include <type_traits>
#include <vector>

#include "graph/types.hpp"

namespace eimm::cli {

class FlagParser {
 public:
  /// A tool's usage(): prints `error` and the usage text, then exits
  /// (with status 2 when `error` is set).
  using Usage = void (*)(const char* argv0, const char* error);

  FlagParser(Usage usage, const char* argv0) : usage_(usage), argv0_(argv0) {}

  /// `value` as a base-10 integer of type T in [lo, hi].
  template <typename T>
  T integer(const std::string& flag, const std::string& value,
            T lo = std::numeric_limits<T>::min(),
            T hi = std::numeric_limits<T>::max()) const {
    T v{};
    if (!parse(value, v) || v < lo || v > hi) {
      std::string range =
          std::is_signed_v<T> ? "an integer" : "a non-negative integer";
      if (lo != std::numeric_limits<T>::min()) {
        range = "an integer >= " + std::to_string(lo);
      }
      if (hi != std::numeric_limits<T>::max()) {
        range = "an integer in [" + std::to_string(lo) + ", " +
                std::to_string(hi) + "]";
      }
      fail(flag + " expects " + range + ", got '" + value + "'");
    }
    return v;
  }

  /// `value` as a finite floating-point number.
  double number(const std::string& flag, const std::string& value) const {
    char* end = nullptr;
    const double v = std::strtod(value.c_str(), &end);
    if (value.empty() || end != value.c_str() + value.size() ||
        !std::isfinite(v)) {
      fail(flag + " expects a number, got '" + value + "'");
    }
    return v;
  }

  /// `value` as a comma-separated list of vertex ids.
  std::vector<VertexId> vertex_list(const std::string& flag,
                                    const std::string& value) const {
    std::vector<VertexId> out;
    std::size_t pos = 0;
    while (pos <= value.size()) {
      std::size_t comma = value.find(',', pos);
      if (comma == std::string::npos) comma = value.size();
      const std::string token = value.substr(pos, comma - pos);
      if (!parse(token, out.emplace_back())) {
        fail(flag + " entry '" + token + "' is not a valid vertex id");
      }
      pos = comma + 1;
    }
    return out;
  }

 private:
  /// Base-10 digits only (and a leading '-' for signed T), in T's range.
  template <typename T>
  static bool parse(const std::string& text, T& out) {
    static_assert(std::is_integral_v<T>);
    const char* end = text.data() + text.size();
    const auto [ptr, ec] = std::from_chars(text.data(), end, out);
    return !text.empty() && ec == std::errc{} && ptr == end;
  }

  [[noreturn]] void fail(const std::string& message) const {
    usage_(argv0_, message.c_str());
    std::exit(2);  // usage() exits; this only tells the compiler so
  }

  Usage usage_;
  const char* argv0_;
};

}  // namespace eimm::cli
