// Shared helpers for the experiment harnesses: aligned table printing and
// log-log scaling fits. Each bench binary reproduces one row group of the
// paper's Table 1 (see DESIGN.md section 4) by printing measured rounds next
// to the paper's predicted bound.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

namespace dapsp::bench {

// Fits rounds ~ c * x^alpha by least squares on (log x, log y); returns
// alpha. Used to check measured growth against the paper's exponent.
inline double fit_exponent(const std::vector<double>& x,
                           const std::vector<double>& y) {
  const std::size_t n = x.size();
  if (n < 2) return 0.0;
  double sx = 0, sy = 0, sxx = 0, sxy = 0;
  for (std::size_t i = 0; i < n; ++i) {
    const double lx = std::log(x[i]);
    const double ly = std::log(y[i] > 0 ? y[i] : 1.0);
    sx += lx;
    sy += ly;
    sxx += lx * lx;
    sxy += lx * ly;
  }
  const double d = static_cast<double>(n) * sxx - sx * sx;
  if (d == 0) return 0.0;
  return (static_cast<double>(n) * sxy - sx * sy) / d;
}

struct Table {
  explicit Table(std::string title) { std::printf("\n== %s ==\n", title.c_str()); }

  void header(const std::vector<std::string>& cols) {
    for (const auto& c : cols) std::printf("%14s", c.c_str());
    std::printf("\n");
    for (std::size_t i = 0; i < cols.size(); ++i) std::printf("%14s", "------------");
    std::printf("\n");
  }

  void cell(const std::string& s) { std::printf("%14s", s.c_str()); }
  void cell(std::uint64_t v) { std::printf("%14llu", static_cast<unsigned long long>(v)); }
  void cell(double v) { std::printf("%14.2f", v); }
  void end_row() { std::printf("\n"); }
};

inline void note(const std::string& s) { std::printf("   %s\n", s.c_str()); }

// The answer to an argument a bench does not take, or a flag without its
// value: print the usage line and exit 2, before any file is written.
[[noreturn]] inline void usage_exit(const char* argv0, const char* options) {
  std::fprintf(stderr, "usage: %s %s\n", argv0, options);
  std::exit(2);
}

// A flag's value, parsed whole: empty, non-numeric, partly numeric or
// out-of-range text is a usage error, and so is a zero count (integral T)
// or a non-finite real.
template <typename T>
T flag_value(const char* text, const char* argv0, const char* options) {
  T v{};
  const char* end = text + std::strlen(text);
  const auto [stop, ec] = std::from_chars(text, end, v);
  bool ok = ec == std::errc{} && stop == end;
  if constexpr (std::is_integral_v<T>) {
    ok = ok && v != 0;
  } else {
    ok = ok && std::isfinite(v);
  }
  if (!ok) usage_exit(argv0, options);
  return v;
}

}  // namespace dapsp::bench
