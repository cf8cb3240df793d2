// Shared pieces of the command-line tools: whole-value parsing of numeric
// flags (the one parser of the example CLIs dapsp_cli, dapsp_service and
// query_server, and of the benches' bench::flag_value), and the example
// CLIs' output files, a trace and a metrics registry, each written in the
// format its file suffix names, with one stderr line saying where it went.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <optional>
#include <string>
#include <string_view>
#include <type_traits>
#include <utility>

#include "congest/trace.h"
#include "util/metrics.h"

namespace dapsp::cli {

// `text` as one number of type T, or nullopt when it is empty, not a
// number, followed by anything, outside T's range (a sign on an unsigned T
// included), or a non-finite real.
template <typename T>
std::optional<T> parse_number(std::string_view text) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [stop, ec] = std::from_chars(text.data(), end, v);
  if (ec != std::errc{} || stop != end) return std::nullopt;
  if constexpr (std::is_floating_point_v<T>) {
    if (!std::isfinite(v)) return std::nullopt;
  }
  return v;
}

// "a<sep>b" as two whole numbers, or nullopt.
template <typename A, typename B>
std::optional<std::pair<A, B>> parse_pair(std::string_view text, char sep) {
  const std::size_t at = text.find(sep);
  if (at == std::string_view::npos) return std::nullopt;
  const std::optional<A> a = parse_number<A>(text.substr(0, at));
  const std::optional<B> b = parse_number<B>(text.substr(at + 1));
  if (!a || !b) return std::nullopt;
  return std::pair<A, B>{*a, *b};
}

inline bool has_suffix(const std::string& s, const char* suffix) {
  const std::size_t len = std::strlen(suffix);
  return s.size() >= len && s.compare(s.size() - len, len, suffix) == 0;
}

// Opens path for writing, or says it cannot on stderr and exits 1.
inline std::ofstream open_or_die(const std::string& path) {
  std::ofstream out(path);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  return out;
}

// .jsonl: one JSON event per line; .csv: CSV; otherwise Chrome trace JSON.
inline void write_trace_file(const std::string& path,
                             const congest::TraceLog& trace) {
  std::ofstream out = open_or_die(path);
  if (has_suffix(path, ".jsonl")) {
    trace.write_jsonl(out);
  } else if (has_suffix(path, ".csv")) {
    trace.write_csv(out);
  } else {
    trace.write_chrome_json(out);
  }
  std::fprintf(stderr, "trace: %zu events -> %s\n", trace.size(),
               path.c_str());
}

// .csv: CSV; otherwise JSON.
inline void write_metrics_file(const std::string& path,
                               const MetricsRegistry& reg) {
  std::ofstream out = open_or_die(path);
  if (has_suffix(path, ".csv")) {
    reg.write_csv(out);
  } else {
    reg.write_json(out);
  }
  std::fprintf(stderr, "metrics -> %s\n", path.c_str());
}

}  // namespace dapsp::cli
