// Output files of the example CLIs (dapsp_cli, dapsp_service, query_server):
// a trace and a metrics registry, each written in the format its file suffix
// names, with one stderr line saying where it went.
#pragma once

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>

#include "congest/trace.h"
#include "util/metrics.h"

namespace dapsp::cli {

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
