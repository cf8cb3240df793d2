// Shared types of the benchmark binary: run options, the metric report each
// workload fills, and host helpers.
#pragma once

#include <sys/resource.h>

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "stats.h"
#include "trace.h"

namespace perfbench {

struct Options {
  std::string workload;
  std::uint64_t seed = 1;
  int seconds = 10;
  bool trace = false;
  // Scratch directory for journals and checkpoints (created and removed by
  // the workload that needs it).
  std::string work_dir = ".";
  // Where the traced run writes its spans (JSON lines); empty = nowhere.
  std::string trace_out;
};

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
  std::uint64_t samples = 0;
  std::string note;  // e.g. which percentile a tail metric reports
};

struct Report {
  // Untraced end-to-end metrics, and the traced run's per-layer metrics.
  std::vector<Metric> e2e;
  std::vector<Metric> layer;
  // Ops attempted and failed (an op fails when it throws or its oracle or
  // determinism check does not hold).
  std::uint64_t attempted = 0;
  std::uint64_t failed = 0;
  // Failure messages; the first few are printed.
  std::vector<std::string> errors;
  // Threads the workload runs (engine workers or reader/publisher threads).
  unsigned threads = 0;
  // Per-thread span recorders of the traced run.
  std::vector<Tracer> tracers;

  void fail(std::string why) {
    ++failed;
    errors.push_back(std::move(why));
  }
  void add_e2e(std::string name, double value, std::string unit,
               std::uint64_t samples, std::string note = {}) {
    e2e.push_back(Metric{std::move(name), value, std::move(unit), samples,
                         std::move(note)});
  }
  void add_layer(std::string name, double value, std::string unit,
                 std::uint64_t samples, std::string note = {}) {
    layer.push_back(Metric{std::move(name), value, std::move(unit), samples,
                           std::move(note)});
  }
  // op_ms_tail from a latency sample, with the percentile it reports.
  void add_tail(const std::vector<double>& ms) {
    const std::optional<Tail> t = tail_percentile(ms);
    if (!t) {
      errors.push_back("op_ms_tail: fewer than 20 samples");
      return;
    }
    char note[64];
    std::snprintf(note, sizeof note, "p%g, %zu samples beyond", t->q * 100.0,
                  t->beyond);
    add_e2e("op_ms_tail", t->value, "ms", ms.size(), note);
  }
};

// Closed-loop accounting: every attempted op ends completed or failed.
struct LoopCounts {
  std::uint64_t attempted = 0;
  std::uint64_t completed = 0;
  std::uint64_t failed = 0;
  bool balanced() const { return attempted == completed + failed; }
};

// Runs op() back to back until stop() holds. An op that returns false or
// throws counts as failed.
template <class Stop, class Op>
LoopCounts closed_loop(Stop&& stop, Op&& op) {
  LoopCounts c;
  while (!stop()) {
    ++c.attempted;
    bool ok = false;
    try {
      ok = op();
    } catch (...) {
      ok = false;
    }
    ++(ok ? c.completed : c.failed);
  }
  return c;
}

inline double ms_between(std::int64_t a_ns, std::int64_t b_ns) {
  return static_cast<double>(b_ns - a_ns) / 1e6;
}

inline double peak_rss_mib() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  return static_cast<double>(ru.ru_maxrss) / 1024.0;  // ru_maxrss is KiB
}

// Seeds of the generated inputs, derived from the benchmark seed.
inline std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t stream) {
  std::uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

Report run_apsp(const Options& opt);
Report run_churn(const Options& opt);
Report run_serve(const Options& opt);

}  // namespace perfbench
