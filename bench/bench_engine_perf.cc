// Wall-clock performance of the CONGEST engine itself (google-benchmark):
// simulation throughput is what bounds the instance sizes every other bench
// can afford. Not a paper experiment — an engineering gauge.
//
// Two parts:
//   * google-benchmark timings of the core drivers, with a thread-count
//     dimension over the sharded engine (DESIGN.md §11);
//   * a thread-scaling study run after the benchmarks: pebble-APSP and the
//     raw engine at 1/2/4/8 workers, asserting the determinism contract
//     (byte-identical RunStats at every thread count) while measuring
//     speedup. Results land in BENCH_engine.json in the working directory,
//     together with the host's hardware thread count. Thread counts beyond
//     the hardware are still measured and determinism-checked, but their
//     speedup is written as null — an oversubscribed "speedup" is fiction.
//
// Modes (standalone; google-benchmark is skipped):
//   --assert-speedup   perf-regression gate: scaling study incl. n=4096,
//                      fails below the speedup floors; self-skips on hosts
//                      with < 4 hardware threads.
//   --large            add the n=4096 workload to the default study.
//   --soak [n]         one pebble-APSP at n (default 16384), timed.
#include <benchmark/benchmark.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "congest/trace.h"
#include "core/pebble_apsp.h"
#include "core/ssp.h"
#include "core/tree_check.h"
#include "graph/generators.h"

using namespace dapsp;

namespace {

void BM_TreeBuild(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const Graph g = gen::random_connected(n, 2 * n, 42);
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_tree_check(g));
  }
  state.SetItemsProcessed(state.iterations() * n);
}
BENCHMARK(BM_TreeBuild)->Arg(256)->Arg(1024)->Arg(4096);

// range(0) = n, range(1) = EngineConfig::threads.
void BM_PebbleApsp(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const Graph g = gen::random_connected(n, 2 * n, 42);
  core::ApspOptions opt;
  opt.engine.threads = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_pebble_apsp(g, opt));
  }
  state.SetItemsProcessed(state.iterations() * n * n);  // distances computed
}
BENCHMARK(BM_PebbleApsp)
    ->Args({128, 1})
    ->Args({256, 1})
    ->Args({512, 1})
    ->Args({256, 2})
    ->Args({256, 8})
    ->Args({512, 8});

// The same benchmark with full instrumentation attached (TraceLog +
// EngineMetrics): collection is sharded (DESIGN.md §12), so the threads
// dimension must scale like the untraced benchmark — no serial fallback.
void BM_PebbleApspTraced(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const Graph g = gen::random_connected(n, 2 * n, 42);
  core::ApspOptions opt;
  opt.engine.threads = static_cast<std::uint32_t>(state.range(1));
  congest::TraceLog trace;
  congest::EngineMetrics metrics;
  opt.engine.trace = &trace;
  opt.engine.metrics = &metrics;
  for (auto _ : state) {
    trace.clear();
    metrics.clear();
    benchmark::DoNotOptimize(core::run_pebble_apsp(g, opt));
  }
  state.SetItemsProcessed(state.iterations() * n * n);
}
BENCHMARK(BM_PebbleApspTraced)
    ->Args({256, 1})
    ->Args({256, 2})
    ->Args({256, 8})
    ->Args({512, 8});

void BM_Ssp16(benchmark::State& state) {
  const auto n = static_cast<NodeId>(state.range(0));
  const Graph g = gen::random_connected(n, 2 * n, 42);
  std::vector<NodeId> sources;
  for (NodeId v = 0; v < 16; ++v) sources.push_back(v * (n / 16));
  core::SspOptions opt;
  opt.engine.threads = static_cast<std::uint32_t>(state.range(1));
  for (auto _ : state) {
    benchmark::DoNotOptimize(core::run_ssp(g, sources, opt));
  }
  state.SetItemsProcessed(state.iterations() * n * 16);
}
BENCHMARK(BM_Ssp16)->Args({256, 1})->Args({1024, 1})->Args({1024, 8});

// --- Thread-scaling study + BENCH_engine.json ---------------------------

struct ScalingRow {
  std::string workload;
  NodeId n = 0;
  std::uint32_t threads = 0;
  double seconds = 0.0;
  double speedup = 1.0;        // serial time / this time
  bool oversubscribed = false;  // threads > hardware threads: no speedup claim
  bool stats_identical = false;  // RunStats byte-identical to threads=1
  std::string stats;
};

// Speedup numbers are only honest when every worker can run on its own
// hardware thread. Rows where the engine is oversubscribed (threads beyond
// std::thread::hardware_concurrency()) are measured and checked for
// determinism like any other, but their speedup is NOT claimed: the JSON
// writes null and the regression gate ignores them.
std::uint32_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;  // 0 = "unknown" per the standard; claim nothing
}

double time_apsp(const Graph& g, std::uint32_t threads, std::string* stats) {
  core::ApspOptions opt;
  opt.engine.threads = threads;
  // One warm-up, then the timed run (the engine allocates its buffers once).
  core::run_pebble_apsp(g, opt);
  const auto t0 = std::chrono::steady_clock::now();
  const core::ApspResult r = core::run_pebble_apsp(g, opt);
  const auto t1 = std::chrono::steady_clock::now();
  *stats = r.stats.debug_string();
  return std::chrono::duration<double>(t1 - t0).count();
}

// Timed instrumented run: trace + metrics attached. The trace is serialized
// to JSONL so callers can compare runs byte for byte.
double time_apsp_traced(const Graph& g, std::uint32_t threads,
                        std::string* stats, std::string* trace_bytes) {
  core::ApspOptions opt;
  opt.engine.threads = threads;
  congest::TraceLog trace;
  congest::EngineMetrics metrics;
  opt.engine.trace = &trace;
  opt.engine.metrics = &metrics;
  core::run_pebble_apsp(g, opt);  // warm-up
  trace.clear();
  metrics.clear();
  const auto t0 = std::chrono::steady_clock::now();
  const core::ApspResult r = core::run_pebble_apsp(g, opt);
  const auto t1 = std::chrono::steady_clock::now();
  *stats = r.stats.debug_string();
  std::ostringstream os;
  trace.write_jsonl(os);
  *trace_bytes = std::move(os).str();
  return std::chrono::duration<double>(t1 - t0).count();
}

// Traced vs untraced at 1/2/8 workers: measures the observability overhead
// and asserts the §12 contract — trace bytes and RunStats identical at every
// thread count. Rows land in BENCH_engine.json next to the plain scaling.
bool traced_study(std::vector<ScalingRow>& rows) {
  const Graph g = gen::random_connected(512, 1024, 42);
  const std::uint32_t kThreads[] = {1, 2, 8};
  bool ok = true;

  std::string serial_stats, serial_trace;
  const double serial = time_apsp_traced(g, 1, &serial_stats, &serial_trace);
  std::string untraced_stats;
  const double untraced_serial = time_apsp(g, 1, &untraced_stats);
  for (const std::uint32_t t : kThreads) {
    std::string stats = serial_stats, trace = serial_trace;
    const double secs =
        t == 1 ? serial : time_apsp_traced(g, t, &stats, &trace);
    std::string plain_stats;
    const double plain =
        t == 1 ? untraced_serial : time_apsp(g, t, &plain_stats);
    const bool identical = stats == serial_stats && trace == serial_trace;
    const bool over = t > hardware_threads();
    ok = ok && identical;
    rows.push_back({"pebble_apsp_traced512", g.num_nodes(), t, secs,
                    serial / secs, over, identical, stats});
    if (over) {
      std::printf("%-22s n=%4u threads=%u  %8.3f ms  (oversubscribed)  "
                  "overhead=%+.1f%%  %s\n",
                  "pebble_apsp_traced512", g.num_nodes(), t, secs * 1e3,
                  (secs / plain - 1.0) * 100.0,
                  identical ? "trace+stats-identical" : "TRACE MISMATCH");
    } else {
      std::printf("%-22s n=%4u threads=%u  %8.3f ms  speedup=%.2fx  "
                  "overhead=%+.1f%%  %s\n",
                  "pebble_apsp_traced512", g.num_nodes(), t, secs * 1e3,
                  serial / secs, (secs / plain - 1.0) * 100.0,
                  identical ? "trace+stats-identical" : "TRACE MISMATCH");
    }
  }
  return ok;
}

void scaling_study(std::vector<ScalingRow>& rows, bool large) {
  const std::uint32_t kThreads[] = {1, 2, 4, 8};
  struct Workload {
    const char* name;
    Graph g;
  };
  std::vector<Workload> workloads;
  workloads.push_back({"pebble_apsp_rand512",
                       gen::random_connected(512, 1024, 42)});
  workloads.push_back({"pebble_apsp_grid24",
                       gen::grid(24, 24)});
  // The n>=4096 workload is where parallel speedup actually pays (per-round
  // work dwarfs the barrier cost); it is also ~100x the 512 run, so it only
  // joins on request (--large, and always under --assert-speedup).
  if (large) {
    workloads.push_back({"pebble_apsp_rand4096",
                         gen::random_connected(4096, 8192, 42)});
  }

  for (const Workload& w : workloads) {
    std::string serial_stats;
    const double serial = time_apsp(w.g, 1, &serial_stats);
    for (const std::uint32_t t : kThreads) {
      std::string stats;
      const double secs = t == 1 ? serial : time_apsp(w.g, t, &stats);
      if (t == 1) stats = serial_stats;
      const bool over = t > hardware_threads();
      rows.push_back({w.name, w.g.num_nodes(), t, secs, serial / secs, over,
                      stats == serial_stats, stats});
      if (over) {
        std::printf("%-22s n=%4u threads=%u  %8.3f ms  (oversubscribed)  %s\n",
                    w.name, w.g.num_nodes(), t, secs * 1e3,
                    stats == serial_stats ? "stats-identical"
                                          : "STATS MISMATCH");
      } else {
        std::printf("%-22s n=%4u threads=%u  %8.3f ms  speedup=%.2fx  %s\n",
                    w.name, w.g.num_nodes(), t, secs * 1e3, serial / secs,
                    stats == serial_stats ? "stats-identical"
                                          : "STATS MISMATCH");
      }
    }
  }
}

// --assert-speedup: the perf-regression gate. Re-runs the scaling study
// (including the n=4096 workload) and fails unless the non-oversubscribed
// thread counts clear their floors. Self-skips on hosts with fewer than 4
// hardware threads — a 1- or 2-core box cannot demonstrate 8-way scaling,
// and pretending otherwise is exactly the dishonesty this flag exists to
// prevent.
int run_assert_speedup() {
  const std::uint32_t hw = hardware_threads();
  if (hw < 4) {
    std::printf("--assert-speedup: SKIPPED (host has %u hardware threads; "
                "need >= 4 to make a scaling claim)\n", hw);
    return 0;
  }
  struct Gate {
    std::uint32_t threads;
    double min_speedup;
  };
  const Gate kGates[] = {{2, 1.15}, {4, 1.6}, {8, 3.0}};

  std::vector<ScalingRow> rows;
  scaling_study(rows, /*large=*/true);
  bool ok = true;
  for (const ScalingRow& r : rows) {
    if (!r.stats_identical) {
      std::printf("--assert-speedup: FAIL %s threads=%u: stats mismatch\n",
                  r.workload.c_str(), r.threads);
      ok = false;
    }
    // The scaling claim itself is gated on the big workload: small runs are
    // barrier-dominated and their speedups are not the contract.
    if (r.workload != "pebble_apsp_rand4096" || r.oversubscribed) continue;
    for (const Gate& gate : kGates) {
      if (r.threads != gate.threads) continue;
      if (r.speedup < gate.min_speedup) {
        std::printf("--assert-speedup: FAIL %s threads=%u: speedup %.2fx "
                    "< required %.2fx\n",
                    r.workload.c_str(), r.threads, r.speedup,
                    gate.min_speedup);
        ok = false;
      } else {
        std::printf("--assert-speedup: ok %s threads=%u: %.2fx >= %.2fx\n",
                    r.workload.c_str(), r.threads, r.speedup,
                    gate.min_speedup);
      }
    }
  }
  return ok ? 0 : 1;
}

// --soak [n]: one serial pebble-APSP at n (default 16384) — the throughput
// ceiling probe. No speedup claim, no JSON: just wall-clock and the stats
// line, for eyeballing after engine changes.
int run_soak(NodeId n) {
  const Graph g = gen::random_connected(n, 2 * n, 42);
  std::printf("soak: pebble-APSP on %s\n", g.summary().c_str());
  core::ApspOptions opt;
  opt.engine.threads = hardware_threads() >= 4 ? 0u : 1u;
  const auto t0 = std::chrono::steady_clock::now();
  const core::ApspResult r = core::run_pebble_apsp(g, opt);
  const auto t1 = std::chrono::steady_clock::now();
  std::printf("soak: %.2f s, %s\n",
              std::chrono::duration<double>(t1 - t0).count(),
              r.stats.debug_string().c_str());
  return 0;
}

void write_json(const char* path, const std::vector<ScalingRow>& rows) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("warning: could not open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "{\n  \"hardware_threads\": %u,\n  \"scaling\": [\n",
               hardware_threads());
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const ScalingRow& r = rows[i];
    // Oversubscribed rows carry no speedup claim: the measurement is real,
    // the ratio would be fiction.
    char speedup[32];
    if (r.oversubscribed) {
      std::snprintf(speedup, sizeof speedup, "null");
    } else {
      std::snprintf(speedup, sizeof speedup, "%.3f", r.speedup);
    }
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"n\": %u, \"threads\": %u, "
                 "\"seconds\": %.6f, \"speedup\": %s, "
                 "\"oversubscribed\": %s, \"stats_identical\": %s}%s\n",
                 r.workload.c_str(), r.n, r.threads, r.seconds, speedup,
                 r.oversubscribed ? "true" : "false",
                 r.stats_identical ? "true" : "false",
                 i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("\nwrote %zu rows to %s\n", rows.size(), path);
}

}  // namespace

int main(int argc, char** argv) {
  // Strip our own flags before google-benchmark sees (and rejects) them.
  bool assert_speedup = false;
  bool large = false;
  bool soak = false;
  NodeId soak_n = 16384;
  int kept = 1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--assert-speedup") {
      assert_speedup = true;
    } else if (arg == "--large") {
      large = true;
    } else if (arg == "--soak") {
      soak = true;
      if (i + 1 < argc && argv[i + 1][0] != '-') {
        soak_n = static_cast<NodeId>(std::atoi(argv[++i]));
      }
    } else {
      argv[kept++] = argv[i];
    }
  }
  argc = kept;

  // The gate and soak modes are standalone: no google-benchmark pass, no
  // JSON — CI wants one answer, fast.
  if (assert_speedup) return run_assert_speedup();
  if (soak) return run_soak(soak_n);

  benchmark::Initialize(&argc, argv);
  if (benchmark::ReportUnrecognizedArguments(argc, argv)) return 1;
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();

  std::printf("\nThread scaling (host has %u hardware threads):\n",
              hardware_threads());
  std::vector<ScalingRow> rows;
  scaling_study(rows, large);
  std::printf("\nTraced vs untraced (sharded observability, DESIGN.md §12):\n");
  const bool traces_ok = traced_study(rows);
  write_json("BENCH_engine.json", rows);

  for (const ScalingRow& r : rows) {
    if (!r.stats_identical) {
      std::printf("ERROR: RunStats differ across thread counts\n");
      return 1;
    }
  }
  if (!traces_ok) {
    std::printf("ERROR: trace bytes differ across thread counts\n");
    return 1;
  }
  return 0;
}
