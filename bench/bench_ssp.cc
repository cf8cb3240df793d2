// Experiment SSP (Section 6.1, Theorem 3): Algorithm 2 solves S-SP in
// O(|S| + D) rounds.
//
// Sweep 1: fixed graph, growing |S| — rounds grow linearly in |S| with
//          slope ~2 (our doubled schedule) and intercept ~D.
// Sweep 2: fixed |S|, growing D (path length) — rounds grow linearly in D.
// Wall:    S = V SSP against pebble APSP (Algorithm 1) on the same graph —
//          both compute all distances, so their simulation cost per message
//          and end to end is directly comparable.
#include <algorithm>
#include <chrono>
#include <cstdio>
#include <numeric>
#include <vector>

#include "bench_util.h"
#include "core/pebble_apsp.h"
#include "core/ssp.h"
#include "graph/generators.h"
#include "util/rng.h"

using namespace dapsp;

namespace {

std::vector<NodeId> pick_sources(NodeId n, std::size_t count,
                                 std::uint64_t seed) {
  std::vector<NodeId> all(n);
  for (NodeId v = 0; v < n; ++v) all[v] = v;
  Rng rng(seed);
  shuffle(all, rng);
  all.resize(std::min<std::size_t>(count, n));
  return all;
}

void sweep_sources() {
  const Graph g = gen::grid(16, 16);  // n = 256, D = 30
  bench::Table t("S-SP rounds vs |S| on grid 16x16 (paper: O(|S| + D))");
  t.header({"|S|", "rounds", "loop", "D0", "msgs", "max_edge_bits"});
  std::vector<double> xs, ys;
  for (const std::size_t s : {1u, 2u, 4u, 8u, 16u, 32u, 64u, 128u}) {
    const auto sources = pick_sources(g.num_nodes(), s, 7);
    const core::SspResult r = core::run_ssp(g, sources);
    t.cell(std::uint64_t{s});
    t.cell(r.stats.rounds);
    t.cell(r.loop_rounds);
    t.cell(std::uint64_t{r.d0});
    t.cell(r.stats.messages);
    t.cell(std::uint64_t{r.stats.max_edge_bits});
    t.end_row();
    xs.push_back(static_cast<double>(s));
    ys.push_back(static_cast<double>(r.stats.rounds));
  }
  // Linear-in-|S| check at the top end (D contribution constant).
  bench::note("rounds(|S|=128) - rounds(|S|=64) ~ 2 * 64 (schedule slope 2)");
}

void sweep_diameter() {
  bench::Table t("S-SP rounds vs D: path(n), |S| = 8 (paper: O(|S| + D))");
  t.header({"n=D+1", "rounds", "loop", "D0", "rounds/D"});
  std::vector<double> xs, ys;
  for (const NodeId n : {32u, 64u, 128u, 256u, 512u}) {
    const Graph g = gen::path(n);
    const auto sources = pick_sources(n, 8, 11);
    const core::SspResult r = core::run_ssp(g, sources);
    t.cell(std::uint64_t{n});
    t.cell(r.stats.rounds);
    t.cell(r.loop_rounds);
    t.cell(std::uint64_t{r.d0});
    t.cell(static_cast<double>(r.stats.rounds) / (n - 1));
    t.end_row();
    xs.push_back(static_cast<double>(n));
    ys.push_back(static_cast<double>(r.stats.rounds));
  }
  bench::note("fitted exponent (rounds ~ D^alpha): " +
              std::to_string(bench::fit_exponent(xs, ys)) + "   [paper: 1.0]");
}

void late_improvement_audit() {
  // How often is the idealized "first arrival is shortest" ordering violated
  // (and repaired by our min-merge)? Under (dist, id) priority this reports
  // the residual corrections per run.
  bench::Table t("Claim-merge audit: late improvements per run (see ssp.h)");
  t.header({"graph", "|S|", "rounds", "late_improvements"});
  struct Case {
    const char* name;
    Graph g;
    std::size_t s;
  };
  const Case cases[] = {
      {"grid16x16", gen::grid(16, 16), 16},
      {"chords200", gen::cycle_with_chords(200, 60, 7), 16},
      {"rand256", gen::random_connected(256, 512, 3), 32},
  };
  for (const Case& c : cases) {
    const auto sources = pick_sources(c.g.num_nodes(), c.s, 5);
    const core::SspResult r = core::run_ssp(c.g, sources);
    t.cell(std::string(c.name));
    t.cell(std::uint64_t{c.s});
    t.cell(r.stats.rounds);
    t.cell(r.total_late_improvements);
    t.end_row();
  }
}

template <typename F>
double wall_ms(F&& f) {
  const auto t0 = std::chrono::steady_clock::now();
  f();
  const std::chrono::duration<double, std::milli> dt =
      std::chrono::steady_clock::now() - t0;
  return dt.count();
}

void wall_vs_pebble() {
  bench::Table t("S=V SSP vs pebble APSP wall (1 engine thread)");
  t.header({"graph", "ssp_ms", "ssp_msgs", "ssp_ns/msg", "apsp_ms",
            "apsp_msgs", "apsp_ns/msg", "ssp/apsp"});
  for (const NodeId n : {256u, 512u, 1024u}) {
    for (const std::size_t extra : {std::size_t{n} / 2, std::size_t{n} * 4}) {
      const Graph g = gen::random_connected(n, extra, 1);
      std::vector<NodeId> all(n);
      std::iota(all.begin(), all.end(), NodeId{0});
      core::SspResult s;
      core::ApspResult a;
      const double ssp_ms = wall_ms([&] { s = core::run_ssp(g, all); });
      const double apsp_ms = wall_ms([&] { a = core::run_pebble_apsp(g); });
      t.cell("rand" + std::to_string(n) +
             (extra == n / 2 ? "+n/2" : "+4n"));
      t.cell(ssp_ms);
      t.cell(s.stats.messages);
      t.cell(ssp_ms * 1e6 / static_cast<double>(s.stats.messages));
      t.cell(apsp_ms);
      t.cell(a.stats.messages);
      t.cell(apsp_ms * 1e6 / static_cast<double>(a.stats.messages));
      t.cell(ssp_ms / apsp_ms);
      t.end_row();
    }
  }
  bench::note("ROADMAP target: S=V SSP within 2x of pebble-APSP wall");
}

}  // namespace

int main() {
  std::printf("# bench_ssp — S-Shortest Paths (Thm 3)\n");
  sweep_sources();
  sweep_diameter();
  late_improvement_audit();
  wall_vs_pebble();
  return 0;
}
