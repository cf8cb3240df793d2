// "Figure": the phase structure of Algorithm 1, visible as message activity
// per round. The paper has no figures; this is the closest visual artifact —
// the tree-build spike, the long staggered-flood plateau driven by the DFS
// pebble (Lemma 1: constant per-edge load throughout), and the aggregation
// tail, all readable from the profile.
#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench_util.h"
#include "congest/trace.h"
#include "core/pebble_apsp.h"
#include "graph/generators.h"

using namespace dapsp;

namespace {

// Messages sent per round, read off the trace's kSend events.
std::vector<std::uint64_t> sends_per_round(const congest::TraceLog& trace) {
  std::vector<std::uint64_t> act;
  for (const congest::TraceEvent& ev : trace.events()) {
    if (ev.kind != congest::TraceEventKind::kSend) continue;
    if (act.size() <= ev.round) act.resize(ev.round + 1, 0);
    ++act[ev.round];
  }
  return act;
}

void profile(const char* name, const Graph& g) {
  congest::TraceLog trace;
  core::ApspOptions opt;
  opt.engine.trace = &trace;
  const core::ApspResult r = core::run_pebble_apsp(g, opt);
  const std::vector<std::uint64_t> act = sends_per_round(trace);

  std::printf("\n== Activity profile: Algorithm 1 on %s (%llu rounds) ==\n",
              name, static_cast<unsigned long long>(r.stats.rounds));
  // Bucket the rounds into a fixed-width profile.
  const std::size_t width = 72;
  const std::size_t per = std::max<std::size_t>(1, act.size() / width);
  std::vector<double> buckets;
  for (std::size_t i = 0; i < act.size(); i += per) {
    double sum = 0;
    for (std::size_t j = i; j < std::min(i + per, act.size()); ++j) {
      sum += static_cast<double>(act[j]);
    }
    buckets.push_back(sum / static_cast<double>(per));
  }
  const double peak = *std::max_element(buckets.begin(), buckets.end());
  const char* shades = " .:-=+*#%@";
  std::string line;
  for (const double b : buckets) {
    const int level = static_cast<int>(b / (peak + 1e-9) * 9.0);
    line += shades[level];
  }
  std::printf("  msgs/round  [%s]\n", line.c_str());
  std::printf("  peak %.0f msgs/round; phases: tree build | pebble+floods "
              "(flat: Lemma 1) | aggregation\n", peak);
}

}  // namespace

int main() {
  std::printf("# bench_activity — Algorithm 1 phase structure\n");
  profile("path(256)", gen::path(256));
  profile("grid(16x16)", gen::grid(16, 16));
  profile("random(256, m=512)", gen::random_connected(256, 256, 3));
  return 0;
}
