// Quickstart: build a small network, run the paper's O(n) APSP protocol
// (Algorithm 1), and read back everything the paper derives from it —
// distances, eccentricities, diameter, radius, center, peripheral vertices,
// girth — together with the CONGEST cost accounting.
//
//   $ ./quickstart
#include <cstdio>

#include "core/pebble_apsp.h"
#include "graph/generators.h"
#include "graph/io.h"

using namespace dapsp;

int main() {
  // A 4x5 grid network of 20 routers.
  const Graph g = gen::grid(4, 5);
  std::printf("network: %s\n", g.summary().c_str());

  // One call runs the full distributed protocol on the simulator: leader
  // tree, DFS pebble, n staggered BFS floods, O(D) aggregation.
  const core::ApspResult r = core::run_pebble_apsp(g);

  std::printf("\ndistance matrix (hop counts):\n    ");
  for (NodeId u = 0; u < g.num_nodes(); ++u) std::printf("%3u", u);
  std::printf("\n");
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    std::printf("%3u:", v);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      std::printf("%3u", r.dist.at(v, u));
    }
    std::printf("\n");
  }

  std::printf("\nderived properties (Lemmas 2-7):\n");
  std::printf("  diameter = %u, radius = %u, girth = %u\n", r.diameter,
              r.radius, r.girth);
  std::printf("  center nodes:    ");
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (r.is_center[v]) std::printf("%u ", v);
  }
  std::printf("\n  peripheral nodes:");
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (r.is_peripheral[v]) std::printf(" %u", v);
  }

  std::printf("\n\nCONGEST cost (the paper's measures):\n");
  std::printf("  rounds     = %llu   (Theorem 1: O(n))\n",
              static_cast<unsigned long long>(r.stats.rounds));
  std::printf("  messages   = %llu\n",
              static_cast<unsigned long long>(r.stats.messages));
  std::printf("  bandwidth  = %u bits/edge/round, worst edge load %llu bits\n",
              r.stats.bandwidth_bits,
              static_cast<unsigned long long>(r.stats.max_edge_bits));
  return 0;
}
