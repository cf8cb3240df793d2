// Randomized differential testing: the distributed algorithms against the
// sequential oracles on ~200 seeded random graphs.
//
// The fixed suites (testing/suite.h) cover the shapes the paper reasons
// about; this harness covers the shapes nobody thought of. Three generator
// families — G(n,p) filtered to connected, uniform random trees, and
// randomly subdivided gadgets (long induced paths grafted into dense cores,
// the classical trigger for wavefront-collision bugs) — are driven from a
// single base seed. Every assertion message carries the generator family and
// seed, so any failure is reproducible by pasting one line into a unit test.
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <vector>

#include "core/pebble_apsp.h"
#include "core/repair.h"
#include "core/ssp.h"
#include "graph/generators.h"
#include "graph/graph.h"
#include "seq/apsp.h"
#include "seq/bfs.h"
#include "seq/properties.h"
#include "util/rng.h"

namespace dapsp {
namespace {

// One differential instance: a connected graph plus the one-line recipe that
// regenerates it ("gnp n=19 p=0.21 seed=4242").
struct Instance {
  std::string recipe;
  Graph graph;
};

// Subdivides `count` randomly chosen edges of g, each into a path of
// `segments` edges through fresh nodes. Preserves connectivity; stretches
// distances non-uniformly, which is exactly what the pebble/SSP wavefront
// scheduling must survive.
Graph subdivide_random_edges(const Graph& g, std::size_t count,
                             std::uint32_t segments, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<Edge> edges(g.edges().begin(), g.edges().end());
  shuffle(edges, rng);
  count = std::min(count, edges.size());

  NodeId next = g.num_nodes();
  std::vector<Edge> out;
  for (std::size_t i = 0; i < edges.size(); ++i) {
    if (i >= count || segments <= 1) {
      out.push_back(edges[i]);
      continue;
    }
    NodeId prev = edges[i].u;
    for (std::uint32_t s = 1; s < segments; ++s) {
      out.push_back({prev, next});
      prev = next++;
    }
    out.push_back({prev, edges[i].v});
  }
  return Graph(next, out);
}

std::vector<Instance> differential_instances() {
  std::vector<Instance> out;

  // Family 1: G(n, p) conditioned on connectivity. Densities straddle the
  // connectivity threshold ln(n)/n so both sparse near-trees and dense
  // near-cliques appear.
  for (std::uint64_t seed = 1; out.size() < 80; ++seed) {
    const NodeId n = static_cast<NodeId>(6 + (seed * 7) % 27);  // 6..32
    const double p = 0.08 + 0.9 * static_cast<double>(seed % 11) / 11.0;
    Graph g = gen::erdos_renyi(n, p, seed);
    if (!seq::is_connected(g)) continue;
    out.push_back({"gnp n=" + std::to_string(n) + " p=" + std::to_string(p) +
                       " seed=" + std::to_string(seed),
                   std::move(g)});
  }

  // Family 2: uniform random trees (random_connected with 0 extra edges) —
  // infinite girth, large diameter, every aggregation edge case.
  for (std::uint64_t seed = 1; seed <= 60; ++seed) {
    const NodeId n = static_cast<NodeId>(2 + (seed * 13) % 39);  // 2..40
    out.push_back({"tree n=" + std::to_string(n) +
                       " seed=" + std::to_string(seed),
                   gen::random_connected(n, 0, seed)});
  }

  // Family 3: subdivided gadgets — dense cores with randomly stretched
  // edges. Base shapes with known adversarial structure; the subdivision
  // seed controls which edges stretch.
  for (std::uint64_t seed = 1; seed <= 20; ++seed) {
    out.push_back({"subdiv-petersen seed=" + std::to_string(seed),
                   subdivide_random_edges(
                       gen::petersen(), 5,
                       static_cast<std::uint32_t>(2 + seed % 4), seed)});
    out.push_back({"subdiv-complete7 seed=" + std::to_string(seed),
                   subdivide_random_edges(
                       gen::complete(7), 8,
                       static_cast<std::uint32_t>(2 + seed % 3), seed)});
    out.push_back(
        {"subdiv-rand seed=" + std::to_string(seed),
         subdivide_random_edges(gen::random_connected(16, 14, seed), 6,
                                static_cast<std::uint32_t>(2 + seed % 5),
                                seed ^ 0xabcd)});
  }

  return out;  // 80 + 60 + 60 = 200 instances
}

TEST(Differential, PebbleApspMatchesOracle) {
  for (const Instance& inst : differential_instances()) {
    const core::ApspResult r = core::run_pebble_apsp(inst.graph);
    const DistanceMatrix want = seq::apsp(inst.graph);
    ASSERT_EQ(r.dist, want) << inst.recipe;
  }
}

TEST(Differential, ApplicationsMatchOracles) {
  for (const Instance& inst : differential_instances()) {
    const Graph& g = inst.graph;
    const core::ApspResult r = core::run_pebble_apsp(g);
    EXPECT_EQ(r.ecc, seq::eccentricities(g)) << inst.recipe;
    EXPECT_EQ(r.diameter, seq::diameter(g)) << inst.recipe;
    EXPECT_EQ(r.radius, seq::radius(g)) << inst.recipe;
    EXPECT_EQ(r.girth, seq::girth(g)) << inst.recipe;
    std::vector<NodeId> ctr, per;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (r.is_center[v]) ctr.push_back(v);
      if (r.is_peripheral[v]) per.push_back(v);
    }
    EXPECT_EQ(ctr, seq::center(g)) << inst.recipe;
    EXPECT_EQ(per, seq::peripheral_vertices(g)) << inst.recipe;
  }
}

TEST(Differential, SspMatchesBfsRows) {
  std::uint64_t salt = 0;
  for (const Instance& inst : differential_instances()) {
    const Graph& g = inst.graph;
    // A random source set drawn per instance: expected ~30% of the nodes,
    // never empty.
    Rng rng(0x5579 + ++salt);
    std::vector<NodeId> sources;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (rng.chance(0.3)) sources.push_back(v);
    }
    if (sources.empty()) {
      sources.push_back(static_cast<NodeId>(rng.below(g.num_nodes())));
    }

    const core::SspResult r = core::run_ssp(g, sources);
    for (const NodeId s : sources) {
      const seq::BfsResult oracle = seq::bfs(g, s);
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        ASSERT_EQ(r.delta[v][s], oracle.dist[v])
            << inst.recipe << " |S|=" << sources.size() << " source=" << s
            << " node=" << v;
      }
    }
  }
}

TEST(Differential, RepairedStaleHarvestsMatchSubgraphOracle) {
  // Differential probe for the self-healing path (core/repair.h): per
  // instance, kill 1-2 seeded random nodes, hand repair_apsp() the full
  // pre-crash oracle tables (the worst kind of degradation: every row
  // coverage-complete, arbitrarily many silently stale), and demand the
  // repaired tables equal the sequential oracle on the surviving subgraph —
  // including disconnections, which random trees produce constantly.
  std::uint64_t salt = 0;
  for (const Instance& inst : differential_instances()) {
    const Graph& g = inst.graph;
    const NodeId n = g.num_nodes();
    Rng rng(0xf1c5 + ++salt);
    std::vector<std::uint8_t> survived(n, 1);
    survived[static_cast<std::size_t>(rng.below(n))] = 0;
    if (n > 4 && rng.chance(0.5)) {
      survived[static_cast<std::size_t>(rng.below(n))] = 0;
    }

    core::ApspResult r;
    r.dist = seq::apsp(g);
    r.next_hop = Table<NodeId>(n, n, core::kNoNextHop);
    r.status = congest::RunStatus::kDegraded;
    r.survived = survived;

    const core::RepairReport report = core::repair_apsp(g, r);
    ASSERT_TRUE(report.all_certified())
        << inst.recipe << ": " << report.debug_string();
    ASSERT_TRUE(report.bound_ok)
        << inst.recipe << ": " << report.debug_string();

    std::vector<Edge> live_edges;
    for (const Edge& e : g.edges()) {
      if (survived[e.u] != 0 && survived[e.v] != 0) live_edges.push_back(e);
    }
    const Graph sub(n, live_edges);
    for (NodeId s = 0; s < n; ++s) {
      const seq::BfsResult oracle = seq::bfs(sub, s);
      for (NodeId v = 0; v < n; ++v) {
        if (survived[v] == 0) continue;
        const std::uint32_t want =
            survived[s] != 0 ? oracle.dist[v] : (v == s ? 0u : kInfDist);
        ASSERT_EQ(r.dist.at(v, s), want)
            << inst.recipe << " node=" << v << " source=" << s;
      }
    }
  }
}

// The harness itself must stay deterministic: a failure recipe printed by a
// CI run has to regenerate the same graph locally.
TEST(Differential, InstanceSetIsStable) {
  const auto a = differential_instances();
  const auto b = differential_instances();
  ASSERT_EQ(a.size(), 200u);
  for (std::size_t i = 0; i < a.size(); ++i) {
    ASSERT_EQ(a[i].recipe, b[i].recipe);
    ASSERT_EQ(a[i].graph.num_nodes(), b[i].graph.num_nodes());
    ASSERT_TRUE(std::equal(a[i].graph.edges().begin(),
                           a[i].graph.edges().end(),
                           b[i].graph.edges().begin(),
                           b[i].graph.edges().end()))
        << a[i].recipe;
  }
}

}  // namespace
}  // namespace dapsp
