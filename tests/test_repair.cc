// Self-healing repair of degraded APSP runs (core/repair.h): suspect
// detection (coverage + failed certificates), per-component S-SP re-runs,
// oracle-exact merged tables, vacuous certification of crashed-source rows,
// the O(|S| + D) repair round bound, and the 50-campaign acceptance sweep
// (crashes + drops + payload corruption -> all-certified repairs).
#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "congest/engine.h"
#include "congest/faults.h"
#include "congest/reliable.h"
#include "core/certify.h"
#include "core/pebble_apsp.h"
#include "core/repair.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "seq/apsp.h"
#include "seq/bfs.h"

namespace dapsp::core {
namespace {

Graph surviving_subgraph(const Graph& g,
                         const std::vector<std::uint8_t>& survived) {
  std::vector<Edge> edges;
  for (const Edge& e : g.edges()) {
    if (survived[e.u] != 0 && survived[e.v] != 0) edges.push_back(e);
  }
  return Graph(g.num_nodes(), edges);
}

// Asserts the repaired tables are exact: every surviving node's distance to
// every source equals the sequential oracle on the surviving subgraph
// (infinite for dead sources), and repaired next-hop pointers descend.
void check_repaired_exact(const Graph& g, const ApspResult& r,
                          const RepairReport& report) {
  const NodeId n = g.num_nodes();
  const Graph sub = surviving_subgraph(g, r.survived);
  for (NodeId s = 0; s < n; ++s) {
    const auto oracle = seq::bfs(sub, s);
    for (NodeId v = 0; v < n; ++v) {
      if (r.survived[v] == 0) continue;
      const std::uint32_t want =
          r.survived[s] != 0 ? oracle.dist[v] : (v == s ? 0u : kInfDist);
      ASSERT_EQ(r.dist.at(v, s), want)
          << g.summary() << " node " << v << " source " << s;
    }
  }
  // Next-hop pointers of the repaired rows route along shortest paths of the
  // surviving subgraph. (Untouched certified rows keep their original
  // pointers, which may still name a dead neighbor of an equal-length
  // pre-crash path — distances, not routes, are what their certificate
  // guarantees.)
  for (const NodeId s : report.suspect_sources) {
    for (NodeId v = 0; v < n; ++v) {
      if (r.survived[v] == 0) continue;
      const NodeId hop = r.next_hop[v][s];
      const std::uint32_t d = r.dist.at(v, s);
      if (v == s || d == kInfDist) {
        EXPECT_EQ(hop, kNoNextHop) << " node " << v << " source " << s;
        continue;
      }
      ASSERT_NE(hop, kNoNextHop) << " node " << v << " source " << s;
      ASSERT_LT(hop, n);
      EXPECT_NE(r.survived[hop], 0u);
      EXPECT_TRUE(sub.has_edge(v, hop));
      EXPECT_EQ(r.dist.at(hop, s), d - 1)
          << " node " << v << " source " << s << " via " << hop;
    }
  }
}

// ---------------------------------------------------------------------------
// Basics

TEST(Repair, CompletedResultNeedsNoRepair) {
  const Graph g = gen::grid(3, 4);
  ApspResult r = run_pebble_apsp(g);
  ASSERT_EQ(r.status, congest::RunStatus::kCompleted);
  const DistanceMatrix before = r.dist;
  const RepairReport report = repair_apsp(g, r);
  EXPECT_EQ(report.rows_repaired, 0u);
  EXPECT_TRUE(report.suspect_sources.empty());
  EXPECT_EQ(report.repair_rounds, 0u);
  EXPECT_TRUE(report.bound_ok);
  EXPECT_TRUE(report.all_certified());
  EXPECT_TRUE(r.dist == before);  // nothing rewritten
  EXPECT_EQ(report.coverage_before.count(
                static_cast<std::uint64_t>(RowCoverage::kComplete)),
            g.num_nodes());
}

TEST(Repair, RejectsMismatchedTables) {
  const Graph g = gen::path(4);
  ApspResult r = run_pebble_apsp(gen::path(3));
  EXPECT_THROW(repair_apsp(g, r), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Synthetic degraded tables: the repair logic without a degraded engine run

// A hand-built "harvest": full pre-crash oracle tables (stale after the
// crash), with the given nodes marked dead.
ApspResult stale_harvest(const Graph& g, std::vector<NodeId> dead) {
  const NodeId n = g.num_nodes();
  ApspResult r;
  r.dist = seq::apsp(g);
  r.next_hop = Table<NodeId>(n, n, kNoNextHop);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId s = 0; s < n; ++s) {
      if (v == s) continue;
      for (const NodeId w : g.neighbors(v)) {
        if (r.dist.at(w, s) == r.dist.at(v, s) - 1) {
          r.next_hop[v][s] = w;
          break;
        }
      }
    }
  }
  r.status = congest::RunStatus::kDegraded;
  r.survived.assign(n, 1);
  for (const NodeId v : dead) r.survived[v] = 0;
  return r;
}

TEST(Repair, StaleRelayRowsAreDetectedAndRecomputed) {
  // Ring of 6, node 1 dead. Every row is coverage-complete, but exactly the
  // rows of the dead node's ring neighbors (0 and 2) are stale: their
  // pre-crash distances used the cut edge, and their minimum stale entries
  // have no surviving witness. The pre-repair certificate must flag exactly
  // those two, the other survivor rows are already exact on the cut ring.
  const Graph g = gen::cycle(6);
  ApspResult r = stale_harvest(g, {1});
  const RepairReport report = repair_apsp(g, r);
  EXPECT_EQ(report.suspect_sources, (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(report.rows_repaired, 2u);
  EXPECT_GT(report.repair_rounds, 0u);
  EXPECT_TRUE(report.bound_ok);
  EXPECT_TRUE(report.all_certified());
  check_repaired_exact(g, r, report);
  // Before: six coverage-complete (two of them stale) rows; after: the dead
  // source's zeroed all-infinite row reads "lost" (nothing reaches it), the
  // five survivor rows stay complete — and now exact.
  EXPECT_EQ(report.coverage_before.count(
                static_cast<std::uint64_t>(RowCoverage::kComplete)),
            6u);
  EXPECT_EQ(report.coverage_after.count(
                static_cast<std::uint64_t>(RowCoverage::kComplete)),
            5u);
  EXPECT_EQ(report.coverage_after.count(
                static_cast<std::uint64_t>(RowCoverage::kLost)),
            1u);
}

TEST(Repair, RepairTwiceIsANoOp) {
  // Idempotency: after a certified repair, a second detection-mode repair
  // finds no suspects and rewrites nothing — exact-but-partial rows (the
  // all-infinite entries across the cut) pass the certificate instead of
  // being blanket-suspected again.
  const Graph g = gen::cycle(6);
  ApspResult r = stale_harvest(g, {1});
  const RepairReport first = repair_apsp(g, r);
  ASSERT_TRUE(first.all_certified());
  ASSERT_GT(first.rows_repaired, 0u);
  const DistanceMatrix settled = r.dist;

  const RepairReport second = repair_apsp(g, r);
  EXPECT_TRUE(second.all_certified());
  EXPECT_TRUE(second.suspect_sources.empty());
  EXPECT_EQ(second.rows_repaired, 0u);
  EXPECT_EQ(second.repair_rounds, 0u);
  EXPECT_TRUE(second.bound_ok);
  EXPECT_TRUE(r.dist == settled);
}

TEST(Repair, ExternalSuspectsSkipDetection) {
  // The caller (the service's dirty-region analyzer) names the suspects:
  // repair recomputes exactly those rows, certifies only them when asked,
  // and the result is oracle-exact for the named rows.
  const Graph g = gen::cycle(6);
  ApspResult r = stale_harvest(g, {1});
  RepairOptions opts;
  opts.suspects = std::vector<NodeId>{0, 2};
  opts.certify_all = false;
  const RepairReport report = repair_apsp(g, r, opts);
  EXPECT_EQ(report.suspect_sources, (std::vector<NodeId>{0, 2}));
  EXPECT_EQ(report.rows_repaired, 2u);
  EXPECT_TRUE(report.all_certified());
  EXPECT_TRUE(report.bound_ok);
  check_repaired_exact(g, r, report);
}

TEST(Repair, EmptyExternalSuspectSetIsZeroCost) {
  // A clean epoch: the analyzer found nothing dirty. With certify_all off
  // the repair returns immediately — no engine runs at all.
  const Graph g = gen::grid(3, 4);
  ApspResult r = run_pebble_apsp(g);
  const DistanceMatrix before = r.dist;
  RepairOptions opts;
  opts.suspects.emplace();  // engaged and empty
  opts.certify_all = false;
  const RepairReport report = repair_apsp(g, r, opts);
  EXPECT_EQ(report.rows_repaired, 0u);
  EXPECT_EQ(report.repair_rounds, 0u);
  EXPECT_EQ(report.stats.rounds, 0u);
  EXPECT_EQ(report.stats.messages, 0u);
  EXPECT_EQ(report.repairs_attempted, 1u);
  EXPECT_TRUE(report.all_certified());
  EXPECT_TRUE(r.dist == before);
  EXPECT_EQ(report.coverage_after.count(
                static_cast<std::uint64_t>(RowCoverage::kComplete)),
            g.num_nodes());
}

TEST(Repair, RejectsBadExternalSuspects) {
  const Graph g = gen::path(4);
  ApspResult r = stale_harvest(g, {1});
  RepairOptions opts;
  opts.suspects = std::vector<NodeId>{7};  // out of range
  EXPECT_THROW(repair_apsp(g, r, opts), std::invalid_argument);
  opts.suspects = std::vector<NodeId>{1};  // dead source
  EXPECT_THROW(repair_apsp(g, r, opts), std::invalid_argument);
}

TEST(Repair, DisconnectedSurvivorComponentsRepairIndependently) {
  // Path 0-1-2-3, node 1 dead: survivors split into {0} and {2, 3}. The
  // singleton component repairs locally (no protocol run); cross-component
  // entries become infinite; the dead source's row zeroes to all-infinite.
  const Graph g = gen::path(4);
  ApspResult r = stale_harvest(g, {1});
  const RepairReport report = repair_apsp(g, r);
  EXPECT_TRUE(report.all_certified());
  EXPECT_TRUE(report.bound_ok);
  check_repaired_exact(g, r, report);
  EXPECT_EQ(r.dist.at(0, 2), kInfDist);
  EXPECT_EQ(r.dist.at(2, 0), kInfDist);
  EXPECT_EQ(r.dist.at(2, 1), kInfDist);  // dead source
  EXPECT_EQ(r.dist.at(3, 2), 1u);        // intact within the component
  EXPECT_EQ(r.next_hop[3][2], 2u);
}

TEST(Repair, AllNodesCrashedDegeneratesGracefully) {
  const Graph g = gen::path(3);
  ApspResult r = stale_harvest(g, {0, 1, 2});
  const RepairReport report = repair_apsp(g, r);
  EXPECT_EQ(report.rows_repaired, 0u);
  EXPECT_EQ(report.repair_rounds, 0u);
  EXPECT_TRUE(report.all_certified());  // vacuously: nobody left to judge
}

TEST(Repair, DebugStringNamesTheHeadlineNumbers) {
  const Graph g = gen::cycle(6);
  ApspResult r = stale_harvest(g, {1});
  const RepairReport report = repair_apsp(g, r);
  const std::string s = report.debug_string();
  EXPECT_NE(s.find("rows=2"), std::string::npos) << s;
  EXPECT_NE(s.find("certified=6/6"), std::string::npos) << s;
  EXPECT_EQ(s.find("BOUND-EXCEEDED"), std::string::npos) << s;
}

// ---------------------------------------------------------------------------
// End-to-end: repair of genuinely degraded engine runs

TEST(Repair, RepairsCrashDegradedWrappedRun) {
  const Graph g = gen::grid(3, 4);
  const NodeId n = g.num_nodes();

  core::ApspOptions base;
  base.engine.max_rounds = 500000;
  congest::apply_reliable(base.engine);
  const auto clean = run_pebble_apsp(g, base);
  ASSERT_EQ(clean.status, congest::RunStatus::kCompleted);

  core::ApspOptions opt;
  opt.engine.max_rounds = 500000;
  opt.engine.faults = congest::FaultPlan{};
  opt.engine.faults->crashes.push_back({n / 2, clean.stats.rounds / 2});
  congest::apply_reliable(opt.engine);
  ApspResult r = run_pebble_apsp(g, opt);
  ASSERT_EQ(r.status, congest::RunStatus::kDegraded);

  RepairOptions ropt;
  ropt.engine = opt.engine;  // faults and wrapper are stripped internally
  const RepairReport report = repair_apsp(g, r, ropt);
  EXPECT_TRUE(report.all_certified()) << report.debug_string();
  EXPECT_TRUE(report.bound_ok) << report.debug_string();
  EXPECT_LE(report.repair_rounds, report.round_bound);
  check_repaired_exact(g, r, report);
  // The repair left the run's history intact.
  EXPECT_EQ(r.status, congest::RunStatus::kDegraded);
  EXPECT_EQ(r.survived[n / 2], 0u);
  // coverage was refreshed to the repaired picture.
  const auto recount = classify_coverage(
      r.survived, [&] {
        std::vector<NodeId> all(n);
        for (NodeId v = 0; v < n; ++v) all[v] = v;
        return all;
      }(),
      [&](NodeId v, NodeId s) { return r.dist.at(v, s); });
  EXPECT_EQ(recount, r.coverage);
}

// ---------------------------------------------------------------------------
// The acceptance sweep: 50 seeded chaos campaigns. Crashes plus message
// drops plus payload corruption (corrupt_prob >= 0.2); every campaign must
// end in an all-certified repair within the O(|S_missing| + D) round bound.

struct Campaign {
  Graph graph;
  congest::FaultPlan plan;
};

Campaign make_campaign(std::uint64_t i) {
  Campaign c;
  switch (i % 4) {
    case 0: c.graph = gen::path(static_cast<NodeId>(8 + i % 5)); break;
    case 1: c.graph = gen::grid(3, static_cast<NodeId>(3 + i % 3)); break;
    case 2: c.graph = gen::cycle(static_cast<NodeId>(9 + i % 6)); break;
    default:
      c.graph =
          gen::random_connected(static_cast<NodeId>(12 + i % 6), 14, 100 + i);
      break;
  }
  const NodeId n = c.graph.num_nodes();
  c.plan.seed = 5000 + i;
  c.plan.drop_prob = 0.1;
  c.plan.duplicate_prob = 0.05;
  c.plan.corrupt_prob = 0.2 + 0.01 * static_cast<double>(i % 10);
  c.plan.crashes.push_back(
      {static_cast<NodeId>((3 + 7 * i) % n), 40 + 3 * (i % 20)});
  if (i % 3 == 0) {
    const NodeId second = static_cast<NodeId>((5 + 11 * i) % n);
    if (second != c.plan.crashes[0].v) {
      c.plan.crashes.push_back({second, 60 + 2 * (i % 25)});
    }
  }
  return c;
}

TEST(Repair, FiftyChaosCampaignsAllRepairCertifiedWithinBound) {
  for (std::uint64_t i = 0; i < 50; ++i) {
    const Campaign c = make_campaign(i);
    core::ApspOptions opt;
    opt.engine.max_rounds = 1000000;
    opt.engine.faults = c.plan;
    congest::apply_reliable(opt.engine);
    ApspResult r = run_pebble_apsp(c.graph, opt);
    ASSERT_EQ(r.status, congest::RunStatus::kDegraded)
        << "campaign " << i << " " << c.graph.summary();
    EXPECT_GT(r.stats.messages_corrupted, 0u) << "campaign " << i;

    const RepairReport report = repair_apsp(c.graph, r);
    EXPECT_TRUE(report.all_certified())
        << "campaign " << i << " " << c.graph.summary() << ": "
        << report.debug_string();
    EXPECT_TRUE(report.bound_ok)
        << "campaign " << i << ": " << report.debug_string();
    EXPECT_LE(report.repair_rounds, report.round_bound);
    check_repaired_exact(c.graph, r, report);
  }
}

// A table exact on g: distances from the oracle, next hops to the first
// neighbor one step closer.
ApspResult exact_table(const Graph& g) {
  const NodeId n = g.num_nodes();
  ApspResult r;
  r.dist = seq::apsp(g);
  r.next_hop = Table<NodeId>(n, n, kNoNextHop);
  r.survived.assign(n, 1);
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId s = 0; s < n; ++s) {
      for (const NodeId u : g.neighbors(v)) {
        if (r.dist.at(u, s) + 1 == r.dist.at(v, s)) {
          r.next_hop.set(v, s, u);
          break;
        }
      }
    }
  }
  return r;
}

// Removes edge {0, 1} from a 6x6 grid and cell-repairs every row, naming
// every row for certification. Row 30 (the corner below node 0) does not
// change: its judges are the two endpoints 0 and 1, and they read their own
// and their neighbors' entries only.
CellRepairReport repair_grid_cut(ApspResult& table, const Graph& after,
                                 const Graph& before,
                                 std::uint64_t max_rounds = 0) {
  const std::vector<std::uint8_t> active(after.num_nodes(), 1);
  const BatchDiff diff =
      diff_batch(before.edges(), active, DynamicGraph(after));
  std::vector<NodeId> rows(after.num_nodes());
  for (NodeId s = 0; s < after.num_nodes(); ++s) rows[s] = s;
  CellRepairOptions opts;
  opts.engine.max_rounds = max_rounds;
  opts.batch = &diff;
  opts.rows = rows;
  opts.certify = rows;
  return repair_cells(after, table, opts);
}

TEST(CellRepair, CertificateScopeIsTheTouchedNeighborhood) {
  const Graph before = gen::grid(6, 6);
  std::vector<Edge> kept;
  for (const Edge& e : before.edges()) {
    if (!(e.u == 0 && e.v == 1)) kept.push_back(e);
  }
  const Graph after(before.num_nodes(), kept);
  const DistanceMatrix truth = seq::apsp(after);

  // Uncorrupted: the cut heals exactly and certifies.
  ApspResult clean = exact_table(before);
  const CellRepairReport ok = repair_grid_cut(clean, after, before);
  EXPECT_TRUE(ok.all_certified());
  EXPECT_TRUE(ok.bound_ok);
  EXPECT_GT(ok.cells_changed, 0u);
  EXPECT_EQ(clean.dist, truth);

  // Inside the checked neighborhood: node 6 neighbors judge 0 in row 30.
  ApspResult inside = exact_table(before);
  inside.dist.set(6, 30, inside.dist.at(6, 30) + 4);
  EXPECT_FALSE(repair_grid_cut(inside, after, before).all_certified());

  // Outside it (node 35, far from the cut): the cell certificate passes —
  // the documented scope — and a detection pass over all rows, which is
  // what scrub() runs, finds and heals the row.
  ApspResult outside = exact_table(before);
  outside.dist.set(35, 30, outside.dist.at(35, 30) + 4);
  EXPECT_TRUE(repair_grid_cut(outside, after, before).all_certified());
  EXPECT_NE(outside.dist, truth);
  const RepairReport scrub = repair_apsp(after, outside);
  EXPECT_EQ(scrub.suspect_sources, std::vector<NodeId>{30});
  EXPECT_TRUE(scrub.all_certified());
  EXPECT_EQ(outside.dist, truth);
}

TEST(CellRepair, CertificateOutOfRoundsLeavesTheRowsUncertified) {
  const Graph before = gen::grid(6, 6);
  std::vector<Edge> kept;
  for (const Edge& e : before.edges()) {
    if (!(e.u == 0 && e.v == 1)) kept.push_back(e);
  }
  const Graph after(before.num_nodes(), kept);
  ApspResult full = exact_table(before);
  const CellRepairReport ok = repair_grid_cut(full, after, before);
  ASSERT_TRUE(ok.all_certified());
  const std::uint64_t phases = ok.repair_rounds - ok.barrier_rounds;
  ASSERT_GT(ok.certificate.stats.rounds, phases);

  // A budget both phases fit in but the certificate does not: the repair
  // returns (the phases' writes are in the table) and certifies nothing.
  ApspResult tight = exact_table(before);
  const CellRepairReport cut = repair_grid_cut(tight, after, before, phases);
  EXPECT_FALSE(cut.all_certified());
  EXPECT_EQ(cut.certificate.rows_certified, 0u);
  EXPECT_EQ(cut.certificate.certified.size(), cut.certified_rows.size());
  EXPECT_EQ(cut.changed_rows, ok.changed_rows);
  EXPECT_EQ(tight.dist, full.dist);

  // A budget the phases overrun throws before anything is written.
  ApspResult untouched = exact_table(before);
  EXPECT_THROW(repair_grid_cut(untouched, after, before, 1),
               congest::RoundLimitError);
  EXPECT_EQ(untouched.dist, exact_table(before).dist);
}

TEST(CellRepair, BitRottedZeroAtAWorkedNodeLosesItsNextHop) {
  // Node 0 loses edge {0, 1}, so it works in this repair. Its entries for
  // rows 30 and 31 do not change with the cut, but bit-rot left a zero
  // (0 != 30) and an infinity in them with their next hops still set. The
  // harvest writes every cell it rules on, and a zero or infinite entry has
  // no next hop, so both hops are cleared and both cells are reported.
  const Graph before = gen::grid(6, 6);
  std::vector<Edge> kept;
  for (const Edge& e : before.edges()) {
    if (!(e.u == 0 && e.v == 1)) kept.push_back(e);
  }
  const Graph after(before.num_nodes(), kept);
  ApspResult table = exact_table(before);
  ASSERT_NE(table.next_hop.at(0, 30), kNoNextHop);
  ASSERT_NE(table.next_hop.at(0, 31), kNoNextHop);
  table.dist.set(0, 30, 0);
  table.dist.set(0, 31, kInfDist);
  const CellRepairReport rep = repair_grid_cut(table, after, before);
  EXPECT_EQ(table.dist.at(0, 30), 0u);
  EXPECT_EQ(table.dist.at(0, 31), kInfDist);
  EXPECT_EQ(table.next_hop.at(0, 30), kNoNextHop);
  EXPECT_EQ(table.next_hop.at(0, 31), kNoNextHop);
  const auto has = [&](NodeId v, NodeId s) {
    return std::ranges::find(rep.changed_cells, std::pair{v, s}) !=
           rep.changed_cells.end();
  };
  EXPECT_TRUE(has(0, 30));
  EXPECT_TRUE(has(0, 31));
  EXPECT_TRUE(std::ranges::binary_search(rep.changed_rows, NodeId{30}));
  EXPECT_TRUE(std::ranges::binary_search(rep.changed_rows, NodeId{31}));
  // Node 0 judges both rows (its adjacency changed) and rejects them.
  EXPECT_FALSE(rep.all_certified());
}

}  // namespace
}  // namespace dapsp::core
