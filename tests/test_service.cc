// Long-running DAPSP service (core/service.h) and its churn substrate
// (graph/delta.h): DynamicGraph invariants, seeded DeltaPlan determinism and
// checkpoint-resume, dirty-region analyzer soundness against the sequential
// oracle, per-epoch oracle-exact serving, escalation and graceful
// degradation under a tight watchdog, bit-rot + scrub, checkpoint/restore
// round-trips, and thread-count invariance.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "core/service.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "seq/apsp.h"

namespace dapsp::core {
namespace {

// DynamicGraph over `universe` nodes (all active) with the given edges.
DynamicGraph make_dynamic(NodeId universe, const std::vector<Edge>& edges) {
  DynamicGraph dg(universe);
  for (const Edge& e : edges) {
    dg.apply({DeltaKind::kEdgeInsert, e.u, e.v});
  }
  return dg;
}

// The oracle distance table for the current active subgraph, in the
// service's (node, source) convention (symmetric, so seq::apsp works as-is).
DistanceMatrix oracle_table(const DynamicGraph& dg) {
  return seq::apsp(dg.snapshot());
}

// ---------------------------------------------------------------- DynamicGraph

TEST(DynamicGraph, ValidatesEveryDelta) {
  DynamicGraph dg(4);
  EXPECT_THROW(DynamicGraph(0), std::invalid_argument);
  EXPECT_THROW(dg.apply({DeltaKind::kEdgeInsert, 0, 0}), std::invalid_argument);
  EXPECT_THROW(dg.apply({DeltaKind::kEdgeInsert, 0, 9}), std::invalid_argument);
  EXPECT_THROW(dg.apply({DeltaKind::kEdgeRemove, 0, 1}), std::invalid_argument);
  EXPECT_THROW(dg.apply({DeltaKind::kNodeJoin, 2, 2}), std::invalid_argument);
  dg.apply({DeltaKind::kEdgeInsert, 0, 1});
  EXPECT_THROW(dg.apply({DeltaKind::kEdgeInsert, 1, 0}), std::invalid_argument);
  dg.apply({DeltaKind::kNodeLeave, 1, 1});
  EXPECT_THROW(dg.apply({DeltaKind::kNodeLeave, 1, 1}), std::invalid_argument);
  EXPECT_THROW(dg.apply({DeltaKind::kEdgeInsert, 1, 2}), std::invalid_argument);
  EXPECT_FALSE(dg.can_apply({DeltaKind::kEdgeInsert, 1, 2}));
  EXPECT_TRUE(dg.can_apply({DeltaKind::kNodeJoin, 1, 1}));
}

TEST(DynamicGraph, LeaveDropsIncidentEdgesAndRejoinIsEdgeless) {
  DynamicGraph dg = make_dynamic(4, {{0, 1}, {1, 2}, {2, 3}});
  EXPECT_EQ(dg.num_edges(), 3u);
  dg.apply({DeltaKind::kNodeLeave, 1, 1});
  EXPECT_EQ(dg.num_edges(), 1u);  // only {2, 3} survives
  EXPECT_FALSE(dg.has_edge(0, 1));
  EXPECT_EQ(dg.degree(0), 0u);
  EXPECT_EQ(dg.num_active(), 3u);
  dg.apply({DeltaKind::kNodeJoin, 1, 1});
  EXPECT_TRUE(dg.active(1));
  EXPECT_EQ(dg.degree(1), 0u);  // joins come back edgeless
  // The CSR snapshot keeps the universe index-stable: node 1 is present.
  const Graph snap = dg.snapshot();
  EXPECT_EQ(snap.num_nodes(), 4u);
  EXPECT_EQ(snap.num_edges(), 1u);
}

TEST(DynamicGraph, ConnectivityProbes) {
  // Barbell: two triangles joined by the bridge {2, 3}.
  DynamicGraph dg = make_dynamic(
      6, {{0, 1}, {0, 2}, {1, 2}, {3, 4}, {3, 5}, {4, 5}, {2, 3}});
  EXPECT_TRUE(dg.connected_active());
  EXPECT_TRUE(dg.edge_is_bridge(2, 3));
  EXPECT_FALSE(dg.edge_is_bridge(0, 1));
  EXPECT_TRUE(dg.node_is_cut(2));
  EXPECT_FALSE(dg.node_is_cut(0));
  dg.apply({DeltaKind::kEdgeRemove, 2, 3});
  EXPECT_FALSE(dg.connected_active());
  EXPECT_THROW(dg.edge_is_bridge(2, 3), std::invalid_argument);
}

// -------------------------------------------------------------------- DeltaPlan

TEST(DeltaPlan, SameSeedProducesTheSameStream) {
  const Graph g = gen::random_connected(12, 10, 3);
  DeltaPlanConfig pc;
  pc.seed = 11;
  pc.crash_prob = 0.2;
  pc.corrupt_prob = 0.2;
  DeltaPlan a(pc), b(pc);
  DynamicGraph ga(g), gb(g);
  for (int i = 0; i < 50; ++i) {
    const ChurnBatch ba = a.next(ga), bb = b.next(gb);
    ASSERT_EQ(ba.deltas, bb.deltas) << "batch " << i;
    ASSERT_EQ(ba.crashes, bb.crashes);
    ASSERT_EQ(ba.corrupt_flips, bb.corrupt_flips);
    ASSERT_EQ(ba.corrupt_seed, bb.corrupt_seed);
    for (const GraphDelta& d : ba.deltas) ga.apply(d);
    for (const NodeId v : ba.crashes) ga.apply({DeltaKind::kNodeLeave, v, v});
    for (const GraphDelta& d : bb.deltas) gb.apply(d);
    for (const NodeId v : bb.crashes) gb.apply({DeltaKind::kNodeLeave, v, v});
  }
}

TEST(DeltaPlan, ResumeContinuesBitIdentically) {
  const Graph g = gen::random_connected(12, 10, 3);
  DeltaPlanConfig pc;
  pc.seed = 7;
  DeltaPlan full(pc);
  DynamicGraph dg(g);
  for (int i = 0; i < 10; ++i) {
    for (const GraphDelta& d : full.next(dg).deltas) dg.apply(d);
  }
  // Capture the two state scalars; a resumed plan must continue the stream.
  DeltaPlan resumed(pc);
  resumed.resume(full.rng_state(), full.batches_generated());
  DynamicGraph dg2 = dg;
  for (int i = 0; i < 10; ++i) {
    const ChurnBatch want = full.next(dg);
    const ChurnBatch got = resumed.next(dg2);
    ASSERT_EQ(want.deltas, got.deltas) << "batch " << i;
    for (const GraphDelta& d : want.deltas) dg.apply(d);
    for (const GraphDelta& d : got.deltas) dg2.apply(d);
  }
}

TEST(DeltaPlan, KeepsConnectivityAndMinActive) {
  const Graph g = gen::random_connected(14, 12, 9);
  DeltaPlanConfig pc;
  pc.seed = 5;
  pc.min_active = 6;
  pc.crash_prob = 0.3;
  DeltaPlan plan(pc);
  DynamicGraph dg(g);
  for (int i = 0; i < 200; ++i) {
    const ChurnBatch b = plan.next(dg);
    for (const GraphDelta& d : b.deltas) dg.apply(d);  // throws if invalid
    for (const NodeId v : b.crashes) dg.apply({DeltaKind::kNodeLeave, v, v});
    ASSERT_TRUE(dg.connected_active()) << "batch " << i;
    ASSERT_GE(dg.num_active(), 6u);
  }
}

// --------------------------------------------------------- analyze_dirty_rows

TEST(Analyzer, InsertShortcutMarksExactlyTheChangedRows) {
  // Path 0-1-2-3-4, insert {0, 2}: rows 0, 2, 3, 4 change (their distance
  // to 0 or 2 drops); row 1 sees |D_1(0) - D_1(2)| = 0 and stays clean.
  DynamicGraph dg = make_dynamic(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  const DistanceMatrix table = oracle_table(dg);
  const auto mask = dg.active_mask();
  const auto edges = dg.sorted_edges();
  dg.apply({DeltaKind::kEdgeInsert, 0, 2});
  const DirtyReport dr = analyze_dirty_rows(table, mask, edges, dg);
  EXPECT_FALSE(dr.needs_full);
  EXPECT_EQ(dr.dirty, (std::vector<NodeId>{0, 2, 3, 4}));
}

TEST(Analyzer, RemovalSparesRowsWithAnAlternativeParent) {
  // Cycle of 6, remove {0, 1}. Rows 3 and 4 keep all distances (the other
  // arc already realizes them); rows 0, 1, 2, 5 genuinely change.
  DynamicGraph dg =
      make_dynamic(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {0, 5}});
  const DistanceMatrix table = oracle_table(dg);
  const auto mask = dg.active_mask();
  const auto edges = dg.sorted_edges();
  dg.apply({DeltaKind::kEdgeRemove, 0, 1});
  const DirtyReport dr = analyze_dirty_rows(table, mask, edges, dg);
  EXPECT_FALSE(dr.needs_full);
  EXPECT_EQ(dr.dirty, (std::vector<NodeId>{0, 1, 2, 5}));
}

TEST(Analyzer, LeaveOfALeafIsFreeAndACutNodeDirtiesBothSides) {
  {
    DynamicGraph dg = make_dynamic(4, {{0, 1}, {1, 2}, {2, 3}});
    const DistanceMatrix table = oracle_table(dg);
    const auto mask = dg.active_mask();
    const auto edges = dg.sorted_edges();
    dg.apply({DeltaKind::kNodeLeave, 3, 3});
    const DirtyReport dr = analyze_dirty_rows(table, mask, edges, dg);
    EXPECT_TRUE(dr.dirty.empty());  // no surviving row changes
    EXPECT_EQ(dr.left, (std::vector<NodeId>{3}));
  }
  {
    DynamicGraph dg = make_dynamic(4, {{0, 1}, {1, 2}, {2, 3}});
    const DistanceMatrix table = oracle_table(dg);
    const auto mask = dg.active_mask();
    const auto edges = dg.sorted_edges();
    dg.apply({DeltaKind::kNodeLeave, 1, 1});  // disconnects 0 from {2, 3}
    const DirtyReport dr = analyze_dirty_rows(table, mask, edges, dg);
    EXPECT_EQ(dr.dirty, (std::vector<NodeId>{0, 2, 3}));
  }
}

TEST(Analyzer, JoinFrontierSpreadAndDirectPatch) {
  // Path 0-1-2-3-4 with node 5 inactive; join 5 attached to 0 and 4.
  DynamicGraph dg = make_dynamic(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}});
  dg.apply({DeltaKind::kNodeLeave, 5, 5});
  const DistanceMatrix table = oracle_table(dg);
  const auto mask = dg.active_mask();
  const auto edges = dg.sorted_edges();
  dg.apply({DeltaKind::kNodeJoin, 5, 5});
  dg.apply({DeltaKind::kEdgeInsert, 5, 0});
  dg.apply({DeltaKind::kEdgeInsert, 5, 4});
  const DirtyReport dr = analyze_dirty_rows(table, mask, edges, dg);
  EXPECT_FALSE(dr.needs_full);
  EXPECT_EQ(dr.joined, (std::vector<NodeId>{5}));
  // Only the path's ends see the shortcut (frontier spread 4 > 2), plus row
  // 5 itself. Rows 1-3 have frontier spreads <= 2, stay clean, and get the
  // direct patch: D_1(5) = 1 + min(1, 3) = 2 matches the oracle.
  EXPECT_EQ(dr.dirty, (std::vector<NodeId>{0, 4, 5}));
  const DistanceMatrix after = oracle_table(dg);
  EXPECT_EQ(after.at(5, 1), 2u);
}

TEST(Analyzer, AdjacentJoinsRequestFullRecompute) {
  DynamicGraph dg = make_dynamic(6, {{0, 1}, {1, 2}, {2, 3}});
  dg.apply({DeltaKind::kNodeLeave, 4, 4});
  dg.apply({DeltaKind::kNodeLeave, 5, 5});
  const DistanceMatrix table = oracle_table(dg);
  const auto mask = dg.active_mask();
  const auto edges = dg.sorted_edges();
  dg.apply({DeltaKind::kNodeJoin, 4, 4});
  dg.apply({DeltaKind::kNodeJoin, 5, 5});
  dg.apply({DeltaKind::kEdgeInsert, 4, 0});
  dg.apply({DeltaKind::kEdgeInsert, 5, 4});
  const DirtyReport dr = analyze_dirty_rows(table, mask, edges, dg);
  EXPECT_TRUE(dr.needs_full);
}

// Randomized soundness: rows the analyzer calls clean must be truly
// unchanged (and joined-node entries of clean rows must match the direct
// patch), batch after batch, against the sequential oracle.
TEST(Analyzer, CleanRowsAreTrulyUnchangedUnderRandomChurn) {
  const Graph g = gen::random_connected(14, 12, 21);
  DynamicGraph dg(g);
  DistanceMatrix table = oracle_table(dg);
  DeltaPlanConfig pc;
  pc.seed = 31;
  pc.min_active = 5;
  pc.crash_prob = 0.15;
  DeltaPlan plan(pc);
  const NodeId n = dg.universe();
  for (int i = 0; i < 120; ++i) {
    const auto mask = dg.active_mask();
    const auto edges = dg.sorted_edges();
    const ChurnBatch b = plan.next(dg);
    for (const GraphDelta& d : b.deltas) dg.apply(d);
    for (const NodeId v : b.crashes) dg.apply({DeltaKind::kNodeLeave, v, v});
    const DirtyReport dr = analyze_dirty_rows(table, mask, edges, dg);
    const DistanceMatrix truth = oracle_table(dg);
    if (!dr.needs_full) {
      std::vector<std::uint8_t> dirty(n, 0), joined(n, 0);
      for (const NodeId s : dr.dirty) dirty[s] = 1;
      for (const NodeId w : dr.joined) joined[w] = 1;
      for (NodeId s = 0; s < n; ++s) {
        if (!dg.active(s) || dirty[s]) continue;
        for (NodeId v = 0; v < n; ++v) {
          if (!dg.active(v)) continue;
          if (joined[v]) {
            // Clean row + joined node: the direct patch must be exact.
            std::uint32_t mn = kInfDist;
            for (const NodeId x : dg.neighbors(v)) {
              mn = std::min(mn, table.at(x, s));
            }
            const std::uint32_t want = mn == kInfDist ? kInfDist : mn + 1;
            ASSERT_EQ(truth.at(v, s), want)
                << "batch " << i << " patch (" << v << ", " << s << ")";
          } else {
            ASSERT_EQ(truth.at(v, s), table.at(v, s))
                << "batch " << i << " clean row " << s << " node " << v;
          }
        }
      }
    }
    table = truth;  // simulate a perfect repair for the next round
  }
}

// ------------------------------------------------------------------- service

// Working and served tables both match the oracle on the current active
// subgraph, and no row is stale.
void expect_oracle_exact(const DapspService& svc) {
  const DynamicGraph& dg = svc.dynamic_graph();
  const DistanceMatrix truth = oracle_table(dg);
  for (NodeId s = 0; s < dg.universe(); ++s) {
    if (!dg.active(s)) continue;
    ASSERT_NE(svc.row_status(s), RowStatus::kStale) << "row " << s;
    for (NodeId v = 0; v < dg.universe(); ++v) {
      if (!dg.active(v)) continue;
      ASSERT_EQ(svc.tables().dist.at(v, s), truth.at(v, s))
          << "working (" << v << ", " << s << ")";
      const ServiceQuery q = svc.query(v, s);
      ASSERT_TRUE(q.active);
      ASSERT_EQ(q.dist, truth.at(v, s)) << "served (" << v << ", " << s << ")";
    }
  }
  EXPECT_TRUE(svc.fully_certified());
}

TEST(Service, ServesOracleExactTablesThroughEveryEpoch) {
  const Graph g = gen::random_connected(14, 12, 5);
  DapspService svc(g, {});
  expect_oracle_exact(svc);
  DeltaPlanConfig pc;
  pc.seed = 13;
  pc.min_active = 5;
  pc.crash_prob = 0.15;  // crashes yes, bit-rot no (scrub tests cover that)
  DeltaPlan plan(pc);
  for (int i = 0; i < 60; ++i) {
    const ChurnBatch b = plan.next(svc.dynamic_graph());
    const EpochReport ep = svc.step(b);
    ASSERT_TRUE(ep.certified) << ep.debug_string();
    ASSERT_TRUE(ep.bound_ok) << ep.debug_string();
    expect_oracle_exact(svc);
  }
  EXPECT_EQ(svc.stats().epochs, 60u);
  EXPECT_EQ(svc.stats().epochs_failed, 0u);
  EXPECT_GT(svc.stats().repairs_attempted, 0u);
}

// Every served next hop of an active pair at finite distance d > 0 is an
// active neighbor at distance d - 1 (path consistency), in the working and
// the served tables.
void expect_hops_consistent(const DapspService& svc) {
  const DynamicGraph& dg = svc.dynamic_graph();
  const DistanceMatrix truth = oracle_table(dg);
  for (NodeId s = 0; s < dg.universe(); ++s) {
    if (!dg.active(s)) continue;
    for (NodeId v = 0; v < dg.universe(); ++v) {
      if (!dg.active(v) || v == s || truth.at(v, s) == kInfDist) continue;
      const NodeId hop = svc.query(v, s).next_hop;
      ASSERT_EQ(hop, svc.tables().next_hop.at(v, s));
      ASSERT_NE(hop, kNoNextHop) << "(" << v << ", " << s << ")";
      ASSERT_TRUE(dg.active(hop) && dg.has_edge(v, hop))
          << "hop " << hop << " of (" << v << ", " << s << ")";
      ASSERT_EQ(truth.at(hop, s) + 1, truth.at(v, s))
          << "hop " << hop << " of (" << v << ", " << s << ")";
    }
  }
}

// Two nodes that joined this epoch and are adjacent: the one batch shape the
// analyzer hands to a full recompute (needs_full).
bool adjacent_joins(const std::vector<std::uint8_t>& before,
                    const DynamicGraph& after) {
  for (NodeId v = 0; v < after.universe(); ++v) {
    if (!after.active(v) || before[v] != 0) continue;
    for (const NodeId u : after.neighbors(v)) {
      if (before[u] == 0) return true;
    }
  }
  return false;
}

TEST(CellRepair, SeededDifferentialAgainstTheOracle) {
  // 40 graphs (n in {32, 64, 128}) x 10 epochs of the default plan, with and
  // without crashes. The cell rung heals every epoch on its first attempt
  // within its round bound, and every cell and next hop is exact.
  constexpr NodeId kSizes[] = {32, 64, 128};
  std::uint32_t healed = 0, needs_full = 0;
  for (std::uint64_t cfg = 0; cfg < 40; ++cfg) {
    const NodeId n = kSizes[cfg % 3];
    DapspService svc(gen::random_connected(n, n / 2, 500 + cfg), {});
    DeltaPlanConfig pc;
    pc.seed = 900 + cfg;
    pc.crash_prob = cfg % 2 == 0 ? 0.0 : 0.2;
    DeltaPlan plan(pc);
    for (int i = 0; i < 10; ++i) {
      const std::vector<std::uint8_t> before =
          svc.dynamic_graph().active_mask();
      const EpochReport ep = svc.step(plan.next(svc.dynamic_graph()));
      const std::string why = "cfg " + std::to_string(cfg) + " " +
                              ep.debug_string();
      ASSERT_TRUE(ep.certified) << why;
      ASSERT_TRUE(ep.bound_ok) << why;
      ASSERT_LE(ep.attempts, 1u) << why;
      if (adjacent_joins(before, svc.dynamic_graph())) {
        ++needs_full;
      } else {
        ASSERT_FALSE(ep.escalated) << why;
        healed += ep.attempts;
      }
      expect_oracle_exact(svc);
      expect_hops_consistent(svc);
    }
  }
  EXPECT_GT(healed, 300u);
  EXPECT_LT(needs_full, 20u);
}

// The same differential at realistic n, opt-in (scripts/check.sh --scale
// runs it with --gtest_also_run_disabled_tests): universes 1024 and 2048.
TEST(CellRepair, DISABLED_DifferentialAtScale) {
  for (const NodeId n : {1024u, 2048u}) {
    DapspService svc(gen::random_connected(n, n / 2, 7 + n), {});
    DeltaPlanConfig pc;
    pc.seed = n;
    pc.crash_prob = 0.2;
    DeltaPlan plan(pc);
    for (int i = 0; i < 6; ++i) {
      const EpochReport ep = svc.step(plan.next(svc.dynamic_graph()));
      ASSERT_TRUE(ep.certified) << "n " << n << " " << ep.debug_string();
      ASSERT_TRUE(ep.bound_ok) << "n " << n << " " << ep.debug_string();
      expect_oracle_exact(svc);
      expect_hops_consistent(svc);
    }
  }
}

TEST(Service, CleanEpochRunsNoProtocol) {
  DapspService svc(gen::grid(3, 4), {});
  const std::uint64_t rounds_before = svc.stats().run.rounds;
  const EpochReport ep = svc.step({});
  EXPECT_EQ(ep.outcome, EpochOutcome::kClean);
  EXPECT_EQ(ep.attempts, 0u);
  EXPECT_TRUE(ep.certified);
  EXPECT_EQ(svc.stats().run.rounds, rounds_before);
  expect_oracle_exact(svc);
}

TEST(Service, OversizedDirtyRegionHealsCellByCell) {
  // A long chord across a path dirties nearly every row. The cell rung costs
  // per changed cell, not per row, so it heals and certifies the batch
  // without escalating to a full recompute.
  DapspService svc(gen::path(10), {});
  ChurnBatch b;
  b.deltas.push_back({DeltaKind::kEdgeInsert, 0, 9});
  const EpochReport ep = svc.step(b);
  EXPECT_EQ(ep.outcome, EpochOutcome::kRepaired);
  EXPECT_GT(ep.suspect_rows, 5u);  // more than half the rows
  EXPECT_TRUE(ep.certified);
  EXPECT_TRUE(ep.bound_ok) << ep.debug_string();
  EXPECT_EQ(ep.attempts, 1u);
  EXPECT_EQ(svc.stats().repairs_escalated, 0u);
  expect_oracle_exact(svc);
  for (NodeId s = 0; s < 10; ++s) {
    EXPECT_NE(svc.row_status(s), RowStatus::kStale);
  }
}

TEST(Service, AdjacentJoinsEscalateViaNeedsFull) {
  const Graph g = gen::path(6);
  DapspService svc(g, {});
  svc.step([] {
    ChurnBatch b;
    b.deltas.push_back({DeltaKind::kNodeLeave, 4, 4});
    b.deltas.push_back({DeltaKind::kNodeLeave, 5, 5});
    return b;
  }());
  ChurnBatch joins;
  joins.deltas.push_back({DeltaKind::kNodeJoin, 4, 4});
  joins.deltas.push_back({DeltaKind::kNodeJoin, 5, 5});
  joins.deltas.push_back({DeltaKind::kEdgeInsert, 4, 3});
  joins.deltas.push_back({DeltaKind::kEdgeInsert, 5, 4});
  const EpochReport ep = svc.step(joins);
  EXPECT_EQ(ep.outcome, EpochOutcome::kEscalated);
  EXPECT_TRUE(ep.certified);
  expect_oracle_exact(svc);
}

TEST(Service, BitRotIsInvisibleUntilTheScrubCatchesIt) {
  DapspService svc(gen::random_connected(12, 10, 7), {});
  ChurnBatch rot;
  rot.corrupt_flips = 6;
  rot.corrupt_seed = 99;
  const EpochReport ep = svc.step(rot);
  EXPECT_EQ(ep.outcome, EpochOutcome::kClean);  // analyzer can't see it
  EXPECT_GT(ep.corrupted_entries, 0u);
  EXPECT_EQ(svc.stats().corrupted_entries, ep.corrupted_entries);
  // The working table now disagrees with the oracle somewhere...
  const DistanceMatrix truth = oracle_table(svc.dynamic_graph());
  EXPECT_FALSE(svc.tables().dist == truth);
  // ...and a certificate scrub finds and heals every corrupted row.
  const EpochReport s = svc.scrub();
  EXPECT_TRUE(s.certified);
  EXPECT_GT(s.suspect_rows, 0u);
  EXPECT_EQ(svc.stats().scrubs, 1u);
  expect_oracle_exact(svc);
}

TEST(Service, BitRotOutsideTheCheckedNeighborhoodIsNeverServed) {
  // Triangle {0, 1, 2} with a tail 2-3-...-11. Removing {0, 1} dirties row 0
  // and the cell rung touches only node 1's entry, so the cell certificate
  // judges nodes 0-2. Rot one working entry (v, 0) with v >= 4 first: the
  // repair must not serve it under a certified status.
  std::vector<Edge> edges{{0, 1}, {0, 2}, {1, 2}};
  for (NodeId v = 2; v < 11; ++v) edges.push_back({v, v + 1});
  const Graph g(12, edges);
  for (std::uint64_t seed = 1; seed < 500; ++seed) {
    DapspService svc(g, {});
    ChurnBatch rot;
    rot.corrupt_flips = 1;
    rot.corrupt_seed = seed;
    svc.step(rot);
    const DistanceMatrix before = oracle_table(svc.dynamic_graph());
    NodeId rotted = kNoNextHop;
    for (NodeId v = 4; v < 12; ++v) {
      if (svc.tables().dist.at(v, 0) != before.at(v, 0)) rotted = v;
    }
    if (rotted == kNoNextHop || svc.tables().dist == before) continue;

    ChurnBatch cut;
    cut.deltas.push_back({DeltaKind::kEdgeRemove, 0, 1});
    const EpochReport ep = svc.step(cut);
    ASSERT_TRUE(ep.certified) << ep.debug_string();
    ASSERT_EQ(ep.attempts, 1u) << ep.debug_string();
    const DistanceMatrix truth = oracle_table(svc.dynamic_graph());
    EXPECT_NE(svc.tables().dist.at(rotted, 0), truth.at(rotted, 0));
    const ServiceQuery q = svc.query(rotted, 0);
    EXPECT_EQ(q.status, RowStatus::kRepaired);
    EXPECT_EQ(q.dist, truth.at(rotted, 0)) << "rotted node " << rotted;
    EXPECT_EQ(svc.query(1, 0).dist, 2u);
    // The working copy rots until the scrub heals it.
    EXPECT_TRUE(svc.scrub().certified);
    expect_oracle_exact(svc);
    return;
  }
  FAIL() << "no seed rotted a far entry of row 0";
}

TEST(Service, EdgelessJoinClearsTheEntriesItLeftBehind) {
  // A join through the public API comes back edgeless: the node must serve
  // infinity to every other node, not the entries it held before it left.
  DapspService svc(gen::path(6), {});
  ChurnBatch leave;
  leave.deltas.push_back({DeltaKind::kNodeLeave, 5, 5});
  ASSERT_TRUE(svc.step(leave).certified);
  ChurnBatch join;
  join.deltas.push_back({DeltaKind::kNodeJoin, 5, 5});
  const EpochReport ep = svc.step(join);
  ASSERT_TRUE(ep.certified) << ep.debug_string();
  for (NodeId s = 0; s < 5; ++s) {
    const ServiceQuery q = svc.query(5, s);
    EXPECT_NE(q.status, RowStatus::kStale) << "row " << s;
    EXPECT_EQ(q.dist, kInfDist) << "row " << s;
    EXPECT_EQ(q.next_hop, kNoNextHop) << "row " << s;
    EXPECT_EQ(svc.query(s, 5).dist, kInfDist) << "row 5 at " << s;
  }
  EXPECT_EQ(svc.query(5, 5).dist, 0u);
  expect_oracle_exact(svc);
  expect_hops_consistent(svc);
}

TEST(Service, ScrubEveryAutomatesTheCadence) {
  ServiceConfig cfg;
  cfg.scrub_every = 2;
  DapspService svc(gen::grid(3, 3), cfg);
  ChurnBatch rot;
  rot.corrupt_flips = 3;
  rot.corrupt_seed = 5;
  for (int i = 0; i < 4; ++i) svc.step(rot);
  EXPECT_EQ(svc.stats().scrubs, 2u);
  // The auto-scrub runs at the end of its epoch, after that epoch's bit-rot
  // lands, so epoch 4's scrub leaves the service fully healed.
  expect_oracle_exact(svc);
}

std::vector<std::uint8_t> blob_of(DapspService& svc) {
  return svc.checkpoint_blob();
}

TEST(Service, CheckpointRestoreRoundTripsBitIdentically) {
  DapspService svc(gen::random_connected(12, 10, 7), {});
  DeltaPlanConfig pc;
  pc.seed = 3;
  pc.crash_prob = 0.1;
  DeltaPlan plan(pc);
  for (int i = 0; i < 15; ++i) svc.step(plan.next(svc.dynamic_graph()));

  const std::uint64_t words[2] = {plan.rng_state(), plan.batches_generated()};
  std::ostringstream out;
  svc.checkpoint(out, words);
  EXPECT_EQ(svc.stats().checkpoints, 1u);
  EXPECT_GT(svc.stats().checkpoint_bytes, 0u);

  std::istringstream in(out.str());
  std::vector<std::uint64_t> restored_words;
  DapspService twin = DapspService::restore(in, {}, &restored_words);
  ASSERT_EQ(restored_words.size(), 2u);
  EXPECT_EQ(restored_words[0], plan.rng_state());
  EXPECT_EQ(restored_words[1], plan.batches_generated());
  EXPECT_EQ(twin.epoch(), svc.epoch());
  EXPECT_EQ(blob_of(twin), blob_of(svc));

  // Restore-continue equals straight-through, epoch for epoch.
  DeltaPlan plan2(pc);
  plan2.resume(restored_words[0], restored_words[1]);
  for (int i = 0; i < 15; ++i) {
    svc.step(plan.next(svc.dynamic_graph()));
    twin.step(plan2.next(twin.dynamic_graph()));
  }
  EXPECT_EQ(blob_of(twin), blob_of(svc));
  expect_oracle_exact(twin);
}

TEST(Service, RestoreRejectsDamagedCheckpoints) {
  DapspService svc(gen::grid(3, 3), {});
  const std::vector<std::uint8_t> blob = svc.checkpoint_blob();
  {
    std::istringstream in("not a checkpoint");
    EXPECT_THROW(DapspService::restore(in, {}, nullptr), std::runtime_error);
  }
  {
    std::vector<std::uint8_t> bad = blob;
    bad[bad.size() / 2] ^= 0x10;  // body damage -> checksum mismatch
    std::istringstream in(
        std::string(reinterpret_cast<const char*>(bad.data()), bad.size()));
    EXPECT_THROW(DapspService::restore(in, {}, nullptr), std::runtime_error);
  }
  {
    std::istringstream in(std::string(
        reinterpret_cast<const char*>(blob.data()), blob.size() / 2));
    EXPECT_THROW(DapspService::restore(in, {}, nullptr), std::runtime_error);
  }
}

TEST(Service, ThreadCountNeverChangesTheCheckpoint) {
  const Graph g = gen::random_connected(12, 10, 7);
  std::vector<std::vector<std::uint8_t>> blobs;
  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    ServiceConfig cfg;
    cfg.engine.threads = threads;
    DapspService svc(g, cfg);
    DeltaPlanConfig pc;
    pc.seed = 41;
    pc.crash_prob = 0.1;
    pc.corrupt_prob = 0.1;
    DeltaPlan plan(pc);
    for (int i = 0; i < 20; ++i) svc.step(plan.next(svc.dynamic_graph()));
    blobs.push_back(svc.checkpoint_blob());
  }
  EXPECT_EQ(blobs[0], blobs[1]);
  EXPECT_EQ(blobs[0], blobs[2]);
}

TEST(Service, WatchdogTripsFailTheEpochButNotTheService) {
  // Build healthy, checkpoint, then restore under a 2-round watchdog: every
  // ladder rung trips, the epoch fails, and the service keeps serving the
  // pre-epoch snapshot with the staleness disclosed.
  DapspService healthy(gen::cycle(8), {});
  const std::vector<std::uint8_t> blob = healthy.checkpoint_blob();

  ServiceConfig strict;
  strict.watchdog_rounds = 2;
  strict.backoff_base_ms = 1;
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(blob.data()), blob.size()));
  DapspService svc = DapspService::restore(in, strict, nullptr);

  ChurnBatch b;
  b.deltas.push_back({DeltaKind::kEdgeRemove, 0, 1});
  const EpochReport ep = svc.step(b);
  EXPECT_FALSE(ep.certified);
  EXPECT_TRUE(ep.escalated);  // the ladder reached the final rung
  EXPECT_EQ(ep.attempts, 3u);
  EXPECT_EQ(svc.stats().epochs_failed, 1u);
  EXPECT_GE(svc.stats().backoff_ms, 2u);  // two jittered sleeps, each >= base
  EXPECT_FALSE(svc.fully_certified());

  // Graceful degradation: the failed rows answer from the last certified
  // snapshot (pre-removal distances), flagged stale.
  const ServiceQuery q = svc.query(0, 1);
  EXPECT_TRUE(q.active);
  EXPECT_EQ(q.status, RowStatus::kStale);
  EXPECT_EQ(q.dist, 1u);  // the old snapshot still says "adjacent"

  // Recovery: restore the degraded state under a sane config; the stale
  // rows carry over as suspects and the next (empty) epoch heals them.
  const std::vector<std::uint8_t> degraded = svc.checkpoint_blob();
  std::istringstream in2(std::string(
      reinterpret_cast<const char*>(degraded.data()), degraded.size()));
  DapspService healed = DapspService::restore(in2, {}, nullptr);
  EXPECT_FALSE(healed.fully_certified());  // staleness survives the blob
  const EpochReport fix = healed.step({});
  EXPECT_TRUE(fix.certified);
  EXPECT_GT(fix.suspect_rows, 0u);
  expect_oracle_exact(healed);
}

TEST(Service, QueryValidatesEndpointsAndReportsInactive) {
  DapspService svc(gen::path(5), {});
  EXPECT_THROW(svc.query(0, 9), std::invalid_argument);
  ChurnBatch b;
  b.deltas.push_back({DeltaKind::kNodeLeave, 4, 4});
  svc.step(b);
  const ServiceQuery q = svc.query(0, 4);
  EXPECT_FALSE(q.active);
  EXPECT_EQ(q.dist, kInfDist);
}

// ------------------------------------------------------------ CheckpointError

TEST(CheckpointErrors, ClassificationNamesEveryFailureMode) {
  DapspService svc(gen::grid(3, 3), {});
  const std::vector<std::uint8_t> blob = svc.checkpoint_blob();
  EXPECT_EQ(classify_checkpoint_blob(blob), CheckpointError::kNone);
  EXPECT_EQ(peek_checkpoint_epoch(blob), svc.epoch());

  EXPECT_EQ(classify_checkpoint_blob({}), CheckpointError::kMissing);

  // Every strict prefix is a truncation — the dry structural walk never
  // misreads a cut as checksum damage.
  for (std::size_t len = 1; len < blob.size(); len += 7) {
    EXPECT_EQ(classify_checkpoint_blob(
                  std::span<const std::uint8_t>(blob.data(), len)),
              CheckpointError::kTruncated)
        << "prefix of " << len << " bytes";
  }

  std::vector<std::uint8_t> bad = blob;
  bad[0] ^= 0xff;
  EXPECT_EQ(classify_checkpoint_blob(bad), CheckpointError::kBadMagic);

  bad = blob;
  bad[5] ^= 0x01;  // magic intact, version word damaged
  EXPECT_EQ(classify_checkpoint_blob(bad), CheckpointError::kVersionMismatch);

  bad = blob;
  bad[bad.size() / 2] ^= 0x10;
  EXPECT_EQ(classify_checkpoint_blob(bad), CheckpointError::kChecksumMismatch);

  bad = blob;
  bad.push_back(0);  // bytes beyond the declared structure
  EXPECT_EQ(classify_checkpoint_blob(bad), CheckpointError::kChecksumMismatch);
}

TEST(CheckpointErrors, ToStringCoversEveryCode) {
  EXPECT_STREQ(to_string(CheckpointError::kNone), "none");
  EXPECT_STREQ(to_string(CheckpointError::kMissing), "missing");
  EXPECT_STREQ(to_string(CheckpointError::kTruncated), "truncated");
  EXPECT_STREQ(to_string(CheckpointError::kBadMagic), "bad-magic");
  EXPECT_STREQ(to_string(CheckpointError::kVersionMismatch),
               "version-mismatch");
  EXPECT_STREQ(to_string(CheckpointError::kChecksumMismatch),
               "checksum-mismatch");
  EXPECT_STREQ(to_string(CheckpointError::kBadPayload), "bad-payload");
}

TEST(CheckpointErrors, TryRestoreReportsTheCodeWithoutThrowing) {
  DapspService svc(gen::grid(3, 3), {});
  const std::vector<std::uint8_t> blob = svc.checkpoint_blob();

  CheckpointError err = CheckpointError::kBadPayload;
  std::optional<DapspService> ok =
      DapspService::try_restore_blob(blob, {}, nullptr, &err);
  ASSERT_TRUE(ok.has_value());
  EXPECT_EQ(err, CheckpointError::kNone);
  EXPECT_EQ(ok->epoch(), svc.epoch());

  std::vector<std::uint8_t> bad = blob;
  bad[bad.size() - 9] ^= 0x40;  // last body byte, before the checksum
  err = CheckpointError::kNone;
  EXPECT_FALSE(
      DapspService::try_restore_blob(bad, {}, nullptr, &err).has_value());
  EXPECT_EQ(err, CheckpointError::kChecksumMismatch);

  err = CheckpointError::kNone;
  EXPECT_FALSE(
      DapspService::try_restore_blob({}, {}, nullptr, &err).has_value());
  EXPECT_EQ(err, CheckpointError::kMissing);
}

TEST(CheckpointErrors, RestoreMessagesNameTheClassification) {
  DapspService svc(gen::grid(3, 3), {});
  const std::vector<std::uint8_t> blob = svc.checkpoint_blob();
  const auto expect_restore_says = [](std::span<const std::uint8_t> b,
                                      const std::string& code) {
    try {
      DapspService::restore_blob(b, {}, nullptr);
      FAIL() << "restore_blob accepted a " << code << " checkpoint";
    } catch (const std::runtime_error& e) {
      EXPECT_NE(std::string(e.what()).find(code), std::string::npos)
          << e.what();
    }
  };
  expect_restore_says({}, "missing");
  expect_restore_says(std::span<const std::uint8_t>(blob.data(), 40),
                      "truncated");
  std::vector<std::uint8_t> bad = blob;
  bad[1] ^= 0x08;
  expect_restore_says(bad, "bad-magic");
  bad = blob;
  bad[6] ^= 0x02;
  expect_restore_says(bad, "version-mismatch");
  bad = blob;
  bad[bad.size() / 3] ^= 0x20;
  expect_restore_says(bad, "checksum-mismatch");
}

// ---------------------------------------------------------- saturating backoff

TEST(Backoff, ZeroBaseNeverSleepsAtAnyExponent) {
  for (const std::uint64_t exp :
       {0ull, 1ull, 13ull, 62ull, 63ull, 64ull, 10'000ull, ~0ull}) {
    EXPECT_EQ(backoff_delay_ms(0, exp), 0u) << "exp " << exp;
  }
}

TEST(Backoff, DoublesExactlyBelowTheCapAndSaturatesAbove) {
  EXPECT_EQ(backoff_delay_ms(5, 0), 5u);
  EXPECT_EQ(backoff_delay_ms(5, 3), 40u);
  EXPECT_EQ(backoff_delay_ms(5, 13), 40'960u);  // last doubling under the cap
  EXPECT_EQ(backoff_delay_ms(5, 14), kMaxBackoffMs);
  EXPECT_EQ(backoff_delay_ms(1, 16), kMaxBackoffMs);  // 65'536 > 60'000
  EXPECT_EQ(backoff_delay_ms(kMaxBackoffMs, 0), kMaxBackoffMs);
  EXPECT_EQ(backoff_delay_ms(kMaxBackoffMs + 1, 0), kMaxBackoffMs);
}

TEST(Backoff, HugeExponentsSaturateInsteadOfOverflowing) {
  // exp >= 63 would be UB as a plain shift of a nonzero base; a wrapped
  // shift would come back tiny and turn the backoff into a hot loop.
  EXPECT_EQ(backoff_delay_ms(1, 62), kMaxBackoffMs);
  EXPECT_EQ(backoff_delay_ms(1, 63), kMaxBackoffMs);
  EXPECT_EQ(backoff_delay_ms(1, 64), kMaxBackoffMs);
  EXPECT_EQ(backoff_delay_ms(3, 62), kMaxBackoffMs);
  EXPECT_EQ(backoff_delay_ms(1, ~0ull), kMaxBackoffMs);
  EXPECT_EQ(backoff_delay_ms(~0ull, 1), kMaxBackoffMs);
}

TEST(Service, WallBudgetZeroIsNoBudgetAndTinyBudgetSkipsToEscalation) {
  DapspService healthy(gen::cycle(8), {});
  const std::vector<std::uint8_t> blob = healthy.checkpoint_blob();
  ChurnBatch b;
  b.deltas.push_back({DeltaKind::kEdgeRemove, 0, 1});

  // watchdog_wall_ms == 0 means "no wall budget": every rung of the ladder
  // is attempted, exactly as if the knob did not exist.
  ServiceConfig unlimited;
  unlimited.watchdog_rounds = 2;
  unlimited.watchdog_wall_ms = 0;
  std::istringstream in1(
      std::string(reinterpret_cast<const char*>(blob.data()), blob.size()));
  DapspService svc1 = DapspService::restore(in1, unlimited, nullptr);
  EXPECT_EQ(svc1.step(b).attempts, 3u);

  // A tiny wall budget (blown during the first backoff sleep) skips the
  // intermediate rungs but always keeps the final escalation.
  ServiceConfig tight = unlimited;
  tight.watchdog_wall_ms = 1;
  tight.backoff_base_ms = 2;
  std::istringstream in2(
      std::string(reinterpret_cast<const char*>(blob.data()), blob.size()));
  DapspService svc2 = DapspService::restore(in2, tight, nullptr);
  const EpochReport ep = svc2.step(b);
  EXPECT_EQ(ep.attempts, 2u);  // first rung + final escalation only
  EXPECT_TRUE(ep.escalated);
}

TEST(Service, DegradedStreakFeedsTheBackoffEnvelopeAndIsNotCheckpointed) {
  DapspService healthy(gen::cycle(8), {});
  const std::vector<std::uint8_t> blob = healthy.checkpoint_blob();

  ServiceConfig strict;
  strict.watchdog_rounds = 2;
  strict.backoff_base_ms = 1;
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(blob.data()), blob.size()));
  DapspService svc = DapspService::restore(in, strict, nullptr);
  EXPECT_EQ(svc.degraded_streak(), 0u);

  ChurnBatch b;
  b.deltas.push_back({DeltaKind::kEdgeRemove, 0, 1});
  svc.step(b);
  EXPECT_EQ(svc.degraded_streak(), 1u);
  // Two jittered sleeps between the three rungs, each >= base; with the
  // streak-0 envelope seed of backoff_delay_ms(1, 0) = 1ms the first draw
  // is <= 3ms and the second <= 3 * max(base, first) <= 9ms.
  const std::uint64_t first = svc.stats().backoff_ms;
  EXPECT_GE(first, 2u);
  EXPECT_LE(first, 12u);

  ChurnBatch b2;
  b2.deltas.push_back({DeltaKind::kEdgeRemove, 2, 3});
  svc.step(b2);
  EXPECT_EQ(svc.degraded_streak(), 2u);
  // The second failed epoch's envelope widens (seed backoff_delay_ms(1, 1)
  // = 2ms -> draws in [1, 6] then [1, 18]); individual draws are jittered
  // so only the bounds are asserted.
  const std::uint64_t second = svc.stats().backoff_ms - first;
  EXPECT_GE(second, 2u);
  EXPECT_LE(second, 24u);

  // Determinism: a twin driven through the same epochs accumulates the
  // identical jittered total — the draws are keyed by (seed, epoch,
  // attempt), never by wall time.
  std::istringstream in_twin(
      std::string(reinterpret_cast<const char*>(blob.data()), blob.size()));
  DapspService twin = DapspService::restore(in_twin, strict, nullptr);
  ChurnBatch tb;
  tb.deltas.push_back({DeltaKind::kEdgeRemove, 0, 1});
  twin.step(tb);
  ChurnBatch tb2;
  tb2.deltas.push_back({DeltaKind::kEdgeRemove, 2, 3});
  twin.step(tb2);
  EXPECT_EQ(twin.stats().backoff_ms, svc.stats().backoff_ms);

  // The streak is runtime-only: a restored twin starts calm, and a
  // successful healing epoch keeps it at zero.
  const std::vector<std::uint8_t> degraded = svc.checkpoint_blob();
  std::istringstream in2(std::string(
      reinterpret_cast<const char*>(degraded.data()), degraded.size()));
  DapspService healed = DapspService::restore(in2, {}, nullptr);
  EXPECT_EQ(healed.degraded_streak(), 0u);
  EXPECT_TRUE(healed.step({}).certified);
  EXPECT_EQ(healed.degraded_streak(), 0u);
}

// ------------------------------------------- churn codec & plan round-trips

TEST(DeltaPlan, TwoScalarCheckpointRoundTripsAtEverySplitPoint) {
  constexpr int kTotal = 20;
  const Graph g = gen::random_connected(12, 10, 3);
  DeltaPlanConfig pc;
  pc.seed = 17;
  pc.crash_prob = 0.15;
  pc.corrupt_prob = 0.1;

  // Reference stream, recorded once.
  std::vector<ChurnBatch> want;
  {
    DeltaPlan plan(pc);
    DynamicGraph dg(g);
    for (int i = 0; i < kTotal; ++i) {
      const ChurnBatch b = plan.next(dg);
      for (const GraphDelta& d : b.deltas) dg.apply(d);
      for (const NodeId v : b.crashes) dg.apply({DeltaKind::kNodeLeave, v, v});
      want.push_back(b);
    }
  }

  // Property: for EVERY split point, draining `split` batches, freezing the
  // two scalars, and resuming a fresh plan replays the identical suffix.
  for (int split = 0; split <= kTotal; ++split) {
    DeltaPlan head(pc);
    DynamicGraph dg(g);
    for (int i = 0; i < split; ++i) {
      const ChurnBatch b = head.next(dg);
      for (const GraphDelta& d : b.deltas) dg.apply(d);
      for (const NodeId v : b.crashes) dg.apply({DeltaKind::kNodeLeave, v, v});
    }
    DeltaPlan tail(pc);
    tail.resume(head.rng_state(), head.batches_generated());
    EXPECT_EQ(tail.batches_generated(), static_cast<std::uint64_t>(split));
    for (int i = split; i < kTotal; ++i) {
      const ChurnBatch b = tail.next(dg);
      ASSERT_EQ(b, want[static_cast<std::size_t>(i)])
          << "split " << split << ", batch " << i;
      for (const GraphDelta& d : b.deltas) dg.apply(d);
      for (const NodeId v : b.crashes) dg.apply({DeltaKind::kNodeLeave, v, v});
    }
  }
}

TEST(ChurnCodec, RoundTripsEveryBatchShape) {
  const Graph g = gen::random_connected(12, 10, 3);
  DeltaPlanConfig pc;
  pc.seed = 23;
  pc.crash_prob = 0.2;
  pc.corrupt_prob = 0.2;
  DeltaPlan plan(pc);
  DynamicGraph dg(g);
  for (int i = 0; i < 40; ++i) {
    const ChurnBatch b = plan.next(dg);
    const std::vector<std::uint8_t> bytes = encode_churn_batch(b);
    EXPECT_EQ(decode_churn_batch(bytes), b) << "batch " << i;
    for (const GraphDelta& d : b.deltas) dg.apply(d);
    for (const NodeId v : b.crashes) dg.apply({DeltaKind::kNodeLeave, v, v});
  }
  const ChurnBatch empty;
  EXPECT_EQ(decode_churn_batch(encode_churn_batch(empty)), empty);
}

TEST(ChurnCodec, RejectsTruncatedBytes) {
  ChurnBatch b;
  b.deltas.push_back({DeltaKind::kEdgeInsert, 0, 1});
  b.crashes.push_back(3);
  b.corrupt_flips = 2;
  b.corrupt_seed = 99;
  const std::vector<std::uint8_t> bytes = encode_churn_batch(b);
  for (std::size_t len = 0; len < bytes.size(); ++len) {
    EXPECT_THROW(decode_churn_batch(std::span<const std::uint8_t>(
                     bytes.data(), len)),
                 std::exception)
        << "prefix of " << len << " bytes decoded";
  }
}

TEST(Service, CountersSurfaceInDebugStrings) {
  DapspService svc(gen::grid(3, 3), {});
  svc.checkpoint_blob();
  ChurnBatch b;
  b.deltas.push_back({DeltaKind::kEdgeInsert, 0, 8});
  svc.step(b);
  const std::string s = svc.stats().debug_string();
  EXPECT_NE(s.find("repairs="), std::string::npos);
  EXPECT_NE(s.find("checkpoint_bytes="), std::string::npos);
  EXPECT_NE(s.find("epochs=1"), std::string::npos);  // ctor counts no epoch
  EXPECT_EQ(std::string(to_string(RowStatus::kRepaired)), "repaired");
  EXPECT_EQ(std::string(to_string(EpochOutcome::kEscalated)), "escalated");
  EXPECT_EQ(std::string(to_string(DeltaKind::kNodeJoin)), "node-join");
  EXPECT_FALSE(to_string(GraphDelta{DeltaKind::kEdgeInsert, 0, 8}).empty());
}

}  // namespace
}  // namespace dapsp::core
