// Certified outputs: coverage classification, the distributed per-row
// distance certificate (soundness on exact tables, detection of corrupted
// and stale entries, uncertifiability of crashed-source rows), and the
// Lemma 1 flood-congestion monitor.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <vector>

#include "congest/engine.h"
#include "congest/faults.h"
#include "congest/trace.h"
#include "core/certify.h"
#include "core/pebble_apsp.h"
#include "core/primitives/bfs_process.h"
#include "graph/generators.h"
#include "seq/apsp.h"
#include "seq/bfs.h"

namespace dapsp::core {
namespace {

std::vector<NodeId> all_nodes(NodeId n) {
  std::vector<NodeId> out(n);
  for (NodeId v = 0; v < n; ++v) out[v] = v;
  return out;
}

std::vector<Graph> test_families() {
  std::vector<Graph> out;
  out.push_back(gen::path(8));
  out.push_back(gen::grid(3, 4));
  out.push_back(gen::petersen());
  out.push_back(gen::random_connected(14, 10, 21));
  return out;
}

// ---------------------------------------------------------------------------
// Coverage classification

TEST(Coverage, ClassifiesCompletePartialLost) {
  // 4 nodes, node 2 dead. Entries are a lookup table per (node, source).
  const std::vector<std::uint8_t> survived = {1, 1, 0, 1};
  const std::vector<NodeId> sources = {0, 1, 3};
  // Row 0: every survivor finite -> complete (dead node 2's entry ignored).
  // Row 1: survivors 0 and 1 finite, 3 unknown -> partial.
  // Row 3: only the source's own 0 -> lost.
  const std::uint32_t table[4][4] = {
      {0, 1, kInfDist, kInfDist},
      {1, 0, kInfDist, kInfDist},
      {kInfDist, kInfDist, 0, kInfDist},
      {3, kInfDist, kInfDist, 0},
  };
  const auto cov = classify_coverage(
      survived, sources, [&](NodeId v, NodeId s) { return table[v][s]; });
  ASSERT_EQ(cov.size(), 3u);
  EXPECT_EQ(cov[0], RowCoverage::kComplete);
  EXPECT_EQ(cov[1], RowCoverage::kPartial);
  EXPECT_EQ(cov[2], RowCoverage::kLost);
  EXPECT_STREQ(to_string(RowCoverage::kComplete), "complete");
  EXPECT_STREQ(to_string(RowCoverage::kPartial), "partial");
  EXPECT_STREQ(to_string(RowCoverage::kLost), "lost");
}

TEST(Coverage, DeadSourceRowWithNoFiniteEntriesIsLost) {
  const std::vector<std::uint8_t> survived = {1, 1, 0};
  const std::vector<NodeId> sources = {2};
  const auto cov = classify_coverage(
      survived, sources, [](NodeId, NodeId) { return kInfDist; });
  ASSERT_EQ(cov.size(), 1u);
  EXPECT_EQ(cov[0], RowCoverage::kLost);
}

TEST(Coverage, RejectsOutOfRangeSource) {
  const std::vector<std::uint8_t> survived = {1, 1};
  const std::vector<NodeId> sources = {5};
  EXPECT_THROW(classify_coverage(survived, sources,
                                 [](NodeId, NodeId) { return 0u; }),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// The distributed certificate

TEST(Certify, ExactTablesCertifyOnAllFamilies) {
  for (const Graph& g : test_families()) {
    const NodeId n = g.num_nodes();
    const DistanceMatrix oracle = seq::apsp(g);
    const std::vector<std::uint8_t> survived(n, 1);
    const auto sources = all_nodes(n);
    const auto report = certify_rows(
        g, survived, sources,
        [&](NodeId v, NodeId s) { return oracle.at(v, s); });
    EXPECT_TRUE(report.all_certified()) << g.summary();
    EXPECT_EQ(report.rows_certified, n) << g.summary();
    EXPECT_EQ(report.checks_failed, 0u) << g.summary();
    // Pipelined: row k ships in round k and is judged in round k + 1.
    EXPECT_EQ(report.stats.rounds, n + 1) << g.summary();
  }
}

TEST(Certify, ScopedCertificateOfKRowsTakesKPlusOneRounds) {
  const Graph g = gen::random_connected(14, 10, 21);
  const NodeId n = g.num_nodes();
  const DistanceMatrix oracle = seq::apsp(g);
  const std::vector<std::uint8_t> survived(n, 1);
  // Rows judged and shipped by overlapping node subsets; some judges ship
  // nothing and read their neighbors through the view.
  const std::vector<NodeId> sources = {1, 4, 7, 9, 13};
  std::vector<std::vector<NodeId>> scope, shipped;
  for (std::size_t k = 0; k < sources.size(); ++k) {
    std::vector<NodeId> judges, ships;
    for (NodeId v = 0; v < n; ++v) {
      if ((v + k) % 3 != 0) judges.push_back(v);
      if ((v + k) % 2 == 0) ships.push_back(v);
    }
    scope.push_back(std::move(judges));
    shipped.push_back(std::move(ships));
  }
  CertifyOptions opts;
  opts.scope = scope;
  opts.shipped = shipped;
  const auto report = certify_rows(
      g, survived, sources,
      [&](NodeId v, NodeId s) { return oracle.at(v, s); }, opts);
  EXPECT_TRUE(report.all_certified());
  EXPECT_EQ(report.checks_failed, 0u);
  EXPECT_EQ(report.stats.rounds, sources.size() + 1);
  EXPECT_EQ(report.stats.max_edge_messages, 1u);
}

TEST(Certify, DelayedRowCopyInTheNextRowsJudgeRoundIsIgnored) {
  // Every copy arrives one round late, so row k's values land in round
  // k + 2, the round that judges row k + 1. Judges must not read them as
  // row k + 1's: with a view, a neighbor whose row value did not arrive is
  // read through the view, so every row of an exact table still certifies.
  const Graph g = gen::grid(3, 4);
  const NodeId n = g.num_nodes();
  const DistanceMatrix oracle = seq::apsp(g);
  const std::vector<std::uint8_t> survived(n, 1);
  const auto sources = all_nodes(n);
  const std::vector<std::vector<NodeId>> everyone(n, all_nodes(n));
  congest::FaultPlan plan;
  plan.delay_prob = 1.0;
  plan.max_extra_delay = 1;
  CertifyOptions opts;
  opts.engine.faults = plan;
  opts.scope = everyone;
  opts.shipped = everyone;
  const auto report = certify_rows(
      g, survived, sources,
      [&](NodeId v, NodeId s) { return oracle.at(v, s); }, opts);
  EXPECT_GT(report.stats.messages_delayed, 0u);
  EXPECT_TRUE(report.all_certified());
  EXPECT_EQ(report.checks_failed, 0u);
}

TEST(Certify, JudgeThatMissesItsRoundUnderAStallNeverActsAgain) {
  // Node 5 is stalled in round 3, the round that judges row 2 and ships row
  // 3. It shipped rows 0..2 and then never acts again: it ships nothing
  // more and never finishes, so the run ends at the round limit.
  const Graph g = gen::grid(3, 4);
  const NodeId n = g.num_nodes();
  const DistanceMatrix oracle = seq::apsp(g);
  const std::vector<std::uint8_t> survived(n, 1);
  congest::FaultPlan plan;
  plan.stalls.push_back({5, 3, 1});
  congest::TraceLog trace;
  CertifyOptions opts;
  opts.engine.faults = plan;
  opts.engine.max_rounds = 4 * n;
  opts.engine.trace = &trace;
  EXPECT_THROW(certify_rows(g, survived, all_nodes(n),
                            [&](NodeId v, NodeId s) { return oracle.at(v, s); },
                            opts),
               congest::RoundLimitError);
  std::uint64_t last_send = 0;
  std::uint64_t others_last = 0;
  for (const congest::TraceEvent& ev : trace.events()) {
    if (ev.kind != congest::TraceEventKind::kSend ||
        ev.msg.kind != kCertValue) {
      continue;
    }
    if (ev.node == 5) {
      last_send = std::max(last_send, ev.round);
    } else {
      others_last = std::max(others_last, ev.round);
    }
  }
  EXPECT_EQ(last_send, 2u);
  EXPECT_EQ(others_last, n - 1);
}

TEST(Certify, CorruptedEntryFailsExactlyItsRow) {
  const Graph g = gen::grid(3, 4);
  const NodeId n = g.num_nodes();
  const DistanceMatrix oracle = seq::apsp(g);
  const std::vector<std::uint8_t> survived(n, 1);
  const auto sources = all_nodes(n);
  // Node 5 inflates its distance to source 0 by 2: breaks Lipschitz and/or
  // the witness rule at node 5 or its neighbors, but only in row 0.
  const auto report = certify_rows(
      g, survived, sources, [&](NodeId v, NodeId s) {
        const std::uint32_t d = oracle.at(v, s);
        return (v == 5 && s == 0) ? d + 2 : d;
      });
  EXPECT_FALSE(report.all_certified());
  EXPECT_EQ(report.certified[0], 0u);
  EXPECT_GT(report.checks_failed, 0u);
  for (NodeId s = 1; s < n; ++s) {
    EXPECT_EQ(report.certified[s], 1u) << "row " << s;
  }
}

TEST(Certify, FakeZeroAwayFromSourceIsRejected) {
  const Graph g = gen::path(4);
  const std::vector<std::uint8_t> survived(4, 1);
  const std::vector<NodeId> sources = {0};
  // Node 3 claims distance 0 to source 0 — a forged "I am the source".
  const auto report = certify_rows(
      g, survived, sources, [&](NodeId v, NodeId) -> std::uint32_t {
        return v == 3 ? 0 : v;
      });
  EXPECT_EQ(report.certified[0], 0u);
}

TEST(Certify, SurvivingSubgraphDistancesCertifyAfterCrash) {
  // Path 0-1-2-3, node 3 (a leaf) dead: distances among 0,1,2 are unchanged
  // and must certify; the dead node's entries are never consulted.
  const Graph g = gen::path(4);
  const std::vector<std::uint8_t> survived = {1, 1, 1, 0};
  const std::vector<NodeId> sources = {0, 1, 2};
  const DistanceMatrix oracle = seq::apsp(g);
  const auto report = certify_rows(
      g, survived, sources,
      [&](NodeId v, NodeId s) { return oracle.at(v, s); });
  EXPECT_TRUE(report.all_certified());
  EXPECT_EQ(report.checks_failed, 0u);
}

TEST(Certify, StaleEntriesLearnedThroughCrashedRelayFail) {
  // Path 0-1-2-3, node 1 dead. Nodes 2 and 3 still hold their pre-crash
  // distances to node 0 (2 and 3) — true in the original graph, stale on the
  // surviving one: node 2's witness (node 1 at distance 1) is gone, so the
  // minimum surviving entry of the stale component must fail rule (c).
  const Graph g = gen::path(4);
  const std::vector<std::uint8_t> survived = {1, 0, 1, 1};
  const std::vector<NodeId> sources = {0};
  const DistanceMatrix oracle = seq::apsp(g);
  const auto report = certify_rows(
      g, survived, sources,
      [&](NodeId v, NodeId s) { return oracle.at(v, s); });
  EXPECT_EQ(report.certified[0], 0u);
  EXPECT_GT(report.checks_failed, 0u);
}

TEST(Certify, DisconnectedSurvivorsCertifyAsInfinite) {
  // Same cut, but nodes 2 and 3 correctly report "unreachable": the
  // all-infinite far component is consistent and the row certifies.
  const Graph g = gen::path(4);
  const std::vector<std::uint8_t> survived = {1, 0, 1, 1};
  const std::vector<NodeId> sources = {0};
  const auto report = certify_rows(
      g, survived, sources, [&](NodeId v, NodeId) -> std::uint32_t {
        if (v == 0) return 0;
        return kInfDist;
      });
  EXPECT_TRUE(report.all_certified());
  EXPECT_EQ(report.checks_failed, 0u);
}

TEST(Certify, CrashedSourceRowIsNeverCertifiable) {
  // Node 0 dead; the survivors hold the original exact distances to it.
  // Nobody may claim 0, so the row must fail even though every surviving
  // entry is "correct" for the pre-crash graph.
  const Graph g = gen::petersen();
  const NodeId n = g.num_nodes();
  std::vector<std::uint8_t> survived(n, 1);
  survived[0] = 0;
  const std::vector<NodeId> sources = {0};
  const auto oracle = seq::bfs(g, 0);
  const auto report = certify_rows(
      g, survived, sources,
      [&](NodeId v, NodeId) { return oracle.dist[v]; });
  EXPECT_EQ(report.certified[0], 0u);
}

TEST(Certify, CrashedSourceAllInfiniteRowCertifies) {
  // The repair module's normalization target (core/repair.h step 1): once a
  // crashed source's row is zeroed to all-infinite over the survivors, it
  // certifies vacuously — even when the crash splits the survivors into
  // disconnected components ({0} and {2, 3} here), since each all-infinite
  // component is internally consistent and nobody claims 0.
  const Graph g = gen::path(4);
  const std::vector<std::uint8_t> survived = {1, 0, 1, 1};
  const std::vector<NodeId> sources = {1};  // the dead node itself
  const auto report = certify_rows(
      g, survived, sources, [](NodeId, NodeId) { return kInfDist; });
  EXPECT_TRUE(report.all_certified());
  EXPECT_EQ(report.checks_failed, 0u);
}

TEST(Certify, AllNodesCrashedHarvestIsVacuouslyCertified) {
  // Total loss degenerates gracefully: with no survivor left to judge (or to
  // be misinformed), every row certifies vacuously and coverage over the
  // empty survivor set reads complete — "all zero survivors are covered".
  const Graph g = gen::petersen();
  const NodeId n = g.num_nodes();
  const std::vector<std::uint8_t> survived(n, 0);
  const auto entry = [](NodeId, NodeId) { return kInfDist; };
  const auto report = certify_rows(g, survived, all_nodes(n), entry);
  EXPECT_TRUE(report.all_certified());
  EXPECT_EQ(report.rows_certified, n);
  EXPECT_EQ(report.checks_failed, 0u);
  const auto cov = classify_coverage(survived, all_nodes(n), entry);
  for (const RowCoverage c : cov) EXPECT_EQ(c, RowCoverage::kComplete);
}

TEST(Certify, CoverageCompleteStaleRelayRowStillFailsWitnessRule) {
  // The case coverage accounting alone cannot catch — and the reason
  // repair_apsp() pre-certifies coverage-complete rows. Ring of 6, node 1
  // crashes; every survivor keeps its pre-crash distance to source 0. All
  // entries are finite (coverage complete!) but node 2's stale entry 2 has
  // no surviving witness: its only live neighbor, node 3, holds 3, so
  // rule (c) fails.
  const Graph g = gen::cycle(6);
  const std::vector<std::uint8_t> survived = {1, 0, 1, 1, 1, 1};
  const std::vector<NodeId> sources = {0};
  const DistanceMatrix oracle = seq::apsp(g);
  const auto entry = [&](NodeId v, NodeId s) { return oracle.at(v, s); };
  const auto cov = classify_coverage(survived, sources, entry);
  ASSERT_EQ(cov[0], RowCoverage::kComplete);
  const auto report = certify_rows(g, survived, sources, entry);
  EXPECT_EQ(report.certified[0], 0u);
  EXPECT_GT(report.checks_failed, 0u);
}

TEST(Certify, PebbleApspOutputCertifiesEndToEnd) {
  // The full pipeline: run Algorithm 1, feed its harvested matrix to the
  // verifier — the paper's output is its own certificate's witness.
  const Graph g = gen::random_connected(14, 10, 21);
  const NodeId n = g.num_nodes();
  const auto r = run_pebble_apsp(g);
  ASSERT_EQ(r.status, congest::RunStatus::kCompleted);
  const auto report = certify_rows(
      g, r.survived, all_nodes(n),
      [&](NodeId v, NodeId s) { return r.dist.at(v, s); });
  EXPECT_TRUE(report.all_certified());
  for (const RowCoverage c : r.coverage) {
    EXPECT_EQ(c, RowCoverage::kComplete);
  }
}

TEST(Certify, RejectsMalformedInputs) {
  const Graph g = gen::path(3);
  const std::vector<std::uint8_t> short_survived = {1, 1};
  const std::vector<NodeId> sources = {0};
  const auto entry = [](NodeId, NodeId) { return 0u; };
  EXPECT_THROW(certify_rows(g, short_survived, sources, entry),
               std::invalid_argument);
  const std::vector<std::uint8_t> survived = {1, 1, 1};
  const std::vector<NodeId> bad_sources = {9};
  EXPECT_THROW(certify_rows(g, survived, bad_sources, entry),
               std::invalid_argument);
}

}  // namespace
}  // namespace dapsp::core
