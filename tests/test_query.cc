// Query serving tier (core/query.h) and the arithmetic/edge-case sweep that
// rode along with it:
//
//   * sat_add_dist / DistanceLabeling::combine at the kInfDist sentinel
//     boundary (the old plain addition wrapped),
//   * build_distance_labels on the k = 0 degenerate path, the Lemma 10
//     bound, and disconnected inputs (clear error instead of partial
//     labels),
//   * DQRY blob encode/classify/parse taxonomy, mmap round-trip,
//   * snapshot answers (p2p / k-nearest / eccentricity) vs the naive
//     sequential oracle and vs DapspService::query, over a seeded sweep of
//     graph x churn configurations,
//   * monotone-conservative status disclosure at every publish point,
//     including the deterministic mid-epoch (degraded) publish — a row
//     degrading between snapshot publish and query must never claim kExact,
//   * SnapshotStore swap/pin/retire-after-grace semantics, single-threaded
//     and with 1/2/8 concurrent reader threads validating mid-swap answers
//     (the TSan target), and the LabelCache.
//
// The validation invariant used throughout: an answer whose status is
// kExact or kRepaired, served from a snapshot published at service epoch e,
// must equal the sequential oracle of the post-batch graph at epoch e.
// kStale answers make no claim. Overclaiming (stale value under a fresh
// status) is the bug class this file exists to catch.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <memory>
#include <optional>
#include <thread>
#include <vector>

#include "core/distance_labels.h"
#include "core/query.h"
#include "core/service.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "seq/apsp.h"
#include "seq/bfs.h"
#include "util/blob.h"
#include "util/journal.h"
#include "util/rng.h"

namespace dapsp::core {
namespace {

namespace fs = std::filesystem;

DistanceMatrix oracle_table(const DynamicGraph& dg) {
  return seq::apsp(dg.snapshot());
}

// Mirrors DapspService::step's batch application (crashes of already-dead
// nodes are skipped).
void apply_batch(DynamicGraph& dg, const ChurnBatch& batch) {
  for (const GraphDelta& d : batch.deltas) dg.apply(d);
  for (const NodeId v : batch.crashes) {
    if (dg.active(v)) dg.apply({DeltaKind::kNodeLeave, v, v});
  }
}

std::vector<RowStatus> all_exact(NodeId n) {
  return std::vector<RowStatus>(n, RowStatus::kExact);
}

// A snapshot of a static graph's exact tables (no service involved).
std::vector<std::uint8_t> encode_static(const Graph& g,
                                        const DistanceLabeling* labels =
                                            nullptr) {
  const DistanceMatrix dist = seq::apsp(g);
  const std::vector<std::uint8_t> active(g.num_nodes(), 1);
  const std::vector<RowStatus> status = all_exact(g.num_nodes());
  return encode_query_snapshot_tables(dist, nullptr, active, status,
                                      /*epoch=*/0, /*sequence=*/0,
                                      /*degraded=*/false, labels);
}

// Every p2p/k-nearest/eccentricity answer of `snap` checked against
// `oracle` (the post-batch table for the snapshot's epoch) under the
// validation invariant, and — when `svc` is given — against the service's
// own answers, next hops included (expect_hops: the snapshot carries a hop
// table). Returns the number of fresh (non-stale) answers checked.
std::size_t validate_snapshot(const QuerySnapshot& snap,
                              const DistanceMatrix& oracle,
                              const DapspService* svc,
                              bool expect_hops = true) {
  const NodeId n = snap.n();
  std::size_t fresh = 0;
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = 0; v < n; ++v) {
      const QueryAnswer a = snap.p2p(u, v);
      if (svc != nullptr) {
        const DynamicGraph& dg = svc->dynamic_graph();
        EXPECT_EQ(a.active, dg.active(u) && dg.active(v));
        if (a.active) {
          EXPECT_EQ(a.dist, svc->served_dist().at(u, v));
          EXPECT_EQ(a.next_hop, svc->served_next_hop().at(u, v));
          EXPECT_EQ(a.status, svc->row_status(v));
        }
      }
      if (!a.active) {
        EXPECT_TRUE(!snap.active(u) || !snap.active(v));
        continue;
      }
      if (a.status == RowStatus::kStale) continue;
      ++fresh;
      EXPECT_EQ(a.dist, oracle.at(u, v))
          << "status " << to_string(a.status) << " overclaims for (" << u
          << ", " << v << ") at epoch " << snap.epoch();
      if (expect_hops && u != v && a.dist != kInfDist) {
        // Path consistency: the hop is an active neighbor one step closer.
        EXPECT_NE(a.next_hop, kNoNextHop) << "(" << u << ", " << v << ")";
        if (a.next_hop == kNoNextHop) continue;
        EXPECT_EQ(oracle.at(a.next_hop, v), a.dist - 1)
            << "hop of (" << u << ", " << v << ") at epoch " << snap.epoch();
        if (svc != nullptr) {
          EXPECT_TRUE(svc->dynamic_graph().active(a.next_hop));
          EXPECT_TRUE(svc->dynamic_graph().has_edge(u, a.next_hop))
              << "hop of (" << u << ", " << v << ") at epoch "
              << snap.epoch() << " is not a neighbor";
        }
      }
    }
    // One k-nearest and one eccentricity probe per row, against the naive
    // scan of the oracle row.
    const KNearestAnswer kn = snap.k_nearest(u, 3);
    const EccentricityAnswer ec = snap.eccentricity(u);
    if (!snap.active(u)) {
      EXPECT_FALSE(kn.active);
      EXPECT_FALSE(ec.active);
      continue;
    }
    EXPECT_TRUE(std::is_sorted(kn.nearest.begin(), kn.nearest.end(),
                               [](const NearNeighbor& a,
                                  const NearNeighbor& b) {
                                 return a.dist != b.dist ? a.dist < b.dist
                                                         : a.node < b.node;
                               }));
    if (kn.status == RowStatus::kStale) continue;
    std::uint32_t naive_ecc = 0;
    std::uint32_t best = kInfDist;
    std::size_t finite = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (!snap.active(v)) continue;
      const std::uint32_t d = oracle.at(v, u);
      if (d == kInfDist) continue;
      naive_ecc = std::max(naive_ecc, d);
      if (v != u) {
        ++finite;
        best = std::min(best, d);
      }
    }
    EXPECT_EQ(ec.ecc, naive_ecc);
    EXPECT_EQ(kn.nearest.size(), std::min<std::size_t>(3, finite));
    if (!kn.nearest.empty()) {
      EXPECT_EQ(kn.nearest.front().dist, best);
    }
  }
  return fresh;
}

// ------------------------------------------------- saturating label arithmetic

TEST(SatAddDist, InfinityAbsorbsAndNearMaxClamps) {
  EXPECT_EQ(sat_add_dist(kInfDist, 0), kInfDist);
  EXPECT_EQ(sat_add_dist(0, kInfDist), kInfDist);
  EXPECT_EQ(sat_add_dist(kInfDist, kInfDist), kInfDist);
  // One below the sentinel + 1 used to wrap to 0; it must clamp instead.
  EXPECT_EQ(sat_add_dist(kInfDist - 1, 1), kInfDist);
  EXPECT_EQ(sat_add_dist(kInfDist - 1, kInfDist - 1), kInfDist);
  // Finite sums below the sentinel are preserved exactly.
  EXPECT_EQ(sat_add_dist(kInfDist - 2, 1), kInfDist - 1);
  EXPECT_EQ(sat_add_dist(3, 4), 7u);
  EXPECT_EQ(sat_add_dist(0, 0), 0u);
}

TEST(DistanceLabelCombine, SentinelBoundaryNeverWraps) {
  using C = DistanceLabeling;
  const std::uint32_t inf = kInfDist;
  // No dominator finite on both sides: the estimate is "unknown", not a
  // wrapped tiny value. (inf + 5 wrapped to 4 under plain u32 addition.)
  EXPECT_EQ(C::combine(std::vector<std::uint32_t>{inf},
                       std::vector<std::uint32_t>{5}),
            inf);
  EXPECT_EQ(C::combine(std::vector<std::uint32_t>{3, inf},
                       std::vector<std::uint32_t>{inf, 4}),
            inf);
  // Near-max finite entries clamp to the sentinel instead of beating a
  // genuine finite dominator.
  EXPECT_EQ(C::combine(std::vector<std::uint32_t>{inf - 1, 10},
                       std::vector<std::uint32_t>{inf - 1, 2}),
            12u);
  EXPECT_EQ(C::combine(std::vector<std::uint32_t>{3, 10},
                       std::vector<std::uint32_t>{4, 1}),
            7u);
  EXPECT_EQ(C::combine({}, {}), inf);
}

TEST(DistanceLabels, KZeroIsExactAndBoundHolds) {
  const Graph g = gen::random_connected(14, 9, 21);
  const DistanceMatrix oracle = seq::apsp(g);
  const DistanceLabeling lab = build_distance_labels(g, 0);
  // k = 0: one residue class, DOM = V, |DOM| <= n + 1 trivially.
  EXPECT_EQ(lab.dominators().size(), g.num_nodes());
  EXPECT_LE(lab.dominators().size(),
            std::size_t{g.num_nodes()} / 1 + 1);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(lab.estimate(u, v), oracle.at(u, v));
    }
  }
}

TEST(DistanceLabels, AdditiveSlackAndLemma10Bound) {
  const Graph g = gen::random_connected(30, 20, 7);
  const DistanceMatrix oracle = seq::apsp(g);
  for (const std::uint32_t k : {1u, 2u, 4u}) {
    const DistanceLabeling lab = build_distance_labels(g, k);
    EXPECT_LE(lab.dominators().size(),
              std::size_t{g.num_nodes()} / (k + 1) + 1);
    for (NodeId u = 0; u < g.num_nodes(); ++u) {
      for (NodeId v = 0; v < g.num_nodes(); ++v) {
        const std::uint32_t est = lab.estimate(u, v);
        EXPECT_GE(est, oracle.at(u, v));
        EXPECT_LE(est, oracle.at(u, v) + 2 * k);
      }
    }
  }
}

TEST(DistanceLabels, DisconnectedInputThrowsInsteadOfPartialLabels) {
  // Two components: 0-1 and 2-3.
  const Graph g(4, {{0, 1}, {2, 3}});
  EXPECT_THROW(build_distance_labels(g, 1), std::invalid_argument);
  EXPECT_THROW(build_distance_labels(g, 0), std::invalid_argument);
}

// ------------------------------------------------------------ DQRY blob format

TEST(QueryBlob, RoundTripPreservesFieldsAndAnswers) {
  const Graph g = gen::random_connected(12, 8, 5);
  const DistanceLabeling lab = build_distance_labels(g, 1);
  const std::vector<std::uint8_t> blob = encode_static(g, &lab);
  EXPECT_EQ(classify_query_blob(blob), CheckpointError::kNone);

  const QuerySnapshot snap = QuerySnapshot::from_blob(blob);
  EXPECT_EQ(snap.n(), g.num_nodes());
  EXPECT_EQ(snap.epoch(), 0u);
  EXPECT_EQ(snap.sequence(), 0u);
  EXPECT_FALSE(snap.degraded());
  EXPECT_TRUE(snap.has_labels());
  EXPECT_EQ(snap.label_k(), 1u);
  EXPECT_EQ(snap.dominators().size(), lab.dominators().size());

  const DistanceMatrix oracle = seq::apsp(g);
  validate_snapshot(snap, oracle, nullptr, /*expect_hops=*/false);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(snap.label_estimate(u, v), lab.estimate(u, v));
    }
  }
}

TEST(QueryBlob, KNearestMatchesAPartialSortReference) {
  // Random rows with many ties, inactive nodes and unreachable entries,
  // queried with and without budgets: the bounded heap must return exactly
  // the (dist, id)-ordered prefix a full candidate sort does, and mark a
  // budget-truncated scan the same way.
  Rng rng(0x6b6e6e);
  for (int trial = 0; trial < 40; ++trial) {
    const auto n = static_cast<NodeId>(rng.between(1, 70));
    DistanceMatrix dist(n);
    std::vector<std::uint8_t> active(n);
    for (NodeId v = 0; v < n; ++v) active[v] = rng.below(5) != 0 ? 1 : 0;
    for (NodeId v = 0; v < n; ++v) {
      for (NodeId s = 0; s < n; ++s) {
        const std::uint64_t roll = rng.below(8);
        dist.set(v, s, roll == 0 ? kInfDist
                                 : static_cast<std::uint32_t>(rng.below(4)));
      }
    }
    const QuerySnapshot snap =
        QuerySnapshot::from_blob(encode_query_snapshot_tables(
            dist, nullptr, active, all_exact(n), 0, 0, false));
    for (NodeId u = 0; u < n; ++u) {
      const std::uint32_t k = static_cast<std::uint32_t>(rng.below(n + 3));
      const std::uint64_t limit = rng.below(3) == 0 ? rng.below(n + 2) : 0;
      WorkBudget budget{.limit = limit};
      const KNearestAnswer got =
          snap.k_nearest(u, k, limit != 0 ? &budget : nullptr);
      ASSERT_EQ(got.active, active[u] != 0);
      if (!got.active) continue;

      const NodeId scan =
          limit != 0 ? static_cast<NodeId>(std::min<std::uint64_t>(n, limit))
                     : n;
      std::vector<NearNeighbor> want;
      for (NodeId v = 0; v < scan; ++v) {
        const std::uint32_t d = dist.at(v, u);
        if (v != u && active[v] != 0 && d != kInfDist) want.push_back({v, d});
      }
      const auto keep = std::min<std::size_t>(k, want.size());
      std::partial_sort(want.begin(),
                        want.begin() + static_cast<std::ptrdiff_t>(keep),
                        want.end(),
                        [](const NearNeighbor& a, const NearNeighbor& b) {
                          return a.dist != b.dist ? a.dist < b.dist
                                                  : a.node < b.node;
                        });
      want.resize(keep);
      ASSERT_EQ(got.nearest.size(), want.size()) << "n " << n << " u " << u;
      for (std::size_t i = 0; i < want.size(); ++i) {
        EXPECT_EQ(got.nearest[i].node, want[i].node);
        EXPECT_EQ(got.nearest[i].dist, want[i].dist);
      }
      EXPECT_EQ(got.truncated, scan < n);
      EXPECT_EQ(got.scanned, scan < n ? scan : 0u);
    }
  }
}

TEST(QueryBlob, ClassifyTaxonomy) {
  const Graph g = gen::random_connected(8, 4, 2);
  std::vector<std::uint8_t> blob = encode_static(g);
  ASSERT_EQ(classify_query_blob(blob), CheckpointError::kNone);

  EXPECT_EQ(classify_query_blob({}), CheckpointError::kMissing);
  EXPECT_EQ(classify_query_blob(std::span(blob).first(17)),
            CheckpointError::kTruncated);
  {
    std::vector<std::uint8_t> b = blob;
    b.pop_back();
    EXPECT_EQ(classify_query_blob(b), CheckpointError::kTruncated);
    b = blob;
    b.push_back(0);  // appended bytes are damage, not slack
    EXPECT_EQ(classify_query_blob(b), CheckpointError::kChecksumMismatch);
  }
  {
    std::vector<std::uint8_t> b = blob;
    b[0] = 'X';
    EXPECT_EQ(classify_query_blob(b), CheckpointError::kBadMagic);
  }
  {
    std::vector<std::uint8_t> b = blob;
    b[7] = '2';  // the previous format version
    EXPECT_EQ(classify_query_blob(b), CheckpointError::kVersionMismatch);
  }
  {
    std::vector<std::uint8_t> b = blob;
    b[60] ^= 0x40;  // a distance-table byte
    EXPECT_EQ(classify_query_blob(b), CheckpointError::kChecksumMismatch);
  }
  {
    // An in-blob status byte outside the enum, with the checksum repaired:
    // structure holds, payload doesn't.
    std::vector<std::uint8_t> b = blob;
    b[b.size() - 9] = 7;  // last status byte (just before the checksum)
    const std::uint64_t sum =
        frame_checksum(std::span<const std::uint8_t>(b).first(b.size() - 8));
    for (int i = 0; i < 8; ++i) {
      b[b.size() - 8 + static_cast<std::size_t>(i)] =
          static_cast<std::uint8_t>(sum >> (8 * i));
    }
    EXPECT_EQ(classify_query_blob(b), CheckpointError::kBadPayload);
  }
  EXPECT_THROW(QuerySnapshot::from_blob({}), std::runtime_error);
}

TEST(QueryBlob, FileRoundTripThroughMmap) {
  const std::string dir =
      (fs::path(::testing::TempDir()) / "query_blob").string();
  fs::create_directories(dir);
  const std::string path = dir + "/snap.dqry";

  const Graph g = gen::random_connected(10, 6, 9);
  const std::vector<std::uint8_t> blob = encode_static(g);
  write_blob_atomic(path, blob);

  const QuerySnapshot snap = QuerySnapshot::from_file(path);
  EXPECT_EQ(snap.bytes().size(), blob.size());
  EXPECT_EQ(0, std::memcmp(snap.bytes().data(), blob.data(), blob.size()));
  validate_snapshot(snap, seq::apsp(g), nullptr, /*expect_hops=*/false);

  EXPECT_THROW(QuerySnapshot::from_file(dir + "/absent.dqry"),
               std::runtime_error);
}

// The served tables read node-major through served_dist() /
// served_next_hop() and encoded from nested rows give the same bytes as
// the service's own encoder, which copies whole source-major rows; with and
// without a label section.
void expect_flat_encoding_matches_nested_rows(const DapspService& svc,
                                              const DistanceLabeling& lab) {
  const NodeId n = svc.dynamic_graph().universe();
  DistanceMatrix dist(n);
  std::vector<std::vector<NodeId>> rows(n, std::vector<NodeId>(n));
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId s = 0; s < n; ++s) {
      dist.set(v, s, svc.served_dist().at(v, s));
      rows[v][s] = svc.served_next_hop().at(v, s);
    }
  }
  const DistanceLabeling* const label_sections[] = {nullptr, &lab};
  for (const DistanceLabeling* labels : label_sections) {
    EXPECT_EQ(encode_query_snapshot_tables(
                  dist, &rows, svc.dynamic_graph().active_mask(),
                  svc.row_statuses(), svc.epoch(), 0, false, labels),
              encode_query_snapshot(svc, 0, false, labels));
  }
}

// On a freshly built (churn-free) service every served row is exact, and
// there the hop tables are guaranteed path-consistent: each finite off-
// diagonal answer's next hop steps one closer to the target.
TEST(QueryBlob, FreshServiceHopsAdvanceThePath) {
  const Graph g = gen::random_connected(14, 10, 13);
  DapspService svc(g);
  const QuerySnapshot snap = QuerySnapshot::from_blob(
      encode_query_snapshot(svc, /*sequence=*/0, /*degraded=*/false));
  const DistanceMatrix oracle = seq::apsp(g);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      const QueryAnswer a = snap.p2p(u, v);
      ASSERT_EQ(a.status, RowStatus::kExact);
      ASSERT_EQ(a.dist, oracle.at(u, v));
      if (u == v || a.dist == kInfDist) continue;
      ASSERT_NE(a.next_hop, kNoNextHop);
      ASSERT_TRUE(g.has_edge(u, a.next_hop));
      ASSERT_EQ(oracle.at(a.next_hop, v), a.dist - 1);
    }
  }
  expect_flat_encoding_matches_nested_rows(svc, build_distance_labels(g, 1));
}

// Churn writes served cells one at a time (the cell repair, re-pointed
// hops, a leaver's zeroed row) and restore copies the served section back
// row by row; the source-major tables must still encode like the nested
// rows of the same cells.
TEST(QueryBlob, ChurnedAndRestoredServiceHopsEncodeLikeNestedRows) {
  const Graph g = gen::random_connected(16, 12, 21);
  DapspService svc(g);
  DeltaPlanConfig pc;
  pc.seed = 31;
  DeltaPlan plan(pc);
  bool joined = false, left = false;
  for (int e = 0; e < 12; ++e) {
    const ChurnBatch batch = plan.next(svc.dynamic_graph());
    for (const GraphDelta& d : batch.deltas) {
      joined |= d.kind == DeltaKind::kNodeJoin;
      left |= d.kind == DeltaKind::kNodeLeave;
    }
    svc.step(batch);
  }
  ASSERT_TRUE(joined);
  ASSERT_TRUE(left);
  const DistanceLabeling lab = build_distance_labels(g, 1);
  expect_flat_encoding_matches_nested_rows(svc, lab);

  const DapspService twin =
      DapspService::restore_blob(svc.checkpoint_blob(), {}, nullptr);
  expect_flat_encoding_matches_nested_rows(twin, lab);
  EXPECT_EQ(encode_query_snapshot(twin, 0, false),
            encode_query_snapshot(svc, 0, false));
}

// ----------------------------------------------- differential churn validation

// The seeded sweep: 200 graph x churn configurations. Every snapshot the
// service publishes (mid-epoch degraded ones included) is validated in the
// sink, answer by answer, against the post-batch oracle and the service's
// own query path.
class ValidatingSink final : public SnapshotSink {
 public:
  void on_snapshot(const DapspService& svc, bool degraded) override {
    const std::vector<std::uint8_t> blob =
        encode_query_snapshot(svc, sequence_++, degraded);
    const QuerySnapshot snap = QuerySnapshot::from_blob(blob);
    EXPECT_EQ(snap.epoch(), svc.epoch());
    EXPECT_EQ(snap.degraded(), degraded);
    const DistanceMatrix oracle = oracle_table(svc.dynamic_graph());
    fresh_checked += validate_snapshot(snap, oracle, &svc);
    if (degraded) ++degraded_publishes;
  }

  std::size_t fresh_checked = 0;
  std::size_t degraded_publishes = 0;

 private:
  std::uint64_t sequence_ = 0;
};

TEST(QueryDifferential, TwoHundredSeededGraphChurnConfigs) {
  std::size_t total_fresh = 0;
  std::size_t total_degraded = 0;
  for (std::uint64_t cfg = 0; cfg < 200; ++cfg) {
    const NodeId n = static_cast<NodeId>(6 + cfg % 9);          // 6..14
    const NodeId extra = static_cast<NodeId>(cfg % 7);
    const Graph g = gen::random_connected(n, extra, 100 + cfg);

    ValidatingSink sink;
    ServiceConfig sc;
    sc.snapshot_sink = &sink;
    if (cfg % 5 == 0) sc.scrub_every = 2;
    DapspService svc(g, sc);

    DeltaPlanConfig pc;
    pc.seed = 1000 + cfg;
    pc.max_batch = 1 + static_cast<std::uint32_t>(cfg % 4);
    pc.crash_prob = (cfg % 3 == 0) ? 0.2 : 0.0;
    DeltaPlan plan(pc);
    for (int e = 0; e < 3; ++e) {
      const ChurnBatch batch = plan.next(svc.dynamic_graph());
      svc.step(batch);
    }
    EXPECT_GT(sink.fresh_checked, 0u) << "config " << cfg;
    total_fresh += sink.fresh_checked;
    total_degraded += sink.degraded_publishes;
  }
  // The sweep must actually exercise both publish points.
  EXPECT_GT(total_fresh, 0u);
  EXPECT_GT(total_degraded, 0u);
}

// The deterministic race regression (no threads): a join makes one cell of
// every clean row wrong until the patch lands, and edge churn invalidates
// whole rows — at the mid-epoch publish point neither may hide behind
// kExact. ValidatingSink::on_snapshot asserts exactly that, so this test
// just drives the scenario; it fails loudly if the service ever publishes a
// fresh-claiming row with a pre-batch value.
TEST(QueryDifferential, MidEpochPublishNeverOverclaims) {
  // Path 0-1-2-3-4 plus a chord; crash 2, then rejoin it with fresh
  // attachments in one batch (join + incident inserts).
  const Graph g(5, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {0, 4}});

  ValidatingSink sink;
  ServiceConfig sc;
  sc.snapshot_sink = &sink;
  DapspService svc(g, sc);

  ChurnBatch crash;
  crash.crashes.push_back(2);
  svc.step(crash);

  ChurnBatch rejoin;
  rejoin.deltas.push_back({DeltaKind::kNodeJoin, 2, 2});
  rejoin.deltas.push_back({DeltaKind::kEdgeInsert, 2, 0});
  rejoin.deltas.push_back({DeltaKind::kEdgeInsert, 2, 4});
  svc.step(rejoin);

  // A distance-changing removal (the chord) for good measure.
  ChurnBatch remove;
  remove.deltas.push_back({DeltaKind::kEdgeRemove, 0, 4});
  svc.step(remove);

  EXPECT_GE(sink.degraded_publishes, 2u);
  EXPECT_TRUE(svc.fully_certified());
}

// Attaching a sink must not perturb the service: same seed with and without
// a sink ends bit-identical.
TEST(QueryDifferential, SinkIsObservationOnly) {
  const Graph g = gen::random_connected(12, 8, 17);
  ValidatingSink sink;
  ServiceConfig with;
  with.snapshot_sink = &sink;
  DapspService a(g, with);
  DapspService b(g, {});

  DeltaPlanConfig pc;
  pc.seed = 77;
  DeltaPlan pa(pc), pb(pc);
  for (int e = 0; e < 5; ++e) {
    a.step(pa.next(a.dynamic_graph()));
    b.step(pb.next(b.dynamic_graph()));
  }
  EXPECT_TRUE(std::ranges::equal(a.served_dist().cells(),
                                 b.served_dist().cells()));
  EXPECT_TRUE(std::equal(a.row_statuses().begin(), a.row_statuses().end(),
                         b.row_statuses().begin()));
}

// ------------------------------------------------------------- SnapshotStore

std::unique_ptr<const QuerySnapshot> make_snap(const Graph& g,
                                               std::uint64_t seq) {
  const DistanceMatrix dist = seq::apsp(g);
  const std::vector<std::uint8_t> active(g.num_nodes(), 1);
  const std::vector<RowStatus> status = all_exact(g.num_nodes());
  return std::make_unique<const QuerySnapshot>(
      QuerySnapshot::from_blob(encode_query_snapshot_tables(
          dist, nullptr, active, status, seq, seq, false)));
}

TEST(SnapshotStore, PinKeepsRetiredSnapshotAliveAcrossSwaps) {
  const Graph g = gen::random_connected(8, 4, 3);
  SnapshotStore store;
  SnapshotReader reader(store);
  EXPECT_FALSE(reader.acquire());  // nothing published yet

  store.publish(make_snap(g, 1));
  SnapshotRef pinned = reader.acquire();
  ASSERT_TRUE(pinned);
  EXPECT_EQ(pinned->sequence(), 1u);

  // Swap twice while the first snapshot is pinned: it must stay readable
  // (ASan would flag a premature free) and unreclaimed.
  store.publish(make_snap(g, 2));
  store.publish(make_snap(g, 3));
  EXPECT_EQ(store.swaps(), 3u);
  EXPECT_GE(store.retired_pending(), 1u);
  EXPECT_EQ(pinned->sequence(), 1u);
  EXPECT_EQ(pinned->p2p(0, 1).status, RowStatus::kExact);

  // A fresh acquire on the same reader... requires releasing the pin first
  // (one outstanding ref per reader).
  pinned.release();
  SnapshotRef current = reader.acquire();
  ASSERT_TRUE(current);
  EXPECT_EQ(current->sequence(), 3u);
  current.release();

  // With no pins, the next publish reclaims the whole backlog.
  store.publish(make_snap(g, 4));
  EXPECT_EQ(store.retired_pending(), 0u);
}

TEST(SnapshotStore, ReaderSlotsAreClaimedAndReleased) {
  SnapshotStore store;
  std::vector<std::unique_ptr<SnapshotReader>> readers;
  for (std::size_t i = 0; i < kMaxSnapshotReaders; ++i) {
    readers.push_back(std::make_unique<SnapshotReader>(store));
  }
  EXPECT_THROW(SnapshotReader extra(store), std::runtime_error);
  readers.pop_back();
  EXPECT_NO_THROW(SnapshotReader again(store));
}

// 1/2/8 reader threads validating answers (including mid-swap ones) while
// the writer churns the service and swaps snapshots through the store.
// Run under TSan via check.sh --tsan.
void run_concurrent_soak(unsigned reader_count) {
  constexpr int kEpochs = 40;
  const Graph g = gen::random_connected(16, 10, 33);

  SnapshotStore store;
  ServingPublisher publisher(store);
  ServiceConfig sc;
  sc.snapshot_sink = &publisher;

  // oracles[e] is written by the writer before any snapshot at epoch e can
  // be published; readers only index it through a pinned snapshot's epoch.
  std::vector<DistanceMatrix> oracles(kEpochs + 1);
  std::atomic<bool> done{false};
  std::atomic<std::uint64_t> validated{0};

  DynamicGraph shadow(g);
  oracles[0] = oracle_table(shadow);
  DapspService svc(g, sc);

  std::vector<std::thread> readers;
  for (unsigned t = 0; t < reader_count; ++t) {
    readers.emplace_back([&, t] {
      SnapshotReader reader(store);
      Rng rng(900 + t);
      while (!done.load(std::memory_order_acquire)) {
        std::uint64_t local = 0;
        SnapshotRef ref = reader.acquire();
        if (!ref) continue;
        const DistanceMatrix& oracle = oracles[ref->epoch()];
        const NodeId n = ref->n();
        for (int i = 0; i < 64; ++i) {
          const NodeId u = static_cast<NodeId>(rng.below(n));
          const NodeId v = static_cast<NodeId>(rng.below(n));
          const QueryAnswer a = ref->p2p(u, v);
          if (!a.active || a.status == RowStatus::kStale) continue;
          ASSERT_EQ(a.dist, oracle.at(u, v))
              << "overclaim at epoch " << ref->epoch() << " (" << u << ", "
              << v << ")";
          ++local;
        }
        const NodeId u = static_cast<NodeId>(rng.below(n));
        const EccentricityAnswer ec = ref->eccentricity(u);
        if (ec.active && ec.status != RowStatus::kStale) {
          std::uint32_t naive = 0;
          for (NodeId v = 0; v < n; ++v) {
            if (!ref->active(v)) continue;
            const std::uint32_t d = oracle.at(v, u);
            if (d != kInfDist) naive = std::max(naive, d);
          }
          ASSERT_EQ(ec.ecc, naive);
          ++local;
        }
        validated.fetch_add(local, std::memory_order_relaxed);
      }
    });
  }

  DeltaPlanConfig pc;
  pc.seed = 4242 + reader_count;
  pc.max_batch = 3;
  DeltaPlan plan(pc);
  for (int e = 1; e <= kEpochs; ++e) {
    const ChurnBatch batch = plan.next(svc.dynamic_graph());
    apply_batch(shadow, batch);
    oracles[static_cast<std::size_t>(e)] = oracle_table(shadow);
    svc.step(batch);
  }
  // Don't shut down before every reader has actually validated something —
  // with many readers the churn loop can outrun thread start-up.
  for (int spin = 0; spin < 4000 && validated.load() < reader_count; ++spin) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  done.store(true, std::memory_order_release);
  for (std::thread& th : readers) th.join();

  EXPECT_GE(store.swaps(), static_cast<std::uint64_t>(kEpochs));
  EXPECT_GT(validated.load(), 0u);
}

TEST(SnapshotStoreConcurrent, OneReaderUnderChurn) { run_concurrent_soak(1); }
TEST(SnapshotStoreConcurrent, TwoReadersUnderChurn) { run_concurrent_soak(2); }
TEST(SnapshotStoreConcurrent, EightReadersUnderChurn) {
  run_concurrent_soak(8);
}

// ---------------------------------------------------------------- LabelCache

TEST(LabelCache, MatchesUncachedEstimatesAndEvicts) {
  const Graph g = gen::random_connected(20, 12, 11);
  const DistanceLabeling lab = build_distance_labels(g, 2);
  const QuerySnapshot snap =
      QuerySnapshot::from_blob(encode_static(g, &lab));

  LabelCache cache(2);
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(cache.estimate(snap, u, v), snap.label_estimate(u, v));
    }
  }
  // Row-major sweep: each source is a miss once, then hits for the rest of
  // its row (capacity 2 keeps the current source resident).
  EXPECT_EQ(cache.misses(), g.num_nodes());
  EXPECT_GT(cache.hits(), 0u);

  const std::uint64_t misses_before = cache.misses();
  cache.estimate(snap, 0, 1);  // evicted long ago -> one more miss
  EXPECT_EQ(cache.misses(), misses_before + 1);

  LabelCache none(0);
  EXPECT_EQ(none.estimate(snap, 1, 2), snap.label_estimate(1, 2));
  EXPECT_EQ(none.hits(), 0u);

  const QuerySnapshot plain = QuerySnapshot::from_blob(encode_static(g));
  EXPECT_THROW(cache.estimate(plain, 0, 1), std::logic_error);
}

}  // namespace
}  // namespace dapsp::core
