// Algorithm 2 of the paper: S-Shortest Paths in O(|S| + D) rounds.
//
// All |S| BFS floods start in the same round. On every edge and in every
// round, each endpoint offers the highest-priority (source, distance) claim
// it still owes that neighbor (the per-neighbor lists L_i of the paper); a
// transmission succeeds unless the neighbor simultaneously sends a higher-
// priority one. Theorem 3: each flood is delayed at most once per higher-
// priority source, so after O(|S| + D0) loop rounds (D0 = 2*ecc(leader) >= D,
// broadcast beforehand) every node knows its exact distance to every source.
//
// REPRODUCTION NOTE (documented in DESIGN.md): the extended abstract's
// pseudocode prioritizes by source id alone and updates delta on first
// receipt. Implemented literally, this computes wrong distances: wavefronts
// of one flood can reach a node in the same round with different claimed
// distances (a shorter path can be priority-delayed while a longer one is
// not), and an id-priority tie can retire a stale claim on both sides of an
// edge. We therefore (a) prioritize claims lexicographically by
// (distance, id) — the classical "source detection" discipline, for which
// the paper's delay-charging argument holds verbatim — and (b) min-merge
// claims per round, re-propagating corrections. Tests assert exactness on
// the full suite; the bench_ssp audit reports how often corrections fire.
//
// SspMachine is the embeddable core (also used by the Theorem 4 / Theorem 5
// approximation protocols and by Algorithm 3); run_ssp() is the standalone
// driver: tree build -> parameter broadcast -> synchronized loop -> harvest.
#pragma once

#include <cstdint>
#include <set>
#include <vector>

#include "congest/engine.h"
#include "core/certify.h"
#include "core/primitives/bfs_process.h"
#include "graph/graph.h"
#include "util/table.h"

namespace dapsp::core {

// The synchronized token-exchange loop of Algorithm 2 (lines 13-31).
// The owner process must:
//   * construct with `in_s` (whether this node is a source),
//   * call configure() once the loop start round and length are known
//     (they must be identical at every node),
//   * call handle() for every inbox message and advance() once per round.
class SspMachine {
 public:
  SspMachine(NodeId id, NodeId n, bool in_s);

  // Loop schedule used by every driver: the paper runs |S| + D0 rounds
  // (Theorem 3), but its charging argument misses two effects observable in
  // our traces: (a) wavefronts of one flood can arrive in the same round
  // with different claimed distances, and (b) a smaller id can delay a
  // larger one twice — once by sitting ahead in a list and once by an "echo"
  // collision when a node re-offers an already-known id back across an edge.
  // Doubling the schedule (still O(|S| + D)) restores exactness; tests
  // verify correctness within it on the whole suite. This is a documented
  // reproduction finding (see DESIGN.md / EXPERIMENTS.md).
  static std::uint64_t schedule_length(std::uint64_t s_count,
                                       std::uint64_t d0) {
    return 2 * (s_count + d0) + 4;
  }

  void configure(std::uint64_t start_round, std::uint64_t loop_rounds);
  bool configured() const { return configured_; }

  // Source membership may be decided late (e.g. Algorithm 3 recruits the
  // neighborhood of the elected node), but only before the loop starts.
  void set_in_s(bool in_s);

  // Truncated source detection: keep (and forward) only the `cap` sources
  // with lexicographically smallest (distance, id). With a cap, each node's
  // final delta describes exactly its cap nearest sources — the partial
  // "s-BFS from every node" primitive of the Aingworth-style (x,3/2)
  // diameter approximation (Section 3.3 / the ICALP'12 companion [33]).
  // Call before the loop starts. 0 = unlimited (default).
  void set_cap(std::uint32_t cap);

  // With a cap: the learned sources, ascending by (distance, id), and the
  // distance of the worst one (the "radius" of the partial BFS ball).
  std::vector<std::pair<std::uint32_t, std::uint32_t>> nearest_sources() const;

  // Consumes kSspToken messages. Call for every inbox entry.
  bool handle(congest::RoundCtx& ctx, const congest::Received& r);
  // Performs this round's sends; call after the inbox has been handled.
  void advance(congest::RoundCtx& ctx);

  // True once the loop (including the trailing receive round) is over.
  bool finished(std::uint64_t round) const {
    return configured_ && round > start_round_ + loop_rounds_;
  }

  // delta[u]: distance to source u (kInfDist if u is not a source or the
  // flood did not arrive within the loop).
  const std::vector<std::uint32_t>& delta() const { return delta_; }
  // parent_index[u]: neighbor index toward source u (kNoParent if none);
  // the trees T_u of the paper, stored distributedly.
  const std::vector<std::uint32_t>& parent_index() const { return parent_; }
  // Smallest cycle witness observed (Lemma 7 rule applied to the S floods):
  // min over duplicate receipts of delta[u] + claimed distance. kInfDist if
  // none. Genuine upper bound on the girth; at most girth + 2*max_s d(s, C)
  // for the minimum cycle C (used by Theorem 5).
  std::uint32_t girth_witness() const { return girth_witness_; }
  // Largest finite delta (used by Theorem 4's eccentricity estimate).
  std::uint32_t max_delta() const;

  // How often a known source's distance was improved by a later claim (see
  // the min-merge note in ssp.cc). Exposed for tests/benches.
  std::uint64_t late_improvements() const { return late_improvements_; }

 private:
  using Entry = std::pair<std::uint32_t, std::uint32_t>;  // (dist, id)

  NodeId id_;
  NodeId n_;
  bool in_s_;
  bool configured_ = false;
  std::uint64_t start_round_ = 0;
  std::uint64_t loop_rounds_ = 0;

  std::vector<std::uint32_t> delta_;
  std::vector<std::uint32_t> parent_;
  std::vector<std::uint8_t> in_l_;
  // L_i per neighbor, ordered by (distance, id): the edge priority. The
  // extended abstract orders by id alone, but id-only priority provably
  // cannot deliver exact distances (see the header note); (dist, id) order
  // is the classical source-detection fix and preserves the paper's
  // delay-charging argument verbatim.
  std::vector<std::set<Entry>> lists_;
  std::vector<std::uint32_t> last_sent_;       // id sent last round per nbr
  std::vector<std::uint32_t> last_sent_dist_;  // wire distance it carried
  std::vector<std::uint8_t> heard_from_;  // token received this round
  std::uint32_t girth_witness_ = kInfDist;
  std::uint64_t late_improvements_ = 0;
  bool storage_ready_ = false;
  std::uint32_t cap_ = 0;            // 0 = unlimited
  std::set<Entry> learned_;          // (dist, id), maintained only with a cap

  struct PendingReceipt {
    std::uint32_t src;
    std::uint32_t dist;
    std::uint32_t from_index;
  };

  void ensure_storage(congest::RoundCtx& ctx);
  void learn(std::uint32_t src, std::uint32_t dist, std::uint32_t from_index);
  void merge_pending();
  void resolve_success(std::uint32_t i);

  std::vector<PendingReceipt> pending_;        // this round's accepted claims
  std::vector<std::uint32_t> fresh_this_round_;  // sources first seen now
};

struct SspOptions {
  congest::EngineConfig engine{};
};

struct SspResult {
  std::vector<NodeId> sources;
  // delta[v][u] for u in 0..n-1: distance from v to u if u is a source
  // (kInfDist otherwise). n x n for any |S|: each node's SspMachine already
  // holds n-sized state, so the harvest copies rows as they are.
  Table<std::uint32_t> delta;
  // parent_index[v][u]: index (in v's adjacency list) of v's parent in
  // source u's BFS tree T_u (kNoParent if v learned no distance to u, or
  // v == u) — the distributedly stored trees of Remark 4, harvested so that
  // callers (core/repair.h) can rebuild next-hop tables from repaired rows.
  Table<std::uint32_t> parent_index;
  std::uint32_t leader_ecc = 0;
  std::uint32_t d0 = 0;                  // the broadcast 2*ecc(leader) bound
  std::uint64_t loop_rounds = 0;         // schedule_length(|S|, D0)
  std::uint32_t min_girth_witness = kInfDist;  // min over nodes
  std::uint64_t total_late_improvements = 0;   // summed over nodes

  // Crash survival (DESIGN.md §10): kDegraded when nodes crashed or the
  // failure detector fired; delta is then partial, `coverage` (one entry per
  // element of `sources`) says how partial over the surviving nodes.
  congest::RunStatus status = congest::RunStatus::kCompleted;
  std::vector<std::uint8_t> survived;   // per node: 1 = alive at harvest
  std::vector<RowCoverage> coverage;    // per source, over survivors
  std::vector<NodeId> degraded_nodes;   // survivors that saw a failure notice

  congest::RunStats stats;
};

// Runs Algorithm 2 on a connected graph with the given source set
// (`in_s[v]` per node — each node only knows its own membership, as in the
// paper; |S| is counted by the tree echo).
SspResult run_ssp(const Graph& g, std::span<const NodeId> sources,
                  const SspOptions& options = {});

}  // namespace dapsp::core
