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
#include <optional>
#include <set>
#include <span>
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

  // Seeding entry point for the cell-level repair (core/repair.h): the loop
  // starts from a known table instead of the sources' zeros. seed() presets
  // delta to `dist` (one entry per source, kInfDist = unknown) before the loop
  // starts, owing nothing; owe() then queues the current claim of source
  // `src` on edge `edge`. A seeded machine runs Algorithm 2's (dist, id)
  // edge priority and min-merge unchanged: a claim that improves delta is
  // adopted, with the sender as parent, and forwarded on every other edge.
  void seed(std::uint32_t degree, std::span<const std::uint32_t> dist);
  void owe(std::uint32_t src, std::uint32_t edge);
  // No claim owed on any edge and none awaiting resolution: the machine
  // sends nothing until a claim arrives. Meaningful after advance().
  bool quiet() const;

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
  // The paper's lists L_i, one per neighbor i, ordered by (distance, id): the
  // edge priority. The extended abstract orders by id alone, but id-only
  // priority provably cannot deliver exact distances (see the header note);
  // (dist, id) order is the classical source-detection fix and preserves the
  // paper's delay-charging argument verbatim.
  //
  // L_i is stored flat, as bits, in degree x n + L x n bits per node:
  //   * owed_: bit (i, s) says "the current claim (delta_[s], s) is queued on
  //     edge i". A source has at most one claim queued per edge, so one bit is
  //     all the membership state L_i needs.
  //   * buckets_: a dist-bucket queue shared by every edge. The row of bucket
  //     d holds only sources with delta_[s] == d, and every such source that
  //     is owed on some edge. L (live buckets) is the distance window of
  //     claims still in transit; with S = V it peaks at 2 on paths and trees,
  //     4-10 on random graphs and 36 on a 32x32 grid.
  // So (d, s) is in L_i iff bit s is set in both bucket d's row and edge i's
  // owed row, and L_i's head — the lowest (dist, id) — is the first set bit of
  // (bucket row AND owed row) in the lowest bucket: a word scan, with no
  // per-edge copy of any key. The rows change only as follows:
  //   * learning or improving s owes (delta_[s], s) on every edge but the
  //     sender's and puts s in its bucket; an improvement first takes s out
  //     of its old bucket and clears the sender's bit;
  //   * a successful send clears bit (i, s) unless delta_[s] has improved
  //     since (the bit then already stands for the improved claim);
  //   * with a cap, evicting s clears its bucket bit and its bit on every edge.
  // A retired claim never comes back: a bit is only set when delta_[s]
  // changes, and without a cap delta_[s] only falls. With a cap an evicted
  // source that is learned again is owed afresh, like a first learn.
  //
  // Per edge, (cursor_dist_[i], cursor_word_[i]) is a lower bound on L_i's
  // head: front() resumes its scan there and owing a source below it moves it
  // down. A bucket below every edge's cursor holds no owed claim, so
  // release_buckets() recycles its row.
  std::uint32_t degree_ = 0;
  std::uint32_t words_ = 0;  // 64-bit words per n-bit row
  std::vector<std::uint64_t> owed_;
  struct Bucket {
    std::uint32_t dist;
    std::uint32_t slot;  // row index in bucket_bits_
  };
  std::vector<Bucket> buckets_;  // ascending dist
  std::vector<std::uint64_t> bucket_bits_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<std::uint32_t> cursor_dist_;  // kInfDist: L_i is empty
  std::vector<std::uint32_t> cursor_word_;
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

  void ensure_storage(std::uint32_t degree);
  void learn(std::uint32_t src, std::uint32_t dist, std::uint32_t from_index);
  void merge_pending();
  void resolve_success(std::uint32_t i);

  std::uint64_t* owed_row(std::uint32_t i) {
    return &owed_[std::size_t{i} * words_];
  }
  std::uint64_t* bucket_row(std::uint32_t slot) {
    return &bucket_bits_[std::size_t{slot} * words_];
  }
  static std::uint64_t bit_of(std::uint32_t s) {
    return std::uint64_t{1} << (s & 63);
  }
  // The row of bucket `dist`, created if absent.
  std::uint64_t* bucket_for(std::uint32_t dist);
  // Takes s out of the bucket of its current delta_[s] (if that is live).
  void unbucket(std::uint32_t s);
  // Queues (delta_[s], s) on edge j; s must already sit in its bucket.
  void owe_on(std::uint32_t j, std::uint32_t s);
  // Queues (delta_[s], s) on every edge but `skip` (which stays as it is).
  void owe_except(std::uint32_t s, std::uint32_t skip);
  // Recycles the buckets below every edge's cursor.
  void release_buckets();
  // The head of L_i, or nullopt if L_i is empty.
  std::optional<Entry> front(std::uint32_t i);

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
