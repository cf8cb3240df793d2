#include "core/distance_labels.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "core/kdom.h"
#include "core/ssp.h"
#include "seq/bfs.h"

namespace dapsp::core {

std::uint32_t DistanceLabeling::combine(
    std::span<const std::uint32_t> lu,
    std::span<const std::uint32_t> lv) noexcept {
  std::uint32_t best = kInfDist;
  for (std::size_t i = 0; i < lu.size(); ++i) {
    // sat_add_dist absorbs the kInfDist sentinel and clamps near-max sums:
    // the old plain u32 addition here wrapped (inf + anything, or two
    // half-range distances) into a tiny bogus estimate.
    best = std::min(best, sat_add_dist(lu[i], lv[i]));
  }
  return best;
}

std::uint32_t DistanceLabeling::estimate(NodeId u, NodeId v) const {
  if (u == v) return 0;
  return combine(labels_[u], labels_[v]);
}

DistanceLabeling build_distance_labels(const Graph& g, std::uint32_t k,
                                       const congest::EngineConfig& cfg) {
  const NodeId n = g.num_nodes();
  if (n == 0) {
    throw std::invalid_argument("build_distance_labels: empty graph");
  }
  // Fail fast on disconnected inputs: the distributed construction below
  // would otherwise stall until the round watchdog trips (an opaque
  // RoundLimitError) or, worse, harvest partial labels. A cheap sequential
  // BFS probe names the problem instead.
  {
    const std::vector<std::uint32_t> d = seq::bfs(g, 0).dist;
    const auto unreachable =
        std::find(d.begin(), d.end(), kInfDist) - d.begin();
    if (static_cast<std::size_t>(unreachable) < d.size()) {
      throw std::invalid_argument(
          "build_distance_labels: graph is disconnected (node " +
          std::to_string(unreachable) +
          " is unreachable from the leader); labels would be partial");
    }
  }

  DistanceLabeling out;
  out.k_ = k;

  // Phase 1: k-dominating set (Lemma 10 substitute), O(D + k) rounds.
  // k = 0 is the degenerate exact path: one residue class, every node a
  // member, DOM = V (and the bound below becomes |DOM| <= n + 1).
  const KdomResult dom = run_kdom(g, k, cfg);
  out.dom_ = dom.dom;
  out.stats_ = dom.stats;

  // Lemma 10: |DOM| <= floor(n/(k+1)) + 1. k+1 >= 1, so the division is
  // well-defined for every k including 0.
  const std::uint64_t dom_bound =
      std::uint64_t{n} / (std::uint64_t{k} + 1) + 1;
  if (out.dom_.empty() || out.dom_.size() > dom_bound) {
    throw std::logic_error(
        "build_distance_labels: dominating set violates the Lemma 10 bound "
        "(|DOM| = " +
        std::to_string(out.dom_.size()) + ", bound " +
        std::to_string(dom_bound) + ", k = " + std::to_string(k) + ")");
  }

  // Phase 2: DOM-SP (Algorithm 2), O(|DOM| + D) rounds.
  SspOptions so;
  so.engine = cfg;
  const SspResult ssp = run_ssp(g, out.dom_, so);
  congest::accumulate(out.stats_, ssp.stats);

  // Harvest per-node labels, indexed by dominator order. Each label holds
  // exactly |DOM| entries — no over-reservation on the k = 0 (DOM = V)
  // path beyond the n entries the exact oracle genuinely needs.
  out.labels_ = Table<std::uint32_t>(n, out.dom_.size());
  for (NodeId v = 0; v < n; ++v) {
    for (std::size_t i = 0; i < out.dom_.size(); ++i) {
      out.labels_.set(v, i, ssp.delta.at(v, out.dom_[i]));
    }
  }
  // Connected input + verified DOM ⇒ every label entry is finite; a hole
  // here means the S-SP schedule under-ran and the oracle would silently
  // degrade, so refuse to return it.
  const std::span<const std::uint32_t> cells = out.labels_.data();
  const auto hole = std::ranges::find(cells, kInfDist) - cells.begin();
  if (static_cast<std::size_t>(hole) < cells.size()) {
    throw std::logic_error(
        "build_distance_labels: incomplete label at node " +
        std::to_string(static_cast<std::size_t>(hole) / out.dom_.size()) +
        " despite a connected input");
  }
  return out;
}

}  // namespace dapsp::core
