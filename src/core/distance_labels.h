// Distance labeling / All-Pairs Almost Shortest Paths (the Section 3.2
// connection, built from the paper's own machinery).
//
// The paper relates S-SP to APASP_k (all distances overestimated by at most
// an additive k) and to distance oracles. Composing its tools gives a
// label-based APASP scheme:
//
//   1. build a k-dominating set DOM (|DOM| <= n/(k+1) + 1; Lemma 10),
//   2. solve DOM-SP with Algorithm 2 (O(|DOM| + D) rounds; Theorem 3);
//      afterwards each node v holds the label L(v) = { (s, d(v,s)) : s in
//      DOM } of size |DOM|,
//   3. any two labels answer queries locally:
//        est(u, v) = min_{s in DOM} d(u,s) + d(s,v)
//      with d(u,v) <= est(u,v) <= d(u,v) + 2k  (u's dominator is within k,
//      and the triangle inequality gives the rest) — an APASP_{2k} oracle.
//
// Total construction: O(n/k + D + k) rounds, versus Theta(n) for exact APSP
// — the trade the paper's Section 3.2 discusses.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "congest/engine.h"
#include "graph/graph.h"
#include "util/table.h"

namespace dapsp::core {

class DistanceLabeling {
 public:
  // d(u,v) <= estimate(u,v) <= d(u,v) + 2k on a connected graph with
  // complete labels. Incomplete labels (no dominator finite in both — only
  // possible on corrupted or hand-built label sets, since construction
  // requires connectivity) answer kInfDist rather than inventing a finite
  // value; the addition saturates at the kInfDist sentinel, so near-max or
  // damaged entries can never wrap into a tiny bogus estimate.
  std::uint32_t estimate(NodeId u, NodeId v) const;

  // The label-combination core, exposed for the query tier and for boundary
  // tests: min_i sat_add_dist(lu[i], lv[i]), kInfDist when the spans share
  // no finite dominator entry. Requires lu.size() == lv.size().
  static std::uint32_t combine(std::span<const std::uint32_t> lu,
                               std::span<const std::uint32_t> lv) noexcept;

  std::uint32_t k() const { return k_; }
  const std::vector<NodeId>& dominators() const { return dom_; }
  // Words per node label (= |DOM| entries of (id, distance)).
  std::size_t label_entries() const { return dom_.size(); }
  // d(v, dom_[i]) for every dominator, in dominator order.
  std::span<const std::uint32_t> label(NodeId v) const { return labels_[v]; }
  const congest::RunStats& stats() const { return stats_; }

 private:
  friend DistanceLabeling build_distance_labels(const Graph&, std::uint32_t,
                                                const congest::EngineConfig&);
  std::uint32_t k_ = 0;
  std::vector<NodeId> dom_;
  // labels_[v][i] = d(v, dom_[i]): n x |DOM|.
  Table<std::uint32_t> labels_;
  congest::RunStats stats_;
};

// Builds the labeling with slack parameter k (k = 0 degenerates to exact
// APSP via Algorithm 2 with S = V: every tree level survives the residue
// pick, so DOM = V and the estimate is the true distance). Connected graphs
// only: disconnected inputs throw std::invalid_argument up front (the
// alternative — partial labels that silently answer kInfDist across the cut
// — is exactly the kind of half-state the serving tier must never publish).
// The Lemma 10 bound |DOM| <= floor(n/(k+1)) + 1 and full per-node labels
// are verified before returning; violations throw std::logic_error.
DistanceLabeling build_distance_labels(const Graph& g, std::uint32_t k,
                                       const congest::EngineConfig& cfg = {});

}  // namespace dapsp::core
