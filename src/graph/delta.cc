#include "graph/delta.h"

#include <algorithm>
#include <iterator>
#include <stdexcept>
#include <string>

#include "util/blob.h"

namespace dapsp {

namespace {

constexpr NodeId kNone = 0xffffffffu;

void insert_sorted(std::vector<NodeId>& v, NodeId x) {
  v.insert(std::lower_bound(v.begin(), v.end(), x), x);
}

void erase_sorted(std::vector<NodeId>& v, NodeId x) {
  const auto it = std::lower_bound(v.begin(), v.end(), x);
  v.erase(it);
}

}  // namespace

const char* to_string(DeltaKind k) noexcept {
  switch (k) {
    case DeltaKind::kEdgeInsert:
      return "edge-insert";
    case DeltaKind::kEdgeRemove:
      return "edge-remove";
    case DeltaKind::kNodeJoin:
      return "node-join";
    case DeltaKind::kNodeLeave:
      return "node-leave";
  }
  return "?";
}

std::vector<std::uint8_t> encode_churn_batch(const ChurnBatch& b) {
  std::vector<std::uint8_t> out(4 + 9 * b.deltas.size() + 4 +
                                4 * b.crashes.size() + 4 + 8);
  ByteWriter w(out);
  w.u32(static_cast<std::uint32_t>(b.deltas.size()));
  for (const GraphDelta& d : b.deltas) {
    w.u8(static_cast<std::uint8_t>(d.kind));
    w.u32(d.u);
    w.u32(d.v);
  }
  w.u32(static_cast<std::uint32_t>(b.crashes.size()));
  for (const NodeId v : b.crashes) w.u32(v);
  w.u32(b.corrupt_flips);
  w.u64(b.corrupt_seed);
  return out;
}

ChurnBatch decode_churn_batch(std::span<const std::uint8_t> bytes) {
  ByteReader r(bytes, "decode_churn_batch");
  ChurnBatch b;
  const std::uint32_t n_deltas = r.u32();
  b.deltas.reserve(n_deltas);
  for (std::uint32_t i = 0; i < n_deltas; ++i) {
    GraphDelta d;
    const std::uint8_t kind = r.u8();
    if (kind > static_cast<std::uint8_t>(DeltaKind::kNodeLeave)) {
      throw std::runtime_error("decode_churn_batch: bad delta kind");
    }
    d.kind = static_cast<DeltaKind>(kind);
    d.u = r.u32();
    d.v = r.u32();
    b.deltas.push_back(d);
  }
  const std::uint32_t n_crashes = r.u32();
  b.crashes.reserve(n_crashes);
  for (std::uint32_t i = 0; i < n_crashes; ++i) b.crashes.push_back(r.u32());
  b.corrupt_flips = r.u32();
  b.corrupt_seed = r.u64();
  if (r.left() != 0) {
    throw std::runtime_error("decode_churn_batch: trailing bytes");
  }
  return b;
}

std::string to_string(const GraphDelta& d) {
  std::string s = to_string(d.kind);
  s += ' ';
  s += std::to_string(d.u);
  if (d.kind == DeltaKind::kEdgeInsert || d.kind == DeltaKind::kEdgeRemove) {
    s += '-';
    s += std::to_string(d.v);
  }
  return s;
}

DynamicGraph::DynamicGraph(NodeId universe)
    : n_(universe),
      active_count_(universe),
      active_(universe, 1),
      adj_(universe) {
  if (universe == 0) {
    throw std::invalid_argument("DynamicGraph: empty universe");
  }
}

DynamicGraph::DynamicGraph(const Graph& g) : DynamicGraph(g.num_nodes()) {
  for (const Edge& e : g.edges()) {
    insert_sorted(adj_[e.u], e.v);
    insert_sorted(adj_[e.v], e.u);
  }
  m_ = g.num_edges();
}

bool DynamicGraph::has_edge(NodeId u, NodeId v) const {
  if (u >= n_ || v >= n_) return false;
  const auto& a = adj_[u];
  return std::binary_search(a.begin(), a.end(), v);
}

bool DynamicGraph::can_apply(const GraphDelta& d) const noexcept {
  const NodeId u = d.u;
  const NodeId v = d.v;
  switch (d.kind) {
    case DeltaKind::kEdgeInsert:
      return u < n_ && v < n_ && u != v && active_[u] && active_[v] &&
             !has_edge(u, v);
    case DeltaKind::kEdgeRemove:
      return u < n_ && v < n_ && u != v && has_edge(u, v);
    case DeltaKind::kNodeJoin:
      return u < n_ && v == u && !active_[u];
    case DeltaKind::kNodeLeave:
      return u < n_ && v == u && active_[u];
  }
  return false;
}

void DynamicGraph::apply(const GraphDelta& d) {
  if (!can_apply(d)) {
    throw std::invalid_argument("DynamicGraph: cannot apply " + to_string(d) +
                                " (invalid against the current state)");
  }
  switch (d.kind) {
    case DeltaKind::kEdgeInsert:
      insert_sorted(adj_[d.u], d.v);
      insert_sorted(adj_[d.v], d.u);
      ++m_;
      break;
    case DeltaKind::kEdgeRemove:
      erase_sorted(adj_[d.u], d.v);
      erase_sorted(adj_[d.v], d.u);
      --m_;
      break;
    case DeltaKind::kNodeJoin:
      active_[d.u] = 1;
      ++active_count_;
      break;
    case DeltaKind::kNodeLeave:
      // Incident edges go with the node (the adjacency invariant: inactive
      // nodes are isolated).
      for (const NodeId w : adj_[d.u]) {
        erase_sorted(adj_[w], d.u);
      }
      m_ -= adj_[d.u].size();
      adj_[d.u].clear();
      active_[d.u] = 0;
      --active_count_;
      break;
  }
}

Graph DynamicGraph::snapshot() const {
  const std::vector<Edge> es = sorted_edges();
  return Graph(n_, std::span<const Edge>(es.data(), es.size()));
}

std::vector<Edge> DynamicGraph::sorted_edges() const {
  std::vector<Edge> es;
  es.reserve(m_);
  for (NodeId u = 0; u < n_; ++u) {
    for (const NodeId v : adj_[u]) {
      if (u < v) es.push_back(Edge{u, v});
    }
  }
  return es;  // u-major, v-minor: already sorted
}

bool DynamicGraph::connected_active() const {
  NodeId start = 0;
  while (start < n_ && !active_[start]) ++start;
  if (start == n_) return true;
  std::vector<std::uint8_t> seen(n_, 0);
  std::vector<NodeId> queue{start};
  seen[start] = 1;
  NodeId reached = 0;
  while (!queue.empty()) {
    const NodeId v = queue.back();
    queue.pop_back();
    ++reached;
    for (const NodeId w : adj_[v]) {
      if (seen[w]) continue;
      seen[w] = 1;
      queue.push_back(w);
    }
  }
  return reached == active_count_;
}

BatchDiff diff_batch(std::span<const Edge> edges_before,
                     std::span<const std::uint8_t> active_before,
                     const DynamicGraph& after) {
  const NodeId n = after.universe();
  if (active_before.size() != n) {
    throw std::invalid_argument(
        "diff_batch: activity mask does not match the universe");
  }
  BatchDiff d;
  for (NodeId v = 0; v < n; ++v) {
    if (after.active(v) && active_before[v] == 0) d.joined.push_back(v);
    if (!after.active(v) && active_before[v] != 0) d.left.push_back(v);
  }

  // Both edge lists are sorted u-major, v-minor, u < v.
  const std::vector<Edge> edges_after = after.sorted_edges();
  const auto edge_lt = [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  };
  std::vector<Edge> added, gone;
  std::ranges::set_difference(edges_after, edges_before,
                              std::back_inserter(added), edge_lt);
  std::ranges::set_difference(edges_before, edges_after,
                              std::back_inserter(gone), edge_lt);
  for (const Edge& e : added) {
    // Every endpoint of a post-batch edge is active.
    d.gained.emplace_back(e.u, e.v);
    d.gained.emplace_back(e.v, e.u);
    if (active_before[e.u] != 0 && active_before[e.v] != 0) {
      d.inserted.push_back(e);
    }
  }
  for (const Edge& e : gone) {
    // Every endpoint of a pre-batch edge was active.
    if (after.active(e.u)) d.lost.emplace_back(e.u, e.v);
    if (after.active(e.v)) d.lost.emplace_back(e.v, e.u);
    if (after.active(e.u) && after.active(e.v)) d.removed.push_back(e);
  }
  std::ranges::sort(d.lost);
  std::ranges::sort(d.gained);
  return d;
}

bool Connectivity::is_bridge(const Edge& e) const {
  return std::binary_search(bridges.begin(), bridges.end(),
                            std::make_pair(e.u, e.v));
}

Connectivity connectivity_structure(const DynamicGraph& g) {
  const NodeId n = g.universe();
  Connectivity cs;
  cs.is_cut.assign(n, 0);
  std::vector<std::uint32_t> disc(n, 0), low(n, 0);
  std::vector<NodeId> parent(n, kNone);
  std::vector<std::uint32_t> root_children(n, 0);
  std::uint32_t timer = 1;

  struct Frame {
    NodeId v;
    std::size_t next_child = 0;
  };
  std::vector<Frame> stack;
  for (NodeId r = 0; r < n; ++r) {
    if (!g.active(r) || disc[r] != 0) continue;
    disc[r] = low[r] = timer++;
    stack.push_back({r, 0});
    while (!stack.empty()) {
      Frame& f = stack.back();
      const NodeId v = f.v;
      const auto nbrs = g.neighbors(v);
      if (f.next_child < nbrs.size()) {
        const NodeId w = nbrs[f.next_child++];
        if (disc[w] == 0) {
          parent[w] = v;
          if (v == r) ++root_children[r];
          disc[w] = low[w] = timer++;
          stack.push_back({w, 0});
        } else if (w != parent[v]) {
          low[v] = std::min(low[v], disc[w]);
        }
      } else {
        stack.pop_back();
        const NodeId p = parent[v];
        if (p != kNone) {
          low[p] = std::min(low[p], low[v]);
          if (low[v] > disc[p]) {
            cs.bridges.emplace_back(std::min(p, v), std::max(p, v));
          }
          if (p != r && low[v] >= disc[p]) cs.is_cut[p] = 1;
        }
      }
    }
    if (root_children[r] >= 2) cs.is_cut[r] = 1;
  }
  std::sort(cs.bridges.begin(), cs.bridges.end());
  return cs;
}

namespace {

// Relative weights of insert, remove, join and leave.
constexpr double kKindWeight[4] = {1.0, 1.0, 0.5, 0.5};
// Edges a joining node attaches with (capped by the active population).
constexpr std::uint32_t kJoinAttachments = 2;
// Stored entries one corruption event flips.
constexpr std::uint32_t kCorruptEntries = 2;

}  // namespace

DeltaPlan::DeltaPlan(const DeltaPlanConfig& config)
    : config_(config), rng_(config.seed) {
  if (config.max_batch == 0) {
    throw std::invalid_argument("DeltaPlanConfig: max_batch must be >= 1");
  }
}

std::vector<NodeId> DeltaPlan::droppable(const DynamicGraph& g) const {
  std::vector<NodeId> cands;
  if (g.num_active() <= config_.min_active) return cands;
  const Connectivity cs = connectivity_structure(g);
  for (NodeId v = 0; v < g.universe(); ++v) {
    if (g.active(v) && !cs.is_cut[v]) cands.push_back(v);
  }
  return cands;
}

bool DeltaPlan::draw_delta(DynamicGraph& work, std::vector<GraphDelta>& out) {
  const NodeId active = work.num_active();
  // Cheap feasibility screen; realization may still come up empty (e.g.
  // every edge is a bridge), in which case the kind's weight is zeroed and
  // the draw repeats — all from the same deterministic stream.
  double w[4];
  const std::uint64_t pairs =
      static_cast<std::uint64_t>(active) * (active > 0 ? active - 1 : 0) / 2;
  w[0] = (active >= 2 && work.num_edges() < pairs) ? kKindWeight[0] : 0.0;
  w[1] = work.num_edges() > 0 ? kKindWeight[1] : 0.0;
  w[2] = (work.universe() > active) ? kKindWeight[2] : 0.0;
  w[3] = (active > config_.min_active) ? kKindWeight[3] : 0.0;

  for (int attempt = 0; attempt < 4; ++attempt) {
    const double total = w[0] + w[1] + w[2] + w[3];
    if (total <= 0.0) return false;
    double pick = rng_.uniform01() * total;
    int kind = 0;
    for (; kind < 3; ++kind) {
      if (pick < w[kind]) break;
      pick -= w[kind];
    }

    switch (kind) {
      case 0: {  // insert: uniform over non-adjacent active pairs
        std::vector<GraphDelta> cands;
        for (NodeId u = 0; u < work.universe(); ++u) {
          if (!work.active(u)) continue;
          for (NodeId v = u + 1; v < work.universe(); ++v) {
            if (!work.active(v) || work.has_edge(u, v)) continue;
            cands.push_back({DeltaKind::kEdgeInsert, u, v});
          }
        }
        if (cands.empty()) break;
        const GraphDelta d = cands[rng_.below(cands.size())];
        work.apply(d);
        out.push_back(d);
        return true;
      }
      case 1: {  // remove: uniform over non-bridge edges
        std::vector<Edge> cands = work.sorted_edges();
        const Connectivity cs = connectivity_structure(work);
        std::erase_if(cands, [&](const Edge& e) { return cs.is_bridge(e); });
        if (cands.empty()) break;
        const Edge e = cands[rng_.below(cands.size())];
        const GraphDelta d{DeltaKind::kEdgeRemove, e.u, e.v};
        work.apply(d);
        out.push_back(d);
        return true;
      }
      case 2: {  // join: activate an inactive slot, attach to random actives
        std::vector<NodeId> inactive;
        for (NodeId v = 0; v < work.universe(); ++v) {
          if (!work.active(v)) inactive.push_back(v);
        }
        if (inactive.empty()) break;
        const NodeId joiner = inactive[rng_.below(inactive.size())];
        std::vector<NodeId> anchors;
        for (NodeId v = 0; v < work.universe(); ++v) {
          if (work.active(v)) anchors.push_back(v);
        }
        const std::uint32_t want = std::min<std::uint32_t>(
            kJoinAttachments, static_cast<std::uint32_t>(anchors.size()));
        const GraphDelta jd{DeltaKind::kNodeJoin, joiner, joiner};
        work.apply(jd);
        out.push_back(jd);
        for (std::uint32_t k = 0; k < want; ++k) {
          const std::size_t i = rng_.below(anchors.size());
          const GraphDelta ed{DeltaKind::kEdgeInsert, joiner, anchors[i]};
          anchors.erase(anchors.begin() + static_cast<std::ptrdiff_t>(i));
          work.apply(ed);
          out.push_back(ed);
        }
        return true;
      }
      case 3: {  // leave: uniform over droppable (non-cut) active nodes
        const std::vector<NodeId> cands = droppable(work);
        if (cands.empty()) break;
        const NodeId v = cands[rng_.below(cands.size())];
        const GraphDelta d{DeltaKind::kNodeLeave, v, v};
        work.apply(d);
        out.push_back(d);
        return true;
      }
    }
    w[kind] = 0.0;  // realization came up empty; redraw among the rest
  }
  return false;
}

ChurnBatch DeltaPlan::next(const DynamicGraph& g) {
  ChurnBatch batch;
  DynamicGraph work = g;
  const std::uint64_t count = rng_.between(1, config_.max_batch);
  for (std::uint64_t i = 0; i < count; ++i) {
    if (!draw_delta(work, batch.deltas)) break;
  }
  if (rng_.chance(config_.crash_prob)) {
    const std::vector<NodeId> cands = droppable(work);
    if (!cands.empty()) {
      const NodeId v = cands[rng_.below(cands.size())];
      work.apply({DeltaKind::kNodeLeave, v, v});
      batch.crashes.push_back(v);
    }
  }
  if (rng_.chance(config_.corrupt_prob)) {
    batch.corrupt_flips = kCorruptEntries;
    batch.corrupt_seed = rng_();
  }
  ++batches_;
  return batch;
}

}  // namespace dapsp
