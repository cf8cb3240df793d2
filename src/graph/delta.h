// Graph churn: mutable graph views, deltas, and seeded mutation plans.
//
// The paper's Algorithm 1 computes APSP for one static graph; ROADMAP item 2
// asks for a long-running service where the topology mutates under it. This
// module supplies the churn substrate:
//
//   * GraphDelta — one atomic mutation (edge insert/remove, node join/leave)
//     over a fixed node *universe* 0..n-1. Nodes never change identity; a
//     "joined" node is a universe slot switched active, a "left" node is a
//     slot switched inactive with its incident edges implicitly removed.
//     Fixing the universe keeps every downstream table (DistanceMatrix,
//     next_hop, survived masks) index-stable across arbitrarily long runs —
//     the same convention the crash machinery already uses for dead nodes.
//
//   * DynamicGraph — an adjacency-list graph over the universe supporting
//     apply(delta) with full validation, O(1) activity queries and CSR
//     snapshot() for the engine; connectivity_structure() finds the bridges
//     and cut nodes the plan generator avoids to keep streams connected.
//
//   * BatchDiff — what one applied batch changed (joined/left nodes,
//     inserted/removed edges, each node's lost and gained neighbors),
//     derived once by diff_batch from the pre-batch edges and activity and
//     the post-batch graph. It is the only place a batch's changes are
//     derived; the service's analyzer and re-pointer and the cell repair
//     all read it.
//
//   * DeltaPlan — a seeded generator of ChurnBatch mutation schedules:
//     deltas drawn by fixed kind weights, constrained to preserve
//     active-subgraph connectivity and a minimum active population, plus
//     interleaved *fault* events (crash-stops and stored-entry corruption)
//     so service soaks exercise churn and faults together. All randomness is
//     one SplitMix64 stream; the full generator state is (config, rng state,
//     batch counter), which is what makes plans checkpointable — restore the
//     two scalars and the stream continues bit-identically (util/rng.h
//     Rng::state()).
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace dapsp {

enum class DeltaKind : std::uint8_t {
  kEdgeInsert = 0,  // add edge {u, v}; both endpoints must be active
  kEdgeRemove = 1,  // remove existing edge {u, v}
  kNodeJoin = 2,    // activate inactive node u (v == u); joins edgeless
  kNodeLeave = 3,   // deactivate active node u (v == u); incident edges
                    // are removed implicitly
};

const char* to_string(DeltaKind k) noexcept;

struct GraphDelta {
  DeltaKind kind = DeltaKind::kEdgeInsert;
  NodeId u = 0;
  NodeId v = 0;  // == u for node deltas

  friend bool operator==(const GraphDelta&, const GraphDelta&) = default;
};

std::string to_string(const GraphDelta& d);

// A mutable undirected simple graph over a fixed universe of nodes, each
// active or inactive. Inactive nodes have no incident edges by invariant.
class DynamicGraph {
 public:
  // All nodes active, no edges. Throws on an empty universe.
  explicit DynamicGraph(NodeId universe);
  // All nodes active, edges copied from g (the service's usual start state).
  explicit DynamicGraph(const Graph& g);

  NodeId universe() const noexcept { return n_; }
  NodeId num_active() const noexcept { return active_count_; }
  std::size_t num_edges() const noexcept { return m_; }

  bool active(NodeId v) const { return active_[v] != 0; }
  // Per-node activity mask — identical layout to ApspResult::survived, so
  // the service hands it to the repair machinery directly.
  const std::vector<std::uint8_t>& active_mask() const noexcept {
    return active_;
  }

  bool has_edge(NodeId u, NodeId v) const;
  std::uint32_t degree(NodeId v) const {
    return static_cast<std::uint32_t>(adj_[v].size());
  }
  // Neighbors of v, sorted ascending.
  std::span<const NodeId> neighbors(NodeId v) const { return adj_[v]; }

  // Applies one delta; throws std::invalid_argument on anything invalid
  // (out-of-range ids, self-loops, inserting an existing edge or one with an
  // inactive endpoint, removing a missing edge, joining an active node,
  // leaving an inactive one). Use can_apply() to probe without throwing.
  void apply(const GraphDelta& d);
  bool can_apply(const GraphDelta& d) const noexcept;

  // Immutable CSR snapshot over the full universe: inactive nodes are
  // present but isolated (degree 0), so engine tables stay index-aligned.
  Graph snapshot() const;
  // Unique undirected edges, u < v, sorted — the canonical edge set used for
  // batch diffs and checkpoints.
  std::vector<Edge> sorted_edges() const;

  // True when all active nodes lie in one connected component (vacuously
  // true with zero active nodes).
  bool connected_active() const;

 private:
  NodeId n_ = 0;
  NodeId active_count_ = 0;
  std::vector<std::uint8_t> active_;
  std::vector<std::vector<NodeId>> adj_;  // each sorted ascending
  std::size_t m_ = 0;
};

// Bridges and cut nodes of the active subgraph: removing a bridge, or
// deactivating a cut node, splits the component it lies in.
struct Connectivity {
  std::vector<std::uint8_t> is_cut;                // per universe node
  std::vector<std::pair<NodeId, NodeId>> bridges;  // u < v, sorted

  // e must have e.u < e.v, as sorted_edges() gives it.
  bool is_bridge(const Edge& e) const;
};

// One iterative low-link DFS, O(n + m).
Connectivity connectivity_structure(const DynamicGraph& g);

// One epoch's worth of churn: the graph deltas plus the fault events the
// service injects alongside them.
struct ChurnBatch {
  std::vector<GraphDelta> deltas;
  // Nodes that crash-stop during this epoch: the service deactivates them
  // like an unannounced kNodeLeave and counts them in nodes_crashed.
  std::vector<NodeId> crashes;
  // Stored-state bit-rot: this many finite distance entries get one bit
  // flipped (chosen from corrupt_seed). Invisible to the dirty-region
  // analyzer by design — the service's scrub pass is what catches it.
  std::uint32_t corrupt_flips = 0;
  std::uint64_t corrupt_seed = 0;

  bool empty() const noexcept {
    return deltas.empty() && crashes.empty() && corrupt_flips == 0;
  }

  friend bool operator==(const ChurnBatch&, const ChurnBatch&) = default;
};

// What one applied batch changed, derived once per epoch from the pre-batch
// edges and activity and the post-batch graph (diff_batch). It is every fact
// the service's dirty-region analyzer, its cut-hop re-pointer and the cell
// repair (core/service.h, core/repair.h) read about the batch.
struct BatchDiff {
  std::vector<NodeId> joined;  // newly active, ascending
  std::vector<NodeId> left;    // newly inactive (leaves and crashes)
  // Edges whose endpoints are active both before and after the batch, added
  // or removed by it (u < v, sorted). A joined node's attachments and a left
  // node's old edges are not among them; they show in `lost` and `gained`.
  std::vector<Edge> inserted;
  std::vector<Edge> removed;
  // Per node v active after the batch, (v, x) sorted: x was a pre-batch
  // neighbor of v and is not one now (lost), or is a post-batch neighbor of
  // v and was not one before (gained).
  std::vector<std::pair<NodeId, NodeId>> lost;
  std::vector<std::pair<NodeId, NodeId>> gained;
};

// `edges_before` is the pre-batch DynamicGraph::sorted_edges(),
// `active_before` its active_mask(). Throws std::invalid_argument when the
// mask does not cover after's universe.
BatchDiff diff_batch(std::span<const Edge> edges_before,
                     std::span<const std::uint8_t> active_before,
                     const DynamicGraph& after);

// Wire format for one ChurnBatch — the payload of a write-ahead journal
// record (util/journal.h) and the replay entry point of durable recovery
// (core/durable.h). Little-endian, self-delimiting, versioned by the
// journal that carries it.
std::vector<std::uint8_t> encode_churn_batch(const ChurnBatch& b);
// Throws std::runtime_error on truncated input or an out-of-range delta
// kind; trailing bytes after the batch are also an error.
ChurnBatch decode_churn_batch(std::span<const std::uint8_t> bytes);

struct DeltaPlanConfig {
  std::uint64_t seed = 1;

  // Deltas per batch, uniform in [1, max_batch].
  std::uint32_t max_batch = 3;

  // Leaves/crashes never push the active population below this.
  NodeId min_active = 4;

  // Per-batch fault probabilities (both may fire in one batch).
  double crash_prob = 0.0;
  double corrupt_prob = 0.0;
};

// Seeded churn-schedule generator. next() draws one ChurnBatch valid against
// the graph state it is shown (deltas are sequentially applicable in order).
// Deterministic: (config, rng state, batch counter) is the whole state.
//
// Kinds are drawn with weights insert 1, remove 1, join 0.5, leave 0.5;
// infeasible kinds (no inactive node to join, ...) drop out of the draw and a
// batch slot where nothing is feasible is skipped. The active subgraph stays
// connected at batch end: removals avoid bridges, leaves and crashes avoid
// cut nodes, and a join attaches to up to 2 random active nodes at once. (Mid-batch
// states may be transiently disconnected — a join lands edgeless one delta
// before its attachments — but batches apply atomically before any repair
// looks at the graph.) A corruption event flips 2 entries.
class DeltaPlan {
 public:
  explicit DeltaPlan(const DeltaPlanConfig& config);

  // Generates the next batch against g's current state. Does not mutate g.
  ChurnBatch next(const DynamicGraph& g);

  std::uint64_t batches_generated() const noexcept { return batches_; }

  // Checkpoint hooks: capture the two state scalars, or resume from them.
  std::uint64_t rng_state() const noexcept { return rng_.state(); }
  void resume(std::uint64_t rng_state, std::uint64_t batches) {
    rng_ = Rng(rng_state);
    batches_ = batches;
  }

 private:
  // Draws one feasible delta against `work` (the batch's working copy), or
  // returns false when nothing is feasible.
  bool draw_delta(DynamicGraph& work, std::vector<GraphDelta>& out);
  // Active non-cut nodes of g, or none when g is at min_active: the
  // candidates of a leave or a crash.
  std::vector<NodeId> droppable(const DynamicGraph& g) const;

  DeltaPlanConfig config_;
  Rng rng_;
  std::uint64_t batches_ = 0;
};

}  // namespace dapsp
