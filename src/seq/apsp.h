// Sequential all-pairs shortest paths (n BFS runs) and the distance-matrix
// container shared with the distributed algorithms' results.
#pragma once

#include <cstdint>

#include "graph/graph.h"
#include "util/table.h"

namespace dapsp {

// Dense n x n matrix of hop distances. Row u holds distances from u.
class DistanceMatrix : public Table<std::uint32_t> {
 public:
  DistanceMatrix() = default;
  explicit DistanceMatrix(NodeId n) : Table(n, n, kInfDist) {}

  NodeId n() const noexcept { return static_cast<NodeId>(rows()); }

  // Maximum finite entry (the diameter, if the graph is connected).
  std::uint32_t max_finite() const;
};

namespace seq {

// Reference APSP: one BFS per node, O(n * (n + m)).
DistanceMatrix apsp(const Graph& g);

}  // namespace seq
}  // namespace dapsp
