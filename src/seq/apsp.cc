#include "seq/apsp.h"

#include <algorithm>

#include "seq/bfs.h"

namespace dapsp {

std::uint32_t DistanceMatrix::max_finite() const {
  std::uint32_t best = 0;
  for (const std::uint32_t d : data()) {
    if (d != kInfDist && d > best) best = d;
  }
  return best;
}

namespace seq {

DistanceMatrix apsp(const Graph& g) {
  DistanceMatrix m(g.num_nodes());
  for (NodeId u = 0; u < g.num_nodes(); ++u) {
    const BfsResult r = bfs(g, u);
    std::ranges::copy(r.dist, m[u].begin());
  }
  return m;
}

}  // namespace seq
}  // namespace dapsp
