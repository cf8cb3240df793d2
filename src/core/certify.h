// Certified outputs for degraded runs (DESIGN.md §10).
//
// When a run ends kDegraded (crash-stops, NeighborDown verdicts), the
// harvested distance tables are partial: some rows are exact, some were cut
// off mid-flood, some are gone with their crashed holders. This module turns
// "partial" into a checked statement, two ways:
//
//  1. classify_coverage(): a local bookkeeping pass labelling each source row
//     kComplete / kPartial / kLost over the *surviving* nodes — the
//     accounting the degraded harvest reports.
//
//  2. certify_rows(): a distributed O(1)-rounds-per-row verifier, run as its
//     own CONGEST protocol on the surviving subgraph. For each source s it
//     checks, at every surviving node v with entry d_s(v) and over every
//     surviving edge {u, v}:
//       (a) d_s(s) = 0, and d_s(v) = 0 only at v = s;
//       (b) |d_s(u) - d_s(v)| <= 1, where "infinite vs finite" is a
//           violation (the 1-Lipschitz property of BFS distances);
//       (c) every finite non-source v has a neighbor u with
//           d_s(u) = d_s(v) - 1 (a shortest-path witness).
//     A row passes iff no surviving node reports a violation. These local
//     rules are sound and complete: a row is certified iff its surviving
//     entries are exactly the distances from s in the surviving subgraph.
//     (<=: witness chains descend to the unique 0 at s, so entries are upper
//     bounds on nothing — they bound true distance from above via (c) and
//     from below via (b) along a true shortest path; both give equality.
//     Components not containing s certify as all-infinite.) In particular a
//     stale row learned through a crashed relay fails (c) at its minimum
//     surviving entry, and a crashed source's row is never certifiable —
//     no survivor may claim 0.
//
//     Each row costs one broadcast round and one comparison round, and the
//     rows are pipelined like Algorithm 2's floods: row k ships in round k
//     and is judged in round k+1, the round that ships row k+1, so K rows
//     take K+1 rounds with one message per edge per round. That matches the
//     O(1)-rounds-per-row certificate flavor of the paper's lower-bound
//     section (checking is as hard as computing only when done from scratch).
//
//  Lemma 1 / Claim 1 (no directed edge ever carries two kApspFlood messages
//  in one round of a fault-free pebble run) is a property of the send
//  stream, not of a table: check it with congest::max_sends_per_edge_round(
//  trace.events(), kApspFlood) over a recorded TraceLog (congest/trace.h).
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "congest/engine.h"
#include "graph/graph.h"
#include "util/parallel.h"

namespace dapsp::core {

// Coverage of one source row over the surviving nodes.
enum class RowCoverage : std::uint8_t {
  kLost,      // (almost) nothing: at most the source's own trivial 0 survives
  kPartial,   // some surviving nodes know their distance, some do not
  kComplete,  // every surviving node has a finite entry for this source
};

const char* to_string(RowCoverage c) noexcept;

// entry(v, s): the distance-to-source-s value node v holds (kInfDist when
// unknown). The indirection lets one certifier serve pebble-APSP rows,
// S-SP deltas, and hand-built tables in tests. A non-owning reference (one
// plain call per cell, no allocation): the callable must outlive the call
// it is passed to.
using DistEntryFn = FunctionRef<std::uint32_t(NodeId v, NodeId source)>;

// Labels each source row. survived[v] != 0 marks the nodes still alive at
// harvest; entries of dead nodes are never consulted.
std::vector<RowCoverage> classify_coverage(
    std::span<const std::uint8_t> survived, std::span<const NodeId> sources,
    DistEntryFn entry);

struct CertifyOptions {
  congest::EngineConfig engine{};

  // Per-row node subsets. Empty: every survivor ships and judges every row.
  // Otherwise one entry per source each: scope[k] lists the nodes that judge
  // row sources[k] and shipped[k] the nodes that broadcast their entry of
  // it, in any order and possibly more than once. A judge reads a neighbor
  // that does not ship from its view, the entry that neighbor shipped last,
  // i.e. entry(u, s): every certificate ships every changed entry, so the
  // views stay current. Rules (a)-(c) are local, so a row that was exact
  // before a batch is exact after it if every node whose own entry, a
  // neighbor's entry or whose adjacency changed judges it (the cell
  // certificate of core/repair.h; DESIGN.md §13). Neither is owned; both
  // must outlive the call.
  std::span<const std::vector<NodeId>> scope;
  std::span<const std::vector<NodeId>> shipped;
};

struct CertifyReport {
  // certified[k] != 0: row sources[k] passed every local check at every
  // surviving node.
  std::vector<std::uint8_t> certified;
  std::uint32_t rows_certified = 0;
  // Individual local-rule violations, summed over nodes and rows (a single
  // bad entry typically trips several).
  std::uint64_t checks_failed = 0;
  congest::RunStats stats;

  bool all_certified() const noexcept {
    return rows_certified == certified.size();
  }
};

// Runs the distributed verifier over the surviving subgraph (dead nodes are
// crash-stopped at round 0, so their entries neither broadcast nor judge).
// K rows take K + 1 engine rounds: row k ships in round k and is judged in
// round k + 1. A node that misses its judge round (a stall) never acts
// again, so the run ends at the round limit. With a scope, a row nobody
// judges passes. Throws std::invalid_argument on size mismatches or
// out-of-range sources.
CertifyReport certify_rows(const Graph& g,
                           std::span<const std::uint8_t> survived,
                           std::span<const NodeId> sources,
                           DistEntryFn entry,
                           const CertifyOptions& options = {});

}  // namespace dapsp::core
