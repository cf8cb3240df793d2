// Self-healing APSP: repair of degraded runs via S-SP, and cell-level repair
// of tables a churn batch changed (repair_cells, below; DESIGN.md §13).
//
// PR 2 made degraded runs honest (RunStatus::kDegraded, per-row coverage,
// certify_rows); this module closes the loop. The paper's Algorithm 2 is the
// repair tool: S-SP recomputes exactly the suspect source rows on the
// surviving subgraph in O(|S_missing| + D) rounds — the distributed analogue
// of recompute-what-broke strategies, and far cheaper than restarting the
// whole O(n)-round APSP when only a few rows were damaged.
//
// repair_apsp() pipeline, over a degraded ApspResult:
//   1. take stock: recompute per-row coverage over the survivors; zero the
//      rows of crashed sources to all-infinite (a dead source is unreachable
//      in the surviving subgraph, so all-infinite is its exact — and
//      certifiable — row);
//   2. find suspects: either supplied by the caller (RepairOptions::suspects
//      — the service's dirty-region analyzer path, skipping detection
//      entirely), or every surviving row is run through the distributed
//      certificate and the failures become S_missing (rule (c) catches
//      stale-relay rows whose entries no surviving neighborhood can witness;
//      exact-but-partial rows pass, making repeated repair a no-op);
//   3. repair: per connected component of the surviving subgraph, re-run
//      S-SP with the component's suspects as the source set and merge the
//      resulting delta / parent_index into dist / next_hop (cross-component
//      entries become infinite — correct on the surviving subgraph);
//   4. re-certify every row (crashed sources included — their all-infinite
//      rows certify vacuously) and report before/after coverage histograms.
//
// Round-bound check: component repairs are independent (they would run
// concurrently on the real network), so the repair cost is the maximum over
// components of the component's S-SP rounds. Each component run is bounded
// by kRepairRoundC * (|S_c| + D0_c) + kRepairRoundSlack real rounds, where
// D0_c = 2*ecc(component leader) is the component's broadcast diameter bound
// (D0_c <= 2*D_c, so this is the paper's O(|S| + D)): the run costs a tree
// build (~1.5*D0_c), a parameter broadcast (~0.5*D0_c) and the doubled
// Theorem 3 schedule (2*(|S_c| + D0_c) + 4), comfortably within c = 4 and a
// small additive slack. The check is evaluated at runtime and reported as
// RepairReport::bound_ok (a regression here means the implementation lost
// the paper's asymptotics, not that the repair is wrong).
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "congest/engine.h"
#include "core/certify.h"
#include "core/pebble_apsp.h"
#include "graph/graph.h"
#include "util/metrics.h"

namespace dapsp::core {

// Multiplier and additive slack of the asserted repair round bound
// rounds <= kRepairRoundC * (|S_component| + D0_component) + kRepairRoundSlack.
inline constexpr std::uint64_t kRepairRoundC = 4;
inline constexpr std::uint64_t kRepairRoundSlack = 16;

struct RepairOptions {
  // Engine settings for the repair S-SP runs and the certification passes.
  // Faults, process wrappers and instrumentation sinks are stripped: repair
  // models the post-incident network, where the surviving subgraph is
  // healthy. threads / bandwidth_ids / max_rounds are honored.
  congest::EngineConfig engine{};

  // Externally-supplied suspect rows (core/service.h's dirty-region
  // analyzer). When set, the detection pass is skipped and exactly these
  // surviving sources are recomputed, so the repair costs O(|suspects| + D)
  // rounds with no O(n) certification sweep. Out-of-range or dead sources
  // throw. A supplied *empty* set short-circuits: with certify_all false no
  // engine runs at all and the report comes back zero-cost. nullopt = detect
  // suspects from coverage + certificates, as before.
  std::optional<std::vector<NodeId>> suspects;

  // When false, the post-repair certificate covers only the repaired rows
  // instead of all n — incremental-service mode, where global certification
  // is amortized across epochs (core/service.h tracks per-row status and
  // scrubs periodically). Default true: certify everything, the one-shot
  // recovery behavior.
  bool certify_all = true;
};

struct RepairReport {
  // The suspect sources (ascending): surviving nodes whose row was lost,
  // partial, or failed pre-repair certification.
  std::vector<NodeId> suspect_sources;
  std::uint32_t rows_repaired = 0;  // |suspect_sources|
  std::uint32_t repairs_attempted = 0;  // 1 once suspects are validated

  // Real engine rounds of the repair: max over surviving components that
  // re-ran S-SP (component repairs are independent).
  std::uint64_t repair_rounds = 0;
  // The asserted bound: max over repaired components of
  // kRepairRoundC * (|S_c| + D0_c) + kRepairRoundSlack.
  std::uint64_t round_bound = kRepairRoundSlack;
  bool bound_ok = true;  // repair_rounds of every component within its bound

  // Post-repair certificate: over ALL source rows (crashed sources certify
  // as all-infinite) by default, or only the repaired rows when
  // RepairOptions::certify_all is false. The acceptance bar:
  // certificate.all_certified().
  CertifyReport certificate;

  // Row-coverage distribution before and after the repair, indexed by the
  // RowCoverage enum value (0 = lost, 1 = partial, 2 = complete).
  Histogram coverage_before;
  Histogram coverage_after;

  // Stats accumulated over the repair sub-runs and certification passes
  // (bandwidth budgets differ per component, so bandwidth_bits is zeroed).
  congest::RunStats stats;

  bool all_certified() const noexcept { return certificate.all_certified(); }

  // One-line human-readable rendering for CLI / examples.
  std::string debug_string() const;
};

// Repairs a degraded pebble-APSP result in place: dist / next_hop rows of
// suspect sources are recomputed on the surviving subgraph, crashed-source
// rows are zeroed to all-infinite, and result.coverage is refreshed. The
// result's status is left untouched (it records what happened); the repair's
// success is the returned report's all_certified(). Also valid on a
// completed result (no suspects, certification only). Throws
// std::invalid_argument when result's tables do not match g.
RepairReport repair_apsp(const Graph& g, ApspResult& result,
                         const RepairOptions& options = {});

// Cell-level incremental repair (DESIGN.md §13): heals the rows of a table
// that was exact on the pre-batch graph by touching only the cells a batch
// changed, as two CONGEST phases of (source, dist) messages:
//   (i) invalidation: a node whose entry d(v, s) lost every parent at d - 1
//       (a post-batch neighbor whose entry is d - 1 and still valid) sets it
//       to infinity and notifies its neighbors, who run the same test. A node
//       that keeps a parent but lost its next hop re-points it there (no
//       message). The wave starts at nodes whose adjacency lost an edge;
//   (ii) regrowth: Algorithm 2's machine (SspMachine) seeded with the
//       surviving table. Valid nodes owe their entry on every edge to an
//       invalidated neighbor, the nearer endpoint of a new edge owes it
//       across, and a joined source owes its own zero. An improved entry is
//       adopted with the sender as next hop and forwarded on every edge.
// A phase barrier (a convergecast and broadcast over a BFS tree, charged as
// 2 * ecc(leader) rounds, not simulated) separates the two. Nodes read their
// neighbors' pre-batch entries: the certificate exchange of rules (b)/(c)
// put every entry on every edge, and each changed entry is re-shipped.
//
// Then the cell certificate: every row the caller names plus every row with
// a changed or invalidated entry is re-checked by certify_rows on the closed
// neighborhood of its changed entries plus every node whose adjacency
// changed — sound for rows that were exact before the batch, since the
// rules are local. Joined sources' rows are checked at every node.
//
// Round bound: repair_rounds <= kRepairRoundC * (|S_aff| + h) + barrier +
// kRepairRoundSlack, where S_aff is the set of rows with an invalidated or
// improved entry and h the largest distance such an entry held before or
// after. Evaluated at runtime, like repair_apsp's.
struct CellRepairOptions {
  // As RepairOptions::engine: faults and instrumentation are stripped.
  congest::EngineConfig engine{};
  // The pre-batch graph (edges u < v, sorted; activity per node). The
  // post-batch graph is the `g` argument and its activity result.survived.
  std::span<const Edge> edges_before;
  std::span<const std::uint8_t> active_before;
  // Sources whose rows take part. Each must be exact on the pre-batch graph,
  // except a joined source's, which starts from nothing.
  std::span<const NodeId> rows;
  // Rows certified whatever the protocol changes (e.g. the dirty-region
  // analyzer's), a subset of `rows`.
  std::span<const NodeId> certify;
};

struct CellRepairReport {
  // Rows with a changed entry or next hop, and rows the certificate covered
  // (both ascending).
  std::vector<NodeId> changed_rows;
  std::vector<NodeId> certified_rows;
  // Every (node, source) cell the protocol wrote, node-major: a changed entry
  // or next hop, and every cell of a joined node. Cells it left alone keep
  // whatever the table held, which the certificate need not have judged.
  std::vector<std::pair<NodeId, NodeId>> changed_cells;
  std::uint64_t cells_changed = 0;     // entries whose distance changed
  std::uint32_t affected_sources = 0;  // |S_aff|
  std::uint32_t depth = 0;             // h

  // Invalidation rounds + barrier + regrowth rounds, and the asserted bound.
  std::uint64_t barrier_rounds = 0;
  std::uint64_t repair_rounds = 0;
  std::uint64_t round_bound = kRepairRoundSlack;
  bool bound_ok = true;

  CertifyReport certificate;
  congest::RunStats stats;  // both phases plus the certificate

  bool all_certified() const noexcept { return certificate.all_certified(); }
};

// Repairs result.dist / result.next_hop in place for options.rows on the
// post-batch graph g. Throws std::invalid_argument on size mismatches and
// congest::RoundLimitError / CongestionError from the two phases (the table
// is then untouched). A certificate that hits either reports every row it
// covered as uncertified; the protocol's writes stay in the table.
CellRepairReport repair_cells(const Graph& g, ApspResult& result,
                              const CellRepairOptions& options);

// The re-point rule of the invalidation wave, also used by the service to
// re-point hops over a cut link at once: an entry at distance d keeps its
// next hop while that neighbor still holds d - 1, and otherwise moves to the
// first neighbor that does. kNoNextHop when none does (the entry lost every
// parent). `entry(i)` is neighbor i's entry as this node knows it.
template <class EntryFn>
NodeId repoint_hop(std::span<const NodeId> nbrs, std::uint32_t d, NodeId hop,
                   EntryFn&& entry) {
  NodeId first = kNoNextHop;
  for (std::uint32_t i = 0; i < nbrs.size(); ++i) {
    if (entry(i) + 1 != d) continue;
    if (nbrs[i] == hop) return hop;
    if (first == kNoNextHop) first = nbrs[i];
  }
  return first;
}

}  // namespace dapsp::core
