// Self-healing APSP: repair of degraded runs via S-SP (DESIGN.md §13).
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
#include <string>
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

}  // namespace dapsp::core
