// Algorithm 1 of the paper: All Pairs Shortest Paths in O(n) rounds.
//
// The protocol, exactly as in Section 4.1:
//   1. Build the BFS tree T1 rooted at the leader (TreeMachine). The echo
//      wave additionally gives the root ecc(root), hence the D0 = 2*ecc
//      diameter bound of Fact 1 used for scheduling the aggregation phase.
//   2. Send a pebble on a depth-first traversal of T1. On entering a node
//      for the first time the pebble waits one round, then that node starts
//      a BFS flood of its own id; the pebble moves on in the same round.
//      Lemma 1: the staggered starts guarantee that no node — hence no edge
//      — ever carries two different BFS floods in the same round. The engine
//      *checks* this (bandwidth enforcement); a congestion test asserts that
//      at most one kApspFlood message crosses any directed edge per round.
//   3. Every node records its distance to every flood root: APSP.
//   4. (Applications, Lemmas 2-7.) After the traversal returns, the root
//      waits until every flood must have quiesced (2*ecc(root)+2 rounds),
//      broadcasts a COLLECT token, and a convergecast folds
//      (max eccentricity, min eccentricity, min cycle-witness length) =
//      (diameter, radius, girth). A final RESULT broadcast lets every node
//      decide center / peripheral membership locally (Definition 6: every
//      node must know the answer).
//
// Girth witnesses (Lemma 7): a node u that receives a flood of root v it
// already knows, from a neighbor w, has found the closed walk
// u ~ v ~ w + (w,u) of length d(u,v) + d(w,v) + 1; the forward-exclusion
// rule of Claim 1 ensures every such walk really contains a cycle, and the
// BFS from any vertex of a minimum cycle certifies its exact length.
#pragma once

#include <cstdint>
#include <vector>

#include "congest/engine.h"
#include "core/certify.h"
#include "graph/graph.h"
#include "seq/apsp.h"
#include "seq/properties.h"
#include "util/table.h"

namespace dapsp::core {

struct ApspOptions {
  congest::EngineConfig engine{};
  // Run the aggregation phase (Lemmas 2-7): diameter, radius, girth, center,
  // peripheral vertices. Costs O(D) extra rounds.
  bool aggregate = true;
};

struct ApspResult {
  DistanceMatrix dist;
  // next_hop[v][u]: the neighbor of v that lies on a shortest v->u path
  // (v's parent in the BFS tree T_u) — Remark 4: "shortest paths are
  // implicitly stored via BFS trees". kNoNextHop on the diagonal.
  Table<NodeId> next_hop;
  std::vector<std::uint32_t> ecc;      // per node (valid if aggregate)
  std::uint32_t diameter = 0;
  std::uint32_t radius = 0;
  std::uint32_t girth = seq::kInfGirth;  // kInfGirth for forests
  std::vector<std::uint8_t> is_center;
  std::vector<std::uint8_t> is_peripheral;
  bool tree_cycle_evidence = false;    // Claim 1: true iff G has a cycle
  std::uint32_t leader_ecc = 0;        // ecc(node 0), learned during setup

  // Crash survival (DESIGN.md §10). kCompleted on fault-free/masked runs;
  // kDegraded when nodes crashed or the failure detector fired — the tables
  // below are then partial and `coverage` says how partial.
  congest::RunStatus status = congest::RunStatus::kCompleted;
  std::vector<std::uint8_t> survived;  // per node: 1 = alive at harvest
  // Per source row (sources are all nodes here): coverage over survivors.
  std::vector<RowCoverage> coverage;
  // Survivors that switched to degraded mode after a failure notice.
  std::vector<NodeId> degraded_nodes;
  // False when the aggregation outputs (diameter/radius/girth/centers) must
  // not be trusted — any degraded run, or aggregate=false.
  bool aggregates_valid = false;

  congest::RunStats stats;
};

inline constexpr NodeId kNoNextHop = 0xffffffffu;

// Runs Algorithm 1 on a connected graph. Throws on disconnected inputs
// (the flood never terminates; a RoundLimitError surfaces).
//
// Under a fault plan with crash-stops and the reliable layer's failure
// detector (apply_reliable + suspect_after > 0), survivors terminate in
// degraded mode instead of stalling: the node holding a NeighborDown verdict
// floods a failure notice (kFailNotice, O(D) rounds), every survivor stops
// scheduling new work while still relaying in-flight BFS floods, and the
// harvested result reports status = kDegraded with per-row coverage.
ApspResult run_pebble_apsp(const Graph& g, const ApspOptions& options = {});

// Follows next_hop pointers from `from` to `to`; returns the node sequence
// (a shortest path). Local convenience over a harvested result.
std::vector<NodeId> extract_route(const ApspResult& r, NodeId from, NodeId to);

}  // namespace dapsp::core
