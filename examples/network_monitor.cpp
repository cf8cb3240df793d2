// Network-monitoring scenario: a operator wants to watch the diameter (worst
// case latency) and girth (shortest redundancy loop) of a live topology, but
// cannot afford the full Theta(n) APSP protocol every time. The paper's
// toolbox offers a cost/accuracy ladder:
//
//   (x,2)   diameter in Theta(D)  (Remark 1: one BFS)
//   (x,1.5) diameter in O(n^{3/4} + D) (Corollary 1 selector)
//   (x,1+e) diameter in O(n/D + D)  (Corollary 4)
//   exact   diameter in Theta(n)  (Lemma 3)
//
// and similarly for the girth (Lemma 7 / Theorem 5). This example walks the
// ladder on one topology and prints what each step buys.
//
//   $ ./network_monitor
#include <cstdio>
#include <vector>

#include "congest/reliable.h"
#include "congest/trace.h"
#include "core/apsp_applications.h"
#include "core/certify.h"
#include "core/primitives/bfs_process.h"
#include "core/pebble_apsp.h"
#include "core/combined.h"
#include "core/repair.h"
#include "core/ecc_approx.h"
#include "core/girth.h"
#include "core/girth_approx.h"
#include "graph/generators.h"

using namespace dapsp;

int main() {
  // A metro ring with chord shortcuts and access chains.
  const Graph g = gen::cycle_with_chords(420, 24, 2026);
  std::printf("monitored topology: %s\n\n", g.summary().c_str());

  std::printf("%-34s %10s %10s %8s\n", "method", "estimate", "rounds",
              "ratio<=");
  const auto two = core::distributed_diameter_2approx(g);
  std::printf("%-34s %10u %10llu %8s\n", "diameter (x,2), Remark 1", two.value,
              static_cast<unsigned long long>(two.stats.rounds), "2.0");

  const auto c1 = core::run_combined_diameter_approx(g);
  std::printf("%-34s %10u %10llu %8s\n", "diameter (x,1.5), Corollary 1",
              c1.estimate, static_cast<unsigned long long>(c1.stats.rounds),
              "1.5");

  const auto apx = core::run_ecc_approx(g, {.epsilon = 0.25});
  std::printf("%-34s %10u %10llu %8s\n", "diameter (x,1.25), Corollary 4",
              apx.diameter_estimate,
              static_cast<unsigned long long>(apx.stats.rounds), "1.25");

  const auto exact = core::distributed_diameter(g);
  std::printf("%-34s %10u %10llu %8s\n", "diameter exact, Lemma 3",
              exact.value, static_cast<unsigned long long>(exact.stats.rounds),
              "1.0");

  std::printf("\n");
  const auto gapx = core::run_girth_approx(g, {.epsilon = 0.5});
  std::printf("%-34s %10u %10llu %8s\n", "girth (x,1.5), Theorem 5",
              gapx.girth_estimate,
              static_cast<unsigned long long>(gapx.stats.rounds), "1.5");

  const auto gex = core::run_girth(g);
  std::printf("%-34s %10u %10llu %8s\n", "girth exact, Lemma 7", gex.girth,
              static_cast<unsigned long long>(gex.stats.rounds), "1.0");

  // Wire-level accounting of the exact run, straight from the engine.
  std::printf("\nexact-run wire stats: %s\n",
              exact.stats.debug_string().c_str());

  // Live networks lose packets. Re-run the cheap health check on a lossy
  // wire (10%% drops, deterministic seed) behind the reliable-delivery
  // layer: same answer, a constant factor more rounds, and the stats line
  // now shows what the transport did.
  congest::EngineConfig lossy;
  congest::FaultPlan plan;
  plan.seed = 2026;
  plan.drop_prob = 0.10;
  lossy.faults = plan;
  lossy.max_rounds = 1000000;
  congest::apply_reliable(lossy);
  const auto faulty = core::distributed_diameter_2approx(g, lossy);
  std::printf("(x,2) check on a 10%%-loss wire:   estimate %u, %s\n",
              faulty.value, faulty.stats.debug_string().c_str());

  // Worse than loss: a router dies mid-measurement. The heartbeat detector
  // (DESIGN.md section 10) declares it, survivors terminate in degraded
  // mode, and the certificate says exactly which distance rows are still
  // trustworthy on the surviving topology.
  const Graph small = gen::cycle_with_chords(60, 8, 2026);
  core::ApspOptions crashed;
  congest::FaultPlan crash_plan;
  crash_plan.crashes.push_back({17, 400});  // mid-run crash-stop
  crashed.engine.faults = crash_plan;
  crashed.engine.max_rounds = 1000000;
  congest::apply_reliable(crashed.engine);
  auto deg = core::run_pebble_apsp(small, crashed);

  std::printf("\nfull APSP on %s with node 17 crashing mid-run:\n",
              small.summary().c_str());
  std::printf("  status %s after %llu real rounds (crashed %u, detector "
              "verdicts %llu)\n",
              congest::to_string(deg.status),
              static_cast<unsigned long long>(deg.stats.rounds),
              deg.stats.nodes_crashed,
              static_cast<unsigned long long>(deg.stats.neighbors_suspected));
  std::uint32_t complete = 0, partial = 0, lost = 0;
  std::vector<NodeId> sources(small.num_nodes());
  for (NodeId s = 0; s < small.num_nodes(); ++s) {
    sources[s] = s;
    switch (deg.coverage[s]) {
      case core::RowCoverage::kComplete: ++complete; break;
      case core::RowCoverage::kPartial: ++partial; break;
      case core::RowCoverage::kLost: ++lost; break;
    }
  }
  std::printf("  coverage over survivors: %u complete, %u partial, %u lost\n",
              complete, partial, lost);
  const auto cert = core::certify_rows(
      small, deg.survived, sources,
      [&](NodeId v, NodeId s) { return deg.dist.at(v, s); });
  std::printf("  distributed certificate: %u/%zu rows proven exact on the "
              "surviving subgraph (2 rounds each)\n",
              cert.rows_certified, sources.size());
  for (const NodeId s : {NodeId{0}, NodeId{17}, NodeId{30}}) {
    std::printf("    row %2u: coverage %s, %s\n", s,
                core::to_string(deg.coverage[s]),
                cert.certified[s] != 0 ? "certified" : "not certifiable");
  }

  // Self-healing (DESIGN.md section 13): instead of re-running the whole
  // Theta(n)-round APSP, repair exactly what broke — one S-SP pass with the
  // suspect rows as sources, per surviving component, O(|S_missing| + D)
  // rounds — then re-certify every row, the crashed router's included (its
  // row proves all-infinite: node 17 is simply unreachable now).
  const auto rep = core::repair_apsp(small, deg);
  std::printf("  self-heal: %s\n", rep.debug_string().c_str());
  std::printf("  repaired %u suspect rows in %llu rounds (bound %llu; the "
              "degraded run itself took %llu) — %s\n",
              rep.rows_repaired,
              static_cast<unsigned long long>(rep.repair_rounds),
              static_cast<unsigned long long>(rep.round_bound),
              static_cast<unsigned long long>(deg.stats.rounds),
              rep.all_certified() ? "every row now certified"
                                  : "some rows remain uncertified");

  // Observability (DESIGN.md section 12): attach a structured trace and load
  // histograms to a fault-free APSP run. Collection is sharded with the
  // engine, so watching costs no parallelism, and the trace shows Lemma 1's
  // schedule: no edge ever carries two floods in one round.
  congest::TraceLog trace;
  congest::EngineMetrics metrics;
  core::ApspOptions watched;
  watched.engine.trace = &trace;
  watched.engine.metrics = &metrics;
  const auto traced = core::run_pebble_apsp(small, watched);
  std::uint64_t floods = 0;
  for (const congest::TraceEvent& ev : trace.events()) {
    if (ev.kind == congest::TraceEventKind::kSend &&
        ev.msg.kind == core::kApspFlood) {
      ++floods;
    }
  }
  std::printf("\ninstrumented APSP on %s:\n", small.summary().c_str());
  std::printf("  %zu trace events over %llu rounds; %llu flood sends, "
              "max %llu kApspFlood per edge-round (Lemma 1: 1)\n",
              trace.size(),
              static_cast<unsigned long long>(traced.stats.rounds),
              static_cast<unsigned long long>(floods),
              static_cast<unsigned long long>(congest::max_sends_per_edge_round(
                  trace.events(), core::kApspFlood)));
  std::printf("  per-(edge,round) messages: max %llu (Lemma 1 admits one "
              "flood + pebble/control)\n",
              static_cast<unsigned long long>(
                  metrics.edge_messages.max_value()));
  std::printf("  round activity: mean %.1f msgs/round, peak %llu "
              "(busiest wave)\n",
              metrics.round_activity.mean(),
              static_cast<unsigned long long>(
                  metrics.round_activity.max_value()));

  std::printf(
      "\noperator takeaway: a (x,2) health check costs ~D rounds; tight "
      "monitoring costs ~n; crashes cost a detection window and a "
      "certificate, never a hang or a silent lie.\n");
  return 0;
}
