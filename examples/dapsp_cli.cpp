// dapsp_cli — command-line front end over the library: read a graph (edge
// list file or stdin, or generate one), run any of the paper's protocols,
// print results and CONGEST cost.
//
//   dapsp_cli gen path 16                      # emit an edge list
//   dapsp_cli gen random 100 150 --seed 7
//   dapsp_cli apsp -g net.txt                  # Algorithm 1
//   dapsp_cli diameter -g net.txt --epsilon 0.5
//   dapsp_cli girth -g net.txt
//   dapsp_cli ssp -g net.txt --sources 0,5,9   # Algorithm 2
//   dapsp_cli kdom -g net.txt --k 3
//   dapsp_cli labels -g net.txt --k 2          # APASP distance labels
//   dapsp_cli tree-check -g net.txt
//   dapsp_cli two-vs-four -g net.txt
//
// With no -g, the graph is read from stdin.
#include <cstdio>
#include <fstream>
#include <iostream>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "cli_output.h"
#include "congest/faults.h"
#include "congest/reliable.h"
#include "congest/trace.h"
#include "core/apsp_applications.h"
#include "core/distance_labels.h"
#include "core/ecc_approx.h"
#include "core/girth.h"
#include "core/girth_approx.h"
#include "core/kdom.h"
#include "core/pebble_apsp.h"
#include "core/repair.h"
#include "core/ssp.h"
#include "core/tree_check.h"
#include "core/two_vs_four.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "util/metrics.h"

using namespace dapsp;

namespace {

struct Args {
  std::string command;
  std::optional<std::string> graph_file;
  std::vector<std::string> positional;
  double epsilon = 0.5;
  std::uint32_t k = 1;
  std::uint64_t seed = 1;
  std::vector<NodeId> sources;
  bool exact = false;
  // Engine worker threads (0 = one per hardware thread). Results are
  // bit-identical at every value; this only changes wall-clock.
  std::uint32_t threads = 1;
  // Structured observability (apsp and ssp): .json = Chrome trace,
  // .jsonl/.csv by extension; metrics default to JSON, .csv by extension.
  std::optional<std::string> trace_out;
  std::optional<std::string> metrics_out;
  // Fault injection (apsp only): the run is wrapped in the reliable layer
  // and may end degraded; --repair then re-runs S-SP over the suspect rows.
  double drop = 0.0;
  double corrupt = 0.0;
  std::uint64_t fault_seed = 1;
  std::vector<congest::NodeCrash> crashes;
  bool repair = false;
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: dapsp_cli <command> [-g graph.txt] [options]\n"
      "commands:\n"
      "  gen <family> <args...>   path|cycle|grid|random|tree|clique-chain\n"
      "  apsp                     Algorithm 1: distances + properties\n"
      "  diameter|radius|ecc      exact (--exact) or (x,1+eps) [--epsilon]\n"
      "  center|peripheral        exact or approximate sets\n"
      "  girth                    exact (--exact) or (x,1+eps)\n"
      "  ssp --sources a,b,c      Algorithm 2\n"
      "  kdom --k <k>             k-dominating set\n"
      "  labels --k <k>           APASP distance labels + spot queries\n"
      "  tree-check               Claim 1\n"
      "  two-vs-four              Algorithm 3 (promise: diameter 2 or 4)\n"
      "options: --epsilon <e>  --k <k>  --seed <s>  --exact\n"
      "         --threads <t>  engine workers (0 = all cores; results are\n"
      "                        identical at every thread count)\n"
      "         --trace-out <f>    structured event trace (apsp, ssp):\n"
      "                            .json Chrome trace, .jsonl, or .csv\n"
      "         --metrics-out <f>  load histograms + counters: .json or .csv\n"
      "fault injection (apsp; the run is wrapped in the reliable layer):\n"
      "         --drop <p>         per-message drop probability\n"
      "         --corrupt <p>      per-message payload-corruption probability\n"
      "         --crash v@round    crash-stop node v at that round (repeatable)\n"
      "         --fault-seed <s>   seed of the fault plan (default 1)\n"
      "         --repair           self-heal a degraded run (S-SP over the\n"
      "                            suspect rows) and print the RepairReport\n"
      "exit codes: 0 exact/repaired-and-certified tables\n"
      "            1 error          2 usage, or degraded tables left unrepaired\n"
      "                               (run without --repair, or repair failed\n"
      "                               to certify every row)\n"
      "            3 repair exceeded its O(|S|+D) round bound\n");
  std::exit(2);
}

// A numeric flag value, parsed whole; anything else is a usage error.
template <typename T>
T number(const std::string& text) {
  const std::optional<T> v = cli::parse_number<T>(text);
  if (!v) usage();
  return *v;
}

Args parse(int argc, char** argv) {
  Args a;
  if (argc < 2) usage();
  a.command = argv[1];
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "-g" || arg == "--graph") {
      a.graph_file = next();
    } else if (arg == "--epsilon") {
      a.epsilon = number<double>(next());
    } else if (arg == "--k") {
      a.k = number<std::uint32_t>(next());
    } else if (arg == "--seed") {
      a.seed = number<std::uint64_t>(next());
    } else if (arg == "--threads") {
      a.threads = number<std::uint32_t>(next());
    } else if (arg == "--trace-out") {
      a.trace_out = next();
    } else if (arg == "--metrics-out") {
      a.metrics_out = next();
    } else if (arg == "--exact") {
      a.exact = true;
    } else if (arg == "--drop") {
      a.drop = number<double>(next());
    } else if (arg == "--corrupt") {
      a.corrupt = number<double>(next());
    } else if (arg == "--fault-seed") {
      a.fault_seed = number<std::uint64_t>(next());
    } else if (arg == "--crash") {
      const auto spec = cli::parse_pair<NodeId, std::uint64_t>(next(), '@');
      if (!spec) usage();
      a.crashes.push_back({spec->first, spec->second});
    } else if (arg == "--repair") {
      a.repair = true;
    } else if (arg == "--sources") {
      std::stringstream ss(next());
      std::string tok;
      while (std::getline(ss, tok, ',')) {
        a.sources.push_back(number<NodeId>(tok));
      }
    } else if (!arg.empty() && arg[0] == '-') {
      usage();
    } else {
      a.positional.push_back(arg);
    }
  }
  return a;
}

Graph load_graph(const Args& a) {
  if (a.graph_file) {
    std::ifstream in(*a.graph_file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", a.graph_file->c_str());
      std::exit(1);
    }
    return io::read_edge_list(in);
  }
  return io::read_edge_list(std::cin);
}

void print_stats(const congest::RunStats& s) {
  std::printf("-- CONGEST cost: rounds=%llu messages=%llu bits=%llu "
              "B=%u max_edge_bits=%llu\n",
              static_cast<unsigned long long>(s.rounds),
              static_cast<unsigned long long>(s.messages),
              static_cast<unsigned long long>(s.total_bits), s.bandwidth_bits,
              static_cast<unsigned long long>(s.max_edge_bits));
}

// Caller-owned sinks the engine writes into when --trace-out/--metrics-out
// are given (apsp and ssp, the commands that expose their engine config).
struct Instrumentation {
  congest::TraceLog trace;
  congest::EngineMetrics metrics;

  void attach(const Args& a, congest::EngineConfig& cfg) {
    if (a.trace_out) cfg.trace = &trace;
    if (a.metrics_out) cfg.metrics = &metrics;
  }
};

void write_instrumentation(const Args& a, const Instrumentation& instr,
                           const congest::RunStats& stats,
                           std::uint64_t repairs_attempted = 0) {
  if (a.trace_out) cli::write_trace_file(*a.trace_out, instr.trace);
  if (a.metrics_out) {
    MetricsRegistry reg;
    reg.counter("rounds") = stats.rounds;
    reg.counter("messages") = stats.messages;
    reg.counter("total_bits") = stats.total_bits;
    reg.counter("bandwidth_bits") = stats.bandwidth_bits;
    reg.counter("max_edge_bits") = stats.max_edge_bits;
    reg.counter("max_edge_messages") = stats.max_edge_messages;
    reg.counter("messages_dropped") = stats.messages_dropped;
    reg.counter("messages_corrupted") = stats.messages_corrupted;
    reg.counter("nodes_crashed") = stats.nodes_crashed;
    reg.counter("node_stall_rounds") = stats.node_stall_rounds;
    // One-shot runs have no service ladder and write no checkpoints.
    reg.counter("repairs_attempted") = repairs_attempted;
    reg.counter("repairs_escalated") = 0;
    reg.counter("checkpoint_bytes") = 0;
    reg.histogram("edge_bits").merge(instr.metrics.edge_bits);
    reg.histogram("edge_messages").merge(instr.metrics.edge_messages);
    reg.histogram("round_activity").merge(instr.metrics.round_activity);
    cli::write_metrics_file(*a.metrics_out, reg);
  }
}

int cmd_gen(const Args& a) {
  if (a.positional.empty()) usage();
  const std::string& fam = a.positional[0];
  auto arg_at = [&](std::size_t i, NodeId fallback) -> NodeId {
    return i < a.positional.size() ? number<NodeId>(a.positional[i])
                                   : fallback;
  };
  Graph g;
  if (fam == "path") {
    g = gen::path(arg_at(1, 16));
  } else if (fam == "cycle") {
    g = gen::cycle(arg_at(1, 16));
  } else if (fam == "grid") {
    g = gen::grid(arg_at(1, 4), arg_at(2, 4));
  } else if (fam == "random") {
    const NodeId n = arg_at(1, 32);
    g = gen::random_connected(n, arg_at(2, n), a.seed);
  } else if (fam == "tree") {
    g = gen::balanced_tree(arg_at(1, 31), arg_at(2, 2));
  } else if (fam == "clique-chain") {
    g = gen::path_of_cliques(arg_at(1, 4), arg_at(2, 8));
  } else {
    usage();
  }
  io::write_edge_list(std::cout, g);
  return 0;
}

bool wants_faults(const Args& a) {
  return a.drop > 0.0 || a.corrupt > 0.0 || !a.crashes.empty();
}

int cmd_apsp(const Args& a, const Graph& g) {
  core::ApspOptions opt;
  opt.engine.threads = a.threads;
  if (wants_faults(a)) {
    congest::FaultPlan plan;
    plan.seed = a.fault_seed;
    plan.drop_prob = a.drop;
    plan.corrupt_prob = a.corrupt;
    plan.crashes = a.crashes;
    opt.engine.faults = plan;
    opt.engine.max_rounds = 1000000;
    congest::apply_reliable(opt.engine);
  }
  Instrumentation instr;
  instr.attach(a, opt.engine);
  core::ApspResult r = core::run_pebble_apsp(g, opt);
  if (r.aggregates_valid) {
    std::printf("diameter=%u radius=%u girth=", r.diameter, r.radius);
    if (r.girth == seq::kInfGirth) {
      std::printf("inf");
    } else {
      std::printf("%u", r.girth);
    }
    std::printf("\nper-node eccentricities:");
    for (NodeId v = 0; v < g.num_nodes(); ++v) std::printf(" %u", r.ecc[v]);
    std::printf("\n");
  }
  print_stats(r.stats);

  if (r.status == congest::RunStatus::kCompleted) {
    write_instrumentation(a, instr, r.stats);
    return 0;
  }

  // Degraded harvest: print the damage, optionally self-heal.
  std::size_t survivors = 0;
  for (const std::uint8_t s : r.survived) survivors += s != 0;
  std::printf("-- degraded run: %zu/%u nodes survived\n", survivors,
              g.num_nodes());
  if (!a.repair) {
    std::printf("-- tables are partial (rerun with --repair to self-heal)\n");
    write_instrumentation(a, instr, r.stats);
    return 2;
  }
  core::RepairOptions ropt;
  ropt.engine.threads = a.threads;
  const core::RepairReport report = core::repair_apsp(g, r, ropt);
  std::printf("-- %s\n", report.debug_string().c_str());
  // Fold the repair's engine cost into the run's instrumentation.
  congest::accumulate(r.stats, report.stats);
  write_instrumentation(a, instr, r.stats, report.repairs_attempted);
  if (!report.bound_ok) return 3;
  return report.all_certified() ? 0 : 2;
}

int cmd_scalar(const Args& a, const Graph& g) {
  if (a.exact) {
    const auto r = a.command == "diameter" ? core::distributed_diameter(g)
                                           : core::distributed_radius(g);
    std::printf("%s = %u (exact)\n", a.command.c_str(), r.value);
    print_stats(r.stats);
  } else {
    const auto r = core::run_ecc_approx(g, {.epsilon = a.epsilon});
    const std::uint32_t est = a.command == "diameter" ? r.diameter_estimate
                                                      : r.radius_estimate;
    std::printf("%s ~ %u (additive slack <= %u)\n", a.command.c_str(), est,
                r.k);
    print_stats(r.stats);
  }
  return 0;
}

int cmd_set(const Args& a, const Graph& g) {
  std::vector<NodeId> members;
  congest::RunStats stats;
  if (a.exact) {
    auto r = a.command == "center" ? core::distributed_center(g)
                                   : core::distributed_peripheral(g);
    members = std::move(r.members);
    stats = r.stats;
  } else {
    const auto r = core::run_ecc_approx(g, {.epsilon = a.epsilon});
    members = a.command == "center" ? r.center_approx : r.peripheral_approx;
    stats = r.stats;
  }
  std::printf("%s (%s): ", a.command.c_str(), a.exact ? "exact" : "approx");
  for (const NodeId v : members) std::printf("%u ", v);
  std::printf("\n");
  print_stats(stats);
  return 0;
}

int cmd_ecc(const Args& a, const Graph& g) {
  if (a.exact) {
    const auto r = core::distributed_eccentricities(g);
    std::printf("eccentricities:");
    for (const std::uint32_t e : r.ecc) std::printf(" %u", e);
    std::printf("\n");
    print_stats(r.stats);
  } else {
    const auto r = core::run_ecc_approx(g, {.epsilon = a.epsilon});
    std::printf("eccentricity estimates (slack <= %u):", r.k);
    for (const std::uint32_t e : r.ecc_estimate) std::printf(" %u", e);
    std::printf("\n");
    print_stats(r.stats);
  }
  return 0;
}

int cmd_girth(const Args& a, const Graph& g) {
  if (a.exact) {
    const auto r = core::run_girth(g);
    if (r.girth == seq::kInfGirth) {
      std::printf("girth = inf (tree)\n");
    } else {
      std::printf("girth = %u\n", r.girth);
    }
    print_stats(r.stats);
  } else {
    const auto r = core::run_girth_approx(g, {.epsilon = a.epsilon});
    if (r.was_tree) {
      std::printf("girth = inf (tree)\n");
    } else {
      std::printf("girth ~ %u ((x,1+%.2f), %zu iterations)\n",
                  r.girth_estimate, a.epsilon, r.iterations.size());
    }
    print_stats(r.stats);
  }
  return 0;
}

int cmd_ssp(const Args& a, const Graph& g) {
  if (a.sources.empty()) usage();
  core::SspOptions opt;
  opt.engine.threads = a.threads;
  Instrumentation instr;
  instr.attach(a, opt.engine);
  const auto r = core::run_ssp(g, a.sources, opt);
  write_instrumentation(a, instr, r.stats);
  for (const NodeId s : r.sources) {
    std::printf("distances to %u:", s);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      std::printf(" %u", r.delta[v][s]);
    }
    std::printf("\n");
  }
  print_stats(r.stats);
  return 0;
}

int cmd_kdom(const Args& a, const Graph& g) {
  const auto r = core::run_kdom(g, a.k);
  std::printf("%u-dominating set (%zu nodes, bound %u): ", a.k, r.dom.size(),
              g.num_nodes() / (a.k + 1) + 1);
  for (const NodeId v : r.dom) std::printf("%u ", v);
  std::printf("\n");
  print_stats(r.stats);
  return 0;
}

int cmd_labels(const Args& a, const Graph& g) {
  const auto labels = core::build_distance_labels(g, a.k);
  std::printf("distance labels: %zu entries/node, additive error <= %u\n",
              labels.label_entries(), 2 * a.k);
  const NodeId n = g.num_nodes();
  std::printf("spot queries (u, v, estimate): ");
  for (NodeId i = 0; i < std::min<NodeId>(n, 5); ++i) {
    const NodeId u = i;
    const NodeId v = n - 1 - i;
    std::printf("(%u,%u)=%u ", u, v, labels.estimate(u, v));
  }
  std::printf("\n");
  print_stats(labels.stats());
  return 0;
}

int cmd_tree_check(const Graph& g) {
  const auto r = core::run_tree_check(g);
  std::printf("graph is %s (leader ecc = %u)\n",
              r.is_tree ? "a tree" : "not a tree", r.leader_ecc);
  print_stats(r.stats);
  return 0;
}

int cmd_two_vs_four(const Args& a, const Graph& g) {
  const auto r = core::run_two_vs_four(g, {.seed = a.seed});
  std::printf("diameter decision: %u (branch: %s, |S| = %u)\n", r.answer,
              r.used_low_degree_branch ? "low-degree" : "sampled",
              r.num_sources);
  print_stats(r.stats);
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if ((a.trace_out || a.metrics_out) && a.command != "apsp" &&
      a.command != "ssp") {
    std::fprintf(stderr,
                 "--trace-out/--metrics-out are supported for apsp and ssp\n");
    return 2;
  }
  try {
    if (a.command == "gen") return cmd_gen(a);
    const Graph g = load_graph(a);
    std::fprintf(stderr, "loaded %s\n", g.summary().c_str());
    if (a.command == "apsp") return cmd_apsp(a, g);
    if (a.command == "diameter" || a.command == "radius") return cmd_scalar(a, g);
    if (a.command == "center" || a.command == "peripheral") return cmd_set(a, g);
    if (a.command == "ecc") return cmd_ecc(a, g);
    if (a.command == "girth") return cmd_girth(a, g);
    if (a.command == "ssp") return cmd_ssp(a, g);
    if (a.command == "kdom") return cmd_kdom(a, g);
    if (a.command == "labels") return cmd_labels(a, g);
    if (a.command == "tree-check") return cmd_tree_check(g);
    if (a.command == "two-vs-four") return cmd_two_vs_four(a, g);
    usage();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
