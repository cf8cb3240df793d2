// query_server — export and serve immutable DQRY query snapshots.
//
// Export mode builds a graph (or churns one through DapspService), encodes
// the served tables + per-row statuses into a DQRY blob (optionally with
// a 2-hop distance labeling), and writes it atomically:
//
//   query_server --export snap.dqry --gen random --universe 64 --seed 7
//   query_server --export snap.dqry --universe 32 --updates 40 --chaos 0.05
//   query_server --export snap.dqry --universe 64 --labels 2
//
// Serving modes mmap a previously exported blob (checksum-verified on open)
// and answer from it without ever copying the tables:
//
//   query_server --snapshot snap.dqry --info
//   query_server --snapshot snap.dqry --query 3 17
//   query_server --snapshot snap.dqry --k-nearest 3 5
//   query_server --snapshot snap.dqry --ecc 3
//   query_server --snapshot snap.dqry --estimate 3 17   (needs --labels)
//   query_server --snapshot snap.dqry --bench-lookups 1000000
//
// Overload mode replays a seeded virtual-clock arrival storm through the
// resilience layer (core/resilience.h): deadlines, per-class admission,
// brownout-to-estimates, jittered retries. Prints the latency/shed summary
// and the resilience_* health counters; exits 1 if any served answer
// overclaims its freshness or the shed accounting fails to balance:
//
//   query_server --snapshot snap.dqry --overload 20000 --offered 200000
//   query_server --snapshot snap.dqry --overload 20000 --offered 200000
//       --deadline-us 8 --trace-out shed.jsonl --metrics-out health.json
//
// (the last example is one command line).
//
// Every answer carries its serving status (exact/repaired/stale, plus
// approximate for label estimates): a stale row is served, but the caller
// is told the value may not reflect the epoch's graph, and a label-derived
// estimate is never passed off as exact. Exit codes: 0 ok, 1 error, 2 usage.
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <fstream>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "cli_output.h"
#include "congest/trace.h"
#include "core/distance_labels.h"
#include "core/query.h"
#include "core/resilience.h"
#include "core/service.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "util/blob.h"
#include "util/metrics.h"
#include "util/rng.h"

using namespace dapsp;

namespace {

struct Args {
  // Export.
  std::optional<std::string> export_path;
  std::string gen = "random";
  std::optional<std::string> graph_file;
  NodeId universe = 24;
  std::uint64_t seed = 1;
  std::uint64_t updates = 0;
  double chaos = 0.0;
  std::optional<std::uint32_t> labels_k;
  // Serve.
  std::optional<std::string> snapshot_path;
  bool info = false;
  std::optional<std::pair<NodeId, NodeId>> query;
  std::optional<std::pair<NodeId, std::uint32_t>> k_nearest;
  std::optional<NodeId> ecc;
  std::optional<std::pair<NodeId, NodeId>> estimate;
  std::uint64_t bench_lookups = 0;
  // Overload replay.
  std::uint64_t overload_requests = 0;
  std::uint64_t offered_per_sec = 100'000;
  std::uint64_t deadline_us = 0;
  std::optional<std::string> trace_out;
  std::optional<std::string> metrics_out;
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: query_server --export <f> [--gen fam|--graph f] [--universe n]\n"
      "                    [--seed s] [--updates k] [--chaos p] [--labels k]\n"
      "       query_server --snapshot <f> (--info | --query u v |\n"
      "                    --k-nearest u k | --ecc u | --estimate u v |\n"
      "                    --bench-lookups n |\n"
      "                    --overload n [--offered r] [--deadline-us d]\n"
      "                    [--seed s] [--trace-out f] [--metrics-out f])\n");
  std::exit(2);
}

Args parse(int argc, char** argv) {
  Args a;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    auto next_node = [&]() { return static_cast<NodeId>(std::stoul(next())); };
    if (arg == "--export") {
      a.export_path = next();
    } else if (arg == "--gen") {
      a.gen = next();
    } else if (arg == "-g" || arg == "--graph") {
      a.graph_file = next();
    } else if (arg == "--universe") {
      a.universe = next_node();
    } else if (arg == "--seed") {
      a.seed = std::stoull(next());
    } else if (arg == "--updates") {
      a.updates = std::stoull(next());
    } else if (arg == "--chaos") {
      a.chaos = std::stod(next());
    } else if (arg == "--labels") {
      a.labels_k = static_cast<std::uint32_t>(std::stoul(next()));
    } else if (arg == "--snapshot") {
      a.snapshot_path = next();
    } else if (arg == "--info") {
      a.info = true;
    } else if (arg == "--query") {
      const NodeId u = next_node();
      a.query = {u, next_node()};
    } else if (arg == "--k-nearest") {
      const NodeId u = next_node();
      a.k_nearest = {u, static_cast<std::uint32_t>(std::stoul(next()))};
    } else if (arg == "--ecc") {
      a.ecc = next_node();
    } else if (arg == "--estimate") {
      const NodeId u = next_node();
      a.estimate = {u, next_node()};
    } else if (arg == "--bench-lookups") {
      a.bench_lookups = std::stoull(next());
    } else if (arg == "--overload") {
      a.overload_requests = std::stoull(next());
    } else if (arg == "--offered") {
      a.offered_per_sec = std::stoull(next());
    } else if (arg == "--deadline-us") {
      a.deadline_us = std::stoull(next());
    } else if (arg == "--trace-out") {
      a.trace_out = next();
    } else if (arg == "--metrics-out") {
      a.metrics_out = next();
    } else {
      usage();
    }
  }
  if (a.export_path.has_value() == a.snapshot_path.has_value()) usage();
  return a;
}

Graph make_graph(const Args& a) {
  if (a.graph_file) {
    std::ifstream in(*a.graph_file);
    if (!in) {
      std::fprintf(stderr, "cannot open %s\n", a.graph_file->c_str());
      std::exit(1);
    }
    return io::read_edge_list(in);
  }
  const NodeId n = a.universe;
  if (a.gen == "random") return gen::random_connected(n, n / 2, a.seed);
  if (a.gen == "path") return gen::path(n);
  if (a.gen == "cycle") return gen::cycle(n);
  if (a.gen == "tree") return gen::balanced_tree(n, 2);
  if (a.gen == "grid") {
    NodeId rows = static_cast<NodeId>(std::sqrt(static_cast<double>(n)));
    while (rows > 1 && n % rows != 0) --rows;
    return gen::grid(rows, n / rows);
  }
  std::fprintf(stderr, "unknown --gen family %s\n", a.gen.c_str());
  std::exit(2);
}

int run_export(const Args& a) {
  const Graph g = make_graph(a);
  core::DapspService svc(g, {});
  if (a.updates > 0) {
    DeltaPlanConfig pc;
    pc.seed = a.seed;
    pc.crash_prob = a.chaos;  // bit-rot off: exported statuses stay honest
    DeltaPlan plan(pc);
    for (std::uint64_t u = 0; u < a.updates; ++u) {
      svc.step(plan.next(svc.dynamic_graph()));
    }
  }

  // Labels are built from the final graph; churn can leave it disconnected,
  // in which case the labeling refuses (by design) and the snapshot ships
  // without the label section rather than with a partial one.
  std::optional<core::DistanceLabeling> labels;
  if (a.labels_k) {
    try {
      labels.emplace(
          core::build_distance_labels(svc.dynamic_graph().snapshot(),
                                      *a.labels_k));
    } catch (const std::invalid_argument& e) {
      std::fprintf(stderr, "labels skipped: %s\n", e.what());
    }
  }

  const std::vector<std::uint8_t> blob = core::encode_query_snapshot(
      svc, /*sequence=*/0, /*degraded=*/!svc.fully_certified(),
      labels ? &*labels : nullptr);
  write_blob_atomic(*a.export_path, blob);
  std::printf("exported %zu bytes: n=%u epoch=%llu labels=%s\n", blob.size(),
              svc.dynamic_graph().universe(),
              static_cast<unsigned long long>(svc.epoch()),
              labels ? "yes" : "no");
  return 0;
}

void print_answer(const char* what, const core::QueryAnswer& ans) {
  if (!ans.active) {
    std::printf("%s: inactive endpoint\n", what);
    return;
  }
  if (ans.dist == kInfDist) {
    std::printf("%s: unreachable [%s]\n", what, core::to_string(ans.status));
    return;
  }
  std::printf("%s: dist=%u next_hop=%s [%s]\n", what, ans.dist,
              ans.next_hop == core::kNoNextHop
                  ? "-"
                  : std::to_string(ans.next_hop).c_str(),
              core::to_string(ans.status));
}

int run_serve(const Args& a) {
  const core::QuerySnapshot snap = core::QuerySnapshot::from_file(*a.snapshot_path);
  if (a.info) {
    std::uint32_t active = 0, stale = 0;
    for (NodeId v = 0; v < snap.n(); ++v) {
      if (!snap.active(v)) continue;
      ++active;
      if (snap.status(v) == core::RowStatus::kStale) ++stale;
    }
    std::printf(
        "snapshot %s: %zu bytes, n=%u active=%u epoch=%llu seq=%llu "
        "degraded=%d stale_rows=%u labels=%s",
        a.snapshot_path->c_str(), snap.bytes().size(), snap.n(), active,
        static_cast<unsigned long long>(snap.epoch()),
        static_cast<unsigned long long>(snap.sequence()),
        snap.degraded() ? 1 : 0, stale, snap.has_labels() ? "yes" : "no");
    if (snap.has_labels()) {
      std::printf(" (k=%u, %zu dominators)", snap.label_k(),
                  snap.dominators().size());
    }
    std::printf("\n");
    return 0;
  }
  if (a.query) {
    print_answer("p2p", snap.p2p(a.query->first, a.query->second));
    return 0;
  }
  if (a.k_nearest) {
    const core::KNearestAnswer ans =
        snap.k_nearest(a.k_nearest->first, a.k_nearest->second);
    if (!ans.active) {
      std::printf("k-nearest: inactive source\n");
      return 0;
    }
    std::printf("k-nearest of %u [%s]:", a.k_nearest->first,
                core::to_string(ans.status));
    for (const core::NearNeighbor& nn : ans.nearest) {
      std::printf(" %u@%u", nn.node, nn.dist);
    }
    std::printf("\n");
    return 0;
  }
  if (a.ecc) {
    const core::EccentricityAnswer ans = snap.eccentricity(*a.ecc);
    if (!ans.active) {
      std::printf("ecc: inactive source\n");
      return 0;
    }
    std::printf("ecc(%u)=%u farthest=%u unreachable=%u [%s]\n", *a.ecc,
                ans.ecc, ans.farthest, ans.unreachable,
                core::to_string(ans.status));
    return 0;
  }
  if (a.estimate) {
    if (!snap.has_labels()) {
      std::fprintf(stderr, "snapshot has no label section\n");
      return 1;
    }
    const std::uint32_t est =
        snap.label_estimate(a.estimate->first, a.estimate->second);
    const core::QueryAnswer exact =
        snap.p2p(a.estimate->first, a.estimate->second);
    // A label-derived answer is never status-exact, whatever the row says:
    // the caller sees the same kApproximate marker the brownout path uses.
    std::printf("estimate(%u,%u)=%u [%s] exact=%u (additive slack <= %u)\n",
                a.estimate->first, a.estimate->second, est,
                core::to_string(core::ServeStatus::kApproximate), exact.dist,
                2 * snap.label_k());
    return 0;
  }
  if (a.overload_requests > 0) {
    core::OverloadConfig cfg;
    cfg.seed = a.seed;
    cfg.requests = a.overload_requests;
    cfg.arrivals_per_sec = a.offered_per_sec;
    cfg.deadline_us = a.deadline_us;
    // Serving-tier defaults: interactive protected by concurrency + a tight
    // wait bound, batch bounded, background rate-limited; brownout swaps
    // heavy scans for label estimates once the queues back up.
    auto& inter = cfg.admission.policy(core::PriorityClass::kInteractive);
    inter.max_concurrent = 4;
    inter.max_queue = 16;
    inter.max_wait_us = 50;
    auto& batch = cfg.admission.policy(core::PriorityClass::kBatch);
    batch.max_concurrent = 2;
    batch.max_queue = 8;
    batch.max_wait_us = 500;
    auto& bg = cfg.admission.policy(core::PriorityClass::kBackground);
    bg.tokens_per_sec = 20'000;
    bg.burst = 4;
    bg.max_concurrent = 1;
    bg.max_queue = 4;
    bg.max_wait_us = 1'000;
    cfg.brownout.enter_queue_depth = 6;
    cfg.brownout.exit_queue_depth = 2;
    cfg.retry.seed = a.seed;

    congest::TraceLog trace;
    const core::SimReport rep =
        run_overload_sim(snap, cfg, a.trace_out ? &trace : nullptr);

    std::printf(
        "overload: offered=%llu admitted=%llu shed=%llu "
        "(rate=%llu queue_full=%llu queue_wait=%llu)\n",
        static_cast<unsigned long long>(rep.offered),
        static_cast<unsigned long long>(rep.admitted),
        static_cast<unsigned long long>(rep.shed_total()),
        static_cast<unsigned long long>(rep.shed_rate),
        static_cast<unsigned long long>(rep.shed_queue_full),
        static_cast<unsigned long long>(rep.shed_queue_wait));
    std::printf(
        "served: exact=%llu stale=%llu approximate=%llu truncated=%llu "
        "(p50/p99 interactive %llu/%llu us, virtual end %llu us)\n",
        static_cast<unsigned long long>(rep.exact_served),
        static_cast<unsigned long long>(rep.stale_served),
        static_cast<unsigned long long>(rep.approximate_served),
        static_cast<unsigned long long>(rep.deadline_truncated),
        static_cast<unsigned long long>(
            rep.quantile_us(core::PriorityClass::kInteractive, 0.50)),
        static_cast<unsigned long long>(
            rep.quantile_us(core::PriorityClass::kInteractive, 0.99)),
        static_cast<unsigned long long>(rep.end_us));
    MetricsRegistry health;
    rep.to_metrics(health, snap);
    std::printf("health:");
    for (const auto& [name, value] : health.counters()) {
      std::printf(" %s=%llu", name.c_str() + std::strlen("resilience_"),
                  static_cast<unsigned long long>(value));
    }
    std::printf("\n");

    if (a.trace_out) cli::write_trace_file(*a.trace_out, trace);
    if (a.metrics_out) cli::write_metrics_file(*a.metrics_out, health);

    // The contract this mode exists to enforce.
    if (rep.overclaims != 0) {
      std::fprintf(stderr, "FAIL: %llu degraded answers claimed exact\n",
                   static_cast<unsigned long long>(rep.overclaims));
      return 1;
    }
    if (rep.offered != rep.admitted + rep.shed_total()) {
      std::fprintf(stderr, "FAIL: shed accounting does not balance\n");
      return 1;
    }
    return 0;
  }
  if (a.bench_lookups > 0) {
    Rng rng(a.seed);
    const NodeId n = snap.n();
    std::uint64_t sum = 0;
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t i = 0; i < a.bench_lookups; ++i) {
      const NodeId u = static_cast<NodeId>(rng.below(n));
      const NodeId v = static_cast<NodeId>(rng.below(n));
      sum += snap.p2p(u, v).dist;
    }
    const double secs =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - t0)
            .count();
    std::printf("bench: %llu lookups in %.3fs = %.0f/sec (sum=%llu)\n",
                static_cast<unsigned long long>(a.bench_lookups), secs,
                static_cast<double>(a.bench_lookups) / secs,
                static_cast<unsigned long long>(sum));
    return 0;
  }
  usage();
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  try {
    return a.export_path ? run_export(a) : run_serve(a);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }
}
