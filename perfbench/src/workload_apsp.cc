// apsp_rand1024: one run of Algorithm 1 (run_pebble_apsp) per op on
// random_connected(1024, 4n), one engine thread. Loads the engine and the
// pebble protocol; the service, query and durable layers stay idle.
//
// Timed ops run serially: with two engine threads the per-round barrier
// stalls whenever the host deschedules either thread, and op times moved by
// +-25% between runs where serial ones moved by +-4%. The two-thread engine
// is measured after the timed ops (engine.speedup_2t) and must produce the
// same rounds, messages and bits.
#include <cstdio>
#include <string>
#include <vector>

#include "bench.h"
#include "core/pebble_apsp.h"
#include "graph/generators.h"
#include "seq/apsp.h"
#include "util/rng.h"

namespace perfbench {
namespace {

using dapsp::DistanceMatrix;
using dapsp::Graph;
using dapsp::NodeId;
using dapsp::core::ApspResult;

constexpr NodeId kN = 1024;
constexpr unsigned kThreads = 1;
constexpr int kSetups = 3;
// Enough ops for a tail percentile with ten samples beyond it.
constexpr std::size_t kMinOps = 20;
constexpr std::size_t kMinTracedOps = 5;
constexpr int kParallelOps = 3;
constexpr int kRoutesChecked = 256;

struct Counts {
  std::uint64_t rounds = 0;
  std::uint64_t messages = 0;
  std::uint64_t bits = 0;
  friend bool operator==(const Counts&, const Counts&) = default;
};

Counts counts_of(const ApspResult& r) {
  return {r.stats.rounds, r.stats.messages, r.stats.total_bits};
}

// Empty when r is right: distances equal the oracle, every next hop is a
// neighbour one step closer to the target, and sampled extract_route walks
// are shortest paths.
std::string check(const Graph& g, const DistanceMatrix& oracle,
                  const ApspResult& r, dapsp::Rng& rng) {
  if (!(r.dist == oracle)) return "distances differ from seq::apsp";
  const NodeId n = g.num_nodes();
  for (NodeId v = 0; v < n; ++v) {
    for (NodeId u = 0; u < n; ++u) {
      if (u == v) continue;
      const NodeId h = r.next_hop[v][u];
      if (h >= n || !g.has_edge(v, h) || oracle.at(h, u) + 1 != oracle.at(v, u)) {
        return "next_hop[" + std::to_string(v) + "][" + std::to_string(u) +
               "] is not on a shortest path";
      }
    }
  }
  for (int i = 0; i < kRoutesChecked; ++i) {
    const auto from = static_cast<NodeId>(rng.below(n));
    const auto to = static_cast<NodeId>(rng.below(n));
    const std::vector<NodeId> route = dapsp::core::extract_route(r, from, to);
    bool ok = route.size() == std::size_t{oracle.at(from, to)} + 1 &&
              route.front() == from && route.back() == to;
    for (std::size_t k = 1; ok && k < route.size(); ++k) {
      ok = g.has_edge(route[k - 1], route[k]);
    }
    if (!ok) {
      return "extract_route(" + std::to_string(from) + ", " +
             std::to_string(to) + ") is not a shortest path";
    }
  }
  return {};
}

struct Phase {
  std::vector<double> op_ms;
  double busy_s = 0.0;
  double ops_per_s() const {
    return busy_s > 0.0 ? static_cast<double>(op_ms.size()) / busy_s : 0.0;
  }
};

}  // namespace

Report run_apsp(const Options& opt) {
  Report rep;
  rep.threads = kThreads;
  rep.tracers.emplace_back(opt.trace);
  Tracer& tracer = rep.tracers.front();
  dapsp::core::ApspOptions ao;
  ao.engine.threads = kThreads;

  // Set-up: generate the input and run the discarded warm-up op.
  std::vector<double> setup_s;
  Graph g;
  ApspResult warm;
  for (int i = 0; i < kSetups; ++i) {
    const std::int64_t t0 = now_ns();
    g = dapsp::gen::random_connected(kN, 4 * std::size_t{kN},
                                     derive_seed(opt.seed, 1));
    warm = dapsp::core::run_pebble_apsp(g, ao);
    setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
  }
  const DistanceMatrix oracle = dapsp::seq::apsp(g);
  dapsp::Rng check_rng(derive_seed(opt.seed, 2));
  const Counts base = counts_of(warm);
  if (std::string why = check(g, oracle, warm, check_rng); !why.empty()) {
    rep.errors.push_back("warm-up op: " + why);
    ++rep.failed;
  }

  std::uint64_t op_id = 0;
  auto run_phase = [&](double seconds, std::size_t min_ops, bool traced) {
    Phase ph;
    const std::int64_t deadline =
        now_ns() + static_cast<std::int64_t>(seconds * 1e9);
    for (std::size_t attempts = 0; now_ns() < deadline || attempts < min_ops; ++attempts) {
      ++rep.attempted;
      ++op_id;
      ApspResult r;
      const std::int64_t t0 = now_ns();
      {
        std::int32_t root = -1, call = -1;
        if (traced) {
          root = tracer.begin_at("op", Layer::kBench, op_id, t0);
          call = tracer.begin("run_pebble_apsp", Layer::kEngine, op_id);
        }
        try {
          r = dapsp::core::run_pebble_apsp(g, ao);
        } catch (const std::exception& e) {
          tracer.end(call);
          tracer.end(root);
          rep.fail(std::string("run_pebble_apsp threw: ") + e.what());
          continue;
        }
        tracer.end(call);
        tracer.end(root);
      }
      const std::int64_t t1 = now_ns();
      ph.op_ms.push_back(ms_between(t0, t1));
      ph.busy_s += ms_between(t0, t1) / 1e3;
      if (counts_of(r) != base) {
        rep.fail("determinism: op " + std::to_string(op_id) +
                 " rounds/messages/bits differ from the warm-up op");
      } else if (std::string why = check(g, oracle, r, check_rng); !why.empty()) {
        rep.fail("op " + std::to_string(op_id) + ": " + why);
      }
    }
    return ph;
  };

  const Phase plain = run_phase(opt.trace ? opt.seconds / 2.0 : opt.seconds,
                                opt.trace ? kMinTracedOps : kMinOps, false);

  // Determinism across thread counts: two-thread runs must cost exactly
  // the same.
  std::vector<double> parallel_ms;
  dapsp::core::ApspOptions parallel = ao;
  parallel.engine.threads = 2;
  for (int i = 0; i < (opt.trace ? kParallelOps : 1); ++i) {
    const std::int64_t t0 = now_ns();
    const ApspResult r = dapsp::core::run_pebble_apsp(g, parallel);
    parallel_ms.push_back(ms_between(t0, now_ns()));
    if (counts_of(r) != base) {
      rep.fail("determinism: the 2-thread run differs from the 1-thread run");
    }
  }

  rep.add_e2e("setup_s", median(setup_s), "s", setup_s.size(),
              "input + warm-up op");
  rep.add_e2e("ops_per_s", plain.ops_per_s(), "1/s", plain.op_ms.size());
  rep.add_e2e("op_ms_p50", median(plain.op_ms), "ms", plain.op_ms.size());
  if (!opt.trace) {
    rep.add_tail(plain.op_ms);  // the traced run's untraced half is too short
  } else {
    const Phase traced = run_phase(opt.seconds / 2.0, kMinTracedOps, true);
    const double p50 = median(traced.op_ms);
    rep.add_layer("engine.rounds", static_cast<double>(base.rounds), "count", 1);
    rep.add_layer("engine.messages", static_cast<double>(base.messages), "count", 1);
    rep.add_layer("engine.bits", static_cast<double>(base.bits), "bit", 1);
    rep.add_layer("engine.ns_per_msg", p50 * 1e6 / static_cast<double>(base.messages),
                  "ns", traced.op_ms.size());
    rep.add_layer("engine.serial_op_ms", median(plain.op_ms), "ms", plain.op_ms.size());
    rep.add_layer("engine.speedup_2t", median(plain.op_ms) / median(parallel_ms),
                  "x", parallel_ms.size());
    rep.add_layer("bench.trace_overhead", traced.ops_per_s() / plain.ops_per_s(),
                  "ratio", traced.op_ms.size());
  }
  return rep;
}

}  // namespace perfbench
