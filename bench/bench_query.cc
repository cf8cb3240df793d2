// Wall-clock throughput of the query serving tier (core/query.h): point
// lookups against a DQRY snapshot, batched queries, label-oracle estimates
// with and without the hot-source cache, and snapshot swap/acquire costs.
// Not a paper experiment — the serving tier is an engineering subsystem and
// this gauge is what keeps its "answers are an array read" claim honest.
//
// Results land in BENCH_query.json in the working directory, with the
// host's hardware thread count recorded and the same honesty convention as
// BENCH_engine.json: reader counts beyond the hardware are still measured,
// but their speedup is written as null — oversubscribed "speedup" is
// fiction.
//
// Modes:
//   --smoke            tiny instance (n = 256), loose assertions; used by
//                      check.sh --query-smoke.
//   --assert-rate R    fail (exit 1) unless serial p2p throughput reaches R
//                      lookups/sec (e.g. --assert-rate 10000000).
//   --n N              snapshot size (default 2048).
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "core/distance_labels.h"
#include "core/query.h"
#include "graph/generators.h"
#include "seq/apsp.h"
#include "util/rng.h"

using namespace dapsp;
using namespace dapsp::core;

namespace {

double now_sec() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

std::uint32_t hardware_threads() {
  const unsigned hw = std::thread::hardware_concurrency();
  return hw == 0 ? 1 : hw;
}

struct Row {
  std::string workload;
  std::uint32_t n = 0;
  std::uint32_t threads = 1;
  double seconds = 0;
  double per_sec = 0;       // items (lookups/queries/swaps) per second
  bool oversubscribed = false;
  double speedup = -1;      // < 0 => null (baseline-less or oversubscribed)
};

std::vector<Row> g_rows;

void record(Row r) {
  std::printf("%-28s n=%-6u threads=%-2u  %12.0f /sec  (%.3fs)%s\n",
              r.workload.c_str(), r.n, r.threads, r.per_sec, r.seconds,
              r.oversubscribed ? "  [oversubscribed]" : "");
  g_rows.push_back(std::move(r));
}

void write_json() {
  std::FILE* f = std::fopen("BENCH_query.json", "w");
  if (f == nullptr) return;
  std::fprintf(f, "{\n  \"hardware_threads\": %u,\n  \"results\": [\n",
               hardware_threads());
  for (std::size_t i = 0; i < g_rows.size(); ++i) {
    const Row& r = g_rows[i];
    std::fprintf(f,
                 "    {\"workload\": \"%s\", \"n\": %u, \"threads\": %u, "
                 "\"seconds\": %.6f, \"per_sec\": %.0f, ",
                 r.workload.c_str(), r.n, r.threads, r.seconds, r.per_sec);
    if (r.speedup >= 0) {
      std::fprintf(f, "\"speedup\": %.3f, ", r.speedup);
    } else {
      std::fprintf(f, "\"speedup\": null, ");
    }
    std::fprintf(f, "\"oversubscribed\": %s}%s\n",
                 r.oversubscribed ? "true" : "false",
                 i + 1 < g_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_query.json (%zu rows)\n", g_rows.size());
}

// Pre-generated lookup mix so the timed loop is pure query work.
std::vector<std::pair<NodeId, NodeId>> make_pairs(NodeId n, std::size_t count,
                                                  std::uint64_t seed) {
  Rng rng(seed);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  pairs.reserve(count);
  for (std::size_t i = 0; i < count; ++i) {
    pairs.emplace_back(static_cast<NodeId>(rng.below(n)),
                       static_cast<NodeId>(rng.below(n)));
  }
  return pairs;
}

double bench_p2p_serial(const QuerySnapshot& snap,
                        std::span<const std::pair<NodeId, NodeId>> pairs,
                        std::size_t rounds) {
  std::uint64_t sink = 0;
  const double t0 = now_sec();
  for (std::size_t r = 0; r < rounds; ++r) {
    for (const auto& [u, v] : pairs) {
      sink += snap.p2p(u, v).dist;
    }
  }
  const double dt = now_sec() - t0;
  const double total = static_cast<double>(pairs.size() * rounds);
  std::printf("  (checksum %llu)\n", static_cast<unsigned long long>(sink));
  Row row;
  row.workload = "p2p_serial";
  row.n = snap.n();
  row.seconds = dt;
  row.per_sec = total / dt;
  row.speedup = 1.0;
  record(row);
  return row.per_sec;
}

void bench_p2p_readers(SnapshotStore& store,
                       std::span<const std::pair<NodeId, NodeId>> pairs,
                       std::size_t rounds, std::uint32_t threads,
                       double serial_rate, NodeId n) {
  std::vector<std::thread> workers;
  std::vector<double> secs(threads, 0.0);
  const double t0 = now_sec();
  for (std::uint32_t t = 0; t < threads; ++t) {
    workers.emplace_back([&, t] {
      SnapshotReader reader(store);
      std::uint64_t sink = 0;
      const double s0 = now_sec();
      for (std::size_t r = 0; r < rounds; ++r) {
        SnapshotRef ref = reader.acquire();
        for (const auto& [u, v] : pairs) sink += ref->p2p(u, v).dist;
      }
      secs[t] = now_sec() - s0;
      if (sink == 0xdeadbeef) std::printf("!");  // keep the sum alive
    });
  }
  for (std::thread& th : workers) th.join();
  const double dt = now_sec() - t0;
  const bool over = threads > hardware_threads();
  Row row;
  row.workload = "p2p_readers";
  row.n = n;
  row.threads = threads;
  row.seconds = dt;
  row.per_sec = static_cast<double>(pairs.size() * rounds * threads) / dt;
  row.oversubscribed = over;
  row.speedup = over ? -1 : row.per_sec / serial_rate;
  record(row);
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  double assert_rate = 0;
  NodeId n = 2048;
  const char* const usage = "[--smoke] [--assert-rate R] [--n N]";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--assert-rate") == 0 && i + 1 < argc) {
      assert_rate = bench::flag_value<double>(argv[++i], argv[0], usage);
    } else if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      n = bench::flag_value<NodeId>(argv[++i], argv[0], usage);
    } else {
      bench::usage_exit(argv[0], usage);
    }
  }
  if (smoke) n = 256;

  std::printf("building n=%u snapshot (exact tables via seq::apsp)...\n", n);
  const Graph g = gen::random_connected(n, 2 * n, 1234);
  const DistanceMatrix dist = seq::apsp(g);
  const std::vector<std::uint8_t> active(n, 1);
  const std::vector<RowStatus> status(n, RowStatus::kExact);

  // The setup publish, printed only: encode_query_snapshot_tables
  // transposes node-major tables, unlike a service's source-major publish.
  const double enc0 = now_sec();
  std::vector<std::uint8_t> blob = encode_query_snapshot_tables(
      dist, nullptr, active, status, /*epoch=*/1, /*sequence=*/1, false);
  const double enc1 = now_sec();
  auto verified = std::make_unique<const QuerySnapshot>(
      QuerySnapshot::from_blob(std::move(blob)));
  std::printf("encoded %zu MiB in %.3fs, verified in %.3fs\n",
              verified->bytes().size() >> 20, enc1 - enc0, now_sec() - enc1);

  SnapshotStore store;
  store.publish(std::move(verified));
  SnapshotReader main_reader(store);
  SnapshotRef ref = main_reader.acquire();
  const QuerySnapshot& snap = *ref;

  const std::size_t pair_count = smoke ? (1u << 14) : (1u << 20);
  const std::size_t rounds = smoke ? 4 : 16;
  const auto pairs = make_pairs(n, pair_count, 99);

  const double serial = bench_p2p_serial(snap, pairs, rounds);

  {  // batched API
    std::vector<QueryAnswer> out;
    const double t0 = now_sec();
    for (std::size_t r = 0; r < rounds; ++r) snap.p2p_batch(pairs, out);
    const double dt = now_sec() - t0;
    Row row;
    row.workload = "p2p_batch";
    row.n = n;
    row.seconds = dt;
    row.per_sec = static_cast<double>(pair_count * rounds) / dt;
    record(row);
  }

  {  // k-nearest + eccentricity row scans
    const std::size_t queries = smoke ? 512 : 4096;
    Rng rng(7);
    double t0 = now_sec();
    std::size_t got = 0;
    for (std::size_t i = 0; i < queries; ++i) {
      got += snap.k_nearest(static_cast<NodeId>(rng.below(n)), 8)
                 .nearest.size();
    }
    double dt = now_sec() - t0;
    Row row;
    row.workload = "k_nearest8";
    row.n = n;
    row.seconds = dt;
    row.per_sec = static_cast<double>(queries) / dt;
    record(row);
    t0 = now_sec();
    std::uint64_t acc = got;
    for (std::size_t i = 0; i < queries; ++i) {
      acc += snap.eccentricity(static_cast<NodeId>(rng.below(n))).ecc;
    }
    dt = now_sec() - t0;
    row.workload = "eccentricity";
    row.seconds = dt;
    row.per_sec = static_cast<double>(queries) / dt;
    record(row);
    if (acc == 0xdeadbeef) std::printf("!");
  }

  // Concurrent readers over the store (mid-pin, no swaps): scaling rows.
  for (const std::uint32_t t : {2u, 8u}) {
    bench_p2p_readers(store, pairs, smoke ? 2 : 4, t, serial, n);
  }

  {  // label-oracle estimates, cold vs hot-source LRU cache
    const NodeId ln = smoke ? 128 : 512;
    const Graph lg = gen::random_connected(ln, 2 * ln, 77);
    const DistanceLabeling lab = build_distance_labels(lg, 2);
    const DistanceMatrix ldist = seq::apsp(lg);
    const std::vector<std::uint8_t> lactive(ln, 1);
    const std::vector<RowStatus> lstatus(ln, RowStatus::kExact);
    const QuerySnapshot lsnap =
        QuerySnapshot::from_blob(encode_query_snapshot_tables(
            ldist, nullptr, lactive, lstatus, 1, 1, false, &lab));
    const auto lpairs = make_pairs(ln, smoke ? (1u << 12) : (1u << 16), 5);

    std::uint64_t sink = 0;
    double t0 = now_sec();
    for (const auto& [u, v] : lpairs) sink += lsnap.label_estimate(u, v);
    double dt = now_sec() - t0;
    Row row;
    row.workload = "label_estimate_cold";
    row.n = ln;
    row.seconds = dt;
    row.per_sec = static_cast<double>(lpairs.size()) / dt;
    record(row);

    // Hot-source mix: 16 distinct sources, cache large enough to hold them.
    LabelCache cache(16);
    std::vector<std::pair<NodeId, NodeId>> hot(lpairs);
    for (auto& p : hot) p.first = p.first % 16;
    t0 = now_sec();
    for (const auto& [u, v] : hot) sink += cache.estimate(lsnap, u, v);
    dt = now_sec() - t0;
    row.workload = "label_estimate_lru16";
    row.seconds = dt;
    row.per_sec = static_cast<double>(hot.size()) / dt;
    record(row);
    std::printf("  cache hits=%llu misses=%llu (checksum %llu)\n",
                static_cast<unsigned long long>(cache.hits()),
                static_cast<unsigned long long>(cache.misses()),
                static_cast<unsigned long long>(sink));
  }

  {  // snapshot swap + acquire round-trip cost (small snapshots)
    const NodeId sn = 64;
    const Graph sg = gen::random_connected(sn, sn, 3);
    const DistanceMatrix sdist = seq::apsp(sg);
    const std::vector<std::uint8_t> sactive(sn, 1);
    const std::vector<RowStatus> sstatus(sn, RowStatus::kExact);
    SnapshotStore swap_store;
    SnapshotReader swap_reader(swap_store);
    const std::size_t swaps = smoke ? 200 : 2000;
    const double t0 = now_sec();
    for (std::size_t i = 0; i < swaps; ++i) {
      swap_store.publish(std::make_unique<const QuerySnapshot>(
          QuerySnapshot::from_blob(encode_query_snapshot_tables(
              sdist, nullptr, sactive, sstatus, i, i, false))));
      SnapshotRef r = swap_reader.acquire();
      if (r->sequence() != i) std::abort();
    }
    const double dt = now_sec() - t0;
    Row row;
    row.workload = "publish_acquire";
    row.n = sn;
    row.seconds = dt;
    row.per_sec = static_cast<double>(swaps) / dt;
    record(row);
    if (swap_store.retired_pending() != 0) {
      std::printf("warning: %zu snapshots unreclaimed\n",
                  swap_store.retired_pending());
    }
  }

  write_json();

  if (assert_rate > 0 && serial < assert_rate) {
    std::fprintf(stderr,
                 "FAIL: serial p2p %.0f lookups/sec below the %.0f floor\n",
                 serial, assert_rate);
    return 1;
  }
  std::printf("serial p2p: %.1fM lookups/sec\n", serial / 1e6);
  return 0;
}
