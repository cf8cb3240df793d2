// Overload robustness gauge for the serving tier (core/resilience.h,
// DESIGN.md section 18): latency and shed-rate vs offered load under the
// seeded virtual-clock overload injector. Not a paper experiment — this is
// the harness that keeps the admission controller's promise honest: under
// 4x-saturation offered load, ADMITTED interactive requests still finish
// near their unloaded latency, the excess is shed EXPLICITLY (counted, not
// silently queued to death), and nothing served ever overclaims its
// freshness (a brownout estimate or truncated scan never reports exact).
//
// Everything here runs on the virtual clock, so the curve is bit-identical
// across hosts and runs: wall-clock only shows up as the (reported, never
// asserted) sim-execution throughput.
//
// Results land in BENCH_resilience.json in the working directory, with the
// host's hardware thread count recorded (house convention), the saturation
// offered-load (requests/sec of virtual time), and one row per offered-load
// multiplier {0.25, 0.5, 1, 2, 4}.
//
// Modes:
//   --smoke     tiny instance (n = 64, 3000 requests); used by
//               check.sh --overload-smoke.
//   --assert    fail (exit 1) unless the robustness floor holds:
//                 * same-seed reruns produce identical digests,
//                 * offered == admitted + shed on every row (no silent
//                   drops), zero overclaims on every row,
//                 * at 4x saturation, sheds > 0 (overload is refused, not
//                   absorbed) and p99 of admitted interactive requests is
//                   within 5x the unloaded (0.25x) p99,
//                 * goodput (exact + approximate answers per virtual
//                   second) at 4x is no lower than at 0.25x.
//   --n N       snapshot size (default 256).
//   --requests R  arrivals per row (default 30000).
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
#include "core/resilience.h"
#include "graph/generators.h"
#include "seq/apsp.h"

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
  double multiplier = 0;            // offered load / saturation
  std::uint64_t arrivals_per_sec = 0;
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;
  std::uint64_t shed_rate = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_queue_wait = 0;
  double shed_pct = 0;
  std::uint64_t p50_interactive_us = 0;
  std::uint64_t p99_interactive_us = 0;
  std::uint64_t p99_batch_us = 0;
  double goodput_per_sec = 0;       // exact + approximate per virtual sec
  std::uint64_t deadline_truncated = 0;
  std::uint64_t approximate_served = 0;
  std::uint64_t brownout_enters = 0;
  std::uint64_t overclaims = 0;
  std::uint64_t end_us = 0;         // virtual end of the run
  std::uint64_t digest = 0;
  double wall_seconds = 0;
};

std::vector<Row> g_rows;

void record(Row r) {
  std::printf(
      "%4.2fx  offered=%-6llu shed=%5.1f%%  p99_int=%4lluus p99_bat=%4lluus  "
      "goodput=%9.0f/s  approx=%-5llu trunc=%-5llu  (%.3fs wall)\n",
      r.multiplier, static_cast<unsigned long long>(r.offered), r.shed_pct,
      static_cast<unsigned long long>(r.p99_interactive_us),
      static_cast<unsigned long long>(r.p99_batch_us), r.goodput_per_sec,
      static_cast<unsigned long long>(r.approximate_served),
      static_cast<unsigned long long>(r.deadline_truncated), r.wall_seconds);
  g_rows.push_back(r);
}

void write_json(std::uint32_t n, std::uint64_t saturation) {
  std::FILE* f = std::fopen("BENCH_resilience.json", "w");
  if (f == nullptr) return;
  std::fprintf(f,
               "{\n  \"hardware_threads\": %u,\n  \"n\": %u,\n"
               "  \"saturation_arrivals_per_sec\": %llu,\n  \"results\": [\n",
               hardware_threads(), n,
               static_cast<unsigned long long>(saturation));
  for (std::size_t i = 0; i < g_rows.size(); ++i) {
    const Row& r = g_rows[i];
    std::fprintf(
        f,
        "    {\"multiplier\": %.2f, \"arrivals_per_sec\": %llu, "
        "\"offered\": %llu, \"admitted\": %llu, "
        "\"shed_rate\": %llu, \"shed_queue_full\": %llu, "
        "\"shed_queue_wait\": %llu, \"shed_pct\": %.2f, "
        "\"p50_interactive_us\": %llu, \"p99_interactive_us\": %llu, "
        "\"p99_batch_us\": %llu, \"goodput_per_sec\": %.0f, "
        "\"deadline_truncated\": %llu, \"approximate_served\": %llu, "
        "\"brownout_enters\": %llu, \"overclaims\": %llu, "
        "\"virtual_end_us\": %llu, \"digest\": \"%016llx\"}%s\n",
        r.multiplier, static_cast<unsigned long long>(r.arrivals_per_sec),
        static_cast<unsigned long long>(r.offered),
        static_cast<unsigned long long>(r.admitted),
        static_cast<unsigned long long>(r.shed_rate),
        static_cast<unsigned long long>(r.shed_queue_full),
        static_cast<unsigned long long>(r.shed_queue_wait), r.shed_pct,
        static_cast<unsigned long long>(r.p50_interactive_us),
        static_cast<unsigned long long>(r.p99_interactive_us),
        static_cast<unsigned long long>(r.p99_batch_us), r.goodput_per_sec,
        static_cast<unsigned long long>(r.deadline_truncated),
        static_cast<unsigned long long>(r.approximate_served),
        static_cast<unsigned long long>(r.brownout_enters),
        static_cast<unsigned long long>(r.overclaims),
        static_cast<unsigned long long>(r.end_us),
        static_cast<unsigned long long>(r.digest),
        i + 1 < g_rows.size() ? "," : "");
  }
  std::fprintf(f, "  ]\n}\n");
  std::fclose(f);
  std::printf("wrote BENCH_resilience.json (%zu rows)\n", g_rows.size());
}

// The bench admission policy: interactive gets real concurrency and a tight
// wait bound (this is what makes the 5x-p99 promise provable — an admitted
// interactive request can wait at most max_wait_us before its scan starts);
// batch and background get starved first, background also rate-limited so
// the shed_rate counter exercises on the curve.
OverloadConfig curve_config(NodeId n, std::uint64_t requests) {
  OverloadConfig cfg;
  cfg.seed = 2026;
  cfg.requests = requests;
  cfg.deadline_us = n / 32;  // budget = n/2 cells: row scans truncate,
                             // p2p batches (8 cells) always fit
  cfg.batch_pairs = 8;
  cfg.k_nearest_k = 8;
  cfg.transient_failure_ppm = 0;  // retries are gauged separately below

  auto& inter = cfg.admission.policy(PriorityClass::kInteractive);
  inter.max_concurrent = 4;
  inter.max_queue = 16;
  inter.max_wait_us = 10;
  auto& batch = cfg.admission.policy(PriorityClass::kBatch);
  batch.max_concurrent = 2;
  batch.max_queue = 8;
  batch.max_wait_us = 200;
  auto& bg = cfg.admission.policy(PriorityClass::kBackground);
  bg.tokens_per_sec = 20'000;
  bg.burst = 4;
  bg.max_concurrent = 1;
  bg.max_queue = 4;
  bg.max_wait_us = 500;

  cfg.brownout.enter_queue_depth = 6;
  cfg.brownout.exit_queue_depth = 2;
  return cfg;
}

Row run_row(const QuerySnapshot& snap, OverloadConfig cfg, double mult,
            std::uint64_t saturation) {
  cfg.arrivals_per_sec =
      std::max<std::uint64_t>(1, static_cast<std::uint64_t>(
                                     static_cast<double>(saturation) * mult));
  const double t0 = now_sec();
  const SimReport rep = run_overload_sim(snap, cfg);
  Row r;
  r.multiplier = mult;
  r.arrivals_per_sec = cfg.arrivals_per_sec;
  r.offered = rep.offered;
  r.admitted = rep.admitted;
  r.shed_rate = rep.shed_rate;
  r.shed_queue_full = rep.shed_queue_full;
  r.shed_queue_wait = rep.shed_queue_wait;
  r.shed_pct = rep.offered == 0
                   ? 0
                   : 100.0 * static_cast<double>(rep.shed_total()) /
                         static_cast<double>(rep.offered);
  r.p50_interactive_us = rep.quantile_us(PriorityClass::kInteractive, 0.50);
  r.p99_interactive_us = rep.quantile_us(PriorityClass::kInteractive, 0.99);
  r.p99_batch_us = rep.quantile_us(PriorityClass::kBatch, 0.99);
  r.goodput_per_sec =
      rep.end_us == 0
          ? 0
          : static_cast<double>(rep.exact_served + rep.approximate_served) *
                1e6 / static_cast<double>(rep.end_us);
  r.deadline_truncated = rep.deadline_truncated;
  r.approximate_served = rep.approximate_served;
  r.brownout_enters = rep.brownout_enters;
  r.overclaims = rep.overclaims;
  r.end_us = rep.end_us;
  r.digest = rep.digest;
  r.wall_seconds = now_sec() - t0;
  return r;
}

}  // namespace

int main(int argc, char** argv) {
  bool smoke = false;
  bool assert_floor = false;
  NodeId n = 256;
  std::uint64_t requests = 30'000;
  const char* const usage = "[--smoke] [--assert] [--n N] [--requests R]";
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--smoke") == 0) {
      smoke = true;
    } else if (std::strcmp(argv[i], "--assert") == 0) {
      assert_floor = true;
    } else if (std::strcmp(argv[i], "--n") == 0 && i + 1 < argc) {
      n = bench::flag_value<NodeId>(argv[++i], argv[0], usage);
    } else if (std::strcmp(argv[i], "--requests") == 0 && i + 1 < argc) {
      requests = bench::flag_value<std::uint64_t>(argv[++i], argv[0], usage);
    } else {
      bench::usage_exit(argv[0], usage);
    }
  }
  if (smoke) {
    n = 64;
    requests = 3'000;
  }

  std::printf("building n=%u snapshot with distance labels...\n", n);
  const Graph g = gen::random_connected(n, 2 * n, 1234);
  const DistanceMatrix dist = seq::apsp(g);
  const std::vector<std::uint8_t> active(n, 1);
  const std::vector<RowStatus> status(n, RowStatus::kExact);
  const DistanceLabeling labels = build_distance_labels(g, 2);
  const QuerySnapshot snap =
      QuerySnapshot::from_blob(encode_query_snapshot_tables(
          dist, nullptr, active, status, /*epoch=*/1, /*sequence=*/1,
          /*degraded=*/false, &labels));

  const OverloadConfig base = curve_config(n, requests);
  const std::uint64_t saturation = saturation_arrivals_per_sec(base, n);
  std::printf("saturation offered load: %llu requests/sec (virtual)\n",
              static_cast<unsigned long long>(saturation));

  int failures = 0;
  const auto check = [&](bool ok, const char* what) {
    if (!ok) {
      std::fprintf(stderr, "FAIL: %s\n", what);
      ++failures;
    }
  };

  // Determinism gate: the whole gauge is worthless if the curve drifts.
  {
    const Row a = run_row(snap, base, 1.0, saturation);
    const Row b = run_row(snap, base, 1.0, saturation);
    check(a.digest == b.digest && a.end_us == b.end_us,
          "same-seed reruns diverged (digest/end_us)");
  }

  for (const double mult : {0.25, 0.5, 1.0, 2.0, 4.0}) {
    record(run_row(snap, base, mult, saturation));
  }

  // Retry machinery under a 10% transient-failure storm at saturation:
  // reported in stdout only (latency floors are gauged on the clean curve).
  {
    OverloadConfig storm = base;
    storm.transient_failure_ppm = 100'000;
    storm.retry.max_attempts = 3;
    storm.retry.base_us = 2;
    storm.retry.cap_us = 20;
    storm.retry.seed = base.seed;
    storm.arrivals_per_sec = saturation;
    const SimReport rep = run_overload_sim(snap, storm);
    std::printf(
        "retry storm @1x: failures=%llu retries=%llu exhausted=%llu "
        "stale=%llu overclaims=%llu\n",
        static_cast<unsigned long long>(rep.transient_failures),
        static_cast<unsigned long long>(rep.retries),
        static_cast<unsigned long long>(rep.retry_exhausted),
        static_cast<unsigned long long>(rep.stale_served),
        static_cast<unsigned long long>(rep.overclaims));
    check(rep.overclaims == 0, "retry storm produced overclaims");
    check(rep.transient_failures == rep.retries + rep.retry_exhausted,
          "retry accounting identity broke under the storm");
  }

  write_json(n, saturation);

  if (assert_floor) {
    const Row& low = g_rows[0];    // 0.25x
    const Row& high = g_rows[4];   // 4x
    for (const Row& r : g_rows) {
      check(r.offered == r.admitted + r.shed_rate + r.shed_queue_full +
                             r.shed_queue_wait,
            "offered != admitted + shed (silent drop)");
      check(r.overclaims == 0, "a degraded answer claimed exact");
    }
    check(high.shed_rate + high.shed_queue_full + high.shed_queue_wait > 0,
          "4x saturation shed nothing — overload was absorbed silently");
    check(high.p99_interactive_us <=
              5 * std::max<std::uint64_t>(low.p99_interactive_us, 1),
          "admitted interactive p99 at 4x exceeds 5x the unloaded p99");
    check(high.goodput_per_sec >= low.goodput_per_sec,
          "goodput at 4x fell below the unloaded floor");
    if (failures == 0) {
      std::printf("all robustness floors hold\n");
    }
  }
  return failures == 0 ? 0 : 1;
}
