// Round overhead of the reliable-delivery layer (congest/reliable.h) as a
// function of transport loss: wrapped pebble-APSP (Algorithm 1) and wrapped
// S-SP (Algorithm 2) on a deterministically faulty wire, versus the
// fault-free unwrapped baseline. A second section crashes nodes mid-run and
// measures the degraded-mode harvest (DESIGN.md section 10): detection cost,
// surviving coverage, and the distributed certificate's verdict. A third
// section corrupts payloads in flight (single-bit flips) and shows the
// integrity checksum keeping wrapped runs exact; a fourth sweeps
// repair_apsp() over |S_missing| and *asserts* the O(|S_missing| + D)
// schedule — the bench exits nonzero if the slope, the runtime bound, or
// re-certification regresses (DESIGN.md section 13).
//
// Reported per row: real engine rounds, the slowdown factor over the
// unwrapped baseline, retransmission volume, and a correctness verdict
// against the sequential oracle — the adapter trades a constant factor of
// rounds for exactness under loss, and for certified partial output under
// crashes. Every row is also appended to BENCH_faults.json (in the working
// directory) for machine consumption.
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "congest/reliable.h"
#include "core/certify.h"
#include "core/pebble_apsp.h"
#include "core/repair.h"
#include "core/ssp.h"
#include "graph/generators.h"
#include "seq/apsp.h"
#include "seq/bfs.h"

namespace dapsp {
namespace {

constexpr double kDropRates[] = {0.0, 0.05, 0.1, 0.2, 0.3};

// One machine-readable record per benchmark row; serialized to
// BENCH_faults.json so scripts can track overhead regressions.
struct JsonRow {
  std::string algorithm;  // "pebble_apsp" | "ssp"
  std::string graph;      // family label
  NodeId n = 0;
  double drop_rate = 0.0;
  std::uint32_t crashes = 0;
  std::uint64_t real_rounds = 0;
  double overhead = 0.0;  // real_rounds / fault-free unwrapped baseline
  std::string outcome;    // "exact" | "degraded" | "repaired" | "wrong"
  std::uint32_t rows_complete = 0;
  std::uint32_t rows_certified = 0;
  double corrupt_rate = 0.0;     // per-copy single-bit-flip probability
  std::uint32_t s_missing = 0;   // repair rows: |S_missing| swept
};

std::vector<JsonRow>& json_rows() {
  static std::vector<JsonRow> rows;
  return rows;
}

void write_json(const char* path) {
  std::FILE* f = std::fopen(path, "w");
  if (f == nullptr) {
    std::printf("warning: could not open %s for writing\n", path);
    return;
  }
  std::fprintf(f, "[\n");
  const auto& rows = json_rows();
  for (std::size_t i = 0; i < rows.size(); ++i) {
    const JsonRow& r = rows[i];
    std::fprintf(
        f,
        "  {\"algorithm\": \"%s\", \"graph\": \"%s\", \"n\": %u, "
        "\"drop_rate\": %.3f, \"corrupt_rate\": %.3f, \"crashes\": %u, "
        "\"s_missing\": %u, \"real_rounds\": %llu, "
        "\"overhead\": %.3f, \"outcome\": \"%s\", \"rows_complete\": %u, "
        "\"rows_certified\": %u}%s\n",
        r.algorithm.c_str(), r.graph.c_str(), r.n, r.drop_rate,
        r.corrupt_rate, r.crashes, r.s_missing,
        static_cast<unsigned long long>(r.real_rounds), r.overhead,
        r.outcome.c_str(), r.rows_complete, r.rows_certified,
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("\nwrote %zu rows to %s\n", rows.size(), path);
}

congest::FaultPlan plan_for(double drop, std::uint64_t seed) {
  congest::FaultPlan plan;
  plan.seed = seed;
  plan.drop_prob = drop;
  plan.duplicate_prob = drop / 2;
  plan.delay_prob = drop / 2;
  plan.max_extra_delay = drop > 0 ? 3 : 0;
  return plan;
}

void bench_apsp(const Graph& g, const std::string& label) {
  const DistanceMatrix oracle = seq::apsp(g);
  const auto base = core::run_pebble_apsp(g);

  bench::Table t("Algorithm 1 (pebble APSP) under loss: " + label + ", " +
                 g.summary());
  t.header({"drop", "rounds", "slowdown", "dropped", "dup+delay", "exact"});
  for (const double drop : kDropRates) {
    core::ApspOptions opt;
    if (drop > 0) opt.engine.faults = plan_for(drop, 1000 + 7);
    opt.engine.max_rounds = 4000000;
    congest::apply_reliable(opt.engine);
    const auto r = core::run_pebble_apsp(g, opt);
    const bool exact = r.dist == oracle;
    const double overhead = static_cast<double>(r.stats.rounds) /
                            static_cast<double>(base.stats.rounds);

    t.cell(drop);
    t.cell(r.stats.rounds);
    t.cell(overhead);
    t.cell(r.stats.messages_dropped);
    t.cell(r.stats.messages_delayed + r.stats.messages_duplicated);
    t.cell(std::string(exact ? "yes" : "NO"));
    t.end_row();

    json_rows().push_back({"pebble_apsp", label, g.num_nodes(), drop, 0,
                           r.stats.rounds, overhead,
                           exact ? "exact" : "wrong", g.num_nodes(),
                           g.num_nodes()});
  }
  bench::note("baseline (unwrapped, fault-free): " +
              std::to_string(base.stats.rounds) + " rounds; slowdown is "
              "wrapped-real-rounds / baseline-rounds");
}

void bench_ssp(const Graph& g, const std::string& label) {
  const NodeId n = g.num_nodes();
  const std::vector<NodeId> sources = {0, n / 3, n / 2, n - 1};
  const auto base = core::run_ssp(g, sources);

  bench::Table t("Algorithm 2 (S-SP, |S|=" + std::to_string(sources.size()) +
                 ") under loss: " + label + ", " + g.summary());
  t.header({"drop", "rounds", "slowdown", "dropped", "delayed", "exact"});
  for (const double drop : kDropRates) {
    core::SspOptions opt;
    if (drop > 0) opt.engine.faults = plan_for(drop, 2000 + 9);
    opt.engine.max_rounds = 4000000;
    congest::apply_reliable(opt.engine);
    const auto r = core::run_ssp(g, sources, opt);

    bool exact = true;
    for (const NodeId s : sources) {
      const auto oracle = seq::bfs(g, s);
      for (NodeId v = 0; v < n; ++v) {
        exact = exact && r.delta[v][s] == oracle.dist[v];
      }
    }
    const double overhead = static_cast<double>(r.stats.rounds) /
                            static_cast<double>(base.stats.rounds);
    t.cell(drop);
    t.cell(r.stats.rounds);
    t.cell(overhead);
    t.cell(r.stats.messages_dropped);
    t.cell(r.stats.messages_delayed);
    t.cell(std::string(exact ? "yes" : "NO"));
    t.end_row();

    json_rows().push_back({"ssp", label, n, drop, 0, r.stats.rounds, overhead,
                           exact ? "exact" : "wrong",
                           static_cast<std::uint32_t>(sources.size()),
                           static_cast<std::uint32_t>(sources.size())});
  }
  bench::note("baseline (unwrapped, fault-free): " +
              std::to_string(base.stats.rounds) + " rounds");
}

// Crash survival: wrapped pebble-APSP with crash-stop nodes mid-run. The
// run must terminate degraded (not stall to the round cap), and the
// surviving rows must pass the distributed certificate of core/certify.h.
void bench_crashes(const Graph& g, const std::string& label) {
  const NodeId n = g.num_nodes();
  const auto base = core::run_pebble_apsp(g);

  core::ApspOptions clean;
  clean.engine.max_rounds = 4000000;
  congest::apply_reliable(clean.engine);
  const auto wrapped = core::run_pebble_apsp(g, clean);
  const std::uint64_t mid = wrapped.stats.rounds / 2;

  bench::Table t("Crash survival (pebble APSP, crash at wrapped midpoint): " +
                 label + ", " + g.summary());
  t.header({"crashes", "rounds", "slowdown", "suspected", "complete",
            "certified", "status"});
  for (const std::uint32_t k : {0u, 1u, 2u, 3u}) {
    core::ApspOptions opt;
    opt.engine.max_rounds = 4000000;
    opt.engine.faults = congest::FaultPlan{};
    for (std::uint32_t i = 0; i < k; ++i) {
      // Spread crashes over distinct nodes and a few rounds.
      opt.engine.faults->crashes.push_back(
          {static_cast<NodeId>((i * (n / 3 + 1) + 1) % n), mid + 5 * i});
    }
    congest::apply_reliable(opt.engine);
    const auto r = core::run_pebble_apsp(g, opt);

    std::vector<NodeId> sources(n);
    for (NodeId s = 0; s < n; ++s) sources[s] = s;
    const auto report = core::certify_rows(
        g, r.survived, sources,
        [&](NodeId v, NodeId s) { return r.dist.at(v, s); });
    std::uint32_t complete = 0;
    for (const core::RowCoverage c : r.coverage) {
      if (c == core::RowCoverage::kComplete) ++complete;
    }
    const double overhead = static_cast<double>(r.stats.rounds) /
                            static_cast<double>(base.stats.rounds);
    const bool degraded = r.status == congest::RunStatus::kDegraded;

    t.cell(std::uint64_t{k});
    t.cell(r.stats.rounds);
    t.cell(overhead);
    t.cell(r.stats.neighbors_suspected);
    t.cell(std::uint64_t{complete});
    t.cell(std::uint64_t{report.rows_certified});
    t.cell(std::string(congest::to_string(r.status)));
    t.end_row();

    const bool exact = k == 0 && r.dist == seq::apsp(g);
    json_rows().push_back({"pebble_apsp", label, n, 0.0, k, r.stats.rounds,
                           overhead,
                           k == 0 ? (exact ? "exact" : "wrong")
                                  : (degraded ? "degraded" : "wrong"),
                           complete, report.rows_certified});
  }
  bench::note("complete/certified count distance rows over the " +
              std::to_string(n) + " sources; crashed rows degrade to "
              "partial or lost but never to uncertified-wrong");
}

// Payload corruption: wrapped pebble-APSP against single-bit flips on the
// wire (plus a light 5% loss floor so ARQ is already active). The trailing
// frame checksum detects every flip with certainty, the frame is dropped
// and retransmitted, and the harvested tables stay oracle-exact; the cost
// is extra real rounds, same as loss.
void bench_corruption(const Graph& g, const std::string& label) {
  const DistanceMatrix oracle = seq::apsp(g);
  const auto base = core::run_pebble_apsp(g);

  constexpr double kCorruptRates[] = {0.0, 0.1, 0.2, 0.3};
  bench::Table t("Algorithm 1 under payload corruption (checksum + ARQ): " +
                 label + ", " + g.summary());
  t.header({"corrupt", "rounds", "slowdown", "corrupted", "dropped", "exact"});
  for (const double rate : kCorruptRates) {
    core::ApspOptions opt;
    if (rate > 0) {
      congest::FaultPlan plan;
      plan.seed = 3017;
      plan.drop_prob = 0.05;
      plan.corrupt_prob = rate;
      opt.engine.faults = plan;
    }
    opt.engine.max_rounds = 4000000;
    congest::apply_reliable(opt.engine);
    const auto r = core::run_pebble_apsp(g, opt);
    const bool exact = r.dist == oracle;
    const double overhead = static_cast<double>(r.stats.rounds) /
                            static_cast<double>(base.stats.rounds);

    t.cell(rate);
    t.cell(r.stats.rounds);
    t.cell(overhead);
    t.cell(r.stats.messages_corrupted);
    t.cell(r.stats.messages_dropped);
    t.cell(std::string(exact ? "yes" : "NO"));
    t.end_row();

    json_rows().push_back({.algorithm = "pebble_apsp",
                           .graph = label,
                           .n = g.num_nodes(),
                           .drop_rate = rate > 0 ? 0.05 : 0.0,
                           .real_rounds = r.stats.rounds,
                           .overhead = overhead,
                           .outcome = exact ? "exact" : "wrong",
                           .rows_complete = g.num_nodes(),
                           .rows_certified = g.num_nodes(),
                           .corrupt_rate = rate});
  }
  bench::note("rows with corrupt > 0 add a 5% drop floor; every corrupted "
              "frame is checksum-detected, discarded and retransmitted — "
              "the output never degrades, only the round count");
}

// Self-healing cost: repair_apsp() on a stale harvest with exactly
// |S_missing| broken rows, swept on a fixed topology. The repair schedule
// is one S-SP pass over the suspects, so repair_rounds must grow linearly:
// slope <= kRepairRoundC rounds per extra missing row, every run under its
// runtime bound and fully re-certified. Returns false (failing the bench)
// if any of that regresses.
bool bench_repair(const Graph& g, const std::string& label) {
  const NodeId n = g.num_nodes();
  const DistanceMatrix oracle = seq::apsp(g);

  bench::Table t("Self-healing (repair_apsp) vs |S_missing|: " + label +
                 ", " + g.summary());
  t.header({"missing", "repair_rounds", "bound", "certified", "exact"});
  std::vector<std::pair<std::uint32_t, std::uint64_t>> pts;
  bool ok = true;
  for (const std::uint32_t k : {1u, 2u, 4u, 8u, 12u, 16u}) {
    if (k >= n) break;
    core::ApspResult r;
    r.dist = oracle;
    r.next_hop = Table<NodeId>(n, n, core::kNoNextHop);
    r.status = congest::RunStatus::kDegraded;
    r.survived.assign(n, 1);
    // Break k rows outright: all-infinite except the diagonal, spread over
    // the id space. Coverage flags them, repair re-solves exactly them.
    for (std::uint32_t i = 0; i < k; ++i) {
      const NodeId s = static_cast<NodeId>(
          static_cast<std::uint64_t>(i) * n / k);
      for (NodeId v = 0; v < n; ++v) {
        if (v != s) r.dist.set(v, s, kInfDist);
      }
    }
    const core::RepairReport report = core::repair_apsp(g, r);
    const bool exact = r.dist == oracle;
    const bool row_ok = report.bound_ok && report.all_certified() &&
                        report.rows_repaired == k && exact;
    ok = ok && row_ok;
    pts.emplace_back(k, report.repair_rounds);

    t.cell(std::uint64_t{k});
    t.cell(report.repair_rounds);
    t.cell(report.round_bound);
    t.cell(std::uint64_t{report.certificate.rows_certified});
    t.cell(std::string(exact ? "yes" : "NO"));
    t.end_row();

    json_rows().push_back(
        {.algorithm = "repair_apsp",
         .graph = label,
         .n = n,
         .real_rounds = report.repair_rounds,
         .overhead = static_cast<double>(report.repair_rounds) /
                     static_cast<double>(report.round_bound),
         .outcome = row_ok ? "repaired" : "wrong",
         .rows_complete = n,
         .rows_certified = report.certificate.rows_certified,
         .s_missing = k});
  }

  // The O(|S_missing| + D) claim, as arithmetic: D is fixed per graph, so
  // the end-to-end slope in |S_missing| bounds the linear coefficient.
  if (pts.size() >= 2) {
    const double slope =
        static_cast<double>(pts.back().second - pts.front().second) /
        static_cast<double>(pts.back().first - pts.front().first);
    const bool slope_ok = pts.back().second >= pts.front().second &&
                          slope <= static_cast<double>(core::kRepairRoundC);
    ok = ok && slope_ok;
    bench::note("repair-rounds slope = " + std::to_string(slope) +
                " rounds per missing row (limit kRepairRoundC = " +
                std::to_string(core::kRepairRoundC) + "): " +
                (slope_ok ? "OK" : "FAIL"));
  }
  return ok;
}

}  // namespace
}  // namespace dapsp

int main(int argc, char** argv) {
  using namespace dapsp;
  if (argc > 1) bench::usage_exit(argv[0], "(takes no arguments)");
  std::printf("Reliable delivery under transport faults.\n");
  std::printf(
      "Plans: drop p, duplicate p/2, delay p/2 (1..3 extra rounds), fixed "
      "seeds -- every row is reproducible.\n");

  bench_apsp(gen::random_connected(24, 20, 11), "random");
  bench_apsp(gen::grid(5, 5), "grid");
  bench_ssp(gen::random_connected(24, 20, 11), "random");
  bench_ssp(gen::cycle_with_chords(30, 6, 13), "cycle+chords");
  bench_crashes(gen::random_connected(24, 20, 11), "random");
  bench_crashes(gen::grid(5, 5), "grid");
  bench_corruption(gen::random_connected(24, 20, 11), "random");
  bench_corruption(gen::grid(5, 5), "grid");

  bool repair_ok = bench_repair(gen::random_connected(40, 36, 11), "random");
  repair_ok = bench_repair(gen::grid(6, 6), "grid") && repair_ok;

  write_json("BENCH_faults.json");
  if (!repair_ok) {
    std::printf("FAIL: repair slope/bound/certification regressed\n");
    return 1;
  }
  return 0;
}
