// Long-running DAPSP service under churn (DESIGN.md section 14): three
// asserted experiment groups, every row appended to BENCH_service.json.
//
//  1. Churn soak — 2000-update seeded mutation streams (edge churn, node
//     join/leave) with crash-stops and stored-entry bit-rot interleaved, on
//     a random and a grid family. The service must end fully certified.
//
//  2. Repair-cost scaling — benign (fault-free, local) churn across n up to
//     1024. The cell rung heals exactly the changed entries, so mean engine
//     rounds per update must grow sublinearly in n (fit exponent < 0.75,
//     against the O(n)-round full recompute the paper's static Algorithm 1
//     would pay per change); every successful epoch must also respect its
//     O(|S_aff| + h) round bound. Cells changed, messages and wall time per
//     update are reported next to the rounds.
//
//  3. Checkpoint determinism — the checkpoint blob after a chaos stream is
//     bit-identical at 1, 2 and 8 engine threads, and a restore-continue run
//     ends bit-identical to the straight-through run.
//
//  4. Recovery — time from a cold DurableDapspService::recover() to a fully
//     certified service, as the journal suffix grows (checkpoints pinned at
//     epoch 0, so recovery replays the whole stream). The recovered state
//     must be bit-identical to the state the crashed run acknowledged.
//
// The bench exits nonzero if any certification, scaling, bound, or
// determinism assertion fails.
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "core/durable.h"
#include "core/service.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "util/rng.h"

namespace dapsp {
namespace {

struct JsonRow {
  std::string section;  // "soak" | "scaling" | "checkpoint"
  std::string graph;
  NodeId n = 0;
  std::uint64_t updates = 0;
  double mean_rounds = 0.0;    // engine rounds per update, amortized
  double mean_suspects = 0.0;  // suspect rows per update, amortized
  double mean_cells = 0.0;     // entries changed per update, amortized
  double mean_messages = 0.0;  // engine messages per update, amortized
  double mean_ms = 0.0;        // wall time per update (this host)
  std::uint64_t escalated = 0;
  std::uint64_t crashes = 0;
  std::uint64_t corrupted = 0;
  double exponent = 0.0;    // scaling rows: fitted rounds-vs-n exponent
  double recover_ms = 0.0;  // recovery rows: cold recover() wall time
  bool ok = false;
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
        "  {\"section\": \"%s\", \"graph\": \"%s\", \"n\": %u, "
        "\"updates\": %llu, \"mean_rounds\": %.3f, \"mean_suspects\": %.3f, "
        "\"mean_cells\": %.3f, \"mean_messages\": %.1f, \"mean_ms\": %.3f, "
        "\"escalated\": %llu, \"crashes\": %llu, \"corrupted\": %llu, "
        "\"exponent\": %.3f, \"recover_ms\": %.3f, \"ok\": %s}%s\n",
        r.section.c_str(), r.graph.c_str(), r.n,
        static_cast<unsigned long long>(r.updates), r.mean_rounds,
        r.mean_suspects, r.mean_cells, r.mean_messages, r.mean_ms,
        static_cast<unsigned long long>(r.escalated),
        static_cast<unsigned long long>(r.crashes),
        static_cast<unsigned long long>(r.corrupted), r.exponent,
        r.recover_ms, r.ok ? "true" : "false",
        i + 1 < rows.size() ? "," : "");
  }
  std::fprintf(f, "]\n");
  std::fclose(f);
  std::printf("\nwrote %zu rows to %s\n", rows.size(), path);
}

struct RunResult {
  double mean_rounds = 0.0;
  double mean_suspects = 0.0;
  double mean_cells = 0.0;
  double mean_messages = 0.0;
  double mean_ms = 0.0;
  std::uint64_t escalated = 0;
  bool certified = false;
  bool bounds_ok = true;
  core::ServiceStats stats;
};

// Drives `updates` batches from one seeded plan through a fresh service.
RunResult drive(const Graph& g, const DeltaPlanConfig& pc,
                std::uint64_t updates, std::uint32_t scrub_every,
                bool final_scrub) {
  core::ServiceConfig cfg;
  cfg.scrub_every = scrub_every;
  core::DapspService svc(g, cfg);
  DeltaPlan plan(pc);
  RunResult r;
  std::uint64_t rounds = 0, suspects = 0;
  for (std::uint64_t u = 0; u < updates; ++u) {
    const ChurnBatch batch = plan.next(svc.dynamic_graph());
    const core::EpochReport ep = svc.step(batch);
    rounds += ep.stats.rounds;
    suspects += ep.suspect_rows;
    if (ep.escalated) ++r.escalated;
    if (ep.certified && !ep.bound_ok) r.bounds_ok = false;
  }
  if (final_scrub &&
      (svc.stats().corrupted_entries > 0 || !svc.fully_certified())) {
    svc.scrub();
  }
  r.mean_rounds = static_cast<double>(rounds) / static_cast<double>(updates);
  r.mean_suspects =
      static_cast<double>(suspects) / static_cast<double>(updates);
  r.certified = svc.fully_certified();
  r.stats = svc.stats();
  return r;
}

bool bench_soak(const Graph& g, const std::string& label,
                std::uint64_t updates) {
  DeltaPlanConfig pc;
  pc.seed = 17;
  pc.max_batch = 3;
  pc.crash_prob = 0.05;
  pc.corrupt_prob = 0.05;
  const RunResult r = drive(g, pc, updates, /*scrub_every=*/100,
                            /*final_scrub=*/true);

  bench::Table t("churn soak: " + label + " (n=" +
                 std::to_string(g.num_nodes()) + ", " +
                 std::to_string(updates) + " updates, crash+bit-rot)");
  t.header({"updates", "deltas", "crashes", "bit-rot", "escalated",
            "rows-rep", "certified"});
  t.cell(updates);
  t.cell(r.stats.deltas_applied);
  t.cell(r.stats.crashes);
  t.cell(r.stats.corrupted_entries);
  t.cell(r.escalated);
  t.cell(r.stats.rows_repaired);
  t.cell(std::string(r.certified ? "YES" : "NO"));
  t.end_row();
  const bool ok = r.certified && r.bounds_ok && r.stats.epochs_failed == 0;
  bench::note(std::string("ends fully certified, zero failed epochs, every "
                          "round bound held: ") +
              (ok ? "OK" : "FAIL"));

  JsonRow row;
  row.section = "soak";
  row.graph = label;
  row.n = g.num_nodes();
  row.updates = updates;
  row.mean_rounds = r.mean_rounds;
  row.mean_suspects = r.mean_suspects;
  row.escalated = r.escalated;
  row.crashes = r.stats.crashes;
  row.corrupted = r.stats.corrupted_entries;
  row.ok = ok;
  json_rows().push_back(row);
  return ok;
}

// Benign local churn: edge flutter. Each update removes one random
// non-bridge edge; the next update reinserts it. Density never drifts, so
// the true affected region stays local — redundant-path removals are
// screened clean by the analyzer's alternative-parent check, and the
// matching reinsert only dirties the rows the removal actually changed.
// (Random chord *inserts* are excluded on purpose: a fresh shortcut
// legitimately changes distances for Theta(n) sources — that cost is real,
// not analyzer pessimism, and the escalation ladder is the right tool.)
RunResult drive_flutter(const Graph& g, std::uint64_t updates,
                        std::uint64_t seed) {
  core::ServiceConfig cfg;
  core::DapspService svc(g, cfg);
  Rng rng(seed);
  std::optional<Edge> pending;  // removed last update, reinserted this one
  RunResult r;
  std::uint64_t rounds = 0, suspects = 0, cells = 0, messages = 0;
  double ms = 0.0;
  for (std::uint64_t u = 0; u < updates; ++u) {
    ChurnBatch batch;
    if (pending) {
      batch.deltas.push_back({DeltaKind::kEdgeInsert, pending->u, pending->v});
      pending.reset();
    } else {
      const DynamicGraph& dg = svc.dynamic_graph();
      const std::vector<Edge> edges = dg.sorted_edges();
      for (std::size_t tries = 0; tries < edges.size(); ++tries) {
        const Edge e = edges[rng.below(edges.size())];
        if (!dg.edge_is_bridge(e.u, e.v)) {
          batch.deltas.push_back({DeltaKind::kEdgeRemove, e.u, e.v});
          pending = e;
          break;
        }
      }
    }
    const auto t0 = std::chrono::steady_clock::now();
    const core::EpochReport ep = svc.step(batch);
    ms += std::chrono::duration<double, std::milli>(
              std::chrono::steady_clock::now() - t0)
              .count();
    rounds += ep.stats.rounds;
    suspects += ep.suspect_rows;
    cells += ep.cells_changed;
    messages += ep.stats.messages;
    if (ep.escalated) ++r.escalated;
    if (ep.certified && !ep.bound_ok) r.bounds_ok = false;
  }
  const auto per_update = [&](double x) {
    return x / static_cast<double>(updates);
  };
  r.mean_rounds = per_update(static_cast<double>(rounds));
  r.mean_suspects = per_update(static_cast<double>(suspects));
  r.mean_cells = per_update(static_cast<double>(cells));
  r.mean_messages = per_update(static_cast<double>(messages));
  r.mean_ms = per_update(ms);
  r.certified = svc.fully_certified();
  r.stats = svc.stats();
  return r;
}

bool bench_scaling(const std::string& family, const std::vector<Graph>& gs,
                   std::uint64_t updates) {
  bench::Table t("repair cost vs n: " + family +
                 " (benign edge flutter, " + std::to_string(updates) +
                 " updates each)");
  t.header({"n", "mean-rounds", "mean-susp", "mean-cells", "mean-msgs",
            "mean-ms", "escalated", "certified"});
  std::vector<double> xs, ys;
  bool ok = true;
  for (const Graph& g : gs) {
    const RunResult r = drive_flutter(g, updates, 23);
    t.cell(std::uint64_t{g.num_nodes()});
    t.cell(r.mean_rounds);
    t.cell(r.mean_suspects);
    t.cell(r.mean_cells);
    t.cell(r.mean_messages);
    t.cell(r.mean_ms);
    t.cell(r.escalated);
    t.cell(std::string(r.certified ? "YES" : "NO"));
    t.end_row();
    ok = ok && r.certified && r.bounds_ok;
    xs.push_back(static_cast<double>(g.num_nodes()));
    ys.push_back(r.mean_rounds);

    JsonRow row;
    row.section = "scaling";
    row.graph = family;
    row.n = g.num_nodes();
    row.updates = updates;
    row.mean_rounds = r.mean_rounds;
    row.mean_suspects = r.mean_suspects;
    row.mean_cells = r.mean_cells;
    row.mean_messages = r.mean_messages;
    row.mean_ms = r.mean_ms;
    row.escalated = r.escalated;
    row.ok = r.certified && r.bounds_ok;
    json_rows().push_back(row);
  }
  const double alpha = bench::fit_exponent(xs, ys);
  const bool sublinear = alpha < 0.75;
  ok = ok && sublinear;
  // The family's last row carries the fit, and its ok includes the gate.
  json_rows().back().exponent = alpha;
  json_rows().back().ok = json_rows().back().ok && sublinear;
  bench::note("rounds-per-update ~ n^" + std::to_string(alpha) +
              " (sublinear target < 0.75, full recompute would be ~1): " +
              (sublinear ? "OK" : "FAIL"));
  return ok;
}

bool bench_checkpoint(const Graph& g, const std::string& label) {
  constexpr std::uint64_t kUpdates = 60;
  DeltaPlanConfig pc;
  pc.seed = 29;
  pc.crash_prob = 0.05;
  pc.corrupt_prob = 0.05;

  // One full run per thread count, blob captured at the end.
  std::vector<std::vector<std::uint8_t>> blobs;
  for (const std::uint32_t threads : {1u, 2u, 8u}) {
    core::ServiceConfig cfg;
    cfg.engine.threads = threads;
    core::DapspService svc(g, cfg);
    DeltaPlan plan(pc);
    for (std::uint64_t u = 0; u < kUpdates; ++u) {
      svc.step(plan.next(svc.dynamic_graph()));
    }
    blobs.push_back(svc.checkpoint_blob());
  }
  const bool threads_ok = blobs[0] == blobs[1] && blobs[0] == blobs[2];

  // Restore-continue: checkpoint halfway, restore, finish; must match the
  // straight-through blob bit for bit.
  core::ServiceConfig cfg;
  core::DapspService svc(g, cfg);
  DeltaPlan plan(pc);
  for (std::uint64_t u = 0; u < kUpdates / 2; ++u) {
    svc.step(plan.next(svc.dynamic_graph()));
  }
  const std::uint64_t words[2] = {plan.rng_state(), plan.batches_generated()};
  const std::vector<std::uint8_t> mid = svc.checkpoint_blob(words);
  std::istringstream in(
      std::string(reinterpret_cast<const char*>(mid.data()), mid.size()));
  std::vector<std::uint64_t> restored_words;
  core::DapspService svc2 =
      core::DapspService::restore(in, cfg, &restored_words);
  DeltaPlan plan2(pc);
  plan2.resume(restored_words[0], restored_words[1]);
  for (std::uint64_t u = kUpdates / 2; u < kUpdates; ++u) {
    svc.step(plan.next(svc.dynamic_graph()));
    svc2.step(plan2.next(svc2.dynamic_graph()));
  }
  const bool resume_ok = svc.checkpoint_blob() == svc2.checkpoint_blob();

  bench::Table t("checkpoint determinism: " + label);
  t.header({"updates", "bytes", "threads-1/2/8", "restore-cont"});
  t.cell(kUpdates);
  t.cell(std::uint64_t{blobs[0].size()});
  t.cell(std::string(threads_ok ? "IDENTICAL" : "DIVERGED"));
  t.cell(std::string(resume_ok ? "IDENTICAL" : "DIVERGED"));
  t.end_row();

  JsonRow row;
  row.section = "checkpoint";
  row.graph = label;
  row.n = g.num_nodes();
  row.updates = kUpdates;
  row.ok = threads_ok && resume_ok;
  json_rows().push_back(row);
  return threads_ok && resume_ok;
}

bool bench_recovery(const Graph& g, const std::string& label) {
  namespace fs = std::filesystem;
  bench::Table t("recovery: cold recover() vs journal suffix length (" +
                 label + ", n=" + std::to_string(g.num_nodes()) + ")");
  t.header({"journal-len", "replayed", "recover-ms", "identical",
            "certified"});
  DeltaPlanConfig pc;
  pc.seed = 31;
  pc.max_batch = 3;
  pc.crash_prob = 0.05;
  pc.corrupt_prob = 0.05;
  bool ok = true;
  for (const std::uint64_t suffix : {4u, 8u, 16u, 32u}) {
    const fs::path dir = fs::temp_directory_path() /
                         ("dapsp_bench_rec_" + label + "_" +
                          std::to_string(suffix));
    fs::remove_all(dir);
    core::DurableConfig dc;
    dc.dir = dir.string();
    dc.checkpoint_every = 0;  // only the epoch-0 rotation: recovery replays
                              // the entire acknowledged stream from the WAL
    std::vector<std::uint8_t> want;
    {
      core::DurableDapspService d(g, dc);
      DeltaPlan plan(pc);
      for (std::uint64_t u = 0; u < suffix; ++u) {
        const ChurnBatch b = plan.next(d.service().dynamic_graph());
        const std::uint64_t words[3] = {plan.rng_state(),
                                        plan.batches_generated(), u + 1};
        d.ack_and_step(b, words);
      }
      want = d.service().checkpoint_blob(d.plan_words());
    }  // dropped without a final rotation, like a crash after the last ack

    const auto t0 = std::chrono::steady_clock::now();
    core::RecoveryReport rr;
    core::DurableDapspService d =
        core::DurableDapspService::recover(dc, &g, &rr);
    const double ms = std::chrono::duration<double, std::milli>(
                          std::chrono::steady_clock::now() - t0)
                          .count();
    const bool identical =
        d.service().checkpoint_blob(d.plan_words()) == want;
    const bool certified = d.service().fully_certified();
    const bool row_ok =
        identical && certified && rr.batches_replayed == suffix;
    ok = ok && row_ok;
    fs::remove_all(dir);

    t.cell(suffix);
    t.cell(rr.batches_replayed);
    t.cell(ms);
    t.cell(std::string(identical ? "IDENTICAL" : "DIVERGED"));
    t.cell(std::string(certified ? "YES" : "NO"));
    t.end_row();

    JsonRow row;
    row.section = "recovery";
    row.graph = label;
    row.n = g.num_nodes();
    row.updates = suffix;
    row.recover_ms = ms;
    row.ok = row_ok;
    json_rows().push_back(row);
  }
  bench::note("every recovery bit-identical to the acknowledged state and "
              "fully certified: " + std::string(ok ? "OK" : "FAIL"));
  return ok;
}

}  // namespace
}  // namespace dapsp

int main() {
  using namespace dapsp;
  std::printf("Long-running DAPSP service under churn and faults.\n");
  std::printf("Every stream is seeded -- each row is reproducible.\n");

  bool ok = bench_soak(gen::random_connected(24, 20, 11), "random", 2000);
  ok = bench_soak(gen::grid(6, 4), "grid", 2000) && ok;

  std::vector<Graph> randoms, grids;
  for (const NodeId n : {16u, 32u, 64u, 128u, 256u, 512u, 1024u}) {
    randoms.push_back(gen::random_connected(n, n, 7));
  }
  for (const NodeId side : {4u, 6u, 8u, 11u, 16u, 23u, 32u}) {
    grids.push_back(gen::grid(side, side));
  }
  ok = bench_scaling("random", randoms, 40) && ok;
  ok = bench_scaling("grid", grids, 40) && ok;

  ok = bench_checkpoint(gen::random_connected(20, 16, 11), "random") && ok;
  ok = bench_recovery(gen::random_connected(20, 16, 11), "random") && ok;

  write_json("BENCH_service.json");
  if (!ok) {
    std::printf("FAIL: service certification/scaling/determinism regressed\n");
    return 1;
  }
  return 0;
}
