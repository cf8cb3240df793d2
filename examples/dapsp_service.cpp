// dapsp_service — long-running DAPSP service soak driver.
//
// Builds an initial graph, then sustains a seeded churn stream (edge
// inserts/removes, node joins/leaves) interleaved with crash-stops and
// stored-entry bit-rot, healing incrementally every epoch. The process exits
// 0 iff the final tables are fully certified against the final graph — the
// soak contract CI leans on.
//
//   dapsp_service --universe 24 --updates 500 --chaos 0.05 --scrub-every 50
//
// Durable mode (--durable-dir) is the one way to persist and resume: the WAL
// + atomic-rotation protocol of core/durable.h journals every batch before
// it is applied, rotates checkpoints between two generations, and --recover
// resumes after ANY kill — after an update (--kill-at) or at an exact
// durable byte offset (--kill-at-byte):
//
//   dapsp_service --durable-dir d --updates 60 --checkpoint-every 8
//   dapsp_service --durable-dir d --updates 60 --kill-at 13
//       (exit 42 right after update 13)
//   dapsp_service --durable-dir d --updates 60 --kill-at-byte 5000
//       (exit 42 with a torn journal or half-written checkpoint)
//   dapsp_service --durable-dir d --updates 60 --recover --ckpt-dump out.bin
//       (replays the suffix, finishes, dumps a final checkpoint that is
//        byte-identical to an uninterrupted run's — the kill-matrix check)
//
// Serve mode (--serve <readers>) attaches the query tier (core/query.h):
// every epoch publishes immutable DQRY snapshots through a lock-free
// SnapshotStore while reader threads concurrently validate answers against
// a per-epoch sequential oracle — fresh-status answers must match exactly,
// next hops included; stale ones make no claim. Exits 1 on any overclaim.
// The soak contract:
//
//   dapsp_service --universe 24 --updates 60 --serve 2 --chaos 0.05
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "cli_output.h"
#include "congest/trace.h"
#include "core/durable.h"
#include "core/query.h"
#include "core/service.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "graph/io.h"
#include "seq/apsp.h"
#include "util/journal.h"
#include "util/metrics.h"
#include "util/rng.h"

using namespace dapsp;

namespace {

struct Args {
  std::string gen = "random";  // random|grid|path|cycle|tree
  std::optional<std::string> graph_file;
  NodeId universe = 24;
  std::uint64_t updates = 500;
  std::uint64_t seed = 1;
  std::uint32_t batch_max = 3;
  double chaos = 0.0;  // crash_prob and corrupt_prob per batch
  std::uint32_t threads = 1;
  std::uint32_t scrub_every = 0;
  std::uint64_t checkpoint_every = 0;
  std::uint64_t kill_at = 0;  // die right after this update (0 = never)
  std::optional<std::string> durable_dir;
  bool recover = false;
  std::uint64_t kill_at_byte = 0;  // die at this durable byte (0 = never)
  std::optional<std::string> ckpt_dump;
  std::optional<std::string> trace_out;
  std::optional<std::string> metrics_out;
  bool quiet = false;
  // --breaker K@C: circuit-break the repair ladder after K consecutive
  // failed epochs, cool down for C epochs before the half-open probe.
  std::optional<core::BreakerConfig> breaker;
  // --strangle A:B: force a 1-round watchdog during updates A..B (1-based)
  // so every repair in that window trips — the seeded way to open the
  // breaker from the CLI.
  std::optional<std::pair<std::uint64_t, std::uint64_t>> strangle;
  std::uint32_t serve_readers = 0;   // query-tier soak reader threads
  std::uint32_t serve_lookups = 64;  // p2p probes per reader per snapshot
};

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: dapsp_service [options]\n"
      "  --gen <family>         random|grid|path|cycle|tree (default random)\n"
      "  -g <file>              initial graph from an edge list instead\n"
      "  --universe <n>         node universe for --gen (default 24)\n"
      "  --updates <k>          churn batches to run (default 500)\n"
      "  --seed <s>             generator + churn plan seed (default 1)\n"
      "  --batch-max <k>        max deltas per batch (default 3)\n"
      "  --chaos <p>            per-batch crash AND bit-rot probability\n"
      "  --threads <t>          engine workers (identical results at any t)\n"
      "  --scrub-every <k>      certificate scrub after every k-th epoch\n"
      "  --durable-dir <d>      WAL + rotating-checkpoint mode (core/durable)\n"
      "  --checkpoint-every <k> rotate a checkpoint after every k-th update\n"
      "  --recover              resume from --durable-dir after a kill\n"
      "  --kill-at <k>          exit abruptly (code 42) after update k\n"
      "  --kill-at-byte <b>     exit 42 when durable byte b is written\n"
      "  --ckpt-dump <f>        write the final checkpoint blob to f\n"
      "  --trace-out <f>        service delta/epoch trace (.json/.jsonl/.csv)\n"
      "  --metrics-out <f>      service counters (.json or .csv)\n"
      "  --breaker <K@C>        open the repair circuit breaker after K\n"
      "                         consecutive failed epochs; cool down C epochs\n"
      "  --strangle <A:B>       1-round watchdog during updates A..B (trips\n"
      "                         every repair; pairs with --breaker)\n"
      "  --serve <r>            publish DQRY snapshots; r reader threads\n"
      "                         validate answers against the oracle\n"
      "  --serve-lookups <k>    p2p probes per reader per snapshot (def. 64)\n"
      "  --quiet                suppress per-epoch progress lines\n"
      "exit codes: 0 final tables fully certified   1 not certified/error\n"
      "            2 usage                          42 --kill-at fired\n");
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
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--gen") {
      a.gen = next();
    } else if (arg == "-g" || arg == "--graph") {
      a.graph_file = next();
    } else if (arg == "--universe") {
      a.universe = number<NodeId>(next());
    } else if (arg == "--updates") {
      a.updates = number<std::uint64_t>(next());
    } else if (arg == "--seed") {
      a.seed = number<std::uint64_t>(next());
    } else if (arg == "--batch-max") {
      a.batch_max = number<std::uint32_t>(next());
    } else if (arg == "--chaos") {
      a.chaos = number<double>(next());
    } else if (arg == "--threads") {
      a.threads = number<std::uint32_t>(next());
    } else if (arg == "--scrub-every") {
      a.scrub_every = number<std::uint32_t>(next());
    } else if (arg == "--checkpoint-every") {
      a.checkpoint_every = number<std::uint64_t>(next());
    } else if (arg == "--kill-at") {
      a.kill_at = number<std::uint64_t>(next());
    } else if (arg == "--durable-dir") {
      a.durable_dir = next();
    } else if (arg == "--recover") {
      a.recover = true;
    } else if (arg == "--kill-at-byte") {
      a.kill_at_byte = number<std::uint64_t>(next());
    } else if (arg == "--ckpt-dump") {
      a.ckpt_dump = next();
    } else if (arg == "--trace-out") {
      a.trace_out = next();
    } else if (arg == "--metrics-out") {
      a.metrics_out = next();
    } else if (arg == "--breaker") {
      const auto spec =
          cli::parse_pair<std::uint32_t, std::uint64_t>(next(), '@');
      if (!spec || spec->first == 0) usage();
      core::BreakerConfig bc;
      bc.failure_threshold = spec->first;
      bc.cooldown_ticks = spec->second;
      a.breaker = bc;
    } else if (arg == "--strangle") {
      const auto spec =
          cli::parse_pair<std::uint64_t, std::uint64_t>(next(), ':');
      if (!spec || spec->first == 0 || spec->second < spec->first) usage();
      a.strangle = *spec;
    } else if (arg == "--serve") {
      a.serve_readers = number<std::uint32_t>(next());
    } else if (arg == "--serve-lookups") {
      a.serve_lookups = number<std::uint32_t>(next());
    } else if (arg == "--quiet") {
      a.quiet = true;
    } else {
      usage();
    }
  }
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

void write_outputs(const Args& a, const congest::TraceLog& trace,
                   const core::ServiceStats& st,
                   const core::DurableStats* ds = nullptr,
                   const CrashPoint* crash = nullptr) {
  if (a.trace_out) cli::write_trace_file(*a.trace_out, trace);
  if (a.metrics_out) {
    MetricsRegistry reg;
    reg.counter("service_epochs") = st.epochs;
    reg.counter("service_deltas") = st.deltas_applied;
    reg.counter("service_crashes") = st.crashes;
    reg.counter("service_corrupted") = st.corrupted_entries;
    reg.counter("service_rows_repaired") = st.rows_repaired;
    reg.counter("service_epochs_failed") = st.epochs_failed;
    reg.counter("service_scrubs") = st.scrubs;
    reg.counter("service_checkpoints") = st.checkpoints;
    reg.counter("service_repairs_suppressed") = st.repairs_suppressed;
    reg.counter("service_breaker_transitions") = st.breaker_transitions;
    reg.counter("repairs_attempted") = st.repairs_attempted;
    reg.counter("repairs_escalated") = st.repairs_escalated;
    reg.counter("checkpoint_bytes") = st.checkpoint_bytes;
    reg.counter("rounds") = st.run.rounds;
    reg.counter("messages") = st.run.messages;
    reg.counter("total_bits") = st.run.total_bits;
    if (ds != nullptr) {
      reg.counter("service_journal_appends") = ds->journal_appends;
      reg.counter("service_journal_bytes") = ds->journal_bytes;
      reg.counter("service_checkpoint_rotations") = ds->checkpoints_rotated;
      reg.counter("service_recoveries") = ds->recoveries;
      reg.counter("service_batches_replayed") = ds->batches_replayed;
    }
    if (crash != nullptr) {
      // Total bytes this process pushed through the durable stream — the
      // sweep range for --kill-at-byte.
      reg.counter("durable_bytes") = crash->written;
    }
    cli::write_metrics_file(*a.metrics_out, reg);
  }
}

void dump_blob(const std::string& path, std::span<const std::uint8_t> blob) {
  std::ofstream out(path, std::ios::binary);
  if (!out) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  out.write(reinterpret_cast<const char*>(blob.data()),
            static_cast<std::streamsize>(blob.size()));
  std::fprintf(stderr, "checkpoint dump: %zu bytes -> %s\n", blob.size(),
               path.c_str());
}

// Query-tier soak harness (--serve): the service's SnapshotSink feeds a
// lock-free SnapshotStore; reader threads continuously pin the current
// snapshot (mid-swap included) and validate p2p/eccentricity answers
// against the per-epoch sequential oracle. The invariant: any answer whose
// row status is kExact or kRepaired must equal the oracle of the post-batch
// graph at the snapshot's epoch; kStale answers make no claim. Every
// violation counts as an overclaim and fails the run.
//
// Bit-rot (corrupt_prob) is excluded in serve mode: by design corruption is
// invisible to the analyzer and to row statuses until a scrub runs, so a
// validating soak over it would only measure the documented blind spot.
class ServeSoak {
 public:
  ServeSoak(std::uint32_t readers, std::uint32_t lookups)
      : publisher_(store_), reader_count_(readers), lookups_(lookups) {}

  ~ServeSoak() {
    if (!threads_.empty()) stop();
  }

  core::SnapshotSink* sink() { return &publisher_; }

  // Pre-size the oracle ledger to cover every epoch the run can publish.
  // Must happen before start(): a resize would relocate entries out from
  // under concurrent readers.
  void reserve_epochs(std::uint64_t max_epoch) { oracles_.resize(max_epoch + 1); }

  // Stage the oracle for `epoch` (post-batch graph) BEFORE the step/ctor
  // that publishes snapshots at that epoch. Assign-only; readers touch
  // entry e only after acquiring a snapshot published at epoch e, which the
  // store's seq_cst publish orders after this write.
  void stage_oracle(std::uint64_t epoch, const Graph& g) {
    oracles_.at(epoch) = seq::apsp(g);
  }

  void start() {
    for (std::uint32_t t = 0; t < reader_count_; ++t) {
      threads_.emplace_back([this, t] { reader_loop(t); });
    }
  }

  void stop() {
    done_.store(true, std::memory_order_release);
    for (std::thread& th : threads_) th.join();
    threads_.clear();
  }

  std::uint64_t validated() const { return validated_.load(); }
  std::uint64_t wrong() const { return wrong_.load(); }
  std::uint64_t swaps() const { return store_.swaps(); }

 private:
  void reader_loop(std::uint32_t t) {
    core::SnapshotReader reader(store_);
    Rng rng(0x5e47e + t);
    while (!done_.load(std::memory_order_acquire)) {
      core::SnapshotRef ref = reader.acquire();
      if (!ref) continue;
      const DistanceMatrix& oracle = oracles_[ref->epoch()];
      const NodeId n = ref->n();
      std::uint64_t ok = 0;
      for (std::uint32_t i = 0; i < lookups_; ++i) {
        const NodeId u = static_cast<NodeId>(rng.below(n));
        const NodeId v = static_cast<NodeId>(rng.below(n));
        const core::QueryAnswer a = ref->p2p(u, v);
        if (!a.active || a.status == core::RowStatus::kStale) continue;
        // A fresh hop is an active node one step closer to the target.
        const bool hop_ok =
            u == v || a.dist == dapsp::kInfDist ||
            (a.next_hop != core::kNoNextHop && ref->active(a.next_hop) &&
             oracle.at(a.next_hop, v) + 1 == a.dist);
        if (a.dist != oracle.at(u, v) || !hop_ok) {
          wrong_.fetch_add(1);
          std::fprintf(stderr,
                       "OVERCLAIM: epoch %llu (%u -> %u) status %s served "
                       "%u via %u, oracle %u\n",
                       static_cast<unsigned long long>(ref->epoch()), u, v,
                       core::to_string(a.status), a.dist, a.next_hop,
                       oracle.at(u, v));
        } else {
          ++ok;
        }
      }
      const NodeId u = static_cast<NodeId>(rng.below(n));
      const core::EccentricityAnswer ec = ref->eccentricity(u);
      if (ec.active && ec.status != core::RowStatus::kStale) {
        std::uint32_t naive = 0;
        for (NodeId v = 0; v < n; ++v) {
          if (!ref->active(v)) continue;
          const std::uint32_t d = oracle.at(v, u);
          if (d != dapsp::kInfDist) naive = std::max(naive, d);
        }
        if (ec.ecc != naive) {
          wrong_.fetch_add(1);
        } else {
          ++ok;
        }
      }
      validated_.fetch_add(ok);
    }
  }

  core::SnapshotStore store_;
  core::ServingPublisher publisher_;
  std::uint32_t reader_count_;
  std::uint32_t lookups_;
  // Indexed by service epoch; sized once by reserve_epochs() before readers
  // start, then assigned entry-by-entry strictly before the matching epoch
  // is published.
  std::vector<DistanceMatrix> oracles_;
  std::vector<std::thread> threads_;
  std::atomic<bool> done_{false};
  std::atomic<std::uint64_t> validated_{0};
  std::atomic<std::uint64_t> wrong_{0};
};

// WAL + rotating-checkpoint mode. The run always ends with a scrub, so the
// --ckpt-dump blob is canonical: a killed-at-any-byte run, recovered and
// finished, dumps the exact bytes of an uninterrupted run.
int run_durable(const Args& a) {
  congest::TraceLog trace;
  CrashPoint crash;
  crash.kill_at_byte = a.kill_at_byte;
  crash.hard_exit = true;

  core::DurableConfig dcfg;
  dcfg.dir = *a.durable_dir;
  dcfg.checkpoint_every = static_cast<std::uint32_t>(a.checkpoint_every);
  dcfg.service.engine.threads = a.threads;
  dcfg.service.scrub_every = a.scrub_every;
  if (a.trace_out) dcfg.service.engine.trace = &trace;
  dcfg.crash = &crash;

  DeltaPlanConfig pc;
  pc.seed = a.seed;
  pc.max_batch = a.batch_max;
  pc.crash_prob = a.chaos;
  pc.corrupt_prob = a.chaos;
  DeltaPlan plan(pc);

  std::optional<core::DurableDapspService> d;
  std::uint64_t done = 0;
  try {
    const Graph g = make_graph(a);
    if (a.recover) {
      core::RecoveryReport rr;
      d.emplace(core::DurableDapspService::recover(dcfg, &g, &rr));
      std::fprintf(stderr, "recovery: %s\n", rr.debug_string().c_str());
      const std::span<const std::uint64_t> words = d->plan_words();
      if (words.size() == 3) {
        plan.resume(words[0], words[1]);
        done = words[2];
      } else if (!words.empty()) {
        std::fprintf(stderr, "checkpoint is missing the plan state\n");
        return 1;
      }
    } else {
      d.emplace(g, dcfg);
      std::fprintf(stderr, "initial build: n=%u m=%zu, generation 0 durable\n",
                   g.num_nodes(), g.num_edges());
    }

    const std::uint64_t progress_step =
        a.quiet ? 0 : std::max<std::uint64_t>(1, a.updates / 20);
    for (std::uint64_t u = done; u < a.updates; ++u) {
      const ChurnBatch batch = plan.next(d->service().dynamic_graph());
      const std::uint64_t words[3] = {plan.rng_state(),
                                      plan.batches_generated(), u + 1};
      const core::EpochReport ep = d->ack_and_step(batch, words);
      if (progress_step && (u + 1) % progress_step == 0) {
        std::fprintf(stderr, "[%llu/%llu] %s\n",
                     static_cast<unsigned long long>(u + 1),
                     static_cast<unsigned long long>(a.updates),
                     ep.debug_string().c_str());
      }
      if (a.kill_at && u + 1 == a.kill_at) {
        std::fprintf(stderr, "killed at update %llu (by request)\n",
                     static_cast<unsigned long long>(u + 1));
        return 42;
      }
    }

    // Unconditional: makes the final state (row statuses included) a pure
    // function of the final graph + epoch, whatever the crash history was.
    d->service().scrub();
    d->rotate_checkpoint();
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  const core::ServiceStats& st = d->service().stats();
  std::printf("service: %s\n", st.debug_string().c_str());
  std::printf("durable: %s\n", d->durable_stats().debug_string().c_str());
  const bool certified = d->service().fully_certified();
  std::printf("final: n_active=%u m=%zu epoch=%llu %s\n",
              d->service().dynamic_graph().num_active(),
              d->service().dynamic_graph().num_edges(),
              static_cast<unsigned long long>(d->service().epoch()),
              certified ? "FULLY-CERTIFIED" : "NOT-CERTIFIED");
  write_outputs(a, trace, st, &d->durable_stats(), &crash);
  if (a.ckpt_dump) {
    const std::vector<std::uint8_t> blob =
        d->service().checkpoint_blob(d->plan_words());
    dump_blob(*a.ckpt_dump, blob);
  }
  return certified ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const Args a = parse(argc, argv);
  if (a.serve_readers > 0 && a.durable_dir) {
    std::fprintf(stderr, "--serve is not supported with --durable-dir\n");
    return 2;
  }
  if ((a.breaker || a.strangle) && a.durable_dir) {
    // Breaker state is deliberately not checkpointed (a recovered process
    // starts with a closed breaker), so gating durable runs would make the
    // kill-matrix non-reproducible.
    std::fprintf(stderr, "--breaker/--strangle require non-durable mode\n");
    return 2;
  }
  if (a.durable_dir) return run_durable(a);
  if (a.recover || a.checkpoint_every || a.kill_at || a.kill_at_byte) {
    std::fprintf(stderr,
                 "--recover/--checkpoint-every/--kill-at/--kill-at-byte "
                 "require --durable-dir\n");
    return 2;
  }

  congest::TraceLog trace;
  core::ServiceConfig cfg;
  cfg.engine.threads = a.threads;
  cfg.scrub_every = a.scrub_every;
  if (a.trace_out) cfg.engine.trace = &trace;
  cfg.breaker = a.breaker;

  DeltaPlanConfig pc;
  pc.seed = a.seed;
  pc.max_batch = a.batch_max;
  pc.crash_prob = a.chaos;
  pc.corrupt_prob = a.chaos;

  std::optional<ServeSoak> soak;
  if (a.serve_readers > 0) {
    soak.emplace(a.serve_readers, a.serve_lookups);
    cfg.snapshot_sink = soak->sink();
    // Bit-rot is invisible to row statuses until a scrub runs, so a
    // validating soak over it would only measure that documented blind
    // spot; keep crashes, drop corruption.
    if (pc.corrupt_prob > 0.0) {
      std::fprintf(stderr, "serve mode: corrupt_prob forced to 0\n");
      pc.corrupt_prob = 0.0;
    }
  }
  DeltaPlan plan(pc);

  std::optional<core::DapspService> svc;
  try {
    const Graph g = make_graph(a);
    if (soak) {
      // The fresh-build ctor publishes the first snapshot at epoch 0; its
      // oracle must be staged before the service exists.
      soak->reserve_epochs(a.updates);
      soak->stage_oracle(0, g);
      soak->start();
    }
    svc.emplace(g, cfg);
    std::fprintf(stderr, "initial build: n=%u m=%zu, all rows certified\n",
                 g.num_nodes(), g.num_edges());

    std::optional<DynamicGraph> shadow;
    if (soak) shadow.emplace(svc->dynamic_graph());

    const std::uint64_t progress_step =
        a.quiet ? 0 : std::max<std::uint64_t>(1, a.updates / 20);
    for (std::uint64_t u = 0; u < a.updates; ++u) {
      if (a.strangle) {
        const bool inside = u + 1 >= a.strangle->first &&
                            u + 1 <= a.strangle->second;
        svc->set_watchdog_rounds(inside ? 1 : cfg.engine.max_rounds);
      }
      const ChurnBatch batch = plan.next(svc->dynamic_graph());
      if (soak) {
        // Mirror step()'s batch application on the shadow graph so the
        // post-batch oracle for the upcoming epoch exists before any
        // snapshot at that epoch is published.
        for (const GraphDelta& d : batch.deltas) shadow->apply(d);
        for (const NodeId v : batch.crashes) {
          if (shadow->active(v)) {
            shadow->apply(GraphDelta{DeltaKind::kNodeLeave, v, v});
          }
        }
        soak->stage_oracle(svc->epoch() + 1, shadow->snapshot());
      }
      const core::EpochReport ep = svc->step(batch);
      if (progress_step && (u + 1) % progress_step == 0) {
        std::fprintf(stderr, "[%llu/%llu] %s\n",
                     static_cast<unsigned long long>(u + 1),
                     static_cast<unsigned long long>(a.updates),
                     ep.debug_string().c_str());
      }
    }

    // Bit-rot is invisible to the delta analyzer: end with a certificate
    // scrub whenever corruption may still be latent, so exit status reflects
    // the true table state.
    if (svc->stats().corrupted_entries > 0 || !svc->fully_certified()) {
      const core::EpochReport ep = svc->scrub();
      if (!a.quiet) {
        std::fprintf(stderr, "final scrub: %s\n", ep.debug_string().c_str());
      }
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 1;
  }

  bool overclaims = false;
  if (soak) {
    // Let the readers observe the final (fully certified) snapshot before
    // shutting them down, so short runs still validate something.
    const std::uint64_t want =
        static_cast<std::uint64_t>(a.serve_readers) * a.serve_lookups;
    for (int spin = 0; spin < 4000 && soak->validated() < want; ++spin) {
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    soak->stop();
    std::printf(
        "serve soak: readers=%u swaps=%llu validated=%llu wrong=%llu\n",
        a.serve_readers, static_cast<unsigned long long>(soak->swaps()),
        static_cast<unsigned long long>(soak->validated()),
        static_cast<unsigned long long>(soak->wrong()));
    overclaims = soak->wrong() > 0;
  }

  const core::ServiceStats& st = svc->stats();
  std::printf("service: %s\n", st.debug_string().c_str());
  if (svc->breaker()) {
    std::printf("breaker: state=%s transitions=%llu suppressed=%llu\n",
                core::to_string(svc->breaker()->state()),
                static_cast<unsigned long long>(st.breaker_transitions),
                static_cast<unsigned long long>(st.repairs_suppressed));
  }
  const bool certified = svc->fully_certified();
  std::printf("final: n_active=%u m=%zu epoch=%llu %s\n",
              svc->dynamic_graph().num_active(),
              svc->dynamic_graph().num_edges(),
              static_cast<unsigned long long>(svc->epoch()),
              certified ? "FULLY-CERTIFIED" : "NOT-CERTIFIED");
  write_outputs(a, trace, st);
  if (a.ckpt_dump) {
    const std::uint64_t words[3] = {plan.rng_state(), plan.batches_generated(),
                                    a.updates};
    dump_blob(*a.ckpt_dump, svc->checkpoint_blob(words));
  }
  return (certified && !overclaims) ? 0 : 1;
}
