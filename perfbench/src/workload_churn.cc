// churn_rand512: durable service epochs. DurableDapspService at universe 512
// on random_connected(512, n/2) (the graph `dapsp_service --universe 512`
// builds), the default DeltaPlanConfig, one engine thread, a journal in a
// fresh directory and rotate_checkpoint() every 8 epochs. One op is one
// ack_and_step, ending when its final publish is live. Loads the service's
// dirty analysis and repair ladder (and the engine under it), the durable
// journal and checkpoints, and the publish half of the query layer; no
// reads run. The engine runs serially for the reason given in
// workload_apsp.cc; the first epochs are replayed at two engine threads.
#include <filesystem>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "bench.h"
#include "publish.h"
#include "core/durable.h"
#include "core/query.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "seq/apsp.h"

namespace perfbench {
namespace {

namespace fs = std::filesystem;
using dapsp::DistanceMatrix;
using dapsp::Graph;
using dapsp::NodeId;
using dapsp::core::DapspService;
using dapsp::core::DurableDapspService;
using dapsp::core::EpochOutcome;
using dapsp::core::EpochReport;

constexpr NodeId kUniverse = 512;
constexpr unsigned kThreads = 1;
// A run drives this many independent services (graph and plan seeds
// derived from the run's seed), so one seed's escalation mix moves the
// result less; their set-ups are the set-up samples.
constexpr int kInstances = 3;
constexpr std::uint64_t kRotateEvery = 8;
// Epochs of the first instance replayed at two engine threads for the
// determinism gate.
constexpr std::size_t kPrefixEpochs = 4;

// Timed epochs per instance: a fixed schedule, so every run of a seed
// measures the same epochs whatever the speed of the code.
std::size_t instance_epochs(int seconds) {
  return static_cast<std::size_t>(std::max(8, seconds));
}

Graph instance_graph(std::uint64_t seed, int i) {
  return dapsp::gen::random_connected(kUniverse, kUniverse / 2,
                                      derive_seed(seed, 10 * static_cast<std::uint64_t>(i) + 1));
}
std::uint64_t instance_plan_seed(std::uint64_t seed, int i) {
  return derive_seed(seed, 10 * static_cast<std::uint64_t>(i) + 3);
}

// A SnapshotSink that makes ServingPublisher's calls, each timed.
class TimingSink final : public dapsp::core::SnapshotSink {
 public:
  struct Publish {
    bool degraded = false;
    PublishTiming t;
  };

  void on_snapshot(const DapspService& svc, bool degraded) override {
    epoch_publishes_.push_back({degraded, timed_publish(store_, [&] {
                                  return dapsp::core::encode_query_snapshot(
                                      svc, sequence_++, degraded);
                                })});
  }

  dapsp::core::SnapshotStore& store() { return store_; }
  // Publishes since the last call.
  std::vector<Publish> take() { return std::exchange(epoch_publishes_, {}); }

 private:
  dapsp::core::SnapshotStore store_;
  std::uint64_t sequence_ = 0;
  std::vector<Publish> epoch_publishes_;
};

struct EpochCounts {
  EpochOutcome outcome = EpochOutcome::kClean;
  std::uint64_t rounds = 0, messages = 0, bits = 0;
  friend bool operator==(const EpochCounts&, const EpochCounts&) = default;
};

// One fresh durable service plus its churn plan.
struct Instance {
  TimingSink sink;
  std::optional<DurableDapspService> svc;
  std::optional<dapsp::DeltaPlan> plan;
};

void start(Instance& in, const Graph& g, const std::string& dir,
           std::uint64_t plan_seed, unsigned threads) {
  in.svc.reset();
  fs::remove_all(dir);
  dapsp::core::DurableConfig dc;
  dc.dir = dir;
  dc.service.engine.threads = threads;
  dc.service.snapshot_sink = &in.sink;
  in.svc.emplace(g, dc);
  dapsp::DeltaPlanConfig pc;
  pc.seed = plan_seed;
  in.plan.emplace(pc);
  in.sink.take();
}

struct Epoch {
  EpochReport report;
  std::vector<TimingSink::Publish> publishes;
  std::int64_t start = 0, end = 0;
  double rotate_ms = -1.0;  // < 0: no rotation after this epoch
};

// One ack_and_step (and the rotation due after it), traced when asked.
Epoch step(Instance& in, Tracer& tracer, std::uint64_t op) {
  Epoch e;
  const dapsp::ChurnBatch batch = in.plan->next(in.svc->service().dynamic_graph());
  const std::uint64_t words[2] = {in.plan->rng_state(),
                                  in.plan->batches_generated()};
  e.start = now_ns();
  const std::int32_t root = tracer.begin_at("op", Layer::kBench, op, e.start);
  const std::int32_t ack = tracer.begin_at("ack_and_step", Layer::kDurable, op, e.start);
  e.report = in.svc->ack_and_step(batch, words);
  e.end = now_ns();
  e.publishes = in.sink.take();
  if (tracer.enabled()) {
    // Analysis runs from ack entry to the first publish, repair between the
    // degraded publish and the final one.
    std::int64_t cursor = e.start;
    const char* gap_name = "analyze";
    for (const TimingSink::Publish& p : e.publishes) {
      tracer.record(gap_name, Layer::kService, op, cursor, p.t.start);
      trace_publish(tracer, p.degraded ? "publish.degraded" : "publish.final", op, p.t);
      cursor = p.t.live;
      gap_name = "repair";
    }
  }
  tracer.end_at(ack, e.end);
  if (in.svc->service().epoch() % kRotateEvery == 0) {
    const std::int64_t r0 = now_ns();
    const std::int32_t rot = tracer.begin_at("rotate_checkpoint", Layer::kDurable, op, r0);
    in.svc->rotate_checkpoint();
    const std::int64_t r1 = now_ns();
    tracer.end_at(rot, r1);
    e.rotate_ms = ms_between(r0, r1);
  }
  tracer.end(root);
  return e;
}

EpochCounts counts_of(const EpochReport& r) {
  return {r.outcome, r.stats.rounds, r.stats.messages, r.stats.total_bits};
}

// Empty when the epoch certified and both the service's served table and
// the live snapshot equal the oracle of the active graph.
std::string check(const Epoch& e, DurableDapspService& d,
                  dapsp::core::SnapshotReader& reader,
                  const DistanceMatrix& oracle) {
  const DapspService& svc = d.service();
  if (!e.report.certified || !svc.fully_certified()) return "epoch not certified";
  const auto& active = svc.dynamic_graph().active_mask();
  const dapsp::core::SnapshotRef ref = reader.acquire();
  if (!ref || ref->epoch() != svc.epoch() || ref->degraded()) {
    return "the live snapshot is not the epoch's final publish";
  }
  for (NodeId s = 0; s < kUniverse; ++s) {
    if (!active[s]) continue;
    if (ref->status(s) == dapsp::core::RowStatus::kStale) return "live row stale";
    const std::span<const std::uint32_t> row = ref->dist_row(s);
    for (NodeId v = 0; v < kUniverse; ++v) {
      if (!active[v]) continue;
      if (svc.served_dist().at(v, s) != oracle.at(v, s)) {
        return "served d(" + std::to_string(v) + ", " + std::to_string(s) +
               ") differs from the oracle";
      }
      if (row[v] != oracle.at(v, s)) return "live snapshot differs from the oracle";
    }
  }
  return {};
}

// Rows whose distances between nodes active on both sides of an epoch
// changed, plus rows of joined sources: the rows the dirty analysis must
// flag. (Entries of joined or departed nodes alone are patched or zeroed
// without a recompute.)
std::uint64_t changed_rows(const DistanceMatrix& before, const DistanceMatrix& after,
                           const std::vector<std::uint8_t>& active_before,
                           const std::vector<std::uint8_t>& active_after) {
  std::uint64_t changed = 0;
  for (NodeId s = 0; s < kUniverse; ++s) {
    if (!active_after[s]) continue;
    bool row_changed = !active_before[s];
    for (NodeId v = 0; v < kUniverse && !row_changed; ++v) {
      row_changed = active_before[v] && active_after[v] && before.at(v, s) != after.at(v, s);
    }
    changed += row_changed;
  }
  return changed;
}

struct Schedule {
  std::vector<double> setup_s;      // one per instance
  std::vector<Epoch> epochs;
  std::vector<EpochCounts> counts;  // per instance: warm-up epoch first
  double busy_s = 0.0;              // epochs + rotations
  std::uint64_t changed_rows = 0;
  double ops_per_s() const {
    return busy_s > 0.0 ? static_cast<double>(epochs.size()) / busy_s : 0.0;
  }
};

}  // namespace

Report run_churn(const Options& opt) {
  Report rep;
  rep.threads = kThreads;
  rep.tracers.emplace_back(opt.trace);
  Tracer off(false);
  const std::string dir = opt.work_dir + "/churn";

  Instance in;
  // The traced run measures the schedule twice, untraced then traced, so
  // each pass gets half the epochs.
  const std::size_t epochs = instance_epochs(opt.trace ? opt.seconds / 2 : opt.seconds);
  std::uint64_t op_id = 0;
  auto run_schedule = [&](Tracer& tracer) {
    Schedule sc;
    dapsp::core::SnapshotReader reader(in.sink.store());
    for (int inst = 0; inst < kInstances; ++inst) {
      // Set-up: input, initial build and generation-0 checkpoint.
      const std::int64_t t0 = now_ns();
      start(in, instance_graph(opt.seed, inst), dir, instance_plan_seed(opt.seed, inst),
            kThreads);
      sc.setup_s.push_back(ms_between(t0, now_ns()) / 1e3);
      const auto& dg = in.svc->service().dynamic_graph();
      DistanceMatrix before = dapsp::seq::apsp(dg.snapshot());
      std::vector<std::uint8_t> active_before = dg.active_mask();
      for (std::size_t i = 0; i <= epochs; ++i) {  // epoch 0 is the warm-up
        ++op_id;
        Epoch e;
        try {
          e = step(in, tracer, op_id);
        } catch (const std::exception& ex) {
          ++rep.attempted;
          rep.fail(std::string("ack_and_step threw: ") + ex.what());
          break;
        }
        sc.counts.push_back(counts_of(e.report));
        DistanceMatrix after = dapsp::seq::apsp(dg.snapshot());
        std::string why = check(e, *in.svc, reader, after);
        if (i > 0) {
          ++rep.attempted;
          if (!why.empty()) rep.fail("epoch " + std::to_string(e.report.epoch) + ": " + why);
          sc.busy_s += ms_between(e.start, e.end) / 1e3 + std::max(0.0, e.rotate_ms) / 1e3;
          sc.changed_rows += changed_rows(before, after, active_before, dg.active_mask());
          sc.epochs.push_back(std::move(e));
        } else if (!why.empty()) {
          rep.fail("warm-up epoch: " + why);
        }
        before = std::move(after);
        active_before = dg.active_mask();
      }
    }
    return sc;
  };

  const Schedule plain = run_schedule(off);

  // Determinism across thread counts: replay the first instance's warm-up
  // and first epochs at two engine threads; outcomes and counts must match
  // exactly.
  std::vector<double> serial_ms, parallel_ms;
  {
    Instance parallel;
    start(parallel, instance_graph(opt.seed, 0), dir + "-2t", instance_plan_seed(opt.seed, 0), 2);
    for (std::size_t i = 0; i <= kPrefixEpochs && i < plain.counts.size(); ++i) {
      const Epoch e = step(parallel, off, 0);
      if (i > 0) {
        parallel_ms.push_back(ms_between(e.start, e.end));
        serial_ms.push_back(
            ms_between(plain.epochs[i - 1].start, plain.epochs[i - 1].end));
      }
      if (counts_of(e.report) != plain.counts[i]) {
        rep.fail("determinism: epoch " + std::to_string(i) +
                 " differs between 1 and 2 engine threads");
      }
    }
    parallel.svc.reset();
    fs::remove_all(dir + "-2t");
  }

  std::vector<double> op_ms;
  std::vector<double> publish_ms;
  for (const Epoch& e : plain.epochs) {
    op_ms.push_back(ms_between(e.start, e.end));
    for (const auto& p : e.publishes) publish_ms.push_back(ms_between(p.t.start, p.t.live));
  }
  rep.add_e2e("setup_s", median(plain.setup_s), "s", plain.setup_s.size(),
              "input + initial build + generation-0 checkpoint");
  rep.add_e2e("ops_per_s", plain.ops_per_s(), "1/s", plain.epochs.size(),
              "epochs over the fixed schedule, rotations included");
  rep.add_e2e("op_ms_p50", median(op_ms), "ms", op_ms.size(),
              "bimodal: incremental vs escalated epochs");
  rep.add_tail(op_ms);
  rep.add_e2e("publish_ms_p50", median(publish_ms), "ms", publish_ms.size());
  if (!opt.trace) {
    in.svc.reset();
    fs::remove_all(dir);
    return rep;
  }

  // Traced run: the same schedule again from fresh services.
  const Schedule traced = run_schedule(rep.tracers.front());
  if (traced.counts != plain.counts) {
    rep.fail("determinism: the traced schedule's counts differ from the untraced one");
  }
  std::vector<double> analyze, incremental, escalated, encode, verify, swap_us,
      pub, rotate, suspects;
  std::uint64_t n_escalated = 0, suspect_sum = 0;
  std::uint64_t rounds = 0, messages = 0, bits = 0;
  double repair_s = 0.0;
  std::size_t snapshot_bytes = 0;
  for (const Epoch& e : traced.epochs) {
    const EpochReport& r = e.report;
    const PublishTiming* degraded = nullptr;
    const PublishTiming* final_pub = nullptr;
    for (const auto& p : e.publishes) {
      (p.degraded ? degraded : final_pub) = &p.t;
      encode.push_back(ms_between(p.t.start, p.t.encoded));
      verify.push_back(ms_between(p.t.encoded, p.t.verified));
      swap_us.push_back(ms_between(p.t.verified, p.t.live) * 1e3);
      pub.push_back(ms_between(p.t.start, p.t.live));
      snapshot_bytes = std::max(snapshot_bytes, p.t.bytes);
    }
    if (final_pub == nullptr) {
      rep.fail("epoch " + std::to_string(r.epoch) + " published no final snapshot");
      continue;
    }
    analyze.push_back(ms_between(e.start, (degraded ? degraded : final_pub)->start));
    if (degraded != nullptr) {
      const double ms = ms_between(degraded->live, final_pub->start);
      repair_s += ms / 1e3;
      if (r.outcome == EpochOutcome::kEscalated) {
        escalated.push_back(ms);
      } else {
        incremental.push_back(ms);
      }
    }
    if (r.outcome == EpochOutcome::kEscalated) ++n_escalated;
    suspect_sum += r.suspect_rows;
    suspects.push_back(r.suspect_rows);
    rounds += r.stats.rounds;
    messages += r.stats.messages;
    bits += r.stats.total_bits;
    if (e.rotate_ms >= 0.0) rotate.push_back(e.rotate_ms);
  }
  const std::size_t n = traced.epochs.size();
  const auto& ds = in.svc->durable_stats();
  std::uintmax_t ckpt_bytes = 0;
  for (const char* slot : {"/ckpt.g0", "/ckpt.g1"}) {
    std::error_code ec;
    const std::uintmax_t size = fs::file_size(dir + slot, ec);
    if (!ec) ckpt_bytes = std::max(ckpt_bytes, size);
  }

  rep.add_layer("engine.rounds", static_cast<double>(rounds), "count", n);
  rep.add_layer("engine.messages", static_cast<double>(messages), "count", n);
  rep.add_layer("engine.bits", static_cast<double>(bits), "bit", n);
  rep.add_layer("engine.ns_per_msg",
                messages ? repair_s * 1e9 / static_cast<double>(messages) : 0.0,
                "ns", n, "repair interval / messages");
  rep.add_layer("engine.serial_op_ms", median(serial_ms), "ms", serial_ms.size(),
                "first epochs");
  rep.add_layer("engine.speedup_2t", median(serial_ms) / median(parallel_ms), "x",
                serial_ms.size());
  rep.add_layer("service.analyze_ms_p50", median(analyze), "ms", analyze.size());
  rep.add_layer("service.incremental_ms_p50", median(incremental), "ms",
                incremental.size());
  rep.add_layer("service.escalated_ms_p50", median(escalated), "ms", escalated.size());
  rep.add_layer("service.escalated_ratio",
                static_cast<double>(n_escalated) / static_cast<double>(n), "ratio", n);
  rep.add_layer("service.suspect_rows_mean", mean(suspects), "rows", n);
  rep.add_layer("service.useful_row_ratio",
                suspect_sum ? static_cast<double>(traced.changed_rows) /
                                  static_cast<double>(suspect_sum)
                            : 0.0,
                "ratio", n, "oracle-changed rows / suspect rows");
  rep.add_layer("repair.rounds", static_cast<double>(rounds), "count", n);
  rep.add_layer("repair.messages", static_cast<double>(messages), "count", n);
  rep.add_layer("query.encode_ms_p50", median(encode), "ms", encode.size());
  rep.add_layer("query.verify_ms_p50", median(verify), "ms", verify.size());
  rep.add_layer("query.swap_us_p50", median(swap_us), "us", swap_us.size());
  rep.add_layer("query.snapshot_mib", static_cast<double>(snapshot_bytes) / 1048576.0,
                "MiB", pub.size());
  rep.add_layer("query.publish_ms_p50", median(pub), "ms", pub.size());
  rep.add_layer("durable.rotate_ms_p50", median(rotate), "ms", rotate.size());
  rep.add_layer("durable.checkpoint_mib", static_cast<double>(ckpt_bytes) / 1048576.0,
                "MiB", 1);
  rep.add_layer("durable.journal_bytes_per_epoch",
                ds.journal_appends ? static_cast<double>(ds.journal_bytes) /
                                         static_cast<double>(ds.journal_appends)
                                   : 0.0,
                "B", ds.journal_appends);
  rep.add_layer("bench.trace_overhead", traced.ops_per_s() / plain.ops_per_s(), "ratio", n);
  in.svc.reset();
  fs::remove_all(dir);
  return rep;
}

}  // namespace perfbench
