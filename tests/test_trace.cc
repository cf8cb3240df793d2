// The trace/metrics subsystem (DESIGN.md §12): sharded collection must yield
// byte-identical trace files and metrics at every EngineConfig::threads
// value, on fault-free and faulty runs alike; the exporters must produce
// well-formed output (Chrome-trace timestamps non-decreasing in file order);
// and the per-edge-load profile must exhibit Lemma 1's congestion-free flood
// schedule on pebble-APSP runs.
#include <gtest/gtest.h>

#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "congest/engine.h"
#include "congest/faults.h"
#include "congest/reliable.h"
#include "congest/trace.h"
#include "core/pebble_apsp.h"
#include "core/primitives/bfs_process.h"
#include "graph/generators.h"
#include "util/metrics.h"

namespace dapsp::congest {
namespace {

const std::uint32_t kThreadCounts[] = {1, 2, 8};

// Self-correcting BFS flood from node 0 (same probe as test_determinism):
// faulty transports produce long, fault-shaped traces.
class Flood final : public Process {
 public:
  explicit Flood(NodeId id) : dist_(id == 0 ? 0 : kInfDist) {}

  void on_round(RoundCtx& ctx) override {
    bool improved = dist_ == 0 && ctx.round() == 0;
    for (const Received& r : ctx.inbox()) {
      if (r.msg.f[0] + 1 < dist_) {
        dist_ = r.msg.f[0] + 1;
        improved = true;
      }
    }
    if (improved) ctx.send_all(Message::make(1, dist_));
    ran_ = true;
  }
  bool done() const override { return ran_; }

 private:
  std::uint32_t dist_;
  bool ran_ = false;
};

std::vector<std::uint64_t> to_vec(const Histogram& h) {
  return {h.counts().begin(), h.counts().end()};
}

// One instrumented Flood run: full trace serialized to JSONL plus the merged
// metrics, for byte-level comparison across thread counts.
struct TracedRun {
  std::string stats;
  std::string status;
  std::string trace_jsonl;
  std::vector<std::uint64_t> edge_bits;
  std::vector<std::uint64_t> edge_messages;
  std::vector<std::uint64_t> round_activity;
};

TracedRun run_traced(const Graph& g, EngineConfig cfg, std::uint32_t threads) {
  TraceLog trace;
  EngineMetrics metrics;
  cfg.threads = threads;
  cfg.max_rounds = 200000;
  cfg.trace = &trace;
  cfg.metrics = &metrics;
  Engine e(g, cfg);
  e.init([](NodeId v) { return std::make_unique<Flood>(v); });
  const Outcome out = e.run_bounded();
  TracedRun run;
  run.stats = out.stats.debug_string();
  run.status = std::string(to_string(out.status)) + " " + out.message;
  std::ostringstream os;
  trace.write_jsonl(os);
  run.trace_jsonl = std::move(os).str();
  run.edge_bits = to_vec(metrics.edge_bits);
  run.edge_messages = to_vec(metrics.edge_messages);
  run.round_activity = to_vec(metrics.round_activity);
  return run;
}

// Fault plans from the determinism suite: probabilistic loss, structural
// failures, and the reliable layer over a lossy wire.
EngineConfig lossy_config() {
  FaultPlan plan;
  plan.seed = 9001;
  plan.drop_prob = 0.25;
  plan.duplicate_prob = 0.15;
  plan.delay_prob = 0.2;
  plan.max_extra_delay = 4;
  EngineConfig cfg;
  cfg.faults = plan;
  return cfg;
}

EngineConfig structural_config(const Graph& g) {
  FaultPlan plan;
  plan.seed = 4242;
  plan.drop_prob = 0.05;
  plan.link_failures.push_back({g.edges()[0].u, g.edges()[0].v, 3});
  plan.crashes.push_back({g.num_nodes() - 1, 5});
  EngineConfig cfg;
  cfg.faults = plan;
  return cfg;
}

EngineConfig reliable_lossy_config() {
  EngineConfig cfg = lossy_config();
  apply_reliable(cfg);
  return cfg;
}

std::vector<Graph> trace_graphs() {
  std::vector<Graph> out;
  out.push_back(gen::grid(4, 5));
  out.push_back(gen::petersen());
  out.push_back(gen::random_connected(24, 20, 33));
  return out;
}

// --- Determinism: byte-identical traces at every thread count -----------

TEST(TraceDeterminism, FaultFreeRunsAcrossThreadCounts) {
  for (const Graph& g : trace_graphs()) {
    const TracedRun ref = run_traced(g, EngineConfig{}, 1);
    ASSERT_FALSE(ref.trace_jsonl.empty()) << g.summary();
    for (const std::uint32_t t : {2u, 8u}) {
      const TracedRun r = run_traced(g, EngineConfig{}, t);
      ASSERT_EQ(r.stats, ref.stats) << g.summary() << " threads=" << t;
      ASSERT_EQ(r.trace_jsonl, ref.trace_jsonl)
          << g.summary() << " threads=" << t;
      ASSERT_EQ(r.edge_bits, ref.edge_bits) << g.summary() << " threads=" << t;
      ASSERT_EQ(r.edge_messages, ref.edge_messages)
          << g.summary() << " threads=" << t;
      ASSERT_EQ(r.round_activity, ref.round_activity)
          << g.summary() << " threads=" << t;
    }
  }
}

TEST(TraceDeterminism, FaultyRunsAcrossThreadCounts) {
  for (const Graph& g : trace_graphs()) {
    const EngineConfig plans[] = {lossy_config(), structural_config(g),
                                  reliable_lossy_config()};
    int plan_no = 0;
    for (const EngineConfig& cfg : plans) {
      ++plan_no;
      const TracedRun ref = run_traced(g, cfg, 1);
      ASSERT_FALSE(ref.trace_jsonl.empty())
          << g.summary() << " plan=" << plan_no;
      for (const std::uint32_t t : {2u, 8u}) {
        const TracedRun r = run_traced(g, cfg, t);
        ASSERT_EQ(r.status, ref.status)
            << g.summary() << " plan=" << plan_no << " threads=" << t;
        ASSERT_EQ(r.stats, ref.stats)
            << g.summary() << " plan=" << plan_no << " threads=" << t;
        ASSERT_EQ(r.trace_jsonl, ref.trace_jsonl)
            << g.summary() << " plan=" << plan_no << " threads=" << t;
        ASSERT_EQ(r.edge_messages, ref.edge_messages)
            << g.summary() << " plan=" << plan_no << " threads=" << t;
      }
    }
  }
}

// --- Event semantics ----------------------------------------------------

TEST(TraceEvents, FaultyRunRecordsTransportFates) {
  const Graph g = gen::grid(4, 5);
  TraceLog trace;
  EngineConfig cfg = structural_config(g);
  cfg.max_rounds = 200000;
  cfg.trace = &trace;
  Engine e(g, cfg);
  e.init([](NodeId v) { return std::make_unique<Flood>(v); });
  const Outcome out = e.run_bounded();
  std::uint64_t sends = 0, delivers = 0, drops = 0, crashes = 0;
  for (const TraceEvent& ev : trace.events()) {
    switch (ev.kind) {
      case TraceEventKind::kSend: ++sends; break;
      case TraceEventKind::kDeliver: ++delivers; break;
      case TraceEventKind::kDrop: ++drops; break;
      case TraceEventKind::kCrash:
        ++crashes;
        EXPECT_EQ(ev.node, g.num_nodes() - 1);
        EXPECT_EQ(ev.peer, kTraceNoPeer);
        break;
      default: break;
    }
  }
  EXPECT_EQ(sends, out.stats.messages);
  EXPECT_GT(drops, 0u);
  EXPECT_EQ(crashes, 1u);
  // Crash-absorbed inbox drops are counted in stats but not traced
  // per-message, so delivered <= sent - dropped.
  EXPECT_LE(delivers + drops, sends);
}

TEST(TraceEvents, DetectorVerdictsAreTraced) {
  const Graph g = gen::path(2);
  FaultPlan plan;
  plan.crashes.push_back({1, 5});
  TraceLog trace;
  EngineConfig cfg;
  cfg.faults = plan;
  cfg.max_rounds = 5000;
  cfg.trace = &trace;
  apply_reliable(cfg);
  Engine e(g, cfg);
  e.init([](NodeId v) { return std::make_unique<Flood>(v); });
  const Outcome out = e.run_bounded();
  std::uint64_t verdicts = 0;
  for (const TraceEvent& ev : trace.events()) {
    if (ev.kind != TraceEventKind::kNeighborDown) continue;
    ++verdicts;
    EXPECT_EQ(ev.node, 0u);
    EXPECT_EQ(ev.peer, 1u);
  }
  EXPECT_EQ(verdicts, out.stats.neighbors_suspected);
  EXPECT_EQ(verdicts, 1u);
}

TEST(TraceEvents, FrontierEventsMatchTheDistanceTable) {
  const Graph g = gen::random_connected(32, 64, 7);
  TraceLog trace;
  core::ApspOptions opt;
  opt.engine.trace = &trace;
  const core::ApspResult r = core::run_pebble_apsp(g, opt);
  std::uint64_t frontier = 0;
  for (const TraceEvent& ev : trace.events()) {
    if (ev.kind != TraceEventKind::kFrontier) continue;
    ++frontier;
    ASSERT_NE(ev.peer, kTraceNoPeer);
    // The adopted distance is final: pebble-APSP frontiers never re-adopt.
    ASSERT_EQ(ev.msg.f[0], r.dist.at(ev.node, ev.peer))
        << "node " << ev.node << " source " << ev.peer;
  }
  // Every node adopts every other node's flood exactly once.
  const std::uint64_t n = g.num_nodes();
  EXPECT_EQ(frontier, n * (n - 1));
}

// --- Lemma 1: the flood schedule is congestion-free ---------------------

// A rogue process that puts two kApspFlood messages on the same directed
// edge in one round — exactly what Lemma 1 forbids.
class DoubleFlooder final : public Process {
 public:
  void on_round(RoundCtx& ctx) override {
    if (ctx.round() == 0 && ctx.id() == 0) {
      ctx.send(0, Message::make(core::kApspFlood, 0, 1));
      ctx.send(0, Message::make(core::kApspFlood, 0, 1));
    }
    done_ = true;
  }
  bool done() const override { return done_; }

 private:
  bool done_ = false;
};

TEST(TraceLemma1, PebbleApspFloodsNeverCollideOnAnEdge) {
  std::vector<Graph> graphs;
  graphs.push_back(gen::grid(5, 5));
  graphs.push_back(gen::petersen());
  graphs.push_back(gen::random_connected(40, 80, 11));
  // With petersen above, test_certify's graph families.
  graphs.push_back(gen::path(8));
  graphs.push_back(gen::grid(3, 4));
  graphs.push_back(gen::random_connected(14, 10, 21));
  for (const Graph& g : graphs) {
    TraceLog trace;
    EngineMetrics metrics;
    core::ApspOptions opt;
    opt.engine.trace = &trace;
    opt.engine.metrics = &metrics;
    const core::ApspResult r = core::run_pebble_apsp(g, opt);
    ASSERT_EQ(r.status, RunStatus::kCompleted) << g.summary();
    // At most one kApspFlood message per directed edge per round (Lemma 1).
    EXPECT_EQ(max_sends_per_edge_round(trace.events(), core::kApspFlood), 1u)
        << g.summary();
    // The per-edge-load histogram saw every busy edge-round, and the round
    // activity histogram accounts for every message.
    ASSERT_FALSE(metrics.edge_messages.empty()) << g.summary();
    std::uint64_t activity_sum = 0;
    const auto counts = metrics.round_activity.counts();
    for (std::size_t v = 0; v < counts.size(); ++v) {
      activity_sum += v * counts[v];
    }
    EXPECT_EQ(activity_sum, r.stats.messages) << g.summary();
    EXPECT_EQ(metrics.round_activity.total(), r.stats.rounds) << g.summary();
  }

  // The same check over a trace that does break Lemma 1.
  const Graph g = gen::path(2);
  TraceLog trace;
  EngineConfig cfg;
  cfg.bandwidth_ids = 8;  // room for both sends; the trace, not B, judges
  cfg.trace = &trace;
  Engine e(g, cfg);
  e.init([](NodeId) { return std::make_unique<DoubleFlooder>(); });
  e.run();
  EXPECT_EQ(max_sends_per_edge_round(trace.events(), core::kApspFlood), 2u);
}

// --- Exporters ----------------------------------------------------------

TraceLog sample_log() {
  TraceLog log;
  log.append({TraceEventKind::kSend, 0, 1, 0, 0, Message::make(1, 7)});
  log.append({TraceEventKind::kDelay, 0, 2, 0, 3, Message::make(1, 7)});
  log.append({TraceEventKind::kDeliver, 1, 0, 1, 0, Message::make(1, 7)});
  log.append({TraceEventKind::kCrash, 2, kTraceNoPeer, 4, 0, Message{}});
  return log;
}

TEST(TraceExport, JsonlOneObjectPerEvent) {
  const TraceLog log = sample_log();
  std::ostringstream os;
  log.write_jsonl(os);
  const std::string text = os.str();
  std::size_t lines = 0;
  for (const char c : text) lines += c == '\n';
  EXPECT_EQ(lines, log.size());
  EXPECT_NE(text.find("\"kind\": \"send\""), std::string::npos);
  EXPECT_NE(text.find("\"kind\": \"crash\""), std::string::npos);
}

TEST(TraceExport, CsvHasHeaderAndOneRowPerEvent) {
  const TraceLog log = sample_log();
  std::ostringstream os;
  log.write_csv(os);
  const std::string text = os.str();
  std::size_t lines = 0;
  for (const char c : text) lines += c == '\n';
  EXPECT_EQ(lines, log.size() + 1);  // header row
  EXPECT_EQ(text.rfind("kind,node,peer,round,msg_kind", 0), 0u);
}

// Extract every "ts": value from a Chrome-trace JSON string, in file order.
std::vector<long> chrome_timestamps(const std::string& text) {
  std::vector<long> ts;
  std::size_t pos = 0;
  while ((pos = text.find("\"ts\":", pos)) != std::string::npos) {
    pos += 5;
    ts.push_back(std::stol(text.substr(pos)));
  }
  return ts;
}

TEST(TraceExport, ChromeJsonTimestampsAreNonDecreasing) {
  const Graph g = gen::grid(4, 4);
  TraceLog trace;
  EngineConfig cfg = lossy_config();
  cfg.max_rounds = 200000;
  cfg.trace = &trace;
  Engine e(g, cfg);
  e.init([](NodeId v) { return std::make_unique<Flood>(v); });
  e.run_bounded();
  for (const TraceLanes lanes : {TraceLanes::kPerNode, TraceLanes::kPerFlood}) {
    std::ostringstream os;
    trace.write_chrome_json(os, lanes);
    const std::string text = os.str();
    EXPECT_NE(text.find("\"traceEvents\""), std::string::npos);
    const std::vector<long> ts = chrome_timestamps(text);
    if (lanes == TraceLanes::kPerNode) {
      ASSERT_EQ(ts.size(), trace.size());
    }
    for (std::size_t i = 1; i < ts.size(); ++i) {
      ASSERT_LE(ts[i - 1], ts[i]) << "event " << i << " lanes="
                                  << static_cast<int>(lanes);
    }
  }
}

// --- util/metrics -------------------------------------------------------

TEST(Metrics, HistogramExactCountsAndQuantiles) {
  Histogram h;
  EXPECT_TRUE(h.empty());
  h.add(3);
  h.add(0, 2);
  h.add(7, 5);
  EXPECT_EQ(h.total(), 8u);
  EXPECT_EQ(h.count(0), 2u);
  EXPECT_EQ(h.count(3), 1u);
  EXPECT_EQ(h.count(7), 5u);
  EXPECT_EQ(h.count(4), 0u);
  EXPECT_EQ(h.min_value(), 0u);
  EXPECT_EQ(h.max_value(), 7u);
  EXPECT_DOUBLE_EQ(h.mean(), (0.0 * 2 + 3.0 + 7.0 * 5) / 8.0);
  EXPECT_EQ(h.quantile(0.0), 0u);
  EXPECT_EQ(h.quantile(0.25), 0u);
  EXPECT_EQ(h.quantile(0.5), 7u);
  EXPECT_EQ(h.quantile(1.0), 7u);

  Histogram other;
  other.add(3, 4);
  other.add(9);
  h.merge(other);
  EXPECT_EQ(h.total(), 13u);
  EXPECT_EQ(h.count(3), 5u);
  EXPECT_EQ(h.max_value(), 9u);

  h.clear();
  EXPECT_TRUE(h.empty());
  EXPECT_EQ(h.count(7), 0u);
}

TEST(Metrics, HistogramMergeIsCommutative) {
  Histogram a, b;
  a.add(1, 3);
  a.add(5);
  b.add(5, 2);
  b.add(12);
  Histogram ab = a, ba = b;
  ab.merge(b);
  ba.merge(a);
  EXPECT_EQ(ab.total(), ba.total());
  EXPECT_EQ(ab.max_value(), ba.max_value());
  for (std::uint64_t v = 0; v <= 12; ++v) {
    EXPECT_EQ(ab.count(v), ba.count(v)) << "value " << v;
  }
}

TEST(Metrics, RegistryExportsJsonAndCsv) {
  MetricsRegistry reg;
  reg.counter("rounds") = 17;
  reg.counter("messages") = 230;
  reg.histogram("edge_bits").add(32, 4);
  reg.histogram("edge_bits").add(64);
  std::ostringstream json;
  reg.write_json(json);
  const std::string j = json.str();
  EXPECT_NE(j.find("\"rounds\": 17"), std::string::npos);
  EXPECT_NE(j.find("\"messages\": 230"), std::string::npos);
  EXPECT_NE(j.find("\"edge_bits\""), std::string::npos);
  EXPECT_NE(j.find("\"total\": 5"), std::string::npos);
  std::ostringstream csv;
  reg.write_csv(csv);
  const std::string c = csv.str();
  EXPECT_EQ(c.rfind("metric,kind,value,count", 0), 0u);
  EXPECT_NE(c.find("rounds,counter"), std::string::npos);
  EXPECT_NE(c.find("edge_bits,histogram,32,4"), std::string::npos);
  // References returned by the registry stay valid and live.
  EXPECT_EQ(reg.counters().size(), 2u);
  EXPECT_EQ(reg.histograms().size(), 1u);
}

}  // namespace
}  // namespace dapsp::congest
