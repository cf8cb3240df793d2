// Fault injection and reliable delivery: plan validation, drop/duplicate/
// delay/link-failure/crash semantics, determinism of faulty runs, bounded
// outcomes, and the headline guarantee — paper algorithms wrapped in the
// ReliableAdapter compute oracle-exact distances on lossy transports.
#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "congest/engine.h"
#include "congest/faults.h"
#include "congest/reliable.h"
#include "core/certify.h"
#include "core/pebble_apsp.h"
#include "core/ssp.h"
#include "graph/generators.h"
#include "seq/apsp.h"
#include "seq/bfs.h"
#include "util/blob.h"

namespace dapsp::congest {
namespace {

// Node 0 sends one 1-field message to each neighbor in round 0; everyone
// records what arrives and when.
class OneShot final : public Process {
 public:
  explicit OneShot(NodeId id) : id_(id) {}

  void on_round(RoundCtx& ctx) override {
    for (const Received& r : ctx.inbox()) {
      received_.push_back(r.msg);
      recv_rounds_.push_back(ctx.round());
    }
    if (id_ == 0 && ctx.round() == 0) ctx.send_all(Message::make(1, 42));
    done_ = true;
  }
  bool done() const override { return done_; }

  std::vector<Message> received_;
  std::vector<std::uint64_t> recv_rounds_;

 private:
  NodeId id_;
  bool done_ = false;
};

// An *unprotected* BFS flood: node 0 floods distance waves; nodes adopt the
// first distance heard and forward it once. Correct in the idealized model,
// silently wrong under loss — the negative control for the adapter tests.
class NaiveFlood final : public Process {
 public:
  explicit NaiveFlood(NodeId id) : id_(id), dist_(id == 0 ? 0 : kInfDist) {}

  void on_round(RoundCtx& ctx) override {
    for (const Received& r : ctx.inbox()) {
      dist_ = std::min(dist_, r.msg.f[0] + 1);
    }
    if (dist_ != kInfDist && !sent_) {
      ctx.send_all(Message::make(1, dist_));
      sent_ = true;
    }
  }
  bool done() const override { return dist_ == kInfDist || sent_; }

  std::uint32_t dist() const { return dist_; }

 private:
  NodeId id_;
  std::uint32_t dist_;
  bool sent_ = false;
};

std::vector<std::uint32_t> flood_distances(Engine& e) {
  std::vector<std::uint32_t> out;
  for (NodeId v = 0; v < e.graph().num_nodes(); ++v) {
    out.push_back(e.process_as<NaiveFlood>(v).dist());
  }
  return out;
}

// ---------------------------------------------------------------------------
// Plan validation and engine config validation

TEST(FaultPlan, RejectsBadProbabilities) {
  const Graph g = gen::path(3);
  for (double p : {-0.1, 1.5}) {
    FaultPlan plan;
    plan.drop_prob = p;
    EXPECT_THROW(FaultInjector(g, plan), std::invalid_argument) << p;
  }
  FaultPlan nan_plan;
  nan_plan.duplicate_prob = std::nan("1");
  EXPECT_THROW(FaultInjector(g, nan_plan), std::invalid_argument);
}

TEST(FaultPlan, RejectsInconsistentDelay) {
  const Graph g = gen::path(3);
  FaultPlan plan;
  plan.delay_prob = 0.5;  // but max_extra_delay == 0
  EXPECT_THROW(FaultInjector(g, plan), std::invalid_argument);
  plan.max_extra_delay = kMaxExtraDelay + 1;
  EXPECT_THROW(FaultInjector(g, plan), std::invalid_argument);
}

TEST(FaultPlan, RejectsUnknownEdgesAndNodes) {
  const Graph g = gen::path(3);  // edges 0-1, 1-2
  FaultPlan plan;
  plan.edge_drop_overrides.push_back({0, 2, 0.5});  // not an edge
  EXPECT_THROW(FaultInjector(g, plan), std::invalid_argument);
  plan.edge_drop_overrides.clear();
  plan.crashes.push_back({7, 3});  // no node 7
  EXPECT_THROW(FaultInjector(g, plan), std::invalid_argument);
}

TEST(FaultPlan, RejectsMalformedLinkFailures) {
  const Graph g = gen::path(3);  // edges 0-1, 1-2
  {
    FaultPlan plan;
    plan.link_failures.push_back({0, 5, 0});  // endpoint out of range
    EXPECT_THROW(FaultInjector(g, plan), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.link_failures.push_back({0, 2, 0});  // not an edge
    EXPECT_THROW(FaultInjector(g, plan), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.link_failures.push_back({1, 1, 0});  // self-loop
    EXPECT_THROW(FaultInjector(g, plan), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.edge_drop_overrides.push_back({2, 2, 0.5});  // self-loop override
    EXPECT_THROW(FaultInjector(g, plan), std::invalid_argument);
  }
}

TEST(Engine, RejectsEmptyGraph) {
  const Graph g;
  EXPECT_THROW(Engine e(g), std::invalid_argument);
}

TEST(Engine, RejectsZeroBandwidth) {
  const Graph g = gen::path(2);
  EngineConfig cfg;
  cfg.bandwidth_ids = 0;
  EXPECT_THROW(Engine e(g, cfg), std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Primitive fault semantics on a two-node wire

Engine make_wire(const Graph& g, FaultPlan plan) {
  EngineConfig cfg;
  cfg.faults = plan;
  return Engine(g, cfg);
}

TEST(Faults, CertainDropLosesTheMessage) {
  const Graph g = gen::path(2);
  FaultPlan plan;
  plan.drop_prob = 1.0;
  Engine e = make_wire(g, plan);
  e.init([](NodeId v) { return std::make_unique<OneShot>(v); });
  const RunStats s = e.run();
  EXPECT_TRUE(e.process_as<OneShot>(1).received_.empty());
  EXPECT_EQ(s.messages, 1u);  // it was sent (and charged) ...
  EXPECT_EQ(s.messages_dropped, 1u);  // ... then lost
}

TEST(Faults, CertainDuplicationDeliversTwice) {
  const Graph g = gen::path(2);
  FaultPlan plan;
  plan.duplicate_prob = 1.0;
  Engine e = make_wire(g, plan);
  e.init([](NodeId v) { return std::make_unique<OneShot>(v); });
  const RunStats s = e.run();
  ASSERT_EQ(e.process_as<OneShot>(1).received_.size(), 2u);
  EXPECT_EQ(s.messages, 1u);
  EXPECT_EQ(s.messages_duplicated, 1u);
}

TEST(Faults, DelayArrivesLateAndHoldsQuiescence) {
  const Graph g = gen::path(2);
  FaultPlan plan;
  plan.delay_prob = 1.0;
  plan.max_extra_delay = 3;
  Engine e = make_wire(g, plan);
  e.init([](NodeId v) { return std::make_unique<OneShot>(v); });
  const RunStats s = e.run();
  const auto& p1 = e.process_as<OneShot>(1);
  ASSERT_EQ(p1.received_.size(), 1u);
  // Normal latency is 1 round; the extra delay is uniform in [1, 3].
  EXPECT_GE(p1.recv_rounds_[0], 2u);
  EXPECT_LE(p1.recv_rounds_[0], 4u);
  EXPECT_EQ(s.messages_delayed, 1u);
  // The run did not stop before the delayed message landed.
  EXPECT_EQ(s.rounds, p1.recv_rounds_[0] + 1);
}

TEST(Faults, LinkFailureCutsBothDirections) {
  const Graph g = gen::path(2);
  // Node 0 sends every round; the link dies at round 2.
  class Beacon final : public Process {
   public:
    explicit Beacon(NodeId id) : id_(id) {}
    void on_round(RoundCtx& ctx) override {
      for (const Received& r : ctx.inbox()) last_recv_ = ctx.round(), (void)r;
      if (ctx.round() < 5) ctx.send_all(Message::make(1, id_));
    }
    bool done() const override { return true; }
    std::uint64_t wake_round(std::uint64_t r) const override { return r; }
    std::uint64_t last_recv_ = 0;

   private:
    NodeId id_;
  };
  FaultPlan plan;
  plan.link_failures.push_back({0, 1, 2});
  EngineConfig cfg;
  cfg.faults = plan;
  cfg.max_rounds = 10;
  Engine e(g, cfg);
  e.init([](NodeId v) { return std::make_unique<Beacon>(v); });
  const RunStats s = e.run_rounds(8);
  // Sends from rounds 0 and 1 got through (delivered rounds 1 and 2) in
  // both directions; everything later died on the failed link.
  EXPECT_EQ(e.process_as<Beacon>(0).last_recv_, 2u);
  EXPECT_EQ(e.process_as<Beacon>(1).last_recv_, 2u);
  EXPECT_EQ(s.messages_dropped, 2u * 3u);  // rounds 2,3,4 in each direction
}

TEST(Faults, CrashStopSilencesNode) {
  const Graph g = gen::path(3);
  // Everyone beacons every round; node 2 crashes at round 3.
  class Beacon final : public Process {
   public:
    void on_round(RoundCtx& ctx) override {
      rounds_run_ = ctx.round() + 1;
      received_ += ctx.inbox().size();
      if (ctx.round() < 6) ctx.send_all(Message::make(1, 7));
    }
    bool done() const override { return true; }
    std::uint64_t wake_round(std::uint64_t r) const override { return r; }
    std::uint64_t rounds_run_ = 0;
    std::size_t received_ = 0;
  };
  FaultPlan plan;
  plan.crashes.push_back({2, 3});
  EngineConfig cfg;
  cfg.faults = plan;
  Engine e(g, cfg);
  e.init([](NodeId) { return std::make_unique<Beacon>(); });
  const RunStats s = e.run_rounds(8);
  EXPECT_EQ(s.nodes_crashed, 1u);
  // The crashed node executed exactly rounds 0..2.
  EXPECT_EQ(e.process_as<Beacon>(2).rounds_run_, 3u);
  // Node 1 heard node 2's rounds 0..2 sends (rounds 1..3) plus node 0's
  // rounds 0..5 sends.
  EXPECT_EQ(e.process_as<Beacon>(1).received_, 3u + 6u);
  // Node 2's inbound deliveries from round 3 on vanished: node 1 sent
  // rounds 0..5 towards it, and the deliveries due at rounds 3..6 (sent in
  // rounds 2..5) were absorbed by the crash.
  EXPECT_EQ(s.messages_dropped, 4u);
}

TEST(Faults, CrashAtRoundZeroNeverRuns) {
  const Graph g = gen::path(2);
  FaultPlan plan;
  plan.crashes.push_back({1, 0});
  Engine e = make_wire(g, plan);
  e.init([](NodeId v) { return std::make_unique<OneShot>(v); });
  const RunStats s = e.run();
  EXPECT_EQ(s.nodes_crashed, 1u);
  EXPECT_TRUE(e.process_as<OneShot>(1).received_.empty());
  EXPECT_EQ(s.messages_dropped, 1u);
}

// ---------------------------------------------------------------------------
// Determinism and the trivial-plan guarantee

TEST(Faults, FaultyRunsAreReproducible) {
  const Graph g = gen::random_connected(24, 20, 9);
  FaultPlan plan;
  plan.seed = 1234;
  plan.drop_prob = 0.2;
  plan.duplicate_prob = 0.1;
  plan.delay_prob = 0.1;
  plan.max_extra_delay = 4;
  auto run_once = [&] {
    EngineConfig cfg;
    cfg.faults = plan;
    Engine e(g, cfg);
    e.init([](NodeId v) { return std::make_unique<NaiveFlood>(v); });
    const RunStats s = e.run();
    return std::make_pair(s, flood_distances(e));
  };
  const auto [s1, d1] = run_once();
  const auto [s2, d2] = run_once();
  EXPECT_EQ(s1.rounds, s2.rounds);
  EXPECT_EQ(s1.messages, s2.messages);
  EXPECT_EQ(s1.total_bits, s2.total_bits);
  EXPECT_EQ(s1.messages_dropped, s2.messages_dropped);
  EXPECT_EQ(s1.messages_delayed, s2.messages_delayed);
  EXPECT_EQ(s1.messages_duplicated, s2.messages_duplicated);
  EXPECT_EQ(d1, d2);
}

TEST(Faults, TrivialPlanIsBitIdenticalToNoPlan) {
  const Graph g = gen::petersen();
  core::ApspOptions with, without;
  with.engine.faults = FaultPlan{};  // present but injects nothing
  ASSERT_TRUE(with.engine.faults->trivial());
  const auto a = core::run_pebble_apsp(g, with);
  const auto b = core::run_pebble_apsp(g, without);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.messages, b.stats.messages);
  EXPECT_EQ(a.stats.total_bits, b.stats.total_bits);
  EXPECT_EQ(a.stats.messages_dropped, 0u);
  EXPECT_TRUE(a.dist == b.dist);
}

TEST(Faults, PebbleApspDeterministicAcrossRuns) {
  const Graph g = gen::random_connected(16, 12, 5);
  const auto a = core::run_pebble_apsp(g);
  const auto b = core::run_pebble_apsp(g);
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.messages, b.stats.messages);
  EXPECT_EQ(a.stats.total_bits, b.stats.total_bits);
  EXPECT_TRUE(a.dist == b.dist);
}

// ---------------------------------------------------------------------------
// run_bounded outcomes

TEST(RunBounded, ReportsCompletion) {
  const Graph g = gen::path(2);
  Engine e(g);
  e.init([](NodeId v) { return std::make_unique<OneShot>(v); });
  const Outcome out = e.run_bounded();
  EXPECT_TRUE(out.ok());
  EXPECT_EQ(out.status, RunStatus::kCompleted);
  EXPECT_EQ(out.stats.messages, 1u);
  EXPECT_TRUE(out.message.empty());
}

TEST(RunBounded, ReportsRoundLimitWithPartialStats) {
  const Graph g = gen::path(2);
  class Chatter final : public Process {
   public:
    void on_round(RoundCtx& ctx) override { ctx.send_all(Message::make(1)); }
    bool done() const override { return false; }
  };
  EngineConfig cfg;
  cfg.max_rounds = 50;
  Engine e(g, cfg);
  e.init([](NodeId) { return std::make_unique<Chatter>(); });
  const Outcome out = e.run_bounded();
  EXPECT_FALSE(out.ok());
  EXPECT_EQ(out.status, RunStatus::kRoundLimit);
  EXPECT_EQ(out.stats.rounds, 50u);  // stats up to the stall
  EXPECT_EQ(out.stats.messages, 2u * 50u);
  EXPECT_NE(out.message.find("round limit"), std::string::npos);
  EXPECT_STREQ(to_string(out.status), "round-limit");
}

TEST(RunBounded, ReportsCongestion) {
  const Graph g = gen::path(2);
  class Blaster final : public Process {
   public:
    void on_round(RoundCtx& ctx) override {
      for (int i = 0; i < 20; ++i) ctx.send(0, Message::make(1, 2, 3, 4, 5));
    }
    bool done() const override { return false; }
  };
  Engine e(g);
  e.init([](NodeId) { return std::make_unique<Blaster>(); });
  const Outcome out = e.run_bounded();
  EXPECT_EQ(out.status, RunStatus::kCongestion);
  EXPECT_NE(out.message.find("bandwidth exceeded"), std::string::npos);
}

// ---------------------------------------------------------------------------
// The reliable layer: oracle-exact algorithms on lossy transports

FaultPlan lossy_plan(double drop, std::uint64_t seed) {
  FaultPlan plan;
  plan.seed = seed;
  plan.drop_prob = drop;
  plan.duplicate_prob = drop / 2;
  plan.delay_prob = drop / 2;
  plan.max_extra_delay = drop > 0 ? 3 : 0;
  return plan;
}

std::vector<Graph> test_families() {
  std::vector<Graph> out;
  out.push_back(gen::path(8));
  out.push_back(gen::grid(3, 4));
  out.push_back(gen::petersen());
  out.push_back(gen::random_connected(14, 10, 21));
  return out;
}

TEST(Reliable, WrappedFloodMatchesOracleUnderLoss) {
  for (const Graph& g : test_families()) {
    const auto oracle = seq::bfs(g, 0);
    for (double drop : {0.0, 0.1, 0.3}) {
      EngineConfig cfg;
      if (drop > 0) cfg.faults = lossy_plan(drop, 77);
      cfg.max_rounds = 500000;
      apply_reliable(cfg);
      Engine e(g, cfg);
      e.init([](NodeId v) { return std::make_unique<NaiveFlood>(v); });
      const Outcome out = e.run_bounded();
      ASSERT_TRUE(out.ok()) << g.summary() << " drop=" << drop << ": "
                            << out.message;
      EXPECT_EQ(flood_distances(e), oracle.dist)
          << g.summary() << " drop=" << drop;
    }
  }
}

TEST(Reliable, WrappedPebbleApspMatchesOracleUnderLoss) {
  for (const Graph& g : test_families()) {
    const DistanceMatrix oracle = seq::apsp(g);
    for (double drop : {0.1, 0.3}) {
      core::ApspOptions opt;
      opt.engine.faults = lossy_plan(drop, 4242);
      opt.engine.max_rounds = 500000;
      apply_reliable(opt.engine);
      const auto r = core::run_pebble_apsp(g, opt);
      EXPECT_TRUE(r.dist == oracle) << g.summary() << " drop=" << drop;
      EXPECT_GT(r.stats.messages_dropped, 0u);
    }
  }
}

TEST(Reliable, WrappedSspMatchesOracleUnderLoss) {
  for (const Graph& g : test_families()) {
    const NodeId n = g.num_nodes();
    const std::vector<NodeId> sources = {0, n / 2, n - 1};
    for (double drop : {0.1, 0.3}) {
      core::SspOptions opt;
      opt.engine.faults = lossy_plan(drop, 99);
      opt.engine.max_rounds = 500000;
      apply_reliable(opt.engine);
      const auto r = core::run_ssp(g, sources, opt);
      for (NodeId s : sources) {
        const auto oracle = seq::bfs(g, s);
        for (NodeId v = 0; v < n; ++v) {
          ASSERT_EQ(r.delta[v][s], oracle.dist[v])
              << g.summary() << " drop=" << drop << " source=" << s
              << " node=" << v;
        }
      }
    }
  }
}

TEST(Reliable, ZeroFaultWrappedRunStillExact) {
  // The synchronizer alone (no fault plan at all) must not distort results.
  const Graph g = gen::grid(3, 4);
  core::ApspOptions opt;
  apply_reliable(opt.engine);
  const auto r = core::run_pebble_apsp(g, opt);
  EXPECT_TRUE(r.dist == seq::apsp(g));
  EXPECT_EQ(r.stats.messages_dropped, 0u);
}

TEST(Reliable, WrappedFaultyRunIsReproducible) {
  const Graph g = gen::petersen();
  auto run_once = [&] {
    core::ApspOptions opt;
    opt.engine.faults = lossy_plan(0.2, 31337);
    opt.engine.max_rounds = 500000;
    apply_reliable(opt.engine);
    return core::run_pebble_apsp(g, opt);
  };
  const auto a = run_once();
  const auto b = run_once();
  EXPECT_EQ(a.stats.rounds, b.stats.rounds);
  EXPECT_EQ(a.stats.messages, b.stats.messages);
  EXPECT_EQ(a.stats.total_bits, b.stats.total_bits);
  EXPECT_EQ(a.stats.messages_dropped, b.stats.messages_dropped);
  EXPECT_EQ(a.stats.messages_delayed, b.stats.messages_delayed);
  EXPECT_EQ(a.stats.messages_duplicated, b.stats.messages_duplicated);
  EXPECT_TRUE(a.dist == b.dist);
}

TEST(Reliable, UnprotectedFloodFailsDetectablyUnderLoss) {
  // Negative control: the same flood *without* the adapter on the same lossy
  // wire must not silently pass — either it stalls, or its distances are
  // provably wrong against the oracle.
  const Graph g = gen::path(12);
  const auto oracle = seq::bfs(g, 0);
  FaultPlan plan;
  plan.seed = 5;
  plan.drop_prob = 0.4;
  EngineConfig cfg;
  cfg.faults = plan;
  cfg.max_rounds = 10000;
  Engine e(g, cfg);
  e.init([](NodeId v) { return std::make_unique<NaiveFlood>(v); });
  const Outcome out = e.run_bounded();
  const bool silently_ok = out.ok() && flood_distances(e) == oracle.dist;
  EXPECT_FALSE(silently_ok);
  EXPECT_GT(out.stats.messages_dropped, 0u);
}

TEST(Reliable, AdapterRejectsBadConfig) {
  ReliableConfig bad;
  bad.heartbeat_every = 0;
  EXPECT_THROW(ReliableAdapter(std::make_unique<NaiveFlood>(0), bad),
               std::invalid_argument);
}

// ---------------------------------------------------------------------------
// Failure detection

// Stays busy until the failure detector reports a dead neighbor; records the
// verdicts it receives.
class DownProbe final : public Process {
 public:
  void on_round(RoundCtx& ctx) override {
    if (ctx.round() == 0) ctx.send_all(Message::make(1, 1));
  }
  bool done() const override { return !downs.empty(); }
  void on_neighbor_down(std::uint32_t index, std::uint64_t vround) override {
    downs.push_back({index, vround});
  }
  std::vector<std::pair<std::uint32_t, std::uint64_t>> downs;
};

TEST(Detector, DelayOnlyPlansNeverSuspect) {
  // With the globally bounded reordering horizon, the default suspect_after
  // makes false suspicion impossible: delay-only runs complete exactly, with
  // zero NeighborDown verdicts.
  for (const Graph& g : test_families()) {
    FaultPlan plan;
    plan.seed = 11;
    plan.delay_prob = 0.3;
    plan.max_extra_delay = kMaxExtraDelay;
    EngineConfig cfg;
    cfg.faults = plan;
    cfg.max_rounds = 500000;
    apply_reliable(cfg);
    Engine e(g, cfg);
    e.init([](NodeId v) { return std::make_unique<NaiveFlood>(v); });
    const Outcome out = e.run_bounded();
    ASSERT_TRUE(out.ok()) << g.summary() << ": " << out.message;
    EXPECT_EQ(out.stats.neighbors_suspected, 0u) << g.summary();
    EXPECT_EQ(flood_distances(e), seq::bfs(g, 0).dist) << g.summary();
  }
}

TEST(Detector, DeclaresCrashedNeighborAndNotifiesInner) {
  const Graph g = gen::path(2);
  FaultPlan plan;
  plan.crashes.push_back({1, 5});
  EngineConfig cfg;
  cfg.faults = plan;
  cfg.max_rounds = 5000;
  apply_reliable(cfg);
  Engine e(g, cfg);
  e.init([](NodeId) { return std::make_unique<DownProbe>(); });
  const Outcome out = e.run_bounded();
  EXPECT_EQ(out.status, RunStatus::kDegraded);
  EXPECT_TRUE(out.terminated());
  EXPECT_EQ(out.stats.nodes_crashed, 1u);
  EXPECT_EQ(out.stats.neighbors_suspected, 1u);
  // The verdict reached the inner process, naming the right edge.
  const auto& probe = e.process_as<DownProbe>(0);
  ASSERT_EQ(probe.downs.size(), 1u);
  EXPECT_EQ(probe.downs[0].first, 0u);  // neighbor index of node 1 at node 0
  // Detection needs at least suspect_after rounds of silence, and the run
  // must then stop instead of spinning to the cap.
  EXPECT_GE(out.stats.rounds, std::uint64_t{kDefaultSuspectAfter});
  EXPECT_LT(out.stats.rounds, 5000u);
}

TEST(Detector, DisabledDetectorStallsToRoundLimit) {
  // suspect_after = 0 restores the pre-detector behavior: a crash-stop
  // neighbor stalls the synchronizer forever.
  const Graph g = gen::path(2);
  FaultPlan plan;
  plan.crashes.push_back({1, 5});
  EngineConfig cfg;
  cfg.faults = plan;
  cfg.max_rounds = 2000;
  ReliableConfig rc;
  rc.suspect_after = 0;
  apply_reliable(cfg, rc);
  Engine e(g, cfg);
  e.init([](NodeId) { return std::make_unique<DownProbe>(); });
  const Outcome out = e.run_bounded();
  EXPECT_EQ(out.status, RunStatus::kRoundLimit);
  EXPECT_TRUE(e.process_as<DownProbe>(0).downs.empty());
}

TEST(Detector, RejectsUnsafeTimeouts) {
  auto make = [](ReliableConfig rc) {
    return ReliableAdapter(std::make_unique<DownProbe>(), rc);
  };
  ReliableConfig no_beat;
  no_beat.heartbeat_every = 0;
  EXPECT_THROW(make(no_beat), std::invalid_argument);
  ReliableConfig tight;
  tight.heartbeat_every = 8;
  tight.suspect_after = 9;  // inside the heartbeat round trip
  EXPECT_THROW(make(tight), std::invalid_argument);
}

TEST(Detector, MinimumLegalTimeoutNeverFalselySuspectsDelayFree) {
  // Boundary pin for the no-false-positive guarantee (delay-free wires).
  // The detector declares an edge dead once now - last_heard >= suspect_after
  // (reliable.cc), and a live neighbor's worst silence gap is
  // heartbeat_every + 2: a beat leaves at t, is answered on arrival, and the
  // answer lands at t + 2. The validation floor suspect_after =
  // heartbeat_every + 3 is therefore exactly safe — one less is rejected by
  // the constructor (Detector.RejectsUnsafeTimeouts).
  for (const Graph& g : test_families()) {
    EngineConfig cfg;
    cfg.max_rounds = 500000;
    ReliableConfig rc;
    rc.heartbeat_every = 4;
    rc.suspect_after = rc.heartbeat_every + 3;  // minimum the validation admits
    apply_reliable(cfg, rc);
    Engine e(g, cfg);
    e.init([](NodeId v) { return std::make_unique<NaiveFlood>(v); });
    const Outcome out = e.run_bounded();
    ASSERT_TRUE(out.ok()) << g.summary() << ": " << out.message;
    EXPECT_EQ(out.stats.neighbors_suspected, 0u) << g.summary();
    EXPECT_EQ(flood_distances(e), seq::bfs(g, 0).dist) << g.summary();
  }
}

TEST(Detector, MinimumSafeTimeoutUnderMaxDelayNeverFalselySuspects) {
  // Same boundary under the worst configured delays: with every message
  // delayed (delay_prob = 1, up to d extra rounds) the documented silence
  // bound grows to heartbeat_every + 2 + 2*d (beat and answer each delayed
  // d). suspect_after exactly one above that bound must never produce a
  // false NeighborDown, and the wrapped protocol must stay oracle-exact.
  for (const Graph& g : test_families()) {
    FaultPlan plan;
    plan.seed = 7;
    plan.delay_prob = 1.0;
    plan.max_extra_delay = 3;
    EngineConfig cfg;
    cfg.faults = plan;
    cfg.max_rounds = 500000;
    ReliableConfig rc;
    rc.heartbeat_every = 4;
    rc.suspect_after = rc.heartbeat_every + 3 + 2 * plan.max_extra_delay;
    apply_reliable(cfg, rc);
    Engine e(g, cfg);
    e.init([](NodeId v) { return std::make_unique<NaiveFlood>(v); });
    const Outcome out = e.run_bounded();
    ASSERT_TRUE(out.ok()) << g.summary() << ": " << out.message;
    EXPECT_EQ(out.stats.neighbors_suspected, 0u) << g.summary();
    EXPECT_EQ(flood_distances(e), seq::bfs(g, 0).dist) << g.summary();
  }
}

// ---------------------------------------------------------------------------
// Crash survival: degraded-mode termination with certified outputs

Graph surviving_subgraph(const Graph& g,
                         const std::vector<std::uint8_t>& survived) {
  std::vector<Edge> edges;
  for (const Edge& e : g.edges()) {
    if (survived[e.u] != 0 && survived[e.v] != 0) edges.push_back(e);
  }
  return Graph(g.num_nodes(), edges);
}

// Asserts the acceptance property on a degraded harvest: the distributed
// certificate's verdict for each row equals exactness of the surviving
// entries against a sequential BFS oracle on the surviving subgraph.
void check_certificate_matches_oracle(
    const Graph& g, const std::vector<std::uint8_t>& survived,
    const std::vector<NodeId>& sources, const core::DistEntryFn& entry) {
  const Graph sub = surviving_subgraph(g, survived);
  const auto report = core::certify_rows(g, survived, sources, entry);
  for (std::size_t k = 0; k < sources.size(); ++k) {
    const NodeId s = sources[k];
    const auto oracle = seq::bfs(sub, s);
    bool exact = true;
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      if (survived[v] == 0) continue;
      // A dead source is outside the surviving subgraph: the only certified
      // statement about it is "unreachable".
      const std::uint32_t want =
          (survived[s] == 0 && v != s) ? kInfDist : oracle.dist[v];
      if (entry(v, s) != want) {
        exact = false;
        break;
      }
    }
    EXPECT_EQ(report.certified[k] != 0, exact)
        << g.summary() << " row " << s << ": certificate and oracle disagree";
  }
}

TEST(CrashSurvival, WrappedPebbleApspTerminatesDegraded) {
  for (const Graph& g : test_families()) {
    const NodeId n = g.num_nodes();

    // Calibrate the crash round off the fault-free wrapped run.
    core::ApspOptions base;
    base.engine.max_rounds = 500000;
    apply_reliable(base.engine);
    const auto clean = core::run_pebble_apsp(g, base);
    ASSERT_EQ(clean.status, RunStatus::kCompleted) << g.summary();
    ASSERT_TRUE(clean.aggregates_valid);
    const std::uint64_t mid = clean.stats.rounds / 2;

    const std::vector<std::vector<NodeCrash>> scenarios = {
        {{0, mid}},      // the leader (pebble owner / aggregation root)
        {{n / 2, mid}},  // an interior node
        {{n - 1, mid}, {n / 2, mid + 3}, {1, mid + 7}},  // three crashes
    };
    for (const auto& crashes : scenarios) {
      core::ApspOptions opt;
      opt.engine.max_rounds = 500000;
      opt.engine.faults = FaultPlan{};
      opt.engine.faults->crashes = crashes;
      apply_reliable(opt.engine);
      const auto r = core::run_pebble_apsp(g, opt);

      // Survivors terminate before the round cap, degraded, with honest
      // accounting — never a silent stall.
      EXPECT_EQ(r.status, RunStatus::kDegraded) << g.summary();
      EXPECT_GT(r.stats.nodes_crashed, 0u);
      EXPECT_GT(r.stats.neighbors_suspected, 0u) << g.summary();
      EXPECT_FALSE(r.aggregates_valid);
      EXPECT_FALSE(r.degraded_nodes.empty()) << g.summary();
      for (const NodeCrash& c : crashes) EXPECT_EQ(r.survived[c.v], 0u);

      // Coverage accounting is a faithful recount of the harvested table.
      std::vector<NodeId> sources(n);
      for (NodeId s = 0; s < n; ++s) sources[s] = s;
      const auto recount = core::classify_coverage(
          r.survived, sources,
          [&](NodeId v, NodeId s) { return r.dist.at(v, s); });
      EXPECT_EQ(recount, r.coverage) << g.summary();

      // The certificate agrees with the sequential oracle row by row.
      check_certificate_matches_oracle(
          g, r.survived, sources,
          [&](NodeId v, NodeId s) { return r.dist.at(v, s); });
    }
  }
}

TEST(CrashSurvival, WrappedSspSurvivesCrashedSource) {
  for (const Graph& g : test_families()) {
    const NodeId n = g.num_nodes();
    const std::vector<NodeId> sources = {0, n / 2, n - 1};

    core::SspOptions base;
    base.engine.max_rounds = 500000;
    apply_reliable(base.engine);
    const auto clean = core::run_ssp(g, sources, base);
    ASSERT_EQ(clean.status, RunStatus::kCompleted) << g.summary();
    const std::uint64_t mid = clean.stats.rounds / 2;

    // Crash one of the BFS sources mid-run.
    core::SspOptions opt;
    opt.engine.max_rounds = 500000;
    opt.engine.faults = FaultPlan{};
    opt.engine.faults->crashes.push_back({n / 2, mid});
    apply_reliable(opt.engine);
    const auto r = core::run_ssp(g, sources, opt);

    EXPECT_EQ(r.status, RunStatus::kDegraded) << g.summary();
    EXPECT_EQ(r.survived[n / 2], 0u);
    ASSERT_EQ(r.coverage.size(), r.sources.size());

    const auto recount = core::classify_coverage(
        r.survived, r.sources,
        [&](NodeId v, NodeId s) { return r.delta[v][s]; });
    EXPECT_EQ(recount, r.coverage) << g.summary();

    check_certificate_matches_oracle(
        g, r.survived, r.sources,
        [&](NodeId v, NodeId s) { return r.delta[v][s]; });
  }
}

TEST(CrashSurvival, DelayOnlyWrappedPebbleStaysExact) {
  // The other half of the acceptance criterion: a plan that only delays
  // (no loss, no crashes) must complete oracle-exact with zero verdicts.
  const Graph g = gen::grid(3, 4);
  core::ApspOptions opt;
  FaultPlan plan;
  plan.seed = 3;
  plan.delay_prob = 0.4;
  plan.max_extra_delay = 16;
  opt.engine.faults = plan;
  opt.engine.max_rounds = 500000;
  apply_reliable(opt.engine);
  const auto r = core::run_pebble_apsp(g, opt);
  EXPECT_EQ(r.status, RunStatus::kCompleted);
  EXPECT_EQ(r.stats.neighbors_suspected, 0u);
  EXPECT_TRUE(r.degraded_nodes.empty());
  EXPECT_TRUE(r.dist == seq::apsp(g));
  for (const core::RowCoverage c : r.coverage) {
    EXPECT_EQ(c, core::RowCoverage::kComplete);
  }
}

// One line per degraded run: status, cost, verdicts, the survivors that
// degraded, per-source coverage (C/P/L) and an FNV-1a digest of the
// distance and next-hop/parent tables.
std::string degraded_line(const std::string& label, RunStatus status,
                          const RunStats& st,
                          const std::vector<NodeId>& degraded_nodes,
                          const std::vector<core::RowCoverage>& coverage,
                          std::span<const std::uint32_t> dist,
                          std::span<const std::uint32_t> hop) {
  std::ostringstream os;
  os << label << ": " << to_string(status) << " rounds=" << st.rounds
     << " messages=" << st.messages << " bits=" << st.total_bits
     << " suspected=" << st.neighbors_suspected << " degraded=[";
  for (std::size_t i = 0; i < degraded_nodes.size(); ++i) {
    os << (i ? "," : "") << degraded_nodes[i];
  }
  os << "] coverage=";
  for (const core::RowCoverage c : coverage) {
    os << (c == core::RowCoverage::kComplete  ? 'C'
           : c == core::RowCoverage::kPartial ? 'P'
                                              : 'L');
  }
  std::uint64_t h = kFnv1a64Basis;
  for (const std::uint32_t x : dist) h = fnv1a64_u64(h, x);
  for (const std::uint32_t x : hop) h = fnv1a64_u64(h, x);
  os << " tables=" << std::hex << h;
  return std::move(os).str();
}

TEST(CrashSurvival, DegradedRunsMatchGolden) {
  // Pins the degraded path of both paper algorithms under the detector —
  // the CrashSurvival scenarios above plus a crashed S-SP source — to
  // recorded values, at 1 and 4 engine threads.
  const std::vector<std::string> golden = {
      "Graph(n=8, m=7) pebble #0: degraded rounds=260 messages=1717 bits=40416 "
          "suspected=1 degraded=[1,2,3,4,5,6,7] coverage=CCCCCCCC "
          "tables=c04bf8bc5b9f4abb",
      "Graph(n=8, m=7) pebble #1: degraded rounds=254 messages=1660 bits=38752 "
          "suspected=2 degraded=[0,1,2,3,5,6,7] coverage=CCCCCCCC "
          "tables=eb3319781eb87205",
      "Graph(n=8, m=7) pebble #2: degraded rounds=258 messages=1567 bits=38200 "
          "suspected=5 degraded=[0,2,3,5,6] coverage=CCCCCCCC "
          "tables=eb3319781eb87205",
      "Graph(n=8, m=7) ssp: degraded rounds=228 messages=1372 bits=31176 "
          "suspected=2 degraded=[0,1,2,3,5,6,7] coverage=CCC "
          "tables=42505488560c7d7c",
      "Graph(n=12, m=17) pebble #0: degraded rounds=252 messages=4092 "
          "bits=95560 suspected=2 degraded=[1,2,3,4,5,6,7,8,9,10,11] "
          "coverage=CCCCLCCCLCCC tables=ccd8c5360af6f1b0",
      "Graph(n=12, m=17) pebble #1: degraded rounds=249 messages=3915 "
          "bits=93280 suspected=4 degraded=[0,1,2,3,4,5,7,8,9,10,11] "
          "coverage=CCCCLCCCLCCC tables=78cd322e626f6480",
      "Graph(n=12, m=17) pebble #2: degraded rounds=271 messages=3832 "
          "bits=92416 suspected=9 degraded=[0,2,3,4,5,7,8,9,10] "
          "coverage=CCCCPCCCLCCC tables=93b1b3777271c82",
      "Graph(n=12, m=17) ssp: degraded rounds=214 messages=2915 bits=65504 "
          "suspected=4 degraded=[0,1,2,3,4,5,7,8,9,10,11] coverage=CCC "
          "tables=8563170f19602438",
      "Graph(n=10, m=15) pebble #0: degraded rounds=216 messages=2760 "
          "bits=64976 suspected=3 degraded=[1,2,3,4,5,6,7,8,9] "
          "coverage=CCCCCLCLLC tables=4f5fe822de065a29",
      "Graph(n=10, m=15) pebble #1: degraded rounds=216 messages=2673 "
          "bits=63608 suspected=3 degraded=[0,1,2,3,4,6,7,8,9] "
          "coverage=CCCCCLCLLC tables=4da95bf4b00d222",
      "Graph(n=10, m=15) pebble #2: degraded rounds=223 messages=2407 "
          "bits=56592 suspected=9 degraded=[0,2,3,4,6,7,8] coverage=CCCCCLCLLC "
          "tables=3174b2d63d0c10a8",
      "Graph(n=10, m=15) ssp: degraded rounds=186 messages=2048 bits=44248 "
          "suspected=3 degraded=[0,1,2,3,4,6,7,8,9] coverage=CCC "
          "tables=20ecdce6183d09",
      "Graph(n=14, m=23) pebble #0: degraded rounds=249 messages=5268 "
          "bits=120968 suspected=2 degraded=[1,2,3,4,5,6,7,8,9,10,11,12,13] "
          "coverage=CCCLCCCCLLCCCL tables=86122483aa7ef1d3",
      "Graph(n=14, m=23) pebble #1: degraded rounds=243 messages=5221 "
          "bits=119200 suspected=2 degraded=[0,1,2,3,4,5,6,8,9,10,11,12,13] "
          "coverage=CCCLCCCLLLCCCL tables=e092059ee2316cac",
      "Graph(n=14, m=23) pebble #2: degraded rounds=255 messages=4925 "
          "bits=114976 suspected=7 degraded=[0,2,3,4,5,6,8,9,10,11,12] "
          "coverage=CCCLCCCCLLCCCL tables=6242df9e3b18de0f",
      "Graph(n=14, m=23) ssp: degraded rounds=197 messages=3601 bits=78832 "
          "suspected=2 degraded=[0,1,2,3,4,5,6,8,9,10,11,12,13] coverage=CCC "
          "tables=b9380de29dd62587",
  };
  for (const std::uint32_t threads : {1u, 4u}) {
    std::vector<std::string> lines;
    for (const Graph& g : test_families()) {
      const NodeId n = g.num_nodes();
      const std::string name = g.summary();

      core::ApspOptions base;
      base.engine.max_rounds = 500000;
      base.engine.threads = threads;
      apply_reliable(base.engine);
      const std::uint64_t mid = core::run_pebble_apsp(g, base).stats.rounds / 2;
      const std::vector<std::vector<NodeCrash>> scenarios = {
          {{0, mid}},
          {{n / 2, mid}},
          {{n - 1, mid}, {n / 2, mid + 3}, {1, mid + 7}},
      };
      for (std::size_t k = 0; k < scenarios.size(); ++k) {
        core::ApspOptions opt = base;
        opt.engine.faults = FaultPlan{};
        opt.engine.faults->crashes = scenarios[k];
        const auto r = core::run_pebble_apsp(g, opt);
        lines.push_back(degraded_line(
            name + " pebble #" + std::to_string(k), r.status, r.stats,
            r.degraded_nodes, r.coverage, r.dist.data(), r.next_hop.data()));
      }

      const std::vector<NodeId> sources = {0, n / 2, n - 1};
      core::SspOptions sbase;
      sbase.engine.max_rounds = 500000;
      sbase.engine.threads = threads;
      apply_reliable(sbase.engine);
      const std::uint64_t smid =
          core::run_ssp(g, sources, sbase).stats.rounds / 2;
      core::SspOptions sopt = sbase;
      sopt.engine.faults = FaultPlan{};
      sopt.engine.faults->crashes.push_back({n / 2, smid});
      const auto s = core::run_ssp(g, sources, sopt);
      lines.push_back(degraded_line(name + " ssp", s.status, s.stats,
                                    s.degraded_nodes, s.coverage,
                                    s.delta.data(), s.parent_index.data()));
    }
    EXPECT_EQ(lines, golden) << "threads=" << threads;
  }
}

// ---------------------------------------------------------------------------
// Duplicate schedule entries (regression): the injector must honor the
// EARLIEST round for a node or link listed twice — a crash/failure cannot be
// postponed by a later duplicate entry, in either listing order.

TEST(FaultPlan, DuplicateCrashEntriesKeepEarliestRound) {
  const Graph g = gen::path(3);
  const std::vector<std::vector<NodeCrash>> orders = {
      {{2, 1}, {2, 5}},  // early entry first
      {{2, 5}, {2, 1}},  // early entry last
  };
  for (const auto& crashes : orders) {
    FaultPlan plan;
    plan.crashes = crashes;
    const FaultInjector inj(g, plan);
    EXPECT_EQ(inj.crash_round(2), 1u);
    EXPECT_FALSE(inj.crashed(2, 0));
    EXPECT_TRUE(inj.crashed(2, 1));
  }
}

TEST(FaultPlan, DuplicateLinkFailuresKeepEarliestRound) {
  const Graph g = gen::path(2);  // directed edges: 0 = 0->1, 1 = 1->0
  const std::vector<std::vector<LinkFailure>> orders = {
      {{0, 1, 2}, {1, 0, 7}},  // same undirected link, later duplicate
      {{0, 1, 7}, {1, 0, 2}},  // reversed order and orientation
  };
  for (const auto& failures : orders) {
    FaultPlan plan;
    plan.link_failures = failures;
    const FaultInjector inj(g, plan);
    for (std::size_t e : {std::size_t{0}, std::size_t{1}}) {
      EXPECT_FALSE(inj.link_down(e, 1));
      EXPECT_TRUE(inj.link_down(e, 2));
    }
  }
}

// ---------------------------------------------------------------------------
// Payload corruption and transient stalls

TEST(FaultPlan, RejectsBadCorruptionAndStalls) {
  const Graph g = gen::path(3);
  {
    FaultPlan plan;
    plan.corrupt_prob = 1.5;
    EXPECT_THROW(FaultInjector(g, plan), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.edge_corrupt_overrides.push_back({0, 2, 0.5});  // not an edge
    EXPECT_THROW(FaultInjector(g, plan), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.stalls.push_back({7, 0, 1});  // no node 7
    EXPECT_THROW(FaultInjector(g, plan), std::invalid_argument);
  }
  {
    FaultPlan plan;
    plan.stalls.push_back({1, 3, 0});  // empty window
    EXPECT_THROW(FaultInjector(g, plan), std::invalid_argument);
  }
}

TEST(Faults, CertainCorruptionFlipsExactlyOneWireBit) {
  const Graph g = gen::path(2);
  FaultPlan plan;
  plan.corrupt_prob = 1.0;
  Engine e = make_wire(g, plan);
  e.init([](NodeId v) { return std::make_unique<OneShot>(v); });
  const RunStats s = e.run();
  EXPECT_EQ(s.messages_corrupted, 1u);
  const auto& p1 = e.process_as<OneShot>(1);
  ASSERT_EQ(p1.received_.size(), 1u);
  const Message got = p1.received_[0];
  const Message sent = Message::make(1, 42);
  EXPECT_EQ(got.num_fields, sent.num_fields);  // the width never changes
  int flipped = std::popcount(
      static_cast<std::uint32_t>(got.kind ^ sent.kind));
  for (int i = 0; i < sent.num_fields; ++i) {
    flipped += std::popcount(got.f[static_cast<std::size_t>(i)] ^
                             sent.f[static_cast<std::size_t>(i)]);
  }
  EXPECT_EQ(flipped, 1);
}

TEST(Faults, ZeroProbCorruptionLeavesFaultStreamsIdentical) {
  // Compatibility guarantee behind the corruption extension: a plan that
  // CANNOT corrupt (corrupt_prob = 0, even with explicit zero overrides)
  // draws bit-identical fates to the same plan before the field existed,
  // because zero-probability draws consume no RNG state.
  const Graph g = gen::random_connected(24, 20, 9);
  FaultPlan base;
  base.seed = 1234;
  base.drop_prob = 0.2;
  base.duplicate_prob = 0.1;
  base.delay_prob = 0.1;
  base.max_extra_delay = 4;
  FaultPlan with_zero = base;
  with_zero.corrupt_prob = 0.0;
  with_zero.edge_corrupt_overrides.push_back({g.edges()[0].u,
                                              g.edges()[0].v, 0.0});
  auto run_once = [&](const FaultPlan& plan) {
    EngineConfig cfg;
    cfg.faults = plan;
    Engine e(g, cfg);
    e.init([](NodeId v) { return std::make_unique<NaiveFlood>(v); });
    const RunStats s = e.run();
    return std::make_pair(s, flood_distances(e));
  };
  const auto [s1, d1] = run_once(base);
  const auto [s2, d2] = run_once(with_zero);
  EXPECT_EQ(s1.rounds, s2.rounds);
  EXPECT_EQ(s1.messages, s2.messages);
  EXPECT_EQ(s1.messages_dropped, s2.messages_dropped);
  EXPECT_EQ(s1.messages_delayed, s2.messages_delayed);
  EXPECT_EQ(s1.messages_duplicated, s2.messages_duplicated);
  EXPECT_EQ(s2.messages_corrupted, 0u);
  EXPECT_EQ(d1, d2);
}

TEST(Faults, CorruptionIsReproducible) {
  const Graph g = gen::random_connected(24, 20, 9);
  FaultPlan plan;
  plan.seed = 77;
  plan.drop_prob = 0.1;
  plan.corrupt_prob = 0.4;
  auto run_once = [&] {
    EngineConfig cfg;
    cfg.faults = plan;
    Engine e(g, cfg);
    e.init([](NodeId v) { return std::make_unique<NaiveFlood>(v); });
    const RunStats s = e.run();
    return std::make_pair(s, flood_distances(e));
  };
  const auto [s1, d1] = run_once();
  const auto [s2, d2] = run_once();
  EXPECT_GT(s1.messages_corrupted, 0u);
  EXPECT_EQ(s1.messages_corrupted, s2.messages_corrupted);
  EXPECT_EQ(s1.messages_dropped, s2.messages_dropped);
  EXPECT_EQ(d1, d2);
}

TEST(Faults, StallSilencesNodeTransiently) {
  const Graph g = gen::path(3);
  class Beacon final : public Process {
   public:
    void on_round(RoundCtx& ctx) override {
      rounds_run_ += 1;
      received_ += ctx.inbox().size();
      if (ctx.round() < 6) ctx.send_all(Message::make(1, 7));
    }
    bool done() const override { return true; }
    std::uint64_t wake_round(std::uint64_t r) const override { return r; }
    std::uint64_t rounds_run_ = 0;
    std::size_t received_ = 0;
  };
  FaultPlan plan;
  plan.stalls.push_back({2, 2, 2});  // rounds 2 and 3
  EngineConfig cfg;
  cfg.faults = plan;
  Engine e(g, cfg);
  e.init([](NodeId) { return std::make_unique<Beacon>(); });
  const RunStats s = e.run_rounds(8);
  EXPECT_EQ(s.node_stall_rounds, 2u);
  EXPECT_EQ(s.nodes_crashed, 0u);
  // The stalled node skipped exactly rounds 2 and 3 and then resumed.
  EXPECT_EQ(e.process_as<Beacon>(2).rounds_run_, 6u);
  // Its inbox for the stalled rounds (node 1's round-1 and round-2 sends)
  // was discarded as drops; deliveries before and after were read normally.
  EXPECT_EQ(s.messages_dropped, 2u);
  EXPECT_EQ(e.process_as<Beacon>(2).received_, 4u);
  // The neighbor missed the stalled node's rounds 2-3 sends but nothing else
  // (node 2 beacons in rounds 0, 1, 4, 5), plus node 0's six sends.
  EXPECT_EQ(e.process_as<Beacon>(1).received_, 4u + 6u);
}

TEST(Faults, OverlappingStallsUnion) {
  const Graph g = gen::path(2);
  FaultPlan plan;
  plan.stalls.push_back({1, 2, 2});  // [2, 4)
  plan.stalls.push_back({1, 3, 3});  // [3, 6)
  const FaultInjector inj(g, plan);
  EXPECT_FALSE(inj.stalled(1, 1));
  for (std::uint64_t r = 2; r < 6; ++r) EXPECT_TRUE(inj.stalled(1, r)) << r;
  EXPECT_FALSE(inj.stalled(1, 6));
  EXPECT_FALSE(inj.stalled(0, 3));
}

TEST(Reliable, WrappedPebbleApspExactUnderCorruption) {
  // The headline integrity guarantee: with every frame checksummed, payload
  // corruption (on top of loss) is detected, discarded and recovered by the
  // ARQ, so wrapped runs remain oracle-exact.
  for (const Graph& g : test_families()) {
    const DistanceMatrix oracle = seq::apsp(g);
    core::ApspOptions opt;
    opt.engine.faults = lossy_plan(0.1, 2024);
    opt.engine.faults->corrupt_prob = 0.3;
    opt.engine.max_rounds = 500000;
    apply_reliable(opt.engine);
    const auto r = core::run_pebble_apsp(g, opt);
    EXPECT_TRUE(r.dist == oracle) << g.summary();
    EXPECT_GT(r.stats.messages_corrupted, 0u) << g.summary();
  }
}

TEST(Reliable, CorruptFramesAreCountedAndDiscarded) {
  const Graph g = gen::grid(3, 4);
  FaultPlan plan;
  plan.seed = 9;
  plan.corrupt_prob = 0.25;
  EngineConfig cfg;
  cfg.faults = plan;
  cfg.max_rounds = 500000;
  apply_reliable(cfg);
  Engine e(g, cfg);
  e.init([](NodeId v) { return std::make_unique<NaiveFlood>(v); });
  const Outcome out = e.run_bounded();
  ASSERT_TRUE(out.ok()) << out.message;
  EXPECT_EQ(flood_distances(e), seq::bfs(g, 0).dist);
  // Every corrupted frame the engine injected was caught by some adapter's
  // checksum — none reached an inner process.
  std::uint64_t caught = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    caught += dynamic_cast<ReliableAdapter&>(e.process(v))
                  .stats().corrupt_frames_dropped;
  }
  EXPECT_GT(out.stats.messages_corrupted, 0u);
  EXPECT_EQ(caught, out.stats.messages_corrupted);
  // No corruption-induced false crash verdicts: corrupt arrivals still count
  // as liveness evidence.
  EXPECT_EQ(out.stats.neighbors_suspected, 0u);
}

TEST(FaultPlan, StallWindowsTruncateAtTheCrashRound) {
  const Graph g = gen::path(3);
  FaultPlan plan;
  plan.crashes = {{1, 5}};
  plan.stalls = {{1, 3, 10}};  // [3, 13) overlaps the crash at round 5
  const FaultInjector inj(g, plan);
  EXPECT_TRUE(inj.stalled(1, 3));
  EXPECT_TRUE(inj.stalled(1, 4));
  // Canonicalized: from the crash round on the node is dead, not stalled.
  EXPECT_FALSE(inj.stalled(1, 5));
  EXPECT_FALSE(inj.stalled(1, 12));
  EXPECT_TRUE(inj.crashed(1, 5));
}

TEST(FaultPlan, StallWindowsStartingAtOrAfterTheCrashAreDropped) {
  const Graph g = gen::path(3);
  for (const std::uint64_t start : {std::uint64_t{5}, std::uint64_t{9}}) {
    FaultPlan plan;
    plan.crashes = {{1, 5}};
    plan.stalls = {{1, start, 4}};
    const FaultInjector inj(g, plan);
    for (std::uint64_t r = start; r < start + 4; ++r) {
      EXPECT_FALSE(inj.stalled(1, r)) << "start " << start << " round " << r;
    }
  }
  // Duplicate crash entries resolve earliest-wins *before* the truncation,
  // regardless of order.
  FaultPlan plan;
  plan.crashes = {{1, 9}, {1, 4}};
  plan.stalls = {{1, 2, 10}};
  const FaultInjector inj(g, plan);
  EXPECT_TRUE(inj.stalled(1, 3));
  EXPECT_FALSE(inj.stalled(1, 4));
}

TEST(Reliable, HarvestSeesThroughWrapper) {
  const Graph g = gen::path(4);
  EngineConfig cfg;
  apply_reliable(cfg);
  Engine e(g, cfg);
  e.init([](NodeId v) { return std::make_unique<NaiveFlood>(v); });
  e.run();
  // process() returns the adapter; process_as<> resolves the inner process.
  EXPECT_NE(dynamic_cast<ReliableAdapter*>(&e.process(3)), nullptr);
  EXPECT_EQ(e.process_as<NaiveFlood>(3).dist(), 3u);
  auto& adapter = dynamic_cast<ReliableAdapter&>(e.process(3));
  EXPECT_GT(adapter.stats().virtual_rounds, 0u);
  EXPECT_GT(adapter.stats().frames_sent, 0u);
}

}  // namespace
}  // namespace dapsp::congest
