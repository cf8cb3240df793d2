// Differential verification of the flat-memory engine (DESIGN.md §16).
//
// The production engine rebuilt its hot path around flat memory: per-shard
// bump arenas, a CSR mirror-edge table, and double-buffered flat inbox
// frames. None of that may change a single observable bit. This suite runs
// the production engine — at 1, 2 and 8 threads — differentially against
// tests/testing/reference_engine.h, a deliberately naive per-node
// vector-of-vectors model that shares no machinery with the flat layout,
// over 200+ seeded (graph, fault plan, protocol) configurations:
//
//   * statuses, error strings, every RunStats counter, and the harvested
//     per-node protocol state must match the reference exactly;
//   * the kSend events of the trace (round-major, sender-major, send order)
//     must be byte-identical to the reference's serial send stream;
//   * congestion / field-width / round-limit error paths must surface the
//     same error text from the same node;
//   * the reliable-delivery wrapper must behave identically on both;
//   * nodes asleep on far timers (Process::wake_round) — crashed, stalled or
//     woken early by (delayed) messages while asleep — must behave as if
//     stepped every round: the reference engine steps them, and throws if a
//     step the production engine skips would have sent or changed the hint.
//
// Under AddressSanitizer this suite doubles as the arena-reuse check: every
// round resets the per-shard arenas, poisoning their tails (util/arena.h),
// so a stale span read from a previous round faults the run instead of
// silently passing a stale byte into the comparison.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "congest/engine.h"
#include "congest/faults.h"
#include "congest/reliable.h"
#include "congest/trace.h"
#include "graph/generators.h"
#include "testing/reference_engine.h"
#include "util/rng.h"

namespace dapsp::congest {
namespace {

const std::uint32_t kThreadCounts[] = {1, 2, 8};

// A BFS flood from node 0 that re-floods whenever a better distance
// arrives: on faulty transports its behaviour depends on exactly which
// copies arrive in exactly which order, so any divergence in delivery
// content or order shows up in the harvested distances.
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

  std::string harvest() const { return std::to_string(dist_); }

 private:
  std::uint32_t dist_;
  bool ran_ = false;
};

// Multi-message traffic: for eight rounds every node sends two messages per
// edge per round (a 2-field payload plus a control ping) — filling most of
// the default bandwidth budget — and folds everything it hears into a
// digest. Exercises multiple sends per (edge, round), multiple fields, and
// inbox order sensitivity (the digest mixes position).
class Gossip final : public Process {
 public:
  explicit Gossip(NodeId id) : id_(id) {}

  void on_round(RoundCtx& ctx) override {
    std::uint32_t pos = 1;
    for (const Received& r : ctx.inbox()) {
      digest_ = digest_ * 31 + r.from_index + pos * r.msg.kind;
      digest_ += r.msg.f[0] ^ (r.msg.f[1] << 1);
      ++pos;
    }
    if (ctx.round() < 8) {
      const std::uint32_t d = ctx.degree();
      for (std::uint32_t i = 0; i < d; ++i) {
        ctx.send(i, Message::make(7, id_ % 200,
                                  static_cast<std::uint32_t>(ctx.round())));
        ctx.send(i, Message::make(3));
      }
    } else {
      done_ = true;
    }
  }
  bool done() const override { return done_; }

  std::string harvest() const { return std::to_string(digest_); }

 private:
  NodeId id_;
  std::uint32_t digest_ = 0;
  bool done_ = false;
};

// Far timers: each node sleeps until its next fire round, then sends one
// beacon to every neighbor — three times, at gaps that depend on its id and
// the round. A message that arrives while it sleeps may pull its next fire
// earlier, so the awake set mixes receivers, due timers and stale heap
// entries; the digest folds in arrival order.
class Sleeper final : public Process {
 public:
  explicit Sleeper(NodeId id) : id_(id), next_fire_(first_fire(id)) {}

  static std::uint64_t first_fire(NodeId id) { return 3 + (id * 7) % 23; }

  void on_round(RoundCtx& ctx) override {
    const std::uint64_t now = ctx.round();
    for (const Received& r : ctx.inbox()) {
      digest_ = digest_ * 31 + r.from_index + r.msg.f[0] + 7 * r.msg.f[1];
    }
    if (fires_left_ == 0) return;
    if (!ctx.inbox().empty()) {
      next_fire_ = std::min<std::uint64_t>(next_fire_, now + 2 + digest_ % 5);
    }
    if (now < next_fire_) return;
    ctx.send_all(Message::make(5, id_ % 200,
                               static_cast<std::uint32_t>(now % 200)));
    --fires_left_;
    next_fire_ = now + 5 + (id_ + now) % 17;
  }
  bool done() const override { return fires_left_ == 0; }
  std::uint64_t wake_round(std::uint64_t r) const override {
    return done() ? kNever : std::max(r, next_fire_);
  }

  std::string harvest() const {
    return std::to_string(digest_) + "/" + std::to_string(fires_left_) + "/" +
           std::to_string(next_fire_);
  }

 private:
  NodeId id_;
  std::uint64_t next_fire_;
  std::uint32_t fires_left_ = 3;
  std::uint32_t digest_ = 0;
};

// Everything one run can be compared by.
struct Digest {
  std::string status;
  std::string stats;
  std::vector<std::string> harvest;
  std::string sends;  // the trace's kSend events

  bool operator==(const Digest&) const = default;
};

enum class Protocol { kFlood, kGossip, kSleeper };

std::unique_ptr<Process> make_process(Protocol p, NodeId v) {
  if (p == Protocol::kFlood) return std::make_unique<Flood>(v);
  if (p == Protocol::kSleeper) return std::make_unique<Sleeper>(v);
  return std::make_unique<Gossip>(v);
}

std::string harvest_process(Protocol p, Process& proc) {
  if (p == Protocol::kFlood) {
    return dynamic_cast<const Flood&>(proc.underlying()).harvest();
  }
  if (p == Protocol::kSleeper) {
    return dynamic_cast<const Sleeper&>(proc.underlying()).harvest();
  }
  return dynamic_cast<const Gossip&>(proc.underlying()).harvest();
}

// The kSend events of a trace, one "round:from>to.kind;" record each.
std::string send_stream(const TraceLog& trace) {
  std::string out;
  for (const TraceEvent& ev : trace.events()) {
    if (ev.kind != TraceEventKind::kSend) continue;
    out += std::to_string(ev.round) + ":" + std::to_string(ev.node) + ">" +
           std::to_string(ev.peer) + "." + std::to_string(ev.msg.kind) + ";";
  }
  return out;
}

Digest run_reference(const Graph& g, const EngineConfig& cfg, Protocol p) {
  Digest d;
  TraceLog trace;
  EngineConfig run_cfg = cfg;
  run_cfg.trace = &trace;
  dapsp::testing::ReferenceEngine eng(g, run_cfg);
  eng.init([&](NodeId v) { return make_process(p, v); });
  const Outcome out = eng.run_bounded();
  d.status = std::string(to_string(out.status)) + "|" + out.message;
  d.stats = out.stats.debug_string();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    d.harvest.push_back(harvest_process(p, eng.process(v)));
  }
  d.sends = send_stream(trace);
  return d;
}

Digest run_flat(const Graph& g, const EngineConfig& cfg, Protocol p,
                std::uint32_t threads) {
  Digest d;
  TraceLog trace;
  EngineConfig run_cfg = cfg;
  run_cfg.threads = threads;
  run_cfg.trace = &trace;
  Engine eng(g, run_cfg);
  eng.init([&](NodeId v) { return make_process(p, v); });
  const Outcome out = eng.run_bounded();
  d.status = std::string(to_string(out.status)) + "|" + out.message;
  d.stats = out.stats.debug_string();
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    d.harvest.push_back(harvest_process(p, eng.process(v)));
  }
  d.sends = send_stream(trace);
  return d;
}

// Seeded instance space: graph shape, fault plan, protocol all derived from
// one seed via the library Rng, so the suite replays bit-for-bit.
Graph graph_for(Rng& r) {
  switch (r.below(5)) {
    case 0: {
      const NodeId n = static_cast<NodeId>(r.between(8, 40));
      return gen::random_connected(n, r.below(2 * n), r());
    }
    case 1:
      return gen::grid(static_cast<NodeId>(r.between(2, 6)),
                       static_cast<NodeId>(r.between(2, 6)));
    case 2:
      return gen::petersen();
    case 3:
      return gen::cycle_with_chords(static_cast<NodeId>(r.between(8, 24)),
                                    r.below(6), r());
    default:
      return gen::barbell(static_cast<NodeId>(r.between(3, 6)),
                          static_cast<NodeId>(r.between(1, 4)));
  }
}

FaultPlan plan_for(Rng& r, const Graph& g) {
  FaultPlan plan;
  plan.seed = r();
  switch (r.below(5)) {
    case 0:  // trivial plan: fault machinery attached, nothing fires
      break;
    case 1:  // lossy
      plan.drop_prob = 0.05 + 0.3 * r.uniform01();
      plan.duplicate_prob = 0.2 * r.uniform01();
      plan.delay_prob = 0.25 * r.uniform01();
      plan.max_extra_delay = static_cast<std::uint32_t>(r.between(1, 5));
      break;
    case 2:  // corrupting + stall
      plan.corrupt_prob = 0.1 + 0.3 * r.uniform01();
      plan.stalls.push_back({static_cast<NodeId>(r.below(g.num_nodes())),
                             r.between(1, 4), r.between(1, 3)});
      plan.edge_corrupt_overrides.push_back(
          {g.edges()[0].u, g.edges()[0].v, 0.9});
      break;
    case 3:  // structural: link failure + crash
      plan.drop_prob = 0.1 * r.uniform01();
      plan.link_failures.push_back({g.edges()[r.below(g.num_edges())].u,
                                    g.edges()[r.below(g.num_edges())].v,
                                    r.between(1, 6)});
      plan.crashes.push_back({static_cast<NodeId>(r.below(g.num_nodes())),
                              r.between(2, 10)});
      break;
    default:  // kitchen sink
      plan.drop_prob = 0.15 * r.uniform01();
      plan.duplicate_prob = 0.15 * r.uniform01();
      plan.delay_prob = 0.15 * r.uniform01();
      plan.max_extra_delay = static_cast<std::uint32_t>(r.between(1, 4));
      plan.corrupt_prob = 0.15 * r.uniform01();
      plan.crashes.push_back({static_cast<NodeId>(r.below(g.num_nodes())),
                              r.between(3, 12)});
      plan.stalls.push_back({static_cast<NodeId>(r.below(g.num_nodes())),
                             r.between(1, 5), r.between(1, 2)});
      break;
  }
  // Fix up a link failure naming a non-edge (the draws above always pick
  // real edges, but two draws may name the same endpoint twice — the
  // injector validates, so keep the plan well-formed).
  for (auto& lf : plan.link_failures) {
    if (!g.has_edge(lf.u, lf.v)) {
      lf.u = g.edges()[0].u;
      lf.v = g.edges()[0].v;
    }
  }
  return plan;
}

// Faults aimed at Sleeper's sleep: a crash and a stall that begin before
// the victim's first fire (the stall may swallow it), and delayed copies,
// which land on nodes that are asleep by then.
void add_sleeper_faults(Rng& r, const Graph& g, FaultPlan& plan) {
  const auto victim = [&] {
    return static_cast<NodeId>(r.below(g.num_nodes()));
  };
  const NodeId crashed = victim();
  plan.crashes.push_back({crashed, r.between(1, Sleeper::first_fire(crashed))});
  const NodeId stalled = victim();
  plan.stalls.push_back({stalled, r.between(1, Sleeper::first_fire(stalled)),
                         r.between(1, 6)});
  plan.delay_prob = 0.1 + 0.3 * r.uniform01();
  plan.max_extra_delay = static_cast<std::uint32_t>(r.between(2, 8));
}

// --- The main randomized differential -----------------------------------

// Runs one configuration on the reference and on the flat engine at every
// thread count, and compares everything a run can be compared by.
void expect_matches_reference(const Graph& g, const EngineConfig& cfg,
                              Protocol p, std::uint64_t seed) {
  const Digest ref = run_reference(g, cfg, p);
  for (const std::uint32_t t : kThreadCounts) {
    const Digest flat = run_flat(g, cfg, p, t);
    ASSERT_EQ(flat.status, ref.status)
        << "seed=" << seed << " threads=" << t << " " << g.summary();
    ASSERT_EQ(flat.stats, ref.stats)
        << "seed=" << seed << " threads=" << t << " " << g.summary();
    ASSERT_EQ(flat.harvest, ref.harvest)
        << "seed=" << seed << " threads=" << t << " " << g.summary();
    ASSERT_EQ(flat.sends, ref.sends)
        << "seed=" << seed << " threads=" << t << " " << g.summary();
  }
}

TEST(EngineEquivalence, RandomizedDifferentialAgainstReference) {
  constexpr std::uint64_t kConfigs = 200;
  for (std::uint64_t seed = 0; seed < kConfigs; ++seed) {
    Rng r(0x5eed0000 + seed);
    const Graph g = graph_for(r);
    EngineConfig cfg;
    cfg.faults = plan_for(r, g);
    cfg.max_rounds = 100000;
    const Protocol p = r.chance(0.5) ? Protocol::kFlood : Protocol::kGossip;
    const bool reliable = r.chance(0.25);
    if (reliable) apply_reliable(cfg);
    ASSERT_NO_FATAL_FAILURE(expect_matches_reference(g, cfg, p, seed));
  }
}

// The same differential over nodes asleep on far timers, under the random
// plan plus faults aimed at the sleepers. Sleepers finish within a few
// thousand rounds; the lower limit keeps a run that never quiesces (both
// engines must still agree on its round-limit outcome) cheap.
TEST(EngineEquivalence, SleeperDifferentialAgainstReference) {
  constexpr std::uint64_t kConfigs = 80;
  for (std::uint64_t seed = 0; seed < kConfigs; ++seed) {
    Rng r(0x51ee0000 + seed);
    const Graph g = graph_for(r);
    EngineConfig cfg;
    cfg.faults = plan_for(r, g);
    add_sleeper_faults(r, g, *cfg.faults);
    cfg.max_rounds = 20000;
    if (r.chance(0.25)) apply_reliable(cfg);
    ASSERT_NO_FATAL_FAILURE(
        expect_matches_reference(g, cfg, Protocol::kSleeper, seed));
  }
}

// Fault-free configurations keep a dedicated sweep: with no plan attached
// the engine skips the fault machinery entirely (a different code path from
// a trivial plan).
TEST(EngineEquivalence, FaultFreeDifferential) {
  for (std::uint64_t seed = 0; seed < 40; ++seed) {
    Rng r(0xfa017 + seed);
    const Graph g = graph_for(r);
    EngineConfig cfg;
    cfg.max_rounds = 100000;
    const Protocol p = r.chance(0.5) ? Protocol::kFlood : Protocol::kGossip;
    const Digest ref = run_reference(g, cfg, p);
    for (const std::uint32_t t : kThreadCounts) {
      const Digest flat = run_flat(g, cfg, p, t);
      ASSERT_EQ(flat.status, ref.status) << "seed=" << seed << " t=" << t;
      ASSERT_EQ(flat.stats, ref.stats) << "seed=" << seed << " t=" << t;
      ASSERT_EQ(flat.harvest, ref.harvest) << "seed=" << seed << " t=" << t;
      ASSERT_EQ(flat.sends, ref.sends) << "seed=" << seed << " t=" << t;
    }
  }
}

// --- Error paths ---------------------------------------------------------

// Every node spams far past the budget in round 0: both engines must report
// the same CongestionError text (the smallest node's violation).
TEST(EngineEquivalence, CongestionErrorTextMatchesReference) {
  class Spammer final : public Process {
   public:
    void on_round(RoundCtx& ctx) override {
      if (ctx.round() == 0) {
        for (int k = 0; k < 64; ++k) ctx.send_all(Message::make(2, 1, 2));
      }
      ran_ = true;
    }
    bool done() const override { return ran_; }

   private:
    bool ran_ = false;
  };

  const Graph g = gen::complete(9);
  EngineConfig cfg;
  TraceLog ref_trace;
  EngineConfig ref_cfg = cfg;
  ref_cfg.trace = &ref_trace;
  dapsp::testing::ReferenceEngine ref(g, ref_cfg);
  ref.init([](NodeId) { return std::make_unique<Spammer>(); });
  const Outcome ref_out = ref.run_bounded();
  ASSERT_FALSE(send_stream(ref_trace).empty());
  ASSERT_EQ(ref_out.status, RunStatus::kCongestion);

  for (const std::uint32_t t : kThreadCounts) {
    TraceLog trace;
    EngineConfig run_cfg = cfg;
    run_cfg.threads = t;
    run_cfg.trace = &trace;
    Engine eng(g, run_cfg);
    eng.init([](NodeId) { return std::make_unique<Spammer>(); });
    const Outcome out = eng.run_bounded();
    ASSERT_EQ(out.status, ref_out.status) << "threads=" << t;
    ASSERT_EQ(out.message, ref_out.message) << "threads=" << t;
    ASSERT_EQ(out.stats.debug_string(), ref_out.stats.debug_string())
        << "threads=" << t;
    // Every accounted send is in the stream, the failing round's too.
    ASSERT_EQ(send_stream(trace), send_stream(ref_trace)) << "threads=" << t;
  }
}

// A payload field exceeding the declared width must surface the same error
// from the same (smallest) node.
TEST(EngineEquivalence, FieldWidthErrorTextMatchesReference) {
  class Liar final : public Process {
   public:
    explicit Liar(NodeId id) : id_(id) {}
    void on_round(RoundCtx& ctx) override {
      if (ctx.round() == 1 && id_ >= 2) {
        ctx.send_all(Message::make(1, 0xffffffffu));
      } else if (ctx.round() == 0) {
        ctx.send_all(Message::make(1, 1));
      }
      ran_ = ctx.round() >= 1;
    }
    bool done() const override { return ran_; }

   private:
    NodeId id_;
    bool ran_ = false;
  };

  const Graph g = gen::cycle(8);
  EngineConfig cfg;
  TraceLog ref_trace;
  EngineConfig ref_cfg = cfg;
  ref_cfg.trace = &ref_trace;
  dapsp::testing::ReferenceEngine ref(g, ref_cfg);
  ref.init([](NodeId v) { return std::make_unique<Liar>(v); });
  const Outcome ref_out = ref.run_bounded();
  ASSERT_FALSE(send_stream(ref_trace).empty());
  ASSERT_EQ(ref_out.status, RunStatus::kCongestion);
  ASSERT_NE(ref_out.message.find("exceeds value width"), std::string::npos);

  for (const std::uint32_t t : kThreadCounts) {
    TraceLog trace;
    EngineConfig run_cfg = cfg;
    run_cfg.threads = t;
    run_cfg.trace = &trace;
    Engine eng(g, run_cfg);
    eng.init([](NodeId v) { return std::make_unique<Liar>(v); });
    const Outcome out = eng.run_bounded();
    ASSERT_EQ(out.status, ref_out.status) << "threads=" << t;
    ASSERT_EQ(out.message, ref_out.message) << "threads=" << t;
    ASSERT_EQ(out.stats.debug_string(), ref_out.stats.debug_string())
        << "threads=" << t;
    // Every accounted send is in the stream, the failing round's too.
    ASSERT_EQ(send_stream(trace), send_stream(ref_trace)) << "threads=" << t;
  }
}

// A protocol that never quiesces must hit the same round limit with the
// same stats on both sides.
TEST(EngineEquivalence, RoundLimitMatchesReference) {
  class Babbler final : public Process {
   public:
    void on_round(RoundCtx& ctx) override { ctx.send_all(Message::make(1, 0)); }
    bool done() const override { return false; }
  };

  const Graph g = gen::path(6);
  EngineConfig cfg;
  cfg.max_rounds = 50;
  TraceLog ref_trace;
  EngineConfig ref_cfg = cfg;
  ref_cfg.trace = &ref_trace;
  dapsp::testing::ReferenceEngine ref(g, ref_cfg);
  ref.init([](NodeId) { return std::make_unique<Babbler>(); });
  const Outcome ref_out = ref.run_bounded();
  ASSERT_FALSE(send_stream(ref_trace).empty());
  ASSERT_EQ(ref_out.status, RunStatus::kRoundLimit);

  for (const std::uint32_t t : kThreadCounts) {
    TraceLog trace;
    EngineConfig run_cfg = cfg;
    run_cfg.threads = t;
    run_cfg.trace = &trace;
    Engine eng(g, run_cfg);
    eng.init([](NodeId) { return std::make_unique<Babbler>(); });
    const Outcome out = eng.run_bounded();
    ASSERT_EQ(out.status, ref_out.status) << "threads=" << t;
    ASSERT_EQ(out.message, ref_out.message) << "threads=" << t;
    ASSERT_EQ(out.stats.debug_string(), ref_out.stats.debug_string())
        << "threads=" << t;
    // Every accounted send is in the stream, the failing round's too.
    ASSERT_EQ(send_stream(trace), send_stream(ref_trace)) << "threads=" << t;
  }
}

// --- The wake contract -----------------------------------------------------

// Sends once, in round 5, and sleeps until the round its hint names. With
// hint round 6 the hint is one round late: round 5's step, which the
// contract lets the engine skip, sends.
class OneShot final : public Process {
 public:
  explicit OneShot(std::uint64_t hint_round) : hint_round_(hint_round) {}
  void on_round(RoundCtx& ctx) override {
    if (ctx.round() != 5) return;
    ctx.send_all(Message::make(1, 1));
    sent_ = true;
  }
  bool done() const override { return sent_; }
  std::uint64_t wake_round(std::uint64_t r) const override {
    return sent_ ? kNever : std::max(r, hint_round_);
  }

 private:
  std::uint64_t hint_round_;
  bool sent_ = false;
};

TEST(EngineEquivalence, LateWakeHintIsFlaggedByTheReferenceAudit) {
  const Graph g = gen::path(3);
  dapsp::testing::ReferenceEngine late(g, EngineConfig{});
  late.init([](NodeId) { return std::make_unique<OneShot>(6); });
  try {
    late.run();
    FAIL() << "a hint one round late passed the audit";
  } catch (const std::logic_error& e) {
    EXPECT_NE(std::string(e.what()).find("node 0 in round 5"),
              std::string::npos)
        << e.what();
  }

  // The exact hint passes, and the engine that trusts it agrees.
  dapsp::testing::ReferenceEngine exact(g, EngineConfig{});
  exact.init([](NodeId) { return std::make_unique<OneShot>(5); });
  const RunStats ref = exact.run();
  EXPECT_EQ(ref.rounds, 7u);  // round 6 delivers round 5's sends
  EXPECT_EQ(ref.messages, 4u);
  for (const std::uint32_t t : kThreadCounts) {
    EngineConfig cfg;
    cfg.threads = t;
    Engine eng(g, cfg);
    eng.init([](NodeId) { return std::make_unique<OneShot>(5); });
    EXPECT_EQ(eng.run().debug_string(), ref.debug_string()) << "threads=" << t;
  }

#ifndef NDEBUG
  // Builds without NDEBUG shadow-step what the engine skips: the same late
  // hint fails there too.
  Engine eng(g);
  eng.init([](NodeId) { return std::make_unique<OneShot>(6); });
  EXPECT_THROW(eng.run(), std::logic_error);
#endif
}

}  // namespace
}  // namespace dapsp::congest
