// The CONGEST kernel: delivery semantics, bandwidth enforcement, stats,
// determinism, quiescence, and failure modes.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "congest/engine.h"
#include "congest/faults.h"
#include "congest/trace.h"
#include "core/pebble_apsp.h"
#include "graph/generators.h"

namespace dapsp::congest {
namespace {

// Sends one message with `fields` payload fields from node 0 to node 1 in
// round `when`, `count` times.
class SenderProcess final : public Process {
 public:
  SenderProcess(NodeId id, int count, std::uint8_t fields)
      : id_(id), count_(count), fields_(fields) {}

  void on_round(RoundCtx& ctx) override {
    for (const Received& r : ctx.inbox()) {
      received_.push_back(r.msg);
      from_.push_back(r.from_index);
      recv_round_ = ctx.round();
    }
    if (id_ == 0 && ctx.round() == 0) {
      for (int i = 0; i < count_; ++i) {
        Message m;
        m.kind = static_cast<std::uint8_t>(10 + i);
        m.num_fields = fields_;
        for (int f = 0; f < fields_; ++f) {
          m.f[static_cast<std::size_t>(f)] = static_cast<std::uint32_t>(f + 1);
        }
        ctx.send(0, m);
      }
      sent_ = true;
    }
    done_ = id_ != 0 || sent_;
  }

  bool done() const override { return done_; }

  std::vector<Message> received_;
  std::vector<std::uint32_t> from_;
  std::uint64_t recv_round_ = 0;

 private:
  NodeId id_;
  int count_;
  std::uint8_t fields_;
  bool sent_ = false;
  bool done_ = false;
};

TEST(Engine, DeliversNextRound) {
  const Graph g = gen::path(2);
  Engine e(g);
  e.init([](NodeId v) { return std::make_unique<SenderProcess>(v, 1, 2); });
  const RunStats stats = e.run();
  auto& p1 = e.process_as<SenderProcess>(1);
  ASSERT_EQ(p1.received_.size(), 1u);
  EXPECT_EQ(p1.recv_round_, 1u);  // sent in round 0, received in round 1
  EXPECT_EQ(p1.received_[0].kind, 10);
  EXPECT_EQ(p1.received_[0].f[0], 1u);
  EXPECT_EQ(p1.received_[0].f[1], 2u);
  EXPECT_EQ(p1.from_[0], 0u);  // node 0 is neighbor index 0 of node 1
  EXPECT_EQ(stats.messages, 1u);
}

TEST(Engine, BandwidthEnforced) {
  const Graph g = gen::path(2);
  Engine e(g);  // default budget: 4 ids
  // Three 2-field messages on one edge in one round exceed B.
  e.init([](NodeId v) { return std::make_unique<SenderProcess>(v, 3, 2); });
  EXPECT_THROW(e.run(), CongestionError);
}

TEST(Engine, TwoSmallMessagesFit) {
  const Graph g = gen::path(2);
  Engine e(g);
  e.init([](NodeId v) { return std::make_unique<SenderProcess>(v, 2, 1); });
  const RunStats stats = e.run();
  EXPECT_EQ(e.process_as<SenderProcess>(1).received_.size(), 2u);
  EXPECT_EQ(stats.max_edge_messages, 2u);
  EXPECT_LE(stats.max_edge_bits, stats.bandwidth_bits);
}

TEST(Engine, BandwidthDisabled) {
  const Graph g = gen::path(2);
  EngineConfig cfg;
  cfg.enforce_bandwidth = false;
  Engine e(g, cfg);
  e.init([](NodeId v) { return std::make_unique<SenderProcess>(v, 8, 4); });
  const RunStats stats = e.run();
  EXPECT_EQ(e.process_as<SenderProcess>(1).received_.size(), 8u);
  EXPECT_GT(stats.max_edge_bits, stats.bandwidth_bits);
}

TEST(Engine, FieldWidthEnforced) {
  const Graph g = gen::path(2);

  class BadField final : public Process {
   public:
    explicit BadField(NodeId id) : id_(id) {}
    void on_round(RoundCtx& ctx) override {
      if (id_ == 0 && ctx.round() == 0) {
        ctx.send(0, Message::make(1, 0xffffffffu));  // exceeds value width
      }
      done_ = true;
    }
    bool done() const override { return done_; }

   private:
    NodeId id_;
    bool done_ = false;
  };

  Engine e(g);
  e.init([](NodeId v) { return std::make_unique<BadField>(v); });
  EXPECT_THROW(e.run(), CongestionError);
}

// In round 0 the culprit sends an over-wide field, then a valid message,
// then throws; the optional thrower throws before sending anything. Every
// other node sends one valid message to each neighbor.
class Misbehaver final : public Process {
 public:
  static constexpr NodeId kNobody = ~NodeId{0};
  Misbehaver(NodeId id, NodeId culprit, NodeId thrower)
      : id_(id), culprit_(culprit), thrower_(thrower) {}
  void on_round(RoundCtx& ctx) override {
    heard_ += ctx.inbox().size();
    done_ = true;
    if (ctx.round() != 0) return;
    if (id_ == thrower_) throw std::runtime_error("earlier node failed");
    if (id_ == culprit_) {
      ctx.send(0, Message::make(1, 0xffffffffu));  // exceeds value width
      ctx.send(1, Message::make(2, 7));
      throw std::runtime_error("thrown after the sends");
    }
    ctx.send_all(Message::make(3, id_));
  }
  bool done() const override { return done_; }
  std::size_t heard_ = 0;

 private:
  NodeId id_;
  NodeId culprit_;
  NodeId thrower_;
  bool done_ = false;
};

TEST(Engine, FirstAccountingFailureMutesTheNodeAndWins) {
  // Node 5 of path(8) has neighbors 4 and 6. Its accounting failure is the
  // run's error: its valid second message is neither traced nor delivered,
  // and its own later exception does not replace the error.
  const Graph g = gen::path(8);
  std::string reference;
  for (const std::uint32_t threads : {1u, 4u}) {
    TraceLog trace;
    EngineConfig cfg;
    cfg.threads = threads;
    cfg.trace = &trace;
    Engine e(g, cfg);
    e.init([](NodeId v) {
      return std::make_unique<Misbehaver>(v, 5, Misbehaver::kNobody);
    });
    const Outcome out = e.run_bounded();
    ASSERT_EQ(out.status, RunStatus::kCongestion) << "threads=" << threads;
    EXPECT_NE(out.message.find("exceeds value width"), std::string::npos);
    std::uint64_t sends = 0;
    for (const TraceEvent& ev : trace.events()) {
      EXPECT_NE(ev.node, 5u) << "threads=" << threads;
      EXPECT_NE(ev.kind, TraceEventKind::kDeliver) << "threads=" << threads;
      sends += ev.kind == TraceEventKind::kSend;
    }
    // Every other node's sends of the failing round are accounted.
    EXPECT_EQ(sends, 2u * 7 - 2);
    EXPECT_EQ(out.stats.messages, sends);
    EXPECT_EQ(e.process_as<Misbehaver>(6).heard_, 0u);
    std::ostringstream log;
    trace.write_jsonl(log);
    const std::string result =
        out.message + "\n" + out.stats.debug_string() + "\n" + log.str();
    if (threads == 1) {
      reference = result;
    } else {
      EXPECT_EQ(result, reference) << "threads=" << threads;
    }
  }
  // An earlier node's failure wins, whether it shares the culprit's shard
  // at 4 threads (node 4) or not (node 2).
  for (const NodeId thrower : {NodeId{2}, NodeId{4}}) {
    for (const std::uint32_t threads : {1u, 4u}) {
      EngineConfig cfg;
      cfg.threads = threads;
      Engine e(g, cfg);
      e.init([thrower](NodeId v) {
        return std::make_unique<Misbehaver>(v, 5, thrower);
      });
      try {
        e.run();
        ADD_FAILURE() << "the run did not fail";
      } catch (const CongestionError&) {
        ADD_FAILURE() << "thrower=" << thrower << " threads=" << threads;
      } catch (const std::runtime_error& err) {
        EXPECT_STREQ(err.what(), "earlier node failed")
            << "thrower=" << thrower << " threads=" << threads;
      }
    }
  }
}

TEST(Engine, RoundLimit) {
  const Graph g = gen::path(2);

  // Ping-pong forever.
  class Chatter final : public Process {
   public:
    explicit Chatter(NodeId id) : id_(id) {}
    void on_round(RoundCtx& ctx) override {
      if (id_ == 0 || !ctx.inbox().empty()) ctx.send(0, Message::make(1));
    }
    bool done() const override { return false; }

   private:
    NodeId id_;
  };

  EngineConfig cfg;
  cfg.max_rounds = 100;
  Engine e(g, cfg);
  e.init([](NodeId v) { return std::make_unique<Chatter>(v); });
  EXPECT_THROW(e.run(), RoundLimitError);
}

TEST(Engine, RunRoundsExact) {
  const Graph g = gen::path(3);
  class Idle final : public Process {
   public:
    void on_round(RoundCtx&) override { ++rounds_seen_; }
    bool done() const override { return true; }
    std::uint64_t wake_round(std::uint64_t r) const override { return r; }
    int rounds_seen_ = 0;
  };
  Engine e(g);
  e.init([](NodeId) { return std::make_unique<Idle>(); });
  const RunStats stats = e.run_rounds(5);
  EXPECT_EQ(stats.rounds, 5u);
  EXPECT_EQ(e.process_as<Idle>(0).rounds_seen_, 5);
}

TEST(Engine, QuiescenceStopsImmediately) {
  const Graph g = gen::path(3);
  class Idle final : public Process {
   public:
    void on_round(RoundCtx&) override {}
    bool done() const override { return true; }
  };
  Engine e(g);
  e.init([](NodeId) { return std::make_unique<Idle>(); });
  const RunStats stats = e.run();
  EXPECT_EQ(stats.rounds, 0u);
}

TEST(Engine, SendToBadNeighborThrows) {
  const Graph g = gen::path(2);
  class Bad final : public Process {
   public:
    explicit Bad(NodeId id) : id_(id) {}
    void on_round(RoundCtx& ctx) override {
      if (id_ == 0) ctx.send(5, Message::make(1));
    }
    bool done() const override { return false; }

   private:
    NodeId id_;
  };
  Engine e(g);
  e.init([](NodeId v) { return std::make_unique<Bad>(v); });
  EXPECT_THROW(e.run(), std::out_of_range);
}

TEST(Engine, ValueBitsScaleWithN) {
  const Graph small = gen::path(8);
  const Graph big = gen::path(1024);
  Engine es(small), eb(big);
  EXPECT_LT(es.value_bits(), eb.value_bits());
  EXPECT_EQ(eb.value_bits(), 12u);  // bits_for(2048)
  EXPECT_EQ(eb.bandwidth_bits(), 8u + 4 * 12u);
}

TEST(Engine, StatsCountBits) {
  const Graph g = gen::path(2);
  Engine e(g);
  e.init([](NodeId v) { return std::make_unique<SenderProcess>(v, 1, 2); });
  const RunStats stats = e.run();
  EXPECT_EQ(stats.total_bits, 8u + 2 * e.value_bits());
  EXPECT_EQ(stats.max_edge_bits, stats.total_bits);
}

TEST(Engine, AccumulateStats) {
  RunStats a{.rounds = 10,
             .messages = 5,
             .total_bits = 100,
             .max_edge_bits = 30,
             .max_edge_messages = 2,
             .max_node_bits = 90,
             .bandwidth_bits = 40};
  const RunStats b{.rounds = 20,
                   .messages = 7,
                   .total_bits = 50,
                   .max_edge_bits = 60,
                   .max_edge_messages = 1,
                   .max_node_bits = 80,
                   .bandwidth_bits = 40};
  accumulate(a, b);
  EXPECT_EQ(a.rounds, 30u);
  EXPECT_EQ(a.messages, 12u);
  EXPECT_EQ(a.total_bits, 150u);
  EXPECT_EQ(a.max_edge_bits, 60u);
  EXPECT_EQ(a.max_edge_messages, 2u);
  EXPECT_EQ(a.max_node_bits, 90u);
  EXPECT_EQ(a.bandwidth_bits, 40u);
}

TEST(Engine, AccumulateRejectsMismatchedBudgets) {
  // Phases enforced under different budgets B have no single honest
  // bandwidth_bits value; silently max-ing them misreports the enforcement.
  RunStats a{.bandwidth_bits = 40};
  const RunStats b{.bandwidth_bits = 48};
  EXPECT_THROW(accumulate(a, b), std::invalid_argument);
  EXPECT_EQ(a.bandwidth_bits, 40u);  // rejected before any mutation

  // A zero side (freshly default-constructed accumulator) adopts the
  // other's budget, in either direction.
  RunStats fresh{};
  accumulate(fresh, a);
  EXPECT_EQ(fresh.bandwidth_bits, 40u);
  RunStats into{.bandwidth_bits = 48};
  accumulate(into, RunStats{});
  EXPECT_EQ(into.bandwidth_bits, 48u);
}

TEST(Engine, AccumulateStatsSumsFaultCounters) {
  RunStats a{.messages_dropped = 3, .messages_delayed = 1, .nodes_crashed = 1};
  const RunStats b{.messages_dropped = 2,
                   .messages_duplicated = 4,
                   .nodes_crashed = 2};
  accumulate(a, b);
  EXPECT_EQ(a.messages_dropped, 5u);
  EXPECT_EQ(a.messages_delayed, 1u);
  EXPECT_EQ(a.messages_duplicated, 4u);
  EXPECT_EQ(a.nodes_crashed, 3u);
}

TEST(Engine, StatsDebugString) {
  RunStats s{.rounds = 12, .messages = 34, .total_bits = 560};
  std::string text = s.debug_string();
  EXPECT_NE(text.find("rounds=12"), std::string::npos);
  EXPECT_NE(text.find("messages=34"), std::string::npos);
  // Fault counters only appear when something happened.
  EXPECT_EQ(text.find("dropped"), std::string::npos);
  s.messages_dropped = 2;
  text = s.debug_string();
  EXPECT_NE(text.find("dropped=2"), std::string::npos);
  std::ostringstream os;
  os << s;
  EXPECT_EQ(os.str(), text);
}

TEST(Engine, PerNodeLoadTracked) {
  // A star hub sending to all leaves in one round accumulates deg * message
  // cost on the node counter while each edge sees only one message.
  const Graph g = gen::star(9);
  class HubBlast final : public Process {
   public:
    explicit HubBlast(NodeId id) : id_(id) {}
    void on_round(RoundCtx& ctx) override {
      if (id_ == 0 && ctx.round() == 0) ctx.send_all(Message::make(1, 3));
      done_ = true;
    }
    bool done() const override { return done_; }

   private:
    NodeId id_;
    bool done_ = false;
  };
  Engine e(g);
  e.init([](NodeId v) { return std::make_unique<HubBlast>(v); });
  const RunStats s = e.run();
  const std::uint64_t per_msg = 8 + e.value_bits();
  EXPECT_EQ(s.max_node_bits, 8 * per_msg);
  EXPECT_EQ(s.max_edge_bits, per_msg);
}

TEST(Engine, WireInfinityFitsFieldWidth) {
  for (NodeId n : {2u, 8u, 100u, 1000u}) {
    const Graph g = gen::path(n);
    Engine e(g);
    EXPECT_LT(std::uint64_t{wire_infinity(std::max<NodeId>(n, 8))} >>
                  e.value_bits(),
              1u);
  }
}

TEST(Engine, DeterministicAcrossRuns) {
  const Graph g = gen::random_connected(20, 15, 3);
  auto run_once = [&g] {
    Engine e(g);
    e.init([](NodeId v) { return std::make_unique<SenderProcess>(v, 1, 1); });
    return e.run();
  };
  const RunStats a = run_once();
  const RunStats b = run_once();
  EXPECT_EQ(a.rounds, b.rounds);
  EXPECT_EQ(a.messages, b.messages);
  EXPECT_EQ(a.total_bits, b.total_bits);
}

// --- The wake contract: sleepers ------------------------------------------

// Builds without NDEBUG shadow-step every live node the engine skips (the
// wake-contract audit), so there a sleeper sees every round it is alive and
// not stalled.
#ifdef NDEBUG
constexpr bool kShadowSteps = false;
#else
constexpr bool kShadowSteps = true;
#endif

// Sleeps until round `alarm` (its wake_round hint), rings then and is done.
// With `ping` set it also sends one message to neighbor 0 when it rings.
// Records every round it is stepped in.
class Alarm final : public Process {
 public:
  Alarm(std::uint64_t alarm, bool ping) : alarm_(alarm), ping_(ping) {}
  void on_round(RoundCtx& ctx) override {
    steps_.push_back(ctx.round());
    heard_ += ctx.inbox().size();
    if (rang_ || ctx.round() < alarm_) return;
    if (ping_) ctx.send(0, Message::make(1));
    rang_ = true;
  }
  bool done() const override { return rang_; }
  std::uint64_t wake_round(std::uint64_t r) const override {
    return rang_ ? kNever : std::max(r, alarm_);
  }
  std::vector<std::uint64_t> steps_;
  std::size_t heard_ = 0;

 private:
  std::uint64_t alarm_;
  bool ping_;
  bool rang_ = false;
};

// Rounds [0, end) without those in [skip_lo, skip_hi).
std::vector<std::uint64_t> rounds_except(std::uint64_t end,
                                         std::uint64_t skip_lo,
                                         std::uint64_t skip_hi) {
  std::vector<std::uint64_t> out;
  for (std::uint64_t r = 0; r < end; ++r) {
    if (r < skip_lo || r >= skip_hi) out.push_back(r);
  }
  return out;
}

TEST(WakeContract, SleeperRunsAtItsWakeRoundOrWhenAMessageArrives) {
  // Node 0 sleeps until round 10; node 1 rings at round 3 and pings it.
  const Graph g = gen::path(2);
  Engine e(g);
  e.init([](NodeId v) {
    return v == 0 ? std::make_unique<Alarm>(10, false)
                  : std::make_unique<Alarm>(3, true);
  });
  const RunStats s = e.run();
  EXPECT_EQ(s.rounds, 11u);
  EXPECT_EQ(s.messages, 1u);
  const auto& sleeper = e.process_as<Alarm>(0);
  EXPECT_EQ(sleeper.heard_, 1u);
  // The ping lands in round 4; the alarm rings in round 10.
  const std::vector<std::uint64_t> ping_then_alarm = {4, 10};
  EXPECT_EQ(sleeper.steps_,
            kShadowSteps ? rounds_except(11, 0, 0) : ping_then_alarm);
  EXPECT_EQ(e.process_as<Alarm>(1).steps_,
            kShadowSteps ? rounds_except(11, 0, 0)
                         : std::vector<std::uint64_t>{3});
}

TEST(WakeContract, StalledSleeperCountsItsStallAndDropsItsInbox) {
  // Node 0's alarm (round 5) falls inside its stall [4, 7), and node 1's
  // ping lands in round 5: both are lost to the stall, and the missed alarm
  // rings in the first round after it.
  const Graph g = gen::path(2);
  FaultPlan plan;
  plan.stalls.push_back({0, 4, 3});
  EngineConfig cfg;
  cfg.faults = plan;
  Engine e(g, cfg);
  e.init([](NodeId v) {
    return v == 0 ? std::make_unique<Alarm>(5, false)
                  : std::make_unique<Alarm>(4, true);
  });
  const RunStats s = e.run();
  EXPECT_EQ(s.node_stall_rounds, 3u);
  EXPECT_EQ(s.messages_dropped, 1u);
  EXPECT_EQ(s.rounds, 8u);
  const auto& sleeper = e.process_as<Alarm>(0);
  EXPECT_EQ(sleeper.heard_, 0u);
  EXPECT_TRUE(sleeper.done());
  EXPECT_EQ(sleeper.steps_, kShadowSteps ? rounds_except(8, 4, 7)
                                         : std::vector<std::uint64_t>{7});
}

TEST(WakeContract, SleepersCrashIsAppliedAndTracedAtItsRound) {
  // Node 0 sleeps until round 10 but crashes at round 6; node 1's ping of
  // round 7 is absorbed by the crash.
  const Graph g = gen::path(2);
  FaultPlan plan;
  plan.crashes.push_back({0, 6});
  TraceLog trace;
  EngineConfig cfg;
  cfg.faults = plan;
  cfg.trace = &trace;
  Engine e(g, cfg);
  e.init([](NodeId v) {
    return v == 0 ? std::make_unique<Alarm>(10, false)
                  : std::make_unique<Alarm>(7, true);
  });
  const RunStats s = e.run();
  EXPECT_EQ(s.nodes_crashed, 1u);
  EXPECT_EQ(s.messages_dropped, 1u);
  EXPECT_EQ(s.rounds, 8u);
  EXPECT_TRUE(e.crashed(0));
  std::vector<TraceEvent> crashes;
  for (const TraceEvent& ev : trace.events()) {
    if (ev.kind == TraceEventKind::kCrash) crashes.push_back(ev);
  }
  ASSERT_EQ(crashes.size(), 1u);
  EXPECT_EQ(crashes[0].node, 0u);
  EXPECT_EQ(crashes[0].round, 6u);
  EXPECT_EQ(e.process_as<Alarm>(0).steps_,
            kShadowSteps ? rounds_except(6, 0, 0)
                         : std::vector<std::uint64_t>{});
}

// Counts the on_round() calls of the process it wraps.
class StepCounter final : public Process {
 public:
  StepCounter(std::unique_ptr<Process> inner, std::uint64_t& steps)
      : inner_(std::move(inner)), steps_(steps) {}
  void on_round(RoundCtx& ctx) override {
    ++steps_;
    inner_->on_round(ctx);
  }
  bool done() const override { return inner_->done(); }
  std::uint64_t wake_round(std::uint64_t r) const override {
    return inner_->wake_round(r);
  }
  void on_neighbor_down(std::uint32_t neighbor_index,
                        std::uint64_t virtual_round) override {
    inner_->on_neighbor_down(neighbor_index, virtual_round);
  }
  Process& underlying() override { return inner_->underlying(); }

 private:
  std::unique_ptr<Process> inner_;
  std::uint64_t& steps_;
};

TEST(WakeContract, PebbleApspNodesSleepBetweenTimers) {
  // Algorithm 1's nodes are idle in most rounds: between the tree build's
  // timers, the pebble's wait and the floods that reach them. Stepping
  // every live node in every round would cost rounds * n steps.
  const Graph g = gen::random_connected(256, 1024, 7);
  std::uint64_t steps = 0;
  core::ApspOptions opt;
  opt.engine.process_wrapper = [&steps](NodeId, std::unique_ptr<Process> p) {
    return std::make_unique<StepCounter>(std::move(p), steps);
  };
  const core::ApspResult r = core::run_pebble_apsp(g, opt);
  ASSERT_EQ(r.status, RunStatus::kCompleted);
  const std::uint64_t every_round = r.stats.rounds * g.num_nodes();
  if (kShadowSteps) {
    EXPECT_EQ(steps, every_round);  // the audit steps every skipped node
  } else {
    EXPECT_LT(steps, every_round * 3 / 4) << "rounds=" << r.stats.rounds;
  }
}

TEST(Message, DebugString) {
  const Message m = Message::make(3, 7, 9);
  const std::string s = m.debug_string();
  EXPECT_NE(s.find("kind=3"), std::string::npos);
  EXPECT_NE(s.find("7, 9"), std::string::npos);
}

TEST(Message, BitCost) {
  EXPECT_EQ(Message::make(1).bit_cost(10), 8u);
  EXPECT_EQ(Message::make(1, 2).bit_cost(10), 18u);
  EXPECT_EQ(Message::make(1, 2, 3, 4, 5).bit_cost(10), 48u);
}

}  // namespace
}  // namespace dapsp::congest
