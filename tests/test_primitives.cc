// Direct unit tests for the protocol primitives (TreeMachine, Broadcast,
// Convergecast, ArgMinConvergecast) through minimal harness processes, plus
// the DistanceMatrix container.
#include <gtest/gtest.h>

#include <memory>

#include "congest/engine.h"
#include "core/primitives/aggregation.h"
#include "core/primitives/bfs_process.h"
#include "graph/generators.h"
#include "seq/apsp.h"
#include "seq/bfs.h"
#include "testing/suite.h"

namespace dapsp::core {
namespace {

// Harness: tree build only.
class TreeOnly final : public congest::Process {
 public:
  explicit TreeOnly(NodeId id) : id_(id) {}
  void on_round(congest::RoundCtx& ctx) override {
    for (const congest::Received& r : ctx.inbox()) tree_.handle(ctx, r);
    tree_.advance(ctx);
  }
  bool done() const override { return tree_.finished(id_); }
  TreeMachine tree_;

 private:
  NodeId id_;
};

TEST(TreeMachine, DistancesMatchBfs) {
  for (const auto& [name, g] : testing::small_suite()) {
    congest::Engine e(g);
    e.init([](NodeId v) { return std::make_unique<TreeOnly>(v); });
    e.run();
    const seq::BfsResult want = seq::bfs(g, 0);
    for (NodeId v = 0; v < g.num_nodes(); ++v) {
      EXPECT_EQ(e.process_as<TreeOnly>(v).tree_.dist(), want.dist[v])
          << name << " node " << v;
    }
  }
}

TEST(TreeMachine, RootLearnsExactEcc) {
  for (const auto& [name, g] : testing::small_suite()) {
    congest::Engine e(g);
    e.init([](NodeId v) { return std::make_unique<TreeOnly>(v); });
    e.run();
    EXPECT_EQ(e.process_as<TreeOnly>(0).tree_.root_ecc(), seq::bfs(g, 0).ecc)
        << name;
  }
}

TEST(TreeMachine, ParentsFormValidBfsTree) {
  const Graph g = gen::random_connected(60, 50, 5);
  congest::Engine e(g);
  e.init([](NodeId v) { return std::make_unique<TreeOnly>(v); });
  e.run();
  for (NodeId v = 1; v < g.num_nodes(); ++v) {
    const auto& tm = e.process_as<TreeOnly>(v).tree_;
    ASSERT_NE(tm.parent_index(), kNoParent);
    const NodeId parent = g.neighbors(v)[tm.parent_index()];
    EXPECT_EQ(e.process_as<TreeOnly>(parent).tree_.dist() + 1, tm.dist());
  }
}

TEST(TreeMachine, ChildrenAreConsistentWithParents) {
  const Graph g = gen::grid(6, 7);
  congest::Engine e(g);
  e.init([](NodeId v) { return std::make_unique<TreeOnly>(v); });
  e.run();
  // v's children list: exactly the nodes whose parent is v.
  std::size_t total_children = 0;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    const auto& tm = e.process_as<TreeOnly>(v).tree_;
    for (const std::uint32_t ci : tm.children()) {
      const NodeId child = g.neighbors(v)[ci];
      const auto& cm = e.process_as<TreeOnly>(child).tree_;
      EXPECT_EQ(g.neighbors(child)[cm.parent_index()], v);
    }
    total_children += tm.children().size();
  }
  EXPECT_EQ(total_children, g.num_nodes() - 1u);  // a spanning tree
}

TEST(TreeMachine, CompletesInLinearDiameterRounds) {
  for (const auto& [name, g] : testing::medium_suite()) {
    congest::Engine e(g);
    e.init([](NodeId v) { return std::make_unique<TreeOnly>(v); });
    const congest::RunStats s = e.run();
    const std::uint32_t ecc = seq::bfs(g, 0).ecc;
    EXPECT_LE(s.rounds, 2 * std::uint64_t{ecc} + 8) << name;
  }
}

TEST(TreeMachine, CycleEvidenceIffNotTree) {
  for (const auto& [name, g] : testing::small_suite()) {
    congest::Engine e(g);
    e.init([](NodeId v) { return std::make_unique<TreeOnly>(v); });
    e.run();
    const bool is_tree = g.num_edges() + 1 == g.num_nodes();
    EXPECT_EQ(e.process_as<TreeOnly>(0).tree_.root_cycle_evidence(), !is_tree)
        << name;
  }
}

TEST(TreeMachine, MarkedCountSumsMarks) {
  const Graph g = gen::balanced_tree(40, 3);
  congest::Engine e(g);
  // Mark every third node.
  class Marked final : public congest::Process {
   public:
    Marked(NodeId id, bool m) : tree_(m), id_(id) {}
    void on_round(congest::RoundCtx& ctx) override {
      for (const congest::Received& r : ctx.inbox()) tree_.handle(ctx, r);
      tree_.advance(ctx);
    }
    bool done() const override { return tree_.finished(id_); }
    TreeMachine tree_;

   private:
    NodeId id_;
  };
  e.init([](NodeId v) { return std::make_unique<Marked>(v, v % 3 == 0); });

  e.run();
  std::uint32_t want = 0;
  for (NodeId v = 0; v < 40; ++v) want += (v % 3 == 0) ? 1u : 0u;
  EXPECT_EQ(e.process_as<Marked>(0).tree_.root_marked_count(), want);
}

// Harness: tree build, then a broadcast from the root and a convergecast of
// per-node values.
class BcastConv final : public congest::Process {
 public:
  BcastConv(NodeId id, std::uint32_t value)
      : id_(id), value_(value), bcast_(7),
        conv_(8, Convergecast::Op::kMax, Convergecast::Op::kMin,
              Convergecast::Op::kSum) {}

  void on_round(congest::RoundCtx& ctx) override {
    for (const congest::Received& r : ctx.inbox()) {
      if (tree_.handle(ctx, r)) continue;
      if (bcast_.handle(r)) continue;
      conv_.handle(r);
    }
    tree_.advance(ctx);
    if (id_ == 0 && tree_.root_complete() && !started_) {
      started_ = true;
      bcast_.start(11, 22, 33);
    }
    bcast_.advance(ctx, tree_);
    if (bcast_.delivered() && !armed_) {
      armed_ = true;
      conv_.arm(value_, value_, 1);  // sums must stay < 2n (wire width)
    }
    if (armed_) conv_.advance(ctx, tree_);
  }
  bool done() const override {
    return id_ == 0 ? conv_.complete() : (armed_ && conv_.idle());
  }

  NodeId id_;
  std::uint32_t value_;
  TreeMachine tree_;
  Broadcast bcast_;
  Convergecast conv_;
  bool started_ = false;
  bool armed_ = false;
};

TEST(BroadcastConvergecast, DeliversAndAggregates) {
  const Graph g = gen::random_connected(50, 30, 9);
  congest::Engine e(g);
  e.init([](NodeId v) {
    return std::make_unique<BcastConv>(v, v + 10);  // values 10..59
  });
  e.run();
  for (NodeId v = 0; v < 50; ++v) {
    auto& p = e.process_as<BcastConv>(v);
    EXPECT_TRUE(p.bcast_.delivered());
    EXPECT_EQ(p.bcast_.value(0), 11u);
    EXPECT_EQ(p.bcast_.value(1), 22u);
    EXPECT_EQ(p.bcast_.value(2), 33u);
  }
  auto& root = e.process_as<BcastConv>(0);
  EXPECT_EQ(root.conv_.value(0), 59u);            // max
  EXPECT_EQ(root.conv_.value(1), 10u);            // min
  EXPECT_EQ(root.conv_.value(2), 50u);            // sum (count)
}

TEST(BroadcastConvergecast, CompletesInDiameterTime) {
  const Graph g = gen::path(80);
  congest::Engine e(g);
  e.init([](NodeId v) { return std::make_unique<BcastConv>(v, v); });
  const congest::RunStats s = e.run();
  // tree (2*79) + broadcast (79) + convergecast (79) + constants
  EXPECT_LE(s.rounds, 6u * 79u + 16u);
}

// ArgMin harness.
class ArgMinHarness final : public congest::Process {
 public:
  ArgMinHarness(NodeId id, std::uint32_t key, std::uint32_t payload)
      : am_(9), id_(id), key_(key), payload_(payload) {}
  void on_round(congest::RoundCtx& ctx) override {
    for (const congest::Received& r : ctx.inbox()) {
      if (tree_.handle(ctx, r)) continue;
      am_.handle(r);
    }
    tree_.advance(ctx);
    if (tree_.finished(id_) && !armed_) {
      if (seen_finish_) {
        armed_ = true;
        am_.arm(key_, payload_);
      }
      seen_finish_ = true;
    }
    if (armed_) am_.advance(ctx, tree_);
  }
  bool done() const override {
    return id_ == 0 ? am_.complete() : (armed_ && am_.idle());
  }
  TreeMachine tree_;
  ArgMinConvergecast am_;

 private:
  NodeId id_;
  std::uint32_t key_, payload_;
  bool armed_ = false;
  bool seen_finish_ = false;
};

TEST(ArgMinConvergecast, FindsGlobalMinimumWithPayload) {
  const Graph g = gen::random_connected(40, 25, 3);
  congest::Engine e(g);
  // Key: (id * 7 + 3) % 41 — minimized at some specific node; payload: id.
  e.init([](NodeId v) {
    return std::make_unique<ArgMinHarness>(v, (v * 7 + 3) % 41, v);
  });
  e.run();
  std::uint32_t best_key = 0xffffffffu;
  NodeId best_node = 0;
  for (NodeId v = 0; v < 40; ++v) {
    const std::uint32_t key = (v * 7 + 3) % 41;
    if (key < best_key) {
      best_key = key;
      best_node = v;
    }
  }
  auto& root = e.process_as<ArgMinHarness>(0);
  EXPECT_EQ(root.am_.key(), best_key);
  EXPECT_EQ(root.am_.payload(), best_node);
}

// ---- DistanceMatrix ---------------------------------------------------------

TEST(DistanceMatrix, Basics) {
  DistanceMatrix m(3);
  EXPECT_EQ(m.n(), 3u);
  EXPECT_EQ(m.at(1, 2), kInfDist);
  m.set(1, 2, 7);
  EXPECT_EQ(m.at(1, 2), 7u);
  EXPECT_EQ(m.row(1)[2], 7u);
  EXPECT_EQ(m.max_finite(), 7u);
}

TEST(DistanceMatrix, Equality) {
  DistanceMatrix a(2), b(2);
  EXPECT_EQ(a, b);
  a.set(0, 1, 1);
  EXPECT_NE(a, b);
  b.set(0, 1, 1);
  EXPECT_EQ(a, b);

  // The same storage at the n x |DOM| shape of distance labels.
  Table<std::uint32_t> l(5, 2, kInfDist), m(5, 2, kInfDist);
  EXPECT_EQ(l.rows(), 5u);
  EXPECT_EQ(l.cols(), 2u);
  EXPECT_EQ(l.row(4).size(), 2u);
  EXPECT_EQ(l, m);
  l[3][1] = 9;
  EXPECT_EQ(l.at(3, 1), 9u);
  EXPECT_EQ(l.data()[3 * 2 + 1], 9u);  // row-major
  EXPECT_NE(l, m);
  m.set(3, 1, 9);
  EXPECT_EQ(l, m);
  // Equal cells in another shape are another table.
  Table<std::uint32_t> t(2, 5, kInfDist);
  t.data()[7] = 9;
  EXPECT_NE(l, t);
}

TEST(DistanceMatrix, MaxFiniteIgnoresInfinity) {
  DistanceMatrix m(2);
  EXPECT_EQ(m.max_finite(), 0u);
  m.set(0, 0, 0);
  m.set(0, 1, 5);
  EXPECT_EQ(m.max_finite(), 5u);
}

}  // namespace
}  // namespace dapsp::core
