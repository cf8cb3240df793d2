// Tests of the benchmark's own helpers: the tail percentile rule, the
// closed-loop accounting and the span bookkeeping of the traced run.
#include <gtest/gtest.h>

#include <atomic>
#include <stdexcept>
#include <thread>
#include <vector>

#include "bench.h"
#include "stats.h"
#include "trace.h"

namespace perfbench {
namespace {

TEST(TailPercentile, AlwaysLeavesTenSamplesBeyond) {
  for (std::size_t n = 1; n <= 5000; n += (n < 200 ? 1 : 37)) {
    std::vector<double> v(n);
    for (std::size_t i = 0; i < n; ++i) v[i] = static_cast<double>((i * 7919) % n);
    const std::optional<Tail> t = tail_percentile(v);
    if (n < 20) {
      EXPECT_FALSE(t.has_value()) << n;
      continue;
    }
    ASSERT_TRUE(t.has_value()) << n;
    std::size_t above = 0;
    for (const double x : v) above += x > t->value;
    EXPECT_GE(above, kMinBeyond) << n;
    EXPECT_EQ(above, t->beyond) << n;  // distinct values: beyond is exact
  }
}

TEST(TailPercentile, PicksTheHighestQualifyingRung) {
  std::vector<double> v(1000);
  for (std::size_t i = 0; i < v.size(); ++i) v[i] = static_cast<double>(i);
  const std::optional<Tail> t = tail_percentile(v);
  ASSERT_TRUE(t.has_value());
  EXPECT_DOUBLE_EQ(t->q, 0.99);
  EXPECT_DOUBLE_EQ(t->value, 989.0);
  EXPECT_EQ(t->beyond, 10u);

  v.resize(30);  // p50 leaves 15 beyond, p75 only 7
  const std::optional<Tail> small = tail_percentile(v);
  ASSERT_TRUE(small.has_value());
  EXPECT_DOUBLE_EQ(small->q, 0.5);
  EXPECT_EQ(small->beyond, 15u);
}

TEST(Percentile, NearestRank) {
  EXPECT_DOUBLE_EQ(median({3.0, 1.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(median({4.0, 1.0, 3.0, 2.0}), 2.0);
  EXPECT_DOUBLE_EQ(percentile({5.0}, 0.99), 5.0);
  EXPECT_DOUBLE_EQ(percentile({}, 0.5), 0.0);
}

TEST(Reservoir, KeepsEverythingUpToCapacityThenAUniformSample) {
  Reservoir r(1000, 7);
  for (int i = 0; i < 1000; ++i) r.add(static_cast<float>(i));
  EXPECT_EQ(r.samples().size(), 1000u);
  EXPECT_DOUBLE_EQ(median({r.samples().begin(), r.samples().end()}), 499.0);
  for (int i = 1000; i < 100000; ++i) r.add(static_cast<float>(i));
  EXPECT_EQ(r.seen(), 100000u);
  EXPECT_EQ(r.samples().size(), 1000u);
  // The sample's median estimates the stream's (49999.5) within a few %.
  EXPECT_NEAR(median({r.samples().begin(), r.samples().end()}), 50000.0, 5000.0);
}

TEST(ClosedLoop, AttemptedIsCompletedPlusFailed) {
  int i = 0;
  const LoopCounts c = closed_loop([&] { return i >= 1000; },
                                   [&] {
                                     ++i;
                                     if (i % 7 == 0) throw std::runtime_error("boom");
                                     return i % 5 != 0;
                                   });
  EXPECT_EQ(c.attempted, 1000u);
  EXPECT_TRUE(c.balanced());
  EXPECT_EQ(c.failed, 1000u / 7 + 1000u / 5 - 1000u / 35);
}

TEST(ClosedLoop, BalancedWhenStoppedFromAnotherThread) {
  std::atomic<bool> stop{false};
  LoopCounts c;
  std::thread t([&] {
    c = closed_loop([&] { return stop.load(); }, [] { return true; });
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(5));
  stop = true;
  t.join();
  EXPECT_TRUE(c.balanced());
  EXPECT_GT(c.attempted, 0u);
}

TEST(Tracer, ChildrenFitInsideTheirParent) {
  Tracer t(true);
  const std::int32_t op = t.begin_at("op", Layer::kBench, 1, 100);
  t.record("analyze", Layer::kService, 1, 100, 140);
  const std::int32_t pub = t.begin_at("publish", Layer::kQuery, 1, 140);
  t.record("encode", Layer::kQuery, 1, 140, 150);
  t.record("verify", Layer::kQuery, 1, 150, 170);
  t.end_at(pub, 175);
  t.end_at(op, 200);
  EXPECT_EQ(overfull_parents(t.spans()), 0u);
  const std::vector<std::int64_t> self = self_times(t.spans());
  EXPECT_EQ(self[static_cast<std::size_t>(op)], 25);   // 100 - 40 - 35
  EXPECT_EQ(self[static_cast<std::size_t>(pub)], 5);   // 35 - 10 - 20
  std::int64_t total = 0;
  for (const std::int64_t s : self) total += s;
  EXPECT_EQ(total, 100);  // self times partition the root span
}

TEST(Tracer, DetectsChildrenThatOutlastTheParent) {
  Tracer t(true);
  const std::int32_t op = t.begin_at("op", Layer::kBench, 1, 0);
  t.record("a", Layer::kEngine, 1, 0, 60);
  t.record("b", Layer::kEngine, 1, 50, 120);
  t.end_at(op, 100);
  EXPECT_EQ(overfull_parents(t.spans()), 1u);
  // Overlapping children are not double-counted in self time.
  EXPECT_EQ(self_times(t.spans())[static_cast<std::size_t>(op)], 0);
}

TEST(Tracer, DisabledRecordsNothing) {
  Tracer t(false);
  t.end(t.begin("op", Layer::kBench, 1));
  t.record("x", Layer::kQuery, 1, 0, 1);
  EXPECT_TRUE(t.spans().empty());
}

}  // namespace
}  // namespace perfbench
