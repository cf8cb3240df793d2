// Unit and property tests for util/arena.h, plus the steady-state
// zero-allocation guarantee of the flat round engine (DESIGN.md §16).
//
// The whole point of the arena rewrite is that after a warm-up round the
// engine's round loop performs ZERO heap allocations: outboxes, deliveries
// and event buffers reset without freeing, inbox frames reuse their
// capacity, and the worker pool keeps its threads. Two probes pin this:
//
//   * arena_slab_allocations() — a global counter bumped on every BumpArena
//     slab growth;
//   * a replacement global operator new in this binary counting EVERY heap
//     allocation, arena or not.
//
// Both must stay flat across hundreds of steady-state rounds, at 1 and 2
// worker threads.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <new>
#include <vector>

#include "congest/engine.h"
#include "graph/generators.h"
#include "util/arena.h"

// --- Global allocation counter ------------------------------------------
//
// Replacing operator new in the test binary counts every allocation made by
// any code in the process (gtest included — which is why tests snapshot a
// delta around the measured region rather than asserting a global zero).

namespace {
std::atomic<std::uint64_t> g_heap_allocations{0};

std::uint64_t heap_allocations() noexcept {
  return g_heap_allocations.load(std::memory_order_relaxed);
}

void* counted_alloc(std::size_t n) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n == 0 ? 1 : n)) return p;
  throw std::bad_alloc();
}

void* counted_aligned_alloc(std::size_t n, std::size_t align) {
  g_heap_allocations.fetch_add(1, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, align < sizeof(void*) ? sizeof(void*) : align,
                     n == 0 ? align : n) != 0) {
    throw std::bad_alloc();
  }
  return p;
}
}  // namespace

void* operator new(std::size_t n) { return counted_alloc(n); }
void* operator new[](std::size_t n) { return counted_alloc(n); }
void* operator new(std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return counted_aligned_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}

namespace dapsp {
namespace {

// --- BumpArena ----------------------------------------------------------

TEST(BumpArena, PushPreservesOrderAndValues) {
  BumpArena<int> a;
  for (int i = 0; i < 100; ++i) a.push(i * 3);
  ASSERT_EQ(a.size(), 100u);
  const std::span<const int> s = a.span();
  for (std::size_t i = 0; i < 100; ++i) {
    EXPECT_EQ(s[i], static_cast<int>(i) * 3);
  }
}

TEST(BumpArena, ResetReusesCapacityAndSlab) {
  BumpArena<std::uint64_t> a;
  for (std::uint64_t i = 0; i < 500; ++i) a.push(i);
  const std::size_t cap = a.capacity();
  const std::uint64_t* slab = a.data();
  const std::uint64_t slabs_before = arena_slab_allocations();

  for (std::uint64_t round = 0; round < 50; ++round) {
    a.reset();
    EXPECT_EQ(a.size(), 0u);
    EXPECT_EQ(a.capacity(), cap);
    for (std::uint64_t i = 0; i < 500; ++i) a.push(i ^ round);
    EXPECT_EQ(a.data(), slab) << "slab must not move on reset/refill";
    EXPECT_EQ(a.span()[499], 499u ^ round);
  }
  EXPECT_EQ(arena_slab_allocations(), slabs_before)
      << "reset/refill within capacity must not touch the slab probe";
}

TEST(BumpArena, GrowthCountsSlabAllocationsAndPreservesContents) {
  const std::uint64_t slabs_before = arena_slab_allocations();
  BumpArena<int> a;
  for (int i = 0; i < 1000; ++i) a.push(i);
  EXPECT_GT(arena_slab_allocations(), slabs_before);
  for (int i = 0; i < 1000; ++i) {
    ASSERT_EQ(a[static_cast<std::size_t>(i)], i) << "grow lost record " << i;
  }
}

TEST(BumpArena, ReserveThenPushNeverGrows) {
  BumpArena<int> a;
  a.reserve(256);
  const std::uint64_t slabs = arena_slab_allocations();
  for (int i = 0; i < 256; ++i) a.push(i);
  EXPECT_EQ(arena_slab_allocations(), slabs);
}

TEST(BumpArena, MarkDelimitsSegments) {
  BumpArena<int> a;
  a.push(1);
  a.push(2);
  const std::size_t m = a.mark();
  a.push(3);
  a.push(4);
  a.push(5);
  const std::span<const int> seg = a.span(m, a.size() - m);
  ASSERT_EQ(seg.size(), 3u);
  EXPECT_EQ(seg[0], 3);
  EXPECT_EQ(seg[2], 5);
}

TEST(BumpArena, MoveTransfersSlab) {
  BumpArena<int> a;
  for (int i = 0; i < 32; ++i) a.push(i);
  const int* slab = a.data();
  BumpArena<int> b = std::move(a);
  EXPECT_EQ(b.data(), slab);
  ASSERT_EQ(b.size(), 32u);
  EXPECT_EQ(b[31], 31);
}

#if DAPSP_ASAN
TEST(BumpArena, ResetPoisonsRetainedRegion) {
  BumpArena<int> a;
  for (int i = 0; i < 64; ++i) a.push(i);
  const int* slab = a.data();
  EXPECT_FALSE(__asan_address_is_poisoned(slab));
  EXPECT_FALSE(__asan_address_is_poisoned(slab + 63));
  a.reset();
  EXPECT_TRUE(__asan_address_is_poisoned(slab))
      << "reset must poison the retained region so stale spans fault";
  a.push(7);
  EXPECT_FALSE(__asan_address_is_poisoned(slab));
  EXPECT_TRUE(__asan_address_is_poisoned(slab + 1))
      << "only the pushed slot is unpoisoned";
}
#endif

// --- CacheAligned -------------------------------------------------------

TEST(CacheAligned, ElementsNeverShareALine) {
  static_assert(alignof(CacheAligned<std::uint32_t>) == kCacheLineBytes);
  static_assert(sizeof(CacheAligned<std::uint32_t>) % kCacheLineBytes == 0);
  std::vector<CacheAligned<std::uint32_t>> v(4);
  for (std::size_t i = 0; i + 1 < v.size(); ++i) {
    const auto a = reinterpret_cast<std::uintptr_t>(&v[i]);
    const auto b = reinterpret_cast<std::uintptr_t>(&v[i + 1]);
    EXPECT_EQ(a % kCacheLineBytes, 0u);
    EXPECT_GE(b - a, kCacheLineBytes);
  }
}

// --- Bitset -------------------------------------------------------------

TEST(Bitset, SetTestUnset) {
  Bitset b;
  b.resize(200);
  EXPECT_EQ(b.size(), 200u);
  for (std::size_t i = 0; i < 200; ++i) EXPECT_FALSE(b.test(i));
  b.set(0);
  b.set(63);
  b.set(64);
  b.set(199);
  EXPECT_TRUE(b.test(0));
  EXPECT_TRUE(b.test(63));
  EXPECT_TRUE(b.test(64));
  EXPECT_TRUE(b.test(199));
  EXPECT_FALSE(b.test(1));
  EXPECT_FALSE(b.test(128));
  b.unset(64);
  EXPECT_FALSE(b.test(64));
  EXPECT_TRUE(b.test(63));
}

TEST(Bitset, EnsureGrowsWithoutClearing) {
  Bitset b;
  b.resize(64);
  b.set(10);
  b.ensure(1024);
  EXPECT_EQ(b.size(), 1024u);
  EXPECT_TRUE(b.test(10));
  EXPECT_FALSE(b.test(1023));
  b.ensure(512);  // shrinking request is a no-op
  EXPECT_EQ(b.size(), 1024u);
}

TEST(Bitset, ClearPrefixClearsWholeWordsOnly) {
  Bitset b;
  b.resize(256);
  b.set(0);
  b.set(63);
  b.set(127);
  b.set(255);
  b.clear_prefix(64);  // word 0 only
  EXPECT_FALSE(b.test(0));
  EXPECT_FALSE(b.test(63));
  EXPECT_TRUE(b.test(127));
  EXPECT_TRUE(b.test(255));
  b.clear_prefix(65);  // words 0..1
  EXPECT_FALSE(b.test(127));
  EXPECT_TRUE(b.test(255));
  b.clear_all();
  EXPECT_FALSE(b.test(255));
}

// --- Engine steady state ------------------------------------------------

// Constant traffic forever: one 1-field message per edge per round, so
// inbox/outbox/delivery capacities stabilize after the first round and the
// round loop must then run allocation-free.
class Chatter final : public congest::Process {
 public:
  void on_round(congest::RoundCtx& ctx) override {
    heard_ += ctx.inbox().size();
    ctx.send_all(congest::Message::make(1, 1));
  }
  bool done() const override { return false; }

 private:
  std::size_t heard_ = 0;
};

// Far timers that messages pull earlier, forever: a node beacons to its
// neighbors when its timer comes due, then sleeps 8..23 rounds; a message
// heard while asleep pulls the next beacon to 2..4 rounds away, leaving the
// farther timer in the engine's heap as a stale entry until it comes due.
// Gaps depend only on the id and the round, so traffic settles into a cycle
// and its capacities, like Chatter's, reach a fixed point.
class Snoozer final : public congest::Process {
 public:
  explicit Snoozer(NodeId id) : id_(id), next_fire_(1 + id % 16) {}
  void on_round(congest::RoundCtx& ctx) override {
    const std::uint64_t now = ctx.round();
    heard_ += ctx.inbox().size();
    if (!ctx.inbox().empty()) {
      next_fire_ =
          std::min<std::uint64_t>(next_fire_, now + 2 + (id_ + now) % 3);
    }
    if (now < next_fire_) return;
    ctx.send_all(congest::Message::make(1, 1));
    next_fire_ = now + 8 + (id_ + now) % 16;
  }
  bool done() const override { return false; }
  std::uint64_t wake_round(std::uint64_t r) const override {
    return std::max(r, next_fire_);
  }

 private:
  NodeId id_;
  std::uint64_t next_fire_;
  std::size_t heard_ = 0;
};

std::unique_ptr<congest::Process> make_chatter(NodeId) {
  return std::make_unique<Chatter>();
}
std::unique_ptr<congest::Process> make_snoozer(NodeId v) {
  return std::make_unique<Snoozer>(v);
}

TEST(ArenaSteadyState, EngineRoundLoopDoesNotAllocate) {
  // Warm-up lengths: capacities (the timer heap's included) reach their
  // fixed point. Snoozer's rules repeat every 48 rounds and its traffic
  // settles after a start transient, so it gets more than two periods.
  struct Input {
    const char* name;
    std::unique_ptr<congest::Process> (*make)(NodeId);
    std::uint64_t warm_up;
  };
  const Graph g = gen::grid(8, 8);
  for (const Input& in : {Input{"chatter", &make_chatter, 64},
                          Input{"snoozer", &make_snoozer, 128}}) {
    for (const std::uint32_t threads : {1u, 2u}) {
      congest::EngineConfig cfg;
      cfg.threads = threads;
      cfg.max_rounds = 1000000;
      congest::Engine eng(g, cfg);
      eng.init(in.make);

      eng.run_rounds(in.warm_up);

      const std::uint64_t slabs = arena_slab_allocations();
      const std::uint64_t news = heap_allocations();
      eng.run_rounds(256);
      EXPECT_EQ(arena_slab_allocations() - slabs, 0u)
          << in.name << " threads=" << threads
          << ": arena slab grew in steady state";
      EXPECT_EQ(heap_allocations() - news, 0u)
          << in.name << " threads=" << threads
          << ": heap allocation inside the steady-state round loop";
    }
  }
}

// Same property under transport faults: duplication and delay route
// messages through the delay ring, which must also reach a fixed point.
TEST(ArenaSteadyState, FaultyRoundLoopDoesNotAllocate) {
  const Graph g = gen::grid(6, 6);
  congest::EngineConfig cfg;
  cfg.max_rounds = 1000000;
  congest::FaultPlan plan;
  plan.seed = 42;
  plan.drop_prob = 0.1;
  plan.duplicate_prob = 0.2;
  plan.delay_prob = 0.2;
  plan.max_extra_delay = 4;
  cfg.faults = plan;
  congest::Engine eng(g, cfg);
  eng.init([](NodeId) { return std::make_unique<Chatter>(); });

  // Warm-up: under faults the delivery high-water mark drifts up as rare
  // coincidences (duplicates + delayed arrivals landing together) set new
  // maxima, so capacities need longer to reach their fixed point. The fault
  // stream is a pure function of (seed, node, round), so this length is
  // deterministic, not a flakiness knob.
  eng.run_rounds(1024);

  const std::uint64_t slabs = arena_slab_allocations();
  const std::uint64_t news = heap_allocations();
  eng.run_rounds(256);
  EXPECT_EQ(arena_slab_allocations() - slabs, 0u);
  EXPECT_EQ(heap_allocations() - news, 0u);
}

}  // namespace
}  // namespace dapsp
