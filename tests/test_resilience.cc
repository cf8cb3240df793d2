// Overload robustness (core/resilience.h, DESIGN.md §18) and the
// satellites that rode along with it:
//
//   * WorkBudget deadline semantics: budgeted queries stop cell-exact,
//     return honest truncated partials, and the budget-less path is
//     bit-identical to the pre-budget behavior,
//   * the DQRY torn-write sweep: every prefix truncation point of a blob
//     classifies cleanly (never crashes, never mis-serves) — the query-tier
//     mirror of the journal's torn-tail classification sweep,
//   * AdmissionController: integer micro-token refill exactness, bounded
//     concurrency, bounded-wait queue, and the explicit shed accounting
//     identity (offered == admitted + shed + still-queued),
//   * decorrelated-jitter retry delays: envelope bounds, cap saturation,
//     determinism, seed decorrelation (no thundering herd), and spread,
//   * CircuitBreaker state machine, the breaker a live DapspService owns
//     (suppressed epochs, kBreaker trace events,
//     scrub-heals-an-open-breaker), bit-identical at 1/2/8 engine threads,
//   * the seeded virtual-clock overload simulation: deterministic digests,
//     zero overclaims (a brownout estimate or truncated scan never claims
//     kExact — the status-lattice bugfix), kShed trace events matching the
//     counters with monotone timestamps,
//   * SnapshotStore reader-slot exhaustion: bounded spin-yield acquisition
//     under 8+ thread contention and the slots_exhausted metric.
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "core/distance_labels.h"
#include "core/query.h"
#include "core/resilience.h"
#include "core/service.h"
#include "graph/generators.h"
#include "seq/apsp.h"
#include "util/metrics.h"
#include "util/rng.h"

namespace dapsp::core {
namespace {

QuerySnapshot make_snapshot(NodeId n, NodeId extra, std::uint64_t seed,
                            bool with_labels) {
  const Graph g = gen::random_connected(n, extra, seed);
  const DistanceMatrix dist = seq::apsp(g);
  const std::vector<std::uint8_t> active(n, 1);
  const std::vector<RowStatus> status(n, RowStatus::kExact);
  std::unique_ptr<DistanceLabeling> labels;
  if (with_labels) {
    labels = std::make_unique<DistanceLabeling>(build_distance_labels(g, 2));
  }
  return QuerySnapshot::from_blob(encode_query_snapshot_tables(
      dist, nullptr, active, status, /*epoch=*/0, /*sequence=*/0,
      /*degraded=*/false, labels.get()));
}

// ------------------------------------------------ deadline budget semantics

TEST(WorkBudget, GrantChargesAndExhausts) {
  WorkBudget unbounded;
  EXPECT_FALSE(unbounded.exhausted());
  EXPECT_EQ(unbounded.grant(1'000), 1'000u);
  EXPECT_EQ(unbounded.used, 1'000u);

  WorkBudget b;
  b.limit = 10;
  EXPECT_EQ(b.grant(4), 4u);
  EXPECT_EQ(b.remaining(), 6u);
  EXPECT_EQ(b.grant(100), 6u);  // clipped to the remainder
  EXPECT_TRUE(b.exhausted());
  EXPECT_EQ(b.grant(5), 0u);
}

TEST(BudgetedQueries, P2pBatchAnswersThePrefixThatFit) {
  const QuerySnapshot snap = make_snapshot(12, 8, 3, false);
  std::vector<std::pair<NodeId, NodeId>> pairs;
  for (NodeId i = 0; i < 8; ++i) pairs.emplace_back(i, (i + 3) % 12);

  std::vector<QueryAnswer> full;
  snap.p2p_batch(pairs, full, nullptr);
  ASSERT_EQ(full.size(), pairs.size());

  WorkBudget b;
  b.limit = 5;
  std::vector<QueryAnswer> part;
  snap.p2p_batch(pairs, part, &b);
  ASSERT_EQ(part.size(), 5u);  // the answered prefix, cell-exact
  for (std::size_t i = 0; i < part.size(); ++i) {
    EXPECT_EQ(part[i].dist, full[i].dist);
    EXPECT_EQ(part[i].status, full[i].status);
  }
}

TEST(BudgetedQueries, KNearestTruncatesToTheScannedPrefixExactly) {
  const QuerySnapshot snap = make_snapshot(16, 10, 4, false);
  const NodeId u = 5;
  const KNearestAnswer full = snap.k_nearest(u, 4, nullptr);
  EXPECT_FALSE(full.truncated);

  WorkBudget b;
  b.limit = 9;
  const KNearestAnswer part = snap.k_nearest(u, 4, &b);
  ASSERT_TRUE(part.truncated);
  EXPECT_EQ(part.scanned, 9u);
  EXPECT_EQ(b.used, 9u);

  // The truncated answer must be exact over the scanned prefix: recompute
  // the k nearest considering only nodes v < scanned.
  const auto row = snap.dist_row(u);
  std::vector<NearNeighbor> expect;
  for (NodeId v = 0; v < part.scanned; ++v) {
    if (v == u || !snap.active(v) || row[v] == kInfDist) continue;
    expect.push_back({v, row[v]});
  }
  std::sort(expect.begin(), expect.end(), [](const auto& a, const auto& b2) {
    return a.dist != b2.dist ? a.dist < b2.dist : a.node < b2.node;
  });
  if (expect.size() > 4) expect.resize(4);
  ASSERT_EQ(part.nearest.size(), expect.size());
  for (std::size_t i = 0; i < expect.size(); ++i) {
    EXPECT_EQ(part.nearest[i].node, expect[i].node);
    EXPECT_EQ(part.nearest[i].dist, expect[i].dist);
  }
}

TEST(BudgetedQueries, EccentricityTruncationIsAPrefixLowerBound) {
  const QuerySnapshot snap = make_snapshot(16, 10, 5, false);
  const NodeId u = 2;
  const EccentricityAnswer full = snap.eccentricity(u, nullptr);
  EXPECT_FALSE(full.truncated);

  WorkBudget b;
  b.limit = 7;
  const EccentricityAnswer part = snap.eccentricity(u, &b);
  ASSERT_TRUE(part.truncated);
  EXPECT_EQ(part.scanned, 7u);
  EXPECT_LE(part.ecc, full.ecc);

  const auto row = snap.dist_row(u);
  std::uint32_t expect_ecc = 0;
  for (NodeId v = 0; v < part.scanned; ++v) {
    if (v == u || !snap.active(v) || row[v] == kInfDist) continue;
    expect_ecc = std::max(expect_ecc, row[v]);
  }
  EXPECT_EQ(part.ecc, expect_ecc);
}

TEST(BudgetedQueries, AmpleBudgetMatchesTheUnbudgetedAnswer) {
  const QuerySnapshot snap = make_snapshot(12, 6, 6, false);
  WorkBudget b;
  b.limit = 1'000'000;
  const KNearestAnswer with = snap.k_nearest(3, 5, &b);
  const KNearestAnswer without = snap.k_nearest(3, 5, nullptr);
  EXPECT_FALSE(with.truncated);
  ASSERT_EQ(with.nearest.size(), without.nearest.size());
  for (std::size_t i = 0; i < with.nearest.size(); ++i) {
    EXPECT_EQ(with.nearest[i].node, without.nearest[i].node);
    EXPECT_EQ(with.nearest[i].dist, without.nearest[i].dist);
  }
}

// ------------------------------------------------------ DQRY torn-write sweep

// Satellite: the query-tier mirror of the journal's torn-tail sweep. A
// partially persisted (prefix-truncated) DQRY blob must classify cleanly at
// EVERY truncation point — never kNone, never a crash — and from_blob must
// refuse it with an exception rather than mis-serve.
void torn_sweep(bool with_labels) {
  const QuerySnapshot snap = make_snapshot(6, 3, 11, with_labels);
  const std::span<const std::uint8_t> blob = snap.bytes();
  ASSERT_EQ(classify_query_blob(blob), CheckpointError::kNone);

  for (std::size_t len = 0; len < blob.size(); ++len) {
    const auto prefix = blob.first(len);
    const CheckpointError err = classify_query_blob(prefix);
    EXPECT_NE(err, CheckpointError::kNone)
        << "truncation at " << len << "/" << blob.size()
        << " classified as intact (labels=" << with_labels << ")";
    std::vector<std::uint8_t> bytes(prefix.begin(), prefix.end());
    EXPECT_THROW(QuerySnapshot::from_blob(std::move(bytes)),
                 std::runtime_error)
        << "from_blob accepted a torn prefix of " << len << " bytes";
  }
  // And the intact blob still loads.
  std::vector<std::uint8_t> bytes(blob.begin(), blob.end());
  EXPECT_NO_THROW(QuerySnapshot::from_blob(std::move(bytes)));
}

TEST(TornBlob, EveryTruncationPointClassifiesCleanlyNoLabels) {
  torn_sweep(false);
}

TEST(TornBlob, EveryTruncationPointClassifiesCleanlyWithLabels) {
  torn_sweep(true);
}

// ----------------------------------------------------------- admission control

TEST(Admission, TokenBucketRefillIsIntegerExact) {
  AdmissionConfig cfg;
  auto& p = cfg.policy(PriorityClass::kInteractive);
  p.tokens_per_sec = 2;  // one token every 500'000 us
  p.burst = 1;
  p.max_concurrent = 100;
  AdmissionController adm(cfg);

  // The bucket starts full (one burst).
  EXPECT_EQ(adm.offer(PriorityClass::kInteractive, 0, 0).result,
            AdmitResult::kAdmitted);
  auto dec = adm.offer(PriorityClass::kInteractive, 1, 0);
  EXPECT_EQ(dec.result, AdmitResult::kShed);
  EXPECT_EQ(dec.reason, ShedReason::kRate);

  // One microsecond early: still short of a whole token.
  EXPECT_EQ(adm.offer(PriorityClass::kInteractive, 2, 499'999).result,
            AdmitResult::kShed);
  // On the boundary the refill is exact.
  EXPECT_EQ(adm.offer(PriorityClass::kInteractive, 3, 500'000).result,
            AdmitResult::kAdmitted);

  const ClassCounters& c = adm.counters(PriorityClass::kInteractive);
  EXPECT_EQ(c.offered, 4u);
  EXPECT_EQ(c.admitted, 2u);
  EXPECT_EQ(c.shed_rate, 2u);
}

TEST(Admission, ConcurrencyQueueAndQueueFullShed) {
  AdmissionConfig cfg;
  auto& p = cfg.policy(PriorityClass::kBatch);
  p.max_concurrent = 1;
  p.max_queue = 2;
  AdmissionController adm(cfg);

  EXPECT_EQ(adm.offer(PriorityClass::kBatch, 10, 0).result,
            AdmitResult::kAdmitted);
  EXPECT_EQ(adm.offer(PriorityClass::kBatch, 11, 1).result,
            AdmitResult::kQueued);
  EXPECT_EQ(adm.offer(PriorityClass::kBatch, 12, 2).result,
            AdmitResult::kQueued);
  auto dec = adm.offer(PriorityClass::kBatch, 13, 3);
  EXPECT_EQ(dec.result, AdmitResult::kShed);
  EXPECT_EQ(dec.reason, ShedReason::kQueueFull);
  EXPECT_EQ(adm.queue_depth(PriorityClass::kBatch), 2u);

  // Nothing startable while the slot is held.
  EXPECT_FALSE(adm.next_ready(PriorityClass::kBatch, 4).has_value());

  // Release: FIFO order out of the queue.
  adm.release(PriorityClass::kBatch);
  auto r1 = adm.next_ready(PriorityClass::kBatch, 5);
  ASSERT_TRUE(r1.has_value());
  EXPECT_EQ(r1->id, 11u);
  adm.release(PriorityClass::kBatch);
  auto r2 = adm.next_ready(PriorityClass::kBatch, 6);
  ASSERT_TRUE(r2.has_value());
  EXPECT_EQ(r2->id, 12u);

  const ClassCounters& c = adm.counters(PriorityClass::kBatch);
  // The accounting identity: every offer is admitted, shed, or still queued.
  EXPECT_EQ(c.offered, c.admitted + c.shed_total() +
                           adm.queue_depth(PriorityClass::kBatch));
  EXPECT_EQ(c.admitted, 3u);
  EXPECT_EQ(c.queued, 2u);
}

TEST(Admission, BoundedWaitReapsExpiredEntriesEvenWithoutAFreeSlot) {
  AdmissionConfig cfg;
  auto& p = cfg.policy(PriorityClass::kInteractive);
  p.max_concurrent = 1;
  p.max_queue = 4;
  p.max_wait_us = 10;
  AdmissionController adm(cfg);

  EXPECT_EQ(adm.offer(PriorityClass::kInteractive, 0, 0).result,
            AdmitResult::kAdmitted);
  EXPECT_EQ(adm.offer(PriorityClass::kInteractive, 1, 0).result,
            AdmitResult::kQueued);
  EXPECT_EQ(adm.offer(PriorityClass::kInteractive, 2, 8).result,
            AdmitResult::kQueued);

  // At t=11 request 1 (enqueued at 0) is past its wait bound; request 2 is
  // not. The slot is still held — the reap must happen anyway.
  std::vector<AdmissionController::Ready> expired;
  EXPECT_FALSE(
      adm.next_ready(PriorityClass::kInteractive, 11, &expired).has_value());
  ASSERT_EQ(expired.size(), 1u);
  EXPECT_EQ(expired[0].id, 1u);
  EXPECT_EQ(adm.counters(PriorityClass::kInteractive).shed_queue_wait, 1u);

  // Free the slot: request 2 starts.
  adm.release(PriorityClass::kInteractive);
  auto r = adm.next_ready(PriorityClass::kInteractive, 12, &expired);
  ASSERT_TRUE(r.has_value());
  EXPECT_EQ(r->id, 2u);
}

// --------------------------------------------- decorrelated jitter (satellite)

TEST(Jitter, RetryDelayStaysInTheDecorrelatedEnvelope) {
  RetryPolicy p;
  p.base_us = 100;
  p.cap_us = 10'000;
  p.seed = 42;
  std::uint64_t prev = 0;
  for (std::uint32_t attempt = 1; attempt <= 20; ++attempt) {
    const std::uint64_t d = retry_delay_us(p, 7, attempt, prev);
    EXPECT_GE(d, p.base_us);
    EXPECT_LE(d, std::min<std::uint64_t>(
                     p.cap_us, 3 * std::max<std::uint64_t>(p.base_us, prev)));
    prev = d;
  }
  // Zero base means "retry immediately", not "divide by zero".
  RetryPolicy zero;
  zero.base_us = 0;
  EXPECT_EQ(retry_delay_us(zero, 1, 1, 0), 0u);
}

TEST(Jitter, DeterministicPerKeyAndDecorrelatedAcrossSeeds) {
  RetryPolicy a;
  a.seed = 1;
  RetryPolicy b = a;
  b.seed = 2;

  std::size_t diff = 0;
  std::set<std::uint64_t> distinct;
  for (std::uint64_t req = 0; req < 64; ++req) {
    const std::uint64_t da = retry_delay_us(a, req, 1, 0);
    // Same key, same delay — bit-for-bit reproducible.
    EXPECT_EQ(da, retry_delay_us(a, req, 1, 0));
    if (da != retry_delay_us(b, req, 1, 0)) ++diff;
    distinct.insert(da);
  }
  // Two replicas with different seeds must not march in lockstep (the
  // thundering-herd failure mode of the old pure-exponential backoff) ...
  EXPECT_GT(diff, 32u);
  // ... and one replica's delays must actually spread over the envelope.
  EXPECT_GT(distinct.size(), 16u);
}

TEST(Jitter, RetryDelayWidensWithPrevAndSaturatesAtTheCap) {
  // [base, min(cap, 3 * max(base, prev))]: the envelope widens with prev,
  // and a prev far past the cap (3 * prev would overflow) still lands inside
  // [base, cap].
  RetryPolicy p;
  p.base_us = 10;
  p.cap_us = 60'000;
  EXPECT_LE(retry_delay_us(p, 1, 2, 100), 300u);
  const std::uint64_t sat = retry_delay_us(p, 1, 2, ~0ull);
  EXPECT_GE(sat, p.base_us);
  EXPECT_LE(sat, p.cap_us);
  RetryPolicy zero = p;
  zero.base_us = 0;
  EXPECT_EQ(retry_delay_us(zero, 1, 1, ~0ull), 0u);
}

// ------------------------------------------------------------ circuit breaker

TEST(Breaker, OpensAfterConsecutiveFailuresAndCoolsDownToHalfOpen) {
  BreakerConfig cfg;
  cfg.failure_threshold = 3;
  cfg.cooldown_ticks = 5;
  cfg.probe_successes = 1;
  CircuitBreaker br(cfg);

  EXPECT_TRUE(br.allow(1));
  br.record_failure(1);
  br.record_failure(2);
  EXPECT_EQ(br.state(), BreakerState::kClosed);
  // A success resets the streak — only *consecutive* failures open.
  br.record_success(3);
  br.record_failure(4);
  br.record_failure(5);
  EXPECT_EQ(br.state(), BreakerState::kClosed);
  br.record_failure(6);
  EXPECT_EQ(br.state(), BreakerState::kOpen);
  EXPECT_EQ(br.opens(), 1u);

  // Refused during the cooldown, half-open (and admitted) after it.
  EXPECT_FALSE(br.allow(7));
  EXPECT_FALSE(br.allow(10));
  EXPECT_TRUE(br.allow(11));  // 11 - 6 >= 5
  EXPECT_EQ(br.state(), BreakerState::kHalfOpen);

  // The probe succeeds: closed, streak cleared.
  br.record_success(11);
  EXPECT_EQ(br.state(), BreakerState::kClosed);
  EXPECT_EQ(br.consecutive_failures(), 0u);
  // closed -> open -> half-open -> closed.
  EXPECT_EQ(br.transitions(), 3u);
}

TEST(Breaker, HalfOpenFailureReopensAndRestartsTheCooldown) {
  BreakerConfig cfg;
  cfg.failure_threshold = 1;
  cfg.cooldown_ticks = 4;
  CircuitBreaker br(cfg);

  br.record_failure(10);
  EXPECT_EQ(br.state(), BreakerState::kOpen);
  EXPECT_TRUE(br.allow(14));
  EXPECT_EQ(br.state(), BreakerState::kHalfOpen);
  br.record_failure(14);  // the probe failed
  EXPECT_EQ(br.state(), BreakerState::kOpen);
  EXPECT_EQ(br.opens(), 2u);
  EXPECT_FALSE(br.allow(17));  // cooldown restarted at 14
  EXPECT_TRUE(br.allow(18));
}

TEST(Breaker, SuccessWhileOpenClosesDirectly) {
  // The scrub path bypasses allow(); a certified scrub is a full-table
  // heal, so the breaker closes without a probe phase.
  BreakerConfig cfg;
  cfg.failure_threshold = 1;
  cfg.cooldown_ticks = 100;
  CircuitBreaker br(cfg);
  br.record_failure(1);
  EXPECT_EQ(br.state(), BreakerState::kOpen);
  br.record_success(2);
  EXPECT_EQ(br.state(), BreakerState::kClosed);
  EXPECT_TRUE(br.allow(3));
}

TEST(Breaker, MultipleProbeSuccessesRequiredWhenConfigured) {
  BreakerConfig cfg;
  cfg.failure_threshold = 1;
  cfg.cooldown_ticks = 1;
  cfg.probe_successes = 2;
  CircuitBreaker br(cfg);
  br.record_failure(1);
  EXPECT_TRUE(br.allow(2));
  br.record_success(2);
  EXPECT_EQ(br.state(), BreakerState::kHalfOpen);  // one probe is not enough
  br.record_success(3);
  EXPECT_EQ(br.state(), BreakerState::kClosed);
}

// --------------------------------------- breaker wired into the live service

struct BreakerScenario {
  std::vector<congest::TraceEvent> breaker_events;
  std::vector<std::uint8_t> outcomes;  // EpochOutcome per step
  std::uint64_t suppressed = 0;
  std::uint64_t transitions = 0;
  std::vector<std::uint8_t> final_blob;
  bool certified_at_end = false;
};

// The seeded failed-repair scenario from the PR's acceptance bar: two
// strangled epochs open the breaker, a cooldown epoch is suppressed, the
// half-open probe heals the backlog, and a final churn epoch under the
// half-open gate closes it. Runs at a configurable engine thread count.
BreakerScenario run_breaker_scenario(unsigned threads) {
  DapspService healthy(gen::cycle(12), {});
  const std::vector<std::uint8_t> blob = healthy.checkpoint_blob();

  congest::TraceLog trace;
  ServiceConfig sc;
  sc.engine.max_rounds = 2;  // strangle: every ladder rung trips
  sc.breaker = BreakerConfig{/*failure_threshold=*/2, /*cooldown_ticks=*/2,
                             /*probe_successes=*/2};
  sc.engine.threads = threads;
  sc.engine.trace = &trace;
  DapspService svc = DapspService::restore_blob(blob, sc, nullptr);

  BreakerScenario out;
  const auto step_with = [&](ChurnBatch b) {
    const EpochReport ep = svc.step(b);
    out.outcomes.push_back(static_cast<std::uint8_t>(ep.outcome));
  };

  ChurnBatch b1;
  b1.deltas.push_back({DeltaKind::kEdgeRemove, 0, 1});
  step_with(b1);  // strangled repair fails: breaker failure 1 of 2
  ChurnBatch b2;
  b2.deltas.push_back({DeltaKind::kEdgeRemove, 6, 7});
  step_with(b2);  // failure 2: the breaker opens

  step_with({});  // cooldown: repair suppressed, rows stay stale

  // The operator fixes the watchdog; the next allowed epoch is the
  // half-open probe over the carried-over stale backlog.
  svc.set_watchdog_rounds(0);
  step_with({});  // probe 1 of 2 succeeds: still half-open

  ChurnBatch b3;
  b3.deltas.push_back({DeltaKind::kEdgeRemove, 3, 4});
  step_with(b3);  // probe 2 of 2 succeeds: closed

  for (const congest::TraceEvent& ev : trace.events()) {
    if (ev.kind == congest::TraceEventKind::kBreaker) {
      out.breaker_events.push_back(ev);
    }
  }
  out.suppressed = svc.stats().repairs_suppressed;
  out.transitions = svc.stats().breaker_transitions;
  out.certified_at_end = svc.fully_certified();
  out.final_blob = svc.checkpoint_blob();
  return out;
}

TEST(ServiceBreaker, OpensSuppressesHalfOpensAndCloses) {
  const BreakerScenario s = run_breaker_scenario(1);

  const std::vector<std::uint8_t> want_outcomes = {
      static_cast<std::uint8_t>(EpochOutcome::kEscalated),   // strangled
      static_cast<std::uint8_t>(EpochOutcome::kEscalated),   // opens
      static_cast<std::uint8_t>(EpochOutcome::kSuppressed),  // cooldown
      static_cast<std::uint8_t>(EpochOutcome::kRepaired),    // probe 1
      static_cast<std::uint8_t>(EpochOutcome::kRepaired),    // probe 2
  };
  EXPECT_EQ(s.outcomes, want_outcomes);
  EXPECT_EQ(s.suppressed, 1u);
  EXPECT_TRUE(s.certified_at_end);

  // Observed-state changes: closed -> open, open -> half-open, half-open ->
  // closed, each a kBreaker trace event with (node = new, peer = previous).
  ASSERT_EQ(s.breaker_events.size(), 3u);
  EXPECT_EQ(s.breaker_events[0].node, 1u);  // open
  EXPECT_EQ(s.breaker_events[0].peer, 0u);
  EXPECT_EQ(s.breaker_events[1].node, 2u);  // half-open (probe 1 held it)
  EXPECT_EQ(s.breaker_events[1].peer, 1u);
  EXPECT_EQ(s.breaker_events[2].node, 0u);  // closed
  EXPECT_EQ(s.breaker_events[2].peer, 2u);
  EXPECT_EQ(s.transitions, 3u);
  for (std::size_t i = 0; i < s.breaker_events.size(); ++i) {
    EXPECT_EQ(s.breaker_events[i].aux, i + 1);  // cumulative count
  }
}

void expect_same_breaker_events(const std::vector<congest::TraceEvent>& a,
                                const std::vector<congest::TraceEvent>& b) {
  ASSERT_EQ(a.size(), b.size());
  for (std::size_t i = 0; i < a.size(); ++i) {
    EXPECT_EQ(a[i].node, b[i].node);
    EXPECT_EQ(a[i].peer, b[i].peer);
    EXPECT_EQ(a[i].round, b[i].round);
    EXPECT_EQ(a[i].aux, b[i].aux);
  }
}

TEST(ServiceBreaker, ScenarioIsBitIdenticalAtOneTwoEightThreads) {
  const BreakerScenario t1 = run_breaker_scenario(1);
  const BreakerScenario t2 = run_breaker_scenario(2);
  const BreakerScenario t8 = run_breaker_scenario(8);
  EXPECT_EQ(t1.outcomes, t2.outcomes);
  EXPECT_EQ(t1.outcomes, t8.outcomes);
  expect_same_breaker_events(t1.breaker_events, t2.breaker_events);
  expect_same_breaker_events(t1.breaker_events, t8.breaker_events);
  EXPECT_EQ(t1.final_blob, t2.final_blob);
  EXPECT_EQ(t1.final_blob, t8.final_blob);
}

TEST(ServiceBreaker, ScrubHealsAndClosesAnOpenBreaker) {
  DapspService healthy(gen::cycle(10), {});
  const std::vector<std::uint8_t> blob = healthy.checkpoint_blob();

  ServiceConfig sc;
  sc.engine.max_rounds = 2;
  sc.breaker = BreakerConfig{/*failure_threshold=*/1, /*cooldown_ticks=*/100,
                             /*probe_successes=*/1};
  DapspService svc = DapspService::restore_blob(blob, sc, nullptr);

  ChurnBatch b;
  b.deltas.push_back({DeltaKind::kEdgeRemove, 0, 1});
  svc.step(b);
  // Open after one strangled failure.
  EXPECT_EQ(svc.breaker()->state(), BreakerState::kOpen);

  // While open, repairs are suppressed...
  EXPECT_EQ(svc.step({}).outcome, EpochOutcome::kSuppressed);

  // ...but the operator scrub bypasses the gate, heals everything, and its
  // reported success closes the breaker without waiting out the cooldown.
  svc.set_watchdog_rounds(0);
  const EpochReport sep = svc.scrub();
  EXPECT_TRUE(sep.certified);
  EXPECT_EQ(svc.breaker()->state(), BreakerState::kClosed);
  EXPECT_TRUE(svc.fully_certified());
}

// ----------------------------------------------------------- overload sim

OverloadConfig overload_config(std::uint64_t seed) {
  OverloadConfig cfg;
  cfg.seed = seed;
  cfg.requests = 4'000;
  cfg.arrivals_per_sec = 500'000;
  cfg.deadline_us = 3;  // 48 cells: fits a p2p batch, truncates a 64-row
  cfg.batch_pairs = 8;
  cfg.k_nearest_k = 4;

  auto& inter = cfg.admission.policy(PriorityClass::kInteractive);
  inter.max_concurrent = 2;
  inter.max_queue = 8;
  inter.max_wait_us = 200;
  auto& batch = cfg.admission.policy(PriorityClass::kBatch);
  batch.max_concurrent = 1;
  batch.max_queue = 4;
  batch.max_wait_us = 500;
  auto& bg = cfg.admission.policy(PriorityClass::kBackground);
  bg.tokens_per_sec = 50'000;
  bg.burst = 2;
  bg.max_concurrent = 1;
  bg.max_queue = 2;
  bg.max_wait_us = 500;

  cfg.brownout.enter_queue_depth = 4;
  cfg.brownout.exit_queue_depth = 1;

  cfg.retry.max_attempts = 3;
  cfg.retry.base_us = 2;
  cfg.retry.cap_us = 50;
  cfg.retry.seed = seed;
  cfg.transient_failure_ppm = 50'000;  // 5% per attempt
  return cfg;
}

TEST(OverloadSim, DeterministicDigestAndAccountingIdentity) {
  const QuerySnapshot snap = make_snapshot(64, 40, 9, true);
  const OverloadConfig cfg = overload_config(21);

  const SimReport a = run_overload_sim(snap, cfg);
  const SimReport b = run_overload_sim(snap, cfg);
  EXPECT_EQ(a.digest, b.digest);
  EXPECT_EQ(a.end_us, b.end_us);
  EXPECT_EQ(a.shed_total(), b.shed_total());
  EXPECT_EQ(a.approximate_served, b.approximate_served);

  // Every offered request is admitted or explicitly shed — no silent
  // queueing (the queue fully drains by the end of the run).
  EXPECT_EQ(a.offered, cfg.requests);
  EXPECT_EQ(a.offered, a.admitted + a.shed_total());
  EXPECT_EQ(a.completed, a.admitted);
  EXPECT_EQ(a.completed, a.exact_served + a.stale_served +
                             a.approximate_served + a.deadline_truncated);
  // The honesty invariant the whole layer exists for.
  EXPECT_EQ(a.overclaims, 0u);
  // Retry bookkeeping: every transient failure either retried or exhausted.
  EXPECT_EQ(a.transient_failures, a.retries + a.retry_exhausted);

  // A different seed genuinely changes the run.
  const OverloadConfig other = overload_config(22);
  EXPECT_NE(run_overload_sim(snap, other).digest, a.digest);
}

TEST(OverloadSim, OverloadShedsBrownsOutAndTruncatesVisibly) {
  const QuerySnapshot snap = make_snapshot(64, 40, 9, true);
  const OverloadConfig cfg = overload_config(33);
  const SimReport rep = run_overload_sim(snap, cfg);

  // Offered at several times saturation: shedding must be explicit and
  // non-trivial, the brownout must engage, and heavy exact scans that ran
  // under the 3 us deadline must disclose truncation.
  EXPECT_GT(rep.shed_total(), 0u);
  EXPECT_GT(rep.brownout_enters, 0u);
  EXPECT_GT(rep.approximate_served, 0u);
  EXPECT_GT(rep.deadline_truncated, 0u);
  EXPECT_GT(rep.retries, 0u);
  EXPECT_EQ(rep.overclaims, 0u);
  EXPECT_GT(rep.max_total_queued, 0u);
}

TEST(OverloadSim, BrownoutDisabledServesNoEstimates) {
  const QuerySnapshot snap = make_snapshot(64, 40, 9, true);
  OverloadConfig cfg = overload_config(5);
  cfg.brownout = BrownoutPolicy{};  // disabled
  const SimReport rep = run_overload_sim(snap, cfg);
  EXPECT_EQ(rep.approximate_served, 0u);
  EXPECT_EQ(rep.brownout_enters, 0u);
  EXPECT_EQ(rep.overclaims, 0u);
}

TEST(OverloadSim, NoLabelSectionMeansBrownoutFallsBackToExact) {
  // Without a label section the brownout ladder has nothing to downgrade
  // to: heavy queries stay exact (and pay for it), never kApproximate.
  const QuerySnapshot snap = make_snapshot(64, 40, 9, false);
  const SimReport rep = run_overload_sim(snap, overload_config(5));
  EXPECT_EQ(rep.approximate_served, 0u);
  EXPECT_EQ(rep.overclaims, 0u);
}

TEST(OverloadSim, ShedTraceEventsMatchCountersAndStayMonotone) {
  const QuerySnapshot snap = make_snapshot(64, 40, 9, true);
  const OverloadConfig cfg = overload_config(44);
  congest::TraceLog trace;
  const SimReport rep = run_overload_sim(snap, cfg, &trace);

  std::uint64_t shed_events = 0;
  std::uint64_t last_round = 0;
  for (const congest::TraceEvent& ev : trace.events()) {
    ASSERT_EQ(ev.kind, congest::TraceEventKind::kShed);
    ++shed_events;
    EXPECT_LE(ev.peer, 2u);  // priority class
    EXPECT_LE(ev.aux, 2u);   // shed reason
    EXPECT_GE(ev.round, last_round) << "shed timestamps must be monotone";
    last_round = ev.round;
  }
  EXPECT_EQ(shed_events, rep.shed_total());
  EXPECT_GT(shed_events, 0u);
}

// The sim's figures for three fixed configs, pinned: a change to the
// arrival stream, the admission/brownout/retry schedule or any answer value
// moves the digest.
struct SimGolden {
  std::uint64_t digest, completed, shed, approximate, truncated, retries,
      end_us;
};

void expect_sim_golden(const SimReport& rep, const SimGolden& want) {
  EXPECT_EQ(rep.digest, want.digest);
  EXPECT_EQ(rep.completed, want.completed);
  EXPECT_EQ(rep.shed_total(), want.shed);
  EXPECT_EQ(rep.approximate_served, want.approximate);
  EXPECT_EQ(rep.deadline_truncated, want.truncated);
  EXPECT_EQ(rep.retries, want.retries);
  EXPECT_EQ(rep.end_us, want.end_us);
}

TEST(OverloadSim, GoldenRunsPinTheDigest) {
  const QuerySnapshot labeled = make_snapshot(64, 40, 9, true);
  // Labels, brownout and retries on.
  expect_sim_golden(run_overload_sim(labeled, overload_config(33)),
                    {0xfdf9c26d14c6fe2bULL, 3871, 129, 9, 1113, 204, 8029});
  // Brownout off.
  OverloadConfig no_brownout = overload_config(5);
  no_brownout.brownout = BrownoutPolicy{};
  expect_sim_golden(run_overload_sim(labeled, no_brownout),
                    {0x8e53a15360423aeeULL, 3904, 96, 0, 1075, 194, 7848});
  // No label section: the brownout has nothing to serve from, so the run
  // is the brownout-off run of the same seed.
  const QuerySnapshot bare = make_snapshot(64, 40, 9, false);
  expect_sim_golden(run_overload_sim(bare, overload_config(5)),
                    {0x8e53a15360423aeeULL, 3904, 96, 0, 1075, 194, 7848});
}

TEST(OverloadSim, UnloadedRunShedsNothing) {
  const QuerySnapshot snap = make_snapshot(32, 20, 9, true);
  OverloadConfig cfg = overload_config(7);
  cfg.requests = 500;
  cfg.transient_failure_ppm = 0;
  // Far below saturation for every class; disable the background rate cap.
  cfg.admission.policy(PriorityClass::kBackground).tokens_per_sec = 0;
  cfg.arrivals_per_sec = saturation_arrivals_per_sec(cfg, 32) / 8;
  const SimReport rep = run_overload_sim(snap, cfg);
  EXPECT_EQ(rep.shed_total(), 0u);
  EXPECT_EQ(rep.admitted, rep.offered);
  EXPECT_EQ(rep.overclaims, 0u);
}

TEST(OverloadSim, ToMetricsExportsTheReportAndTheSnapshot) {
  const QuerySnapshot snap = make_snapshot(64, 40, 9, true);
  const SimReport rep = run_overload_sim(snap, overload_config(3));

  MetricsRegistry reg;
  rep.to_metrics(reg, snap);
  std::map<std::string, std::uint64_t> got;
  for (const auto& [name, value] : reg.counters()) got[name] = value;

  EXPECT_EQ(got.size(), 15u);
  EXPECT_EQ(got.at("resilience_offered"), rep.offered);
  EXPECT_EQ(got.at("resilience_shed_total"), rep.shed_total());
  EXPECT_EQ(got.at("resilience_approximate_served"), rep.approximate_served);
  EXPECT_EQ(got.at("resilience_brownout_enters"), rep.brownout_enters);
  EXPECT_EQ(got.at("resilience_snapshot_epoch"), snap.epoch());
  // The static snapshot is all-exact.
  EXPECT_EQ(got.at("resilience_stale_rows"), 0u);
}

TEST(ServeStatusLattice, NamesAndRowEmbedding) {
  EXPECT_EQ(serve_status_from_row(RowStatus::kExact), ServeStatus::kExact);
  EXPECT_EQ(serve_status_from_row(RowStatus::kRepaired),
            ServeStatus::kRepaired);
  EXPECT_EQ(serve_status_from_row(RowStatus::kStale), ServeStatus::kStale);
  EXPECT_STREQ(to_string(ServeStatus::kApproximate), "approximate");
  EXPECT_STREQ(to_string(ServeStatus::kDeadlineExceeded),
               "deadline-exceeded");
  EXPECT_STREQ(to_string(ServeStatus::kShed), "shed");
  EXPECT_STREQ(to_string(BreakerState::kHalfOpen), "half-open");
  EXPECT_STREQ(to_string(PriorityClass::kBackground), "background");
  EXPECT_STREQ(to_string(ShedReason::kQueueWait), "queue-wait");
}

// ------------------------------------- reader-slot exhaustion (satellite)

TEST(ReaderSlots, ExhaustionThrowsAfterTheSpinBudgetAndCounts) {
  SnapshotStore store;
  std::vector<std::unique_ptr<SnapshotReader>> readers;
  for (std::size_t i = 0; i < kMaxSnapshotReaders; ++i) {
    readers.push_back(std::make_unique<SnapshotReader>(store));
  }
  EXPECT_EQ(store.slots_exhausted(), 0u);
  EXPECT_THROW(SnapshotReader(store, /*max_spins=*/4), std::runtime_error);
  // Counted once per contended registration, not once per sweep.
  EXPECT_EQ(store.slots_exhausted(), 1u);
  EXPECT_THROW(SnapshotReader(store, /*max_spins=*/4), std::runtime_error);
  EXPECT_EQ(store.slots_exhausted(), 2u);
}

TEST(ReaderSlots, SpinYieldOutlastsATransientFullHouse) {
  SnapshotStore store;
  std::vector<std::unique_ptr<SnapshotReader>> readers;
  for (std::size_t i = 0; i < kMaxSnapshotReaders; ++i) {
    readers.push_back(std::make_unique<SnapshotReader>(store));
  }

  // A late reader spins while the house is full; once one slot frees it
  // must claim it instead of throwing.
  std::thread late([&store] {
    SnapshotReader reader(store, /*max_spins=*/100'000'000);
    SnapshotRef ref = reader.acquire();  // empty store: just exercises it
    EXPECT_FALSE(ref);
  });
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  readers.pop_back();  // free one slot
  late.join();
  EXPECT_GE(store.slots_exhausted(), 1u);
}

TEST(ReaderSlots, EightThreadChurnOverASaturatedStoreNeverFailsSpuriously) {
  SnapshotStore store;
  // 60 persistent readers leave 4 slots for 8 churning threads: every
  // construction contends, many sweeps find the house momentarily full.
  std::vector<std::unique_ptr<SnapshotReader>> persistent;
  for (std::size_t i = 0; i < kMaxSnapshotReaders - 4; ++i) {
    persistent.push_back(std::make_unique<SnapshotReader>(store));
  }

  std::vector<std::thread> churn;
  for (unsigned t = 0; t < 8; ++t) {
    churn.emplace_back([&store] {
      for (int i = 0; i < 400; ++i) {
        SnapshotReader reader(store, /*max_spins=*/100'000'000);
        SnapshotRef ref = reader.acquire();
      }
    });
  }
  for (std::thread& th : churn) th.join();
  // No throw above is the assertion; the store must still be functional.
  EXPECT_NO_THROW({ SnapshotReader after(store); });
}

}  // namespace
}  // namespace dapsp::core
