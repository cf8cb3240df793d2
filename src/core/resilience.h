// Overload robustness for the serving path (DESIGN.md §18): deadline
// budgets, admission control, seeded retry/backoff and brownout — all
// deterministic under a virtual clock. The repair ladder's circuit breaker
// belongs to the service (core/service.h CircuitBreaker).
//
// The paper's discipline is doing APSP inside a hard per-round budget; this
// layer extends that budget-consciousness to the serving tier. Four pieces:
//
//   * ServeStatus — the answer-level status lattice. RowStatus (kExact /
//     kRepaired / kStale) is a *row* property serialized inside DQRY blobs
//     and checkpoints; ServeStatus is what a *request* is told, and adds the
//     overload outcomes: kApproximate (a LabelCache estimate served under
//     brownout — never claims exactness, the PR's status-lattice bugfix),
//     kDeadlineExceeded (the work budget ran out; the answer is a truncated
//     partial result), kShed (admission refused; no answer at all). The two
//     enums are deliberately separate so the wire format never widens.
//
//   * AdmissionController — per-priority-class token bucket (integer
//     micro-token arithmetic, so refill is exact at any virtual-clock step),
//     bounded concurrency, and a bounded-wait FIFO queue. Every refusal is
//     counted by reason (rate / queue-full / queue-wait) — load is shed
//     explicitly, never silently queued.
//
//   * Retry policy — decorrelated jitter (delay uniform in [base, 3*prev],
//     capped), deterministic from a (seed, request, attempt) key using the
//     same keyed-stream construction as the fault injector. Co-located
//     retriers spread out; reruns reproduce byte-for-byte.
//
//   * Brownout + overload simulation — a seeded virtual-clock injector
//     generates an arrival stream (class mix), and run_overload_sim
//     drives it through a real QuerySnapshot with real reads: admission,
//     deadline-budgeted row scans, seeded transient failures + retries, and
//     a brownout ladder that swaps heavy exact row scans for LabelCache
//     estimate rows when the wait queues back up (the label table is
//     O(n*|DOM|) bytes and stays cache-resident under load while the O(n^2)
//     exact tables thrash — modeled as a fixed cell-cost divisor). Every
//     estimate-served answer carries kApproximate. Time is virtual
//     microseconds; work is counted in table cells (WorkBudget) and
//     converted at a fixed cells-per-us rate, so latency curves and shed
//     rates are bit-identical at any thread count and on any host.
//
// SimReport::to_metrics exports a run's counters and the served snapshot's
// staleness as resilience_* counters; scripts/validate_trace.py
// cross-checks the kShed trace events against them.
#pragma once

#include <array>
#include <cstdint>
#include <deque>
#include <optional>
#include <vector>

#include "congest/trace.h"
#include "core/query.h"
#include "core/service.h"
#include "util/metrics.h"

namespace dapsp::core {

// ---- Answer-level status lattice -----------------------------------------

// What a request is told about its answer. Ordered by decreasing claim
// strength; the first three mirror RowStatus, the rest are overload
// outcomes that only this layer can produce.
enum class ServeStatus : std::uint8_t {
  kExact = 0,             // consulted row certified, values exact
  kRepaired = 1,          // certified after an incremental heal
  kStale = 2,             // row certification pending/failed; values served
  kApproximate = 3,       // label-estimate answer (brownout): additive
                          // <= 2k slack, never claims exactness
  kDeadlineExceeded = 4,  // budget ran out; truncated partial result
  kShed = 5,              // admission refused; no result
};

const char* to_string(ServeStatus s) noexcept;

// The row-status embedding. Estimate-sourced answers must NOT go through
// this — they are kApproximate regardless of how fresh the label rows are.
constexpr ServeStatus serve_status_from_row(RowStatus s) noexcept {
  return static_cast<ServeStatus>(s);
}

// ---- Priority classes and admission --------------------------------------

enum class PriorityClass : std::uint8_t {
  kInteractive = 0,  // user-facing point lookups; lowest latency tolerance
  kBatch = 1,        // analytical row scans (k-nearest, ...)
  kBackground = 2,   // scrub-style sweeps (eccentricity, ...)
};

inline constexpr std::size_t kPriorityClassCount = 3;

const char* to_string(PriorityClass c) noexcept;

// Why a request was shed (the kShed trace event's aux value).
enum class ShedReason : std::uint8_t {
  kRate = 0,       // token bucket empty
  kQueueFull = 1,  // wait queue at capacity
  kQueueWait = 2,  // queued longer than the class allows
};

const char* to_string(ShedReason r) noexcept;

struct ClassPolicy {
  // Token-bucket refill rate (tokens per virtual second; 0 = no rate
  // limit) and depth. One admission costs one token.
  std::uint32_t tokens_per_sec = 0;
  std::uint32_t burst = 1;
  // Concurrency bound: requests running at once.
  std::uint32_t max_concurrent = 1;
  // Bounded-wait queue: at most this many requests waiting for a slot
  // (0 = no queue, a full class sheds immediately), each for at most
  // max_wait_us virtual microseconds (0 = no wait bound).
  std::uint32_t max_queue = 0;
  std::uint64_t max_wait_us = 0;
};

struct AdmissionConfig {
  std::array<ClassPolicy, kPriorityClassCount> classes{};

  ClassPolicy& policy(PriorityClass c) {
    return classes[static_cast<std::size_t>(c)];
  }
  const ClassPolicy& policy(PriorityClass c) const {
    return classes[static_cast<std::size_t>(c)];
  }
};

enum class AdmitResult : std::uint8_t {
  kAdmitted = 0,  // a concurrency slot was granted; run now
  kQueued = 1,    // waiting for a slot (bounded queue, bounded wait)
  kShed = 2,      // refused; see reason
};

struct AdmissionDecision {
  AdmitResult result = AdmitResult::kShed;
  ShedReason reason = ShedReason::kRate;  // meaningful only when kShed
};

struct ClassCounters {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;  // granted a slot (directly or via the queue)
  std::uint64_t queued = 0;    // entered the wait queue
  std::uint64_t shed_rate = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_queue_wait = 0;

  std::uint64_t shed_total() const noexcept {
    return shed_rate + shed_queue_full + shed_queue_wait;
  }
};

// Deterministic admission: token bucket + bounded concurrency + bounded
// wait queue per class. Driven by a caller-supplied monotone virtual clock
// in microseconds — never reads wall time. Single-threaded by design (the
// serving loop owns it); determinism is the point.
class AdmissionController {
 public:
  explicit AdmissionController(const AdmissionConfig& config);

  // One request arrives at virtual time now_us. kAdmitted took a slot
  // (pair it with release()); kQueued parked it; kShed counted it.
  AdmissionDecision offer(PriorityClass c, std::uint64_t id,
                          std::uint64_t now_us);

  // A running request of class c finished: frees its slot.
  void release(PriorityClass c);

  struct Ready {
    std::uint64_t id = 0;
    std::uint64_t enqueued_us = 0;
  };

  // Pops the next queued request of class c that can start at now_us, after
  // reaping (and reporting via shed_out, when non-null) every queue entry
  // whose bounded wait expired. Returns nullopt when nothing can start.
  // Expired entries are reaped even when no slot is free, so a stalled
  // class still sheds instead of queueing silently.
  std::optional<Ready> next_ready(PriorityClass c, std::uint64_t now_us,
                                  std::vector<Ready>* shed_out = nullptr);

  std::size_t queue_depth(PriorityClass c) const noexcept;
  std::size_t total_queued() const noexcept;
  const ClassCounters& counters(PriorityClass c) const noexcept;

 private:
  struct Bucket {
    ClassPolicy policy;
    // 1 token = 1'000'000 micro-tokens: refill is integer-exact at any
    // clock step (tokens_per_sec micro-tokens accrue per microsecond).
    std::uint64_t micro_tokens = 0;
    std::uint64_t last_refill_us = 0;
    std::uint32_t running = 0;
    std::deque<Ready> queue;
    ClassCounters counters;
  };

  Bucket& bucket(PriorityClass c) {
    return buckets_[static_cast<std::size_t>(c)];
  }
  const Bucket& bucket(PriorityClass c) const {
    return buckets_[static_cast<std::size_t>(c)];
  }
  void refill(Bucket& b, std::uint64_t now_us);

  std::array<Bucket, kPriorityClassCount> buckets_;
};

// ---- Seeded jittered retry ------------------------------------------------

struct RetryPolicy {
  std::uint32_t max_attempts = 3;  // total tries (first attempt included)
  std::uint64_t base_us = 100;     // jitter floor (0 = retry immediately)
  std::uint64_t cap_us = 10'000;   // envelope ceiling
  std::uint64_t seed = 1;
};

// Backoff before retry `attempt` (1-based) of request `request_id`:
// decorrelated jitter, uniform in [base, min(cap, 3 * max(base, prev_us))],
// deterministic from the (seed, request, attempt) stream; 3 * prev_us
// saturates at the cap instead of overflowing, and base 0 stays 0. prev_us
// is the previous delay of the same request (0 before the first retry).
std::uint64_t retry_delay_us(const RetryPolicy& policy,
                             std::uint64_t request_id, std::uint32_t attempt,
                             std::uint64_t prev_us) noexcept;

// ---- Brownout -------------------------------------------------------------

enum class BrownoutLevel : std::uint8_t {
  kNormal = 0,     // exact answers
  kEstimates = 1,  // heavy row scans served from LabelCache estimate rows,
                   // marked kApproximate
};

struct BrownoutPolicy {
  // Hysteresis on the controller's total queue depth: level rises to
  // kEstimates when depth >= enter_queue_depth (0 disables brownout
  // entirely) and falls back once depth <= exit_queue_depth.
  std::uint32_t enter_queue_depth = 0;
  std::uint32_t exit_queue_depth = 0;
};

class BrownoutController {
 public:
  explicit BrownoutController(const BrownoutPolicy& policy)
      : policy_(policy) {}

  BrownoutLevel update(std::size_t total_queued) noexcept;
  BrownoutLevel level() const noexcept { return level_; }
  std::uint64_t enters() const noexcept { return enters_; }

 private:
  BrownoutPolicy policy_;
  BrownoutLevel level_ = BrownoutLevel::kNormal;
  std::uint64_t enters_ = 0;
};

// ---- Seeded virtual-clock overload injection ------------------------------

// The virtual cost model: one table cell takes 1/kSimCellsPerUs virtual
// microseconds to scan, every request pays a fixed overhead, and a
// brownout-served estimate row costs 1/kSimBrownoutDivisor of the exact
// scan (the label table is O(n*|DOM|) bytes and cache-resident under load;
// the exact tables are O(n^2) and thrash).
inline constexpr std::uint64_t kSimCellsPerUs = 16;
inline constexpr std::uint64_t kSimFixedOverheadUs = 2;
inline constexpr std::uint64_t kSimBrownoutDivisor = 8;

struct OverloadConfig {
  std::uint64_t seed = 1;
  std::uint64_t requests = 10'000;
  // Mean offered load (arrivals per virtual second); interarrivals are
  // uniform in [0, 2 * mean] so the stream is irregular but seeded.
  std::uint64_t arrivals_per_sec = 100'000;
  // Per-request deadline in virtual microseconds (0 = none), converted to a
  // WorkBudget of deadline_us * kSimCellsPerUs cells.
  std::uint64_t deadline_us = 0;
  // Request shapes.
  std::uint32_t batch_pairs = 8;  // pairs per interactive p2p batch
  std::uint32_t k_nearest_k = 4;
  AdmissionConfig admission;
  RetryPolicy retry;
  BrownoutPolicy brownout;
  // Seeded transient failure (snapshot-swap race model) per attempt, in
  // millionths (0 = never, 1'000'000 = always). Drives the retry policy.
  std::uint32_t transient_failure_ppm = 0;
};

// Mean offered arrivals/sec at which the configured class mix exactly
// saturates its concurrency slots — the 1x point of an offered-load curve.
std::uint64_t saturation_arrivals_per_sec(const OverloadConfig& cfg, NodeId n);

struct SimReport {
  std::uint64_t offered = 0;
  std::uint64_t admitted = 0;   // granted a slot at some point
  std::uint64_t completed = 0;  // produced an answer (any ServeStatus)
  std::uint64_t shed_rate = 0;
  std::uint64_t shed_queue_full = 0;
  std::uint64_t shed_queue_wait = 0;
  std::uint64_t exact_served = 0;  // kExact / kRepaired answers
  std::uint64_t stale_served = 0;
  std::uint64_t approximate_served = 0;
  std::uint64_t deadline_truncated = 0;
  std::uint64_t transient_failures = 0;
  std::uint64_t retries = 0;
  std::uint64_t retry_exhausted = 0;  // all attempts failed
  // Structural assertion: answers whose claimed status overstates what was
  // actually served (estimate or truncated result claiming exact). The
  // status plumbing makes this impossible; the counter proves it stayed 0.
  std::uint64_t overclaims = 0;
  std::uint64_t brownout_enters = 0;
  std::uint32_t max_total_queued = 0;
  std::uint64_t end_us = 0;    // virtual time of the last completion
  std::uint64_t digest = 0;    // FNV over the completion stream — the
                               // determinism fingerprint
  // Completion-to-arrival latency of every completed request, per class
  // (unsorted; use quantile_us).
  std::array<std::vector<std::uint64_t>, kPriorityClassCount> latency_us;

  std::uint64_t shed_total() const noexcept {
    return shed_rate + shed_queue_full + shed_queue_wait;
  }
  // Smallest latency l with cdf(l) >= q over the class's completions
  // (0 when the class completed nothing).
  std::uint64_t quantile_us(PriorityClass c, double q) const;

  // The serving tier's health as resilience_* counters: the staleness of
  // `snap` (the snapshot the run served) and this report's admission,
  // shed, deadline, brownout and retry counters — the names
  // scripts/validate_trace.py cross-checks against kShed trace events.
  void to_metrics(MetricsRegistry& reg, const QuerySnapshot& snap) const;
};

// Runs the seeded overload simulation against a real snapshot: virtual
// clock, real reads. Emits one kShed trace event per shed request when
// `trace` is non-null (round = virtual us, monotone). Deterministic:
// identical (snapshot bytes, config) => identical SimReport including the
// digest.
SimReport run_overload_sim(const QuerySnapshot& snap,
                           const OverloadConfig& cfg,
                           congest::TraceLog* trace = nullptr);

}  // namespace dapsp::core
