#include "core/resilience.h"

#include <algorithm>
#include <cmath>
#include <queue>
#include <utility>

#include "util/blob.h"
#include "util/rng.h"

namespace dapsp::core {

namespace {

// One jitter draw: uniform in [lo, hi] inclusive, deterministic from the
// (seed, a, b) key — the same keyed-stream construction as the fault
// injector's per-(node, round) RNG streams (congest/faults.cc), so adjacent
// keys share no affine structure. lo > hi answers lo.
std::uint64_t jitter_between(std::uint64_t lo, std::uint64_t hi,
                             std::uint64_t seed, std::uint64_t a,
                             std::uint64_t b) noexcept {
  if (hi <= lo) return lo;
  return lo + keyed_rng(seed, a, b).below(hi - lo + 1);
}

// Decorrelated-jitter backoff (the AWS "decorrelated jitter" shape): a draw
// uniform in [min(base, cap), min(3 * min(max(base, prev), cap), cap)],
// keyed by (seed, a, b); 3 * prev saturates at the cap instead of
// overflowing. base == 0 stays 0. Feed the previous delay back in as prev to
// grow the envelope across a failure streak.
std::uint64_t decorrelated_jitter(std::uint64_t base, std::uint64_t prev,
                                  std::uint64_t cap, std::uint64_t seed,
                                  std::uint64_t a, std::uint64_t b) noexcept {
  if (base == 0) return 0;
  const std::uint64_t lo = std::min(base, cap);
  const std::uint64_t anchor = std::min(std::max(base, prev), cap);
  // 3 * anchor, saturating at the cap without computing a product past it.
  const std::uint64_t hi = anchor > cap / 3 ? cap : anchor * 3;
  return jitter_between(lo, hi, seed, a, b);
}

}  // namespace

// ---- Status / enum names ---------------------------------------------------

const char* to_string(ServeStatus s) noexcept {
  switch (s) {
    case ServeStatus::kExact: return "exact";
    case ServeStatus::kRepaired: return "repaired";
    case ServeStatus::kStale: return "stale";
    case ServeStatus::kApproximate: return "approximate";
    case ServeStatus::kDeadlineExceeded: return "deadline-exceeded";
    case ServeStatus::kShed: return "shed";
  }
  return "?";
}

const char* to_string(PriorityClass c) noexcept {
  switch (c) {
    case PriorityClass::kInteractive: return "interactive";
    case PriorityClass::kBatch: return "batch";
    case PriorityClass::kBackground: return "background";
  }
  return "?";
}

const char* to_string(ShedReason r) noexcept {
  switch (r) {
    case ShedReason::kRate: return "rate-limited";
    case ShedReason::kQueueFull: return "queue-full";
    case ShedReason::kQueueWait: return "queue-wait";
  }
  return "?";
}

// ---- AdmissionController ---------------------------------------------------

AdmissionController::AdmissionController(const AdmissionConfig& config) {
  for (std::size_t i = 0; i < kPriorityClassCount; ++i) {
    buckets_[i].policy = config.classes[i];
    // Start full: a fresh controller admits up to one burst immediately.
    buckets_[i].micro_tokens =
        std::uint64_t{buckets_[i].policy.burst} * 1'000'000;
  }
}

void AdmissionController::refill(Bucket& b, std::uint64_t now_us) {
  if (b.policy.tokens_per_sec == 0) return;
  if (now_us <= b.last_refill_us) return;
  const std::uint64_t elapsed = now_us - b.last_refill_us;
  // tokens_per_sec tokens per 1e6 us == tokens_per_sec micro-tokens per us:
  // the refill is integer-exact at any clock step.
  const std::uint64_t cap = std::uint64_t{b.policy.burst} * 1'000'000;
  const std::uint64_t add = elapsed * b.policy.tokens_per_sec;
  b.micro_tokens = std::min(cap, b.micro_tokens + add);
  b.last_refill_us = now_us;
}

AdmissionDecision AdmissionController::offer(PriorityClass c, std::uint64_t id,
                                             std::uint64_t now_us) {
  Bucket& b = bucket(c);
  ++b.counters.offered;
  refill(b, now_us);
  if (b.policy.tokens_per_sec != 0) {
    if (b.micro_tokens < 1'000'000) {
      ++b.counters.shed_rate;
      return {AdmitResult::kShed, ShedReason::kRate};
    }
    b.micro_tokens -= 1'000'000;
  }
  if (b.running < b.policy.max_concurrent) {
    ++b.running;
    ++b.counters.admitted;
    return {AdmitResult::kAdmitted, ShedReason::kRate};
  }
  if (b.queue.size() < b.policy.max_queue) {
    b.queue.push_back(Ready{id, now_us});
    ++b.counters.queued;
    return {AdmitResult::kQueued, ShedReason::kRate};
  }
  ++b.counters.shed_queue_full;
  return {AdmitResult::kShed, ShedReason::kQueueFull};
}

void AdmissionController::release(PriorityClass c) {
  Bucket& b = bucket(c);
  if (b.running > 0) --b.running;
}

std::optional<AdmissionController::Ready> AdmissionController::next_ready(
    PriorityClass c, std::uint64_t now_us, std::vector<Ready>* shed_out) {
  Bucket& b = bucket(c);
  while (!b.queue.empty()) {
    const Ready front = b.queue.front();
    if (b.policy.max_wait_us != 0 &&
        now_us - front.enqueued_us > b.policy.max_wait_us) {
      b.queue.pop_front();
      ++b.counters.shed_queue_wait;
      if (shed_out != nullptr) shed_out->push_back(front);
      continue;
    }
    if (b.running >= b.policy.max_concurrent) return std::nullopt;
    b.queue.pop_front();
    ++b.running;
    ++b.counters.admitted;
    return front;
  }
  return std::nullopt;
}

std::size_t AdmissionController::queue_depth(PriorityClass c) const noexcept {
  return bucket(c).queue.size();
}

std::size_t AdmissionController::total_queued() const noexcept {
  std::size_t total = 0;
  for (const Bucket& b : buckets_) total += b.queue.size();
  return total;
}

const ClassCounters& AdmissionController::counters(
    PriorityClass c) const noexcept {
  return bucket(c).counters;
}

// ---- Retry -----------------------------------------------------------------

std::uint64_t retry_delay_us(const RetryPolicy& policy,
                             std::uint64_t request_id, std::uint32_t attempt,
                             std::uint64_t prev_us) noexcept {
  return decorrelated_jitter(policy.base_us, prev_us, policy.cap_us,
                             policy.seed ^ 0x72657472794a4954ULL, request_id,
                             attempt);
}

// ---- Brownout --------------------------------------------------------------

BrownoutLevel BrownoutController::update(std::size_t total_queued) noexcept {
  if (policy_.enter_queue_depth == 0) return level_;  // disabled
  if (level_ == BrownoutLevel::kNormal) {
    if (total_queued >= policy_.enter_queue_depth) {
      level_ = BrownoutLevel::kEstimates;
      ++enters_;
    }
  } else if (total_queued <= policy_.exit_queue_depth) {
    level_ = BrownoutLevel::kNormal;
  }
  return level_;
}

// ---- Arrival stream --------------------------------------------------------

namespace {

// One synthetic request. Its class sets its shape, so the classes have
// genuinely different cost profiles: interactive -> p2p batch, batch ->
// k-nearest of u, background -> eccentricity of u.
struct SimRequest {
  std::uint64_t id = 0;
  std::uint64_t at_us = 0;  // virtual arrival time
  PriorityClass cls = PriorityClass::kInteractive;
  NodeId u = 0;  // source node (k-nearest / eccentricity)
};

// The deterministic arrival stream for a config (sorted by at_us; ids are
// the stream position). Pure function of (config, n).
std::vector<SimRequest> generate_overload_arrivals(const OverloadConfig& cfg,
                                                   NodeId n) {
  std::vector<SimRequest> out;
  out.reserve(cfg.requests);
  Rng rng(mix64(cfg.seed ^ 0x6f766572'6c6f6164ULL));  // "overload"
  const std::uint64_t rate = std::max<std::uint64_t>(1, cfg.arrivals_per_sec);
  // Gaps accumulate in milli-microseconds so rates above 1M/s (mean gap
  // under 1 us) still produce the right AVERAGE rate instead of collapsing
  // every arrival onto t = 0; the clock the sim sees stays integer us.
  const std::uint64_t mean_gap_mus = 1'000'000'000 / rate;
  std::uint64_t t_mus = 0;
  for (std::uint64_t i = 0; i < cfg.requests; ++i) {
    t_mus += mean_gap_mus == 0 ? 0 : rng.below(2 * mean_gap_mus + 1);
    SimRequest r;
    r.id = i;
    r.at_us = t_mus / 1'000;
    // 70/20/10 class mix.
    const std::uint64_t d = rng.below(10);
    r.cls = d < 7 ? PriorityClass::kInteractive
                  : (d < 9 ? PriorityClass::kBatch : PriorityClass::kBackground);
    r.u = static_cast<NodeId>(rng.below(n));
    out.push_back(r);
  }
  return out;
}

// Virtual cells one exact request of the given class scans (before any
// deadline cap).
std::uint64_t exact_cells(const OverloadConfig& cfg, PriorityClass cls,
                          NodeId n) {
  return cls == PriorityClass::kInteractive ? cfg.batch_pairs : n;
}

std::uint64_t service_us_for_cells(std::uint64_t cells) {
  return kSimFixedOverheadUs + (cells + kSimCellsPerUs - 1) / kSimCellsPerUs;
}

}  // namespace

std::uint64_t saturation_arrivals_per_sec(const OverloadConfig& cfg,
                                          NodeId n) {
  // Class mix in tenths (matches generate_overload_arrivals).
  constexpr std::uint64_t kMixTenths[kPriorityClassCount] = {7, 2, 1};
  const std::uint64_t deadline_cells =
      cfg.deadline_us == 0 ? ~std::uint64_t{0}
                           : cfg.deadline_us * kSimCellsPerUs;
  std::uint64_t saturation = ~std::uint64_t{0};
  for (std::size_t c = 0; c < kPriorityClassCount; ++c) {
    const std::uint64_t cells = std::min(
        deadline_cells, exact_cells(cfg, static_cast<PriorityClass>(c), n));
    const std::uint64_t svc_us = service_us_for_cells(cells);
    const std::uint32_t conc = cfg.admission.classes[c].max_concurrent;
    // Requests/sec this class can complete, scaled to the offered rate that
    // sends it exactly that much (offered * mix/10 == capacity).
    const std::uint64_t capacity = std::uint64_t{conc} * 1'000'000 / svc_us;
    saturation = std::min(saturation, capacity * 10 / kMixTenths[c]);
  }
  return saturation;
}

// ---- SimReport -------------------------------------------------------------

std::uint64_t SimReport::quantile_us(PriorityClass c, double q) const {
  const auto& v = latency_us[static_cast<std::size_t>(c)];
  if (v.empty()) return 0;
  std::vector<std::uint64_t> sorted(v);
  std::sort(sorted.begin(), sorted.end());
  std::uint64_t rank =
      static_cast<std::uint64_t>(std::ceil(q * static_cast<double>(sorted.size())));
  rank = std::clamp<std::uint64_t>(rank, 1, sorted.size());
  return sorted[rank - 1];
}

void SimReport::to_metrics(MetricsRegistry& reg,
                           const QuerySnapshot& snap) const {
  std::uint64_t stale_rows = 0;
  for (NodeId v = 0; v < snap.n(); ++v) {
    if (snap.active(v) && snap.status(v) == RowStatus::kStale) ++stale_rows;
  }
  reg.counter("resilience_snapshot_epoch") = snap.epoch();
  reg.counter("resilience_snapshot_sequence") = snap.sequence();
  reg.counter("resilience_stale_rows") = stale_rows;
  reg.counter("resilience_degraded") = snap.degraded() ? 1 : 0;
  reg.counter("resilience_offered") = offered;
  reg.counter("resilience_admitted") = admitted;
  reg.counter("resilience_shed_rate") = shed_rate;
  reg.counter("resilience_shed_queue_full") = shed_queue_full;
  reg.counter("resilience_shed_queue_wait") = shed_queue_wait;
  reg.counter("resilience_shed_total") = shed_total();
  reg.counter("resilience_deadline_truncated") = deadline_truncated;
  reg.counter("resilience_approximate_served") = approximate_served;
  reg.counter("resilience_retries") = retries;
  reg.counter("resilience_retry_exhausted") = retry_exhausted;
  reg.counter("resilience_brownout_enters") = brownout_enters;
}

// ---- Overload simulation ---------------------------------------------------

namespace {

// The answer of one executed attempt: digest material + honesty markers.
struct ExecResult {
  ServeStatus status = ServeStatus::kStale;
  bool truncated = false;  // deadline partial result
  bool estimate = false;   // served from the label section
  std::uint64_t cells = 0;
  std::uint64_t payload = 0;  // digest contribution (answer values)
};

// Executes one request against the snapshot for real: the values that feed
// the digest come from actual table/label reads, so the sim exercises the
// same code paths the server does.
ExecResult execute_request(const QuerySnapshot& snap, const OverloadConfig& cfg,
                           const SimRequest& r, BrownoutLevel level,
                           LabelCache& cache) {
  ExecResult res;
  const NodeId n = snap.n();
  WorkBudget budget;
  budget.limit = cfg.deadline_us == 0 ? 0 : cfg.deadline_us * kSimCellsPerUs;
  const bool brownout_served = level == BrownoutLevel::kEstimates &&
                               r.cls != PriorityClass::kInteractive &&
                               snap.has_labels();
  std::uint64_t payload = kFnv1a64Basis;
  if (r.cls == PriorityClass::kInteractive) {
    // Interactive point-to-point batch: cfg.batch_pairs seeded endpoints.
    Rng pr = keyed_rng(cfg.seed, 0x70327062ULL, r.id);  // "p2pb"
    std::vector<std::pair<NodeId, NodeId>> pairs;
    pairs.reserve(cfg.batch_pairs);
    for (std::uint32_t i = 0; i < cfg.batch_pairs; ++i) {
      pairs.emplace_back(static_cast<NodeId>(pr.below(n)),
                         static_cast<NodeId>(pr.below(n)));
    }
    std::vector<QueryAnswer> out;
    snap.p2p_batch(pairs, out, &budget);
    RowStatus worst = RowStatus::kExact;
    for (const QueryAnswer& a : out) {
      worst = std::max(worst, a.status);
      payload = fnv1a64_u64(payload, a.dist);
      payload = fnv1a64_u64(payload, a.next_hop);
    }
    res.truncated = out.size() < pairs.size();
    res.status = res.truncated ? ServeStatus::kDeadlineExceeded
                               : serve_status_from_row(worst);
    res.cells = budget.used;
  } else {
    // A heavy row scan of u: k-nearest (batch) or eccentricity
    // (background). Under brownout it scans the LabelCache estimate row at
    // the exact scan's cost divided by kSimBrownoutDivisor (the label table
    // stays cache-resident; the n^2 tables thrash), and the answer NEVER
    // claims exactness — kApproximate end to end.
    RowStatus status = RowStatus::kStale;
    if (r.cls == PriorityClass::kBatch) {
      const KNearestAnswer ans =
          brownout_served
              ? snap.k_nearest_in_row(r.u, cfg.k_nearest_k, cache.row(snap, r.u))
              : snap.k_nearest(r.u, cfg.k_nearest_k, &budget);
      for (const NearNeighbor& nb : ans.nearest) {
        payload = fnv1a64_u64(payload, nb.node);
        payload = fnv1a64_u64(payload, nb.dist);
      }
      res.truncated = ans.truncated;
      status = ans.status;
    } else {
      const EccentricityAnswer ans =
          brownout_served ? snap.eccentricity_in_row(r.u, cache.row(snap, r.u))
                          : snap.eccentricity(r.u, &budget);
      payload = fnv1a64_u64(payload, ans.ecc);
      payload = fnv1a64_u64(payload, ans.unreachable);
      res.truncated = ans.truncated;
      status = ans.status;
    }
    res.status = res.truncated ? ServeStatus::kDeadlineExceeded
                               : serve_status_from_row(status);
    res.cells = budget.used;
    if (brownout_served) {
      res.estimate = true;
      res.status = ServeStatus::kApproximate;
      res.cells =
          std::max<std::uint64_t>(1, std::uint64_t{n} / kSimBrownoutDivisor);
    }
  }
  res.payload = payload;
  return res;
}

struct Completion {
  std::uint64_t finish_us = 0;
  std::uint64_t seq = 0;  // deterministic heap tie-break: start order
  SimRequest req;
  ExecResult exec;
  std::uint32_t attempts = 1;
  bool exhausted = false;  // every attempt hit a transient failure
};

struct CompletionLater {
  bool operator()(const Completion& a, const Completion& b) const {
    if (a.finish_us != b.finish_us) return a.finish_us > b.finish_us;
    return a.seq > b.seq;
  }
};

}  // namespace

SimReport run_overload_sim(const QuerySnapshot& snap, const OverloadConfig& cfg,
                           congest::TraceLog* trace) {
  const std::vector<SimRequest> arrivals = generate_overload_arrivals(cfg, snap.n());
  AdmissionController adm(cfg.admission);
  BrownoutController brown(cfg.brownout);
  LabelCache cache(128);
  std::priority_queue<Completion, std::vector<Completion>, CompletionLater> heap;

  SimReport rep;
  rep.offered = arrivals.size();
  rep.digest = kFnv1a64Basis;
  std::uint64_t start_seq = 0;

  const auto shed = [&](std::uint64_t id, PriorityClass cls,
                        std::uint64_t decision_us, ShedReason reason) {
    switch (reason) {
      case ShedReason::kRate: ++rep.shed_rate; break;
      case ShedReason::kQueueFull: ++rep.shed_queue_full; break;
      case ShedReason::kQueueWait: ++rep.shed_queue_wait; break;
    }
    if (trace != nullptr) {
      congest::TraceEvent ev;
      ev.kind = congest::TraceEventKind::kShed;
      ev.node = static_cast<NodeId>(id & 0xffffffffu);
      ev.peer = static_cast<NodeId>(cls);
      ev.round = decision_us;  // monotone: the shed-decision instant
      ev.aux = static_cast<std::uint32_t>(reason);
      trace->append(ev);
    }
  };

  // Grants a slot at start_us: runs the request (with seeded transient
  // failures + decorrelated-jitter retries) and schedules its completion.
  const auto start_request = [&](const SimRequest& r, std::uint64_t start_us) {
    const BrownoutLevel level = brown.level();
    Completion c;
    c.req = r;
    c.seq = start_seq++;
    c.exec = execute_request(snap, cfg, r, level, cache);
    const std::uint64_t svc_us = service_us_for_cells(c.exec.cells);
    std::uint64_t total_us = 0;
    std::uint64_t prev_delay = 0;
    const std::uint32_t max_attempts = std::max(1u, cfg.retry.max_attempts);
    for (std::uint32_t attempt = 1;; ++attempt) {
      total_us += svc_us;
      const bool fails =
          cfg.transient_failure_ppm != 0 &&
          jitter_between(0, 999'999, cfg.seed ^ 0x7377617052414345ULL, r.id,
                         attempt) < cfg.transient_failure_ppm;
      if (!fails) break;
      ++rep.transient_failures;
      if (attempt >= max_attempts) {
        // Out of attempts: the answer raced snapshot swaps every time, so
        // it is served but never as certified-fresh.
        c.exhausted = true;
        if (c.exec.status == ServeStatus::kExact ||
            c.exec.status == ServeStatus::kRepaired) {
          c.exec.status = ServeStatus::kStale;
        }
        break;
      }
      const std::uint64_t delay =
          retry_delay_us(cfg.retry, r.id, attempt, prev_delay);
      prev_delay = delay;
      total_us += delay;
      ++rep.retries;
      c.attempts = attempt + 1;
    }
    c.finish_us = start_us + total_us;
    heap.push(std::move(c));
  };

  const auto complete_one = [&](const Completion& c) {
    ++rep.completed;
    switch (c.exec.status) {
      case ServeStatus::kExact:
      case ServeStatus::kRepaired: ++rep.exact_served; break;
      case ServeStatus::kStale: ++rep.stale_served; break;
      case ServeStatus::kApproximate: ++rep.approximate_served; break;
      case ServeStatus::kDeadlineExceeded: ++rep.deadline_truncated; break;
      case ServeStatus::kShed: break;  // unreachable: shed never starts
    }
    // The structural honesty check: an answer built from an estimate row or
    // a truncated scan must never claim exactness.
    if ((c.exec.status == ServeStatus::kExact ||
         c.exec.status == ServeStatus::kRepaired) &&
        (c.exec.estimate || c.exec.truncated)) {
      ++rep.overclaims;
    }
    if (c.exhausted) ++rep.retry_exhausted;
    rep.latency_us[static_cast<std::size_t>(c.req.cls)].push_back(
        c.finish_us - c.req.at_us);
    rep.end_us = std::max(rep.end_us, c.finish_us);
    rep.digest = fnv1a64_u64(rep.digest, c.req.id);
    rep.digest = fnv1a64_u64(rep.digest,
                             static_cast<std::uint64_t>(c.exec.status));
    rep.digest = fnv1a64_u64(rep.digest, c.exec.payload);
    // The freed slot may start queued work of the same class.
    adm.release(c.req.cls);
    std::vector<AdmissionController::Ready> expired;
    while (auto ready = adm.next_ready(c.req.cls, c.finish_us, &expired)) {
      start_request(arrivals[ready->id], c.finish_us);
    }
    for (const auto& ex : expired) {
      shed(ex.id, c.req.cls, c.finish_us, ShedReason::kQueueWait);
    }
    brown.update(adm.total_queued());
  };

  for (const SimRequest& r : arrivals) {
    while (!heap.empty() && heap.top().finish_us <= r.at_us) {
      const Completion c = heap.top();
      heap.pop();
      complete_one(c);
    }
    // Reap wait-expired queue entries (all classes) at the arrival instant:
    // a stalled class sheds on schedule even with no completion in sight.
    for (std::size_t ci = 0; ci < kPriorityClassCount; ++ci) {
      const auto cls = static_cast<PriorityClass>(ci);
      std::vector<AdmissionController::Ready> expired;
      while (auto ready = adm.next_ready(cls, r.at_us, &expired)) {
        start_request(arrivals[ready->id], r.at_us);
      }
      for (const auto& ex : expired) {
        shed(ex.id, cls, r.at_us, ShedReason::kQueueWait);
      }
    }
    brown.update(adm.total_queued());
    const AdmissionDecision dec = adm.offer(r.cls, r.id, r.at_us);
    if (dec.result == AdmitResult::kAdmitted) {
      start_request(r, r.at_us);
    } else if (dec.result == AdmitResult::kShed) {
      shed(r.id, r.cls, r.at_us, dec.reason);
    }
    rep.max_total_queued = std::max(
        rep.max_total_queued, static_cast<std::uint32_t>(adm.total_queued()));
  }
  // Drain: every running request completes; completions free slots, which
  // start (or wait-shed) everything still queued until the system is idle.
  while (!heap.empty()) {
    const Completion c = heap.top();
    heap.pop();
    complete_one(c);
  }

  for (std::size_t ci = 0; ci < kPriorityClassCount; ++ci) {
    rep.admitted += adm.counters(static_cast<PriorityClass>(ci)).admitted;
  }
  rep.brownout_enters = brown.enters();
  return rep;
}

}  // namespace dapsp::core
