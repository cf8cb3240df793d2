// Long-running DAPSP service: churn, incremental repair, supervision
// (DESIGN.md §14, ROADMAP item 2).
//
// The paper computes APSP once, for one static graph. DapspService keeps the
// answer *alive* while the graph mutates under it: every epoch it ingests one
// ChurnBatch (graph/delta.h — edge inserts/removes, node joins/leaves, plus
// crash-stops and stored-entry bit-rot), maps the batch to the set of
// invalidated certificate rows, and heals exactly those rows through the
// repair machinery (core/repair.h) at O(|affected| + D) rounds instead of
// re-running the O(n)-round Algorithm 1.
//
// Dirty-region analysis (analyze_dirty_rows). step() derives the batch's
// changes once (graph/delta.h diff_batch); the analyzer, the cut-hop
// re-pointer and the cell repair all read that one BatchDiff. The certificate
// rules of core/certify.h are sound AND complete — a row certifies iff it
// equals the true distances on the current graph — so deltas can be screened
// against the *previous, certified* table:
//   * inserted edge {u, v} (both endpoints pre-existing): row s changes iff
//     |D_s(u) - D_s(v)| >= 2 (the new edge shortcuts something); a diff <= 1
//     leaves the certificate — hence the distances — intact;
//   * removed edge {u, v}: row s can only change if the edge sat on a
//     shortest path (|diff| == 1 in an unweighted graph) AND the downstream
//     endpoint lost its last parent — if it keeps another post-batch
//     neighbor at the same parent distance, its distance and everything
//     beyond it are unchanged (the old shortest-path suffix survives).
//     Checking parents against the post-batch adjacency keeps multi-delta
//     batches sound: distance *increases* must propagate through some node
//     whose every old parent connection was lost this batch, and that
//     node's check fires;
//   * left/crashed node x: row s changes iff some surviving neighbor y of x
//     (a `lost` pair (y, x) of the diff) had D_s(y) = D_s(x) + 1 and y has
//     no alternative parent at D_s(x) in the post-batch graph (same argument;
//     this also catches disconnections — the first node beyond a cut always
//     has that boundary pattern). Row x itself is dead and gets zeroed;
//   * joined node w with attachment frontier F: row w is always recomputed.
//     For another row s, paths through w can only shortcut between frontier
//     nodes, so the row changes iff some y in F has D_s(y) > min_F D_s + 2
//     (or is infinite while the min is finite); otherwise the row is clean
//     but for its single new entry D_s(w) = 1 + min_{x in F} D_s(x), which
//     the cell repair fills in from w's attachments. Two joined
//     nodes that are adjacent to each other break the "frontier distances
//     are old exact values" premise — the analyzer reports needs_full and
//     the service escalates to a full recompute.
//
// "Alternative parent" is the re-point rule of the invalidation wave
// (core/repair.h repoint_hop), read over the post-batch adjacency.
//
// Supervision. Each epoch runs a three-rung escalation ladder under a
// watchdog that bounds every attempt in engine rounds (ServiceConfig
// engine.max_rounds, handed to every repair run); the service reads no
// clock. (1) incremental repair —
// the cell-level protocol (repair_cells) for every row certified before the
// batch, joined sources' rows included, plus row S-SP for rows already stale
// before it, each certified (the cell rows on the neighborhoods the batch
// touched);
// (2) on failure, retry with certificate-driven detection over all rows;
// (3) full recompute (suspects = every active node). A rung fails when its
// certificate fails or the watchdog trips, and the next rung runs at once:
// each is a deterministic function of the tables and the graph. needs_full
// runs only (3). Failed epochs leave the suspects marked kStale and the
// service keeps running. Before any of it, a node that lost a link (each
// `lost` pair of the diff) re-points every next hop over it to a parent it
// keeps (repoint_cut_hops), so even rows the analyzer finds clean serve
// path-consistent hops.
//
// Graceful degradation. Queries are answered from a *served snapshot* that
// takes only certified values — whole rows after a row recompute, the cells
// the protocol wrote after a cell repair — with a per-row status:
// kExact (certified, untouched since the last full pass), kRepaired
// (certified after an incremental heal), kStale (certification pending or
// failed — the snapshot still answers, with the staleness disclosed).
// Status disclosure is monotone-conservative within an epoch: the moment
// the dirty-region analyzer implicates a row, its status drops to kStale —
// *before* any repair attempt runs — and only a successful certification
// raises it again. A consumer that observes the service mid-epoch (the
// query tier's snapshot publishes, a checkpoint taken from a sink) can
// therefore never see a row claiming kExact whose stored values predate a
// batch that invalidated them.
// Bit-rot corruption is invisible to the delta analyzer by design; the
// periodic scrub() — a certificate-driven detection repair over all rows —
// is what catches it (ServiceConfig::scrub_every automates the cadence).
//
// Checkpoint/restore. checkpoint_blob() serializes the full *state* (graph,
// working tables, epoch counter, caller words for e.g. DeltaPlan resume, and
// the served snapshot as an embedded DQRY blob; DESIGN.md §14);
// restore_blob() rebuilds a service that continues bit-identically — state
// excludes the cumulative stats, so a restored run and a straight-through run
// produce identical checkpoints from the same epoch onward, at any thread
// count.
#pragma once

#include <cstdint>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "congest/engine.h"
#include "core/pebble_apsp.h"
#include "core/repair.h"
#include "graph/delta.h"
#include "graph/graph.h"
#include "util/blob.h"

namespace dapsp::core {

// The blob failure taxonomy lives with the shared frame (util/blob.h).
using dapsp::CheckpointError;
using dapsp::to_string;

// Classifies a checkpoint blob without building a service from it: the
// frame checks, then the body parse, embedded DQRY section included. Pure
// and noexcept; on kNone, `epoch_out` (when given) receives the epoch. (An
// inconsistent edge list is only caught by restore_blob/try_restore_blob.)
CheckpointError classify_checkpoint_blob(
    std::span<const std::uint8_t> blob,
    std::uint64_t* epoch_out = nullptr) noexcept;

// Per-source-row serving status (see header note).
enum class RowStatus : std::uint8_t {
  kExact = 0,
  kRepaired = 1,
  kStale = 2,
};

const char* to_string(RowStatus s) noexcept;

// What the dirty-region analyzer concluded about one batch of deltas.
struct DirtyReport {
  // Rows whose stored distances may differ from the new graph's (sorted,
  // active sources only; joined nodes always appear).
  std::vector<NodeId> dirty;
  // The analyzer could not bound the affected region (adjacent joins):
  // treat every row as suspect.
  bool needs_full = false;
};

// Screens a batch against the previous (certified) distance table. `dist` is
// the pre-batch working table indexed (node, source); `diff` is the batch's
// diff_batch against `after`, the post-batch state. Pure analysis — mutates
// nothing.
DirtyReport analyze_dirty_rows(const DistanceMatrix& dist,
                               const BatchDiff& diff,
                               const DynamicGraph& after);

// How an epoch's repair resolved (also the kEpoch trace event's aux value).
enum class EpochOutcome : std::uint8_t {
  kClean = 0,       // empty dirty set — nothing ran
  kRepaired = 1,    // incremental repair succeeded first try
  kRetried = 2,     // needed the detection retry
  kEscalated = 3,   // full recompute fired: needs_full, or every earlier
                    // rung failed (certificate or watchdog trip)
  kSuppressed = 4,  // the circuit breaker refused the repair ladder;
                    // suspects stay kStale, the last certified snapshot
                    // keeps serving, and no repair work was spent
};

const char* to_string(EpochOutcome o) noexcept;

struct EpochReport {
  std::uint64_t epoch = 0;
  EpochOutcome outcome = EpochOutcome::kClean;
  std::uint32_t deltas_applied = 0;
  std::uint32_t crashes = 0;
  std::uint32_t corrupted_entries = 0;
  std::uint32_t suspect_rows = 0;  // rows implicated this epoch
  std::uint64_t cells_changed = 0;  // entries the cell rung changed
  // When the cell rung healed the epoch: its |S_aff| (rows with an
  // invalidated or improved entry) and h (the largest such entry), the
  // terms of its round bound (core/repair.h).
  std::uint32_t affected_sources = 0;
  std::uint32_t depth = 0;
  std::uint32_t attempts = 0;      // repair attempts consumed
  bool escalated = false;
  bool certified = true;  // the epoch's repaired rows certified

  // Engine rounds of the successful attempt (max over components — the
  // network-parallel cost), plus its asserted O(|S| + D) bound.
  std::uint64_t repair_rounds = 0;
  std::uint64_t round_bound = 0;
  bool bound_ok = true;

  // Everything the epoch's engine runs cost, summed over attempts.
  congest::RunStats stats;

  std::string debug_string() const;
};

struct ServiceStats {
  std::uint64_t epochs = 0;
  std::uint64_t deltas_applied = 0;
  std::uint64_t crashes = 0;
  std::uint64_t corrupted_entries = 0;
  std::uint64_t rows_repaired = 0;
  std::uint64_t epochs_failed = 0;  // all attempts failed; rows left stale
  std::uint64_t scrubs = 0;
  std::uint64_t checkpoints = 0;
  // Overload robustness: epochs whose repair ladder the breaker refused,
  // and breaker state changes the service observed (each one is also a
  // kBreaker trace event).
  std::uint64_t repairs_suppressed = 0;
  std::uint64_t breaker_transitions = 0;
  // repair_apsp reports folded in (initial build included), full-recompute
  // rungs entered, and total serialized checkpoint bytes.
  std::uint64_t repairs_attempted = 0;
  std::uint64_t repairs_escalated = 0;
  std::uint64_t checkpoint_bytes = 0;

  // Accumulated engine stats over every repair/certify run.
  congest::RunStats run;

  std::string debug_string() const;
};

class DapspService;

// Observer hook for the query serving tier (core/query.h): the service
// calls it whenever the served snapshot reaches a publishable state. Two
// publish points per epoch:
//   * degraded = true — right after dirty analysis downgraded the affected
//     rows to kStale, before any repair runs. Values are the pre-batch ones,
//     statuses are conservative for the post-batch graph; publishing here is
//     what keeps mid-epoch readers from trusting a row that is in flight.
//     Only fired when at least one row was downgraded this epoch.
//   * degraded = false — at the end of every step() and scrub(), statuses
//     final; once per epoch, also when step() runs its scheduled scrub.
// The service is in a consistent, queryable state at both points; the sink
// must not mutate it.
struct SnapshotSink {
  virtual ~SnapshotSink() = default;
  virtual void on_snapshot(const DapspService& svc, bool degraded) = 0;
};

// Repair-ladder circuit breaker (DESIGN.md §18), owned by the service when
// ServiceConfig::breaker is set, ticked by the service epoch. Consulted once
// per step() that has a non-empty suspect set, before any repair work runs:
//   * allow() == false suppresses the whole ladder for the epoch. The
//     suspects stay kStale, the served snapshot keeps answering from the
//     last certified state, and the epoch reports kSuppressed — degraded,
//     but at zero repair cost (how an open breaker pins the last certified
//     snapshot while the engine is misbehaving).
//   * record_success / record_failure hear how a ladder that did run
//     resolved.
// scrub() bypasses allow() (operator-initiated maintenance must always be
// able to heal) but still reports its outcome, so a successful scrub can
// close an open breaker. The service emits a kBreaker trace event whenever
// the state it observes at the end of an epoch changed. Breaker state is not
// checkpointed: a restored service starts with a closed breaker.

// Numeric values match the kBreaker trace-event encoding.
enum class BreakerState : std::uint8_t {
  kClosed = 0,    // repairs flow; consecutive failures are counted
  kOpen = 1,      // repairs refused until the cooldown elapses
  kHalfOpen = 2,  // probe repairs admitted; success closes, failure re-opens
};

const char* to_string(BreakerState s) noexcept;

struct BreakerConfig {
  std::uint32_t failure_threshold = 3;  // consecutive failures to open
  std::uint64_t cooldown_ticks = 8;     // open -> half-open after this many
                                        // ticks (service epochs)
  std::uint32_t probe_successes = 1;    // half-open successes to close
};

// Tick-driven circuit breaker. The clock is whatever monotone counter the
// caller feeds in (the service epoch) — never wall time, so open/half-open/
// close schedules are deterministic and thread-count-independent.
class CircuitBreaker {
 public:
  explicit CircuitBreaker(const BreakerConfig& config = {});

  // May the protected operation run at `now`? Transitions kOpen ->
  // kHalfOpen once the cooldown has elapsed (and then admits the probe).
  bool allow(std::uint64_t now);

  // kClosed: resets the failure streak. kHalfOpen: counts a probe success,
  // closing at probe_successes. kOpen: closes directly — the success came
  // from a path that bypasses allow() (the service's scrub), and a fully
  // certified table is a fully healed circuit.
  void record_success(std::uint64_t now);

  // kClosed: extends the streak, opening at failure_threshold. kHalfOpen:
  // the probe failed — re-open and restart the cooldown. kOpen: re-arms
  // the cooldown (a bypassing scrub failed; stay open longer).
  void record_failure(std::uint64_t now);

  BreakerState state() const noexcept { return state_; }
  std::uint32_t consecutive_failures() const noexcept { return failures_; }
  std::uint64_t transitions() const noexcept { return transitions_; }
  std::uint64_t opens() const noexcept { return opens_; }

 private:
  void become(BreakerState next);

  BreakerConfig config_;
  BreakerState state_ = BreakerState::kClosed;
  std::uint32_t failures_ = 0;         // consecutive, while closed
  std::uint32_t probes_succeeded_ = 0; // while half-open
  std::uint64_t opened_at_ = 0;
  std::uint64_t transitions_ = 0;
  std::uint64_t opens_ = 0;
};

struct ServiceConfig {
  // Engine knobs for all repair/certify sub-runs (threads, bandwidth_ids are
  // honored; faults and instrumentation are stripped by the repair layer —
  // attach `engine.trace` to receive the service's own kDelta/kEpoch
  // events instead). engine.max_rounds is the watchdog: every repair
  // attempt's round budget (0 = the engine default of 64n + 1024). A
  // round-limit trip fails the attempt and the ladder moves to its next
  // rung.
  congest::EngineConfig engine{};

  // Run scrub() automatically after every k-th epoch (0 = never). Scrubbing
  // is what catches bit-rot corruption, which is invisible to the delta
  // analyzer.
  std::uint32_t scrub_every = 0;

  // Query-tier publish hook (see SnapshotSink). Not owned; must outlive the
  // service. Not part of the checkpointed state.
  SnapshotSink* snapshot_sink = nullptr;

  // Circuit-break the repair ladder (see CircuitBreaker); unset = never.
  // Not part of the checkpointed state.
  std::optional<BreakerConfig> breaker;
};

// A served table, stored source-major: row s holds every node's entry
// toward source s, exactly DQRY row s (core/query.h), so a publish or a
// checkpoint copies whole rows. at(v, s) reads it node-major, like the
// working tables: v's entry toward s.
class ServedView {
 public:
  explicit ServedView(const Table<std::uint32_t>& by_source) noexcept
      : t_(&by_source) {}

  std::uint32_t at(NodeId v, NodeId s) const { return t_->at(s, v); }
  // Every cell, row s after row s (the DQRY table order).
  std::span<const std::uint32_t> cells() const noexcept { return t_->data(); }

 private:
  const Table<std::uint32_t>* t_;
};

class DapspService {
 public:
  // Builds the initial certified tables for `initial` (all nodes active) via
  // a full S-SP recompute — works on disconnected graphs too. Throws on an
  // empty graph.
  DapspService(const Graph& initial, const ServiceConfig& config = {});

  // One service epoch: apply the batch, analyze, heal, serve. See header.
  EpochReport step(const ChurnBatch& batch);

  // Certificate-driven repair over all rows (catches corruption and any
  // analyzer miss); refreshes every row to kExact on success.
  EpochReport scrub();

  const DynamicGraph& dynamic_graph() const noexcept { return graph_; }
  std::uint64_t epoch() const noexcept { return epoch_; }
  const ServiceStats& stats() const noexcept { return stats_; }
  const ApspResult& tables() const noexcept { return apsp_; }
  // The repair-ladder breaker; empty unless ServiceConfig::breaker is set.
  const std::optional<CircuitBreaker>& breaker() const noexcept {
    return breaker_;
  }

  // Ops/fault-drill knob: retune the per-attempt round watchdog,
  // ServiceConfig engine.max_rounds, on a live service (0 restores the engine
  // default). Deliberately mutable — the overload drills pin it to 1 round
  // to force deterministic repair failures, then lift it; it is config, not
  // checkpointed state.
  void set_watchdog_rounds(std::uint64_t rounds) noexcept {
    config_.engine.max_rounds = rounds;
  }

  RowStatus row_status(NodeId s) const { return row_status_[s]; }
  std::span<const RowStatus> row_statuses() const noexcept {
    return row_status_;
  }
  // Read-only views of the served snapshot, for the query tier's snapshot
  // encoder (core/query.h). served_dist().at(v, s) is the served distance
  // from v to s with the freshness of row s (= row_status(s)).
  ServedView served_dist() const noexcept { return ServedView(served_dist_); }
  ServedView served_next_hop() const noexcept {
    return ServedView(served_next_hop_);
  }
  // True when no active row is stale — every served row is certified
  // against the current graph (modulo not-yet-scrubbed bit-rot).
  bool fully_certified() const;

  // Serializes the full service state (see header; excludes stats) plus the
  // caller's words (e.g. DeltaPlan rng state + batch counter). Counts the
  // blob size into stats().checkpoint_bytes. To keep it in a file, write it
  // with write_blob_atomic (util/blob.h).
  std::vector<std::uint8_t> checkpoint_blob(
      std::span<const std::uint64_t> user_words = {});

  // Rebuilds a service from a checkpoint blob. Throws std::runtime_error
  // naming the CheckpointError (missing / truncated / bad magic / version
  // mismatch / checksum mismatch / bad payload). `user_words_out` receives
  // the caller words stored at checkpoint time.
  static DapspService restore_blob(std::span<const std::uint8_t> blob,
                                   const ServiceConfig& config,
                                   std::vector<std::uint64_t>* user_words_out);
  // Non-throwing variant: returns std::nullopt and the classification in
  // `error_out` instead. Used by generation-fallback recovery
  // (core/durable.h), which must survive a damaged newest checkpoint.
  static std::optional<DapspService> try_restore_blob(
      std::span<const std::uint8_t> blob, const ServiceConfig& config,
      std::vector<std::uint64_t>* user_words_out, CheckpointError* error_out);

 private:
  // Sizes every table for `graph`, all rows stale: the shared start of the
  // initial build and of a restore.
  struct RestoreTag {};
  DapspService(RestoreTag, const ServiceConfig& config, DynamicGraph graph);

  // Zero source row x (dead) in working and served tables.
  void zero_row(NodeId x);
  // What step()'s first rung repairs (see header).
  struct CellRung {
    const BatchDiff* batch = nullptr;  // the epoch's diff
    std::vector<NodeId> rows;     // certified before the batch, plus joined
    std::vector<NodeId> certify;  // the analyzer's dirty rows among them
    std::vector<NodeId> stale;    // stale before the batch: row S-SP
  };
  // The repair ladder shared by step() and scrub(): cells, detection, full
  // recompute. Without `cells` the first rung is certificate-driven
  // detection. Fills the report's repair fields and outcome, and reports
  // the outcome to the breaker.
  void run_repair_ladder(const CellRung* cells, bool force_escalate,
                         EpochReport& ep);
  // Rung (1); false when its certificate failed. `unhealed` gains every row
  // it touched.
  bool repair_cells_rung(const CellRung& cells, const Graph& snap,
                         EpochReport& ep, std::vector<NodeId>& unhealed);
  // A node that loses a link (a `lost` pair of the diff) re-points at once
  // every next hop that ran over it to a parent it keeps (local, no message;
  // the wave's rule, repoint_hop), so rows the analyzer finds clean never
  // serve a hop across a cut link, even mid-epoch. Hops with no parent left
  // sit in dirty rows, which the cell rung heals.
  void repoint_cut_hops(const BatchDiff& diff);
  // Copies the working cell (v, s) into the served snapshot.
  void serve_cell(NodeId v, NodeId s);
  // Copies whole rows of the working tables into the served snapshot, for
  // rows certified whole; refresh also sets their status.
  void serve_rows(std::span<const NodeId> rows);
  void refresh_served(std::span<const NodeId> rows, RowStatus status);
  // Ends a step() or scrub() epoch: folds its engine stats into the
  // service's, emits a kBreaker event (and counts it) when the breaker's
  // observed state changed, then the kEpoch event.
  void close_epoch(const EpochReport& ep);

  ServiceConfig config_;
  DynamicGraph graph_;
  ApspResult apsp_;  // working tables over the fixed universe
  // Source-major (see ServedView): served_dist_.at(s, v) is v's entry.
  DistanceMatrix served_dist_;
  Table<NodeId> served_next_hop_;
  std::vector<RowStatus> row_status_;
  std::uint64_t epoch_ = 0;
  std::optional<CircuitBreaker> breaker_;
  BreakerState last_breaker_state_ = BreakerState::kClosed;  // last observed
  ServiceStats stats_;
};

}  // namespace dapsp::core
