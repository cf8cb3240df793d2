#include "core/service.h"

#include <algorithm>
#include <chrono>
#include <istream>
#include <iterator>
#include <ostream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include "core/query.h"
#include "util/blob.h"
#include "util/rng.h"

namespace dapsp::core {

namespace {

using congest::TraceEvent;
using congest::TraceEventKind;

// kDelta aux encoding: low byte = DeltaKind; bit 8 marks an *unannounced*
// crash (applied as a node-leave the analyzer treats identically, but worth
// telling apart in traces).
constexpr std::uint32_t kDeltaCrashBit = 0x100u;

constexpr BlobTag kCheckpointTag{'D', 'S', 'V', 'C', '0', '0', '0', '3'};

// The sections of a DSVC body (layout in DESIGN.md §14), as views into the
// blob. The working tables are row-major by node: dist[v*n + s] = d(v, s).
// The body's n and epoch must match the served section's, which carries them.
struct CheckpointSections {
  std::span<const std::uint8_t> user, edges, dist, hop;
  std::optional<QuerySnapshot> served;
};

CheckpointError parse_checkpoint(std::span<const std::uint8_t> blob,
                                 CheckpointSections& c) noexcept {
  std::span<const std::uint8_t> body;
  const CheckpointError err = open_blob(blob, kCheckpointTag, body);
  if (err != CheckpointError::kNone) return err;
  try {
    ByteReader r(body, "DSVC body");
    const NodeId n = r.u32();
    const std::uint64_t epoch = r.u64();
    c.user = r.take(r.u64(), 8);
    c.edges = r.take(r.u64(), 8);
    c.dist = r.take(std::uint64_t{n} * n, 4);
    c.hop = r.take(std::uint64_t{n} * n, 4);
    c.served.emplace(QuerySnapshot::borrow(r.take(r.left())));
    if (c.served->n() != n || c.served->epoch() != epoch) {
      return CheckpointError::kBadPayload;
    }
  } catch (const std::exception&) {
    return CheckpointError::kBadPayload;
  }
  return CheckpointError::kNone;
}

std::uint32_t abs_diff(std::uint32_t a, std::uint32_t b) {
  return a > b ? a - b : b - a;
}

}  // namespace

CheckpointError classify_checkpoint_blob(std::span<const std::uint8_t> blob,
                                         std::uint64_t* epoch_out) noexcept {
  CheckpointSections c;
  const CheckpointError err = parse_checkpoint(blob, c);
  if (err == CheckpointError::kNone && epoch_out != nullptr) {
    *epoch_out = c.served->epoch();
  }
  return err;
}

std::uint64_t peek_checkpoint_epoch(
    std::span<const std::uint8_t> blob) noexcept {
  std::uint64_t epoch = 0;
  classify_checkpoint_blob(blob, &epoch);
  return epoch;
}

std::uint64_t backoff_delay_ms(std::uint64_t base_ms,
                               std::uint64_t exp) noexcept {
  if (base_ms == 0) return 0;
  if (base_ms >= kMaxBackoffMs || exp >= 63) return kMaxBackoffMs;
  const std::uint64_t shifted = base_ms << exp;
  // Saturate on wrap (base << exp no longer round-trips) or past the cap.
  if ((shifted >> exp) != base_ms || shifted > kMaxBackoffMs) {
    return kMaxBackoffMs;
  }
  return shifted;
}

std::uint64_t jitter_between(std::uint64_t lo, std::uint64_t hi,
                             std::uint64_t seed, std::uint64_t a,
                             std::uint64_t b) noexcept {
  if (hi <= lo) return lo;
  return lo + keyed_rng(seed, a, b).below(hi - lo + 1);
}

std::uint64_t decorrelated_backoff_ms(std::uint64_t base_ms,
                                      std::uint64_t prev_ms,
                                      std::uint64_t seed, std::uint64_t epoch,
                                      std::uint64_t attempt) noexcept {
  if (base_ms == 0) return 0;
  const std::uint64_t lo = std::min(base_ms, kMaxBackoffMs);
  // max(base, prev) * 3, saturating at the cap: prev and base are both
  // <= kMaxBackoffMs (60'000) after clamping, so the product cannot wrap.
  const std::uint64_t anchor = std::min(std::max(base_ms, prev_ms),
                                        kMaxBackoffMs);
  const std::uint64_t hi = std::min(anchor * 3, kMaxBackoffMs);
  return jitter_between(lo, hi, seed, epoch, attempt);
}

const char* to_string(RowStatus s) noexcept {
  switch (s) {
    case RowStatus::kExact:
      return "exact";
    case RowStatus::kRepaired:
      return "repaired";
    case RowStatus::kStale:
      return "stale";
  }
  return "?";
}

const char* to_string(EpochOutcome o) noexcept {
  switch (o) {
    case EpochOutcome::kClean:
      return "clean";
    case EpochOutcome::kRepaired:
      return "repaired";
    case EpochOutcome::kRetried:
      return "retried";
    case EpochOutcome::kEscalated:
      return "escalated";
    case EpochOutcome::kSuppressed:
      return "suppressed";
  }
  return "?";
}

DirtyReport analyze_dirty_rows(const DistanceMatrix& dist,
                               std::span<const std::uint8_t> active_before,
                               std::span<const Edge> edges_before,
                               const DynamicGraph& after) {
  const NodeId n = after.universe();
  if (dist.n() != n || active_before.size() != n) {
    throw std::invalid_argument(
        "analyze_dirty_rows: table/mask sizes do not match the universe");
  }

  DirtyReport dr;
  std::vector<std::uint8_t> is_joined(n, 0), is_left(n, 0);
  for (NodeId v = 0; v < n; ++v) {
    const bool before = active_before[v] != 0;
    const bool now = after.active(v);
    if (now && !before) {
      is_joined[v] = 1;
      dr.joined.push_back(v);
    } else if (before && !now) {
      is_left[v] = 1;
      dr.left.push_back(v);
    }
  }

  // Canonical edge diffs (both lists sorted u-major, v-minor, u < v).
  const std::vector<Edge> edges_after = after.sorted_edges();
  const auto edge_lt = [](const Edge& a, const Edge& b) {
    return a.u != b.u ? a.u < b.u : a.v < b.v;
  };
  std::vector<Edge> ins_raw, rem_raw;
  std::set_difference(edges_after.begin(), edges_after.end(),
                      edges_before.begin(), edges_before.end(),
                      std::back_inserter(ins_raw), edge_lt);
  std::set_difference(edges_before.begin(), edges_before.end(),
                      edges_after.begin(), edges_after.end(),
                      std::back_inserter(rem_raw), edge_lt);
  for (const Edge& e : ins_raw) {
    // Edges at a joined endpoint are its attachment frontier — covered by
    // the join rule, not the insert rule (the joined side has no meaningful
    // old distance to compare).
    if (is_joined[e.u] || is_joined[e.v]) continue;
    dr.inserted.push_back(e);
  }
  for (const Edge& e : rem_raw) {
    // Edges at a left endpoint are covered by the leave boundary rule.
    if (is_left[e.u] || is_left[e.v]) continue;
    dr.removed.push_back(e);
  }

  // Adjacent joins break the patch premise (a frontier node's distances must
  // be *old* certified values): hand the whole epoch to a full recompute.
  for (const NodeId w : dr.joined) {
    for (const NodeId x : after.neighbors(w)) {
      if (is_joined[x]) {
        dr.needs_full = true;
        return dr;
      }
    }
  }

  // Pre-batch adjacency of the left nodes (their boundary edges).
  std::vector<std::vector<NodeId>> left_boundary(dr.left.size());
  if (!dr.left.empty()) {
    for (const Edge& e : edges_before) {
      for (std::size_t i = 0; i < dr.left.size(); ++i) {
        const NodeId x = dr.left[i];
        if (e.u == x && !is_left[e.v] && after.active(e.v)) {
          left_boundary[i].push_back(e.v);
        } else if (e.v == x && !is_left[e.u] && after.active(e.u)) {
          left_boundary[i].push_back(e.u);
        }
      }
    }
  }

  for (NodeId s = 0; s < n; ++s) {
    if (!after.active(s)) continue;
    if (is_joined[s]) {
      dr.dirty.push_back(s);  // fresh row, always recomputed
      continue;
    }
    bool d = false;
    for (const Edge& e : dr.inserted) {
      const std::uint32_t a = dist.at(e.u, s), b = dist.at(e.v, s);
      if (a == kInfDist && b == kInfDist) continue;
      if (a == kInfDist || b == kInfDist || abs_diff(a, b) >= 2) {
        d = true;
        break;
      }
    }
    // Shared by the removal and leave rules: did downstream node `hi` (old
    // distance pd + 1) keep an alternative parent at distance pd in the
    // post-batch graph? If so its distance — and everything beyond it — is
    // unchanged (the old shortest-path suffix from hi survives; distances
    // strictly increase along it, so it cannot reuse the lost connection).
    // Checking against the *after* adjacency keeps multi-delta batches
    // sound: a parent lost to another delta in the same batch doesn't count.
    const auto has_alt_parent = [&](NodeId hi, std::uint32_t pd) {
      for (const NodeId y : after.neighbors(hi)) {
        // A joined node has no trustworthy old-table entry yet.
        if (!is_joined[y] && dist.at(y, s) == pd) return true;
      }
      return false;
    };
    if (!d) {
      for (const Edge& e : dr.removed) {
        const std::uint32_t a = dist.at(e.u, s), b = dist.at(e.v, s);
        if (a == kInfDist && b == kInfDist) continue;
        // A certified table is 1-Lipschitz across existing edges, so one
        // infinite endpoint means the table was already suspect.
        if (a == kInfDist || b == kInfDist) {
          d = true;
          break;
        }
        // The edge mattered for row s only if it sat on a shortest path
        // (diff 1) AND the downstream endpoint lost its last parent.
        if (abs_diff(a, b) != 1) continue;
        const NodeId hi = a > b ? e.u : e.v;
        if (!has_alt_parent(hi, std::min(a, b))) {
          d = true;
          break;
        }
      }
    }
    if (!d) {
      for (std::size_t i = 0; i < dr.left.size() && !d; ++i) {
        const NodeId x = dr.left[i];
        const std::uint32_t a = dist.at(x, s);
        if (a == kInfDist) continue;  // x was unreachable: no s-path used it
        for (const NodeId y : left_boundary[i]) {
          const std::uint32_t b = dist.at(y, s);
          // y's shortest path may have run through x — unless y kept
          // another parent at x's old distance.
          if (b != kInfDist && b == a + 1 && !has_alt_parent(y, a)) {
            d = true;
            break;
          }
        }
      }
    }
    if (!d) {
      for (const NodeId w : dr.joined) {
        std::uint32_t mn = kInfDist;
        bool any_inf = false;
        std::uint32_t mx = 0;
        for (const NodeId x : after.neighbors(w)) {
          const std::uint32_t dx = dist.at(x, s);
          if (dx == kInfDist) {
            any_inf = true;
          } else {
            mn = std::min(mn, dx);
            mx = std::max(mx, dx);
          }
        }
        if (mn == kInfDist) continue;  // frontier unreachable (or empty)
        if (any_inf || mx > mn + 2) {
          // w shortcuts between frontier nodes (or bridges s's component to
          // an unreachable one): the row changes beyond the one new entry.
          d = true;
          break;
        }
      }
    }
    if (d) dr.dirty.push_back(s);
  }
  return dr;
}

void DapspService::validate_config() const {
  if (config_.max_repair_attempts == 0) {
    throw std::invalid_argument(
        "ServiceConfig: max_repair_attempts must be >= 1");
  }
}

DapspService::DapspService(const Graph& initial, const ServiceConfig& config)
    : DapspService(RestoreTag{}, config, DynamicGraph(initial)) {
  const NodeId n = initial.num_nodes();
  // Initial build: one full S-SP recompute (works on disconnected inputs —
  // the repair layer runs per component), certified over every row.
  RepairOptions ropts;
  ropts.engine = config_.engine;
  if (config_.watchdog_rounds) ropts.engine.max_rounds = config_.watchdog_rounds;
  std::vector<NodeId> all(n);
  for (NodeId v = 0; v < n; ++v) all[v] = v;
  ropts.suspects = all;
  ropts.certify_all = true;
  const RepairReport rep = repair_apsp(initial, apsp_, ropts);
  if (!rep.all_certified()) {
    throw std::runtime_error(
        "DapspService: initial build failed to certify: " +
        rep.debug_string());
  }
  stats_.rows_repaired += rep.rows_repaired;
  stats_.repairs_attempted += rep.repairs_attempted;
  congest::accumulate(stats_.run, rep.stats);
  std::vector<NodeId> rows(all);
  refresh_served(rows, RowStatus::kExact);
  if (config_.snapshot_sink != nullptr) {
    config_.snapshot_sink->on_snapshot(*this, /*degraded=*/false);
  }
}

DapspService::DapspService(RestoreTag, const ServiceConfig& config,
                           DynamicGraph graph)
    : config_(config), graph_(std::move(graph)) {
  validate_config();
  const NodeId n = graph_.universe();
  apsp_.dist = DistanceMatrix(n);
  apsp_.next_hop = Table<NodeId>(n, n, kNoNextHop);
  apsp_.survived = graph_.active_mask();
  apsp_.status = congest::RunStatus::kCompleted;
  served_dist_ = DistanceMatrix(n);
  served_next_hop_ = Table<NodeId>(n, n, kNoNextHop);
  row_status_.assign(n, RowStatus::kStale);
}

void DapspService::zero_row(NodeId x) {
  const NodeId n = graph_.universe();
  for (NodeId v = 0; v < n; ++v) {
    apsp_.dist.set(v, x, kInfDist);
    apsp_.next_hop.set(v, x, kNoNextHop);
  }
  std::ranges::fill(served_dist_.row(x), kInfDist);
  std::ranges::fill(served_next_hop_.row(x), kNoNextHop);
  row_status_[x] = RowStatus::kStale;
}

void DapspService::repoint_cut_hops(const DirtyReport& dr,
                                    std::span<const Edge> edges_before) {
  std::vector<std::pair<NodeId, NodeId>> cut;  // (node, lost neighbor)
  for (const Edge& e : dr.removed) {
    cut.emplace_back(e.u, e.v);
    cut.emplace_back(e.v, e.u);
  }
  for (const Edge& e : edges_before) {
    if (!graph_.active(e.u) && graph_.active(e.v)) cut.emplace_back(e.v, e.u);
    if (!graph_.active(e.v) && graph_.active(e.u)) cut.emplace_back(e.u, e.v);
  }
  std::vector<std::uint8_t> joined(graph_.universe(), 0);
  for (const NodeId w : dr.joined) joined[w] = 1;
  for (const auto& [v, x] : cut) {
    for (NodeId s = 0; s < graph_.universe(); ++s) {
      if (!graph_.active(s) || row_status_[s] == RowStatus::kStale ||
          apsp_.next_hop.at(v, s) != x) {
        continue;
      }
      // A joined neighbor holds no entry yet, as in the wave.
      const auto nbrs = graph_.neighbors(v);
      const NodeId p =
          repoint_hop(nbrs, apsp_.dist.at(v, s), x, [&](std::uint32_t i) {
            return joined[nbrs[i]] != 0 ? kInfDist : apsp_.dist.at(nbrs[i], s);
          });
      if (p != kNoNextHop) {
        apsp_.next_hop.set(v, s, p);
        served_next_hop_.set(s, v, p);
      }
    }
  }
}

void DapspService::serve_cell(NodeId v, NodeId s) {
  served_dist_.set(s, v, apsp_.dist.at(v, s));
  served_next_hop_.set(s, v, apsp_.next_hop.at(v, s));
}

void DapspService::serve_rows(std::span<const NodeId> rows) {
  for (const NodeId s : rows) {
    for (NodeId v = 0; v < graph_.universe(); ++v) serve_cell(v, s);
  }
}

void DapspService::refresh_served(std::span<const NodeId> rows,
                                  RowStatus status) {
  serve_rows(rows);
  for (const NodeId s : rows) row_status_[s] = status;
}

bool DapspService::repair_cells_rung(const CellRung& cells, const Graph& snap,
                                     EpochReport& ep,
                                     std::vector<NodeId>& unhealed) {
  congest::EngineConfig engine = config_.engine;
  if (config_.watchdog_rounds) engine.max_rounds = config_.watchdog_rounds;
  CellRepairOptions copts;
  copts.engine = engine;
  copts.edges_before = cells.edges_before;
  copts.active_before = cells.active_before;
  copts.rows = cells.rows;
  copts.certify = cells.certify;
  const CellRepairReport cr = repair_cells(snap, apsp_, copts);
  ++stats_.repairs_attempted;
  congest::accumulate(ep.stats, cr.stats);
  unhealed.insert(unhealed.end(), cr.changed_rows.begin(),
                  cr.changed_rows.end());
  bool ok = cr.all_certified();
  RepairReport sr;
  if (ok && !cells.stale.empty()) {
    RepairOptions ropts;
    ropts.engine = engine;
    ropts.suspects = cells.stale;
    ropts.certify_all = false;
    sr = repair_apsp(snap, apsp_, ropts);
    stats_.repairs_attempted += sr.repairs_attempted;
    congest::accumulate(ep.stats, sr.stats);
    ok = sr.all_certified();
  }
  if (!ok) return false;
  ep.suspect_rows =
      static_cast<std::uint32_t>(cells.certify.size() + cells.stale.size());
  ep.cells_changed = cr.cells_changed;
  ep.repair_rounds = cr.repair_rounds + sr.repair_rounds;
  ep.round_bound = cr.round_bound + (cells.stale.empty() ? 0 : sr.round_bound);
  ep.bound_ok = cr.bound_ok && sr.bound_ok;
  stats_.rows_repaired += ep.suspect_rows;
  // Only the cells the protocol wrote are served: the certificate judged
  // their neighborhoods, not whole rows, so a working entry it left alone
  // (bit-rot included) keeps its served value until a scrub. Rows that row
  // S-SP recomputed are served whole. The rows the epoch implicated come
  // back as kRepaired; other changed rows keep their statuses.
  for (const auto& [v, s] : cr.changed_cells) serve_cell(v, s);
  serve_rows(cells.stale);
  for (const std::vector<NodeId>* rows : {&cells.certify, &cells.stale}) {
    for (const NodeId s : *rows) row_status_[s] = RowStatus::kRepaired;
  }
  return true;
}

void DapspService::run_repair_ladder(const CellRung* cells, bool force_escalate,
                                     EpochReport& ep) {
  const auto wall_start = std::chrono::steady_clock::now();
  const auto wall_blown = [&]() {
    if (config_.watchdog_wall_ms == 0) return false;
    const auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
        std::chrono::steady_clock::now() - wall_start);
    return static_cast<std::uint64_t>(elapsed.count()) >
           config_.watchdog_wall_ms;
  };

  const Graph snap = graph_.snapshot();
  apsp_.survived = graph_.active_mask();

  std::vector<NodeId> all_active;
  for (NodeId v = 0; v < graph_.universe(); ++v) {
    if (graph_.active(v)) all_active.push_back(v);
  }

  // The ladder's rungs: cell repair (step() only), certificate-driven
  // detection, full recompute. force_escalate (needs_full) jumps straight to
  // the last rung.
  enum class Rung { kCells, kDetect, kFull };
  std::vector<Rung> rungs;
  if (!force_escalate) {
    if (cells != nullptr) rungs.push_back(Rung::kCells);
    rungs.push_back(Rung::kDetect);
  }
  rungs.push_back(Rung::kFull);
  if (rungs.size() > config_.max_repair_attempts) {
    // Keep the first rungs but always end on the full recompute.
    rungs.erase(rungs.begin() + (config_.max_repair_attempts - 1),
                rungs.end() - 1);
  }
  // What a failed epoch leaves stale: the implicated rows plus any row a
  // failed attempt touched.
  std::vector<NodeId> unhealed = all_active;
  if (cells != nullptr && !force_escalate) {
    unhealed = cells->certify;
    unhealed.insert(unhealed.end(), cells->stale.begin(), cells->stale.end());
  }

  // Jittered-backoff envelope: the degraded streak sets where the
  // decorrelated walk starts (saturating via backoff_delay_ms — a plain
  // shift would overflow past 2^63), and each sleep this epoch then draws
  // uniform in [base, 3 * prev], keyed by (seed, epoch, attempt). Determinism
  // survives (same key, same sleep) while co-churning shards decorrelate.
  std::uint64_t prev_backoff_ms =
      backoff_delay_ms(config_.backoff_base_ms, degraded_streak_);
  for (std::size_t i = 0; i < rungs.size(); ++i) {
    if (i > 0) {
      if (config_.backoff_base_ms > 0) {
        const std::uint64_t ms =
            decorrelated_backoff_ms(config_.backoff_base_ms, prev_backoff_ms,
                                    config_.backoff_seed, epoch_, i);
        prev_backoff_ms = ms;
        std::this_thread::sleep_for(std::chrono::milliseconds(ms));
        stats_.backoff_ms += ms;
      }
      // Wall watchdog: skip intermediate rungs, keep only the final
      // escalation (the one guaranteed-simple recovery path).
      if (wall_blown() && i + 1 < rungs.size()) continue;
    }
    const Rung rung = rungs[i];
    ++ep.attempts;
    if (rung == Rung::kFull) {
      ep.escalated = true;
      ++stats_.repairs_escalated;
    }
    try {
      if (rung == Rung::kCells) {
        if (!repair_cells_rung(*cells, snap, ep, unhealed)) continue;
        ep.certified = true;
        degraded_streak_ = 0;
        return;
      }
      RepairOptions ropts;
      ropts.engine = config_.engine;
      if (config_.watchdog_rounds) {
        ropts.engine.max_rounds = config_.watchdog_rounds;
      }
      if (rung == Rung::kFull) ropts.suspects = all_active;
      const RepairReport rep = repair_apsp(snap, apsp_, ropts);
      stats_.repairs_attempted += rep.repairs_attempted;
      congest::accumulate(ep.stats, rep.stats);
      if (!rep.all_certified()) continue;  // failed attempt: next rung
      ep.certified = true;
      ep.suspect_rows = rep.rows_repaired;
      ep.repair_rounds = rep.repair_rounds;
      ep.round_bound = rep.round_bound;
      ep.bound_ok = rep.bound_ok;
      stats_.rows_repaired += rep.rows_repaired;
      degraded_streak_ = 0;
      // Every active row certified against the current graph.
      refresh_served(all_active, RowStatus::kExact);
      return;
    } catch (const congest::RoundLimitError&) {
      // Watchdog trip: the attempt is over budget, move up the ladder.
      continue;
    } catch (const congest::CongestionError&) {
      continue;
    }
  }

  // Every rung failed: mark what we meant to heal stale; the served snapshot
  // keeps answering from the last certified state.
  ep.certified = false;
  ++degraded_streak_;
  ++stats_.epochs_failed;
  for (const NodeId s : unhealed) {
    if (graph_.active(s)) row_status_[s] = RowStatus::kStale;
  }
}

void DapspService::note_gate_state() {
  if (config_.repair_gate == nullptr) return;
  const std::uint8_t gs = config_.repair_gate->state();
  if (gs == last_gate_state_) return;
  ++stats_.breaker_transitions;
  if (config_.engine.trace != nullptr) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kBreaker;
    ev.node = gs;
    ev.peer = last_gate_state_;
    ev.round = epoch_;
    ev.aux = static_cast<std::uint32_t>(stats_.breaker_transitions);
    config_.engine.trace->append(ev);
  }
  last_gate_state_ = gs;
}

void DapspService::emit_epoch_event(const EpochReport& ep) {
  if (config_.engine.trace == nullptr) return;
  TraceEvent ev;
  ev.kind = TraceEventKind::kEpoch;
  ev.node = static_cast<NodeId>(ep.epoch);
  ev.peer = ep.suspect_rows;
  ev.round = ep.epoch;
  ev.aux = static_cast<std::uint32_t>(ep.outcome);
  config_.engine.trace->append(ev);
}

EpochReport DapspService::step(const ChurnBatch& batch) {
  ++epoch_;
  EpochReport ep;
  ep.epoch = epoch_;

  const std::vector<Edge> edges_before = graph_.sorted_edges();
  const std::vector<std::uint8_t> active_before = graph_.active_mask();

  congest::TraceLog* trace = config_.engine.trace;
  const auto emit_delta = [&](const GraphDelta& d, bool crash) {
    if (trace == nullptr) return;
    TraceEvent ev;
    ev.kind = TraceEventKind::kDelta;
    ev.node = d.u;
    ev.peer = d.v;
    ev.round = epoch_;
    ev.aux = static_cast<std::uint32_t>(d.kind) | (crash ? kDeltaCrashBit : 0);
    trace->append(ev);
  };

  for (const GraphDelta& d : batch.deltas) {
    graph_.apply(d);
    emit_delta(d, false);
    ++ep.deltas_applied;
  }
  for (const NodeId v : batch.crashes) {
    if (!graph_.active(v)) continue;  // already gone; nothing to crash
    const GraphDelta d{DeltaKind::kNodeLeave, v, v};
    graph_.apply(d);
    emit_delta(d, true);
    ++ep.crashes;
    ep.stats.nodes_crashed += 1;
  }

  // Analyze against the pre-epoch table, then retire dead rows.
  const DirtyReport dr = analyze_dirty_rows(apsp_.dist, active_before,
                                            edges_before, graph_);
  for (const NodeId x : dr.left) zero_row(x);
  repoint_cut_hops(dr, edges_before);

  // The first rung's split: rows certified before the batch (and joined
  // sources' fresh rows) are repaired cell by cell; rows still stale from
  // failed earlier epochs (or a restore) are recomputed by row S-SP.
  // Staleness carries over until healed.
  CellRung cells;
  std::vector<std::uint8_t> is_dirty(graph_.universe(), 0);
  for (const NodeId s : dr.dirty) is_dirty[s] = 1;
  for (NodeId s = 0; s < graph_.universe(); ++s) {
    if (!graph_.active(s)) continue;
    if (active_before[s] != 0 && row_status_[s] == RowStatus::kStale) {
      cells.stale.push_back(s);
    } else {
      cells.rows.push_back(s);
      if (is_dirty[s] != 0) cells.certify.push_back(s);
    }
  }
  std::vector<NodeId> suspects = dr.dirty;
  suspects.insert(suspects.end(), cells.stale.begin(), cells.stale.end());
  std::sort(suspects.begin(), suspects.end());
  suspects.erase(std::unique(suspects.begin(), suspects.end()),
                 suspects.end());

  // Conservative disclosure (see header): every implicated row drops to
  // kStale *now*, before the repair ladder runs. A snapshot published (or a
  // query answered) between here and certification discloses the row as
  // stale instead of overclaiming exactness for pre-batch values. On
  // needs_full the analyzer could not bound the region, so every active row
  // is implicated.
  bool downgraded = false;
  const auto downgrade = [&](NodeId s) {
    if (row_status_[s] != RowStatus::kStale) {
      row_status_[s] = RowStatus::kStale;
      downgraded = true;
    }
  };
  // A joined node's cell is wrong in *every* row (not just the dirty ones)
  // until the repair fills it in and its result is served, so a join
  // implicates even the clean rows — but only in that one cell. Downgrade
  // them too, remembering their pre-join status so certification can
  // restore it; if the epoch fails, they stay stale and re-enter the suspect
  // set next epoch.
  std::vector<std::pair<NodeId, RowStatus>> join_guard;
  if (dr.needs_full) {
    for (NodeId s = 0; s < graph_.universe(); ++s) {
      if (graph_.active(s)) downgrade(s);
    }
  } else {
    for (const NodeId s : suspects) downgrade(s);
    if (!dr.joined.empty()) {
      for (NodeId s = 0; s < graph_.universe(); ++s) {
        if (!graph_.active(s) || row_status_[s] == RowStatus::kStale) continue;
        join_guard.emplace_back(s, row_status_[s]);
        downgrade(s);
      }
    }
  }
  if (config_.snapshot_sink != nullptr && downgraded) {
    config_.snapshot_sink->on_snapshot(*this, /*degraded=*/true);
  }

  const bool force = dr.needs_full;
  if (suspects.empty() && !force) {
    ep.outcome = EpochOutcome::kClean;
    ep.certified = true;
    degraded_streak_ = 0;
  } else if (config_.repair_gate != nullptr &&
             !config_.repair_gate->allow_repair(epoch_)) {
    // The gate (an open circuit breaker) refused the ladder: spend nothing.
    // Every implicated row was already downgraded to kStale above, so the
    // epoch serves degraded from the last certified values and the suspects
    // re-enter next epoch's set. Join-guard rows stay stale too — their
    // joined cells were never computed. Not a failed repair: the degraded
    // streak and epochs_failed are untouched.
    ep.outcome = EpochOutcome::kSuppressed;
    ep.certified = false;
    ++stats_.repairs_suppressed;
  } else {
    cells.edges_before = edges_before;
    cells.active_before = active_before;
    run_repair_ladder(force ? nullptr : &cells, force, ep);
    if (config_.repair_gate != nullptr) {
      config_.repair_gate->on_repair_outcome(epoch_, ep.certified);
    }
    if (ep.certified && !force) {
      // Every rung serves the joined nodes' entries of every row, so the
      // join-guard downgrade lifts now that the rows are whole again.
      for (const auto& [s, prev] : join_guard) {
        if (graph_.active(s) && row_status_[s] == RowStatus::kStale) {
          row_status_[s] = prev;
        }
      }
    }
    ep.outcome = ep.escalated ? EpochOutcome::kEscalated
                 : ep.attempts > 1
                     ? EpochOutcome::kRetried
                     : EpochOutcome::kRepaired;
  }

  // Bit-rot lands after the epoch's certification (it models decay between
  // epochs); it is invisible to the analyzer and waits for a scrub — or for
  // its row to turn suspect for other reasons.
  if (batch.corrupt_flips > 0) {
    Rng rot(batch.corrupt_seed);
    for (std::uint32_t i = 0; i < batch.corrupt_flips; ++i) {
      const NodeId v = static_cast<NodeId>(rot.below(graph_.universe()));
      const NodeId s = static_cast<NodeId>(rot.below(graph_.universe()));
      if (!graph_.active(v) || !graph_.active(s)) continue;
      const std::uint32_t bit = static_cast<std::uint32_t>(rot.below(16));
      apsp_.dist.set(v, s, apsp_.dist.at(v, s) ^ (1u << bit));
      ++ep.corrupted_entries;
    }
  }

  stats_.epochs += 1;
  stats_.deltas_applied += ep.deltas_applied;
  stats_.crashes += ep.crashes;
  stats_.corrupted_entries += ep.corrupted_entries;
  congest::accumulate(stats_.run, ep.stats);
  note_gate_state();
  emit_epoch_event(ep);

  if (config_.scrub_every > 0 && epoch_ % config_.scrub_every == 0) {
    scrub();
  }
  if (config_.snapshot_sink != nullptr) {
    config_.snapshot_sink->on_snapshot(*this, /*degraded=*/false);
  }
  return ep;
}

EpochReport DapspService::scrub() {
  EpochReport ep;
  ep.epoch = epoch_;
  // Deliberately not gated: a scrub is operator-initiated maintenance and
  // must always be able to heal. Its outcome still feeds the gate, so a
  // successful scrub closes an open breaker (and a failed one re-opens it).
  run_repair_ladder(nullptr, false, ep);
  if (config_.repair_gate != nullptr) {
    config_.repair_gate->on_repair_outcome(epoch_, ep.certified);
  }
  ep.outcome = ep.escalated  ? EpochOutcome::kEscalated
               : ep.attempts > 1 ? EpochOutcome::kRetried
                                 : EpochOutcome::kRepaired;
  stats_.scrubs += 1;
  congest::accumulate(stats_.run, ep.stats);
  note_gate_state();
  emit_epoch_event(ep);
  if (config_.snapshot_sink != nullptr) {
    config_.snapshot_sink->on_snapshot(*this, /*degraded=*/false);
  }
  return ep;
}

bool DapspService::fully_certified() const {
  for (NodeId s = 0; s < graph_.universe(); ++s) {
    if (graph_.active(s) && row_status_[s] == RowStatus::kStale) return false;
  }
  return true;
}

ServiceQuery DapspService::query(NodeId from, NodeId to) const {
  if (from >= graph_.universe() || to >= graph_.universe()) {
    throw std::invalid_argument("DapspService::query: node out of universe");
  }
  ServiceQuery q;
  if (!graph_.active(from) || !graph_.active(to)) return q;
  q.active = true;
  q.dist = served_dist_.at(to, from);
  q.next_hop = served_next_hop_.at(to, from);
  q.status = row_status_[to];
  return q;
}

std::vector<std::uint8_t> DapspService::checkpoint_blob(
    std::span<const std::uint64_t> user_words) {
  const NodeId n = graph_.universe();
  const std::vector<Edge> edges = graph_.sorted_edges();
  const std::uint64_t served_len = query_blob_size(n);
  std::vector<std::uint8_t> b(framed_size(
      4 + 8 + 8 + 8 * user_words.size() + 8 + 8 * edges.size() +
      8 * std::uint64_t{n} * n + served_len));
  ByteWriter w = begin_blob(b, kCheckpointTag);
  w.u32(n);
  w.u64(epoch_);
  w.u64(user_words.size());
  for (const std::uint64_t x : user_words) w.u64(x);
  w.u64(edges.size());
  for (const Edge& e : edges) {
    w.u32(e.u);
    w.u32(e.v);
  }
  w.u32s(apsp_.dist.data());
  w.u32s(apsp_.next_hop.data());
  // A pure function of the served state: sequence 0, no labels, not
  // degraded — so checkpoints stay byte-identical across runs.
  encode_query_snapshot(w.take(served_len), *this, 0, false);
  seal_blob(b, w);

  stats_.checkpoints += 1;
  stats_.checkpoint_bytes += b.size();
  return b;
}

void DapspService::checkpoint(std::ostream& out,
                              std::span<const std::uint64_t> user_words) {
  const std::vector<std::uint8_t> b = checkpoint_blob(user_words);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
  if (!out) {
    throw std::runtime_error("DapspService::checkpoint: write failed");
  }
}

DapspService DapspService::restore(std::istream& in,
                                   const ServiceConfig& config,
                                   std::vector<std::uint64_t>* user_words_out) {
  const std::vector<std::uint8_t> b(std::istreambuf_iterator<char>(in), {});
  return restore_blob(b, config, user_words_out);
}

DapspService DapspService::restore_blob(
    std::span<const std::uint8_t> blob, const ServiceConfig& config,
    std::vector<std::uint64_t>* user_words_out) {
  CheckpointError err = CheckpointError::kNone;
  std::optional<DapspService> svc =
      try_restore_blob(blob, config, user_words_out, &err);
  if (!svc) {
    throw std::runtime_error(std::string("DapspService::restore: ") +
                             to_string(err) + " checkpoint");
  }
  return std::move(*svc);
}

std::optional<DapspService> DapspService::try_restore_blob(
    std::span<const std::uint8_t> blob, const ServiceConfig& config,
    std::vector<std::uint64_t>* user_words_out, CheckpointError* error_out) {
  CheckpointSections c;
  CheckpointError err = parse_checkpoint(blob, c);
  if (err == CheckpointError::kNone) {
    try {
      const QuerySnapshot& served = *c.served;
      const NodeId n = served.n();
      DynamicGraph g(n);
      for (NodeId v = 0; v < n; ++v) {
        if (!served.active(v)) g.apply({DeltaKind::kNodeLeave, v, v});
      }
      ByteReader edges(c.edges, "DSVC edges");
      while (edges.left() > 0) {
        const NodeId u = edges.u32();
        // Throws on an edge list inconsistent with the active mask.
        g.apply({DeltaKind::kEdgeInsert, u, edges.u32()});
      }

      DapspService svc(RestoreTag{}, config, std::move(g));
      svc.epoch_ = served.epoch();
      for (NodeId s = 0; s < n; ++s) svc.row_status_[s] = served.status(s);
      ByteReader(c.dist, "DSVC dist").u32s(svc.apsp_.dist.data());
      ByteReader(c.hop, "DSVC next_hop").u32s(svc.apsp_.next_hop.data());
      for (NodeId s = 0; s < n; ++s) {
        std::ranges::copy(served.dist_row(s), svc.served_dist_.row(s).begin());
        std::ranges::copy(served.next_hop_row(s),
                          svc.served_next_hop_.row(s).begin());
      }
      if (user_words_out != nullptr) {
        ByteReader user(c.user, "DSVC user words");
        user_words_out->assign(c.user.size() / 8, 0);
        for (std::uint64_t& x : *user_words_out) x = user.u64();
      }
      if (error_out != nullptr) *error_out = CheckpointError::kNone;
      return svc;
    } catch (const std::exception&) {
      // Checksum held but a field is inconsistent (an edge at an inactive
      // endpoint, a duplicate edge...).
      err = CheckpointError::kBadPayload;
    }
  }
  if (error_out != nullptr) *error_out = err;
  return std::nullopt;
}

std::string EpochReport::debug_string() const {
  std::ostringstream os;
  os << "epoch " << epoch << ": " << to_string(outcome)
     << " deltas=" << deltas_applied << " crashes=" << crashes
     << " suspects=" << suspect_rows << " attempts=" << attempts
     << " rounds=" << repair_rounds << "/bound=" << round_bound
     << (bound_ok ? "" : " BOUND-EXCEEDED")
     << (certified ? "" : " NOT-CERTIFIED");
  return std::move(os).str();
}

std::string ServiceStats::debug_string() const {
  std::ostringstream os;
  os << "epochs=" << epochs << " deltas=" << deltas_applied
     << " crashes=" << crashes << " corrupted=" << corrupted_entries
     << " rows_repaired=" << rows_repaired << " failed=" << epochs_failed
     << " suppressed=" << repairs_suppressed
     << " scrubs=" << scrubs << " checkpoints=" << checkpoints
     << " repairs=" << repairs_attempted << " escalated=" << repairs_escalated
     << " checkpoint_bytes=" << checkpoint_bytes << " | "
     << run.debug_string();
  return std::move(os).str();
}

}  // namespace dapsp::core
