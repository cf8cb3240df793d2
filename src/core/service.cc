#include "core/service.h"

#include <algorithm>
#include <sstream>
#include <stdexcept>

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

// The re-point rule (repoint_hop) for v's entry d toward s, over the
// post-batch adjacency and the pre-batch table: the parent v keeps, or
// kNoNextHop. A joined neighbor holds no entry yet, as in the wave.
NodeId kept_parent(const DynamicGraph& after, const DistanceMatrix& dist,
                   const BatchDiff& diff, NodeId v, NodeId s, std::uint32_t d,
                   NodeId hop) {
  const auto nbrs = after.neighbors(v);
  return repoint_hop(nbrs, d, hop, [&](std::uint32_t i) {
    return std::ranges::binary_search(diff.joined, nbrs[i])
               ? kInfDist
               : dist.at(nbrs[i], s);
  });
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

const char* to_string(BreakerState s) noexcept {
  switch (s) {
    case BreakerState::kClosed:
      return "closed";
    case BreakerState::kOpen:
      return "open";
    case BreakerState::kHalfOpen:
      return "half-open";
  }
  return "?";
}

CircuitBreaker::CircuitBreaker(const BreakerConfig& config)
    : config_(config) {}

void CircuitBreaker::become(BreakerState next) {
  if (next == state_) return;
  state_ = next;
  ++transitions_;
}

bool CircuitBreaker::allow(std::uint64_t now) {
  switch (state_) {
    case BreakerState::kClosed:
      return true;
    case BreakerState::kOpen:
      if (now >= opened_at_ && now - opened_at_ >= config_.cooldown_ticks) {
        become(BreakerState::kHalfOpen);
        probes_succeeded_ = 0;
        return true;  // the probe
      }
      return false;
    case BreakerState::kHalfOpen:
      return true;
  }
  return true;
}

void CircuitBreaker::record_success(std::uint64_t now) {
  (void)now;
  switch (state_) {
    case BreakerState::kClosed:
      failures_ = 0;
      break;
    case BreakerState::kHalfOpen:
      if (++probes_succeeded_ >= config_.probe_successes) {
        become(BreakerState::kClosed);
        failures_ = 0;
      }
      break;
    case BreakerState::kOpen:
      // A success reported while open can only come from a path that
      // bypasses allow() — the service's operator scrub. A certified scrub
      // is a full-table heal: close directly.
      become(BreakerState::kClosed);
      failures_ = 0;
      break;
  }
}

void CircuitBreaker::record_failure(std::uint64_t now) {
  switch (state_) {
    case BreakerState::kClosed:
      if (++failures_ >= config_.failure_threshold) {
        become(BreakerState::kOpen);
        opened_at_ = now;
        ++opens_;
      }
      break;
    case BreakerState::kHalfOpen:
      become(BreakerState::kOpen);
      opened_at_ = now;
      ++opens_;
      break;
    case BreakerState::kOpen:
      opened_at_ = now;  // a bypassing scrub failed: re-arm the cooldown
      break;
  }
}

DirtyReport analyze_dirty_rows(const DistanceMatrix& dist,
                               const BatchDiff& diff,
                               const DynamicGraph& after) {
  const NodeId n = after.universe();
  if (dist.n() != n) {
    throw std::invalid_argument(
        "analyze_dirty_rows: table size does not match the universe");
  }

  DirtyReport dr;
  const auto joined = [&](NodeId v) {
    return std::ranges::binary_search(diff.joined, v);
  };

  // Adjacent joins break the patch premise (a frontier node's distances must
  // be *old* certified values): hand the whole epoch to a full recompute.
  for (const NodeId w : diff.joined) {
    for (const NodeId x : after.neighbors(w)) {
      if (joined(x)) {
        dr.needs_full = true;
        return dr;
      }
    }
  }

  for (NodeId s = 0; s < n; ++s) {
    if (!after.active(s)) continue;
    if (joined(s)) {
      dr.dirty.push_back(s);  // fresh row, always recomputed
      continue;
    }
    bool d = false;
    for (const Edge& e : diff.inserted) {
      const std::uint32_t a = dist.at(e.u, s), b = dist.at(e.v, s);
      if (a == kInfDist && b == kInfDist) continue;
      if (a == kInfDist || b == kInfDist || abs_diff(a, b) >= 2) {
        d = true;
        break;
      }
    }
    // Shared by the removal and leave rules: did downstream node `hi` (old
    // distance pd + 1) keep a parent at distance pd in the post-batch graph?
    // If so its distance — and everything beyond it — is unchanged (the old
    // shortest-path suffix from hi survives; distances strictly increase
    // along it, so it cannot reuse the lost connection). Checking against
    // the *after* adjacency keeps multi-delta batches sound: a parent lost
    // to another delta in the same batch doesn't count.
    const auto keeps_parent = [&](NodeId hi, std::uint32_t pd) {
      return kept_parent(after, dist, diff, hi, s, pd + 1, kNoNextHop) !=
             kNoNextHop;
    };
    if (!d) {
      for (const Edge& e : diff.removed) {
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
        if (!keeps_parent(hi, std::min(a, b))) {
          d = true;
          break;
        }
      }
    }
    if (!d) {
      // The left nodes' boundary: y survives, its neighbor x left.
      for (const auto& [y, x] : diff.lost) {
        if (after.active(x)) continue;
        const std::uint32_t a = dist.at(x, s);
        if (a == kInfDist) continue;  // x was unreachable: no s-path used it
        const std::uint32_t b = dist.at(y, s);
        // y's shortest path may have run through x — unless y kept another
        // parent at x's old distance.
        if (b != kInfDist && b == a + 1 && !keeps_parent(y, a)) {
          d = true;
          break;
        }
      }
    }
    if (!d) {
      for (const NodeId w : diff.joined) {
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

DapspService::DapspService(const Graph& initial, const ServiceConfig& config)
    : DapspService(RestoreTag{}, config, DynamicGraph(initial)) {
  const NodeId n = initial.num_nodes();
  // Initial build: one full S-SP recompute (works on disconnected inputs —
  // the repair layer runs per component), certified over every row.
  RepairOptions ropts;
  ropts.engine = config_.engine;
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
  if (config_.breaker) breaker_.emplace(*config_.breaker);
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

void DapspService::repoint_cut_hops(const BatchDiff& diff) {
  for (const auto& [v, x] : diff.lost) {
    for (NodeId s = 0; s < graph_.universe(); ++s) {
      if (!graph_.active(s) || row_status_[s] == RowStatus::kStale ||
          apsp_.next_hop.at(v, s) != x) {
        continue;
      }
      const NodeId p =
          kept_parent(graph_, apsp_.dist, diff, v, s, apsp_.dist.at(v, s), x);
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
  CellRepairOptions copts;
  copts.engine = config_.engine;
  copts.batch = cells.batch;
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
    ropts.engine = config_.engine;
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
  ep.affected_sources = cr.affected_sources;
  ep.depth = cr.depth;
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
  const Graph snap = graph_.snapshot();
  apsp_.survived = graph_.active_mask();

  std::vector<NodeId> all_active;
  for (NodeId v = 0; v < graph_.universe(); ++v) {
    if (graph_.active(v)) all_active.push_back(v);
  }

  // The ladder's rungs, tried in order until one certifies: cell repair
  // (step() only), certificate-driven detection, full recompute. A failed
  // certificate or a watchdog trip moves on to the next rung.
  // force_escalate (needs_full) runs only the last.
  enum class Rung { kCells, kDetect, kFull };
  std::vector<Rung> rungs;
  if (!force_escalate) {
    if (cells != nullptr) rungs.push_back(Rung::kCells);
    rungs.push_back(Rung::kDetect);
  }
  rungs.push_back(Rung::kFull);
  // What a failed epoch leaves stale: the implicated rows plus any row a
  // failed attempt touched.
  std::vector<NodeId> unhealed = all_active;
  if (cells != nullptr && !force_escalate) {
    unhealed = cells->certify;
    unhealed.insert(unhealed.end(), cells->stale.begin(), cells->stale.end());
  }

  ep.certified = false;
  for (const Rung rung : rungs) {
    ++ep.attempts;
    if (rung == Rung::kFull) {
      ep.escalated = true;
      ++stats_.repairs_escalated;
    }
    try {
      if (rung == Rung::kCells) {
        ep.certified = repair_cells_rung(*cells, snap, ep, unhealed);
        if (ep.certified) break;
        continue;
      }
      RepairOptions ropts;
      ropts.engine = config_.engine;
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
      // Every active row certified against the current graph.
      refresh_served(all_active, RowStatus::kExact);
      break;
    } catch (const congest::RoundLimitError&) {
      // Watchdog trip: the attempt is over budget, move up the ladder.
      continue;
    } catch (const congest::CongestionError&) {
      continue;
    }
  }

  if (!ep.certified) {
    // Every rung failed: mark what we meant to heal stale; the served
    // snapshot keeps answering from the last certified state.
    ++stats_.epochs_failed;
    for (const NodeId s : unhealed) {
      if (graph_.active(s)) row_status_[s] = RowStatus::kStale;
    }
  }
  ep.outcome = ep.escalated       ? EpochOutcome::kEscalated
               : ep.attempts > 1 ? EpochOutcome::kRetried
                                 : EpochOutcome::kRepaired;
  if (breaker_) {
    if (ep.certified) {
      breaker_->record_success(epoch_);
    } else {
      breaker_->record_failure(epoch_);
    }
  }
}

void DapspService::close_epoch(const EpochReport& ep) {
  congest::accumulate(stats_.run, ep.stats);
  congest::TraceLog* trace = config_.engine.trace;
  if (breaker_ && breaker_->state() != last_breaker_state_) {
    const BreakerState bs = breaker_->state();
    ++stats_.breaker_transitions;
    if (trace != nullptr) {
      TraceEvent ev;
      ev.kind = TraceEventKind::kBreaker;
      ev.node = static_cast<NodeId>(bs);
      ev.peer = static_cast<NodeId>(last_breaker_state_);
      ev.round = epoch_;
      ev.aux = static_cast<std::uint32_t>(stats_.breaker_transitions);
      trace->append(ev);
    }
    last_breaker_state_ = bs;
  }
  if (trace != nullptr) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kEpoch;
    ev.node = static_cast<NodeId>(ep.epoch);
    ev.peer = ep.suspect_rows;
    ev.round = ep.epoch;
    ev.aux = static_cast<std::uint32_t>(ep.outcome);
    trace->append(ev);
  }
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
  const BatchDiff diff = diff_batch(edges_before, active_before, graph_);
  const DirtyReport dr = analyze_dirty_rows(apsp_.dist, diff, graph_);
  for (const NodeId x : diff.left) zero_row(x);
  repoint_cut_hops(diff);

  // The first rung's split: rows certified before the batch (and joined
  // sources' fresh rows) are repaired cell by cell; rows still stale from
  // failed earlier epochs (or a restore) are recomputed by row S-SP.
  // Staleness carries over until healed.
  CellRung cells;
  cells.batch = &diff;
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
    if (!diff.joined.empty()) {
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
  } else if (breaker_ && !breaker_->allow(epoch_)) {
    // The open breaker refused the ladder: spend nothing.
    // Every implicated row was already downgraded to kStale above, so the
    // epoch serves degraded from the last certified values and the suspects
    // re-enter next epoch's set. Join-guard rows stay stale too — their
    // joined cells were never computed. Not a failed repair: epochs_failed
    // is untouched.
    ep.outcome = EpochOutcome::kSuppressed;
    ep.certified = false;
    ++stats_.repairs_suppressed;
  } else {
    run_repair_ladder(force ? nullptr : &cells, force, ep);
    if (ep.certified && !force) {
      // Every rung serves the joined nodes' entries of every row, so the
      // join-guard downgrade lifts now that the rows are whole again.
      for (const auto& [s, prev] : join_guard) {
        if (graph_.active(s) && row_status_[s] == RowStatus::kStale) {
          row_status_[s] = prev;
        }
      }
    }
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
  close_epoch(ep);

  if (config_.scrub_every > 0 && epoch_ % config_.scrub_every == 0) {
    scrub();  // publishes the epoch's final snapshot
  } else if (config_.snapshot_sink != nullptr) {
    config_.snapshot_sink->on_snapshot(*this, /*degraded=*/false);
  }
  return ep;
}

EpochReport DapspService::scrub() {
  EpochReport ep;
  ep.epoch = epoch_;
  // Deliberately not gated: a scrub is operator-initiated maintenance and
  // must always be able to heal. Its outcome still feeds the breaker, so a
  // successful scrub closes an open breaker (and a failed one re-opens it).
  run_repair_ladder(nullptr, false, ep);
  stats_.scrubs += 1;
  close_epoch(ep);
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
