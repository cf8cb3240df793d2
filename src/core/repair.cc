#include "core/repair.h"

#include <algorithm>
#include <bit>
#include <functional>
#include <iterator>
#include <limits>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "core/primitives/bfs_process.h"
#include "core/ssp.h"

namespace dapsp::core {

namespace {

// Repair models the post-incident network: the surviving subgraph is healthy,
// so the sub-runs and certification passes run fault-free and uninstrumented.
// Only the caller's capacity knobs survive.
congest::EngineConfig sanitized(const congest::EngineConfig& in) {
  congest::EngineConfig cfg = in;
  cfg.faults.reset();
  cfg.process_wrapper = nullptr;
  cfg.trace = nullptr;
  cfg.metrics = nullptr;
  return cfg;
}

// Sub-runs use per-component graphs whose bandwidth budgets differ (B depends
// on the component's n), so the budget is dropped before accumulation.
void fold_stats(congest::RunStats& into, congest::RunStats from) {
  from.bandwidth_bits = 0;
  congest::accumulate(into, from);
}

void add_coverage(Histogram& h, std::span<const RowCoverage> cov) {
  for (const RowCoverage c : cov) {
    h.add(static_cast<std::uint64_t>(c));
  }
}

}  // namespace

RepairReport repair_apsp(const Graph& g, ApspResult& result,
                         const RepairOptions& options) {
  const NodeId n = g.num_nodes();
  if (result.dist.n() != n || result.next_hop.rows() != n ||
      result.next_hop.cols() != n || result.survived.size() != n) {
    throw std::invalid_argument(
        "repair_apsp: result tables do not match the graph");
  }

  std::vector<NodeId> all_sources(n);
  for (NodeId v = 0; v < n; ++v) all_sources[v] = v;
  const auto entry = [&result](NodeId v, NodeId s) {
    return result.dist.at(v, s);
  };

  RepairReport report;

  // 1. Take stock: the as-harvested coverage picture, then zero the rows of
  // crashed sources over the survivors. A dead source is unreachable in the
  // surviving subgraph, so all-infinite is its exact (and certifiable) row;
  // any stale finite entries are leftovers from before the crash.
  const std::vector<RowCoverage> before =
      classify_coverage(result.survived, all_sources, entry);
  add_coverage(report.coverage_before, before);
  for (NodeId s = 0; s < n; ++s) {
    if (result.survived[s] != 0) continue;
    for (NodeId v = 0; v < n; ++v) {
      if (result.survived[v] == 0) continue;
      result.dist.set(v, s, kInfDist);
      result.next_hop[v][s] = kNoNextHop;
    }
  }

  // 2. Find suspects among the surviving sources. Either the caller already
  // knows them (core/service.h's dirty-region analyzer hands them in — no
  // detection sweep at all), or every surviving row is put through the
  // distributed certificate and the failures are the suspects. Certifying
  // *all* surviving rows — not only coverage-complete ones — is what makes
  // repair idempotent: an exact-but-partial row (e.g. all-infinite entries
  // across a surviving cut) passes the certificate and is left alone on a
  // second repair instead of being blanket-suspected again; the certificate's
  // completeness (certify.h) guarantees no stale row slips through.
  CertifyOptions copts;
  copts.engine = sanitized(options.engine);
  std::vector<NodeId> suspects;
  if (options.suspects) {
    suspects = *options.suspects;
    std::sort(suspects.begin(), suspects.end());
    suspects.erase(std::unique(suspects.begin(), suspects.end()),
                   suspects.end());
    for (const NodeId s : suspects) {
      if (s >= n || result.survived[s] == 0) {
        throw std::invalid_argument(
            "repair_apsp: supplied suspect " + std::to_string(s) +
            (s >= n ? " is out of range" : " names a dead source"));
      }
    }
  } else {
    std::vector<NodeId> surviving;
    surviving.reserve(n);
    for (NodeId s = 0; s < n; ++s) {
      if (result.survived[s] != 0) surviving.push_back(s);
    }
    if (!surviving.empty()) {
      const CertifyReport pre =
          certify_rows(g, result.survived, surviving, entry, copts);
      for (std::size_t k = 0; k < surviving.size(); ++k) {
        if (pre.certified[k] == 0) suspects.push_back(surviving[k]);
      }
      fold_stats(report.stats, pre.stats);
    }
  }
  report.suspect_sources = suspects;
  report.rows_repaired = static_cast<std::uint32_t>(suspects.size());
  report.repairs_attempted = 1;

  // 3. Connected components of the surviving subgraph. Members are collected
  // ascending, so members[0] — the subgraph's node 0 after relabeling — is
  // the component's smallest surviving id, satisfying run_ssp's leader-is-
  // node-0 convention.
  constexpr std::uint32_t kNoComp = 0xffffffffu;
  std::vector<std::uint32_t> comp_of(n, kNoComp);
  std::vector<std::vector<NodeId>> comps;
  std::vector<NodeId> queue;
  for (NodeId r = 0; r < n; ++r) {
    if (result.survived[r] == 0 || comp_of[r] != kNoComp) continue;
    const auto ci = static_cast<std::uint32_t>(comps.size());
    comps.emplace_back();
    comp_of[r] = ci;
    queue.assign(1, r);
    while (!queue.empty()) {
      const NodeId v = queue.back();
      queue.pop_back();
      comps[ci].push_back(v);
      for (const NodeId w : g.neighbors(v)) {
        if (result.survived[w] == 0 || comp_of[w] != kNoComp) continue;
        comp_of[w] = ci;
        queue.push_back(w);
      }
    }
    std::sort(comps[ci].begin(), comps[ci].end());
  }

  std::vector<std::vector<NodeId>> comp_suspects(comps.size());
  for (const NodeId s : suspects) comp_suspects[comp_of[s]].push_back(s);

  // 4. Repair: re-run S-SP per component that owns suspects and merge the
  // deltas / parent indices back. Components repair independently (on the
  // real network they would run concurrently), so the repair's round cost is
  // the maximum over components, and each component is held to the paper's
  // O(|S| + D) bound.
  SspOptions sopts;
  sopts.engine = sanitized(options.engine);
  std::vector<NodeId> new_id(n, kNoComp);
  for (std::size_t ci = 0; ci < comps.size(); ++ci) {
    const std::vector<NodeId>& sc = comp_suspects[ci];
    if (sc.empty()) continue;
    const std::vector<NodeId>& members = comps[ci];

    if (members.size() == 1) {
      // An isolated survivor: its own row is trivially 0 at itself and
      // infinite elsewhere; no protocol needed (0 rounds, bound trivially
      // holds).
      const NodeId s = sc.front();
      for (NodeId v = 0; v < n; ++v) {
        if (result.survived[v] == 0) continue;
        result.dist.set(v, s, v == s ? 0 : kInfDist);
        result.next_hop[v][s] = kNoNextHop;
      }
      report.round_bound = std::max(
          report.round_bound, kRepairRoundC * 1 + kRepairRoundSlack);
      continue;
    }

    for (std::size_t i = 0; i < members.size(); ++i) {
      new_id[members[i]] = static_cast<NodeId>(i);
    }
    std::vector<Edge> sub_edges;
    for (const Edge& e : g.edges()) {
      if (comp_of[e.u] != ci || comp_of[e.v] != ci) continue;
      if (result.survived[e.u] == 0 || result.survived[e.v] == 0) continue;
      sub_edges.push_back(Edge{new_id[e.u], new_id[e.v]});
    }
    const Graph sub(static_cast<NodeId>(members.size()), sub_edges);

    std::vector<NodeId> sub_sources;
    sub_sources.reserve(sc.size());
    for (const NodeId s : sc) sub_sources.push_back(new_id[s]);

    const SspResult rc = run_ssp(sub, sub_sources, sopts);

    const std::uint64_t bound =
        kRepairRoundC * (sc.size() + rc.d0) + kRepairRoundSlack;
    report.round_bound = std::max(report.round_bound, bound);
    report.repair_rounds = std::max(report.repair_rounds, rc.stats.rounds);
    if (rc.stats.rounds > bound) report.bound_ok = false;
    fold_stats(report.stats, rc.stats);

    for (const NodeId s : sc) {
      const NodeId ns = new_id[s];
      for (NodeId v = 0; v < n; ++v) {
        if (result.survived[v] == 0) continue;
        if (comp_of[v] != ci) {
          // Other components cannot reach s on the surviving subgraph.
          result.dist.set(v, s, kInfDist);
          result.next_hop[v][s] = kNoNextHop;
          continue;
        }
        const NodeId nv = new_id[v];
        result.dist.set(v, s, rc.delta.at(nv, ns));
        const std::uint32_t pi = rc.parent_index.at(nv, ns);
        result.next_hop[v][s] =
            pi == kNoParent ? kNoNextHop : members[sub.neighbors(nv)[pi]];
      }
    }
  }

  // 5. Re-certify — every row (crashed sources included, whose all-infinite
  // rows certify vacuously) by default, only the repaired rows in
  // incremental mode — and refresh the result's coverage picture.
  const std::vector<RowCoverage> after =
      classify_coverage(result.survived, all_sources, entry);
  add_coverage(report.coverage_after, after);
  result.coverage = after;
  const std::vector<NodeId>& cert_sources =
      options.certify_all ? all_sources : suspects;
  if (!cert_sources.empty()) {
    report.certificate =
        certify_rows(g, result.survived, cert_sources, entry, copts);
    fold_stats(report.stats, report.certificate.stats);
  }
  return report;
}

namespace {

bool test_bit(std::span<const std::uint64_t> bits, std::size_t i) {
  return ((bits[i >> 6] >> (i & 63)) & 1u) != 0;
}

// Calls f(i) for every set bit i of an n-bit row, ascending.
template <class F>
void for_each_bit(std::span<const std::uint64_t> bits, F&& f) {
  for (std::size_t w = 0; w < bits.size(); ++w) {
    for (std::uint64_t b = bits[w]; b != 0; b &= b - 1) {
      f(static_cast<NodeId>(w * 64 +
                            static_cast<std::size_t>(std::countr_zero(b))));
    }
  }
}

// What every node of the cell protocol may read: its own and its neighbors'
// pre-batch entries (the certificate exchange put them on every edge), the
// batch's effect on its own adjacency, and which rows take part.
struct CellView {
  const Graph& g;
  const DistanceMatrix& old;  // pre-batch entries; not written during runs
  NodeId n = 0;
  std::uint32_t words = 0;  // 64-bit words per n-bit row
  std::vector<NodeId> rows;
  std::vector<std::uint8_t> in_rows;  // per source: takes part
  std::vector<std::uint8_t> fresh;   // per source: joined, row starts empty
  std::vector<NodeId> fresh_rows;    // the rows with fresh set, ascending
  std::vector<std::uint8_t> joined;  // per node
  // Per node, ascending: the batch's lost and gained neighbors.
  std::vector<std::vector<NodeId>> lost;
  std::vector<std::vector<NodeId>> gained;

  // The pre-batch entry d(v, s); joined nodes and fresh rows hold nothing.
  std::uint32_t value(NodeId v, NodeId s) const {
    if (fresh[s] != 0 || joined[v] != 0) return v == s ? 0 : kInfDist;
    return old.at(v, s);
  }
};

// Phase (i): the invalidation wave. Every notice (source) goes to every
// neighbor, so the edges of a node advance in lockstep and one queue per node
// suffices: one notice per round, lowest (old distance, source) first.
class InvalidateProcess final : public congest::Process {
 public:
  InvalidateProcess(NodeId id, const CellView& view, const ApspResult& table)
      : id_(id), view_(view), table_(table) {
    inval_.assign(view.words, 0);
    nbr_inval_.assign(std::size_t{view.g.degree(id)} * view.words, 0);
  }

  void on_round(congest::RoundCtx& ctx) override {
    if (!started_) {
      started_ = true;
      start();
    }
    for (const congest::Received& r : ctx.inbox()) {
      if (r.msg.kind != kCellInvalid) continue;
      const NodeId s = r.msg.f[0];
      nbr_inval_[std::size_t{r.from_index} * view_.words + (s >> 6)] |=
          std::uint64_t{1} << (s & 63);
      // Only a lost parent can cost this entry its witness.
      const std::uint32_t du = view_.value(ctx.neighbor(r.from_index), s);
      if (du != kInfDist && mine(s) == du + 1) check(s);
    }
    if (!notices_.empty()) {
      std::ranges::pop_heap(notices_, std::greater<>{});
      const NodeId s = notices_.back().second;
      ctx.send_all(congest::Message::make(kCellInvalid, s));
      notices_.pop_back();
    }
  }

  bool done() const override {
    return notices_.empty() && (started_ || view_.lost[id_].empty());
  }

  // This node's entry for source s after the wave so far.
  std::uint32_t mine(NodeId s) const {
    return invalid(s) ? kInfDist : view_.value(id_, s);
  }
  bool invalid(NodeId s) const { return test_bit(inval_, s); }
  // Neighbor i's entry as this node knows it.
  std::uint32_t theirs(std::uint32_t i, NodeId s) const {
    if (test_bit(invalidated_by(i), s)) return kInfDist;
    return view_.value(view_.g.neighbors(id_)[i], s);
  }
  // The sources this node invalidated, as an n-bit row.
  std::span<const std::uint64_t> invalidated() const { return inval_; }
  // The sources neighbor i invalidated, as an n-bit row.
  std::span<const std::uint64_t> invalidated_by(std::uint32_t i) const {
    return {nbr_inval_.data() + std::size_t{i} * view_.words, view_.words};
  }
  NodeId hop(NodeId s) const {
    for (auto it = hops_.rbegin(); it != hops_.rend(); ++it) {
      if (it->first == s) return it->second;
    }
    return table_.next_hop.at(id_, s);
  }
  // Calls f(s) for every source whose next hop this node re-pointed (a
  // source may repeat).
  template <class F>
  void for_each_repointed(F&& f) const {
    for (const auto& [s, h] : hops_) f(s);
  }
  // Whether any entry of this node changed: invalidated or re-pointed, or
  // a neighbor invalidated something (this node may have to regrow it).
  bool touched() const {
    const auto any = [](std::uint64_t w) { return w != 0; };
    return !hops_.empty() || std::ranges::any_of(inval_, any) ||
           std::ranges::any_of(nbr_inval_, any);
  }

 private:
  // The wave's seeds: entries that lost a parent (a next hop is one).
  void start() {
    const std::vector<NodeId>& lost = view_.lost[id_];
    if (lost.empty()) return;
    for (const NodeId s : view_.rows) {
      const std::uint32_t d = mine(s);
      if (d == kInfDist || d == 0) continue;
      if (std::ranges::any_of(
              lost, [&](NodeId x) { return view_.value(x, s) + 1 == d; })) {
        check(s);
      }
    }
  }

  // The invalidation test for entry s: keep it while some neighbor still
  // holds d - 1, re-pointing the next hop there if it is no longer one.
  void check(NodeId s) {
    const std::uint32_t d = mine(s);
    if (d == kInfDist || d == 0) return;
    const NodeId h = hop(s);
    const NodeId p = repoint_hop(view_.g.neighbors(id_), d, h,
                                 [&](std::uint32_t i) { return theirs(i, s); });
    if (p != kNoNextHop) {
      if (p != h) hops_.emplace_back(s, p);
      return;
    }
    inval_[s >> 6] |= std::uint64_t{1} << (s & 63);
    notices_.emplace_back(d, s);
    std::ranges::push_heap(notices_, std::greater<>{});
  }

  NodeId id_;
  const CellView& view_;
  const ApspResult& table_;
  bool started_ = false;
  std::vector<std::uint64_t> inval_;      // sources this node invalidated
  std::vector<std::uint64_t> nbr_inval_;  // per edge: sources the nbr did
  std::vector<std::pair<std::uint32_t, NodeId>> notices_;  // min-heap
  std::vector<std::pair<NodeId, NodeId>> hops_;  // (source, new next hop)
};

// Phase (ii): regrowth, Algorithm 2's machine seeded with the entries phase
// (i) left. A node with nothing owed is seeded only once a claim reaches it.
class RegrowProcess final : public congest::Process {
 public:
  RegrowProcess(NodeId id, const CellView& view, const InvalidateProcess& wave)
      : id_(id), view_(view), wave_(wave), ssp_(id, view.n, false) {
    ssp_.configure(0, std::numeric_limits<std::uint64_t>::max() / 2);
    has_work_ = wave.touched() || !view.gained[id].empty();
  }

  void on_round(congest::RoundCtx& ctx) override {
    if (!started_) start();
    for (const congest::Received& r : ctx.inbox()) {
      if (!ssp_.handle(ctx, r)) continue;
      const NodeId s = r.msg.f[0];
      claimed_[s >> 6] |= std::uint64_t{1} << (s & 63);
    }
    ssp_.advance(ctx);
  }

  bool done() const override { return started_ ? ssp_.quiet() : !has_work_; }

  bool started() const { return started_; }
  const SspMachine& ssp() const { return ssp_; }
  // The sources of every claim that reached this node, as an n-bit row
  // (empty if it never started): the only entries regrowth can have
  // improved.
  std::span<const std::uint64_t> claimed() const { return claimed_; }

 private:
  // Seeds the machine with this node's entries after the wave: its table
  // row (nothing if it joined), blanked in the fresh rows and at the
  // entries it invalidated. Entries outside the rows keep their table
  // values; no claim ever names them.
  void start() {
    started_ = true;
    claimed_.assign(view_.words, 0);
    const auto nbrs = view_.g.neighbors(id_);
    if (view_.joined[id_] != 0) {
      ssp_.seed(view_.g.degree(id_), {});
      if (view_.in_rows[id_] != 0) ssp_.seed_at(id_, 0);
    } else {
      ssp_.seed(view_.g.degree(id_), view_.old.row(id_));
      for (const NodeId s : view_.fresh_rows) {
        ssp_.seed_at(s, s == id_ ? 0 : kInfDist);
      }
      for_each_bit(wave_.invalidated(),
                   [&](NodeId s) { ssp_.seed_at(s, kInfDist); });
    }
    const std::vector<std::uint32_t>& seed = ssp_.delta();
    for (std::uint32_t i = 0; i < nbrs.size(); ++i) {
      if (std::ranges::binary_search(view_.gained[id_], nbrs[i])) {
        // A new edge carries every entry that shortcuts the far side.
        for (const NodeId s : view_.rows) {
          if (seed[s] != kInfDist && wave_.theirs(i, s) > seed[s] + 1) {
            ssp_.owe(s, i);
          }
        }
        continue;
      }
      // An old edge carries the entries the far side invalidated.
      for_each_bit(wave_.invalidated_by(i), [&](NodeId s) {
        if (seed[s] != kInfDist) ssp_.owe(s, i);
      });
    }
  }

  NodeId id_;
  const CellView& view_;
  const InvalidateProcess& wave_;
  SspMachine ssp_;
  bool started_ = false;
  bool has_work_ = false;
  std::vector<std::uint64_t> claimed_;
};

// What the harvest finds for one cell (v, s): the entry the wave left, and
// the entry and next hop after regrowth. A zero or infinite entry has no
// next hop.
struct CellOutcome {
  std::uint32_t seeded;
  std::uint32_t dist;
  NodeId hop;
  bool invalid;
};

CellOutcome harvest_cell(const InvalidateProcess& wave,
                         const RegrowProcess& grow,
                         std::span<const NodeId> nbrs, NodeId s) {
  CellOutcome c;
  c.seeded = wave.mine(s);
  c.dist = c.seeded;
  c.hop = c.seeded == kInfDist || c.seeded == 0 ? kNoNextHop : wave.hop(s);
  if (grow.started() && grow.ssp().delta()[s] < c.seeded) {
    c.dist = grow.ssp().delta()[s];
    const std::uint32_t pi = grow.ssp().parent_index()[s];
    c.hop = pi == kNoParent ? kNoNextHop : nbrs[pi];
  }
  c.invalid = wave.invalid(s);
  return c;
}

// The rows at which a worked node that did not join can leave its table
// other than the phases found it, ascending in `out`: the entries the wave
// invalidated or re-pointed, the sources a regrowth claim reached, the
// fresh rows, and the rows whose zero or infinite entry still has a next
// hop (bit-rot; the harvest clears that hop). Every other row keeps its
// entry and its hop. `mask` is scratch for an n-bit row.
void harvest_sources(NodeId v, const CellView& view, const ApspResult& table,
                     const InvalidateProcess& wave, const RegrowProcess& grow,
                     std::vector<std::uint64_t>& mask,
                     std::vector<NodeId>& out) {
  const auto set = [&](NodeId s) {
    mask[s >> 6] |= std::uint64_t{1} << (s & 63);
  };
  mask.assign(wave.invalidated().begin(), wave.invalidated().end());
  for (std::size_t w = 0; w < grow.claimed().size(); ++w) {
    mask[w] |= grow.claimed()[w];
  }
  wave.for_each_repointed(set);
  for (const NodeId s : view.fresh_rows) set(s);
  // A zero or infinite entry with a hop is rare: test for one first with a
  // loop the compiler can vectorize.
  const auto dist = table.dist.row(v);
  const auto hop = table.next_hop.row(v);
  std::uint32_t any = 0;
  for (NodeId s = 0; s < view.n; ++s) {
    any |= static_cast<std::uint32_t>(dist[s] + 1u <= 1u) &
           static_cast<std::uint32_t>(hop[s] != kNoNextHop);
  }
  if (any != 0) {
    for (NodeId s = 0; s < view.n; ++s) {
      if (dist[s] + 1u <= 1u && hop[s] != kNoNextHop && view.in_rows[s] != 0) {
        set(s);
      }
    }
  }
  out.clear();
  for_each_bit(mask, [&](NodeId s) { out.push_back(s); });
}

#ifndef NDEBUG
// Audits harvest_sources against the exhaustive harvest: every row it
// skipped at node v must be one the full harvest leaves alone.
void audit_sparse_harvest(NodeId v, const CellView& view,
                          const ApspResult& table,
                          const InvalidateProcess& wave,
                          const RegrowProcess& grow,
                          std::span<const NodeId> harvested) {
  const auto nbrs = view.g.neighbors(v);
  for (const NodeId s : view.rows) {
    if (std::ranges::binary_search(harvested, s)) continue;
    const CellOutcome c = harvest_cell(wave, grow, nbrs, s);
    if (c.invalid || c.dist != c.seeded || table.dist.at(v, s) != c.dist ||
        table.next_hop.at(v, s) != c.hop) {
      throw std::logic_error("repair_cells: the sparse harvest skipped cell (" +
                             std::to_string(v) + ", " + std::to_string(s) +
                             "), which the exhaustive harvest rewrites");
    }
  }
}
#endif

// 2 * ecc(leader) maximized over the components of the active subgraph: a
// convergecast plus a broadcast over each component's BFS tree.
std::uint64_t barrier_rounds(const Graph& g,
                             std::span<const std::uint8_t> active) {
  const NodeId n = g.num_nodes();
  std::vector<std::uint32_t> depth(n, kInfDist);
  std::vector<NodeId> queue;
  std::uint64_t worst = 0;
  for (NodeId r = 0; r < n; ++r) {
    if (active[r] == 0 || depth[r] != kInfDist) continue;
    depth[r] = 0;
    queue.assign(1, r);
    for (std::size_t head = 0; head < queue.size(); ++head) {
      const NodeId v = queue[head];
      for (const NodeId w : g.neighbors(v)) {
        if (active[w] == 0 || depth[w] != kInfDist) continue;
        depth[w] = depth[v] + 1;
        queue.push_back(w);
      }
    }
    worst = std::max<std::uint64_t>(worst,
                                    2 * std::uint64_t{depth[queue.back()]});
  }
  return worst;
}

}  // namespace

CellRepairReport repair_cells(const Graph& g, ApspResult& result,
                              const CellRepairOptions& options) {
  const NodeId n = g.num_nodes();
  const std::span<const std::uint8_t> active = result.survived;
  if (result.dist.n() != n || result.next_hop.rows() != n ||
      result.next_hop.cols() != n || active.size() != n) {
    throw std::invalid_argument(
        "repair_cells: tables or masks do not match the graph");
  }
  if (options.batch == nullptr) {
    throw std::invalid_argument("repair_cells: no batch diff");
  }
  const BatchDiff& batch = *options.batch;

  CellView view{.g = g,
                .old = result.dist,
                .n = n,
                .words = (n + 63) / 64,
                .rows = {},
                .in_rows = {},
                .fresh = {},
                .fresh_rows = {},
                .joined = {},
                .lost = {},
                .gained = {}};
  view.rows.assign(options.rows.begin(), options.rows.end());
  std::ranges::sort(view.rows);
  view.rows.erase(std::unique(view.rows.begin(), view.rows.end()),
                  view.rows.end());
  view.in_rows.assign(n, 0);
  view.fresh.assign(n, 0);
  view.joined.assign(n, 0);
  for (const NodeId w : batch.joined) view.joined[w] = 1;
  for (const NodeId s : view.rows) {
    if (s >= n || active[s] == 0) {
      throw std::invalid_argument("repair_cells: row " + std::to_string(s) +
                                  " is out of range or inactive");
    }
    view.in_rows[s] = 1;
    view.fresh[s] = view.joined[s];
    if (view.fresh[s] != 0) view.fresh_rows.push_back(s);
  }

  // Each node's adjacency change, and the nodes whose adjacency changed.
  view.lost.resize(n);
  view.gained.resize(n);
  for (const auto& [v, x] : batch.lost) view.lost[v].push_back(x);
  for (const auto& [v, x] : batch.gained) view.gained[v].push_back(x);
  std::vector<NodeId> adj_changed, adj_gained;
  for (NodeId v = 0; v < n; ++v) {
    if (!view.gained[v].empty()) adj_gained.push_back(v);
    if (!view.gained[v].empty() || !view.lost[v].empty()) {
      adj_changed.push_back(v);
    }
  }

  // The two phases, then the harvest: every changed entry and next hop is
  // written back, and per row the nodes whose entry moved or was
  // invalidated are noted. A joined node is harvested in every row, so an
  // entry from before it left cannot survive (one that joins edgeless does
  // no work at all). Any other node that worked is harvested only where its
  // cells can differ (harvest_sources), and a node that did nothing can
  // only hold a stale entry in a fresh row. The engines (and every node's
  // regrowth state) are gone before the certificate runs.
  CellRepairReport report;
  const congest::EngineConfig cfg = sanitized(options.engine);
  congest::RunStats wave_stats, grow_stats;
  std::vector<std::vector<NodeId>> touched(n);
  std::vector<std::uint8_t> row_changed(n, 0), row_affected(n, 0);
  {
    congest::Engine wave_engine(g, cfg);
    wave_engine.init([&](NodeId v) {
      return std::make_unique<InvalidateProcess>(v, view, result);
    });
    wave_stats = wave_engine.run();
    congest::Engine grow_engine(g, cfg);
    grow_engine.init([&](NodeId v) {
      return std::make_unique<RegrowProcess>(
          v, view, wave_engine.process_as<InvalidateProcess>(v));
    });
    grow_stats = grow_engine.run();
    std::vector<std::uint64_t> mask;
    std::vector<NodeId> sparse;
    for (NodeId v = 0; v < n; ++v) {
      if (active[v] == 0) continue;
      const auto& wave = wave_engine.process_as<InvalidateProcess>(v);
      const auto& grow = grow_engine.process_as<RegrowProcess>(v);
      const auto nbrs = g.neighbors(v);
      std::span<const NodeId> cells = view.fresh_rows;
      if (view.joined[v] != 0) {
        cells = view.rows;
      } else if (grow.started() || wave.touched()) {
        harvest_sources(v, view, result, wave, grow, mask, sparse);
        cells = sparse;
#ifndef NDEBUG
        audit_sparse_harvest(v, view, result, wave, grow, sparse);
#endif
      }
      for (const NodeId s : cells) {
        const CellOutcome c = harvest_cell(wave, grow, nbrs, s);
        if (c.invalid) report.depth = std::max(report.depth, view.value(v, s));
        if (c.dist < c.seeded) report.depth = std::max(report.depth, c.dist);
        if (c.invalid || c.dist < c.seeded) row_affected[s] = 1;
        const bool moved = result.dist.at(v, s) != c.dist;
        report.cells_changed += moved ? 1 : 0;
        if (moved || c.invalid) touched[s].push_back(v);
        if (moved || result.next_hop.at(v, s) != c.hop ||
            view.joined[v] != 0) {
          row_changed[s] = 1;
          report.changed_cells.emplace_back(v, s);
          result.dist.set(v, s, c.dist);
          result.next_hop.set(v, s, c.hop);
        }
      }
    }
  }
  fold_stats(report.stats, wave_stats);
  fold_stats(report.stats, grow_stats);
  report.affected_sources =
      static_cast<std::uint32_t>(std::ranges::count(row_affected, 1));
  report.barrier_rounds = barrier_rounds(g, active);
  report.repair_rounds =
      wave_stats.rounds + report.barrier_rounds + grow_stats.rounds;
  report.round_bound =
      kRepairRoundC * (report.affected_sources + report.depth) +
      report.barrier_rounds + kRepairRoundSlack;
  report.bound_ok = report.repair_rounds <= report.round_bound;

  // The cell certificate: judges are the closed neighborhood of every
  // touched entry plus every node whose adjacency changed. Touched entries
  // are shipped, and so is every entry of a node with a new edge (no earlier
  // certificate crossed it). A fresh row is shipped and judged everywhere.
  std::vector<std::uint8_t> named(n, 0);
  for (const NodeId s : options.certify) {
    if (s < n) named[s] = 1;
  }
  std::vector<NodeId> everyone;
  for (NodeId v = 0; v < n; ++v) {
    if (active[v] != 0) everyone.push_back(v);
  }
  std::vector<std::vector<NodeId>> scope, shipped;
  for (const NodeId s : view.rows) {
    if (row_changed[s] != 0) report.changed_rows.push_back(s);
    if (named[s] == 0 && row_affected[s] == 0 && touched[s].empty()) continue;
    std::vector<NodeId> judges, ships;
    if (view.fresh[s] != 0) {
      judges = everyone;
      ships = everyone;
    } else {
      std::ranges::set_union(touched[s], adj_gained, std::back_inserter(ships));
      judges = adj_changed;
      for (const NodeId v : touched[s]) {
        judges.push_back(v);
        judges.insert(judges.end(), g.neighbors(v).begin(),
                      g.neighbors(v).end());
      }
    }
    if (judges.empty()) continue;
    report.certified_rows.push_back(s);
    scope.push_back(std::move(judges));
    shipped.push_back(std::move(ships));
  }
  if (!report.certified_rows.empty()) {
    CertifyOptions copts;
    copts.engine = cfg;
    copts.scope = scope;
    copts.shipped = shipped;
    const std::size_t rows = report.certified_rows.size();
    try {
      report.certificate = certify_rows(
          g, active, report.certified_rows,
          [&result](NodeId v, NodeId s) { return result.dist.at(v, s); },
          copts);
      fold_stats(report.stats, report.certificate.stats);
    } catch (const congest::RoundLimitError&) {
      report.certificate.certified.assign(rows, 0);
    } catch (const congest::CongestionError&) {
      report.certificate.certified.assign(rows, 0);
    }
  }
  return report;
}

std::string RepairReport::debug_string() const {
  std::ostringstream os;
  os << "repair: rows=" << rows_repaired << " rounds=" << repair_rounds
     << " bound=" << round_bound
     << (bound_ok ? "" : " BOUND-EXCEEDED") << " certified="
     << certificate.rows_certified << "/" << certificate.certified.size()
     << " coverage(lost/partial/complete) " << coverage_before.count(0) << "/"
     << coverage_before.count(1) << "/" << coverage_before.count(2) << " -> "
     << coverage_after.count(0) << "/" << coverage_after.count(1) << "/"
     << coverage_after.count(2);
  return std::move(os).str();
}

}  // namespace dapsp::core
