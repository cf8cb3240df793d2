#include "core/pebble_apsp.h"

#include <algorithm>
#include <memory>

#include "core/primitives/aggregation.h"
#include "core/primitives/bfs_process.h"
#include "util/arena.h"

namespace dapsp::core {
namespace {

// Convergecast/broadcast tags used by the aggregation phase.
constexpr std::uint32_t kTagCollect = 1;
constexpr std::uint32_t kTagSummary = 2;
constexpr std::uint32_t kTagResult = 3;

class PebbleApspProcess final : public congest::Process {
 public:
  PebbleApspProcess(NodeId id, NodeId n, bool aggregate)
      : id_(id),
        n_(n),
        aggregate_(aggregate),
        dist_row_(n, kInfDist),
        parent_row_(n, kNoParent),
        collect_bcast_(kTagCollect),
        summary_up_(kTagSummary, Convergecast::Op::kMax, Convergecast::Op::kMin,
                    Convergecast::Op::kMin),
        result_bcast_(kTagResult) {
    dist_row_[id] = 0;
  }

  void on_round(congest::RoundCtx& ctx) override {
    // Failure notices first: a node that learns of a crash this round (own
    // detector verdict, or a kFailNotice from a neighbor) degrades before
    // doing anything else, and forwards the notice exactly once.
    notice_.absorb(ctx);

    // Group this round's flood receipts by root: new roots must be forwarded
    // to everyone except their same-round senders (Claim 1's rule, which also
    // keeps every girth witness genuine). The per-root sender sets live in a
    // flat bitset over neighbor indices, one word-aligned slot per root, so
    // a round with many concurrent floods does bit tests instead of walking
    // per-root vectors.
    if (excl_stride_ == 0) {
      excl_stride_ = std::max<std::size_t>(
          64, ((std::size_t{ctx.degree()} + 63) / 64) * 64);
    }
    round_excl_.clear_prefix(round_roots_.size() * excl_stride_);
    round_roots_.clear();

    for (const congest::Received& r : ctx.inbox()) {
      switch (r.msg.kind) {
        case kApspFlood:
          // Handled even in degraded mode: relaying in-flight floods costs
          // nothing extra and maximizes surviving coverage.
          handle_flood(ctx, r);
          break;
        case kPebble:
          // A degraded node swallows the pebble — no new floods are started
          // behind a failure, so the traversal ends with the notice.
          if (!notice_.degraded()) handle_pebble(ctx);
          break;
        case kBcast:
          if (collect_bcast_.handle(r)) {
            arm_summary(ctx);
          } else if (result_bcast_.handle(r)) {
            adopt_result();
          }
          break;
        case kAggUp:
          summary_up_.handle(r);
          break;
        default:
          tree_.handle(ctx, r);  // the tree build's kFlood, kAck and kEcho
          break;
      }
    }

    tree_.advance(ctx);

    // Root: kick off the pebble once T1 is complete.
    if (id_ == 0 && tree_.root_complete() && !visited_ &&
        !notice_.degraded()) {
      handle_pebble(ctx);  // the pebble "enters" the root
    }

    // Scheduled actions fire one round after the pebble's first visit. A
    // degraded node still starts its already-scheduled flood (free coverage)
    // but keeps the pebble.
    if (visited_ && !acted_ && ctx.round() >= act_round_) {
      start_own_flood(ctx);
      if (!notice_.degraded()) forward_pebble(ctx);
      acted_ = true;
    }

    flush_new_roots(ctx);

    if (aggregate_ && !notice_.degraded()) run_aggregation(ctx);
  }

  bool done() const override {
    // An undelivered failure notice keeps the node schedulable so the
    // notice flood gets out (the detector's verdict arrives between rounds).
    if (notice_.pending()) return false;
    if (notice_.degraded()) return !visited_ || acted_;
    if (!visited_ || !acted_) return false;
    if (!aggregate_) return true;
    return have_result_ && result_bcast_.idle();
  }

  // Sleeps between timers: the tree build's, the pebble's one-round wait
  // before the node's own flood, and the root's COLLECT round. A pending
  // notice or a root ready to start the pebble runs at once; everything
  // else (flood forwards, the pebble, aggregation) arrives by message.
  std::uint64_t wake_round(std::uint64_t r) const override {
    if (done()) return congest::kNever;
    if (notice_.pending()) return r;
    std::uint64_t wake = tree_.wake_round(id_, r);
    if (visited_ && !acted_) wake = std::min(wake, std::max(r, act_round_));
    if (id_ == 0 && !notice_.degraded()) {
      if (tree_.root_complete() && !visited_) return r;
      if (aggregate_ && traversal_done_ && !collect_fired_) {
        wake = std::min(wake, std::max(r, collect_round_));
      }
    }
    return wake;
  }

  void on_neighbor_down(std::uint32_t, std::uint64_t) override {
    notice_.on_neighbor_down();
  }

  // -- Harvest (after the run) ------------------------------------------
  const std::vector<std::uint32_t>& dist_row() const { return dist_row_; }
  const std::vector<std::uint32_t>& parent_row() const { return parent_row_; }
  const TreeMachine& tree() const { return tree_; }
  std::uint32_t local_ecc() const { return local_ecc_; }
  std::uint32_t diameter() const { return result_[0]; }
  std::uint32_t radius() const { return result_[1]; }
  std::uint32_t girth_wire() const { return result_[2]; }
  bool is_center() const { return local_ecc_ == result_[1]; }
  bool is_peripheral() const { return local_ecc_ == result_[0]; }
  bool degraded() const { return notice_.degraded(); }
  bool has_result() const { return have_result_; }

 private:
  void handle_flood(congest::RoundCtx& ctx, const congest::Received& r) {
    const std::uint32_t root = r.msg.f[0];
    const std::uint32_t d = r.msg.f[1];
    if (dist_row_[root] == kInfDist) {
      dist_row_[root] = d;
      parent_row_[root] = r.from_index;  // Remark 4: parent in T_root
      ctx.trace_frontier(root, d);  // kFrontier: root's BFS wave reached us
      const std::size_t slot = round_roots_.size();
      round_roots_.push_back(root);
      // Reused slot words were zeroed by the previous flush's clear_prefix
      // (the stride is word-aligned, so the prefix covers them exactly).
      round_excl_.ensure((slot + 1) * excl_stride_);
      round_excl_.set(slot * excl_stride_ + r.from_index);
    } else {
      // Duplicate receipt: a cycle witness (Lemma 7). If the root became
      // known this very round, the sender is a co-parent and must also be
      // excluded from the forward. Roots are unique in round_roots_ (a root
      // is appended only on its first receipt), so stop at the hit.
      girth_candidate_ = std::min(girth_candidate_, dist_row_[root] + d);
      for (std::size_t s = 0; s < round_roots_.size(); ++s) {
        if (round_roots_[s] == root) {
          round_excl_.set(s * excl_stride_ + r.from_index);
          break;
        }
      }
    }
  }

  void flush_new_roots(congest::RoundCtx& ctx) {
    const std::size_t stride_words = excl_stride_ / 64;
    for (std::size_t s = 0; s < round_roots_.size(); ++s) {
      const std::uint32_t root = round_roots_[s];
      ctx.send_all_except(
          congest::Message::make(kApspFlood, root, dist_row_[root] + 1),
          round_excl_.words().subspan(s * stride_words, stride_words));
    }
    round_excl_.clear_prefix(round_roots_.size() * excl_stride_);
    round_roots_.clear();
  }

  void handle_pebble(congest::RoundCtx& ctx) {
    if (!visited_) {
      // First visit: wait one round, then start our BFS and move the pebble.
      visited_ = true;
      act_round_ = ctx.round() + 1;
    } else {
      forward_pebble(ctx);  // revisit: the pebble moves on immediately
    }
  }

  void start_own_flood(congest::RoundCtx& ctx) {
    ctx.send_all(congest::Message::make(kApspFlood, id_, 1));
  }

  void forward_pebble(congest::RoundCtx& ctx) {
    const auto& kids = tree_.children();
    if (child_cursor_ < kids.size()) {
      ctx.send(kids[child_cursor_++], congest::Message::make(kPebble));
    } else if (tree_.parent_index() != kNoParent) {
      ctx.send(tree_.parent_index(), congest::Message::make(kPebble));
    } else {
      // Root: traversal complete. Every flood has started by now; the last
      // one quiesces within 2*ecc(root) + 2 more rounds (Fact 1: D <= 2 ecc).
      traversal_done_ = true;
      collect_round_ = ctx.round() + 2 * std::uint64_t{tree_.root_ecc()} + 2;
    }
  }

  void arm_summary(congest::RoundCtx& ctx) {
    // COLLECT has arrived: all floods are over; fold
    // (max ecc, min ecc, min girth witness) to the root.
    local_ecc_ = 0;
    for (const std::uint32_t d : dist_row_) {
      local_ecc_ = std::max(local_ecc_, d);  // connected: all finite
    }
    // On a disconnected input local_ecc_ is kInfDist; clamp to the wire
    // sentinel so the leader's component still quiesces and the run fails
    // with the documented RoundLimitError (other components never finish).
    const std::uint32_t inf = congest::wire_infinity(n_);
    local_ecc_ = std::min(local_ecc_, inf);
    summary_up_.arm(local_ecc_, local_ecc_,
                    std::min(girth_candidate_, inf));
    (void)ctx;
  }

  void adopt_result() {
    result_ = {result_bcast_.value(0), result_bcast_.value(1),
               result_bcast_.value(2)};
    have_result_ = true;
  }

  void run_aggregation(congest::RoundCtx& ctx) {
    // Root: fire COLLECT at the scheduled round.
    if (id_ == 0 && traversal_done_ && !collect_fired_ &&
        ctx.round() >= collect_round_) {
      collect_fired_ = true;
      collect_bcast_.start(0);
      arm_summary(ctx);
    }
    collect_bcast_.advance(ctx, tree_);
    summary_up_.advance(ctx, tree_);
    if (id_ == 0 && summary_up_.complete() && !result_fired_) {
      result_fired_ = true;
      result_bcast_.start(summary_up_.value(0), summary_up_.value(1),
                          summary_up_.value(2));
      adopt_result();
    }
    result_bcast_.advance(ctx, tree_);
  }

  NodeId id_;
  NodeId n_;
  bool aggregate_;

  TreeMachine tree_;
  std::vector<std::uint32_t> dist_row_;
  std::vector<std::uint32_t> parent_row_;  // neighbor index toward each root

  FailureNotice notice_;  // crash survival: degraded mode

  // Pebble state.
  bool visited_ = false;
  bool acted_ = false;
  std::uint64_t act_round_ = 0;
  std::size_t child_cursor_ = 0;
  bool traversal_done_ = false;

  // Flood bookkeeping for the current round, flat: the roots first heard
  // this round, plus one word-aligned bitset slot per root marking the
  // same-round senders to exclude from the forward (capacity reused across
  // rounds; see DESIGN.md §16).
  std::vector<std::uint32_t> round_roots_;
  Bitset round_excl_;
  std::size_t excl_stride_ = 0;  // bits per root slot (degree, word-rounded)

  // Aggregation.
  std::uint32_t girth_candidate_ = kInfDist;
  std::uint32_t local_ecc_ = 0;
  Broadcast collect_bcast_;
  Convergecast summary_up_;
  Broadcast result_bcast_;
  std::uint64_t collect_round_ = 0;
  bool collect_fired_ = false;
  bool result_fired_ = false;
  bool have_result_ = false;
  std::array<std::uint32_t, 3> result_{};
};

}  // namespace

ApspResult run_pebble_apsp(const Graph& g, const ApspOptions& options) {
  const NodeId n = g.num_nodes();
  congest::Engine engine(g, options.engine);
  engine.init([&](NodeId v) {
    return std::make_unique<PebbleApspProcess>(v, n, options.aggregate);
  });

  ApspResult out;
  // Stalls (e.g. disconnected inputs) and congestion violations throw; a
  // quiescent run that saw failures reports kDegraded.
  out.stats = engine.run();
  out.status = congest::quiescent_status(out.stats);
  out.dist = DistanceMatrix(n);
  out.next_hop = Table<NodeId>(n, n, kNoNextHop);
  out.ecc.resize(n);
  out.is_center.assign(n, 0);
  out.is_peripheral.assign(n, 0);
  out.survived.resize(n);
  for (NodeId v = 0; v < n; ++v) out.survived[v] = engine.crashed(v) ? 0 : 1;

  const std::uint32_t inf = congest::wire_infinity(n);
  for (NodeId v = 0; v < n; ++v) {
    auto& p = engine.process_as<PebbleApspProcess>(v);
    const auto nbrs = g.neighbors(v);
    for (NodeId u = 0; u < n; ++u) {
      out.dist.set(v, u, p.dist_row()[u]);
      if (p.parent_row()[u] != kNoParent) {
        out.next_hop[v][u] = nbrs[p.parent_row()[u]];
      }
    }
    if (out.survived[v] != 0 && p.degraded()) out.degraded_nodes.push_back(v);
    if (v == 0) {
      out.leader_ecc = p.tree().root_ecc();
      out.tree_cycle_evidence = p.tree().root_cycle_evidence();
    }
    if (options.aggregate) {
      out.ecc[v] = p.local_ecc();
      out.is_center[v] = p.is_center() ? 1 : 0;
      out.is_peripheral[v] = p.is_peripheral() ? 1 : 0;
      if (v == 0) {
        out.diameter = p.diameter();
        out.radius = p.radius();
        out.girth = p.girth_wire() >= inf ? seq::kInfGirth : p.girth_wire();
      }
    }
  }
  out.aggregates_valid =
      options.aggregate && out.status == congest::RunStatus::kCompleted;

  // Coverage accounting: every node is a source; rows are judged over the
  // survivors only. (Fault-free runs trivially report all-complete.)
  std::vector<NodeId> sources(n);
  for (NodeId s = 0; s < n; ++s) sources[s] = s;
  out.coverage = classify_coverage(
      out.survived, sources,
      [&](NodeId v, NodeId s) { return out.dist.at(v, s); });
  return out;
}

std::vector<NodeId> extract_route(const ApspResult& r, NodeId from,
                                  NodeId to) {
  std::vector<NodeId> route{from};
  NodeId cur = from;
  while (cur != to) {
    const NodeId nh = r.next_hop[cur][to];
    if (nh == kNoNextHop) {
      throw std::logic_error("extract_route: no next hop recorded");
    }
    cur = nh;
    route.push_back(cur);
    if (route.size() > r.dist.n() + 1) {
      throw std::logic_error("extract_route: routing loop");
    }
  }
  return route;
}

}  // namespace dapsp::core
