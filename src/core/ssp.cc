#include "core/ssp.h"

#include <algorithm>
#include <memory>
#include <stdexcept>

#include "core/primitives/aggregation.h"

namespace dapsp::core {

SspMachine::SspMachine(NodeId id, NodeId n, bool in_s)
    : id_(id), n_(n), in_s_(in_s) {}

void SspMachine::configure(std::uint64_t start_round,
                           std::uint64_t loop_rounds) {
  start_round_ = start_round;
  loop_rounds_ = loop_rounds;
  configured_ = true;
}

void SspMachine::set_in_s(bool in_s) {
  if (storage_ready_) {
    throw std::logic_error("SspMachine::set_in_s: loop already running");
  }
  in_s_ = in_s;
}

void SspMachine::set_cap(std::uint32_t cap) {
  if (storage_ready_) {
    throw std::logic_error("SspMachine::set_cap: loop already running");
  }
  cap_ = cap;
}

std::vector<std::pair<std::uint32_t, std::uint32_t>>
SspMachine::nearest_sources() const {
  if (cap_ != 0) return {learned_.begin(), learned_.end()};
  std::vector<Entry> all;
  for (std::uint32_t u = 0; u < delta_.size(); ++u) {
    if (delta_[u] != kInfDist) all.push_back({delta_[u], u});
  }
  std::sort(all.begin(), all.end());
  return all;
}

void SspMachine::ensure_storage(congest::RoundCtx& ctx) {
  if (storage_ready_) return;
  storage_ready_ = true;
  delta_.assign(n_, kInfDist);
  parent_.assign(n_, kNoParent);
  in_l_.assign(n_, 0);
  lists_.resize(ctx.degree());
  last_sent_.assign(ctx.degree(), kInfDist);  // kInfDist = "sent nothing"
  last_sent_dist_.assign(ctx.degree(), kInfDist);
  heard_from_.assign(ctx.degree(), 0);
  if (in_s_) {
    delta_[id_] = 0;
    in_l_[id_] = 1;
    for (auto& l : lists_) l.insert({0, id_});
    if (cap_ != 0) learned_.insert({0, id_});
  }
}

bool SspMachine::handle(congest::RoundCtx& ctx, const congest::Received& r) {
  if (r.msg.kind != kSspToken) return false;
  ensure_storage(ctx);
  const std::uint32_t src = r.msg.f[0];
  const std::uint32_t dist = r.msg.f[1];
  const std::uint32_t i = r.from_index;
  heard_from_[i] = 1;

  // Resolve last round's simultaneous exchange on this edge (shifted one
  // round by the engine's delivery latency). The paper's rule (lines 19-27):
  // the *smaller* id wins the edge. If the neighbor's id is not smaller than
  // what we sent, our send succeeded (drop it from L_i) and the incoming
  // message is discarded — the neighbor saw the failure and will retry.
  // Accepting failed transmissions would break the delay symmetry on which
  // Theorem 3's first-arrival argument rests.
  // Lexicographic wire priority: (claimed distance, source id).
  const auto incoming = std::make_pair(dist, src);
  const auto sent = std::make_pair(last_sent_dist_[i], last_sent_[i]);
  if (last_sent_[i] != kInfDist && !(incoming < sent)) {
    const bool tie = incoming == sent;
    resolve_success(i);
    if (!tie) {
      return true;  // a lower-priority incoming claim failed; sender retries
    }
    // Tie: both endpoints offered the same id and both transmissions count
    // as successful — this is the edge where two wavefronts of the flood
    // meet. The two claims may differ (ours may have been learned via a
    // detour), so the incoming one must still be merged below; the merge
    // pass also records the meeting-edge cycle witness, which is how odd
    // minimum cycles are detected.
  }

  // Accepted. Buffer it: all of a round's accepted claims for one source are
  // merged in advance() so that inbox order cannot select a non-minimal
  // claim (wavefronts of the same flood may arrive together with different
  // claimed distances when one path was priority-delayed and another not —
  // a case the extended abstract's pseudocode glosses over).
  pending_.push_back(PendingReceipt{src, dist, i});
  return true;
}

void SspMachine::merge_pending() {
  // First pass: minimal claim per source this round.
  for (const PendingReceipt& p : pending_) {
    if (in_l_[p.src] == 0) {
      if (cap_ != 0 && learned_.size() >= cap_) {
        // Truncated detection: only the cap lexicographically smallest
        // (dist, id) sources are kept; a better claim evicts the current
        // worst (whose queued entries go stale and are skipped at send).
        const Entry worst = *learned_.rbegin();
        if (Entry{p.dist, p.src} >= worst) continue;
        learned_.erase(worst);
        in_l_[worst.second] = 0;
        delta_[worst.second] = kInfDist;
        parent_[worst.second] = kNoParent;
      }
      learn(p.src, p.dist, p.from_index);
      if (cap_ != 0) learned_.insert({p.dist, p.src});
    } else if (p.dist < delta_[p.src]) {
      const bool cross_round = !std::binary_search(
          fresh_this_round_.begin(), fresh_this_round_.end(), p.src);
      if (cap_ != 0) {
        learned_.erase({delta_[p.src], p.src});
        learned_.insert({p.dist, p.src});
      }
      delta_[p.src] = p.dist;
      parent_[p.src] = p.from_index;
      // Re-queue the corrected claim everywhere (the entries inserted with
      // the superseded distance are lazily dropped by the send phase).
      // Cross-round corrections are counted; bench_ssp reports how often
      // the idealized first-arrival ordering is violated in practice.
      if (cross_round) ++late_improvements_;
      for (std::uint32_t j = 0; j < lists_.size(); ++j) {
        if (j != p.from_index) lists_[j].insert({p.dist, p.src});
      }
    }
  }
  // Second pass: every non-defining receipt is a cycle witness
  // (delta_v + (delta_w + 1), both paths genuinely disjoint from the edge).
  for (const PendingReceipt& p : pending_) {
    if (p.dist > delta_[p.src] ||
        (p.dist == delta_[p.src] && parent_[p.src] != p.from_index)) {
      girth_witness_ = std::min(girth_witness_, delta_[p.src] + p.dist);
    }
  }
  pending_.clear();
  fresh_this_round_.clear();
}

void SspMachine::learn(std::uint32_t src, std::uint32_t dist,
                       std::uint32_t from_index) {
  delta_[src] = dist;
  parent_[src] = from_index;
  in_l_[src] = 1;
  for (std::uint32_t i = 0; i < lists_.size(); ++i) {
    if (i != from_index) lists_[i].insert({dist, src});
  }
  fresh_this_round_.insert(
      std::lower_bound(fresh_this_round_.begin(), fresh_this_round_.end(), src),
      src);
}

void SspMachine::advance(congest::RoundCtx& ctx) {
  if (!configured_) return;
  const std::uint64_t t = ctx.round();
  if (t < start_round_ || t > start_round_ + loop_rounds_) return;
  ensure_storage(ctx);

  merge_pending();

  // Silence from a neighbor also means last round's send succeeded.
  if (t > start_round_) {
    for (std::uint32_t i = 0; i < lists_.size(); ++i) {
      if (!heard_from_[i] && last_sent_[i] != kInfDist) {
        resolve_success(i);
      }
    }
  }
  std::fill(heard_from_.begin(), heard_from_.end(), 0);

  if (t == start_round_ + loop_rounds_) return;  // trailing receive round

  for (std::uint32_t i = 0; i < lists_.size(); ++i) {
    // Skip entries whose claim was since improved (a fresher entry exists).
    while (!lists_[i].empty() &&
           lists_[i].begin()->first != delta_[lists_[i].begin()->second]) {
      lists_[i].erase(lists_[i].begin());
    }
    if (lists_[i].empty()) {
      last_sent_[i] = kInfDist;
      continue;
    }
    const auto [dist, li] = *lists_[i].begin();
    ctx.send(i, congest::Message::make(kSspToken, li, dist + 1));
    last_sent_[i] = li;
    last_sent_dist_[i] = dist + 1;
  }
}

void SspMachine::resolve_success(std::uint32_t i) {
  // The claim we sent crossed the edge: retire that exact entry. If the
  // distance has improved since, the improved entry is a different (smaller)
  // pair and stays queued.
  lists_[i].erase({last_sent_dist_[i] - 1, last_sent_[i]});
  last_sent_[i] = kInfDist;
  last_sent_dist_[i] = kInfDist;
}

std::uint32_t SspMachine::max_delta() const {
  std::uint32_t best = 0;
  for (const std::uint32_t d : delta_) {
    if (d != kInfDist) best = std::max(best, d);
  }
  return best;
}

namespace {

constexpr std::uint32_t kTagSspParams = 10;

// Standalone Algorithm 2 driver process.
class SspProcess final : public congest::Process {
 public:
  SspProcess(NodeId id, NodeId n, bool in_s)
      : id_(id), tree_(in_s), ssp_(id, n, in_s), params_(kTagSspParams) {}

  void on_round(congest::RoundCtx& ctx) override {
    absorb_failure_notices(ctx);

    for (const congest::Received& r : ctx.inbox()) {
      if (r.msg.kind == kFailNotice) continue;  // consumed above
      if (tree_.handle(ctx, r)) continue;
      if (ssp_.handle(ctx, r)) continue;
      if (params_.handle(r)) {
        // (|S|, D0, delta): the loop starts `delta` rounds after the root
        // sent this broadcast; recover the absolute round from our depth.
        const std::uint64_t t_start =
            ctx.round() - tree_.dist() + params_.value(2);
        ssp_.configure(t_start, SspMachine::schedule_length(
                                    params_.value(0), params_.value(1)));
      }
    }

    tree_.advance(ctx);

    if (id_ == 0 && tree_.root_complete() && !params_sent_) {
      params_sent_ = true;
      const std::uint32_t s_count = tree_.root_marked_count();
      const std::uint32_t d0 = 2 * tree_.root_ecc();
      const std::uint32_t delta = tree_.root_ecc() + 1;
      params_.start(s_count, d0, delta);
      ssp_.configure(ctx.round() + delta,
                     SspMachine::schedule_length(s_count, d0));
      d0_ = d0;
    }
    params_.advance(ctx, tree_);
    ssp_.advance(ctx);

    quiescent_ = tree_.finished(id_) && params_.idle() &&
                 ssp_.configured() && ssp_.finished(ctx.round());
  }

  bool done() const override {
    // Keep schedulable until a detector verdict's notice flood is out; a
    // degraded node is otherwise done (it still relays the token loop while
    // messages flow, which drains on its own schedule).
    if (notice_pending_) return false;
    if (degraded_) return true;
    return quiescent_;
  }

  void on_neighbor_down(std::uint32_t, std::uint64_t) override {
    notice_pending_ = true;
  }

  const SspMachine& ssp() const { return ssp_; }
  const TreeMachine& tree() const { return tree_; }
  std::uint32_t d0() const { return d0_; }
  bool degraded() const { return degraded_; }

 private:
  void absorb_failure_notices(congest::RoundCtx& ctx) {
    bool saw = notice_pending_;
    notice_pending_ = false;
    notice_exclude_.clear();
    for (const congest::Received& r : ctx.inbox()) {
      if (r.msg.kind == kFailNotice) {
        saw = true;
        notice_exclude_.push_back(r.from_index);
      }
    }
    if (!saw || degraded_) return;  // forward-once flood
    degraded_ = true;
    const std::uint32_t deg = ctx.degree();
    for (std::uint32_t i = 0; i < deg; ++i) {
      if (std::find(notice_exclude_.begin(), notice_exclude_.end(), i) !=
          notice_exclude_.end()) {
        continue;
      }
      ctx.send(i, congest::Message::make(kFailNotice));
    }
  }

  NodeId id_;
  TreeMachine tree_;
  SspMachine ssp_;
  Broadcast params_;
  bool params_sent_ = false;
  std::uint32_t d0_ = 0;
  bool quiescent_ = false;
  bool notice_pending_ = false;
  bool degraded_ = false;
  std::vector<std::uint32_t> notice_exclude_;
};

}  // namespace

SspResult run_ssp(const Graph& g, std::span<const NodeId> sources,
                  const SspOptions& options) {
  const NodeId n = g.num_nodes();
  std::vector<std::uint8_t> in_s(n, 0);
  for (const NodeId s : sources) {
    if (s >= n) throw std::invalid_argument("run_ssp: source out of range");
    in_s[s] = 1;
  }

  congest::Engine engine(g, options.engine);
  engine.init([&](NodeId v) {
    return std::make_unique<SspProcess>(v, n, in_s[v] != 0);
  });

  SspResult out;
  out.sources.assign(sources.begin(), sources.end());
  std::sort(out.sources.begin(), out.sources.end());
  out.sources.erase(std::unique(out.sources.begin(), out.sources.end()),
                    out.sources.end());
  // run_bounded: degraded terminations become a status; genuine stalls and
  // congestion violations keep throwing as before.
  const congest::Outcome outcome = engine.run_bounded();
  if (outcome.status == congest::RunStatus::kRoundLimit) {
    throw congest::RoundLimitError(outcome.message);
  }
  if (outcome.status == congest::RunStatus::kCongestion) {
    throw congest::CongestionError(outcome.message);
  }
  out.status = outcome.status;
  out.stats = outcome.stats;
  out.survived.resize(n);
  for (NodeId v = 0; v < n; ++v) out.survived[v] = engine.crashed(v) ? 0 : 1;
  // A node that never configured its machine keeps empty rows: all unknown.
  out.delta = Table<std::uint32_t>(n, n, kInfDist);
  out.parent_index = Table<std::uint32_t>(n, n, kNoParent);
  for (NodeId v = 0; v < n; ++v) {
    auto& p = engine.process_as<SspProcess>(v);
    std::ranges::copy(p.ssp().delta(), out.delta[v].begin());
    std::ranges::copy(p.ssp().parent_index(), out.parent_index[v].begin());
    if (out.survived[v] != 0 && p.degraded()) out.degraded_nodes.push_back(v);
    out.min_girth_witness =
        std::min(out.min_girth_witness, p.ssp().girth_witness());
    out.total_late_improvements += p.ssp().late_improvements();
    if (v == 0) {
      out.leader_ecc = p.tree().root_ecc();
      out.d0 = p.d0();
      out.loop_rounds =
          SspMachine::schedule_length(out.sources.size(), out.d0);
    }
  }
  out.coverage = classify_coverage(
      out.survived, out.sources,
      [&](NodeId v, NodeId s) { return out.delta.at(v, s); });
  return out;
}

}  // namespace dapsp::core
