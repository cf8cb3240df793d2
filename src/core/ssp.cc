#include "core/ssp.h"

#include <algorithm>
#include <bit>
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

void SspMachine::ensure_storage(std::uint32_t degree) {
  if (storage_ready_) return;
  storage_ready_ = true;
  delta_.assign(n_, kInfDist);
  parent_.assign(n_, kNoParent);
  degree_ = degree;
  words_ = (n_ + 63) / 64;
  owed_.assign(std::size_t{degree_} * words_, 0);
  cursor_dist_.assign(degree_, kInfDist);
  cursor_word_.assign(degree_, 0);
  last_sent_.assign(degree, kInfDist);  // kInfDist = "sent nothing"
  last_sent_dist_.assign(degree, kInfDist);
  heard_from_.assign(degree, 0);
  if (in_s_) {
    delta_[id_] = 0;
    owe_except(id_, kNoParent);
    if (cap_ != 0) learned_.insert({0, id_});
  }
}

void SspMachine::seed(std::uint32_t degree,
                      std::span<const std::uint32_t> dist) {
  if (storage_ready_) {
    throw std::logic_error("SspMachine::seed: loop already running");
  }
  ensure_storage(degree);
  std::ranges::copy(dist.first(n_), delta_.begin());
}

void SspMachine::owe(std::uint32_t src, std::uint32_t edge) {
  bucket_for(delta_[src])[src >> 6] |= bit_of(src);
  owe_on(edge, src);
}

bool SspMachine::quiet() const {
  const auto none = [](std::uint32_t x) { return x == kInfDist; };
  return pending_.empty() && std::ranges::all_of(last_sent_, none) &&
         std::ranges::all_of(cursor_dist_, none);
}

bool SspMachine::handle(congest::RoundCtx& ctx, const congest::Received& r) {
  if (r.msg.kind != kSspToken) return false;
  ensure_storage(ctx.degree());
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
    if (delta_[p.src] == kInfDist) {  // not known yet
      if (cap_ != 0 && learned_.size() >= cap_) {
        // Truncated detection: only the cap lexicographically smallest
        // (dist, id) sources are kept; a better claim evicts the current
        // worst, which stops being owed on every edge.
        const Entry worst = *learned_.rbegin();
        if (Entry{p.dist, p.src} >= worst) continue;
        const std::uint32_t gone = worst.second;
        learned_.erase(worst);
        unbucket(gone);
        for (std::uint32_t j = 0; j < degree_; ++j) {
          owed_row(j)[gone >> 6] &= ~bit_of(gone);
        }
        delta_[gone] = kInfDist;
        parent_[gone] = kNoParent;
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
      unbucket(p.src);
      delta_[p.src] = p.dist;
      parent_[p.src] = p.from_index;
      // Re-queue the corrected claim everywhere but back toward its sender
      // (the superseded claim leaves every list with its bucket). Cross-round
      // corrections are counted; bench_ssp reports how often the idealized
      // first-arrival ordering is violated in practice.
      if (cross_round) ++late_improvements_;
      owe_except(p.src, p.from_index);
      owed_row(p.from_index)[p.src >> 6] &= ~bit_of(p.src);
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
  owe_except(src, from_index);
  fresh_this_round_.insert(
      std::lower_bound(fresh_this_round_.begin(), fresh_this_round_.end(), src),
      src);
}

void SspMachine::advance(congest::RoundCtx& ctx) {
  if (!configured_) return;
  const std::uint64_t t = ctx.round();
  if (t < start_round_ || t > start_round_ + loop_rounds_) return;
  ensure_storage(ctx.degree());

  merge_pending();

  // Silence from a neighbor also means last round's send succeeded.
  if (t > start_round_) {
    for (std::uint32_t i = 0; i < degree_; ++i) {
      if (!heard_from_[i] && last_sent_[i] != kInfDist) {
        resolve_success(i);
      }
    }
  }
  std::fill(heard_from_.begin(), heard_from_.end(), 0);

  if (t == start_round_ + loop_rounds_) return;  // trailing receive round

  for (std::uint32_t i = 0; i < degree_; ++i) {
    const std::optional<Entry> head = front(i);
    if (!head) {
      last_sent_[i] = kInfDist;
      continue;
    }
    const auto [dist, li] = *head;
    ctx.send(i, congest::Message::make(kSspToken, li, dist + 1));
    last_sent_[i] = li;
    last_sent_dist_[i] = dist + 1;
  }
  if (degree_ != 0) release_buckets();
}

void SspMachine::resolve_success(std::uint32_t i) {
  // The claim we sent crossed the edge: retire it. If the distance has
  // improved since, bit (i, s) now stands for the improved claim, which
  // stays queued.
  const std::uint32_t s = last_sent_[i];
  if (delta_[s] == last_sent_dist_[i] - 1) owed_row(i)[s >> 6] &= ~bit_of(s);
  last_sent_[i] = kInfDist;
  last_sent_dist_[i] = kInfDist;
}

std::uint64_t* SspMachine::bucket_for(std::uint32_t dist) {
  const auto it = std::ranges::lower_bound(buckets_, dist, {}, &Bucket::dist);
  if (it != buckets_.end() && it->dist == dist) return bucket_row(it->slot);
  auto slot = static_cast<std::uint32_t>(bucket_bits_.size() / words_);
  if (free_slots_.empty()) {
    bucket_bits_.resize(bucket_bits_.size() + words_, 0);
  } else {
    slot = free_slots_.back();
    free_slots_.pop_back();
  }
  buckets_.insert(it, Bucket{dist, slot});
  return bucket_row(slot);
}

void SspMachine::unbucket(std::uint32_t s) {
  const auto it =
      std::ranges::lower_bound(buckets_, delta_[s], {}, &Bucket::dist);
  if (it != buckets_.end() && it->dist == delta_[s]) {
    bucket_row(it->slot)[s >> 6] &= ~bit_of(s);
  }
}

void SspMachine::owe_on(std::uint32_t j, std::uint32_t s) {
  const std::uint32_t d = delta_[s];
  const std::uint32_t w = s >> 6;
  owed_row(j)[w] |= bit_of(s);
  if (d < cursor_dist_[j] || (d == cursor_dist_[j] && w < cursor_word_[j])) {
    cursor_dist_[j] = d;
    cursor_word_[j] = w;
  }
}

void SspMachine::owe_except(std::uint32_t s, std::uint32_t skip) {
  bucket_for(delta_[s])[s >> 6] |= bit_of(s);
  for (std::uint32_t j = 0; j < degree_; ++j) {
    if (j != skip) owe_on(j, s);
  }
}

std::optional<SspMachine::Entry> SspMachine::front(std::uint32_t i) {
  const std::uint64_t* owed = owed_row(i);
  const std::uint32_t lo = cursor_dist_[i];
  for (auto it = std::ranges::lower_bound(buckets_, lo, {}, &Bucket::dist);
       it != buckets_.end(); ++it) {
    const std::uint64_t* row = bucket_row(it->slot);
    for (std::uint32_t w = it->dist == lo ? cursor_word_[i] : 0; w < words_;
         ++w) {
      const std::uint64_t live = row[w] & owed[w];
      if (live != 0) {
        cursor_dist_[i] = it->dist;
        cursor_word_[i] = w;
        const auto bit = static_cast<std::uint32_t>(std::countr_zero(live));
        return Entry{it->dist, w * 64 + bit};
      }
    }
  }
  cursor_dist_[i] = kInfDist;
  cursor_word_[i] = 0;
  return std::nullopt;
}

void SspMachine::release_buckets() {
  const std::uint32_t lo =
      *std::min_element(cursor_dist_.begin(), cursor_dist_.end());
  auto end = buckets_.begin();
  for (; end != buckets_.end() && end->dist < lo; ++end) {
    std::fill_n(bucket_row(end->slot), words_, 0);
    free_slots_.push_back(end->slot);
  }
  buckets_.erase(buckets_.begin(), end);
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
    loop_over_ = ssp_.finished(ctx.round() + 1);
  }

  // A degraded node is done but still relays the token loop: it idles only
  // once nothing is owed or the loop is over.
  bool idle() const override {
    return !degraded_ || loop_over_ || ssp_.quiet();
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
  bool loop_over_ = false;
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
