#include "congest/engine.h"

#include <algorithm>
#include <ostream>
#include <sstream>
#include <thread>

#include "util/bits.h"
#include "util/parallel.h"

namespace dapsp::congest {

void EngineMetrics::merge(const EngineMetrics& other) {
  edge_bits.merge(other.edge_bits);
  edge_messages.merge(other.edge_messages);
  round_activity.merge(other.round_activity);
}

void EngineMetrics::clear() {
  edge_bits.clear();
  edge_messages.clear();
  round_activity.clear();
}

void accumulate(RunStats& into, const RunStats& from) {
  if (into.bandwidth_bits != 0 && from.bandwidth_bits != 0 &&
      into.bandwidth_bits != from.bandwidth_bits) {
    throw std::invalid_argument(
        "accumulate: mismatched bandwidth budgets B=" +
        std::to_string(into.bandwidth_bits) + " vs B=" +
        std::to_string(from.bandwidth_bits) +
        " — stats from phases enforced under different budgets cannot share "
        "one bandwidth_bits field");
  }
  into.rounds += from.rounds;
  into.messages += from.messages;
  into.total_bits += from.total_bits;
  into.max_edge_bits = std::max(into.max_edge_bits, from.max_edge_bits);
  into.max_edge_messages =
      std::max(into.max_edge_messages, from.max_edge_messages);
  into.max_node_bits = std::max(into.max_node_bits, from.max_node_bits);
  into.bandwidth_bits = std::max(into.bandwidth_bits, from.bandwidth_bits);
  into.messages_dropped += from.messages_dropped;
  into.messages_delayed += from.messages_delayed;
  into.messages_duplicated += from.messages_duplicated;
  into.messages_corrupted += from.messages_corrupted;
  into.nodes_crashed += from.nodes_crashed;
  into.node_stall_rounds += from.node_stall_rounds;
  into.neighbors_suspected += from.neighbors_suspected;
}

std::string RunStats::debug_string() const {
  std::ostringstream os;
  os << "rounds=" << rounds << " messages=" << messages
     << " bits=" << total_bits << " max_edge_bits=" << max_edge_bits << "/B="
     << bandwidth_bits << " max_edge_msgs=" << max_edge_messages
     << " max_node_bits=" << max_node_bits;
  if (messages_dropped || messages_delayed || messages_duplicated ||
      messages_corrupted || nodes_crashed || node_stall_rounds ||
      neighbors_suspected) {
    os << " dropped=" << messages_dropped << " delayed=" << messages_delayed
       << " duplicated=" << messages_duplicated
       << " crashed=" << nodes_crashed
       << " suspected=" << neighbors_suspected;
    // Keep the counters introduced with the corruption/stall fault classes
    // out of older outputs: print them only when nonzero.
    if (messages_corrupted) os << " corrupted=" << messages_corrupted;
    if (node_stall_rounds) os << " stall_rounds=" << node_stall_rounds;
  }
  return std::move(os).str();
}

std::ostream& operator<<(std::ostream& os, const RunStats& s) {
  return os << s.debug_string();
}

const char* to_string(RunStatus s) noexcept {
  switch (s) {
    case RunStatus::kCompleted:
      return "completed";
    case RunStatus::kRoundLimit:
      return "round-limit";
    case RunStatus::kCongestion:
      return "congestion";
    case RunStatus::kDegraded:
      return "degraded";
  }
  return "?";
}

void RoundCtx::send_all(const Message& m) {
  const std::uint32_t d = degree();
  for (std::uint32_t i = 0; i < d; ++i) send(i, m);
}

namespace {

// Applies FaultDecision::corrupt_bit to a message: wire bit layout is the
// kTagBits kind bits followed by num_fields fields of value_bits bits each
// (matching Message::bit_cost, which bounded the draw).
Message corrupt_message(Message m, std::uint32_t bit,
                        std::uint32_t value_bits) {
  if (bit < static_cast<std::uint32_t>(kTagBits)) {
    m.kind = static_cast<std::uint8_t>(m.kind ^ (1u << bit));
  } else {
    const std::uint32_t i = (bit - kTagBits) / value_bits;
    const std::uint32_t j = (bit - kTagBits) % value_bits;
    m.f[i] ^= (1u << j);
  }
  return m;
}

}  // namespace

// The engine-backed round context: the real graph, the real round number,
// the engine's frozen inboxes and buffered sends. One Ctx lives on a worker
// stack per node per round; everything it touches is either read-only during
// the round (graph, round number, the previous round's inboxes) or owned by
// the node/shard (outbox, shard accumulator), so contexts never race.
class Engine::Ctx final : public RoundCtx {
 public:
  Ctx(Engine& engine, NodeId id, ShardAccum& acc) noexcept
      : RoundCtx(id), engine_(engine), acc_(acc) {}

  NodeId n() const noexcept override { return engine_.graph().num_nodes(); }
  std::uint64_t round() const noexcept override {
    return engine_.current_round();
  }
  std::uint32_t degree() const noexcept override {
    return engine_.graph().degree(id_);
  }
  NodeId neighbor(std::uint32_t index) const override {
    return engine_.graph().neighbors(id_)[index];
  }
  std::span<const Received> inbox() const noexcept override {
    const InboxFrame& frame = engine_.inbox_[engine_.cur_inbox_];
    return frame.len[id_] == 0
               ? std::span<const Received>{}
               : std::span<const Received>{frame.items.data() + frame.begin[id_],
                                           frame.len[id_]};
  }
  void send(std::uint32_t index, const Message& m) override {
    if (index >= degree()) {
      throw std::out_of_range("send: bad neighbor index");
    }
    acc_.outbox.push(PendingSend{index, m});
  }
  void note_neighbor_suspected(std::uint32_t neighbor_index) override {
    ++acc_.stats.neighbors_suspected;
    if (engine_.record_trace_) {
      TraceEvent ev;
      ev.kind = TraceEventKind::kNeighborDown;
      ev.node = id_;
      ev.peer = engine_.graph().neighbors(id_)[neighbor_index];
      ev.round = engine_.round_;
      acc_.events.push(ev);
    }
  }
  void trace_frontier(NodeId source, std::uint32_t dist) override {
    if (!engine_.record_trace_) return;
    TraceEvent ev;
    ev.kind = TraceEventKind::kFrontier;
    ev.node = id_;
    ev.peer = source;
    ev.round = engine_.round_;
    ev.msg.num_fields = 1;
    ev.msg.f[0] = dist;
    acc_.events.push(ev);
  }

 private:
  Engine& engine_;
  ShardAccum& acc_;
};

Engine::Engine(const Graph& g, EngineConfig config)
    : graph_(&g), config_(std::move(config)) {
  const NodeId n = g.num_nodes();
  if (n == 0) {
    throw std::invalid_argument(
        "Engine: empty graph (0 nodes); nothing to simulate");
  }
  if (config_.bandwidth_ids == 0) {
    throw std::invalid_argument(
        "Engine: bandwidth_ids must be >= 1 (B would admit no payload)");
  }
  // All transported values (ids, distances, 2*ecc estimates, counts,
  // sub-protocol tags) are < max(2n, 256); size the field width accordingly.
  // This is Theta(log n) with an 8-bit floor so that protocol tag constants
  // fit even on toy graphs.
  value_bits_ = static_cast<std::uint32_t>(
      bits_for(std::max<std::uint64_t>(2 * std::uint64_t{n}, 255)));
  bandwidth_bits_ =
      static_cast<std::uint32_t>(kTagBits) + config_.bandwidth_ids * value_bits_;
  max_rounds_ =
      config_.max_rounds != 0 ? config_.max_rounds : 64 * std::uint64_t{n} + 1024;

  for (InboxFrame& frame : inbox_) {
    frame.begin.assign(n, 0);
    frame.len.assign(n, 0);
  }
  inbox_cursor_.assign(n, 0);
  edge_offsets_.resize(n + 1, 0);
  for (NodeId v = 0; v < n; ++v) {
    edge_offsets_[v + 1] = edge_offsets_[v] + g.degree(v);
  }
  const std::size_t directed_edges = edge_offsets_[n];
  // Receiver-side index of every directed edge, built once: the adjacency is
  // CSR with sorted neighbor lists, so the one-time build is O(m log deg)
  // and every subsequent message delivery is a plain load.
  mirror_index_.resize(directed_edges);
  for (NodeId v = 0; v < n; ++v) {
    const auto nbrs = g.neighbors(v);
    for (std::size_t i = 0; i < nbrs.size(); ++i) {
      mirror_index_[edge_offsets_[v] + i] = *g.neighbor_index(nbrs[i], v);
    }
  }
  edge_bits_.assign(directed_edges, 0);
  edge_msgs_.assign(directed_edges, 0);
  edge_stamp_.assign(directed_edges, ~std::uint64_t{0});
  node_bits_.assign(n, 0);
  node_stamp_.assign(n, ~std::uint64_t{0});

  if (config_.faults) {
    faults_ = std::make_unique<FaultInjector>(g, *config_.faults);
    delay_ring_.resize(std::size_t{faults_->max_extra_delay()} + 2);
  }
  crashed_.assign(n, 0);

  threads_ = config_.threads != 0
                 ? config_.threads
                 : std::max(1u, std::thread::hardware_concurrency());
  record_trace_ = config_.trace != nullptr;
  const std::uint32_t shards =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(threads_, n));
  accum_.resize(shards);
  if (shards > 1) pool_ = std::make_unique<WorkerPool>(shards - 1);
}

Engine::~Engine() = default;

void Engine::init(
    const std::function<std::unique_ptr<Process>(NodeId)>& factory) {
  const NodeId n = graph_->num_nodes();
  processes_.clear();
  processes_.reserve(n);
  for (NodeId v = 0; v < n; ++v) {
    auto p = factory(v);
    if (config_.process_wrapper) p = config_.process_wrapper(v, std::move(p));
    processes_.push_back(std::move(p));
  }
  round_ = 0;
  stats_ = RunStats{};
  stats_.bandwidth_bits = bandwidth_bits_;
  pending_messages_ = 0;
  cur_inbox_ = 0;
  for (InboxFrame& frame : inbox_) {
    frame.items.clear();  // capacity retained
    std::fill(frame.begin.begin(), frame.begin.end(), std::size_t{0});
    std::fill(frame.len.begin(), frame.len.end(), std::size_t{0});
  }
  for (ShardAccum& acc : accum_) acc.reset();
  crashed_.assign(n, 0);
  for (auto& slot : delay_ring_) slot.clear();
  delayed_pending_ = 0;
  refresh_flags();
  // Crash-at-round-0 nodes never execute at all.
  apply_crashes();
}

void Engine::refresh_flags() {
  const NodeId n = graph_->num_nodes();
  done_.assign(n, 1);
  idle_.assign(n, 1);
  busy_ = 0;
  for (NodeId v = 0; v < n; ++v) {
    if (crashed_[v] != 0) continue;
    done_[v] = processes_[v]->done() ? 1 : 0;
    idle_[v] = done_[v] != 0 && processes_[v]->idle() ? 1 : 0;
    if (done_[v] == 0) ++busy_;
  }
}

void Engine::run_node(NodeId v, ShardAccum& acc) {
  if (crashed_[v] != 0) return;  // crash-stop: no execution, no sends
  if (faults_ && faults_->stalled(v, round_)) {
    // Transient stall: no execution, no sends, and the round's frozen inbox
    // is never read — the frame swap discards it, so count it as dropped
    // here (shard-local; v's inbox is owned by v's shard this round).
    acc.stats.messages_dropped += inbox_[cur_inbox_].len[v];
    ++acc.stats.node_stall_rounds;
    return;
  }
  if (skip_idle_ && idle_[v] != 0 && inbox_[cur_inbox_].len[v] == 0) return;
  acc.outbox.reset();  // the previous node's sends were consumed below
  Ctx ctx(*this, v, acc);
  Process& p = *processes_[v];
  try {
    p.on_round(ctx);
    const std::uint8_t done = p.done() ? 1 : 0;
    acc.busy_delta += static_cast<std::int64_t>(done_[v]) - done;
    done_[v] = done;
    idle_[v] = done != 0 && p.idle() ? 1 : 0;
  } catch (...) {
    // Capture instead of unwinding through the worker pool. Every node still
    // runs its round — which errors occur must not depend on the shard
    // partition — and the smallest-node error is rethrown after the merge.
    if (!acc.failed) {
      acc.failed = true;
      acc.failed_node = v;
      acc.error = std::current_exception();
    }
  }
  // Sends buffered before a mid-round failure are still accounted and
  // delivered, mirroring the serial engine (they were already on the wire).
  account_node(v, acc);
}

void Engine::account_node(NodeId v, ShardAccum& acc) {
  const auto outbox = acc.outbox.span();
  if (outbox.empty()) return;
  // An accounting violation reported by node v supersedes a phase-A failure
  // of the same node (the serial engine surfaced the send-time error first)
  // but never an earlier node's failure.
  const auto fail = [&](std::string text) {
    if (acc.failed && acc.failed_node != v) return;
    acc.failed = true;
    acc.failed_node = v;
    acc.error = std::make_exception_ptr(CongestionError(std::move(text)));
  };
  const auto nbrs = graph_->neighbors(v);
  // Event recording goes into the shard's own arena: shard-local, merged
  // later by drain_node_events() in shard order (= ascending sender order).
  const auto record = [&](TraceEventKind kind, NodeId to, const Message& m,
                          std::uint32_t aux) {
    TraceEvent ev;
    ev.kind = kind;
    ev.node = v;
    ev.peer = to;
    ev.round = round_;
    ev.aux = aux;
    ev.msg = m;
    acc.events.push(ev);
  };
  // The node's private fault-decision stream for this round: keyed by
  // (plan seed, v, round), so draws need no cross-shard coordination.
  Rng stream = faults_ ? faults_->stream(v, round_) : Rng(0);
  for (const PendingSend& ps : outbox) {
    const Message& m = ps.msg;
    // Payload honesty: every field must fit the declared field width. This
    // is what makes the B = O(log n) accounting meaningful.
    bool bad_field = false;
    for (int i = 0; i < m.num_fields; ++i) {
      if (std::uint64_t{m.f[static_cast<std::size_t>(i)]} >> value_bits_) {
        fail("message field exceeds value width: " + m.debug_string());
        bad_field = true;
        break;
      }
    }
    if (bad_field) break;  // rest of this node's outbox never hits the wire
    const NodeId to = nbrs[ps.neighbor_index];
    // Directed-edge and per-node load counters are owned by the sender, so
    // shards write disjoint slots.
    const std::size_t edge = edge_offsets_[v] + ps.neighbor_index;
    if (edge_stamp_[edge] != round_) {
      edge_stamp_[edge] = round_;
      edge_bits_[edge] = 0;
      edge_msgs_[edge] = 0;
      if (config_.metrics) acc.touched_edges.push_back(edge);
    }
    const std::uint32_t cost = m.bit_cost(value_bits_);
    edge_bits_[edge] += cost;
    edge_msgs_[edge] += 1;
    if (config_.enforce_bandwidth && edge_bits_[edge] > bandwidth_bits_) {
      fail("bandwidth exceeded on edge " + std::to_string(v) + "->" +
           std::to_string(to) + " in round " + std::to_string(round_) + ": " +
           std::to_string(edge_bits_[edge]) + " > B=" +
           std::to_string(bandwidth_bits_) + " bits (last: " +
           m.debug_string() + ")");
      break;
    }
    acc.stats.max_edge_bits = std::max(acc.stats.max_edge_bits,
                                       edge_bits_[edge]);
    acc.stats.max_edge_messages =
        std::max(acc.stats.max_edge_messages, edge_msgs_[edge]);
    if (node_stamp_[v] != round_) {
      node_stamp_[v] = round_;
      node_bits_[v] = 0;
    }
    node_bits_[v] += cost;
    acc.stats.max_node_bits = std::max(acc.stats.max_node_bits, node_bits_[v]);
    acc.stats.messages += 1;
    acc.stats.total_bits += cost;
    if (record_trace_) record(TraceEventKind::kSend, to, m, 0);
    if (config_.record_activity) ++acc.activity;

    // Index of `v` in `to`'s adjacency list: a precomputed load, not a
    // binary search — this runs once per message.
    const Received rec{mirror_index_[edge], m};

    if (faults_) {
      // The message was sent (and charged) — now the wire decides its fate.
      if (faults_->link_down(edge, round_)) {
        ++acc.stats.messages_dropped;
        if (record_trace_) record(TraceEventKind::kDrop, to, m, 0);
        continue;
      }
      const FaultDecision d = faults_->decide(stream, edge, cost);
      if (d.dropped) {
        ++acc.stats.messages_dropped;
        if (record_trace_) record(TraceEventKind::kDrop, to, m, 0);
        continue;
      }
      if (d.copies > 1) {
        ++acc.stats.messages_duplicated;
        if (record_trace_) record(TraceEventKind::kDuplicate, to, m, 0);
      }
      for (std::uint32_t c = 0; c < d.copies; ++c) {
        if (d.extra_delay[c] != 0) {
          ++acc.stats.messages_delayed;
          if (record_trace_) {
            record(TraceEventKind::kDelay, to, m, d.extra_delay[c]);
          }
        }
        Received copy = rec;
        if (d.corrupt_bit[c] != kNoCorruption) {
          copy.msg = corrupt_message(copy.msg, d.corrupt_bit[c], value_bits_);
          ++acc.stats.messages_corrupted;
          if (record_trace_) {
            record(TraceEventKind::kCorrupt, to, copy.msg, d.corrupt_bit[c]);
          }
        }
        acc.deliveries.push(ResolvedDelivery{v, to, copy, d.extra_delay[c]});
      }
      continue;
    }
    acc.deliveries.push(ResolvedDelivery{v, to, rec, 0});
  }
  if (config_.metrics) {
    // Final per-(edge, round) values: the sender owns its edges, so after
    // its outbox the counters are complete for the round.
    for (const std::size_t edge : acc.touched_edges) {
      acc.metrics.edge_bits.add(edge_bits_[edge]);
      acc.metrics.edge_messages.add(edge_msgs_[edge]);
    }
    acc.touched_edges.clear();
  }
}

void Engine::run_phases() {
  const NodeId n = graph_->num_nodes();
  const std::uint32_t shards =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(threads_, n));
  for (ShardAccum& acc : accum_) acc.reset();

  // Phases A+B fused, always inline: the trace is fed from the per-sender
  // event buffers after the merge, so instrumentation never forces a serial
  // accounting pass.
  const auto shard_body = [&](unsigned s) {
    const NodeId lo = static_cast<NodeId>(std::uint64_t{n} * s / shards);
    const NodeId hi = static_cast<NodeId>(std::uint64_t{n} * (s + 1) / shards);
    ShardAccum& acc = accum_[s];
    for (NodeId v = lo; v < hi; ++v) run_node(v, acc);
  };
  if (pool_) {
    pool_->run(shards, shard_body);
  } else {
    shard_body(0);
  }

  // Merge in fixed shard order. Counters add, loads take maxima and
  // histograms sum per value, so the merged RunStats and metrics are
  // independent of the shard partition — the determinism contract across
  // thread counts.
  std::uint64_t activity = 0;
  std::uint64_t round_messages = 0;
  for (const ShardAccum& acc : accum_) {
    accumulate(stats_, acc.stats);
    busy_ = static_cast<std::uint64_t>(static_cast<std::int64_t>(busy_) +
                                       acc.busy_delta);
    activity += acc.activity;
    round_messages += acc.stats.messages;
    if (config_.metrics) config_.metrics->merge(acc.metrics);
  }
  if (config_.metrics) config_.metrics->round_activity.add(round_messages);
  if (config_.record_activity && activity > 0) {
    if (activity_.size() <= round_) activity_.resize(round_ + 1, 0);
    activity_[round_] = activity;
  }

  // Drain buffered events in global send order before error propagation:
  // the trace keeps every accounted send of the failing round too.
  if (record_trace_) drain_node_events();

  // Rethrow the failure of the smallest node (shard ranges ascend, so the
  // first failed shard's record is the smallest; scan all for clarity). A
  // same-node tie between a phase-A error and an accounting error was
  // already resolved in favor of the accounting error by fail() above.
  const ShardAccum* worst = nullptr;
  for (const ShardAccum& acc : accum_) {
    if (!acc.failed) continue;
    if (worst == nullptr || acc.failed_node < worst->failed_node) {
      worst = &acc;
    }
  }
  if (worst != nullptr) std::rethrow_exception(worst->error);
}

void Engine::drain_node_events() {
  // Shards own ascending node ranges and run their nodes in order, so the
  // arenas concatenated in shard order replay events in ascending sender
  // order, each sender's events in append order — the serial engine's
  // global send order.
  for (const ShardAccum& acc : accum_) {
    for (const TraceEvent& ev : acc.events.span()) config_.trace->append(ev);
  }
}

void Engine::deliver_round() {
  // Count + prefix-sum + scatter into the next frame. Within a receiver's
  // segment: normal deliveries in ascending sender order (then send order),
  // followed by delayed copies coming due in ring order — exactly the
  // per-node delivery order of the pre-flat engine. Delayed copies are
  // routed to the ring during the counting pass.
  const NodeId n = graph_->num_nodes();
  InboxFrame& next = inbox_[cur_inbox_ ^ 1u];
  std::fill(next.len.begin(), next.len.end(), std::size_t{0});
  std::uint64_t total = 0;
  for (const ShardAccum& acc : accum_) {
    for (const ResolvedDelivery& d : acc.deliveries.span()) {
      if (d.extra_delay == 0) {
        ++next.len[d.to];
        ++total;
      } else {
        const std::uint64_t due = round_ + 1 + d.extra_delay;
        delay_ring_[due % delay_ring_.size()].push_back({d.to, d.rec});
        ++delayed_pending_;
      }
    }
  }
  // Delayed copies whose delivery round has come join the same frame, after
  // every normal delivery of their receiver.
  std::vector<std::pair<NodeId, Received>>* due_slot = nullptr;
  if (faults_) {
    due_slot = &delay_ring_[(round_ + 1) % delay_ring_.size()];
    for (const auto& [to, rec] : *due_slot) {
      ++next.len[to];
      ++total;
    }
  }
  std::size_t offset = 0;
  for (NodeId v = 0; v < n; ++v) {
    next.begin[v] = offset;
    inbox_cursor_[v] = offset;
    offset += next.len[v];
  }
  next.items.resize(offset);  // within retained capacity after warm-up
  for (const ShardAccum& acc : accum_) {
    for (const ResolvedDelivery& d : acc.deliveries.span()) {
      if (d.extra_delay != 0) continue;
      next.items[inbox_cursor_[d.to]++] = d.rec;
      if (record_trace_) {
        TraceEvent ev;
        ev.kind = TraceEventKind::kDeliver;
        ev.node = d.to;
        ev.peer = d.from;
        ev.round = round_ + 1;  // the round the receiver sees it
        ev.msg = d.rec.msg;
        config_.trace->append(ev);
      }
    }
  }
  if (due_slot != nullptr) {
    for (auto& [to, rec] : *due_slot) {
      --delayed_pending_;
      next.items[inbox_cursor_[to]++] = rec;
      if (record_trace_) {
        TraceEvent ev;
        ev.kind = TraceEventKind::kDeliver;
        ev.node = to;
        ev.peer = graph_->neighbors(to)[rec.from_index];
        ev.round = round_ + 1;
        ev.msg = rec.msg;
        config_.trace->append(ev);
      }
    }
    due_slot->clear();
  }
  pending_messages_ = total;
  cur_inbox_ ^= 1u;
}

void Engine::apply_crashes() {
  if (!faults_) return;
  const NodeId n = graph_->num_nodes();
  InboxFrame& cur = inbox_[cur_inbox_];
  for (NodeId v = 0; v < n; ++v) {
    if (crashed_[v] == 0 && faults_->crashed(v, round_)) {
      crashed_[v] = 1;
      if (done_[v] == 0) --busy_;
      done_[v] = 1;
      idle_[v] = 1;
      ++stats_.nodes_crashed;
      if (record_trace_) {
        TraceEvent ev;
        ev.kind = TraceEventKind::kCrash;
        ev.node = v;
        ev.round = round_;
        config_.trace->append(ev);
      }
    }
    if (crashed_[v] != 0 && cur.len[v] != 0) {
      // Deliveries to a crashed node vanish (the segment stays in items but
      // is unreachable once len is zeroed).
      stats_.messages_dropped += cur.len[v];
      pending_messages_ -= cur.len[v];
      cur.len[v] = 0;
    }
  }
}

void Engine::step() {
  if (round_ >= max_rounds_) {
    throw RoundLimitError("round limit exceeded (" +
                          std::to_string(max_rounds_) +
                          " rounds); protocol livelock?");
  }
  run_phases();
  // What was queued this round (plus delayed copies coming due) becomes next
  // round's frozen frame.
  deliver_round();
  ++round_;
  stats_.rounds = round_;
  // Crashes scheduled for the new round silence the node before it runs, and
  // absorb anything addressed to it (normal or delayed).
  apply_crashes();
}

bool Engine::quiescent() const {
  return pending_messages_ == 0 && delayed_pending_ == 0 && busy_ == 0;
}

RunStats Engine::run() {
  // Processes may have been touched between runs: re-read their flags.
  refresh_flags();
  skip_idle_ = true;
  while (!quiescent()) step();
  return stats_;
}

RunStats Engine::run_rounds(std::uint64_t rounds) {
  skip_idle_ = false;
  for (std::uint64_t i = 0; i < rounds; ++i) step();
  return stats_;
}

Outcome Engine::run_bounded() {
  Outcome out;
  try {
    out.stats = run();
    // Quiescence with observed node failures is survival, not success: the
    // caller gets kDegraded plus the crash/detector counters, and should
    // treat harvested tables as partial until certified (core/certify.h).
    if (out.stats.nodes_crashed > 0 || out.stats.neighbors_suspected > 0) {
      out.status = RunStatus::kDegraded;
      out.message = "terminated degraded: crashed=" +
                    std::to_string(out.stats.nodes_crashed) +
                    " neighbors_suspected=" +
                    std::to_string(out.stats.neighbors_suspected);
    } else {
      out.status = RunStatus::kCompleted;
    }
  } catch (const RoundLimitError& e) {
    out.status = RunStatus::kRoundLimit;
    out.stats = stats_;
    out.message = e.what();
  } catch (const CongestionError& e) {
    out.status = RunStatus::kCongestion;
    out.stats = stats_;
    out.message = e.what();
  }
  return out;
}

}  // namespace dapsp::congest
