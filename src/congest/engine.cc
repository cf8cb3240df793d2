#include "congest/engine.h"

#include <algorithm>
#include <bit>
#include <limits>
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

namespace {

// Whether send_all_except's skip set names neighbor i.
bool skipped(std::span<const std::uint64_t> skip, std::uint32_t i) noexcept {
  return i / 64 < skip.size() && ((skip[i / 64] >> (i % 64)) & 1) != 0;
}

}  // namespace

void RoundCtx::send_all(const Message& m) {
  const std::uint32_t d = degree();
  for (std::uint32_t i = 0; i < d; ++i) send(i, m);
}

void RoundCtx::send_all_except(const Message& m,
                               std::span<const std::uint64_t> skip) {
  const std::uint32_t d = degree();
  for (std::uint32_t i = 0; i < d; ++i) {
    if (!skipped(skip, i)) send(i, m);
  }
}

namespace {

// Builds without NDEBUG (the sanitizer configurations) audit every node a
// round skips against the wake contract (Engine::audit_skipped).
#ifdef NDEBUG
constexpr bool kAuditSkips = false;
#else
constexpr bool kAuditSkips = true;
#endif

// Heap order of the wake-up timers: the earliest round on top.
constexpr auto kLater = [](const auto& a, const auto& b) {
  return a.round > b.round;
};

// Calls fn(v) for every set bit v of a node bitset, in ascending order.
template <typename Fn>
void for_each_node(const std::vector<std::uint64_t>& bits, Fn&& fn) {
  for (std::size_t w = 0; w < bits.size(); ++w) {
    for (std::uint64_t word = bits[w]; word != 0; word &= word - 1) {
      fn(static_cast<NodeId>(w * 64 + static_cast<std::size_t>(
                                           std::countr_zero(word))));
    }
  }
}

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
// the engine's frozen inboxes, and send-time accounting. One Ctx lives on a
// worker stack per node per round; everything it touches is either
// read-only during the round (graph, round number, the previous round's
// inboxes) or owned by the node/shard (the node's directed-edge counters,
// the shard accumulator and arenas), so contexts never race.
class Engine::Ctx final : public RoundCtx {
 public:
  Ctx(Engine& engine, NodeId id, ShardAccum& acc) noexcept
      : RoundCtx(id),
        engine_(engine),
        acc_(acc),
        nbrs_(engine.graph().neighbors(id)),
        edge0_(engine.edge_offsets_[id]) {}
  // The audit's record-only context: a send, a trace or a verdict only sets
  // `noted`; nothing is accounted.
  Ctx(Engine& engine, NodeId id, ShardAccum& acc, bool& noted) noexcept
      : Ctx(engine, id, acc) {
    noted_ = &noted;
  }

  // Adds the node's charged sends to the shard stats once it has run.
  void settle() {
    RunStats& stats = acc_.stats;
    stats.messages += sent_;
    stats.total_bits += sent_bits_;
    stats.max_node_bits = std::max(stats.max_node_bits, sent_bits_);
  }

  NodeId n() const noexcept override { return engine_.graph().num_nodes(); }
  std::uint64_t round() const noexcept override {
    return engine_.current_round();
  }
  std::uint32_t degree() const noexcept override {
    return static_cast<std::uint32_t>(nbrs_.size());
  }
  NodeId neighbor(std::uint32_t index) const override { return nbrs_[index]; }
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
    if (noted_ != nullptr) {
      *noted_ = true;
      return;
    }
    if (muted_ || !fits(m)) return;
    const std::uint32_t cost = m.bit_cost(engine_.value_bits_);
    if (charge(index, m, cost)) resolve(index, m);
  }
  void send_all(const Message& m) override { send_all_except(m, {}); }
  void send_all_except(const Message& m,
                       std::span<const std::uint64_t> skip) override {
    const std::uint32_t deg = degree();
    const std::uint32_t cost = m.bit_cost(engine_.value_bits_);
    bool checked = false;
    for (std::uint32_t i = 0; i < deg && !muted_; ++i) {
      if (skipped(skip, i)) continue;
      if (noted_ != nullptr) {
        *noted_ = true;
        return;
      }
      if (!checked) {
        if (!fits(m)) return;
        checked = true;
      }
      if (charge(i, m, cost)) resolve(i, m);
    }
  }
  void note_neighbor_suspected(std::uint32_t neighbor_index) override {
    if (noted_ != nullptr) {
      *noted_ = true;
      return;
    }
    ++acc_.stats.neighbors_suspected;
    if (engine_.record_trace_) {
      TraceEvent ev;
      ev.kind = TraceEventKind::kNeighborDown;
      ev.node = id_;
      ev.peer = nbrs_[neighbor_index];
      ev.round = engine_.round_;
      acc_.events.push(ev);
    }
  }
  void trace_frontier(NodeId source, std::uint32_t dist) override {
    if (noted_ != nullptr) {
      *noted_ = true;
      return;
    }
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
  // A node's first accounting failure is the round's error unless an
  // earlier node of the shard failed first; either way the rest of this
  // node's sends never hit the wire. Its own later exception cannot replace
  // the error (run_node keeps the first).
  void fail(std::string text) {
    muted_ = true;
    if (acc_.failed) return;
    acc_.failed = true;
    acc_.failed_node = id_;
    acc_.error = std::make_exception_ptr(CongestionError(std::move(text)));
  }

  // Payload honesty: every field must fit the declared field width. This is
  // what makes the B = O(log n) accounting meaningful.
  bool fits(const Message& m) {
    for (int i = 0; i < m.num_fields; ++i) {
      if (std::uint64_t{m.f[static_cast<std::size_t>(i)]} >>
          engine_.value_bits_) {
        fail("message field exceeds value width: " + m.debug_string());
        return false;
      }
    }
    return true;
  }

  // Send-side events go to the shard's per-node scratch, appended after the
  // node's on_round() (run_node).
  void record(TraceEventKind kind, NodeId to, const Message& m,
              std::uint32_t aux) {
    TraceEvent ev;
    ev.kind = kind;
    ev.node = id_;
    ev.peer = to;
    ev.round = engine_.round_;
    ev.aux = aux;
    ev.msg = m;
    acc_.send_events.push(ev);
  }

  // Bandwidth accounting of one send of `m` (of wire width `cost`) to
  // neighbor `index`, whose fields were checked. False when it breaks the
  // budget: the message never hits the wire and the node is muted.
  bool charge(std::uint32_t index, const Message& m, std::uint32_t cost) {
    Engine& e = engine_;
    // Directed-edge load counters are owned by the sender, so shards write
    // disjoint slots.
    const std::size_t edge = edge0_ + index;
    if (e.edge_stamp_[edge] != e.round_) {
      e.edge_stamp_[edge] = e.round_;
      e.edge_bits_[edge] = 0;
      e.edge_msgs_[edge] = 0;
      if (e.config_.metrics) acc_.touched_edges.push_back(edge);
    }
    const std::uint64_t bits = e.edge_bits_[edge] += cost;
    const std::uint64_t msgs = e.edge_msgs_[edge] += 1;
    if (e.config_.enforce_bandwidth && bits > e.bandwidth_bits_) {
      fail("bandwidth exceeded on edge " + std::to_string(id_) + "->" +
           std::to_string(nbrs_[index]) + " in round " +
           std::to_string(e.round_) + ": " + std::to_string(bits) +
           " > B=" + std::to_string(e.bandwidth_bits_) + " bits (last: " +
           m.debug_string() + ")");
      return false;
    }
    RunStats& stats = acc_.stats;
    stats.max_edge_bits = std::max(stats.max_edge_bits, bits);
    stats.max_edge_messages = std::max(stats.max_edge_messages, msgs);
    ++sent_;
    sent_bits_ += cost;
    return true;
  }

  // The fate of a charged send: traced, then delivered — or, under a fault
  // plan, dropped, duplicated, delayed or corrupted on the wire.
  void resolve(std::uint32_t index, const Message& m) {
    Engine& e = engine_;
    const std::size_t edge = edge0_ + index;
    const NodeId to = nbrs_[index];
    if (e.record_trace_) record(TraceEventKind::kSend, to, m, 0);
    // Index of the sender in `to`'s adjacency list: a precomputed load, not
    // a binary search — this runs once per message.
    const Received rec{e.mirror_index_[edge], m};
    if (!e.faults_) {
      acc_.deliveries.push(ResolvedDelivery{to, rec, 0});
    } else {
      resolve_faults(edge, to, rec);
    }
  }

  void resolve_faults(std::size_t edge, NodeId to, const Received& rec) {
    Engine& e = engine_;
    RunStats& stats = acc_.stats;
    const bool trace = e.record_trace_;
    const Message& m = rec.msg;
    if (e.faults_->link_down(edge, e.round_)) {
      ++stats.messages_dropped;
      if (trace) record(TraceEventKind::kDrop, to, m, 0);
      return;
    }
    // The node's private fault-decision stream for this round, keyed by
    // (plan seed, node, round) and created at its first draw, so draws need
    // no cross-shard coordination.
    if (!stream_) stream_ = e.faults_->stream(id_, e.round_);
    const FaultDecision d =
        e.faults_->decide(*stream_, edge, m.bit_cost(e.value_bits_));
    if (d.dropped) {
      ++stats.messages_dropped;
      if (trace) record(TraceEventKind::kDrop, to, m, 0);
      return;
    }
    if (d.copies > 1) {
      ++stats.messages_duplicated;
      if (trace) record(TraceEventKind::kDuplicate, to, m, 0);
    }
    for (std::uint32_t c = 0; c < d.copies; ++c) {
      if (d.extra_delay[c] != 0) {
        ++stats.messages_delayed;
        if (trace) record(TraceEventKind::kDelay, to, m, d.extra_delay[c]);
      }
      Received copy = rec;
      if (d.corrupt_bit[c] != kNoCorruption) {
        copy.msg = corrupt_message(copy.msg, d.corrupt_bit[c], e.value_bits_);
        ++stats.messages_corrupted;
        if (trace) {
          record(TraceEventKind::kCorrupt, to, copy.msg, d.corrupt_bit[c]);
        }
      }
      acc_.deliveries.push(ResolvedDelivery{to, copy, d.extra_delay[c]});
    }
  }

  Engine& engine_;
  ShardAccum& acc_;
  std::span<const NodeId> nbrs_;
  std::size_t edge0_;  // directed-edge index of neighbor 0
  bool* noted_ = nullptr;
  bool muted_ = false;
  std::optional<Rng> stream_;
  // The node's charged sends this round: its message count and outgoing
  // bits (the per-(node, round) load), added to the shard stats by settle().
  std::uint64_t sent_ = 0;
  std::uint64_t sent_bits_ = 0;
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
    frame.receivers.assign((std::size_t{n} + 63) / 64, 0);
  }
  inbox_cursor_.assign(n, 0);
  done_.assign(n, 1);
  wake_.assign(n, kNever);
  awake_.assign((std::size_t{n} + 63) / 64, 0);
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

  if (config_.faults) {
    faults_ = std::make_unique<FaultInjector>(g, *config_.faults);
    delay_ring_.resize(std::size_t{faults_->max_extra_delay()} + 2);
    for (NodeId v = 0; v < n; ++v) {
      const std::uint64_t crash = faults_->crash_round(v);
      if (crash != std::numeric_limits<std::uint64_t>::max()) {
        crash_schedule_.emplace_back(crash, v);
      }
      for (const auto& window : faults_->stall_windows(v)) {
        stall_schedule_.emplace_back(window.first, v);
      }
    }
    std::sort(crash_schedule_.begin(), crash_schedule_.end());
    std::sort(stall_schedule_.begin(), stall_schedule_.end());
  }
  crashed_.assign(n, 0);

  threads_ = config_.threads != 0
                 ? config_.threads
                 : std::max(1u, std::thread::hardware_concurrency());
  record_trace_ = config_.trace != nullptr;
  const std::uint32_t shards =
      static_cast<std::uint32_t>(std::min<std::uint64_t>(threads_, n));
  accum_.resize(shards);
  for (std::uint32_t s = 0; s < shards; ++s) {
    ShardAccum& acc = accum_[s];
    acc.lo = static_cast<NodeId>(std::uint64_t{n} * s / shards);
    acc.hi = static_cast<NodeId>(std::uint64_t{n} * (s + 1) / shards);
    acc.wake.assign((acc.hi - 1) / 64 - acc.lo / 64 + 1, 0);
  }
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
    std::fill(frame.receivers.begin(), frame.receivers.end(),
              std::uint64_t{0});
  }
  for (ShardAccum& acc : accum_) acc.reset();
  crashed_.assign(n, 0);
  next_crash_ = 0;
  for (auto& slot : delay_ring_) slot.clear();
  delayed_pending_ = 0;
  refresh();
  // Crash-at-round-0 nodes never execute at all.
  apply_crashes();
}

void Engine::refresh() {
  std::fill(awake_.begin(), awake_.end(), std::uint64_t{0});
  busy_ = 0;
  for (ShardAccum& acc : accum_) {
    std::fill(acc.wake.begin(), acc.wake.end(), std::uint64_t{0});
    acc.timers.clear();
    for (NodeId v = acc.lo; v < acc.hi; ++v) {
      if (crashed_[v] != 0) {
        done_[v] = 1;
        wake_[v] = kNever;
        continue;
      }
      const Process& p = *processes_[v];
      done_[v] = p.done() ? 1 : 0;
      if (done_[v] == 0) ++busy_;
      wake_[v] = p.wake_round(round_);
      if (wake_[v] <= round_) {
        set_awake(v);
      } else if (wake_[v] != kNever) {
        acc.timers.push_back({wake_[v], v});
      }
    }
    std::make_heap(acc.timers.begin(), acc.timers.end(), kLater);
  }
  const InboxFrame& cur = inbox_[cur_inbox_];
  for_each_node(cur.receivers, [&](NodeId v) {
    if (cur.len[v] != 0) set_awake(v);
  });
  next_stall_ = 0;
  for (; next_stall_ < stall_schedule_.size() &&
         stall_schedule_[next_stall_].first <= round_;
       ++next_stall_) {
    const NodeId v = stall_schedule_[next_stall_].second;
    if (faults_->stalled(v, round_)) set_awake(v);
  }
}

bool Engine::run_node(NodeId v, ShardAccum& acc) {
  if (crashed_[v] != 0) return false;  // crash-stop: no execution, no sends
  if (faults_ && faults_->stalled(v, round_)) {
    // Transient stall: no execution, no sends, and the round's frozen inbox
    // is never read — the frame swap discards it, so count it as dropped
    // here (shard-local; v's inbox is owned by v's shard this round).
    acc.stats.messages_dropped += inbox_[cur_inbox_].len[v];
    ++acc.stats.node_stall_rounds;
    // It stays awake while the window lasts or its missed wake-up is due.
    return wake_[v] <= round_ + 1 || faults_->stalled(v, round_ + 1);
  }
  Ctx ctx(*this, v, acc);
  Process& p = *processes_[v];
  bool stays_awake = false;
  try {
    p.on_round(ctx);
    const std::uint8_t done = p.done() ? 1 : 0;
    acc.busy_delta += static_cast<std::int64_t>(done_[v]) - done;
    done_[v] = done;
    const std::uint64_t wake = p.wake_round(round_ + 1);
    if (wake <= round_ + 1) {
      stays_awake = true;
    } else if (wake != kNever && wake != wake_[v]) {
      // An unchanged future wake-up is already in the heap.
      acc.timers.push_back({wake, v});
      std::push_heap(acc.timers.begin(), acc.timers.end(), kLater);
    }
    wake_[v] = wake;
  } catch (...) {
    // Capture instead of unwinding through the worker pool. Every node still
    // runs its round — which errors occur must not depend on the shard
    // partition — and the smallest-node error is rethrown after the merge.
    // A congestion error this node already recorded at send time stays.
    // Sends made before the exception were accounted as they were made:
    // they are on the wire.
    if (!acc.failed) {
      acc.failed = true;
      acc.failed_node = v;
      acc.error = std::current_exception();
    }
  }
  ctx.settle();
  if (record_trace_ && !acc.send_events.empty()) {
    for (const TraceEvent& ev : acc.send_events.span()) acc.events.push(ev);
    acc.send_events.reset();
  }
  if (config_.metrics) {
    // Final per-(edge, round) values: the sender owns its edges, so once it
    // has run the counters are complete for the round.
    for (const std::size_t edge : acc.touched_edges) {
      acc.metrics.edge_bits.add(edge_bits_[edge]);
      acc.metrics.edge_messages.add(edge_msgs_[edge]);
    }
    acc.touched_edges.clear();
  }
  return stays_awake;
}

void Engine::run_phases() {
  const std::uint32_t shards = static_cast<std::uint32_t>(accum_.size());
  for (ShardAccum& acc : accum_) acc.reset();

  // Node steps with send-time accounting: the trace is fed from the
  // per-sender event buffers after the merge, so instrumentation never
  // forces a serial accounting pass. Each shard walks its range of the
  // awake set word by word, in ascending node order.
  const auto shard_body = [&](unsigned s) {
    ShardAccum& acc = accum_[s];
    const std::size_t first = acc.lo / 64;
    const std::size_t last = (acc.hi - 1) / 64;
    for (std::size_t w = first; w <= last; ++w) {
      std::uint64_t bits = awake_[w];
      if (w == first) bits &= ~std::uint64_t{0} << (acc.lo % 64);
      if (w == last && acc.hi % 64 != 0) {
        bits &= (std::uint64_t{1} << (acc.hi % 64)) - 1;
      }
      // Collected in a register and stored once per word: the shards' wake
      // words may share cache lines.
      std::uint64_t keep = 0;
      for (; bits != 0; bits &= bits - 1) {
        const int b = std::countr_zero(bits);
        if (run_node(static_cast<NodeId>(w * 64 + static_cast<std::size_t>(b)),
                     acc)) {
          keep |= std::uint64_t{1} << b;
        }
      }
      acc.wake[w - first] = keep;
    }
  };
  const bool any_awake =
      std::any_of(awake_.begin(), awake_.end(),
                  [](std::uint64_t word) { return word != 0; });
  if (any_awake && pool_) {
    pool_->run(shards, shard_body);
  } else if (any_awake) {
    shard_body(0);
  }
  if constexpr (kAuditSkips) audit_skipped();

  // Merge in fixed shard order. Counters add, loads take maxima and
  // histograms sum per value, so the merged RunStats and metrics are
  // independent of the shard partition — the determinism contract across
  // thread counts. The next round's awake set starts from the nodes that
  // stay awake; deliver_round() adds the receivers.
  std::uint64_t round_messages = 0;
  std::fill(awake_.begin(), awake_.end(), std::uint64_t{0});
  for (ShardAccum& acc : accum_) {
    accumulate(stats_, acc.stats);
    busy_ = static_cast<std::uint64_t>(static_cast<std::int64_t>(busy_) +
                                       acc.busy_delta);
    round_messages += acc.stats.messages;
    if (config_.metrics) config_.metrics->merge(acc.metrics);
    for (std::size_t i = 0; i < acc.wake.size(); ++i) {
      awake_[acc.lo / 64 + i] |= acc.wake[i];
      acc.wake[i] = 0;
    }
  }
  if (config_.metrics) config_.metrics->round_activity.add(round_messages);

  // Drain buffered events in global send order before error propagation:
  // the trace keeps every accounted send of the failing round too.
  if (record_trace_) drain_node_events();

  // Rethrow the failure of the smallest node (shard ranges ascend, so the
  // first failed shard's record is the smallest; scan all for clarity). A
  // node's send-time congestion error already beat its own later exception.
  const ShardAccum* worst = nullptr;
  for (const ShardAccum& acc : accum_) {
    if (!acc.failed) continue;
    if (worst == nullptr || acc.failed_node < worst->failed_node) {
      worst = &acc;
    }
  }
  if (worst != nullptr) std::rethrow_exception(worst->error);
}

void Engine::audit_skipped() {
  const NodeId n = graph_->num_nodes();
  const InboxFrame& cur = inbox_[cur_inbox_];
  // Shadow steps run serially after the shards in record-only contexts:
  // nothing is accounted, a send, trace or verdict is only noted.
  ShardAccum& acc = accum_[0];
  for (NodeId v = 0; v < n; ++v) {
    if (crashed_[v] != 0 || awake(v)) continue;
    const auto where = [&] {
      return "node " + std::to_string(v) + " in round " +
             std::to_string(round_);
    };
    if (cur.len[v] != 0 || wake_[v] <= round_ ||
        (faults_ && faults_->stalled(v, round_))) {
      throw std::logic_error("Engine: the awake set missed " + where());
    }
    Process& p = *processes_[v];
    bool noted = false;
    Ctx ctx(*this, v, acc, noted);
    p.on_round(ctx);
    if (noted) {
      throw std::logic_error("wake contract broken: " + where() +
                             " was skipped, but stepping it sends or traces");
    }
    if (p.done() != (done_[v] != 0) || p.wake_round(round_ + 1) != wake_[v]) {
      throw std::logic_error("wake contract broken: " + where() +
                             " was skipped, but stepping it changes done() "
                             "or wake_round()");
    }
  }
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
  // routed to the ring during the counting pass. Every pass covers only the
  // receivers, marked in the frame's receiver bitset as they first appear:
  // the frame's previous receivers are cleared first.
  InboxFrame& next = inbox_[cur_inbox_ ^ 1u];
  for_each_node(next.receivers, [&next](NodeId v) { next.len[v] = 0; });
  std::fill(next.receivers.begin(), next.receivers.end(), std::uint64_t{0});
  const auto receive = [&next](NodeId to) {
    if (next.len[to]++ == 0) {
      next.receivers[to / 64] |= std::uint64_t{1} << (to % 64);
    }
  };
  std::uint64_t total = 0;
  for (const ShardAccum& acc : accum_) {
    for (const ResolvedDelivery& d : acc.deliveries.span()) {
      if (d.extra_delay == 0) {
        receive(d.to);
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
      receive(to);
      ++total;
    }
  }
  std::size_t offset = 0;
  for_each_node(next.receivers, [&](NodeId v) {
    next.begin[v] = offset;
    inbox_cursor_[v] = offset;
    offset += next.len[v];
  });
  for (std::size_t w = 0; w < awake_.size(); ++w) {
    awake_[w] |= next.receivers[w];
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
        ev.peer = graph_->neighbors(d.to)[d.rec.from_index];
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
  for (; next_crash_ < crash_schedule_.size() &&
         crash_schedule_[next_crash_].first <= round_;
       ++next_crash_) {
    const NodeId v = crash_schedule_[next_crash_].second;
    crashed_[v] = 1;
    if (done_[v] == 0) --busy_;
    done_[v] = 1;
    ++stats_.nodes_crashed;
    if (record_trace_) {
      TraceEvent ev;
      ev.kind = TraceEventKind::kCrash;
      ev.node = v;
      ev.round = round_;
      config_.trace->append(ev);
    }
  }
  InboxFrame& cur = inbox_[cur_inbox_];
  for_each_node(cur.receivers, [&](NodeId v) {
    if (crashed_[v] != 0 && cur.len[v] != 0) {
      // Deliveries to a crashed node vanish (the segment stays in items but
      // is unreachable once len is zeroed).
      stats_.messages_dropped += cur.len[v];
      pending_messages_ -= cur.len[v];
      cur.len[v] = 0;
    }
  });
}

void Engine::apply_stall_starts() {
  for (; next_stall_ < stall_schedule_.size() &&
         stall_schedule_[next_stall_].first <= round_;
       ++next_stall_) {
    set_awake(stall_schedule_[next_stall_].second);
  }
}

void Engine::pop_due_timers() {
  for (ShardAccum& acc : accum_) {
    while (!acc.timers.empty() && acc.timers.front().round <= round_) {
      const Timer t = acc.timers.front();
      std::pop_heap(acc.timers.begin(), acc.timers.end(), kLater);
      acc.timers.pop_back();
      if (wake_[t.v] == t.round) set_awake(t.v);
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
  // absorb anything addressed to it (normal or delayed). Then the rest of
  // the new round's awake set: opening stall windows and due timers.
  apply_crashes();
  apply_stall_starts();
  pop_due_timers();
}

bool Engine::quiescent() const {
  return pending_messages_ == 0 && delayed_pending_ == 0 && busy_ == 0;
}

RunStats Engine::run() {
  // Processes may have been touched between runs: re-read their hints.
  refresh();
  while (!quiescent()) step();
  return stats_;
}

RunStats Engine::run_rounds(std::uint64_t rounds) {
  refresh();
  for (std::uint64_t i = 0; i < rounds; ++i) step();
  return stats_;
}

RunStatus quiescent_status(const RunStats& stats) noexcept {
  // Quiescence with observed node failures is survival, not success: the
  // caller should treat harvested tables as partial until certified
  // (core/certify.h).
  return stats.nodes_crashed > 0 || stats.neighbors_suspected > 0
             ? RunStatus::kDegraded
             : RunStatus::kCompleted;
}

Outcome Engine::run_bounded() {
  Outcome out;
  try {
    out.stats = run();
    out.status = quiescent_status(out.stats);
    if (out.status == RunStatus::kDegraded) {
      out.message = "terminated degraded: crashed=" +
                    std::to_string(out.stats.nodes_crashed) +
                    " neighbors_suspected=" +
                    std::to_string(out.stats.neighbors_suspected);
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
