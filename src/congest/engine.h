// The synchronous CONGEST round engine.
//
// Model (Section 2 of the paper): in each synchronous round, every node may
// send up to B bits over each incident edge (different messages to different
// neighbors are allowed), then receives everything its neighbors sent to it
// in that round. Local computation is free. The engine:
//
//   * drives one Process per node, round by round, in a deterministic order;
//   * delivers messages with exactly one round of latency;
//   * charges every message its bit cost and enforces the per-(directed
//     edge, round) budget B, throwing CongestionError on violation — the
//     paper's congestion-freedom claims (Lemma 1) become checked runtime
//     invariants;
//   * terminates on global quiescence: every process reports done() and no
//     messages are in flight (read from a counter; run() skips processes
//     that report done() and idle() with an empty inbox);
//   * reports RunStats (rounds, message count, total bits, worst per-edge
//     load) — the paper's cost measures.
//
// Beyond the idealized model, an optional FaultPlan (congest/faults.h)
// perturbs the transport deterministically: messages may be dropped,
// duplicated, delayed or payload-corrupted (one wire bit flipped per
// corrupted copy), links may fail at scheduled rounds, and nodes may
// crash-stop or stall transiently. Faulty runs that stall are better driven
// through
// run_bounded(), which reports an Outcome with partial stats instead of
// throwing. The reliable-delivery adapter (congest/reliable.h) restores the
// synchronous abstraction for unmodified protocols on top of lossy links.
//
// Execution is sharded (DESIGN.md §11): within a round every node reads only
// the previous round's frozen inboxes, so EngineConfig::threads > 1 runs the
// node loop on a worker pool — per-node sends are buffered, bandwidth and
// fault accounting stay sender-owned, and per-shard counters are merged in
// fixed node order, making every observable output (rounds, messages, bits,
// per-edge loads, congestion errors, fault decisions, RunStats) bit-identical
// at every thread count, including 1. Observability (DESIGN.md §12) rides the
// same machinery: the structured TraceLog and EngineMetrics histograms are
// collected per shard and merged in fixed sender order, so instrumented runs
// keep both the parallel speedup and the bit-identical-output contract.
//
// Memory layout is flat (DESIGN.md §16): adjacency is the graph's CSR plus a
// precomputed mirror-edge table (the receiver-side index of every directed
// edge, replacing a per-message binary search), message buffers are per-shard
// bump-pointer arenas (util/arena.h) that reset each round without freeing,
// and each round's deliveries are scattered into one flat double-buffered
// inbox array with per-receiver [begin, len) segments. After a warm-up round
// the steady-state round loop performs zero heap allocations
// (tests/test_arena.cc pins this); tests/test_engine_equivalence.cc pins the
// flat engine's observable behaviour against an independently written serial
// reference model over randomized graphs, fault plans and thread counts.
#pragma once

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <memory>
#include <optional>
#include <stdexcept>
#include <string>
#include <vector>

#include "congest/faults.h"
#include "congest/message.h"
#include "congest/trace.h"
#include "graph/graph.h"
#include "util/arena.h"
#include "util/metrics.h"

namespace dapsp {
class WorkerPool;
}

namespace dapsp::congest {

class Engine;

// Per-round view handed to a Process. Valid only during on_round(). Abstract
// so that delivery layers (e.g. the ReliableAdapter) can interpose a virtual
// round context between the engine and a wrapped process.
class RoundCtx {
 public:
  virtual ~RoundCtx() = default;

  // Delivery layers report failure-detector verdicts here so they land in
  // RunStats::neighbors_suspected (and the trace as kNeighborDown).
  // `neighbor_index` names the silent neighbor in the caller's adjacency
  // list. No-op outside the engine-backed context.
  virtual void note_neighbor_suspected(std::uint32_t neighbor_index) {
    (void)neighbor_index;
  }

  // Protocol-progress hook: this node adopted distance `dist` from `source`'s
  // BFS flood in this round. Recorded as a kFrontier trace event when a
  // TraceLog is attached; otherwise free. Delivery wrappers forward it to the
  // engine-backed context.
  virtual void trace_frontier(NodeId source, std::uint32_t dist) {
    (void)source;
    (void)dist;
  }

  NodeId id() const noexcept { return id_; }
  virtual NodeId n() const noexcept = 0;
  virtual std::uint64_t round() const noexcept = 0;
  virtual std::uint32_t degree() const noexcept = 0;
  virtual NodeId neighbor(std::uint32_t index) const = 0;

  // Messages delivered this round (sent by neighbors last round), ordered by
  // sender index, then by send order.
  virtual std::span<const Received> inbox() const noexcept = 0;

  // Queues a message to neighbor `index` for delivery next round. Multiple
  // sends to the same neighbor in one round are allowed as long as their
  // total bit cost fits the bandwidth B.
  virtual void send(std::uint32_t index, const Message& m) = 0;
  // Convenience: send to every neighbor.
  void send_all(const Message& m);

 protected:
  explicit RoundCtx(NodeId id) noexcept : id_(id) {}
  NodeId id_;
};

// A node's algorithm. One instance per node; the engine owns them.
class Process {
 public:
  virtual ~Process() = default;

  // Called once per round for every node, even with an empty inbox — except
  // that run() / run_bounded() skip a node whose done() and idle() held
  // after its last step while its inbox is empty (run_rounds() steps every
  // node).
  virtual void on_round(RoundCtx& ctx) = 0;

  // Quiescence flag: true when this node has nothing scheduled — it will not
  // send anything unless a future message wakes it. The engine stops when
  // every process is done and no messages are in flight.
  virtual bool done() const = 0;

  // Idle-node fast path, consulted only while done() holds: true when a
  // step with an empty inbox would neither send nor change state the node
  // later acts on, so the engine may skip it. A process that keeps working
  // while done() (e.g. a degraded relay draining a queue) overrides it.
  virtual bool idle() const { return true; }

  // Failure-detector event: the delivery layer (congest/reliable.h) has
  // declared the neighbor at `neighbor_index` dead after prolonged silence.
  // `virtual_round` is the wrapped protocol's round at the declaration.
  // Called between on_round() invocations (no context is available); record
  // state and react in the next on_round(). Default: ignore.
  virtual void on_neighbor_down(std::uint32_t neighbor_index,
                                std::uint64_t virtual_round) {
    (void)neighbor_index;
    (void)virtual_round;
  }

  // The algorithm process results are harvested from. Delivery-layer
  // wrappers (ReliableAdapter) override this to return the wrapped process,
  // so Engine::process_as<T>() works unchanged on wrapped runs.
  virtual Process& underlying() { return *this; }
  const Process& underlying() const {
    return const_cast<Process*>(this)->underlying();
  }
};

// Engine-collected load distributions (attach via EngineConfig::metrics).
// Samples are exact integers (util/metrics.h); collection is per-shard with
// a commutative merge in fixed shard order, so contents are identical at
// every thread count. Histograms accumulate across runs sharing the sink;
// Engine::init() does not clear them.
struct EngineMetrics {
  // One sample per (directed edge, round) pair on which the edge carried
  // traffic: total bits / message count over that edge in that round. Under
  // Lemma 1's schedule every value stays within one message's budget.
  Histogram edge_bits;
  Histogram edge_messages;
  // One sample per executed round: messages sent in that round.
  Histogram round_activity;

  void merge(const EngineMetrics& other);
  void clear();
};

struct EngineConfig {
  // Per-edge per-round budget B = kTagBits + bandwidth_ids * value_bits,
  // where value_bits = bits needed for values in [0, 2n). The default allows
  // one (id, distance) payload plus one small control message per edge per
  // round — a constant number of ids, as the paper assumes. Must be >= 1.
  std::uint32_t bandwidth_ids = 4;
  bool enforce_bandwidth = true;
  // Safety valve: run() throws RoundLimitError beyond this many rounds.
  std::uint64_t max_rounds = 0;  // 0 = default 64*n + 1024
  // Record the number of messages sent in each round (round_activity()),
  // e.g. to plot a protocol's phase structure.
  bool record_activity = false;

  // Workers for the per-round node loop. 1 (default) steps nodes on the
  // calling thread; k > 1 shards the nodes across k workers (the caller plus
  // k-1 pool threads); 0 = one worker per hardware thread. The CONGEST model
  // is embarrassingly parallel within a round — every node reads only the
  // previous round's frozen inboxes — and the engine merges per-shard
  // accounting in fixed node order, so rounds, messages, bits, per-edge
  // loads, congestion checks and fault decisions are bit-identical at every
  // thread count (the determinism contract; DESIGN.md §11).
  std::uint32_t threads = 1;

  // Optional transport faults, injected deterministically from the plan's
  // seed (see congest/faults.h). Absent = the idealized model. A trivial
  // (all-default) plan leaves delivery — and round counts — bit-identical
  // to a run without one.
  std::optional<FaultPlan> faults;

  // Optional hook wrapping every process installed by init(), e.g.
  // reliable_wrapper() from congest/reliable.h. The wrapper's underlying()
  // must expose the inner process for harvesting.
  using ProcessWrapper =
      std::function<std::unique_ptr<Process>(NodeId, std::unique_ptr<Process>)>;
  ProcessWrapper process_wrapper;

  // Optional structured event log (congest/trace.h), the engine's one event
  // channel: sends (every send after payload validation, before any fault
  // decision — the protocol, not the wire), deliveries, fault fates
  // (drop/delay/duplicate), crashes, NeighborDown verdicts and kFrontier
  // progress. Collected per shard and appended in the serial engine's global
  // order (round-major, then sender-major, then send order), identical at
  // every thread count (DESIGN.md §12). Lemma 1 is checked over it with
  // max_sends_per_edge_round(). Caller-owned and NOT cleared by init(), so
  // multi-phase protocols share one log; clear() it between unrelated runs.
  // Must outlive the engine.
  TraceLog* trace = nullptr;

  // Optional histogram sink for per-(edge, round) load and per-round
  // activity distributions (e.g. Lemma 1 congestion profiles). Collected per
  // shard, merged in fixed shard order — thread-count independent.
  // Caller-owned and NOT cleared by init(); must outlive the engine.
  EngineMetrics* metrics = nullptr;
};

struct RunStats {
  std::uint64_t rounds = 0;       // rounds executed until quiescence
  std::uint64_t messages = 0;     // total messages sent (incl. later-dropped)
  std::uint64_t total_bits = 0;   // total bits sent
  // Worst per-(directed edge, round) loads. 64-bit: with enforce_bandwidth
  // off nothing caps a round's per-edge bits, and fault-heavy runs multiply
  // message counts, so 32-bit counters could wrap.
  std::uint64_t max_edge_bits = 0;      // worst (directed edge, round) load
  std::uint64_t max_edge_messages = 0;  // worst message count per edge-round
  std::uint64_t max_node_bits = 0;      // worst per-(node, round) outgoing load
  std::uint32_t bandwidth_bits = 0;     // the enforced budget B

  // Fault accounting (all zero in fault-free runs). Dropped counts messages
  // lost to drop probability, failed links, deliveries to crashed nodes, and
  // inboxes discarded by stalled nodes; duplicated counts the extra copies;
  // delayed counts copies held back beyond the normal one-round latency;
  // corrupted counts delivered copies with a flipped payload bit.
  std::uint64_t messages_dropped = 0;
  std::uint64_t messages_delayed = 0;
  std::uint64_t messages_duplicated = 0;
  std::uint64_t messages_corrupted = 0;
  std::uint32_t nodes_crashed = 0;
  // Rounds in which some node was stalled (one count per stalled node-round).
  std::uint64_t node_stall_rounds = 0;
  // Failure-detector verdicts: NeighborDown declarations made by delivery
  // layers (one per directed edge that went silent past suspect_after).
  std::uint64_t neighbors_suspected = 0;

  // One-line human-readable rendering, e.g. for benches and examples.
  std::string debug_string() const;
};

std::ostream& operator<<(std::ostream& os, const RunStats& s);

// Accumulates statistics across the phases of a multi-run protocol:
// rounds/messages/bits and fault counters add, per-edge loads take the
// maximum. Budget policy: a side whose bandwidth_bits is 0 (freshly
// default-constructed stats) adopts the other's budget; two *different*
// nonzero budgets throw std::invalid_argument — phases enforced under
// different B cannot be summarized by one budget field, and silently taking
// the max would misreport what was enforced.
void accumulate(RunStats& into, const RunStats& from);

class CongestionError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};
class RoundLimitError : public std::runtime_error {
 public:
  using std::runtime_error::runtime_error;
};

// How a bounded run ended.
enum class RunStatus {
  kCompleted,   // global quiescence, no node failures observed
  kRoundLimit,  // the configured round limit was hit (stall / livelock)
  kCongestion,  // a bandwidth or field-width violation
  kDegraded,    // global quiescence, but nodes crashed or were declared dead:
                // results are partial and should be certified (core/certify.h)
};

// Result of Engine::run_bounded(): status plus the stats accumulated up to
// the stop, so stalled faulty runs yield diagnostics instead of an abort.
// A quiescent run that saw crash-stops or failure-detector verdicts reports
// kDegraded (with the counters in stats) rather than pretending completion.
struct Outcome {
  using Status = RunStatus;

  RunStatus status = RunStatus::kCompleted;
  RunStats stats;
  std::string message;  // the error text for non-completed outcomes

  bool ok() const noexcept { return status == RunStatus::kCompleted; }
  bool degraded() const noexcept { return status == RunStatus::kDegraded; }
  // Quiescence was reached (completed or degraded) — the run did not stall.
  bool terminated() const noexcept { return ok() || degraded(); }
};

const char* to_string(RunStatus s) noexcept;

class Engine {
 public:
  // The graph must outlive the engine. Throws std::invalid_argument on an
  // empty graph, a zero bandwidth budget, or an invalid fault plan.
  Engine(const Graph& g, EngineConfig config = {});
  ~Engine();

  // Installs processes: factory(v) creates node v's process (wrapped by
  // config.process_wrapper when set). Resets round/stat/fault state.
  void init(const std::function<std::unique_ptr<Process>(NodeId)>& factory);

  const Graph& graph() const noexcept { return *graph_; }
  std::uint32_t value_bits() const noexcept { return value_bits_; }
  std::uint32_t bandwidth_bits() const noexcept { return bandwidth_bits_; }
  std::uint64_t current_round() const noexcept { return round_; }
  // Resolved worker count (config.threads with 0 expanded to the hardware).
  std::uint32_t threads() const noexcept { return threads_; }

  // Runs rounds until quiescence (all processes done, no messages pending).
  // Throws RoundLimitError if the configured round limit is exceeded and
  // CongestionError if a bandwidth violation occurs.
  RunStats run();

  // Runs exactly `rounds` additional rounds (for protocols with a known
  // round bound), regardless of done() flags.
  RunStats run_rounds(std::uint64_t rounds);

  // Like run(), but never throws the engine errors: stalls (round limit) and
  // congestion violations are reported as an Outcome carrying the partial
  // stats. The engine is left at the round where the run stopped.
  Outcome run_bounded();

  // Messages sent per round (only populated with config.record_activity).
  const std::vector<std::uint64_t>& round_activity() const {
    return activity_;
  }

  // Access to a node's process after the run (to harvest results). Returns
  // the outermost process; process_as<T>() sees through delivery wrappers
  // via Process::underlying().
  Process& process(NodeId v) { return *processes_[v]; }
  const Process& process(NodeId v) const { return *processes_[v]; }

  // Typed harvest helper.
  template <typename T>
  T& process_as(NodeId v) {
    return dynamic_cast<T&>(processes_[v]->underlying());
  }

  // True once v has crash-stopped (per the fault plan).
  bool crashed(NodeId v) const noexcept {
    return !crashed_.empty() && crashed_[v] != 0;
  }

 private:
  class Ctx;  // the engine-backed RoundCtx implementation

  // One send buffered during the parallel node phase, in per-sender order.
  struct PendingSend {
    std::uint32_t neighbor_index;
    Message msg;
  };
  // A send after bandwidth accounting and fault resolution: one delivered
  // copy with its receiver-side view and any extra delay. The sender is
  // carried along so deliver_round() can emit kDeliver traces without a
  // reverse adjacency lookup.
  struct ResolvedDelivery {
    NodeId from;
    NodeId to;
    Received rec;
    std::uint32_t extra_delay;
  };
  // Per-shard round accumulator. Shards own disjoint contiguous node ranges;
  // counters and maxima are merged into stats_ in fixed shard order after the
  // parallel phase (sums and maxima make the merge order immaterial — the
  // basis of the thread-count determinism contract). Padded to a cache line
  // so adjacent shards' counters never false-share while the parallel phase
  // hammers them.
  struct alignas(kCacheLineBytes) ShardAccum {
    RunStats stats;             // deltas only: counters and per-round maxima
    std::uint64_t activity = 0;  // sends this round (record_activity)
    EngineMetrics metrics;       // this round's samples (config.metrics only)
    // Distinct directed edges the current node touched this round — scratch
    // of account_node(), drained into `metrics` after the node's outbox.
    std::vector<std::size_t> touched_edges;
    // The current node's buffered sends (reset per NODE: the fused phase B
    // consumes each node's outbox before the next node runs).
    BumpArena<PendingSend> outbox;
    // This shard's resolved deliveries and trace events for the round (reset
    // per ROUND). Nodes run in ascending order within the shard, so the
    // arenas' push order concatenated across shards IS ascending sender
    // order — deliver_round() and drain_node_events() rely on this.
    BumpArena<ResolvedDelivery> deliveries;
    BumpArena<TraceEvent> events;
    // Change in the number of busy (not done, not crashed) nodes this round.
    std::int64_t busy_delta = 0;
    // First failure in this shard's node range (nodes are processed in
    // ascending order, so this is the smallest failing node of the shard).
    bool failed = false;
    NodeId failed_node = 0;
    std::exception_ptr error;
    void reset() {
      stats = RunStats{};
      activity = 0;
      metrics.clear();
      touched_edges.clear();
      outbox.reset();
      deliveries.reset();
      events.reset();
      busy_delta = 0;
      failed = false;
      failed_node = 0;
      error = nullptr;
    }
  };

  // One round's delivered messages, flat: items[begin[v] .. begin[v]+len[v])
  // is node v's inbox, normals in ascending-sender order followed by any
  // delayed copies that came due, in ring order — exactly the per-node
  // delivery order of the pre-flat engine. Two frames double-buffer the
  // current and the next round; capacity is retained across rounds.
  struct InboxFrame {
    std::vector<Received> items;
    std::vector<std::size_t> begin;  // n entries
    std::vector<std::size_t> len;    // n entries
  };

  void step();  // executes one round
  // Phase A: one node's on_round() against the frozen inbox frame; sends are
  // buffered into the shard's outbox arena. Exceptions are captured into
  // `acc`. Phase B (account_node) runs fused, inline, for every node — the
  // trace is fed from the buffered events afterwards, never by serializing
  // this.
  void run_node(NodeId v, ShardAccum& acc);
  // Phase B: bandwidth accounting + fault resolution for the node's buffered
  // outbox. Only sender-owned state (edge/node counters of v's directed
  // edges, the shard's delivery/event arenas, the shard accumulator) is
  // written, so shards never race.
  void account_node(NodeId v, ShardAccum& acc);
  // Phase C (serial): count + prefix-sum + scatter the shards' resolved
  // deliveries (plus delayed copies coming due) into the next inbox frame in
  // ascending sender order, then swap frames.
  void deliver_round();
  void run_phases();  // A+B across shards, merge, error propagation
  // Appends the per-shard event arenas in shard order (= ascending sender
  // order) to the trace log — the serial engine's global send order.
  void drain_node_events();
  void apply_crashes();
  // Re-reads every process's done() / idle() into the flags below.
  void refresh_flags();
  bool quiescent() const;

  const Graph* graph_;
  EngineConfig config_;
  std::uint32_t value_bits_ = 0;
  std::uint32_t bandwidth_bits_ = 0;
  std::uint64_t max_rounds_ = 0;
  std::uint32_t threads_ = 1;  // resolved worker count (>= 1)

  std::vector<std::unique_ptr<Process>> processes_;
  // Per node, as of its last step: done() and idle() (crashed nodes count as
  // both). busy_ counts the nodes not done, so quiescent() reads a counter;
  // skip_idle_ (set by run(), cleared by run_rounds()) lets run_node() pass
  // over idle nodes with an empty inbox. Each flag is written only by its node's shard.
  std::vector<std::uint8_t> done_;
  std::vector<std::uint8_t> idle_;
  std::uint64_t busy_ = 0;
  bool skip_idle_ = false;

  // Double-buffered flat inboxes: inbox_[cur_inbox_] is the round's frozen
  // frame, the other is scattered into by deliver_round().
  InboxFrame inbox_[2];
  unsigned cur_inbox_ = 0;
  std::vector<std::size_t> inbox_cursor_;  // scatter cursors (scratch)
  std::uint64_t pending_messages_ = 0;     // messages in the current frame

  std::vector<ShardAccum> accum_;
  std::unique_ptr<WorkerPool> pool_;  // engaged when threads_ > 1

  bool record_trace_ = false;  // trace attached

  // Per directed edge: bits sent this round (lazy-reset via round stamps).
  // Directed edge index = graph offsets[u] + neighbor_index. 64-bit so that
  // unenforced (enforce_bandwidth=false) rounds cannot wrap the counters
  // that RunStats maxima and EngineMetrics samples are read from.
  std::vector<std::size_t> edge_offsets_;
  // mirror_index_[offsets[u] + i] = index of u in neighbors(neighbors(u)[i]):
  // the receiver-side view of every directed edge, precomputed once so the
  // per-message reverse lookup is a load instead of a binary search.
  std::vector<std::uint32_t> mirror_index_;
  std::vector<std::uint64_t> edge_bits_;
  std::vector<std::uint64_t> edge_msgs_;
  std::vector<std::uint64_t> edge_stamp_;
  std::vector<std::uint64_t> node_bits_;
  std::vector<std::uint64_t> node_stamp_;

  // Fault state (engaged only when config_.faults is set).
  std::unique_ptr<FaultInjector> faults_;
  std::vector<std::uint8_t> crashed_;  // crash-stop applied
  // Ring of future deliveries for delayed messages, indexed by absolute
  // delivery round modulo the ring size.
  std::vector<std::vector<std::pair<NodeId, Received>>> delay_ring_;
  std::uint64_t delayed_pending_ = 0;

  std::uint64_t round_ = 0;
  RunStats stats_;
  std::vector<std::uint64_t> activity_;
};

}  // namespace dapsp::congest
