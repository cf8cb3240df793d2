// Structured event tracing for the CONGEST engine (DESIGN.md §12).
//
// A TraceLog attached via EngineConfig::trace records one TraceEvent per
// observable transport/protocol happening: sends (with the full message),
// deliveries, the fate faults dealt a message (drop / extra delay /
// duplication), crash-stops, failure-detector NeighborDown verdicts, and
// protocol-level BFS frontier progress (RoundCtx::trace_frontier).
//
// Collection is sharded: during the parallel node step every event is
// appended to a buffer owned by that node's shard (lock-free — shards own
// disjoint node ranges), a node's send-side events after its own, and after
// the round the engine drains the buffers in ascending sender order into the
// log. The resulting stream is round-major, then sender-major — exactly the
// serial engine's global send order — so trace files are byte-identical at
// every EngineConfig::threads value (the determinism contract, DESIGN.md
// §11).
// Events recorded during the serial delivery phase (deliveries, crashes) are
// appended directly, at fixed points of the round, so they land at the same
// stream positions regardless of thread count.
//
// The TraceLog is the engine's only event channel: anything that watches
// sends (the Lemma 1 check max_sends_per_edge_round below, the reference
// engine's send-stream comparison in tests/) reads it after the run.
//
// Exporters: Chrome-trace JSON (load into chrome://tracing or Perfetto; one
// lane per node, or one lane per flood source for kApspFlood/kSspToken/
// frontier events; ts = round, strictly non-decreasing in file order),
// JSONL (one event object per line) and CSV.
#pragma once

#include <cstdint>
#include <iosfwd>
#include <span>
#include <vector>

#include "congest/message.h"
#include "graph/graph.h"

namespace dapsp::congest {

enum class TraceEventKind : std::uint8_t {
  kSend = 0,          // node -> peer, msg: the message (post-validation)
  kDeliver = 1,       // peer -> node's inbox at `round`, msg: the message
  kDrop = 2,          // the send node -> peer was lost (fault plan / crash)
  kDelay = 3,         // a copy held back; aux = extra rounds of latency
  kDuplicate = 4,     // a second copy of node -> peer was created
  kCrash = 5,         // node crash-stopped at `round`
  kNeighborDown = 6,  // node's detector declared peer dead
  kFrontier = 7,      // node joined source `peer`'s BFS frontier; msg.f[0] =
                      // adopted distance (RoundCtx::trace_frontier)
  kCorrupt = 8,       // a delivered copy of node -> peer had one payload bit
                      // flipped; aux = flipped bit index, msg = corrupted copy
  kDelta = 9,         // service graph mutation applied (core/service.h):
                      // node = u, peer = v (or u for node deltas), round =
                      // service epoch, aux = graph delta kind (graph/delta.h)
  kEpoch = 10,        // service repair epoch completed: node = epoch index,
                      // peer = suspect-row count, round = service epoch,
                      // aux = outcome (0 clean, 1 repaired, 2 retried,
                      // 3 escalated to full recompute)
  kJournal = 11,      // durable service WAL record acknowledged
                      // (core/durable.h): node = record index this process,
                      // peer = payload bytes, round = epoch the record
                      // creates
  kRecovery = 12,     // durable recovery completed: node = checkpoint epoch
                      // (low 32 bits), peer = journal batches replayed,
                      // round = recovered epoch, aux = bit 0 checkpoint
                      // generation fallback, bit 1 journal tail truncated,
                      // bit 2 fresh start (no usable checkpoint)
  kShed = 13,         // admission controller refused a request
                      // (core/resilience.h): node = request id (low 32
                      // bits), peer = priority class (0 interactive,
                      // 1 batch, 2 background), round = virtual time of
                      // the shed decision (us; arrival for rate/queue-full
                      // sheds, reap time for queue-wait sheds — monotone),
                      // aux = shed reason (0 rate-limited, 1 queue-full,
                      // 2 queue-wait deadline)
  kBreaker = 14,      // repair circuit breaker observed-state change
                      // (core/service.h CircuitBreaker): node = new state
                      // (0 closed, 1 open, 2 half-open), peer = previous
                      // state, round = service epoch, aux = cumulative
                      // observed-transition count
};

const char* to_string(TraceEventKind k) noexcept;

// Sentinel for events with no peer (crashes).
inline constexpr NodeId kTraceNoPeer = 0xffffffffu;

struct TraceEvent {
  TraceEventKind kind = TraceEventKind::kSend;
  NodeId node = 0;            // acting node (sender / crasher / suspecter)
  NodeId peer = kTraceNoPeer; // receiver / suspected neighbor / flood source
  std::uint64_t round = 0;
  std::uint32_t aux = 0;      // kDelay: extra rounds of latency; else 0
  Message msg{};              // payload where the kind defines one

  bool operator==(const TraceEvent&) const = default;
};

// Which Chrome-trace lane an event lands in.
enum class TraceLanes {
  kPerNode,   // tid = acting node: every event
  kPerFlood,  // tid = flood source: only kApspFlood/kSspToken sends and
              // kFrontier events (source-major view of Lemma 1's schedule)
};

// An append-only event log. Attach one via EngineConfig::trace; the engine
// appends, the caller exports/inspects after the run. Engine::init() does
// NOT clear it (so multi-phase protocols can share one log) — call clear()
// between unrelated runs. Not thread-safe by itself: the engine appends only
// from its serial merge points.
class TraceLog {
 public:
  std::span<const TraceEvent> events() const noexcept { return events_; }
  std::size_t size() const noexcept { return events_.size(); }
  bool empty() const noexcept { return events_.empty(); }
  void clear() { events_.clear(); }

  void append(const TraceEvent& ev) { events_.push_back(ev); }

  // Chrome-trace JSON ("traceEvents" array of duration-1 "X" events,
  // ts = round). Timestamps are non-decreasing in file order.
  void write_chrome_json(std::ostream& os,
                         TraceLanes lanes = TraceLanes::kPerNode) const;
  // One JSON object per line: {"kind": "...", "node": ..., "peer": ...,
  // "round": ..., "msg_kind": ..., "f": [...]}.
  void write_jsonl(std::ostream& os) const;
  // kind,node,peer,round,msg_kind,f0,f1,f2,f3,f4 (header row included).
  void write_csv(std::ostream& os) const;

 private:
  std::vector<TraceEvent> events_;
};

// Largest number of kSend events of message kind `msg_kind` crossing any one
// directed edge in any one round — Lemma 1's congestion profile: 1 for
// kApspFlood on a fault-free pebble-APSP run. (Tests feed this into a
// util/metrics Histogram for the full distribution.)
std::uint64_t max_sends_per_edge_round(std::span<const TraceEvent> events,
                                       std::uint8_t msg_kind);

}  // namespace dapsp::congest
