#include "congest/trace.h"

#include <algorithm>
#include <map>
#include <ostream>

namespace dapsp::congest {

const char* to_string(TraceEventKind k) noexcept {
  switch (k) {
    case TraceEventKind::kSend:
      return "send";
    case TraceEventKind::kDeliver:
      return "deliver";
    case TraceEventKind::kDrop:
      return "drop";
    case TraceEventKind::kDelay:
      return "delay";
    case TraceEventKind::kDuplicate:
      return "duplicate";
    case TraceEventKind::kCrash:
      return "crash";
    case TraceEventKind::kNeighborDown:
      return "neighbor-down";
    case TraceEventKind::kFrontier:
      return "frontier";
    case TraceEventKind::kCorrupt:
      return "corrupt";
    case TraceEventKind::kDelta:
      return "delta";
    case TraceEventKind::kEpoch:
      return "epoch";
    case TraceEventKind::kJournal:
      return "journal";
    case TraceEventKind::kRecovery:
      return "recovery";
    case TraceEventKind::kBreaker:
      return "breaker";
  }
  return "?";
}

namespace {

// Lane (Chrome tid) of an event, or -1 when the lane mode excludes it.
std::int64_t lane_of(const TraceEvent& ev, TraceLanes lanes) {
  if (lanes == TraceLanes::kPerNode) return ev.node;
  switch (ev.kind) {
    case TraceEventKind::kSend:
      // Flood-carrying protocol messages name their source in f[0]
      // (kApspFlood = 7, kSspToken = 8; see core/primitives/bfs_process.h).
      if (ev.msg.kind == 7 || ev.msg.kind == 8) return ev.msg.f[0];
      return -1;
    case TraceEventKind::kFrontier:
      return ev.peer;  // the flood source
    default:
      return -1;
  }
}

void write_args(std::ostream& os, const TraceEvent& ev) {
  os << "{\"node\": " << ev.node;
  if (ev.peer != kTraceNoPeer) os << ", \"peer\": " << ev.peer;
  os << ", \"msg_kind\": " << static_cast<unsigned>(ev.msg.kind) << ", \"f\": [";
  for (int i = 0; i < ev.msg.num_fields; ++i) {
    os << (i == 0 ? "" : ", ") << ev.msg.f[static_cast<std::size_t>(i)];
  }
  os << "]";
  if (ev.aux != 0) os << ", \"aux\": " << ev.aux;
  os << "}";
}

}  // namespace

void TraceLog::write_chrome_json(std::ostream& os, TraceLanes lanes) const {
  os << "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [";
  bool first = true;
  for (const TraceEvent& ev : events_) {
    const std::int64_t lane = lane_of(ev, lanes);
    if (lane < 0) continue;
    os << (first ? "\n" : ",\n");
    first = false;
    os << "  {\"name\": \"" << to_string(ev.kind) << " k"
       << static_cast<unsigned>(ev.msg.kind) << "\", \"cat\": \""
       << to_string(ev.kind) << "\", \"ph\": \"X\", \"ts\": " << ev.round
       << ", \"dur\": 1, \"pid\": 0, \"tid\": " << lane << ", \"args\": ";
    write_args(os, ev);
    os << "}";
  }
  os << "\n]}\n";
}

void TraceLog::write_jsonl(std::ostream& os) const {
  for (const TraceEvent& ev : events_) {
    os << "{\"kind\": \"" << to_string(ev.kind) << "\", \"round\": " << ev.round
       << ", \"args\": ";
    write_args(os, ev);
    os << "}\n";
  }
}

void TraceLog::write_csv(std::ostream& os) const {
  os << "kind,node,peer,round,msg_kind,f0,f1,f2,f3,f4,aux\n";
  for (const TraceEvent& ev : events_) {
    os << to_string(ev.kind) << "," << ev.node << ",";
    if (ev.peer != kTraceNoPeer) os << ev.peer;
    os << "," << ev.round << "," << static_cast<unsigned>(ev.msg.kind);
    for (int i = 0; i < kMaxFields; ++i) {
      os << ",";
      if (i < ev.msg.num_fields) os << ev.msg.f[static_cast<std::size_t>(i)];
    }
    os << "," << ev.aux << "\n";
  }
}

std::uint64_t max_sends_per_edge_round(std::span<const TraceEvent> events,
                                       std::uint8_t msg_kind) {
  // Events arrive round-major and sender-major, so one (edge, round) key is
  // contiguous per round; a map keyed by (from, to) reset on round change
  // keeps this O(sends log deg) without knowing the graph.
  std::map<std::pair<NodeId, NodeId>, std::uint64_t> per_edge;
  std::uint64_t current_round = 0;
  std::uint64_t worst = 0;
  for (const TraceEvent& ev : events) {
    if (ev.kind != TraceEventKind::kSend || ev.msg.kind != msg_kind) continue;
    if (ev.round != current_round) {
      per_edge.clear();
      current_round = ev.round;
    }
    const std::uint64_t c = ++per_edge[{ev.node, ev.peer}];
    worst = std::max(worst, c);
  }
  return worst;
}

}  // namespace dapsp::congest
