// Distributed protocol primitives shared by all algorithms in src/core.
//
// TreeMachine builds the paper's tree T1: a BFS tree rooted at the leader
// (node 0, playing "the node with ID 1"). It implements:
//   * the BFS flood of Claim 1 (forward to every neighbor except those the
//     flood was received from in the same round),
//   * parent acknowledgements so every node learns its tree children,
//   * an echo (convergecast) wave that detects termination and aggregates
//     - the maximum depth (so the root learns ecc(root), hence the paper's
//       D0 = 2*ecc(root) >= D bound via Fact 1),
//     - a cycle-evidence flag (a node receiving the flood more than once;
//       by Claim 1, absence of such evidence proves G is a tree),
//     - the number of "marked" nodes (used to count |S| for S-SP).
//
// Round timeline (round t delivers messages sent in round t-1):
//   t = dist(v):     v receives the flood, adopts the lowest-index sender as
//                    parent, forwards the flood, ACKs its parent.
//   t = dist(v)+1:   same-level neighbors' floods arrive (counted as cycle
//                    evidence, per Claim 1).
//   t = dist(v)+2:   ACKs from children arrive; the children set is final.
//   t >= dist(v)+2:  once every child echoed, v echoes to its parent.
// The root is complete once all its children echoed: <= 2*ecc(root)+3 rounds.
#pragma once

#include <algorithm>
#include <cstdint>
#include <span>
#include <vector>

#include "congest/engine.h"

namespace dapsp::core {

// Message tags shared across the core protocols. Each protocol uses a
// disjoint slice so traces stay readable.
enum MsgKind : std::uint8_t {
  kFlood = 1,   // tree build: (claimed distance)
  kAck = 2,     // tree build: child -> parent
  kEcho = 3,    // tree build: (max_depth, marked_count, flags)
  kBcast = 4,   // generic broadcast down T1: (tag, a, b, c)
  kAggUp = 5,   // generic convergecast up T1: (tag, a, b, c)
  kPebble = 6,  // Algorithm 1: the DFS pebble
  kApspFlood = 7,   // Algorithm 1: (root id, claimed distance)
  kSspToken = 8,    // Algorithm 2: (id, distance)
  kKdomCount = 9,   // k-dominating set: (residue, count)
  kStartBfs = 10,   // naive baseline scheduling
  kLinkEdge = 11,   // link-state baseline: (u, v)
  kDvEntry = 12,    // distance-vector baseline: (dest, dist)
  kCertValue = 13,  // certification (core/certify): (source index, distance)
  kFailNotice = 14,  // degraded mode: "a neighbor crashed", flooded once
  kCellInvalid = 15,  // cell repair (core/repair): (source) lost every parent
};

// Crash survival (DESIGN.md §10), shared by Algorithms 1 and 2: a survivor
// that holds a NeighborDown verdict, or hears a kFailNotice, degrades and
// floods one notice to every neighbor it did not hear one from this round
// (the forward-once flood, Claim 1's rule). A degraded node schedules no new
// work; each protocol decides what "new work" means.
class FailureNotice {
 public:
  // The detector's verdict (Process::on_neighbor_down) arrives between
  // rounds; the flood goes out in the next absorb().
  void on_neighbor_down() noexcept { pending_ = true; }

  // Call first in every on_round(), before reading the inbox.
  void absorb(congest::RoundCtx& ctx) {
    bool saw = pending_;
    pending_ = false;
    if (degraded_) return;  // forward once
    const std::span<const congest::Received> inbox = ctx.inbox();
    for (const congest::Received& r : inbox) {
      if (r.msg.kind == kFailNotice) {
        saw = true;
        break;
      }
    }
    if (!saw) return;
    degraded_ = true;
    const std::uint32_t deg = ctx.degree();
    for (std::uint32_t i = 0; i < deg; ++i) {
      bool heard = false;
      for (const congest::Received& r : inbox) {
        heard = heard || (r.msg.kind == kFailNotice && r.from_index == i);
      }
      if (!heard) ctx.send(i, congest::Message::make(kFailNotice));
    }
  }

  // A verdict whose flood has not gone out yet: keep the node schedulable.
  bool pending() const noexcept { return pending_; }
  bool degraded() const noexcept { return degraded_; }

 private:
  bool pending_ = false;
  bool degraded_ = false;
};

// Echo flag bits.
inline constexpr std::uint32_t kEchoCycleFlag = 1;

inline constexpr std::uint32_t kNoParent = 0xffffffffu;

class TreeMachine {
 public:
  // `marked` feeds the marked-node count aggregated to the root.
  explicit TreeMachine(bool marked = false) : marked_(marked) {}

  // Handles one message if it belongs to the tree build. Returns true if
  // consumed. Call for every inbox entry each round.
  bool handle(congest::RoundCtx& ctx, const congest::Received& r);

  // Drives flood/ack/echo sends. Call once per round after handling inbox.
  void advance(congest::RoundCtx& ctx);

  // Wake hint for the owning Process::wake_round(): the root's bootstrap in
  // round 0, at once while the flood is unforwarded, round dist + 2 (the
  // children's ACKs are in) until the children are final; after that only
  // messages (echoes) move the machine.
  std::uint64_t wake_round(NodeId self, std::uint64_t r) const {
    if (dist_ == kInfDist) return self == 0 && r == 0 ? 0 : congest::kNever;
    if (!flooded_) return r;
    if (!children_final_) return std::max<std::uint64_t>(r, dist_ + 2ull);
    return congest::kNever;
  }

  // Local participation complete (echo sent, or root: all echoes received).
  bool finished(NodeId self) const {
    return self == 0 ? root_complete_ : echo_sent_;
  }

  // Root only: true once the whole tree is built and aggregated.
  bool root_complete() const { return root_complete_; }

  std::uint32_t dist() const { return dist_; }
  std::uint32_t parent_index() const { return parent_idx_; }
  const std::vector<std::uint32_t>& children() const { return children_; }

  // Root aggregates, valid once root_complete():
  std::uint32_t root_ecc() const { return agg_depth_; }
  bool root_cycle_evidence() const { return (agg_flags_ & kEchoCycleFlag) != 0; }
  std::uint32_t root_marked_count() const { return agg_marked_; }

 private:
  void maybe_send_echo(congest::RoundCtx& ctx);

  bool marked_;
  std::uint32_t dist_ = 0xffffffffu;  // kInfDist until reached
  std::uint32_t parent_idx_ = kNoParent;
  std::vector<std::uint32_t> children_;      // neighbor indexes
  std::vector<std::uint32_t> flood_senders_; // senders in the adoption round
  bool flooded_ = false;      // forwarded the flood already
  bool children_final_ = false;
  std::uint32_t receipts_ = 0;
  std::uint32_t echoes_received_ = 0;
  bool echo_sent_ = false;
  bool root_complete_ = false;
  // Aggregates over own subtree (merged from children echoes).
  std::uint32_t agg_depth_ = 0;
  std::uint32_t agg_marked_ = 0;
  std::uint32_t agg_flags_ = 0;
};

}  // namespace dapsp::core
