// Deterministic, seeded fault injection for the CONGEST engine.
//
// The paper's model is idealized: every message sent in round r arrives in
// round r+1 and no node ever fails. A FaultPlan perturbs that transport —
// message drops, duplication, bounded extra delivery delay, scheduled link
// failures and crash-stop node failures — while keeping every run exactly
// reproducible: all randomness flows from the plan's seed through the
// library's SplitMix64 generator (util/rng.h). Decisions for the messages
// one node sends in one round are drawn, in send order, from an independent
// stream keyed by (seed, node, round) — the fate of a message depends only
// on who sent it, when, and how many sends preceded it from that node in
// that round, never on what other nodes did. This is what makes the sharded
// engine (DESIGN.md §11) bit-identical to the serial one: senders' streams
// can be drawn concurrently without any shared RNG state. Running the same
// plan twice (at any thread count) yields bit-identical traces and RunStats
// (including the fault counters).
//
// Faults model the *network*, not the algorithm: a dropped message was sent
// (it is charged bandwidth and counted in RunStats::messages) but never
// arrives. The companion reliable-delivery layer (congest/reliable.h) makes
// the paper's algorithms survive such transports unchanged.
#pragma once

#include <cstdint>
#include <memory>
#include <span>
#include <utility>
#include <vector>

#include "graph/graph.h"
#include "util/rng.h"

namespace dapsp::congest {

// Per-directed-edge override of the base drop probability.
struct EdgeDropRate {
  NodeId from = 0;
  NodeId to = 0;
  double drop_prob = 0.0;
};

// Per-directed-edge override of the base payload-corruption probability.
struct EdgeCorruptRate {
  NodeId from = 0;
  NodeId to = 0;
  double corrupt_prob = 0.0;
};

// From `round` on, the (undirected) link u—v delivers nothing in either
// direction. Messages sent across it are counted as dropped.
struct LinkFailure {
  NodeId u = 0;
  NodeId v = 0;
  std::uint64_t round = 0;
};

// Crash-stop: from the start of `round` on, node v executes no rounds,
// sends nothing, and every message addressed to it is dropped. Messages it
// sent before crashing are still delivered (they were already on the wire).
struct NodeCrash {
  NodeId v = 0;
  std::uint64_t round = 0;
};

// Transient stall: for rounds [round, round + duration) node v executes
// nothing — it sends no messages and reads none (its inbox for those rounds
// is discarded, counted as drops) — but it does not die: from round
// `round + duration` on it resumes normally. Messages addressed to it while
// stalled are lost exactly as if the node were briefly deaf; messages it
// sent before stalling are still delivered. Overlapping stalls for one node
// union naturally. Windows overlapping the node's crash round are
// canonicalized at plan compilation: truncated at the crash round (a dead
// node cannot also stall) and dropped when they begin at or after it.
struct NodeStall {
  NodeId v = 0;
  std::uint64_t round = 0;
  std::uint64_t duration = 1;
};

// A complete description of the faults injected into one run. Value type;
// carried inside EngineConfig. An all-default plan injects nothing and the
// engine's delivery behaviour (and round counts) are bit-identical to a run
// without a plan.
struct FaultPlan {
  std::uint64_t seed = 1;

  // Base per-message probabilities, applied to every directed edge unless
  // overridden. All probabilities must lie in [0, 1].
  double drop_prob = 0.0;       // message vanishes
  double duplicate_prob = 0.0;  // a second copy is delivered
  double delay_prob = 0.0;      // delivery is late by 1..max_extra_delay
  double corrupt_prob = 0.0;    // one payload bit of a delivered copy flips

  // Extra delivery latency (in rounds, beyond the normal one round) drawn
  // uniformly from [1, max_extra_delay] for delayed messages. Must be >= 1
  // when delay_prob > 0, and <= kMaxExtraDelay (the reliable layer's
  // sequence-number window assumes a bounded reordering horizon).
  std::uint32_t max_extra_delay = 0;

  // Overrides are applied in order; when one directed edge appears several
  // times, the last entry wins.
  std::vector<EdgeDropRate> edge_drop_overrides;
  std::vector<EdgeCorruptRate> edge_corrupt_overrides;
  std::vector<LinkFailure> link_failures;
  std::vector<NodeCrash> crashes;
  std::vector<NodeStall> stalls;

  // True when the plan can affect delivery at all (used by tests/benches to
  // label runs; the engine injects faults whenever a plan is present).
  bool trivial() const noexcept {
    return drop_prob == 0.0 && duplicate_prob == 0.0 && delay_prob == 0.0 &&
           corrupt_prob == 0.0 && edge_drop_overrides.empty() &&
           edge_corrupt_overrides.empty() && link_failures.empty() &&
           crashes.empty() && stalls.empty();
  }
};

inline constexpr std::uint32_t kMaxExtraDelay = 64;

// FaultDecision::corrupt_bit value meaning "this copy arrives intact".
inline constexpr std::uint32_t kNoCorruption = 0xffffffffu;

// The fate of one sent message, drawn from the plan's RNG.
struct FaultDecision {
  bool dropped = false;
  std::uint32_t copies = 1;  // 2 when duplicated (and not dropped)
  // Extra delivery delay per copy (0 = deliver next round as usual).
  std::uint32_t extra_delay[2] = {0, 0};
  // Index of the wire bit flipped in each copy (kNoCorruption = intact).
  // Bits 0..kTagBits-1 are the message kind; from kTagBits on, bit
  // kTagBits + i*value_bits + j is bit j of field i. Exactly one bit flips
  // per corrupted copy — the granularity the reliable layer's checksum is
  // guaranteed to detect.
  std::uint32_t corrupt_bit[2] = {kNoCorruption, kNoCorruption};
};

// Compiled form of a FaultPlan against a concrete graph: per-directed-edge
// probabilities and failure rounds, per-node crash rounds. Immutable after
// construction (all mutable randomness lives in caller-held per-(node, round)
// streams), so one injector can serve concurrent shards of the parallel
// engine without locks, and repeated runs of one engine are identical with
// no reset step.
class FaultInjector {
 public:
  // Validates the plan against the graph; throws std::invalid_argument on
  // out-of-range probabilities/delays, unknown edges or nodes.
  FaultInjector(const Graph& g, const FaultPlan& plan);

  const FaultPlan& plan() const noexcept { return plan_; }

  // Largest extra delay any message can incur (sizes the delivery ring).
  std::uint32_t max_extra_delay() const noexcept {
    return plan_.max_extra_delay;
  }

  // Crash round of v (UINT64_MAX if v never crashes).
  std::uint64_t crash_round(NodeId v) const noexcept {
    return crash_round_[v];
  }
  bool crashed(NodeId v, std::uint64_t round) const noexcept {
    return round >= crash_round_[v];
  }

  // v's stall windows as [begin, end) rounds, canonicalized against its
  // crash.
  std::span<const std::pair<std::uint64_t, std::uint64_t>> stall_windows(
      NodeId v) const noexcept {
    return stall_windows_[v];
  }

  // True when v is inside one of its scheduled stall windows at `round`.
  bool stalled(NodeId v, std::uint64_t round) const noexcept {
    for (const auto& [begin, end] : stall_windows_[v]) {
      if (round >= begin && round < end) return true;
    }
    return false;
  }

  // True when the directed edge (indexed as graph offsets[u] + neighbor
  // index, the engine's numbering) is failed at `round`.
  bool link_down(std::size_t directed_edge, std::uint64_t round) const noexcept {
    return round >= link_down_round_[directed_edge];
  }

  // The decision stream for the messages `node` sends in `round`: an
  // independent SplitMix64 generator seeded by a finalized mix of
  // (plan seed, node, round). The caller draws one decide() per send, in
  // send order; streams of distinct (node, round) pairs never interact, so
  // shards may hold them concurrently.
  Rng stream(NodeId node, std::uint64_t round) const noexcept {
    return keyed_rng(plan_.seed, node, round);
  }

  // Draws the fate of one message sent over `directed_edge` from the
  // sender's stream. Call exactly once per sent message, in send order
  // within the (node, round) stream, for reproducibility. `message_bits` is
  // the message's wire width (Message::bit_cost) — the corruption draw picks
  // a uniform bit below it; pass 0 only when the plan cannot corrupt.
  FaultDecision decide(Rng& stream, std::size_t directed_edge,
                       std::uint32_t message_bits = 0) const;

 private:
  FaultPlan plan_;
  std::vector<double> drop_prob_;            // per directed edge
  std::vector<double> corrupt_prob_;         // per directed edge
  std::vector<std::uint64_t> link_down_round_;  // per directed edge
  std::vector<std::uint64_t> crash_round_;      // per node
  // Per node, the [begin, end) stall windows (usually zero or one).
  std::vector<std::vector<std::pair<std::uint64_t, std::uint64_t>>>
      stall_windows_;
};

}  // namespace dapsp::congest
