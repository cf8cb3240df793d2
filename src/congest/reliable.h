// Reliable delivery over faulty links: a process adapter that lets the
// paper's synchronous algorithms run unchanged on a lossy transport.
//
// ReliableAdapter wraps any inner Process and simulates the idealized
// synchronous CONGEST model in *virtual rounds* on top of a real network
// that may drop, duplicate or delay messages (congest/faults.h). The inner
// process sees a RoundCtx whose round() is the virtual round and whose inbox
// contains exactly the messages its neighbors' inner processes sent in the
// previous virtual round — exactly-once, in sender order. Any protocol that
// is correct in the synchronous model is therefore correct wrapped, at a
// constant-factor round cost (measured by bench_faults).
//
// Mechanics, per directed edge:
//   * every inner message is encoded into 1–2 frames (messages with more
//     than two payload fields are fragmented, since a frame also carries a
//     sequence number and the inner tag);
//   * every frame — data, marker, ack, beat — carries a trailing integrity
//     checksum field (an 8-bit XOR-fold of the kind and the other fields,
//     with a per-field rotation). A frame whose checksum does not verify is
//     counted (ReliableStats::corrupt_frames_dropped) and discarded; the
//     stop-and-wait ARQ then recovers it by retransmission, so payload
//     corruption (FaultPlan::corrupt_prob, one flipped wire bit per
//     corrupted copy — a granularity the checksum detects with certainty)
//     never reaches the inner process. A corrupted arrival still refreshes
//     the failure detector's last-heard clock: crashed nodes send nothing,
//     so even a garbled frame is sound evidence the peer is alive;
//   * frames form a FIFO stream with per-edge sequence numbers (mod 256) and
//     stop-and-wait ARQ: one frame outstanding, positive acks, retransmit
//     after `retransmit_after` silent rounds; the receiver dedups stale
//     sequence numbers, giving at-least-once transport, exactly-once
//     delivery;
//   * a round *marker* frame closes each virtual round's batch (piggybacked
//     on the last data frame when there is one). A node executes virtual
//     round r+1 once it holds the complete round-r batch from every
//     neighbor — the classical alpha-synchronizer, made demand-driven:
//     a node whose inner process is done withholds its marker (so a fully
//     quiescent network also quiesces at the engine level) and supplies it
//     only when a neighbor's own traffic shows the marker is needed.
//
// Bandwidth: with the trailing checksum the largest frame carries 5 fields,
// so a frame plus an ack on one directed edge in one round costs up to
// 2*kTagBits + 7*value_bits <= kTagBits + 8*value_bits (value_bits >= 8),
// and wrapped runs need EngineConfig::bandwidth_ids >= kReliableBandwidthIds.
// apply_reliable() sets this up.
//
// Failure detection (crash survival, DESIGN.md §10): crash-stop nodes and
// permanently failed links cannot be masked — the ARQ would retransmit into
// the void forever and the synchronizer would wait for a marker that never
// comes. Instead the adapter runs a per-edge heartbeat/timeout detector:
//   * while the adapter is active (inner not done, or transport busy) it
//     sends a kRelBeat on every edge that has been silent outbound for
//     `heartbeat_every` real rounds; any adapter answers a beat with a
//     kRelBeatAck (never re-answered, so quiescent pairs stay quiet);
//   * an edge on which nothing (frame, ack, beat or beat-ack) has been
//     heard for `suspect_after` consecutive *active* real rounds is declared
//     dead: ARQ state toward it is canceled, the synchronizer stops
//     requiring its round batches (virtual time advances without it), the
//     event is counted in RunStats::neighbors_suspected, and the inner
//     process is told via Process::on_neighbor_down(index, virtual_round).
//   Silence while this adapter is passive is never counted (a quiet, done
//   neighbor is not a dead one), and a declaration is permanent (crash-stop
//   model). With delays bounded by the plan's max_extra_delay, a live
//   neighbor is heard at least every heartbeat_every + 2 + 2*max_extra_delay
//   rounds, so any suspect_after above that bound — the default covers the
//   global kMaxExtraDelay — makes false suspicion impossible under
//   drop-free plans and astronomically unlikely otherwise.
//
// Caveats (documented in DESIGN.md):
//   * the engine's per-edge budget B applies to the adapter's frames; the
//     inner protocol's own congestion-freedom is attested by its fault-free
//     runs, not re-checked under wrapping (inner sends are queued, not
//     bandwidth-stamped);
//   * a wrapped process is only re-invoked when virtual time advances; a
//     process that spontaneously leaves done() without any input cannot be
//     simulated (none in this library does);
//   * with the detector disabled (suspect_after = 0), crash-stop and
//     permanent link failures stall the synchronizer, which
//     Engine::run_bounded() reports as kRoundLimit.
//
// Threading: the adapter keeps all of its state (ARQ windows, reassembly
// buffers, virtual-round queues, detector timers) inside the per-node
// instance and touches nothing shared — it reads only its own RoundCtx and
// writes only via ctx.send()/note_neighbor_suspected(), both shard-local in
// the parallel engine. Wrapped runs are therefore bit-identical at every
// EngineConfig::threads value, like unwrapped ones (DESIGN.md §11).
#pragma once

#include <cstdint>
#include <deque>
#include <memory>
#include <optional>
#include <vector>

#include "congest/engine.h"
#include "congest/message.h"

namespace dapsp::congest {

// Outer wire-protocol tags. Kept in a high slice of the 8-bit kind space so
// they never collide with protocol tags (src/core uses 1..12). The field
// lists below omit the trailing integrity checksum every frame additionally
// carries as its last field.
enum ReliableKind : std::uint8_t {
  kRelAck = 240,        // (seq): cumulative ack of frame `seq`
  kRelMark = 241,       // (seq): round marker, no data this virtual round
  kRelData0 = 242,      // (seq, inner_kind): 0-field inner message
  kRelData1 = 243,      // (seq, inner_kind, f0)
  kRelData2 = 244,      // (seq, inner_kind, f0, f1)
  kRelData0Last = 245,  // ditto, closing the virtual round's batch
  kRelData1Last = 246,
  kRelData2Last = 247,
  kRelFragA3 = 248,  // (seq, inner_kind, f0, f1): first half, 3-field inner
  kRelFragA4 = 249,  // (seq, inner_kind, f0, f1): first half, 4-field inner
  kRelFragB = 250,      // (seq, f2[, f3]): second half
  kRelFragBLast = 251,  // ditto, closing the batch
  kRelBeat = 252,       // heartbeat: "are you alive?" (no payload, no ARQ)
  kRelBeatAck = 253,    // heartbeat answer; never answered itself
};

// Sequence numbers live mod kRelSeqMod (they must fit one message field,
// whose width has an 8-bit floor). Safe against stale duplicates as long as
// fewer than kRelSeqMod frames can progress within one reordering window —
// guaranteed by FaultPlan's kMaxExtraDelay bound.
inline constexpr std::uint32_t kRelSeqMod = 256;

// Minimum EngineConfig::bandwidth_ids for wrapped runs (frame + ack per
// directed edge per round, both checksummed).
inline constexpr std::uint32_t kReliableBandwidthIds = 8;

// Default failure-detector timeout: safely above the worst-case heartbeat
// round trip under the globally bounded reordering horizon
// (heartbeat_every + 2 + 2*kMaxExtraDelay = 134 with the defaults), so a
// delay-only plan can never produce a false NeighborDown.
inline constexpr std::uint32_t kDefaultSuspectAfter = 150;

struct ReliableConfig {
  // Retransmit an unacknowledged frame after this many rounds of silence.
  // Must cover the round trip (2 rounds fault-free; add 2*max_extra_delay
  // when the plan delays messages) or retransmissions go spurious — still
  // correct, just wasteful.
  std::uint32_t retransmit_after = 4;

  // Failure detector: declare a neighbor dead after this many consecutive
  // silent real rounds on its edge while this node is active. 0 disables
  // detection (crashes then stall the run, as before PR 2). Must exceed
  // heartbeat_every + 2 + 2*max_extra_delay of the plan in use to rule out
  // false suspicion; the default covers the global kMaxExtraDelay bound.
  std::uint32_t suspect_after = kDefaultSuspectAfter;

  // Send a heartbeat on any edge that has been silent outbound for this
  // many real rounds (while active). Must be >= 1.
  std::uint32_t heartbeat_every = 4;
};

// Transport counters of one adapter (sum over nodes for a run's view).
struct ReliableStats {
  std::uint64_t virtual_rounds = 0;   // inner rounds executed
  std::uint64_t frames_sent = 0;      // first transmissions
  std::uint64_t retransmissions = 0;
  std::uint64_t acks_sent = 0;
  std::uint64_t stale_frames = 0;     // duplicates discarded by dedup
  std::uint64_t inner_messages = 0;   // inner sends carried
  std::uint64_t beats_sent = 0;       // heartbeats + heartbeat answers
  // Frames whose integrity checksum failed to verify: discarded, recovered
  // by the ARQ. Nonzero only under FaultPlan::corrupt_prob.
  std::uint64_t corrupt_frames_dropped = 0;
  std::uint32_t neighbors_declared_down = 0;  // detector verdicts
};

class ReliableAdapter final : public Process {
 public:
  explicit ReliableAdapter(std::unique_ptr<Process> inner,
                           ReliableConfig config = {});
  ~ReliableAdapter() override;

  void on_round(RoundCtx& ctx) override;
  bool done() const override;
  // The synchronizer is at rest: no neighbor ahead and no marker the supply
  // rule would release. The first step is never skipped.
  bool idle() const override;

  // Harvest hooks: Engine::process_as<T>() resolves through to the inner
  // algorithm process.
  Process& underlying() override { return inner_->underlying(); }
  Process& inner() { return *inner_; }

  const ReliableStats& stats() const noexcept { return stats_; }
  std::uint64_t virtual_round() const noexcept {
    return static_cast<std::uint64_t>(executed_ + 1);
  }

  // True once the failure detector has declared the neighbor at `index`
  // dead. Permanent for the rest of the run.
  bool neighbor_down(std::uint32_t index) const {
    return index < down_.size() && down_[index] != 0;
  }

 private:
  class VirtualCtx;
  struct EdgeTx;
  struct EdgeRx;

  void ensure_edges(RoundCtx& ctx);
  void detect_failures(RoundCtx& ctx, bool active);
  void process_inbox(RoundCtx& ctx);
  void accept_frame(std::uint32_t e, const Message& m);
  void enqueue_markers_upto(std::uint32_t e, std::int64_t round);
  void enqueue_round_output(std::uint32_t e,
                            const std::vector<Message>& outbox);
  void encode(std::uint32_t e, const Message& inner, bool last);
  std::uint32_t take_seq(std::uint32_t e);
  bool undelivered_data() const;
  bool peer_ahead() const;
  bool buckets_ready() const;
  void execute_virtual_round(RoundCtx& ctx);
  void transmit(RoundCtx& ctx, bool active);

  std::unique_ptr<Process> inner_;
  ReliableConfig config_;
  ReliableStats stats_;

  bool edges_ready_ = false;
  std::vector<EdgeTx> tx_;
  std::vector<EdgeRx> rx_;

  // Failure-detector state, per edge. last_heard_ counts only rounds while
  // this adapter was active (passive rounds refresh it, so a done node's
  // silence never accrues toward suspicion).
  std::vector<std::uint64_t> last_heard_;
  std::vector<std::uint64_t> last_sent_any_;
  std::vector<std::uint8_t> beat_owed_;
  std::vector<std::uint8_t> down_;

  // Highest virtual round whose inner on_round has run (-1 = none yet).
  std::int64_t executed_ = -1;
  // The engine skips an idle adapter; on_round() catches its failure-
  // detector clocks up over the skipped (passive) rounds.
  std::uint64_t last_step_ = 0;
  // Sends captured from the inner process during execute_virtual_round.
  std::vector<std::vector<Message>> outboxes_;
};

// EngineConfig::process_wrapper hook wrapping every process in a
// ReliableAdapter.
EngineConfig::ProcessWrapper reliable_wrapper(ReliableConfig config = {});

// Convenience: installs reliable_wrapper and raises bandwidth_ids to the
// adapter's minimum. The caller still owns max_rounds (wrapped runs take a
// constant factor more real rounds; raise it for lossy plans).
void apply_reliable(EngineConfig& config, ReliableConfig rc = {});

}  // namespace dapsp::congest
