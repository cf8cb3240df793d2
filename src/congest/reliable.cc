#include "congest/reliable.h"

#include <algorithm>
#include <stdexcept>

namespace dapsp::congest {

namespace {

// 8-bit integrity checksum of a frame body (kind + payload fields, without
// the trailing checksum field). Each field XOR-folds to a byte and is
// rotated by a field-index-dependent amount before mixing, so a single
// flipped wire bit — the fault model's corruption granularity — is detected
// with certainty: a kind flip toggles the matching checksum bit directly, a
// payload flip toggles exactly one bit of its field's rotated fold, and a
// flip inside the checksum field itself mismatches the recomputation (the
// stored value stays below 256, so even a flip of one of that field's high
// bits is caught).
std::uint32_t frame_checksum(const Message& m) {
  std::uint32_t ck = m.kind;
  for (int i = 0; i < m.num_fields; ++i) {
    const std::uint32_t x = m.f[static_cast<std::size_t>(i)];
    const std::uint32_t fold = (x ^ (x >> 8) ^ (x >> 16) ^ (x >> 24)) & 0xffu;
    const std::uint32_t rot = (static_cast<std::uint32_t>(i) * 3 + 1) & 7u;
    ck ^= ((fold << rot) | (fold >> (8 - rot))) & 0xffu;
  }
  return ck & 0xffu;
}

// Appends the checksum as the frame's last wire field. Every kRel* frame is
// sealed exactly once, at creation.
Message seal(Message m) {
  m.f[m.num_fields] = frame_checksum(m);
  ++m.num_fields;
  return m;
}

// True when the trailing checksum verifies against the rest of the frame.
bool frame_intact(const Message& m) {
  if (m.num_fields == 0) return false;  // every kRel* frame is sealed
  Message body = m;
  --body.num_fields;
  return m.f[static_cast<std::size_t>(m.num_fields) - 1] ==
         frame_checksum(body);
}

}  // namespace

// ---------------------------------------------------------------------------
// Per-edge state

// Sender half of one directed-edge stream (us -> neighbor e).
struct ReliableAdapter::EdgeTx {
  std::deque<Message> queue;           // encoded frames awaiting first send
  std::optional<Message> outstanding;  // stop-and-wait: one frame in flight
  std::uint64_t last_send = 0;         // real round of last (re)transmission
  std::uint32_t next_seq = 0;
  // Highest virtual round whose closing marker has been enqueued. Markers of
  // passive (inner-done, no-data) rounds are withheld until demanded, so a
  // globally quiescent protocol also quiesces on the wire.
  std::int64_t marker_enqueued = -1;
};

// Receiver half (neighbor e -> us).
struct ReliableAdapter::EdgeRx {
  std::uint32_t expected_seq = 0;
  // Highest virtual round the peer has evidently executed (any accepted
  // frame of bucket b proves the peer ran round b).
  std::int64_t peer_exec = -1;
  std::uint64_t buckets_completed = 0;  // markers received = index now filling
  std::vector<Message> filling;         // decoded inner messages, open bucket
  // Closed buckets not yet consumed; front() is the batch of virtual round
  // (buckets_completed - completed.size()), which the synchronizer keeps
  // equal to our executed_ round.
  std::deque<std::vector<Message>> completed;
  bool frag_pending = false;
  Message frag;  // first half of a fragmented inner message
  // At most one ack per edge per round (bandwidth discipline).
  bool ack_due = false;
  bool ack_accept = false;  // the due ack is for a newly accepted frame
  std::uint32_t ack_seq = 0;
};

// The synchronous world presented to the inner process: virtual round
// number, exactly-once inbox, captured sends.
class ReliableAdapter::VirtualCtx final : public RoundCtx {
 public:
  VirtualCtx(RoundCtx& real, std::uint64_t vround,
             std::span<const Received> inbox,
             std::vector<std::vector<Message>>& outboxes) noexcept
      : RoundCtx(real.id()),
        real_(real),
        vround_(vround),
        inbox_(inbox),
        outboxes_(outboxes) {}

  NodeId n() const noexcept override { return real_.n(); }
  std::uint64_t round() const noexcept override { return vround_; }
  std::uint32_t degree() const noexcept override { return real_.degree(); }
  NodeId neighbor(std::uint32_t index) const override {
    return real_.neighbor(index);
  }
  std::span<const Received> inbox() const noexcept override { return inbox_; }
  void send(std::uint32_t index, const Message& m) override {
    if (index >= outboxes_.size()) {
      throw std::out_of_range("send: bad neighbor index");
    }
    outboxes_[index].push_back(m);
  }
  // Instrumentation hooks pass through to the engine-backed context so that
  // wrapped protocols land in RunStats and the trace like unwrapped ones.
  void note_neighbor_suspected(std::uint32_t neighbor_index) override {
    real_.note_neighbor_suspected(neighbor_index);
  }
  void trace_frontier(NodeId source, std::uint32_t dist) override {
    real_.trace_frontier(source, dist);
  }

 private:
  RoundCtx& real_;
  std::uint64_t vround_;
  std::span<const Received> inbox_;
  std::vector<std::vector<Message>>& outboxes_;
};

// ---------------------------------------------------------------------------

ReliableAdapter::ReliableAdapter(std::unique_ptr<Process> inner,
                                 ReliableConfig config)
    : inner_(std::move(inner)), config_(config) {
  if (config_.retransmit_after < 2) {
    throw std::invalid_argument(
        "ReliableConfig: retransmit_after must cover the 2-round trip");
  }
  if (config_.heartbeat_every == 0) {
    throw std::invalid_argument("ReliableConfig: heartbeat_every must be >= 1");
  }
  if (config_.suspect_after != 0 &&
      config_.suspect_after <= config_.heartbeat_every + 2) {
    throw std::invalid_argument(
        "ReliableConfig: suspect_after must exceed the heartbeat round trip "
        "(heartbeat_every + 2); every live edge would be suspected");
  }
}

ReliableAdapter::~ReliableAdapter() = default;

void ReliableAdapter::ensure_edges(RoundCtx& ctx) {
  if (edges_ready_) return;
  edges_ready_ = true;
  tx_.resize(ctx.degree());
  rx_.resize(ctx.degree());
  outboxes_.resize(ctx.degree());
  last_heard_.assign(ctx.degree(), ctx.round());
  last_sent_any_.assign(ctx.degree(), ctx.round());
  beat_owed_.assign(ctx.degree(), 0);
  down_.assign(ctx.degree(), 0);
}

std::uint32_t ReliableAdapter::take_seq(std::uint32_t e) {
  const std::uint32_t s = tx_[e].next_seq;
  tx_[e].next_seq = (s + 1) % kRelSeqMod;
  return s;
}

void ReliableAdapter::process_inbox(RoundCtx& ctx) {
  for (const Received& r : ctx.inbox()) {
    const std::uint32_t e = r.from_index;
    const Message& m = r.msg;
    if (down_[e] != 0) {
      // Declared dead: a declaration is permanent, so late traffic (only
      // possible under false suspicion, i.e. extreme loss) is discarded —
      // the ARQ state it refers to is gone.
      ++stats_.stale_frames;
      continue;
    }
    // Arrival — even of a frame about to fail its checksum — refreshes the
    // failure detector's clock: crashed nodes send nothing, so any frame is
    // sound liveness evidence and pure corruption can never produce a false
    // NeighborDown.
    last_heard_[e] = ctx.round();
    if (!frame_intact(m)) {
      // Discard; the ARQ recovers data/marker frames by retransmission and
      // acks by the sender's stale-frame re-ack path. Beats carry no ARQ,
      // but a corrupted beat already served its liveness purpose above.
      ++stats_.corrupt_frames_dropped;
      continue;
    }
    if (m.kind == kRelBeat) {
      beat_owed_[e] = 1;  // answered in transmit() unless other traffic flows
      continue;
    }
    if (m.kind == kRelBeatAck) continue;  // pure liveness evidence
    if (m.kind == kRelAck) {
      EdgeTx& tx = tx_[e];
      if (tx.outstanding && tx.outstanding->f[0] == m.f[0]) {
        tx.outstanding.reset();  // frame crossed; next one may go this round
      }
      continue;
    }
    if (m.kind < kRelMark || m.kind > kRelFragBLast) {
      throw std::logic_error(
          "ReliableAdapter: non-reliable frame on the wire: " +
          m.debug_string());
    }
    EdgeRx& rx = rx_[e];
    const std::uint32_t seq = m.f[0];
    if (seq == rx.expected_seq) {
      rx.expected_seq = (rx.expected_seq + 1) % kRelSeqMod;
      accept_frame(e, m);
      rx.ack_due = true;
      rx.ack_accept = true;
      rx.ack_seq = seq;
    } else {
      // Stale duplicate (our ack was lost, or a delayed copy): discard, but
      // re-ack so the sender stops retransmitting. Never shadow an accept.
      ++stats_.stale_frames;
      if (!rx.ack_accept) {
        rx.ack_due = true;
        rx.ack_seq = seq;
      }
    }
  }
}

void ReliableAdapter::accept_frame(std::uint32_t e, const Message& m) {
  EdgeRx& rx = rx_[e];
  rx.peer_exec =
      std::max(rx.peer_exec, static_cast<std::int64_t>(rx.buckets_completed));
  bool closes = false;
  switch (m.kind) {
    case kRelMark:
      closes = true;
      break;
    case kRelData0:
    case kRelData1:
    case kRelData2:
    case kRelData0Last:
    case kRelData1Last:
    case kRelData2Last: {
      const bool last = m.kind >= kRelData0Last;
      const std::uint8_t nf = static_cast<std::uint8_t>(
          m.kind - (last ? kRelData0Last : kRelData0));
      if (rx.frag_pending) {
        throw std::logic_error("ReliableAdapter: data frame inside fragment");
      }
      Message inner;
      inner.kind = static_cast<std::uint8_t>(m.f[1]);
      inner.num_fields = nf;
      for (std::uint8_t i = 0; i < nf; ++i) inner.f[i] = m.f[2 + i];
      rx.filling.push_back(inner);
      closes = last;
      break;
    }
    case kRelFragA3:
    case kRelFragA4: {
      if (rx.frag_pending) {
        throw std::logic_error("ReliableAdapter: fragment inside fragment");
      }
      rx.frag = Message{};
      rx.frag.kind = static_cast<std::uint8_t>(m.f[1]);
      rx.frag.num_fields = m.kind == kRelFragA3 ? 3 : 4;
      rx.frag.f[0] = m.f[2];
      rx.frag.f[1] = m.f[3];
      rx.frag_pending = true;
      break;
    }
    case kRelFragB:
    case kRelFragBLast: {
      if (!rx.frag_pending) {
        throw std::logic_error("ReliableAdapter: dangling second fragment");
      }
      rx.frag.f[2] = m.f[1];
      if (rx.frag.num_fields == 4) rx.frag.f[3] = m.f[2];
      rx.filling.push_back(rx.frag);
      rx.frag_pending = false;
      closes = m.kind == kRelFragBLast;
      break;
    }
    default:
      throw std::logic_error("ReliableAdapter: unknown frame kind");
  }
  if (closes) {
    rx.completed.push_back(std::move(rx.filling));
    rx.filling.clear();
    ++rx.buckets_completed;
  }
}

void ReliableAdapter::detect_failures(RoundCtx& ctx, bool active) {
  if (config_.suspect_after == 0) return;
  const std::uint64_t now = ctx.round();
  if (!active) {
    // A passive node expects nothing from its neighbors; its clocks follow
    // real time so a later reactivation starts a fresh suspicion window.
    for (std::uint32_t e = 0; e < rx_.size(); ++e) {
      if (down_[e] == 0) last_heard_[e] = now;
    }
    return;
  }
  for (std::uint32_t e = 0; e < rx_.size(); ++e) {
    if (down_[e] != 0 || now < last_heard_[e] + config_.suspect_after) {
      continue;
    }
    // NeighborDown: cancel ARQ toward the dead edge, drop the half-received
    // batch (it can never complete), keep already-closed buckets (that data
    // was delivered reliably before the silence), and stop requiring the
    // edge's markers so virtual time advances without it.
    down_[e] = 1;
    ++stats_.neighbors_declared_down;
    tx_[e].outstanding.reset();
    tx_[e].queue.clear();
    rx_[e].filling.clear();
    rx_[e].frag_pending = false;
    rx_[e].ack_due = false;
    rx_[e].ack_accept = false;
    beat_owed_[e] = 0;
    ctx.note_neighbor_suspected(e);
    inner_->on_neighbor_down(e, virtual_round());
  }
}

void ReliableAdapter::enqueue_markers_upto(std::uint32_t e,
                                           std::int64_t round) {
  EdgeTx& tx = tx_[e];
  if (down_[e] != 0) return;
  while (tx.marker_enqueued < round) {
    ++tx.marker_enqueued;
    tx.queue.push_back(seal(Message::make(kRelMark, take_seq(e))));
  }
}

void ReliableAdapter::encode(std::uint32_t e, const Message& inner,
                             bool last) {
  ++stats_.inner_messages;
  EdgeTx& tx = tx_[e];
  const std::uint8_t nf = inner.num_fields;
  if (nf <= 2) {
    Message f;
    f.kind = static_cast<std::uint8_t>((last ? kRelData0Last : kRelData0) + nf);
    f.num_fields = static_cast<std::uint8_t>(2 + nf);
    f.f[0] = take_seq(e);
    f.f[1] = inner.kind;
    for (std::uint8_t i = 0; i < nf; ++i) f.f[2 + i] = inner.f[i];
    tx.queue.push_back(seal(f));
    return;
  }
  Message a;
  a.kind = nf == 3 ? kRelFragA3 : kRelFragA4;
  a.num_fields = 4;
  a.f[0] = take_seq(e);
  a.f[1] = inner.kind;
  a.f[2] = inner.f[0];
  a.f[3] = inner.f[1];
  tx.queue.push_back(seal(a));
  Message b;
  b.kind = last ? kRelFragBLast : kRelFragB;
  b.num_fields = static_cast<std::uint8_t>(nf - 1);  // seq + 1 or 2 fields
  b.f[0] = take_seq(e);
  b.f[1] = inner.f[2];
  if (nf == 4) b.f[2] = inner.f[3];
  tx.queue.push_back(seal(b));
}

void ReliableAdapter::enqueue_round_output(std::uint32_t e,
                                           const std::vector<Message>& outbox) {
  EdgeTx& tx = tx_[e];
  if (outbox.empty()) {
    tx.queue.push_back(seal(Message::make(kRelMark, take_seq(e))));
  } else {
    for (std::size_t i = 0; i < outbox.size(); ++i) {
      encode(e, outbox[i], /*last=*/i + 1 == outbox.size());
    }
  }
  tx.marker_enqueued = executed_;
}

bool ReliableAdapter::undelivered_data() const {
  for (std::uint32_t e = 0; e < rx_.size(); ++e) {
    const EdgeRx& rx = rx_[e];
    // Data received and closed before a neighbor died is still delivered;
    // only its never-to-complete open batch is ignored.
    if (down_[e] == 0 && (!rx.filling.empty() || rx.frag_pending)) return true;
    for (const auto& bucket : rx.completed) {
      if (!bucket.empty()) return true;
    }
  }
  return false;
}

bool ReliableAdapter::peer_ahead() const {
  for (std::uint32_t e = 0; e < rx_.size(); ++e) {
    if (down_[e] == 0 && rx_[e].peer_exec > executed_) return true;
  }
  return false;
}

bool ReliableAdapter::buckets_ready() const {
  if (executed_ < 0) return true;  // virtual round 0 needs no input
  for (std::uint32_t e = 0; e < rx_.size(); ++e) {
    // Dead neighbors contribute empty batches forever.
    if (down_[e] == 0 && rx_[e].completed.empty()) return false;
  }
  return true;
}

void ReliableAdapter::execute_virtual_round(RoundCtx& ctx) {
  const std::uint64_t vr = static_cast<std::uint64_t>(executed_ + 1);
  std::vector<Received> vinbox;
  if (executed_ >= 0) {
    for (std::uint32_t e = 0; e < rx_.size(); ++e) {
      if (rx_[e].completed.empty()) continue;  // dead edge, batches exhausted
      std::vector<Message>& bucket = rx_[e].completed.front();
      for (const Message& m : bucket) vinbox.push_back(Received{e, m});
      rx_[e].completed.pop_front();
    }
  }
  for (auto& ob : outboxes_) ob.clear();
  VirtualCtx vctx(ctx, vr, vinbox, outboxes_);
  inner_->on_round(vctx);
  ++executed_;
  ++stats_.virtual_rounds;

  bool has_data = false;
  for (const auto& ob : outboxes_) has_data = has_data || !ob.empty();
  if (!inner_->done() || has_data) {
    // Active round: publish the batch (plus any withheld markers first, so
    // the per-edge streams stay in round order). Dead edges get nothing —
    // anything the inner process addressed to them is dropped here.
    for (std::uint32_t e = 0; e < tx_.size(); ++e) {
      if (down_[e] != 0) continue;
      enqueue_markers_upto(e, executed_ - 1);
      enqueue_round_output(e, outboxes_[e]);
    }
  }
  // Passive round (inner done, nothing to say): withhold the markers; they
  // are supplied on demand, and a globally quiet protocol stays quiet.
}

void ReliableAdapter::transmit(RoundCtx& ctx, bool active) {
  const std::uint64_t now = ctx.round();
  for (std::uint32_t e = 0; e < tx_.size(); ++e) {
    if (down_[e] != 0) continue;
    bool sent = false;
    EdgeRx& rx = rx_[e];
    if (rx.ack_due) {
      ctx.send(e, seal(Message::make(kRelAck, rx.ack_seq)));
      ++stats_.acks_sent;
      rx.ack_due = false;
      rx.ack_accept = false;
      sent = true;
    }
    EdgeTx& tx = tx_[e];
    if (tx.outstanding) {
      if (now - tx.last_send >= config_.retransmit_after) {
        ctx.send(e, *tx.outstanding);
        tx.last_send = now;
        ++stats_.retransmissions;
        sent = true;
      }
    } else if (!tx.queue.empty()) {
      tx.outstanding = tx.queue.front();
      tx.queue.pop_front();
      ctx.send(e, *tx.outstanding);
      tx.last_send = now;
      ++stats_.frames_sent;
      sent = true;
    }
    if (!sent && config_.suspect_after != 0) {
      // Heartbeats ride only on otherwise-idle edges, so the per-edge budget
      // stays within the frame+ack worst case. A beat answer has priority
      // (and is itself never answered — quiescent pairs stay quiet); fresh
      // beats are initiated by active nodes only.
      if (beat_owed_[e] != 0) {
        ctx.send(e, seal(Message::make(kRelBeatAck)));
        ++stats_.beats_sent;
        sent = true;
      } else if (active && now - last_sent_any_[e] >= config_.heartbeat_every) {
        ctx.send(e, seal(Message::make(kRelBeat)));
        ++stats_.beats_sent;
        sent = true;
      }
    }
    if (sent) {
      // Any outbound traffic doubles as liveness evidence for the peer, so
      // an owed beat answer is satisfied by it.
      last_sent_any_[e] = now;
      beat_owed_[e] = 0;
    }
  }
}

void ReliableAdapter::on_round(RoundCtx& ctx) {
  if (edges_ready_ && ctx.round() > last_step_ + 1) {
    // Skipped rounds were idle, hence passive: detect_failures() would have
    // kept every live clock at the round.
    for (std::uint32_t e = 0; e < rx_.size(); ++e) {
      if (down_[e] == 0) last_heard_[e] = ctx.round() - 1;
    }
  }
  last_step_ = ctx.round();
  ensure_edges(ctx);
  process_inbox(ctx);

  // Failure detection runs on the pre-round view: `active` means this
  // adapter is waiting on something (inner busy or transport in flight), so
  // neighbor silence is meaningful. A passive node judges nobody.
  const bool active = !done();
  detect_failures(ctx, active);

  // Drive the synchronizer. `want` = virtual time must advance here: the
  // inner process has work, a neighbor's batch carries data for it, or a
  // neighbor has executed past us (and will need our marker to proceed).
  const bool want = !inner_->done() || undelivered_data() || peer_ahead();
  if (want) {
    // Demand wave: flush every withheld marker so neighbors can complete
    // the batches we are waiting for (they respond via the supply rule).
    for (std::uint32_t e = 0; e < tx_.size(); ++e) {
      enqueue_markers_upto(e, executed_);
    }
    if (buckets_ready()) execute_virtual_round(ctx);
  } else {
    // Supply rule: release withheld markers up to what each peer's own
    // traffic proves it has executed — it may be blocked on exactly those.
    for (std::uint32_t e = 0; e < tx_.size(); ++e) {
      enqueue_markers_upto(e, std::min(rx_[e].peer_exec, executed_));
    }
  }

  transmit(ctx, active);
}

bool ReliableAdapter::idle() const {
  if (!edges_ready_ || peer_ahead()) return false;
  for (std::uint32_t e = 0; e < tx_.size(); ++e) {
    if (down_[e] == 0 &&
        tx_[e].marker_enqueued < std::min(rx_[e].peer_exec, executed_)) {
      return false;
    }
  }
  return true;
}

bool ReliableAdapter::done() const {
  if (!inner_->done()) return false;
  if (!edges_ready_) return true;  // never scheduled; mirrors engine idle
  if (undelivered_data()) return false;
  for (std::uint32_t e = 0; e < tx_.size(); ++e) {
    if (down_[e] != 0) continue;  // ARQ toward a dead edge was canceled
    if (tx_[e].outstanding || !tx_[e].queue.empty()) return false;
  }
  return true;
}

EngineConfig::ProcessWrapper reliable_wrapper(ReliableConfig config) {
  return [config](NodeId, std::unique_ptr<Process> inner) {
    return std::make_unique<ReliableAdapter>(std::move(inner), config);
  };
}

void apply_reliable(EngineConfig& config, ReliableConfig rc) {
  config.process_wrapper = reliable_wrapper(rc);
  config.bandwidth_ids = std::max(config.bandwidth_ids, kReliableBandwidthIds);
}

}  // namespace dapsp::congest
