// A deliberately naive serial reference model of the CONGEST engine.
//
// tests/test_engine_equivalence.cc runs the flat-memory production engine
// (src/congest/engine.cc, DESIGN.md §16) differentially against this model
// over randomized graphs, fault plans and thread counts. The two
// implementations share only the public contracts they both must honor —
// Process/RoundCtx, FaultPlan/FaultInjector (the per-(node, round) decision
// streams ARE the specification of fault determinism) and the documented
// wire-bit layout — and none of the production engine's machinery: no
// arenas, no CSR mirror table, no sharding, no double-buffered frames. Every
// container here is the textbook per-node vector-of-vectors the flat engine
// replaced, so a bug in the flat layout (stale arena span, mis-scattered
// segment, wrong mirror index) shows up as a divergence, not as a shared
// blind spot.
//
// The model reproduces, exactly:
//   * delivery order (ascending sender, then send order; delayed copies
//     after all normal deliveries of their round, in queue order);
//   * bandwidth/field-width accounting, including the error strings and the
//     smallest-node / accounting-supersedes-phase-A error selection;
//   * every RunStats counter, fault fates drawn from the same streams, and
//     crash/stall inbox-drop accounting;
//   * the send stream: when EngineConfig::trace is set, one kSend event per
//     accounted send (round-major, sender-major, send order), including the
//     sends of a round that fails.
//
// It steps every live node in every round, and so audits the wake contract
// (Process::wake_round) that lets the production engine skip nodes: a step
// the contract allows skipping — empty inbox, wake_round(round) > round —
// must send nothing, report no suspect, and leave done() and the hint
// unchanged, or the step throws std::logic_error naming node and round.
//
// Not reproduced (compare via the production engine's own thread-count
// determinism instead): the trace's other event kinds and EngineMetrics.
#pragma once

#include <algorithm>
#include <cstdint>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <span>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "congest/engine.h"
#include "congest/faults.h"
#include "congest/trace.h"
#include "graph/graph.h"
#include "util/bits.h"
#include "util/rng.h"

namespace dapsp::testing {

class ReferenceEngine {
 public:
  ReferenceEngine(const Graph& g, congest::EngineConfig config)
      : graph_(&g), config_(std::move(config)) {
    const NodeId n = g.num_nodes();
    if (n == 0) throw std::invalid_argument("ReferenceEngine: empty graph");
    value_bits_ = static_cast<std::uint32_t>(
        bits_for(std::max<std::uint64_t>(2 * std::uint64_t{n}, 255)));
    bandwidth_bits_ = static_cast<std::uint32_t>(congest::kTagBits) +
                      config_.bandwidth_ids * value_bits_;
    max_rounds_ = config_.max_rounds != 0 ? config_.max_rounds
                                          : 64 * std::uint64_t{n} + 1024;
    edge_offsets_.resize(n + 1, 0);
    for (NodeId v = 0; v < n; ++v) {
      edge_offsets_[v + 1] = edge_offsets_[v] + g.degree(v);
    }
    if (config_.faults) {
      faults_ = std::make_unique<congest::FaultInjector>(g, *config_.faults);
    }
  }

  void init(
      const std::function<std::unique_ptr<congest::Process>(NodeId)>& factory) {
    const NodeId n = graph_->num_nodes();
    processes_.clear();
    for (NodeId v = 0; v < n; ++v) {
      auto p = factory(v);
      if (config_.process_wrapper) p = config_.process_wrapper(v, std::move(p));
      processes_.push_back(std::move(p));
    }
    round_ = 0;
    stats_ = congest::RunStats{};
    stats_.bandwidth_bits = bandwidth_bits_;
    inboxes_.assign(n, {});
    pending_messages_ = 0;
    delayed_.clear();
    delayed_pending_ = 0;
    crashed_.assign(n, 0);
    apply_crashes();
  }

  congest::RunStats run() {
    while (!quiescent()) step();
    return stats_;
  }

  congest::Outcome run_bounded() {
    congest::Outcome out;
    try {
      out.stats = run();
      if (out.stats.nodes_crashed > 0 || out.stats.neighbors_suspected > 0) {
        out.status = congest::RunStatus::kDegraded;
        out.message = "terminated degraded: crashed=" +
                      std::to_string(out.stats.nodes_crashed) +
                      " neighbors_suspected=" +
                      std::to_string(out.stats.neighbors_suspected);
      } else {
        out.status = congest::RunStatus::kCompleted;
      }
    } catch (const congest::RoundLimitError& e) {
      out.status = congest::RunStatus::kRoundLimit;
      out.stats = stats_;
      out.message = e.what();
    } catch (const congest::CongestionError& e) {
      out.status = congest::RunStatus::kCongestion;
      out.stats = stats_;
      out.message = e.what();
    }
    return out;
  }

  congest::Process& process(NodeId v) { return *processes_[v]; }
  bool crashed(NodeId v) const { return crashed_[v] != 0; }
  std::uint64_t current_round() const { return round_; }

 private:
  struct Pending {
    std::uint32_t neighbor_index;
    congest::Message msg;
  };

  class Ctx final : public congest::RoundCtx {
   public:
    Ctx(ReferenceEngine& eng, NodeId id) : RoundCtx(id), eng_(eng) {}
    NodeId n() const noexcept override { return eng_.graph_->num_nodes(); }
    std::uint64_t round() const noexcept override { return eng_.round_; }
    std::uint32_t degree() const noexcept override {
      return eng_.graph_->degree(id_);
    }
    NodeId neighbor(std::uint32_t index) const override {
      return eng_.graph_->neighbors(id_)[index];
    }
    std::span<const congest::Received> inbox() const noexcept override {
      return eng_.inboxes_[id_];
    }
    void send(std::uint32_t index, const congest::Message& m) override {
      if (index >= degree()) {
        throw std::out_of_range("send: bad neighbor index");
      }
      eng_.outbox_.push_back(Pending{index, m});
    }
    void note_neighbor_suspected(std::uint32_t) override {
      ++eng_.stats_.neighbors_suspected;
    }

   private:
    ReferenceEngine& eng_;
  };
  friend class Ctx;

  // The documented wire-bit layout (congest/faults.h FaultDecision): bits
  // 0..kTagBits-1 are the kind, then num_fields fields of value_bits each.
  static congest::Message corrupt(congest::Message m, std::uint32_t bit,
                                  std::uint32_t value_bits) {
    if (bit < static_cast<std::uint32_t>(congest::kTagBits)) {
      m.kind = static_cast<std::uint8_t>(m.kind ^ (1u << bit));
    } else {
      const std::uint32_t i = (bit - congest::kTagBits) / value_bits;
      const std::uint32_t j = (bit - congest::kTagBits) % value_bits;
      m.f[i] ^= (1u << j);
    }
    return m;
  }

  void step() {
    if (round_ >= max_rounds_) {
      throw congest::RoundLimitError("round limit exceeded (" +
                                     std::to_string(max_rounds_) +
                                     " rounds); protocol livelock?");
    }
    const NodeId n = graph_->num_nodes();
    std::vector<std::vector<congest::Received>> next(n);
    bool failed = false;
    NodeId failed_node = 0;
    std::exception_ptr error;
    // Per-(directed edge, round) loads, rebuilt from scratch each round.
    std::map<std::size_t, std::pair<std::uint64_t, std::uint64_t>> edge_load;

    for (NodeId v = 0; v < n; ++v) {
      if (crashed_[v] != 0) continue;
      if (faults_ && faults_->stalled(v, round_)) {
        stats_.messages_dropped += inboxes_[v].size();
        ++stats_.node_stall_rounds;
        continue;
      }
      outbox_.clear();
      Ctx ctx(*this, v);
      congest::Process& p = *processes_[v];
      const std::uint64_t wake = p.wake_round(round_);
      const bool skippable = inboxes_[v].empty() && wake > round_;
      const bool was_done = p.done();
      const std::uint64_t suspected = stats_.neighbors_suspected;
      bool threw = false;
      try {
        p.on_round(ctx);
      } catch (...) {
        threw = true;
        if (!failed) {
          failed = true;
          failed_node = v;
          error = std::current_exception();
        }
      }
      if (skippable && !threw) audit_skippable(v, wake, was_done, suspected);
      // Accounting: an error reported here supersedes a phase-A failure of
      // the same node, never an earlier node's.
      const auto fail = [&](std::string text) {
        if (failed && failed_node != v) return;
        failed = true;
        failed_node = v;
        error = std::make_exception_ptr(
            congest::CongestionError(std::move(text)));
      };
      const auto nbrs = graph_->neighbors(v);
      Rng stream = faults_ ? faults_->stream(v, round_) : Rng(0);
      std::uint64_t node_bits = 0;
      for (const Pending& ps : outbox_) {
        const congest::Message& m = ps.msg;
        bool bad_field = false;
        for (int i = 0; i < m.num_fields; ++i) {
          if (std::uint64_t{m.f[static_cast<std::size_t>(i)]} >> value_bits_) {
            fail("message field exceeds value width: " + m.debug_string());
            bad_field = true;
            break;
          }
        }
        if (bad_field) break;
        const NodeId to = nbrs[ps.neighbor_index];
        const std::size_t edge = edge_offsets_[v] + ps.neighbor_index;
        const std::uint32_t cost = m.bit_cost(value_bits_);
        auto& [bits, msgs] = edge_load[edge];
        bits += cost;
        msgs += 1;
        if (config_.enforce_bandwidth && bits > bandwidth_bits_) {
          fail("bandwidth exceeded on edge " + std::to_string(v) + "->" +
               std::to_string(to) + " in round " + std::to_string(round_) +
               ": " + std::to_string(bits) + " > B=" +
               std::to_string(bandwidth_bits_) + " bits (last: " +
               m.debug_string() + ")");
          break;
        }
        stats_.max_edge_bits = std::max(stats_.max_edge_bits, bits);
        stats_.max_edge_messages = std::max(stats_.max_edge_messages, msgs);
        node_bits += cost;
        stats_.max_node_bits = std::max(stats_.max_node_bits, node_bits);
        stats_.messages += 1;
        stats_.total_bits += cost;
        if (config_.trace != nullptr) {
          config_.trace->append({congest::TraceEventKind::kSend, v, to, round_,
                                 0, m});
        }
        const congest::Received rec{*graph_->neighbor_index(to, v), m};
        if (faults_) {
          if (faults_->link_down(edge, round_)) {
            ++stats_.messages_dropped;
            continue;
          }
          const congest::FaultDecision d = faults_->decide(stream, edge, cost);
          if (d.dropped) {
            ++stats_.messages_dropped;
            continue;
          }
          if (d.copies > 1) ++stats_.messages_duplicated;
          for (std::uint32_t c = 0; c < d.copies; ++c) {
            if (d.extra_delay[c] != 0) ++stats_.messages_delayed;
            congest::Received copy = rec;
            if (d.corrupt_bit[c] != congest::kNoCorruption) {
              copy.msg = corrupt(copy.msg, d.corrupt_bit[c], value_bits_);
              ++stats_.messages_corrupted;
            }
            if (d.extra_delay[c] == 0) {
              next[to].push_back(copy);
            } else {
              delayed_[round_ + 1 + d.extra_delay[c]].push_back({to, copy});
              ++delayed_pending_;
            }
          }
          continue;
        }
        next[to].push_back(rec);
      }
    }
    // The failing round's deliveries are never applied (the production
    // engine throws before its deliver phase), but its accounting stands.
    if (failed) std::rethrow_exception(error);

    inboxes_ = std::move(next);
    pending_messages_ = 0;
    for (NodeId v = 0; v < n; ++v) pending_messages_ += inboxes_[v].size();
    ++round_;
    stats_.rounds = round_;
    if (faults_) {
      const auto due = delayed_.find(round_);
      if (due != delayed_.end()) {
        for (auto& [to, rec] : due->second) {
          --delayed_pending_;
          inboxes_[to].push_back(rec);
          ++pending_messages_;
        }
        delayed_.erase(due);
      }
      apply_crashes();
    }
  }

  // The wake contract for a step the production engine may skip.
  void audit_skippable(NodeId v, std::uint64_t wake, bool was_done,
                       std::uint64_t suspected) const {
    const congest::Process& p = *processes_[v];
    const auto where = [&] {
      return "node " + std::to_string(v) + " in round " +
             std::to_string(round_);
    };
    if (!outbox_.empty() || stats_.neighbors_suspected != suspected) {
      throw std::logic_error("wake contract broken: " + where() +
                             " may be skipped, but stepping it sends");
    }
    if (p.done() != was_done || p.wake_round(round_ + 1) != wake) {
      throw std::logic_error("wake contract broken: " + where() +
                             " may be skipped, but stepping it changes "
                             "done() or wake_round()");
    }
  }

  void apply_crashes() {
    if (!faults_) return;
    const NodeId n = graph_->num_nodes();
    for (NodeId v = 0; v < n; ++v) {
      if (crashed_[v] == 0 && faults_->crashed(v, round_)) {
        crashed_[v] = 1;
        ++stats_.nodes_crashed;
      }
      if (crashed_[v] != 0 && !inboxes_[v].empty()) {
        stats_.messages_dropped += inboxes_[v].size();
        pending_messages_ -= inboxes_[v].size();
        inboxes_[v].clear();
      }
    }
  }

  bool quiescent() const {
    if (pending_messages_ > 0 || delayed_pending_ > 0) return false;
    const NodeId n = graph_->num_nodes();
    for (NodeId v = 0; v < n; ++v) {
      if (crashed_[v] == 0 && !processes_[v]->done()) return false;
    }
    return true;
  }

  const Graph* graph_;
  congest::EngineConfig config_;
  std::uint32_t value_bits_ = 0;
  std::uint32_t bandwidth_bits_ = 0;
  std::uint64_t max_rounds_ = 0;
  std::vector<std::size_t> edge_offsets_;
  std::unique_ptr<congest::FaultInjector> faults_;

  std::vector<std::unique_ptr<congest::Process>> processes_;
  std::vector<std::vector<congest::Received>> inboxes_;
  std::vector<Pending> outbox_;  // the node currently executing
  std::uint64_t pending_messages_ = 0;
  // Future deliveries keyed by absolute delivery round (insertion order
  // within a round matches the production engine's ring-slot push order).
  std::map<std::uint64_t, std::vector<std::pair<NodeId, congest::Received>>>
      delayed_;
  std::uint64_t delayed_pending_ = 0;
  std::vector<std::uint8_t> crashed_;
  std::uint64_t round_ = 0;
  congest::RunStats stats_;
};

}  // namespace dapsp::testing
