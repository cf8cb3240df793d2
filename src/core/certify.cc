#include "core/certify.h"

#include <algorithm>
#include <stdexcept>
#include <utility>

#include "congest/message.h"
#include "core/primitives/bfs_process.h"

namespace dapsp::core {

const char* to_string(RowCoverage c) noexcept {
  switch (c) {
    case RowCoverage::kLost:
      return "lost";
    case RowCoverage::kPartial:
      return "partial";
    case RowCoverage::kComplete:
      return "complete";
  }
  return "?";
}

std::vector<RowCoverage> classify_coverage(
    std::span<const std::uint8_t> survived, std::span<const NodeId> sources,
    const DistEntryFn& entry) {
  const NodeId n = static_cast<NodeId>(survived.size());
  std::size_t survivors = 0;
  for (std::uint8_t s : survived) survivors += s != 0;

  std::vector<RowCoverage> out;
  out.reserve(sources.size());
  for (const NodeId s : sources) {
    if (s >= n) {
      throw std::invalid_argument("classify_coverage: source out of range");
    }
    std::size_t finite = 0;
    for (NodeId v = 0; v < n; ++v) {
      if (survived[v] != 0 && entry(v, s) != kInfDist) ++finite;
    }
    if (finite == survivors) {
      out.push_back(RowCoverage::kComplete);
    } else if (finite <= (survived[s] != 0 ? std::size_t{1} : std::size_t{0})) {
      // Only the source's own trivial 0 (or nothing at all) survives.
      out.push_back(RowCoverage::kLost);
    } else {
      out.push_back(RowCoverage::kPartial);
    }
  }
  return out;
}

namespace {

// One row a node takes part in: it broadcasts its value for row k in round
// 2k when it ships the row, and checks the row in round 2k+1 when it judges
// it.
struct RowPart {
  std::uint32_t k;
  bool ship;
  bool judge;
};

// One node of the distributed verifier. Round 2k: broadcast (k, value) for
// row k. Round 2k+1: judge row k against the neighborhood broadcast of the
// previous round. Dead nodes never run (crash-stopped at round 0), so their
// entries are neither offered nor demanded. With a scope (`view` set), a
// neighbor that did not ship the row is judged by the entry it last
// shipped, read through `view`.
class CertifyProcess final : public congest::Process {
 public:
  // Without a scope (`view` false) the node ships and judges every row and
  // `rows` is empty.
  CertifyProcess(NodeId id, std::span<const NodeId> sources,
                 std::vector<RowPart> rows, const DistEntryFn& entry,
                 std::span<const std::uint8_t> survived, bool view)
      : id_(id),
        sources_(sources),
        rows_(std::move(rows)),
        entry_(entry),
        survived_(survived),
        view_(view) {
    values_.reserve(count());
    for (std::size_t i = 0; i < count(); ++i) {
      values_.push_back(entry(id, sources_[part(i).k]));
    }
    row_ok_.assign(sources_.size(), 1);
  }

  void on_round(congest::RoundCtx& ctx) override {
    if (next_ == count()) return;
    const RowPart p = part(next_);
    if (ctx.round() == 2 * std::uint64_t{p.k}) {
      if (!p.ship) return;
      const std::uint32_t inf = congest::wire_infinity(ctx.n());
      const std::uint32_t w =
          values_[next_] == kInfDist ? inf : std::min(values_[next_], inf);
      ctx.send_all(congest::Message::make(kCertValue, p.k, w));
    } else if (ctx.round() == 2 * std::uint64_t{p.k} + 1) {
      if (p.judge) judge_row(ctx, p.k, values_[next_]);
      ++next_;
    }
  }

  bool done() const override { return next_ == count(); }

  std::span<const std::uint8_t> row_ok() const noexcept { return row_ok_; }
  std::uint64_t checks_failed() const noexcept { return checks_failed_; }

 private:
  static constexpr std::uint32_t kAbsent = 0xfffffffeu;

  std::size_t count() const { return view_ ? rows_.size() : sources_.size(); }
  RowPart part(std::size_t i) const {
    return view_ ? rows_[i]
                 : RowPart{static_cast<std::uint32_t>(i), true, true};
  }

  void fail(std::uint32_t k) {
    row_ok_[k] = 0;
    ++checks_failed_;
  }

  void judge_row(congest::RoundCtx& ctx, std::uint32_t k, std::uint32_t d) {
    const std::uint32_t inf = congest::wire_infinity(ctx.n());
    const NodeId s = sources_[k];
    // Surviving neighbors' values, decoded; crashed neighbors stay kAbsent
    // (they sent nothing and are not part of the surviving subgraph).
    nbr_.assign(ctx.degree(), kAbsent);
    for (const congest::Received& r : ctx.inbox()) {
      if (r.msg.kind != kCertValue || r.msg.f[0] != k) continue;
      nbr_[r.from_index] = r.msg.f[1] == inf ? kInfDist : r.msg.f[1];
    }
    if (view_) {
      for (std::uint32_t i = 0; i < nbr_.size(); ++i) {
        const NodeId u = ctx.neighbor(i);
        if (nbr_[i] == kAbsent && survived_[u] != 0) nbr_[i] = entry_(u, s);
      }
    }

    // (a) the source is the unique zero.
    if (id_ == s && d != 0) fail(k);
    if (id_ != s && d == 0) fail(k);
    // (b) 1-Lipschitz across every surviving edge; a finite/infinite
    // boundary is a violation (BFS reaches across edges).
    bool witness = false;
    for (const std::uint32_t du : nbr_) {
      if (du == kAbsent) continue;
      const bool fin_v = d != kInfDist;
      const bool fin_u = du != kInfDist;
      if (fin_v != fin_u) {
        fail(k);
        continue;
      }
      if (fin_v && fin_u) {
        if (d > du + 1 || du > d + 1) fail(k);
        if (du + 1 == d) witness = true;
      }
    }
    // (c) every finite non-source needs a neighbor one step closer.
    if (id_ != s && d != kInfDist && d != 0 && !witness) fail(k);
  }

  NodeId id_;
  std::span<const NodeId> sources_;
  std::vector<RowPart> rows_;
  const DistEntryFn& entry_;
  std::span<const std::uint8_t> survived_;
  bool view_;
  std::vector<std::uint32_t> values_;  // one per row taken part in
  std::vector<std::uint8_t> row_ok_;
  std::vector<std::uint32_t> nbr_;
  std::uint64_t checks_failed_ = 0;
  std::size_t next_ = 0;  // first row taken part in not yet judged
};

}  // namespace

CertifyReport certify_rows(const Graph& g,
                           std::span<const std::uint8_t> survived,
                           std::span<const NodeId> sources,
                           const DistEntryFn& entry,
                           const CertifyOptions& options) {
  const NodeId n = g.num_nodes();
  if (survived.size() != n) {
    throw std::invalid_argument("certify_rows: survived must have one entry "
                                "per node");
  }
  for (const NodeId s : sources) {
    if (s >= n) throw std::invalid_argument("certify_rows: source out of range");
  }

  CertifyReport report;
  report.certified.assign(sources.size(), 1);
  if (sources.empty()) return report;

  congest::EngineConfig cfg = options.engine;
  congest::FaultPlan plan = cfg.faults.value_or(congest::FaultPlan{});
  for (NodeId v = 0; v < n; ++v) {
    if (survived[v] == 0) plan.crashes.push_back({v, 0});
  }
  if (!plan.crashes.empty()) cfg.faults = plan;

  // Who takes part in which row. Without a scope every survivor ships and
  // judges every row; with one, shipped[k] broadcast row k and scope[k]
  // judge it.
  std::vector<std::vector<RowPart>> parts(n);
  const auto k_count = static_cast<std::uint32_t>(sources.size());
  const bool scoped = !options.scope.empty();
  if (scoped) {
    if (options.scope.size() != sources.size() ||
        options.shipped.size() != sources.size()) {
      throw std::invalid_argument(
          "certify_rows: scope and shipped need one entry per source");
    }
    const auto part = [&](NodeId v, std::uint32_t k) -> RowPart& {
      if (v >= n) {
        throw std::invalid_argument("certify_rows: node out of range");
      }
      if (parts[v].empty() || parts[v].back().k != k) {
        parts[v].push_back({k, false, false});
      }
      return parts[v].back();
    };
    for (std::uint32_t k = 0; k < k_count; ++k) {
      for (const NodeId v : options.shipped[k]) part(v, k).ship = true;
      for (const NodeId v : options.scope[k]) part(v, k).judge = true;
    }
  }

  congest::Engine engine(g, cfg);
  engine.init([&](NodeId v) {
    return std::make_unique<CertifyProcess>(v, sources, std::move(parts[v]),
                                            entry, survived, scoped);
  });
  report.stats = engine.run();

  for (NodeId v = 0; v < n; ++v) {
    if (survived[v] == 0) continue;
    const auto& p = engine.process_as<CertifyProcess>(v);
    report.checks_failed += p.checks_failed();
    const auto ok = p.row_ok();
    for (std::size_t k = 0; k < ok.size(); ++k) {
      if (ok[k] == 0) report.certified[k] = 0;
    }
  }
  for (const std::uint8_t c : report.certified) report.rows_certified += c;
  return report;
}

}  // namespace dapsp::core
