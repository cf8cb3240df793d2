#include "core/query.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <thread>

#include "graph/delta.h"

namespace dapsp::core {
namespace {

constexpr std::uint32_t kMaxQueryNodes = 1u << 20;
constexpr std::uint64_t kQueryFieldBytes = 32;  // body bytes before dist[]

}  // namespace

CheckpointError QuerySnapshot::parse(std::span<const std::uint8_t> blob,
                                     QuerySnapshot& q) noexcept {
  std::span<const std::uint8_t> body;
  const CheckpointError err = open_blob(blob, kQueryTag, body);
  if (err != CheckpointError::kNone) return err;
  std::span<const std::uint8_t> dom;
  try {
    ByteReader r(body, "DQRY body");
    q.n_ = r.u32();
    q.epoch_ = r.u64();
    q.sequence_ = r.u64();
    q.flags_ = r.u32();
    q.k_ = r.u32();
    q.dom_count_ = r.u32();
    if (q.n_ == 0 || q.n_ > kMaxQueryNodes ||
        (q.flags_ & ~(kQueryFlagLabels | kQueryFlagDegraded)) != 0 ||
        q.has_labels() != (q.dom_count_ != 0) || q.dom_count_ > q.n_) {
      return CheckpointError::kBadPayload;
    }
    const auto u32s = [&r](std::uint64_t count) {
      return reinterpret_cast<const std::uint32_t*>(r.take(count, 4).data());
    };
    q.dist_ = u32s(std::uint64_t{q.n_} * q.n_);
    q.hop_ = u32s(std::uint64_t{q.n_} * q.n_);
    dom = r.take(q.dom_count_, 4);
    q.dom_ = reinterpret_cast<const std::uint32_t*>(dom.data());
    q.labels_ = u32s(std::uint64_t{q.n_} * q.dom_count_);
    q.active_ = r.take(q.n_).data();
    q.status_ = r.take(q.n_).data();
    if (r.left() != 0) return CheckpointError::kBadPayload;
  } catch (const std::exception&) {
    return CheckpointError::kBadPayload;
  }
  // Field sanity: dominator ids in-universe, statuses in-enum, active mask
  // boolean.
  for (std::size_t i = 0; i < dom.size(); i += 4) {
    if (load_u32(dom.data() + i) >= q.n_) return CheckpointError::kBadPayload;
  }
  for (NodeId v = 0; v < q.n_; ++v) {
    if (q.active_[v] > 1 ||
        q.status_[v] > static_cast<std::uint8_t>(RowStatus::kStale)) {
      return CheckpointError::kBadPayload;
    }
  }
  q.bytes_ = blob;
  return CheckpointError::kNone;
}

CheckpointError classify_query_blob(
    std::span<const std::uint8_t> blob) noexcept {
  QuerySnapshot scratch;
  return QuerySnapshot::parse(blob, scratch);
}

namespace {

void throw_unless_none(CheckpointError err, const std::string& where) {
  if (err != CheckpointError::kNone) {
    throw std::runtime_error(std::string("QuerySnapshot: ") + to_string(err) +
                             " blob" + where);
  }
}

}  // namespace

QuerySnapshot QuerySnapshot::borrow(std::span<const std::uint8_t> blob) {
  QuerySnapshot snap;
  throw_unless_none(parse(blob, snap), "");
  return snap;
}

QuerySnapshot QuerySnapshot::from_blob(std::vector<std::uint8_t> bytes) {
  QuerySnapshot snap = borrow(bytes);
  snap.owned_ = std::move(bytes);  // moving keeps the buffer in place
  return snap;
}

QuerySnapshot QuerySnapshot::from_file(const std::string& path) {
  QuerySnapshot snap;
  snap.mapped_ = MappedBlob::map_file(path);
  throw_unless_none(parse(snap.mapped_.bytes(), snap), " at " + path);
  return snap;
}

QueryAnswer QuerySnapshot::p2p(NodeId from, NodeId to) const {
  if (from >= n_ || to >= n_) {
    throw std::invalid_argument("QuerySnapshot::p2p: node out of universe");
  }
  QueryAnswer q;
  if (active_[from] == 0 || active_[to] == 0) return q;
  q.active = true;
  const std::size_t idx = std::size_t{to} * n_ + from;
  q.dist = dist_[idx];
  q.next_hop = hop_[idx];
  q.status = status(to);
  return q;
}

void QuerySnapshot::p2p_batch(
    std::span<const std::pair<NodeId, NodeId>> pairs,
    std::vector<QueryAnswer>& out, WorkBudget* budget) const {
  out.clear();
  out.reserve(pairs.size());
  for (const auto& [from, to] : pairs) {
    // One cell per pair; an exhausted budget truncates the batch to the
    // answered prefix (out.size() < pairs.size()).
    if (budget != nullptr && budget->grant(1) == 0) return;
    out.push_back(p2p(from, to));
  }
}

namespace {

// How much of an n-cell row a query may scan: all of it without a budget,
// else what the budget grants. The answer stays exact over that prefix.
NodeId granted_cells(NodeId n, WorkBudget* budget) {
  return budget == nullptr ? n
                           : static_cast<NodeId>(std::min<std::uint64_t>(
                                 n, budget->grant(n)));
}

}  // namespace

KNearestAnswer QuerySnapshot::k_nearest(NodeId u, std::uint32_t k,
                                        WorkBudget* budget) const {
  if (u >= n_) {
    throw std::invalid_argument(
        "QuerySnapshot::k_nearest: node out of universe");
  }
  if (active_[u] == 0) return {};
  const NodeId scan = granted_cells(n_, budget);
  KNearestAnswer ans = k_nearest_in_row(u, k, dist_row(u).first(scan));
  ans.active = true;
  ans.status = status(u);
  if (scan < n_) {
    ans.truncated = true;
    ans.scanned = scan;
  }
  return ans;
}

KNearestAnswer QuerySnapshot::k_nearest_in_row(
    NodeId u, std::uint32_t k, std::span<const std::uint32_t> row) const {
  KNearestAnswer ans;
  if (k == 0) return ans;
  // A max-heap of the k best (dist, id) scanned so far, kept in the
  // answer's own storage: the scan allocates nothing else.
  const auto by_dist_then_id = [](const NearNeighbor& a,
                                  const NearNeighbor& b) {
    return a.dist != b.dist ? a.dist < b.dist : a.node < b.node;
  };
  std::vector<NearNeighbor>& heap = ans.nearest;
  const auto scan = static_cast<NodeId>(row.size());
  heap.reserve(std::min<std::size_t>(k, scan));
  for (NodeId v = 0; v < scan; ++v) {
    if (v == u || active_[v] == 0 || row[v] == kInfDist) continue;
    const NearNeighbor c{v, row[v]};
    if (heap.size() < k) {
      heap.push_back(c);
      std::ranges::push_heap(heap, by_dist_then_id);
    } else if (by_dist_then_id(c, heap.front())) {
      std::ranges::pop_heap(heap, by_dist_then_id);
      heap.back() = c;
      std::ranges::push_heap(heap, by_dist_then_id);
    }
  }
  std::ranges::sort_heap(heap, by_dist_then_id);
  return ans;
}

EccentricityAnswer QuerySnapshot::eccentricity(NodeId u,
                                               WorkBudget* budget) const {
  if (u >= n_) {
    throw std::invalid_argument(
        "QuerySnapshot::eccentricity: node out of universe");
  }
  if (active_[u] == 0) return {};
  const NodeId scan = granted_cells(n_, budget);
  EccentricityAnswer ans = eccentricity_in_row(u, dist_row(u).first(scan));
  ans.active = true;
  ans.status = status(u);
  if (scan < n_) {
    ans.truncated = true;
    ans.scanned = scan;
  }
  return ans;
}

EccentricityAnswer QuerySnapshot::eccentricity_in_row(
    NodeId u, std::span<const std::uint32_t> row) const {
  EccentricityAnswer ans;
  const auto scan = static_cast<NodeId>(row.size());
  for (NodeId v = 0; v < scan; ++v) {
    if (active_[v] == 0) continue;
    if (row[v] == kInfDist) {
      if (v != u) ++ans.unreachable;
      continue;
    }
    if (row[v] > ans.ecc) {
      ans.ecc = row[v];
      ans.farthest = v;
    }
  }
  if (ans.farthest == kNoNextHop) ans.farthest = u;  // isolated-in-component
  return ans;
}

std::uint32_t QuerySnapshot::label_estimate(NodeId u, NodeId v) const {
  if (u >= n_ || v >= n_) {
    throw std::invalid_argument(
        "QuerySnapshot::label_estimate: node out of universe");
  }
  if (!has_labels()) {
    throw std::logic_error(
        "QuerySnapshot::label_estimate: snapshot has no label section");
  }
  if (u == v) return 0;
  return DistanceLabeling::combine(label_row(u), label_row(v));
}

// ---- Encoders ------------------------------------------------------------

namespace {

std::uint32_t dom_count_of(const DistanceLabeling* labels, std::uint32_t n) {
  if (labels == nullptr) return 0;
  const auto dom_count =
      static_cast<std::uint32_t>(labels->dominators().size());
  if (dom_count == 0 || dom_count > n) {
    throw std::invalid_argument(
        "encode_query_snapshot: label section does not match universe");
  }
  return dom_count;
}

// The one DQRY body writer. `tables(w)` writes the dist then the next_hop
// table, n*n cells each, in DQRY row order (row s = every node's entry
// toward s).
template <class Tables>
void write_query_blob(std::span<std::uint8_t> blob, std::uint32_t n,
                      const Tables& tables,
                      std::span<const std::uint8_t> active,
                      std::span<const RowStatus> status, std::uint64_t epoch,
                      std::uint64_t sequence, bool degraded,
                      const DistanceLabeling* labels) {
  if (n == 0) {
    throw std::invalid_argument("encode_query_snapshot: empty universe");
  }
  if (active.size() != n || status.size() != n) {
    throw std::invalid_argument(
        "encode_query_snapshot: active/status size mismatch");
  }
  const std::uint32_t dom_count = dom_count_of(labels, n);
  ByteWriter w = begin_blob(blob, kQueryTag);
  w.u32(n);
  w.u64(epoch);
  w.u64(sequence);
  w.u32((degraded ? kQueryFlagDegraded : 0u) |
        (labels != nullptr ? kQueryFlagLabels : 0u));
  w.u32(labels != nullptr ? labels->k() : 0u);
  w.u32(dom_count);
  tables(w);
  if (labels != nullptr) {
    w.u32s(labels->dominators());
    for (std::uint32_t v = 0; v < n; ++v) w.u32s(labels->label(v));
  }
  for (std::uint32_t v = 0; v < n; ++v) w.u8(active[v] != 0 ? 1 : 0);
  for (std::uint32_t v = 0; v < n; ++v) {
    w.u8(static_cast<std::uint8_t>(status[v]));
  }
  seal_blob(blob, w);
}

std::vector<std::uint8_t> blob_for(NodeId n, const DistanceLabeling* labels) {
  return std::vector<std::uint8_t>(
      query_blob_size(n, dom_count_of(labels, n)));
}

}  // namespace

std::uint64_t query_blob_size(NodeId n, std::uint32_t dom_count) {
  const std::uint64_t n64 = n;
  return framed_size(kQueryFieldBytes + 8 * n64 * n64 + 4 * dom_count +
                     4 * n64 * dom_count + 2 * n64);
}

std::vector<std::uint8_t> encode_query_snapshot_tables(
    const DistanceMatrix& dist,
    const std::vector<std::vector<NodeId>>* next_hop,
    std::span<const std::uint8_t> active, std::span<const RowStatus> status,
    std::uint64_t epoch, std::uint64_t sequence, bool degraded,
    const DistanceLabeling* labels) {
  const NodeId n = dist.n();
  std::vector<std::uint8_t> out = blob_for(n, labels);
  // Transposes the node-major tables into DQRY row order.
  const auto table = [n](ByteWriter& w, const auto& cell) {
    for (NodeId s = 0; s < n; ++s) {
      std::uint8_t* row = w.take(4 * std::size_t{n}).data();
      for (NodeId v = 0; v < n; ++v) store_u32(row + 4 * v, cell(v, s));
    }
  };
  write_query_blob(
      out, n,
      [&](ByteWriter& w) {
        table(w, [&](NodeId v, NodeId s) { return dist.at(v, s); });
        table(w, [&](NodeId v, NodeId s) {
          return next_hop != nullptr ? (*next_hop)[v][s] : kNoNextHop;
        });
      },
      active, status, epoch, sequence, degraded, labels);
  return out;
}

void encode_query_snapshot(std::span<std::uint8_t> out,
                           const DapspService& svc, std::uint64_t sequence,
                           bool degraded, const DistanceLabeling* labels) {
  write_query_blob(
      out, svc.dynamic_graph().universe(),
      [&](ByteWriter& w) {
        w.u32s(svc.served_dist().cells());
        w.u32s(svc.served_next_hop().cells());
      },
      svc.dynamic_graph().active_mask(), svc.row_statuses(), svc.epoch(),
      sequence, degraded, labels);
}

std::vector<std::uint8_t> encode_query_snapshot(
    const DapspService& svc, std::uint64_t sequence, bool degraded,
    const DistanceLabeling* labels) {
  std::vector<std::uint8_t> out =
      blob_for(svc.dynamic_graph().universe(), labels);
  encode_query_snapshot(out, svc, sequence, degraded, labels);
  return out;
}

// ---- SnapshotStore -------------------------------------------------------

SnapshotStore::~SnapshotStore() {
  // Readers are required to be gone; drop everything unconditionally.
  std::lock_guard<std::mutex> lk(retire_mu_);
  retired_.clear();
  current_owner_.reset();
}

void SnapshotStore::publish(std::unique_ptr<const QuerySnapshot> snap) {
  if (snap == nullptr) {
    throw std::invalid_argument("SnapshotStore::publish: null snapshot");
  }
  std::lock_guard<std::mutex> lk(retire_mu_);
  const QuerySnapshot* raw = snap.get();
  const QuerySnapshot* old = current_.exchange(raw, std::memory_order_seq_cst);
  // The epoch value during which `old` was last current: readers pinned at
  // an epoch <= this may still hold it.
  const std::uint64_t retire_epoch =
      epoch_.fetch_add(1, std::memory_order_seq_cst);
  if (old != nullptr) {
    retired_.push_back({std::move(current_owner_), retire_epoch});
  }
  current_owner_ = std::move(snap);
  swaps_.fetch_add(1, std::memory_order_relaxed);
  reclaim_locked();
}

void SnapshotStore::reclaim_locked() {
  std::uint64_t min_pin = kSlotIdle;
  for (const Slot& slot : slots_) {
    if (slot.claimed.load(std::memory_order_seq_cst) == 0) continue;
    min_pin = std::min(min_pin, slot.pin.load(std::memory_order_seq_cst));
  }
  // A snapshot retired at epoch r can be referenced only by a reader whose
  // pinned epoch is <= r, so it is free to reclaim once r < min_pin.
  std::erase_if(retired_, [min_pin](const Retired& r) {
    return r.retire_epoch < min_pin;
  });
}

std::size_t SnapshotStore::retired_pending() const {
  std::lock_guard<std::mutex> lk(retire_mu_);
  return retired_.size();
}

SnapshotReader::SnapshotReader(SnapshotStore& store, std::uint32_t max_spins)
    : store_(&store) {
  // Bounded spin-yield: a full claim sweep, then yield and retry. A burst of
  // short-lived readers cycling slots resolves within a few yields — only a
  // genuine reader leak (kMaxSnapshotReaders live readers) exhausts the
  // budget and throws. The slots_exhausted metric counts contended
  // constructions (once each, on the first failed sweep), not spins, so it
  // reads as "registrations that hit saturation".
  for (std::uint32_t spin = 0;; ++spin) {
    for (std::size_t i = 0; i < kMaxSnapshotReaders; ++i) {
      std::uint8_t expect = 0;
      if (store_->slots_[i].claimed.compare_exchange_strong(
              expect, 1, std::memory_order_seq_cst)) {
        slot_ = i;
        store_->slots_[i].pin.store(SnapshotStore::kSlotIdle,
                                    std::memory_order_seq_cst);
        return;
      }
    }
    if (spin == 0) {
      store_->slots_exhausted_.fetch_add(1, std::memory_order_relaxed);
    }
    if (spin >= max_spins) {
      throw std::runtime_error(
          "SnapshotReader: all reader slots claimed (spin budget exhausted)");
    }
    std::this_thread::yield();
  }
}

SnapshotReader::~SnapshotReader() {
  store_->slots_[slot_].pin.store(SnapshotStore::kSlotIdle,
                                  std::memory_order_seq_cst);
  store_->slots_[slot_].claimed.store(0, std::memory_order_seq_cst);
}

SnapshotRef SnapshotReader::acquire() {
  SnapshotStore::Slot& slot = store_->slots_[slot_];
  // Announce-then-verify: publish the epoch we intend to pin, then re-read.
  // Once the announced value is a current-or-earlier epoch that the writer
  // is guaranteed to observe before freeing anything retired at or after
  // it, the subsequent pointer load is protected. One iteration suffices in
  // the common case; the loop only spins while publishes race past us.
  std::uint64_t e = store_->epoch_.load(std::memory_order_seq_cst);
  for (;;) {
    slot.pin.store(e, std::memory_order_seq_cst);
    const std::uint64_t now = store_->epoch_.load(std::memory_order_seq_cst);
    if (now == e) break;
    e = now;
  }
  const QuerySnapshot* snap = store_->current_.load(std::memory_order_seq_cst);
  if (snap == nullptr) {
    slot.pin.store(SnapshotStore::kSlotIdle, std::memory_order_seq_cst);
    return {};
  }
  return SnapshotRef(store_, slot_, snap);
}

SnapshotRef& SnapshotRef::operator=(SnapshotRef&& other) noexcept {
  if (this != &other) {
    release();
    store_ = other.store_;
    slot_ = other.slot_;
    snap_ = other.snap_;
    other.store_ = nullptr;
    other.snap_ = nullptr;
  }
  return *this;
}

void SnapshotRef::release() noexcept {
  if (store_ != nullptr) {
    store_->slots_[slot_].pin.store(SnapshotStore::kSlotIdle,
                                    std::memory_order_seq_cst);
    store_ = nullptr;
    snap_ = nullptr;
  }
}

void ServingPublisher::on_snapshot(const DapspService& svc, bool degraded) {
  std::vector<std::uint8_t> blob =
      encode_query_snapshot(svc, sequence_++, degraded);
  store_->publish(std::make_unique<const QuerySnapshot>(
      QuerySnapshot::from_blob(std::move(blob))));
}

// ---- LabelCache ----------------------------------------------------------

std::span<const std::uint32_t> LabelCache::row(const QuerySnapshot& snap,
                                               NodeId u) {
  if (!snap.has_labels()) {
    throw std::logic_error("LabelCache::row: snapshot has no label section");
  }
  ++tick_;
  for (Entry& e : entries_) {
    if (e.sequence == snap.sequence() && e.source == u) {
      e.last_used = tick_;
      ++hits_;
      return e.row;
    }
  }
  ++misses_;
  std::vector<std::uint32_t> row(snap.n(), kInfDist);
  const std::span<const std::uint32_t> lu = snap.label_row(u);
  for (NodeId v = 0; v < snap.n(); ++v) {
    row[v] = v == u ? 0 : DistanceLabeling::combine(lu, snap.label_row(v));
  }
  if (capacity_ == 0) {  // caching disabled: compute-only path
    scratch_ = std::move(row);
    return scratch_;
  }
  if (entries_.size() >= capacity_) {
    auto victim = std::min_element(
        entries_.begin(), entries_.end(),
        [](const Entry& a, const Entry& b) { return a.last_used < b.last_used; });
    entries_.erase(victim);
  }
  entries_.push_back({snap.sequence(), u, tick_, std::move(row)});
  return entries_.back().row;
}

std::uint32_t LabelCache::estimate(const QuerySnapshot& snap, NodeId u,
                                   NodeId v) {
  if (v >= snap.n()) {
    throw std::invalid_argument("LabelCache::estimate: node out of universe");
  }
  return row(snap, u)[v];
}

}  // namespace dapsp::core
