// Query serving tier: immutable DQRY snapshots, lock-free snapshot swap,
// batched distance queries (DESIGN.md §17, ROADMAP item 3).
//
// The service layer (core/service.h) keeps APSP tables certified under
// churn; this module is the consumer story. Three pieces:
//
//   * DQRY snapshot blobs — an immutable serialization of the service's
//     served tables in the shared blob frame of util/blob.h (which defines
//     the header, checksum and failure taxonomy). Blobs are mmap-able: the
//     table pointers of a file-backed QuerySnapshot read straight off the
//     page cache. Body (all little-endian, starting at blob offset 16):
//       u32 n | u64 epoch | u64 sequence | u32 flags | u32 k | u32 dom_count
//       | u32 dist[n*n]      dist[s*n + v] = served d(v, s)
//       | u32 next_hop[n*n]  next_hop[s*n + v] = v's hop toward s
//       | u32 dom[dom_count] | u32 labels[n*dom_count]   (iff flags bit 0)
//       | u8 active[n] | u8 status[n]
//     The tables start at blob offset 48, so their u32 views stay aligned.
//     Row s carries the served distances *to* source s for every node, so
//     every query kind scans one contiguous row and inherits exactly that
//     row's status — the same per-row freshness contract DapspService::query
//     exposes. flags bit 0 = label section present, bit 1 = degraded
//     (published mid-epoch, after dirty analysis and before repair). The
//     service stores its served tables in this row order (ServedView), so
//     publishing copies whole rows. A DSVC checkpoint ends with the DQRY
//     blob of its served state.
//
//   * SnapshotStore — an epoch-tagged atomic snapshot pointer with
//     hazard-free retire-after-grace reclamation. publish() swaps the
//     current snapshot with one release-ordered exchange; readers pin a
//     per-reader epoch slot (SnapshotReader::acquire, wait-free: announce
//     epoch, load pointer) and a retired snapshot is freed only once every
//     pinned epoch has moved past its retirement — repairs and recomputes
//     land without ever blocking a reader, and a reader mid-batch keeps a
//     stable view for as long as it holds the SnapshotRef.
//
//   * Batched queries — point-to-point, k-nearest, eccentricity, each
//     answered from one snapshot row with that row's status threaded into
//     the answer, plus an LRU hot-source cache for 2-hop-label estimates.
//
// Status semantics per query: an answer's `status` is the publish-time
// status of the one row consulted (row `to` for p2p, row `u` for k-nearest
// and eccentricity). kExact / kRepaired mean that row was certified against
// the snapshot's graph at publish time; kStale means certification was
// pending or failed and the values may predate recent churn. The service's
// conservative downgrade (rows drop to kStale the moment the dirty analyzer
// implicates them, before any repair runs) plus the degraded mid-epoch
// publish make the disclosed status monotone-conservative across the
// snapshot sequence: no published snapshot ever claims exactness for a row
// whose invalidation was already known.
#pragma once

#include <algorithm>
#include <array>
#include <atomic>
#include <cstdint>
#include <memory>
#include <mutex>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/distance_labels.h"
#include "core/pebble_apsp.h"
#include "core/service.h"
#include "graph/graph.h"
#include "util/blob.h"

namespace dapsp::core {

inline constexpr BlobTag kQueryTag{'D', 'Q', 'R', 'Y', '0', '0', '0', '3'};
inline constexpr std::uint32_t kQueryFlagLabels = 1u << 0;
inline constexpr std::uint32_t kQueryFlagDegraded = 1u << 1;

// Classifies a DQRY blob without building a snapshot from it: the shared
// frame checks (util/blob.h), then the body parse. Pure and noexcept.
CheckpointError classify_query_blob(
    std::span<const std::uint8_t> blob) noexcept;

// Deterministic per-request work budget (core/resilience.h threads one
// through every query a request makes). The unit is one table cell touched
// — a pure function of the query and the snapshot, never of wall time — so
// deadline behavior is bit-reproducible at any thread count. limit == 0
// means unbounded. A query that exhausts the budget mid-row stops scanning
// and returns a truncated partial answer (see the `truncated` fields);
// the resilience layer downgrades such answers to kDeadlineExceeded.
struct WorkBudget {
  std::uint64_t limit = 0;  // total cells this request may touch (0 = inf)
  std::uint64_t used = 0;   // cells charged so far

  bool exhausted() const noexcept { return limit != 0 && used >= limit; }
  std::uint64_t remaining() const noexcept {
    if (limit == 0) return ~std::uint64_t{0};
    return limit > used ? limit - used : 0;
  }
  // Charges up to `want` cells; returns how many were granted.
  std::uint64_t grant(std::uint64_t want) noexcept {
    if (limit != 0) want = std::min(want, remaining());
    used += want;
    return want;
  }
};

// One point-to-point answer. `status` is the consulted row's publish-time
// status (see header); inactive endpoints answer active = false with
// everything else defaulted — exactly DapspService::query's contract.
struct QueryAnswer {
  bool active = false;
  std::uint32_t dist = kInfDist;
  NodeId next_hop = kNoNextHop;
  RowStatus status = RowStatus::kStale;
};

struct NearNeighbor {
  NodeId node = 0;
  std::uint32_t dist = 0;
};

struct KNearestAnswer {
  bool active = false;
  RowStatus status = RowStatus::kStale;
  // Up to k active nodes nearest to u (u excluded, unreachable excluded),
  // ascending by (distance, id).
  std::vector<NearNeighbor> nearest;
  // Deadline partial-result marker: only row cells [0, scanned) were
  // considered (the budget ran out mid-row). `nearest` is exact over that
  // prefix — correct neighbors may be missing beyond it.
  bool truncated = false;
  std::uint32_t scanned = 0;  // meaningful only when truncated
};

struct EccentricityAnswer {
  bool active = false;
  RowStatus status = RowStatus::kStale;
  std::uint32_t ecc = 0;        // max finite served distance to u
  NodeId farthest = kNoNextHop; // argmax (smallest id on ties)
  std::uint32_t unreachable = 0;  // active nodes with no finite entry
  // Deadline partial-result marker: ecc/farthest/unreachable aggregate only
  // row cells [0, scanned) — a lower bound on the true eccentricity.
  bool truncated = false;
  std::uint32_t scanned = 0;  // meaningful only when truncated
};

// An immutable query snapshot over a DQRY blob (owned bytes or an mmap
// view). All accessors are const and data-race-free: the object never
// mutates after construction, which is what lets SnapshotStore hand one
// instance to any number of concurrent readers.
class QuerySnapshot {
 public:
  // Takes ownership of a validated blob. Throws std::runtime_error naming
  // the CheckpointError on a damaged or inconsistent blob.
  static QuerySnapshot from_blob(std::vector<std::uint8_t> bytes);
  // Maps `path` read-only (zero-copy when mmap is available) and validates.
  static QuerySnapshot from_file(const std::string& path);
  // Validates and views bytes the caller keeps alive and unchanged for the
  // snapshot's lifetime (how a checkpoint restore reads its served section).
  static QuerySnapshot borrow(std::span<const std::uint8_t> blob);

  QuerySnapshot(QuerySnapshot&&) noexcept = default;
  QuerySnapshot& operator=(QuerySnapshot&&) noexcept = default;
  QuerySnapshot(const QuerySnapshot&) = delete;
  QuerySnapshot& operator=(const QuerySnapshot&) = delete;

  NodeId n() const noexcept { return n_; }
  // The service epoch the snapshot was published at.
  std::uint64_t epoch() const noexcept { return epoch_; }
  // The publisher's monotone sequence number (swap ordinal).
  std::uint64_t sequence() const noexcept { return sequence_; }
  // Published mid-epoch, after dirty analysis downgraded statuses and
  // before the repair ran.
  bool degraded() const noexcept { return (flags_ & kQueryFlagDegraded) != 0; }
  bool has_labels() const noexcept { return (flags_ & kQueryFlagLabels) != 0; }
  std::uint32_t label_k() const noexcept { return k_; }

  bool active(NodeId v) const { return active_[v] != 0; }
  RowStatus status(NodeId s) const {
    return static_cast<RowStatus>(status_[s]);
  }

  // Row s: served distances to source s, indexed by node (contiguous).
  std::span<const std::uint32_t> dist_row(NodeId s) const {
    return {dist_ + std::size_t{s} * n_, n_};
  }
  // Row s of the next hops: every node's hop toward s.
  std::span<const NodeId> next_hop_row(NodeId s) const {
    return {hop_ + std::size_t{s} * n_, n_};
  }
  // Served distance from `from` to `to` — the (from, to) entry of row `to`,
  // matching DapspService::query's value and status source.
  std::uint32_t dist(NodeId from, NodeId to) const {
    return dist_[std::size_t{to} * n_ + from];
  }
  NodeId next_hop(NodeId from, NodeId to) const {
    return hop_[std::size_t{to} * n_ + from];
  }

  std::span<const NodeId> dominators() const {
    return {dom_, dom_count_};
  }
  // d(v, dom[i]) for every dominator i (contiguous).
  std::span<const std::uint32_t> label_row(NodeId v) const {
    return {labels_ + std::size_t{v} * dom_count_, dom_count_};
  }

  // ---- Queries (each consults exactly one row; see header) --------------
  //
  // Every query takes an optional WorkBudget. nullptr (the default) means
  // unbounded — identical to the pre-budget behavior. With a budget, each
  // row cell touched charges one unit; when the budget exhausts mid-query
  // the answer is returned truncated (k_nearest/eccentricity set their
  // `truncated` marker; p2p_batch stops after the answered prefix, so
  // out.size() < pairs.size() is the truncation signal). Work accounting is
  // cell-exact and deterministic — the virtual-clock overload simulations
  // (core/resilience.h) convert it into service time.

  // Throws std::invalid_argument on out-of-universe ids.
  QueryAnswer p2p(NodeId from, NodeId to) const;
  void p2p_batch(std::span<const std::pair<NodeId, NodeId>> pairs,
                 std::vector<QueryAnswer>& out,
                 WorkBudget* budget = nullptr) const;

  KNearestAnswer k_nearest(NodeId u, std::uint32_t k,
                           WorkBudget* budget = nullptr) const;
  EccentricityAnswer eccentricity(NodeId u,
                                  WorkBudget* budget = nullptr) const;

  // The row scans behind k_nearest and eccentricity, over any row of
  // distances toward u indexed by node: a prefix of dist_row(u), or a
  // LabelCache estimate row (the overload sim's brownout). Nodes this
  // snapshot marks inactive are skipped. Fill only the scan's fields
  // (nearest; ecc, farthest, unreachable).
  KNearestAnswer k_nearest_in_row(NodeId u, std::uint32_t k,
                                  std::span<const std::uint32_t> row) const;
  EccentricityAnswer eccentricity_in_row(
      NodeId u, std::span<const std::uint32_t> row) const;

  // APASP_{2k} estimate from the label section (requires has_labels()):
  // min over dominators of the saturating 2-hop sum. kInfDist when the
  // labels share no finite dominator.
  std::uint32_t label_estimate(NodeId u, NodeId v) const;

  // The underlying blob bytes (for re-serialization / persistence).
  std::span<const std::uint8_t> bytes() const noexcept { return bytes_; }

 private:
  friend CheckpointError classify_query_blob(
      std::span<const std::uint8_t> blob) noexcept;
  QuerySnapshot() = default;
  // The one DQRY reader: frame checks, then the body parse into `snap`'s
  // fields and table views.
  static CheckpointError parse(std::span<const std::uint8_t> blob,
                               QuerySnapshot& snap) noexcept;

  std::vector<std::uint8_t> owned_;
  MappedBlob mapped_;

  NodeId n_ = 0;
  std::uint64_t epoch_ = 0;
  std::uint64_t sequence_ = 0;
  std::uint32_t flags_ = 0;
  std::uint32_t k_ = 0;
  std::uint32_t dom_count_ = 0;
  const std::uint32_t* dist_ = nullptr;
  const std::uint32_t* hop_ = nullptr;
  const std::uint32_t* dom_ = nullptr;
  const std::uint32_t* labels_ = nullptr;
  const std::uint8_t* active_ = nullptr;
  const std::uint8_t* status_ = nullptr;
  std::span<const std::uint8_t> bytes_;  // into owned_, mapped_ or borrowed
};

// Serializes the service's served snapshot (and optionally a label section)
// into a DQRY blob. `sequence` is the publisher's swap ordinal; `degraded`
// marks a mid-epoch publish. The label section, when given, must cover the
// same universe (labels->label(v) for every v < n). The served tables are
// already in DQRY row order, so their rows are copied whole.
std::vector<std::uint8_t> encode_query_snapshot(
    const DapspService& svc, std::uint64_t sequence, bool degraded,
    const DistanceLabeling* labels = nullptr);

// The same, written in place into `out` of exactly
// query_blob_size(n, |dominators|) bytes — how a checkpoint embeds its
// served section without a second copy.
std::uint64_t query_blob_size(NodeId n, std::uint32_t dom_count = 0);
void encode_query_snapshot(std::span<std::uint8_t> out,
                           const DapspService& svc, std::uint64_t sequence,
                           bool degraded,
                           const DistanceLabeling* labels = nullptr);

// Into a new blob from node-major tables: dist.at(v, s) = served distance
// v -> s and next hops as nested rows, (*next_hop)[v][s] = v's hop toward s
// (null = all kNoNextHop), transposed into DQRY row order. The
// seq::apsp-backed path of benches and tests, kept in this form because
// perfbench's serve workload builds nested rows; the rows are read in
// place, never copied into a Table.
std::vector<std::uint8_t> encode_query_snapshot_tables(
    const DistanceMatrix& dist,
    const std::vector<std::vector<NodeId>>* next_hop,
    std::span<const std::uint8_t> active, std::span<const RowStatus> status,
    std::uint64_t epoch, std::uint64_t sequence, bool degraded,
    const DistanceLabeling* labels = nullptr);

// ---- Lock-free snapshot swap ---------------------------------------------

inline constexpr std::size_t kMaxSnapshotReaders = 64;

class SnapshotStore;

// A pinned, stable view of the store's current snapshot. Move-only RAII:
// the pin is released on destruction. Holding a ref keeps that snapshot's
// memory valid even across any number of subsequent publishes.
class SnapshotRef {
 public:
  SnapshotRef() = default;
  SnapshotRef(SnapshotRef&& other) noexcept { *this = std::move(other); }
  SnapshotRef& operator=(SnapshotRef&& other) noexcept;
  SnapshotRef(const SnapshotRef&) = delete;
  SnapshotRef& operator=(const SnapshotRef&) = delete;
  ~SnapshotRef() { release(); }

  const QuerySnapshot* get() const noexcept { return snap_; }
  const QuerySnapshot& operator*() const noexcept { return *snap_; }
  const QuerySnapshot* operator->() const noexcept { return snap_; }
  explicit operator bool() const noexcept { return snap_ != nullptr; }

  void release() noexcept;

 private:
  friend class SnapshotReader;
  SnapshotRef(SnapshotStore* store, std::size_t slot,
              const QuerySnapshot* snap)
      : store_(store), slot_(slot), snap_(snap) {}

  SnapshotStore* store_ = nullptr;
  std::size_t slot_ = 0;
  const QuerySnapshot* snap_ = nullptr;
};

// Bounded spin-yield budget for SnapshotReader slot acquisition: how many
// full claim sweeps (each followed by a yield) to attempt before giving up.
// Transient exhaustion — a burst of short-lived readers churning slots —
// resolves within a few yields; a genuine leak (64 live readers) still
// fails fast instead of hanging.
inline constexpr std::uint32_t kReaderAcquireSpins = 4096;

// One registered reader (claims one epoch slot; create one per reader
// thread). acquire() is the wait-free hot-path pin: announce the current
// store epoch in the slot, then load the snapshot pointer. At most one
// outstanding SnapshotRef per reader at a time.
class SnapshotReader {
 public:
  // Claims a slot, spin-yielding up to `max_spins` sweeps while all
  // kMaxSnapshotReaders slots are transiently taken (each contended sweep
  // bumps the store's slots_exhausted() metric once per construction).
  // Throws std::runtime_error only after the spin budget is gone.
  explicit SnapshotReader(SnapshotStore& store,
                          std::uint32_t max_spins = kReaderAcquireSpins);
  ~SnapshotReader();

  SnapshotReader(const SnapshotReader&) = delete;
  SnapshotReader& operator=(const SnapshotReader&) = delete;

  // Pins and returns the current snapshot; an empty ref when nothing has
  // been published yet.
  SnapshotRef acquire();

 private:
  SnapshotStore* store_;
  std::size_t slot_;
};

// The epoch-tagged snapshot holder. publish() is called by one writer (the
// service thread); acquire() by any number of registered readers, never
// blocked by a publish. Retired snapshots are reclaimed on later publishes
// (and in the destructor) once no reader pin can still reference them.
class SnapshotStore {
 public:
  SnapshotStore() = default;
  // Frees the current and all retired snapshots. All SnapshotReaders must
  // be destroyed (and their refs released) first.
  ~SnapshotStore();

  SnapshotStore(const SnapshotStore&) = delete;
  SnapshotStore& operator=(const SnapshotStore&) = delete;

  // Atomically swaps in `snap` as the current snapshot and retires the
  // previous one; the previous snapshot's memory is freed only after every
  // reader pinned before the swap has released (retire-after-grace).
  void publish(std::unique_ptr<const QuerySnapshot> snap);

  std::uint64_t swaps() const noexcept {
    return swaps_.load(std::memory_order_relaxed);
  }
  // Retired snapshots not yet reclaimed (observability / tests).
  std::size_t retired_pending() const;
  // Reader registrations that found every slot taken on their first sweep
  // and had to spin-yield (counted once per contended construction) — the
  // reader-slot saturation signal.
  std::uint64_t slots_exhausted() const noexcept {
    return slots_exhausted_.load(std::memory_order_relaxed);
  }

 private:
  friend class SnapshotReader;
  friend class SnapshotRef;

  static constexpr std::uint64_t kSlotIdle = ~std::uint64_t{0};

  struct alignas(64) Slot {
    std::atomic<std::uint64_t> pin{kSlotIdle};
    std::atomic<std::uint8_t> claimed{0};
  };

  void reclaim_locked();

  std::atomic<const QuerySnapshot*> current_{nullptr};
  std::atomic<std::uint64_t> epoch_{1};
  std::atomic<std::uint64_t> swaps_{0};
  std::atomic<std::uint64_t> slots_exhausted_{0};
  std::array<Slot, kMaxSnapshotReaders> slots_{};

  // Writer-side only; readers never touch the mutex.
  mutable std::mutex retire_mu_;
  std::unique_ptr<const QuerySnapshot> current_owner_;
  struct Retired {
    std::unique_ptr<const QuerySnapshot> snap;
    std::uint64_t retire_epoch;
  };
  std::vector<Retired> retired_;
};

// SnapshotSink adapter: encodes the service's served tables into a DQRY
// snapshot and publishes it on every service publish point (degraded
// mid-epoch states included — that is what keeps reader-visible statuses
// conservative). Attach via ServiceConfig::snapshot_sink.
class ServingPublisher final : public SnapshotSink {
 public:
  explicit ServingPublisher(SnapshotStore& store) : store_(&store) {}

  void on_snapshot(const DapspService& svc, bool degraded) override;

  std::uint64_t published() const noexcept { return sequence_; }

 private:
  SnapshotStore* store_;
  std::uint64_t sequence_ = 0;
};

// ---- Hot-source label cache ----------------------------------------------

// LRU cache of fully-combined estimate rows for hot sources: row(u) holds
// est(u, v) for every v, computed once from the label section in
// O(n * |DOM|) and then answered in O(1) per lookup. Keyed by (snapshot
// sequence, source), so a snapshot swap naturally invalidates. NOT
// thread-safe — create one per reader thread.
class LabelCache {
 public:
  explicit LabelCache(std::size_t capacity) : capacity_(capacity) {}

  // Requires snap.has_labels() (throws std::logic_error otherwise).
  std::span<const std::uint32_t> row(const QuerySnapshot& snap, NodeId u);
  std::uint32_t estimate(const QuerySnapshot& snap, NodeId u, NodeId v);

  std::uint64_t hits() const noexcept { return hits_; }
  std::uint64_t misses() const noexcept { return misses_; }
  void clear() { entries_.clear(); }

 private:
  struct Entry {
    std::uint64_t sequence;
    NodeId source;
    std::uint64_t last_used;
    std::vector<std::uint32_t> row;
  };

  std::size_t capacity_;
  std::uint64_t tick_ = 0;
  std::uint64_t hits_ = 0;
  std::uint64_t misses_ = 0;
  std::vector<Entry> entries_;
  std::vector<std::uint32_t> scratch_;  // capacity 0: compute-only answers
};

}  // namespace dapsp::core
