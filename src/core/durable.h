// Durable DAPSP service: write-ahead journal + atomic checkpoint rotation
// (DESIGN.md §15).
//
// DapspService (core/service.h) keeps the APSP answer alive across graph
// churn; this layer keeps it alive across *process death*. The contract is
// the classic WAL protocol:
//
//   ack_and_step(batch):
//     1. append one record (epoch | plan words | encoded batch) to the
//        journal and flush — THE acknowledgement point;
//     2. apply the batch via DapspService::step();
//     3. every checkpoint_every acked batches, rotate a checkpoint and
//        reset the journal.
//
// A kill at any durable byte offset then loses at most the *unacknowledged*
// tail: recover() repairs the journal's torn tail, loads the newest valid
// checkpoint generation (falling back to the previous generation when the
// newest is damaged), replays the journal suffix through the ordinary
// step() path, and hands back the plan words of the last acknowledged
// record so the driver resumes exactly where it acked.
//
// Checkpoint rotation is atomic at every instant: the blob is written to
// `<base>.tmp`, flushed, then renamed over the OLDER generation slot
// (`<base>.g0` / `<base>.g1`) — the last-good generation is never the
// rename target, so a kill mid-write leaves it untouched and a kill before
// the rename leaves both old slots intact. After a successful rotation the
// journal is reset (records ≤ the checkpoint epoch are dead weight); a kill
// between the two steps is safe in either order because replay skips
// records at or below the checkpoint epoch.
//
// Determinism: replay drives the same step() machinery as live operation
// and the service excludes stats from checkpoints, so a killed-and-
// recovered run's next checkpoint is bit-identical to the straight-through
// run's — at any thread count. The crash-point fuzzer
// (tests/test_crashpoint.cc) sweeps kills across every durable byte and
// asserts exactly that, plus "no acknowledged epoch lost".
#pragma once

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string>
#include <vector>

#include "core/service.h"
#include "util/journal.h"

namespace dapsp::core {

// Two-generation checkpoint store under `<base>.g0` / `<base>.g1` with
// `<base>.tmp` as the staging file. All blob bytes flow through a FileSink
// honoring the optional CrashPoint.
class CheckpointStore {
 public:
  explicit CheckpointStore(std::string base, CrashPoint* crash = nullptr);

  // Atomically installs `blob` as the newest generation (see header note).
  void rotate(std::span<const std::uint8_t> blob);

  struct Loaded {
    std::vector<std::uint8_t> blob;  // empty when no slot is valid
    // The other generation when both are valid, for a caller whose restore
    // rejects `blob` (empty otherwise).
    std::vector<std::uint8_t> older;
    bool fallback = false;  // a damaged slot was passed over for a valid one
    // Classification of the slot that was passed over (kMissing when both
    // slots were empty or the chosen one was the only candidate).
    CheckpointError rejected_error = CheckpointError::kMissing;
    CheckpointError slot_errors[2] = {CheckpointError::kMissing,
                                      CheckpointError::kMissing};
  };
  // Classifies both slots and ranks the valid ones, larger stored epoch
  // first (slot 0 on a tie) — the one generation-choice rule, which
  // DurableDapspService::recover restores from. Never throws on damage —
  // damage is the result.
  Loaded load() const;

  std::string slot_path(int slot) const;  // slot in {0, 1}
  std::string tmp_path() const;

  std::uint64_t rotations() const noexcept { return rotations_; }

 private:
  std::string base_;
  CrashPoint* crash_;
  std::uint64_t rotations_ = 0;
};

struct DurableConfig {
  // Directory holding `journal.wal` and `ckpt.g0` / `ckpt.g1` / `ckpt.tmp`.
  // Created if missing.
  std::string dir;
  // Rotate a checkpoint (and reset the journal) every k acknowledged
  // batches; 0 = only on explicit rotate_checkpoint() calls.
  std::uint32_t checkpoint_every = 0;
  ServiceConfig service{};
  // Shared kill switch for every durable write of this service (journal
  // appends, checkpoint staging). Optional; owned by the caller.
  CrashPoint* crash = nullptr;
};

struct DurableStats {
  std::uint64_t journal_appends = 0;  // records acked by this process
  std::uint64_t journal_bytes = 0;    // record bytes appended (headers excl.)
  std::uint64_t checkpoints_rotated = 0;
  std::uint64_t recoveries = 0;        // 1 when this process recovered
  std::uint64_t batches_replayed = 0;  // journal records replayed at recovery

  std::string debug_string() const;
};

// What recover() found and did.
struct RecoveryReport {
  std::uint64_t checkpoint_epoch = 0;  // epoch of the loaded generation
  std::uint64_t recovered_epoch = 0;   // service epoch after replay
  std::uint64_t batches_replayed = 0;
  bool generation_fallback = false;   // newest slot damaged, older used
  bool journal_tail_truncated = false;
  bool fresh_start = false;  // no usable checkpoint; rebuilt from the graph
  // Why the passed-over slot was rejected (fallback or fresh start).
  CheckpointError rejected_error = CheckpointError::kMissing;

  std::string debug_string() const;
};

// A DapspService wrapped in the WAL + checkpoint-rotation protocol above.
// Movable, not copyable.
class DurableDapspService {
 public:
  // Fresh start: builds the certified service from `initial`, writes the
  // generation-0 checkpoint and a fresh journal under cfg.dir.
  DurableDapspService(const Graph& initial, const DurableConfig& cfg);

  // Crash recovery (see header note). `initial` is the fresh-start fallback
  // when no checkpoint generation is usable — pass nullptr to throw in that
  // case instead. Throws std::runtime_error on an epoch gap between the
  // checkpoint and the journal suffix (an acknowledged update was lost —
  // the one unrecoverable state) and on a journal that is not ours
  // (bad magic / version).
  static DurableDapspService recover(const DurableConfig& cfg,
                                     const Graph* initial = nullptr,
                                     RecoveryReport* report = nullptr);

  // The WAL step: append + flush the record (acknowledgement point), then
  // apply the batch. `plan_words` is the driver's opaque resume state (e.g.
  // DeltaPlan rng/counter), stored in the record and in every later
  // checkpoint. Returns step()'s report.
  EpochReport ack_and_step(const ChurnBatch& batch,
                           std::span<const std::uint64_t> plan_words = {});

  // Writes a checkpoint of the current state (rotating generations) and
  // resets the journal.
  void rotate_checkpoint();

  DapspService& service() noexcept { return svc_; }
  const DapspService& service() const noexcept { return svc_; }
  const DurableStats& durable_stats() const noexcept { return dstats_; }
  // Plan words of the last acknowledged record (or of the loaded
  // checkpoint when nothing was replayed) — the driver's resume point.
  std::span<const std::uint64_t> plan_words() const noexcept {
    return plan_words_;
  }
  std::string journal_path() const;

 private:
  DurableDapspService(DapspService&& svc, const DurableConfig& cfg);

  void emit_journal_event(std::uint64_t payload_bytes, std::uint64_t epoch);
  void reset_journal();

  DurableConfig cfg_;
  DapspService svc_;
  CheckpointStore store_;
  std::unique_ptr<JournalWriter> journal_;
  std::vector<std::uint64_t> plan_words_;
  DurableStats dstats_;
  std::uint32_t acked_since_checkpoint_ = 0;
};

}  // namespace dapsp::core
