#include "core/durable.h"

#include <algorithm>
#include <filesystem>
#include <sstream>
#include <stdexcept>
#include <utility>

#include "congest/trace.h"

namespace dapsp::core {

namespace {

using congest::TraceEvent;
using congest::TraceEventKind;

bool is_damage(CheckpointError e) {
  return e != CheckpointError::kNone && e != CheckpointError::kMissing;
}

// One journal record: the epoch the batch creates, the driver's opaque
// resume words, then the batch itself (self-delimiting; decode_churn_batch
// rejects trailing bytes).
std::vector<std::uint8_t> encode_record(std::uint64_t epoch,
                                        std::span<const std::uint64_t> words,
                                        const ChurnBatch& batch) {
  const std::vector<std::uint8_t> body = encode_churn_batch(batch);
  std::vector<std::uint8_t> payload(8 + 4 + 8 * words.size() + body.size());
  ByteWriter w(payload);
  w.u64(epoch);
  w.u32(static_cast<std::uint32_t>(words.size()));
  for (const std::uint64_t x : words) w.u64(x);
  std::ranges::copy(body, w.take(body.size()).begin());
  return payload;
}

struct DecodedRecord {
  std::uint64_t epoch = 0;
  std::vector<std::uint64_t> words;
  ChurnBatch batch;
};

DecodedRecord decode_record(std::span<const std::uint8_t> payload) {
  ByteReader r(payload, "durable journal record");
  DecodedRecord rec;
  rec.epoch = r.u64();
  const std::uint32_t nw = r.u32();
  rec.words.reserve(nw);
  for (std::uint32_t i = 0; i < nw; ++i) rec.words.push_back(r.u64());
  rec.batch = decode_churn_batch(r.take(r.left()));
  return rec;
}

// One generation slot, read and classified. A missing file reads as empty,
// which classifies kMissing — the right answer for an absent slot.
struct Slot {
  std::vector<std::uint8_t> blob;
  std::uint64_t epoch = 0;
  CheckpointError error = CheckpointError::kMissing;
  bool valid() const noexcept { return error == CheckpointError::kNone; }
};

Slot read_slot(const std::string& path) {
  Slot slot;
  if (auto bytes = read_file(path)) slot.blob = std::move(*bytes);
  slot.error = classify_checkpoint_blob(slot.blob, &slot.epoch);
  return slot;
}

}  // namespace

CheckpointStore::CheckpointStore(std::string base, CrashPoint* crash)
    : base_(std::move(base)), crash_(crash) {}

std::string CheckpointStore::slot_path(int slot) const {
  return base_ + (slot == 0 ? ".g0" : ".g1");
}

std::string CheckpointStore::tmp_path() const { return base_ + ".tmp"; }

void CheckpointStore::rotate(std::span<const std::uint8_t> blob) {
  // Target the damaged/empty slot if there is one, else the older of the
  // two valid generations — the newest valid generation is never the
  // rename target, so it survives a kill at any byte of this call.
  bool valid[2];
  std::uint64_t epoch[2];
  for (int slot = 0; slot < 2; ++slot) {
    const Slot s = read_slot(slot_path(slot));  // one blob in memory at a time
    valid[slot] = s.valid();
    epoch[slot] = s.epoch;
  }
  int target;
  if (!valid[0]) {
    target = 0;
  } else if (!valid[1]) {
    target = 1;
  } else {
    target = epoch[0] <= epoch[1] ? 0 : 1;
  }
  {
    FileSink sink(tmp_path(), FileSink::Mode::kTruncate, crash_);
    sink.write(blob);  // the crash budget can fire anywhere in here
    sink.flush();
  }
  // The atomic commit point: before this rename the target slot is intact,
  // after it the new generation is fully in place.
  std::filesystem::rename(tmp_path(), slot_path(target));
  ++rotations_;
}

CheckpointStore::Loaded CheckpointStore::load() const {
  Loaded out;
  Slot s[2] = {read_slot(slot_path(0)), read_slot(slot_path(1))};
  int best = -1;
  for (int slot = 0; slot < 2; ++slot) {
    out.slot_errors[slot] = s[slot].error;
    if (s[slot].valid() && (best < 0 || s[slot].epoch > s[best].epoch)) {
      best = slot;
    }
  }
  for (int slot = 0; slot < 2; ++slot) {
    if (slot != best && is_damage(s[slot].error)) {
      out.rejected_error = s[slot].error;
      out.fallback = best >= 0;
    }
  }
  if (best >= 0) out.blob = std::move(s[best].blob);
  return out;
}

std::string DurableStats::debug_string() const {
  std::ostringstream os;
  os << "journal_appends=" << journal_appends
     << " journal_bytes=" << journal_bytes
     << " checkpoints_rotated=" << checkpoints_rotated
     << " recoveries=" << recoveries
     << " batches_replayed=" << batches_replayed;
  return std::move(os).str();
}

std::string RecoveryReport::debug_string() const {
  std::ostringstream os;
  os << "recovered epoch " << recovered_epoch << " from checkpoint epoch "
     << checkpoint_epoch << " + " << batches_replayed << " replayed batches"
     << (generation_fallback ? " [generation-fallback]" : "")
     << (journal_tail_truncated ? " [torn-tail-truncated]" : "")
     << (fresh_start ? " [fresh-start]" : "");
  if (is_damage(rejected_error)) {
    os << " rejected=" << to_string(rejected_error);
  }
  return std::move(os).str();
}

DurableDapspService::DurableDapspService(const Graph& initial,
                                         const DurableConfig& cfg)
    : cfg_(cfg),
      svc_(initial, cfg.service),
      store_((std::filesystem::create_directories(cfg.dir),
              cfg.dir + "/ckpt"),
             cfg.crash) {
  // Generation 0 + fresh journal. A kill inside leaves no usable
  // checkpoint; recover() then needs the initial graph again.
  rotate_checkpoint();
}

DurableDapspService::DurableDapspService(DapspService&& svc,
                                         const DurableConfig& cfg)
    : cfg_(cfg),
      svc_(std::move(svc)),
      store_((std::filesystem::create_directories(cfg.dir),
              cfg.dir + "/ckpt"),
             cfg.crash) {
  // Continue the (already repaired) journal in place.
  journal_ = std::make_unique<JournalWriter>(
      journal_path(), FileSink::Mode::kAppend, cfg_.crash);
}

std::string DurableDapspService::journal_path() const {
  return cfg_.dir + "/journal.wal";
}

void DurableDapspService::reset_journal() {
  journal_.reset();  // close before truncating
  journal_ = std::make_unique<JournalWriter>(
      journal_path(), FileSink::Mode::kTruncate, cfg_.crash);
}

void DurableDapspService::emit_journal_event(std::uint64_t payload_bytes,
                                             std::uint64_t epoch) {
  congest::TraceLog* trace = cfg_.service.engine.trace;
  if (trace == nullptr) return;
  TraceEvent ev;
  ev.kind = TraceEventKind::kJournal;
  ev.node = static_cast<NodeId>(dstats_.journal_appends - 1);
  ev.peer = static_cast<NodeId>(payload_bytes);
  ev.round = epoch;
  trace->append(ev);
}

EpochReport DurableDapspService::ack_and_step(
    const ChurnBatch& batch, std::span<const std::uint64_t> plan_words) {
  const std::uint64_t epoch = svc_.epoch() + 1;
  const std::vector<std::uint8_t> payload =
      encode_record(epoch, plan_words, batch);
  // THE acknowledgement point: returns only once the record is durable (a
  // crash budget landing inside throws/exits with the batch unacked).
  const std::uint64_t on_disk = journal_->append(payload);
  ++dstats_.journal_appends;
  dstats_.journal_bytes += on_disk;
  emit_journal_event(payload.size(), epoch);
  plan_words_.assign(plan_words.begin(), plan_words.end());

  EpochReport ep = svc_.step(batch);
  if (cfg_.checkpoint_every > 0 &&
      ++acked_since_checkpoint_ >= cfg_.checkpoint_every) {
    rotate_checkpoint();
  }
  return ep;
}

void DurableDapspService::rotate_checkpoint() {
  const std::vector<std::uint8_t> blob = svc_.checkpoint_blob(plan_words_);
  store_.rotate(blob);
  ++dstats_.checkpoints_rotated;
  acked_since_checkpoint_ = 0;
  // Records at or below the checkpoint epoch are dead weight now. A kill
  // between the rename above and the header write below is safe: replay
  // skips records the checkpoint already covers.
  reset_journal();
}

DurableDapspService DurableDapspService::recover(const DurableConfig& cfg,
                                                 const Graph* initial,
                                                 RecoveryReport* report) {
  RecoveryReport rr;
  const std::string jpath = cfg.dir + "/journal.wal";
  const JournalScan scan = scan_journal(jpath);
  if (scan.error == JournalError::kBadMagic ||
      scan.error == JournalError::kVersionMismatch) {
    throw std::runtime_error(
        std::string("DurableDapspService::recover: journal is ") +
        to_string(scan.error) + " — refusing to repair a foreign file");
  }
  if (scan.error == JournalError::kTornTail ||
      scan.error == JournalError::kTornHeader) {
    repair_journal(jpath);
    rr.journal_tail_truncated = true;
  }

  // Newest restorable generation wins; damaged slots are recorded and
  // passed over (the generation fallback).
  CheckpointStore store(cfg.dir + "/ckpt", cfg.crash);
  const Slot slots[2] = {read_slot(store.slot_path(0)),
                         read_slot(store.slot_path(1))};
  std::vector<const Slot*> candidates;
  for (const Slot& slot : slots) {
    if (slot.valid()) {
      candidates.push_back(&slot);
    } else if (is_damage(slot.error)) {
      rr.rejected_error = slot.error;
      rr.generation_fallback = true;
    }
  }
  std::sort(candidates.begin(), candidates.end(),
            [](const Slot* a, const Slot* b) { return a->epoch > b->epoch; });

  std::optional<DapspService> svc;
  std::vector<std::uint64_t> words;
  for (std::size_t i = 0; i < candidates.size() && !svc; ++i) {
    CheckpointError err = CheckpointError::kNone;
    svc = DapspService::try_restore_blob(candidates[i]->blob, cfg.service,
                                         &words, &err);
    if (svc) {
      rr.checkpoint_epoch = candidates[i]->epoch;
      if (i > 0) rr.generation_fallback = true;
    } else {
      rr.rejected_error = err;
      rr.generation_fallback = true;
    }
  }
  if (!svc) {
    rr.generation_fallback = false;  // nothing to fall back TO
    if (initial == nullptr) {
      throw std::runtime_error(
          "DurableDapspService::recover: no usable checkpoint generation "
          "and no initial graph to rebuild from");
    }
    svc.emplace(*initial, cfg.service);
    rr.fresh_start = true;
  }

  DurableDapspService d(std::move(*svc), cfg);
  d.plan_words_ = std::move(words);

  // Replay the journal suffix through the ordinary step() path. Records the
  // checkpoint already covers are skipped; a gap above the state's epoch
  // means an acknowledged batch is gone — the one unrecoverable state.
  for (const std::vector<std::uint8_t>& payload : scan.records) {
    const DecodedRecord rec = decode_record(payload);
    if (rec.epoch <= d.svc_.epoch()) continue;
    if (rec.epoch != d.svc_.epoch() + 1) {
      std::ostringstream os;
      os << "DurableDapspService::recover: acknowledged update lost — "
            "journal resumes at epoch "
         << rec.epoch << " but recovered state ends at epoch "
         << d.svc_.epoch();
      throw std::runtime_error(std::move(os).str());
    }
    d.svc_.step(rec.batch);
    d.plan_words_ = rec.words;
    ++rr.batches_replayed;
  }
  rr.recovered_epoch = d.svc_.epoch();
  d.dstats_.recoveries = 1;
  d.dstats_.batches_replayed = rr.batches_replayed;

  if (congest::TraceLog* trace = cfg.service.engine.trace) {
    TraceEvent ev;
    ev.kind = TraceEventKind::kRecovery;
    ev.node = static_cast<NodeId>(rr.checkpoint_epoch);
    ev.peer = static_cast<NodeId>(rr.batches_replayed);
    ev.round = rr.recovered_epoch;
    ev.aux = (rr.generation_fallback ? 1u : 0u) |
             (rr.journal_tail_truncated ? 2u : 0u) |
             (rr.fresh_start ? 4u : 0u);
    trace->append(ev);
  }
  if (report != nullptr) *report = rr;
  return d;
}

}  // namespace dapsp::core
