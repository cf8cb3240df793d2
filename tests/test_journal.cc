// Write-ahead journal (util/journal.h) and checkpoint store (core/durable.h):
// record round-trips, torn-tail classification and truncate-on-repair across
// every byte offset, refusal to repair foreign files, deterministic
// crash-budget semantics of FileSink, and atomic checkpoint rotation that
// never loses the last-good generation.
#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "core/durable.h"
#include "core/service.h"
#include "graph/generators.h"
#include "util/journal.h"

namespace dapsp {
namespace {

namespace fs = std::filesystem;

std::string temp_path(const std::string& name) {
  return (fs::path(::testing::TempDir()) / name).string();
}

std::vector<std::uint8_t> read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return std::vector<std::uint8_t>(std::istreambuf_iterator<char>(in), {});
}

void write_all(const std::string& path, std::span<const std::uint8_t> bytes) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(bytes.data()),
            static_cast<std::streamsize>(bytes.size()));
}

std::vector<std::uint8_t> rec(std::initializer_list<int> bytes) {
  std::vector<std::uint8_t> v;
  for (const int b : bytes) v.push_back(static_cast<std::uint8_t>(b));
  return v;
}

// A journal with three known records; returns its path.
std::string make_journal(const std::string& name) {
  const std::string path = temp_path(name);
  fs::remove(path);
  JournalWriter w(path, FileSink::Mode::kTruncate);
  w.append(rec({1, 2, 3}));
  w.append(rec({}));  // empty payloads are legal records
  w.append(rec({9, 8, 7, 6, 5}));
  return path;
}

// ------------------------------------------------------------------- journal

TEST(Journal, RoundTripAndCleanScan) {
  const std::string path = make_journal("rt.wal");
  const JournalScan s = scan_journal(path);
  EXPECT_EQ(s.error, JournalError::kNone);
  ASSERT_EQ(s.records.size(), 3u);
  EXPECT_EQ(s.records[0], rec({1, 2, 3}));
  EXPECT_EQ(s.records[1], rec({}));
  EXPECT_EQ(s.records[2], rec({9, 8, 7, 6, 5}));
  EXPECT_EQ(s.valid_bytes, s.file_bytes);
  EXPECT_FALSE(repair_journal(path));  // clean: untouched
}

TEST(Journal, FreshWriterIsHeaderOnly) {
  const std::string path = temp_path("fresh.wal");
  fs::remove(path);
  { JournalWriter w(path, FileSink::Mode::kTruncate); }
  const JournalScan s = scan_journal(path);
  EXPECT_EQ(s.error, JournalError::kNone);
  EXPECT_TRUE(s.records.empty());
  EXPECT_EQ(s.file_bytes, kJournalHeaderBytes);
}

TEST(Journal, MissingFile) {
  const std::string path = temp_path("missing.wal");
  fs::remove(path);
  EXPECT_EQ(scan_journal(path).error, JournalError::kMissing);
  EXPECT_FALSE(repair_journal(path));
}

// The crash model: any byte prefix of the file can survive. Every prefix
// must classify as clean (record boundary), torn header, or torn tail — and
// repair must recover exactly the whole-record prefix.
TEST(Journal, EveryPrefixClassifiesAndRepairs) {
  const std::string path = make_journal("sweep.wal");
  const std::vector<std::uint8_t> full = read_all(path);
  // Record boundaries: header, then 12 + payload per record.
  std::vector<std::size_t> boundaries = {kJournalHeaderBytes};
  for (const std::size_t p : {3u, 0u, 5u}) {
    boundaries.push_back(boundaries.back() + 12 + p);
  }
  ASSERT_EQ(boundaries.back(), full.size());

  const std::string cut = temp_path("sweep_cut.wal");
  for (std::size_t len = 0; len <= full.size(); ++len) {
    write_all(cut, std::span<const std::uint8_t>(full.data(), len));
    const JournalScan s = scan_journal(cut);
    std::size_t whole = 0;
    while (whole + 1 < boundaries.size() && boundaries[whole + 1] <= len) {
      ++whole;
    }
    if (len < kJournalHeaderBytes) {
      EXPECT_EQ(s.error, JournalError::kTornHeader) << "len=" << len;
    } else if (len == boundaries[whole]) {
      EXPECT_EQ(s.error, JournalError::kNone) << "len=" << len;
      EXPECT_EQ(s.records.size(), whole) << "len=" << len;
    } else {
      EXPECT_EQ(s.error, JournalError::kTornTail) << "len=" << len;
      EXPECT_EQ(s.records.size(), whole) << "len=" << len;
      EXPECT_EQ(s.valid_bytes, boundaries[whole]) << "len=" << len;
    }
    if (s.error == JournalError::kTornHeader ||
        s.error == JournalError::kTornTail) {
      EXPECT_TRUE(repair_journal(cut)) << "len=" << len;
      const JournalScan after = scan_journal(cut);
      EXPECT_EQ(after.error, len < kJournalHeaderBytes ? JournalError::kMissing
                                                       : JournalError::kNone)
          << "len=" << len;
      if (after.error == JournalError::kNone) {
        EXPECT_EQ(after.records.size(), whole);
      }
    }
  }
}

TEST(Journal, ChecksumDamageCutsThereEvenMidFile) {
  const std::string path = make_journal("bitrot.wal");
  std::vector<std::uint8_t> bytes = read_all(path);
  // Flip a payload byte of record 1 (the empty record's *length* field
  // would also do): everything from record 1 on is dropped.
  const std::size_t r0_end = kJournalHeaderBytes + 12 + 3;
  bytes[r0_end + 4] ^= 0x40;  // inside record 1's checksum field
  write_all(path, bytes);
  const JournalScan s = scan_journal(path);
  EXPECT_EQ(s.error, JournalError::kTornTail);
  ASSERT_EQ(s.records.size(), 1u);
  EXPECT_EQ(s.records[0], rec({1, 2, 3}));
  EXPECT_TRUE(repair_journal(path));
  EXPECT_EQ(scan_journal(path).error, JournalError::kNone);
}

TEST(Journal, ForeignFilesAreRefused) {
  const std::string bad_magic = temp_path("foreign.wal");
  write_all(bad_magic, rec({'N', 'O', 'P', 'E', 1, 0, 0, 0, 5}));
  EXPECT_EQ(scan_journal(bad_magic).error, JournalError::kBadMagic);
  EXPECT_THROW(repair_journal(bad_magic), std::runtime_error);

  const std::string bad_version = temp_path("future.wal");
  // Version 1, the FNV-1a-checksummed format before this one.
  write_all(bad_version, rec({'D', 'J', 'R', 'N', 1, 0, 0, 0}));
  EXPECT_EQ(scan_journal(bad_version).error, JournalError::kVersionMismatch);
  EXPECT_THROW(repair_journal(bad_version), std::runtime_error);
  // Both files still intact.
  EXPECT_EQ(read_all(bad_magic).size(), 9u);
  EXPECT_EQ(read_all(bad_version).size(), 8u);
}

TEST(Journal, AppendContinuesARepairedJournal) {
  const std::string path = make_journal("cont.wal");
  std::vector<std::uint8_t> bytes = read_all(path);
  bytes.erase(bytes.end() - 2, bytes.end());  // tear the last record
  write_all(path, bytes);
  EXPECT_TRUE(repair_journal(path));
  {
    JournalWriter w(path, FileSink::Mode::kAppend);
    w.append(rec({42}));
  }
  const JournalScan s = scan_journal(path);
  EXPECT_EQ(s.error, JournalError::kNone);
  ASSERT_EQ(s.records.size(), 3u);  // r0, r1, then the new record
  EXPECT_EQ(s.records[2], rec({42}));
}

// ------------------------------------------------------------------ FileSink

TEST(FileSink, CrashBudgetLeavesTheExactPrefix) {
  const std::string path = temp_path("sink.bin");
  CrashPoint crash;
  crash.kill_at_byte = 10;
  FileSink sink(path, FileSink::Mode::kTruncate, &crash);
  std::vector<std::uint8_t> data(25, 0xab);
  EXPECT_THROW(sink.write(data), CrashPointReached);
  EXPECT_EQ(read_all(path).size(), 10u);
  EXPECT_EQ(crash.written, 10u);
}

TEST(FileSink, BudgetIsSharedAcrossSinks) {
  CrashPoint crash;
  crash.kill_at_byte = 12;
  const std::string p1 = temp_path("sink1.bin");
  const std::string p2 = temp_path("sink2.bin");
  {
    FileSink s1(p1, FileSink::Mode::kTruncate, &crash);
    s1.write(std::vector<std::uint8_t>(8, 1));  // 8 of 12
  }
  FileSink s2(p2, FileSink::Mode::kTruncate, &crash);
  EXPECT_THROW(s2.write(std::vector<std::uint8_t>(8, 2)), CrashPointReached);
  EXPECT_EQ(read_all(p1).size(), 8u);
  EXPECT_EQ(read_all(p2).size(), 4u);  // the remaining budget
}

// ----------------------------------------------------------- CheckpointStore

// A tiny service plus one stepped epoch, for two distinct valid blobs.
struct TwoBlobs {
  std::vector<std::uint8_t> epoch0;
  std::vector<std::uint8_t> epoch1;
};

TwoBlobs make_blobs() {
  core::DapspService svc(gen::path(4), {});
  TwoBlobs b;
  b.epoch0 = svc.checkpoint_blob();
  svc.step({});  // empty batch: clean epoch 1
  b.epoch1 = svc.checkpoint_blob();
  return b;
}

TEST(CheckpointStoreTest, RotationAlternatesSlotsAndLoadsNewest) {
  const std::string base = temp_path("cs_rot");
  fs::remove(base + ".g0");
  fs::remove(base + ".g1");
  const TwoBlobs b = make_blobs();
  core::CheckpointStore store(base);

  store.rotate(b.epoch0);
  core::CheckpointStore::Loaded l = store.load();
  EXPECT_FALSE(l.fallback);
  EXPECT_EQ(l.blob, b.epoch0);

  store.rotate(b.epoch1);
  l = store.load();
  EXPECT_FALSE(l.fallback);
  EXPECT_EQ(l.blob, b.epoch1);  // newest epoch wins
  // Both generations now on disk, both valid.
  EXPECT_EQ(l.slot_errors[0], core::CheckpointError::kNone);
  EXPECT_EQ(l.slot_errors[1], core::CheckpointError::kNone);
}

TEST(CheckpointStoreTest, DamagedNewestFallsBackToPreviousGeneration) {
  const std::string base = temp_path("cs_fb");
  fs::remove(base + ".g0");
  fs::remove(base + ".g1");
  const TwoBlobs b = make_blobs();
  core::CheckpointStore store(base);
  store.rotate(b.epoch0);
  store.rotate(b.epoch1);

  // Find and damage the slot holding the newer blob.
  for (int slot = 0; slot < 2; ++slot) {
    std::vector<std::uint8_t> bytes = read_all(store.slot_path(slot));
    std::uint64_t epoch = 0;
    if (core::classify_checkpoint_blob(bytes, &epoch) ==
            core::CheckpointError::kNone &&
        epoch == 1) {
      bytes[bytes.size() / 2] ^= 0x01;
      write_all(store.slot_path(slot), bytes);
    }
  }
  const core::CheckpointStore::Loaded l = store.load();
  EXPECT_TRUE(l.fallback);
  EXPECT_EQ(l.rejected_error, core::CheckpointError::kChecksumMismatch);
  EXPECT_EQ(l.blob, b.epoch0);
}

// The rotation contract: at EVERY byte of a crashed rotation, the previous
// generation still loads.
TEST(CheckpointStoreTest, KilledRotationNeverLosesLastGood) {
  const TwoBlobs b = make_blobs();
  const std::string base = temp_path("cs_kill");
  for (std::uint64_t k = 1; k <= b.epoch1.size(); k += 97) {
    fs::remove(base + ".g0");
    fs::remove(base + ".g1");
    fs::remove(base + ".tmp");
    core::CheckpointStore store(base);
    store.rotate(b.epoch0);

    CrashPoint crash;
    crash.kill_at_byte = k;
    core::CheckpointStore killed(base, &crash);
    EXPECT_THROW(killed.rotate(b.epoch1), CrashPointReached) << "k=" << k;
    core::CheckpointStore::Loaded l = store.load();
    EXPECT_EQ(l.blob, b.epoch0) << "k=" << k;  // last good intact

    // And the retried rotation completes and supersedes it.
    store.rotate(b.epoch1);
    l = store.load();
    EXPECT_EQ(l.blob, b.epoch1) << "k=" << k;
  }
}

}  // namespace
}  // namespace dapsp
