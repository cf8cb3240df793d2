// The shared blob codec (util/blob.h) and its one failure taxonomy, over all
// three durable formats:
//   * DSVC checkpoints, DQRY snapshots with and without a label section, and
//     the DJRN journal header;
//   * every prefix, every header byte flipped, one appended byte, one flipped
//     bit per section, and one extra body byte under a repaired length and
//     checksum — each must get the code the shared table assigns;
//   * every single-bit flip of a small DSVC blob, DQRY blob and DJRN record
//     is caught, and a blob of the previous version (0002, FNV-1a
//     checksummed) is a version mismatch, not checksum damage;
//   * round trips: restore + re-checkpoint is byte-identical, and the
//     checkpoint's last section is exactly the served DQRY snapshot;
//   * the DJRN byte format (tag + `u32 len | u64 checksum | payload`
//     records).
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <span>
#include <string>
#include <utility>
#include <vector>

#include "core/distance_labels.h"
#include "core/query.h"
#include "core/service.h"
#include "graph/delta.h"
#include "graph/generators.h"
#include "seq/apsp.h"
#include "util/blob.h"
#include "util/journal.h"

namespace dapsp::core {
namespace {

namespace fs = std::filesystem;

using Bytes = std::vector<std::uint8_t>;
using Classifier =
    std::function<CheckpointError(std::span<const std::uint8_t>)>;

// A named byte range of a blob, for the one-bit-per-section sweep.
struct Section {
  const char* name;
  std::size_t begin;
  std::size_t len;
};

struct FramedInput {
  std::string name;
  Bytes blob;
  Classifier classify;
  std::vector<Section> sections;
};

CheckpointError classify_dsvc(std::span<const std::uint8_t> b) {
  return classify_checkpoint_blob(b);
}
CheckpointError classify_dqry(std::span<const std::uint8_t> b) {
  return classify_query_blob(b);
}

// Rewrites the trailing checksum so it covers the (edited) bytes before it.
void repair_checksum(Bytes& b) {
  store_u64(b.data() + b.size() - 8,
            frame_checksum(
                std::span<const std::uint8_t>(b).first(b.size() - 8)));
}

// A service past a few churn epochs, so the checkpoint carries inactive
// nodes (with their stale rows) and a churned edge list.
DapspService churned_service() {
  DapspService svc(gen::random_connected(10, 8, 3), {});
  DeltaPlanConfig pc;
  pc.seed = 5;
  pc.crash_prob = 0.1;
  DeltaPlan plan(pc);
  for (int i = 0; i < 6; ++i) svc.step(plan.next(svc.dynamic_graph()));
  EXPECT_LT(svc.dynamic_graph().num_active(), svc.dynamic_graph().universe());
  return svc;
}

FramedInput dsvc_input() {
  DapspService svc = churned_service();
  const std::uint64_t words[3] = {7, 11, 13};
  FramedInput in{"DSVC", svc.checkpoint_blob(words), classify_dsvc, {}};
  const std::size_t n = svc.dynamic_graph().universe();
  const std::size_t m = svc.dynamic_graph().sorted_edges().size();
  const std::size_t served = query_blob_size(static_cast<NodeId>(n));
  std::size_t at = kBlobHeaderBytes;
  const auto add = [&](const char* name, std::size_t len) {
    in.sections.push_back({name, at, len});
    at += len;
  };
  add("n+epoch", 12);
  add("user words", 8 + 3 * 8);
  add("edges", 8 + 8 * m);
  add("dist", 4 * n * n);
  add("next_hop", 4 * n * n);
  add("served DQRY", served);
  add("checksum", 8);
  EXPECT_EQ(at, in.blob.size());
  return in;
}

FramedInput dqry_input(bool with_labels) {
  const Graph g = gen::random_connected(12, 10, 4);
  const DistanceLabeling lab = build_distance_labels(g, 1);
  const DistanceMatrix dist = seq::apsp(g);
  const NodeId n = g.num_nodes();
  const Bytes active(n, 1);
  const std::vector<RowStatus> status(n, RowStatus::kExact);
  FramedInput in{with_labels ? "DQRY+labels" : "DQRY",
                 encode_query_snapshot_tables(dist, nullptr, active, status, 3,
                                              9, false,
                                              with_labels ? &lab : nullptr),
                 classify_dqry,
                 {}};
  const std::size_t dom = with_labels ? lab.dominators().size() : 0;
  std::size_t at = kBlobHeaderBytes;
  const auto add = [&](const char* name, std::size_t len) {
    if (len > 0) in.sections.push_back({name, at, len});
    at += len;
  };
  add("fields", 32);
  add("dist", 4 * std::size_t{n} * n);
  add("next_hop", 4 * std::size_t{n} * n);
  add("dominators", 4 * dom);
  add("labels", 4 * std::size_t{n} * dom);
  add("active", n);
  add("status", n);
  add("checksum", 8);
  EXPECT_EQ(at, in.blob.size());
  return in;
}

std::vector<FramedInput> framed_inputs() {
  std::vector<FramedInput> out;
  out.push_back(dsvc_input());
  out.push_back(dqry_input(true));
  out.push_back(dqry_input(false));
  return out;
}

TEST(BlobFrame, EveryPrefixIsMissingOrTruncated) {
  for (const FramedInput& in : framed_inputs()) {
    ASSERT_EQ(in.classify(in.blob), CheckpointError::kNone) << in.name;
    for (std::size_t len = 0; len < in.blob.size(); ++len) {
      const CheckpointError want =
          len == 0 ? CheckpointError::kMissing : CheckpointError::kTruncated;
      EXPECT_EQ(in.classify(std::span(in.blob).first(len)), want)
          << in.name << " prefix of " << len << " bytes";
    }
  }
}

TEST(BlobFrame, EveryHeaderByteFlippedGetsItsCode) {
  for (const FramedInput& in : framed_inputs()) {
    for (std::size_t i = 0; i < kBlobHeaderBytes; ++i) {
      Bytes b = in.blob;
      b[i] ^= 0xff;
      CheckpointError want;
      if (i < 4) {
        want = CheckpointError::kBadMagic;
      } else if (i < 8) {
        want = CheckpointError::kVersionMismatch;
      } else {
        // The declared body length moved: fewer bytes than declared is a
        // truncation, more is damage.
        const std::uint64_t declared = load_u64(b.data() + 8);
        want = declared > b.size() - framed_size(0)
                   ? CheckpointError::kTruncated
                   : CheckpointError::kChecksumMismatch;
      }
      EXPECT_EQ(in.classify(b), want) << in.name << " header byte " << i;
    }
  }
}

TEST(BlobFrame, AppendedByteIsChecksumDamage) {
  for (const FramedInput& in : framed_inputs()) {
    Bytes b = in.blob;
    b.push_back(0);
    EXPECT_EQ(in.classify(b), CheckpointError::kChecksumMismatch) << in.name;
  }
}

TEST(BlobFrame, OneFlippedBitPerSectionIsChecksumDamage) {
  for (const FramedInput& in : framed_inputs()) {
    for (const Section& s : in.sections) {
      Bytes b = in.blob;
      b[s.begin + s.len / 2] ^= 0x04;
      EXPECT_EQ(in.classify(b), CheckpointError::kChecksumMismatch)
          << in.name << " section " << s.name;
    }
  }
}

// The checksum's guarantee: damage inside one 8-byte word is always caught.
// A flip in the tag gets the tag's code, one in the length field truncates
// or breaks the frame, and every other flip is checksum damage.
TEST(BlobFrame, EverySingleBitFlipIsCaught) {
  for (const FramedInput& in : {dsvc_input(), dqry_input(false)}) {
    for (std::size_t i = 0; i < in.blob.size(); ++i) {
      for (int bit = 0; bit < 8; ++bit) {
        Bytes b = in.blob;
        b[i] ^= static_cast<std::uint8_t>(1u << bit);
        const CheckpointError got = in.classify(b);
        if (i < 8) {
          EXPECT_NE(got, CheckpointError::kNone) << in.name << " byte " << i;
        } else if (i >= kBlobHeaderBytes) {
          EXPECT_EQ(got, CheckpointError::kChecksumMismatch)
              << in.name << " byte " << i << " bit " << bit;
        } else {
          EXPECT_TRUE(got == CheckpointError::kTruncated ||
                      got == CheckpointError::kChecksumMismatch)
              << in.name << " length byte " << i << " bit " << bit;
        }
      }
    }
  }
}

TEST(BlobFrame, PreviousVersionIsAVersionMismatch) {
  for (const FramedInput& in : {dsvc_input(), dqry_input(false)}) {
    Bytes b = in.blob;
    b[7] = '2';
    store_u64(b.data() + b.size() - 8,
              fnv1a64(std::span<const std::uint8_t>(b).first(b.size() - 8)));
    EXPECT_EQ(in.classify(b), CheckpointError::kVersionMismatch) << in.name;
  }
}

TEST(BlobFrame, ExtraBodyByteUnderRepairedFrameIsBadPayload) {
  for (const FramedInput& in : framed_inputs()) {
    Bytes b = in.blob;
    b.insert(b.end() - 8, 0);
    store_u64(b.data() + 8, load_u64(b.data() + 8) + 1);
    repair_checksum(b);
    EXPECT_EQ(in.classify(b), CheckpointError::kBadPayload) << in.name;
  }
}

TEST(BlobFrame, ServedSectionDisagreeingWithCheckpointIsBadPayload) {
  const FramedInput in = dsvc_input();
  Bytes b = in.blob;
  const std::size_t epoch_at = kBlobHeaderBytes + 4;
  store_u64(b.data() + epoch_at, load_u64(b.data() + epoch_at) + 1);
  repair_checksum(b);
  EXPECT_EQ(classify_checkpoint_blob(b), CheckpointError::kBadPayload);
  CheckpointError err = CheckpointError::kNone;
  EXPECT_FALSE(DapspService::try_restore_blob(b, {}, nullptr, &err));
  EXPECT_EQ(err, CheckpointError::kBadPayload);
}

TEST(BlobFrame, DqryTablesStayFourByteAligned) {
  for (const bool labels : {false, true}) {
    const QuerySnapshot snap =
        QuerySnapshot::from_blob(dqry_input(labels).blob);
    const auto addr = reinterpret_cast<std::uintptr_t>(snap.dist_row(0).data());
    EXPECT_EQ(addr % 4, 0u);
    EXPECT_EQ(addr - reinterpret_cast<std::uintptr_t>(snap.bytes().data()),
              48u);
  }
}

// ------------------------------------------------------------- round trips

TEST(BlobRoundTrip, RestoreThenCheckpointIsByteIdentical) {
  DapspService svc = churned_service();
  const std::uint64_t words[2] = {42, 43};
  const Bytes blob = svc.checkpoint_blob(words);
  std::uint64_t epoch = 0;
  ASSERT_EQ(classify_checkpoint_blob(blob, &epoch), CheckpointError::kNone);
  EXPECT_EQ(epoch, svc.epoch());

  std::vector<std::uint64_t> restored_words;
  DapspService twin = DapspService::restore_blob(blob, {}, &restored_words);
  EXPECT_EQ(restored_words, std::vector<std::uint64_t>(words, words + 2));
  EXPECT_EQ(twin.checkpoint_blob(words), blob);

  // The checkpoint's last section is the served snapshot in DQRY form.
  const std::size_t len = query_blob_size(twin.dynamic_graph().universe());
  const std::span<const std::uint8_t> section =
      std::span(blob).subspan(blob.size() - 8 - len, len);
  const Bytes again = encode_query_snapshot(twin, 0, false);
  EXPECT_TRUE(std::equal(section.begin(), section.end(), again.begin(),
                         again.end()));
}

// ------------------------------------------------------------------- DJRN

Bytes read_all(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  return Bytes(std::istreambuf_iterator<char>(in), {});
}

void write_all(const std::string& path, const Bytes& b) {
  std::ofstream out(path, std::ios::binary | std::ios::trunc);
  out.write(reinterpret_cast<const char*>(b.data()),
            static_cast<std::streamsize>(b.size()));
}

std::string journal_path(const char* name) {
  const fs::path dir = fs::path(::testing::TempDir()) / "blob_codec";
  fs::create_directories(dir);
  return (dir / name).string();
}

TEST(JournalFormat, HeaderAndRecordsKeepTheirBytes) {
  const std::string path = journal_path("format.djrn");
  const Bytes payload = {1, 2, 3, 250};
  {
    JournalWriter w(path, FileSink::Mode::kTruncate);
    w.append(payload);
  }
  Bytes want = {'D', 'J', 'R', 'N', 2, 0, 0, 0, 4, 0, 0, 0};
  want.resize(want.size() + 8);
  store_u64(want.data() + want.size() - 8, frame_checksum(payload));
  want.insert(want.end(), payload.begin(), payload.end());
  EXPECT_EQ(read_all(path), want);
}

TEST(JournalFormat, HeaderDamageGetsTheSharedCodes) {
  const std::string path = journal_path("header.djrn");
  { JournalWriter w(path, FileSink::Mode::kTruncate); }
  const Bytes header = read_all(path);
  ASSERT_EQ(header.size(), kJournalHeaderBytes);
  EXPECT_EQ(check_blob_tag(header, kJournalTag), CheckpointError::kNone);

  for (std::size_t len = 0; len < header.size(); ++len) {
    const Bytes prefix(header.begin(),
                       header.begin() + static_cast<std::ptrdiff_t>(len));
    EXPECT_EQ(check_blob_tag(prefix, kJournalTag),
              len == 0 ? CheckpointError::kMissing
                       : CheckpointError::kTruncated)
        << "prefix of " << len;
    write_all(path, prefix);
    EXPECT_EQ(scan_journal(path).error, JournalError::kTornHeader);
  }
  for (std::size_t i = 0; i < header.size(); ++i) {
    Bytes b = header;
    b[i] ^= 0xff;
    const bool magic = i < 4;
    EXPECT_EQ(check_blob_tag(b, kJournalTag),
              magic ? CheckpointError::kBadMagic
                    : CheckpointError::kVersionMismatch)
        << "header byte " << i;
    write_all(path, b);
    EXPECT_EQ(scan_journal(path).error,
              magic ? JournalError::kBadMagic : JournalError::kVersionMismatch)
        << "header byte " << i;
  }
  Bytes appended = header;
  appended.push_back(0);
  write_all(path, appended);
  EXPECT_EQ(scan_journal(path).error, JournalError::kTornTail);
}

TEST(JournalFormat, FlippedRecordBitIsATornTail) {
  const std::string path = journal_path("record.djrn");
  const Bytes payload = {9, 8, 7, 6, 5};
  {
    JournalWriter w(path, FileSink::Mode::kTruncate);
    w.append(payload);
  }
  const Bytes clean = read_all(path);
  // One bit in each record section: length, checksum, payload.
  const std::size_t rec = kJournalHeaderBytes;
  for (const std::size_t at : {rec + 1, rec + 4 + 2, clean.size() - 2}) {
    Bytes b = clean;
    b[at] ^= 0x10;
    write_all(path, b);
    const JournalScan scan = scan_journal(path);
    EXPECT_EQ(scan.error, JournalError::kTornTail) << "byte " << at;
    EXPECT_EQ(scan.valid_bytes, kJournalHeaderBytes) << "byte " << at;
    EXPECT_TRUE(scan.records.empty()) << "byte " << at;
  }
}

TEST(JournalFormat, EverySingleBitFlipIsCaught) {
  const std::string path = journal_path("flips.djrn");
  {
    JournalWriter w(path, FileSink::Mode::kTruncate);
    w.append(Bytes{3, 1, 4, 1, 5, 9, 2, 6, 5, 3, 5});
  }
  const Bytes clean = read_all(path);
  ASSERT_EQ(scan_journal(path).error, JournalError::kNone);
  for (std::size_t i = 0; i < clean.size(); ++i) {
    for (int bit = 0; bit < 8; ++bit) {
      Bytes b = clean;
      b[i] ^= static_cast<std::uint8_t>(1u << bit);
      write_all(path, b);
      const JournalScan scan = scan_journal(path);
      EXPECT_NE(scan.error, JournalError::kNone)
          << "byte " << i << " bit " << bit;
      EXPECT_TRUE(scan.records.empty()) << "byte " << i << " bit " << bit;
    }
  }
}

}  // namespace
}  // namespace dapsp::core
