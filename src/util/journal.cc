#include "util/journal.h"

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <optional>

namespace dapsp {

// ------------------------------------------------------------------ FileSink

struct FileSink::Impl {
  std::ofstream out;
};

FileSink::FileSink(const std::string& path, Mode mode, CrashPoint* crash)
    : impl_(new Impl), crash_(crash) {
  const auto flags = std::ios::binary | std::ios::out |
                     (mode == Mode::kAppend ? std::ios::app : std::ios::trunc);
  impl_->out.open(path, flags);
  if (!impl_->out) {
    delete impl_;
    throw std::runtime_error("FileSink: cannot open " + path);
  }
}

FileSink::~FileSink() { delete impl_; }

void FileSink::write(std::span<const std::uint8_t> bytes) {
  std::size_t allowed = bytes.size();
  bool fire = false;
  if (crash_ != nullptr && crash_->kill_at_byte != 0) {
    const std::uint64_t room = crash_->kill_at_byte > crash_->written
                                   ? crash_->kill_at_byte - crash_->written
                                   : 0;
    if (room < bytes.size()) {
      allowed = static_cast<std::size_t>(room);
      fire = true;
    }
  }
  if (allowed > 0) {
    impl_->out.write(reinterpret_cast<const char*>(bytes.data()),
                     static_cast<std::streamsize>(allowed));
    if (!impl_->out) throw std::runtime_error("FileSink: write failed");
    if (crash_ != nullptr) crash_->written += allowed;
  }
  if (fire) {
    // The prefix is durable, the rest of this write is lost — exactly a
    // process kill at this byte offset.
    impl_->out.flush();
    if (crash_->hard_exit) {
      std::fprintf(stderr, "killed at durable byte %llu (by request)\n",
                   static_cast<unsigned long long>(crash_->written));
      std::_Exit(42);
    }
    throw CrashPointReached(crash_->written);
  }
}

void FileSink::flush() {
  impl_->out.flush();
  if (!impl_->out) throw std::runtime_error("FileSink: flush failed");
}

// ------------------------------------------------------------------- journal

const char* to_string(JournalError e) noexcept {
  switch (e) {
    case JournalError::kNone:
      return "none";
    case JournalError::kMissing:
      return "missing";
    case JournalError::kTornHeader:
      return "torn-header";
    case JournalError::kBadMagic:
      return "bad-magic";
    case JournalError::kVersionMismatch:
      return "version-mismatch";
    case JournalError::kTornTail:
      return "torn-tail";
  }
  return "?";
}

JournalScan scan_journal(const std::string& path) {
  JournalScan scan;
  const std::optional<std::vector<std::uint8_t>> file = read_file(path);
  if (!file) {
    scan.error = JournalError::kMissing;
    return scan;
  }
  const std::vector<std::uint8_t>& b = *file;
  scan.file_bytes = b.size();
  switch (check_blob_tag(b, kJournalTag)) {
    case CheckpointError::kNone:
      break;
    case CheckpointError::kBadMagic:
      scan.error = JournalError::kBadMagic;
      return scan;
    case CheckpointError::kVersionMismatch:
      scan.error = JournalError::kVersionMismatch;
      return scan;
    default:  // fewer than 8 bytes: a crash before the header landed
      scan.error = JournalError::kTornHeader;
      return scan;
  }
  // The longest prefix of whole records. Whatever follows it — a partial
  // record header, a partial (or absurd) payload, a record whose checksum
  // breaks — is a torn tail, dropped from that record on (crash-only fault
  // model, see header).
  scan.valid_bytes = kJournalHeaderBytes;
  ByteReader r(std::span<const std::uint8_t>(b).subspan(kJournalHeaderBytes),
               "scan_journal");
  try {
    while (r.left() > 0) {
      const std::uint32_t len = r.u32();
      const std::uint64_t want = r.u64();
      if (len > kJournalMaxPayload) break;
      const std::span<const std::uint8_t> payload = r.take(len);
      if (frame_checksum(payload) != want) break;
      scan.records.emplace_back(payload.begin(), payload.end());
      scan.valid_bytes += 4 + 8 + std::uint64_t{len};
    }
  } catch (const std::runtime_error&) {
  }
  if (scan.valid_bytes < b.size()) scan.error = JournalError::kTornTail;
  return scan;
}

bool repair_journal(const std::string& path) {
  const JournalScan scan = scan_journal(path);
  switch (scan.error) {
    case JournalError::kNone:
    case JournalError::kMissing:
      return false;
    case JournalError::kBadMagic:
    case JournalError::kVersionMismatch:
      throw std::runtime_error("repair_journal: " + path + " is " +
                               to_string(scan.error) +
                               " — refusing to truncate a foreign file");
    case JournalError::kTornHeader:
      // Nothing durable inside — remove the husk entirely (a zero-byte
      // file would classify as torn forever).
      std::filesystem::remove(path);
      return true;
    case JournalError::kTornTail:
      break;
  }
  std::filesystem::resize_file(path, scan.valid_bytes);
  return true;
}

namespace {

// Only a journal that already has its header is continued in place; a
// missing or header-less file is (re)started fresh.
bool has_header(const std::string& path) {
  std::error_code ec;
  const auto size = std::filesystem::file_size(path, ec);
  return !ec && size >= kJournalHeaderBytes;
}

}  // namespace

JournalWriter::JournalWriter(const std::string& path, FileSink::Mode mode,
                             CrashPoint* crash)
    : sink_(path,
            mode == FileSink::Mode::kAppend && has_header(path)
                ? FileSink::Mode::kAppend
                : FileSink::Mode::kTruncate,
            crash) {
  if (has_header(path)) return;  // appending to an existing journal
  sink_.write(kJournalTag);
  sink_.flush();
}

std::uint64_t JournalWriter::append(std::span<const std::uint8_t> payload) {
  if (payload.size() > kJournalMaxPayload) {
    throw std::invalid_argument("JournalWriter::append: payload too large");
  }
  std::uint8_t head[4 + 8];
  store_u32(head, static_cast<std::uint32_t>(payload.size()));
  store_u64(head + 4, frame_checksum(payload));
  sink_.write(head);
  sink_.write(payload);
  sink_.flush();
  return sizeof(head) + payload.size();
}

}  // namespace dapsp
