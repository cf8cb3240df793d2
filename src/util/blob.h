// Shared blob-file conventions (DESIGN.md §15): the one frame of every
// durable artifact, its codec and failure taxonomy, read-only memory mapping
// and atomic writes. The frame, all little-endian:
//
//   magic[4] | version[4] | u64 body_len | body | u64 frame_checksum(prefix)
//
// where the prefix is every byte before the checksum.
//
// DSVC checkpoints (core/service.h) and DQRY query snapshots (core/query.h)
// are framed blobs, both at version 0003; the body starts at offset 16, so
// 4-byte fields at 4-byte body offsets stay aligned. DJRN journals
// (util/journal.h, version 2) share the 8-byte tag and the checksum but are
// an append-only record stream.
//
// frame_checksum reads the bytes as little-endian u64 words into four
// independent lanes with the xxHash64 round acc = rotl(acc + w*P2, 31)*P1,
// folds the lanes, a zero-padded byte tail and the length into one value
// with the same round, and ends with xxHash64's avalanche. Every step is a
// bijection of the state it updates, so damage confined to one 8-byte word
// (any single-bit flip included) always changes the checksum. It is not
// xxHash64: the lane fold differs, to keep that guarantee.
#pragma once

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <string>
#include <utility>
#include <vector>

namespace dapsp {

// The frame is little-endian, and u32 arrays (table rows) are copied to and
// from it with memcpy; the DQRY read path also hands out u32 views straight
// into the blob. Every target this repo builds for is LE; refuse to compile
// elsewhere rather than write or serve byte-swapped tables.
static_assert(std::endian::native == std::endian::little,
              "blob frames assume a little-endian host");

// Why a blob was rejected — one answer per failure, for every blob kind.
// kTruncated is what a process kill mid-write leaves; kVersionMismatch is a
// blob from another format version and must not be repaired away.
enum class CheckpointError : std::uint8_t {
  kNone = 0,
  kMissing = 1,           // no bytes at all
  kTruncated = 2,         // < 16 bytes, or fewer bytes than declared
  kBadMagic = 3,          // not this kind of blob
  kVersionMismatch = 4,   // right magic, different version
  kChecksumMismatch = 5,  // more bytes than declared, or a broken checksum
  kBadPayload = 6,        // checksum holds but the structure is inconsistent
};

const char* to_string(CheckpointError e) noexcept;

// The checksum of every frame and journal record (see the header comment).
std::uint64_t frame_checksum(std::span<const std::uint8_t> bytes) noexcept;

inline constexpr std::uint64_t kFnv1a64Basis = 0xcbf29ce484222325ULL;

// FNV-1a 64 over `bytes`, continuing from `h`; fnv1a64_u64 steps over the 8
// little-endian bytes of one word. These are the determinism digests'
// accumulators, not a frame checksum.
std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes,
                      std::uint64_t h = kFnv1a64Basis) noexcept;
std::uint64_t fnv1a64_u64(std::uint64_t h, std::uint64_t word) noexcept;

inline void store_u32(std::uint8_t* p, std::uint32_t v) noexcept {
  for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}
inline void store_u64(std::uint8_t* p, std::uint64_t v) noexcept {
  store_u32(p, static_cast<std::uint32_t>(v));
  store_u32(p + 4, static_cast<std::uint32_t>(v >> 32));
}
inline std::uint32_t load_u32(const std::uint8_t* p) noexcept {
  return std::uint32_t{p[0]} | std::uint32_t{p[1]} << 8 |
         std::uint32_t{p[2]} << 16 | std::uint32_t{p[3]} << 24;
}
inline std::uint64_t load_u64(const std::uint8_t* p) noexcept {
  return std::uint64_t{load_u32(p)} | std::uint64_t{load_u32(p + 4)} << 32;
}

// In-place writer over a buffer sized up front. Throws std::logic_error
// when a write would run past the end.
class ByteWriter {
 public:
  explicit ByteWriter(std::span<std::uint8_t> out) : rest_(out) {}

  std::size_t left() const noexcept { return rest_.size(); }
  // The next `k` bytes, for the caller to fill in place.
  std::span<std::uint8_t> take(std::size_t k);
  void u8(std::uint8_t v) { take(1)[0] = v; }
  void u32(std::uint32_t v) { store_u32(take(4).data(), v); }
  void u64(std::uint64_t v) { store_u64(take(8).data(), v); }
  // A u32 array, e.g. every cell of a table.
  void u32s(std::span<const std::uint32_t> vs) {
    std::uint8_t* p = take(4 * vs.size()).data();
    if (!vs.empty()) std::memcpy(p, vs.data(), 4 * vs.size());
  }

 private:
  std::span<std::uint8_t> rest_;
};

// Bounds-checked reader over borrowed bytes. Throws std::runtime_error with
// `context` in the message when a read would run past the end.
class ByteReader {
 public:
  ByteReader(std::span<const std::uint8_t> bytes, const char* context)
      : rest_(bytes), context_(context) {}

  std::size_t left() const noexcept { return rest_.size(); }
  // The next `count` elements of `width` bytes each, as a view.
  std::span<const std::uint8_t> take(std::uint64_t count,
                                     std::size_t width = 1);
  std::uint8_t u8() { return take(1)[0]; }
  std::uint32_t u32() { return load_u32(take(4).data()); }
  std::uint64_t u64() { return load_u64(take(8).data()); }
  void u32s(std::span<std::uint32_t> out) {
    const std::uint8_t* p = take(out.size(), 4).data();
    if (!out.empty()) std::memcpy(out.data(), p, 4 * out.size());
  }

 private:
  std::span<const std::uint8_t> rest_;
  const char* context_;
};

// ---- The frame -------------------------------------------------------------

// magic[4] | version[4], e.g. {'D', 'Q', 'R', 'Y', '0', '0', '0', '3'}.
using BlobTag = std::array<std::uint8_t, 8>;
inline constexpr std::size_t kBlobHeaderBytes = 16;

constexpr std::uint64_t framed_size(std::uint64_t body_len) noexcept {
  return kBlobHeaderBytes + body_len + 8;
}

// The tag check every blob kind shares, journals included: 0 bytes ->
// kMissing, fewer than 8 -> kTruncated, then magic, then version.
CheckpointError check_blob_tag(std::span<const std::uint8_t> bytes,
                               const BlobTag& tag) noexcept;
// The frame checks (see CheckpointError); on kNone, `body` receives the
// body. A format's own parser then decides kBadPayload.
CheckpointError open_blob(std::span<const std::uint8_t> blob,
                          const BlobTag& tag,
                          std::span<const std::uint8_t>& body) noexcept;

// Writes tag and body length into `blob` (framed_size(body_len) bytes) and
// returns a writer over the body; seal_blob checks the writer filled it
// exactly and writes the checksum.
ByteWriter begin_blob(std::span<std::uint8_t> blob, const BlobTag& tag);
void seal_blob(std::span<std::uint8_t> blob, const ByteWriter& body);

// ---- Files -----------------------------------------------------------------

// Every byte of the file at `path`, in one sized read; nullopt when it
// cannot be opened (absent). Throws std::runtime_error on a read error.
std::optional<std::vector<std::uint8_t>> read_file(const std::string& path);

// A read-only view of a file's bytes, mmap'd when the platform allows it
// (zero-copy: the query tier serves point lookups straight off the page
// cache) with a plain read-into-memory fallback. The view is immutable and
// stable for the object's lifetime, which is exactly the contract the
// lock-free snapshot store needs.
class MappedBlob {
 public:
  MappedBlob() = default;
  ~MappedBlob() { reset(); }

  MappedBlob(MappedBlob&& other) noexcept { *this = std::move(other); }
  MappedBlob& operator=(MappedBlob&& other) noexcept;
  MappedBlob(const MappedBlob&) = delete;
  MappedBlob& operator=(const MappedBlob&) = delete;

  // Maps `path` read-only. Throws std::runtime_error when the file cannot be
  // opened; an empty file maps to an empty span. Falls back to reading the
  // bytes into memory when mmap is unavailable.
  static MappedBlob map_file(const std::string& path);

  std::span<const std::uint8_t> bytes() const noexcept {
    return {data_, size_};
  }

 private:
  void reset() noexcept;

  const std::uint8_t* data_ = nullptr;
  std::size_t size_ = 0;
  bool mapped_ = false;                // munmap on destruction
  std::vector<std::uint8_t> owned_;    // fallback storage
};

// Writes `bytes` to `path` via a sibling temp file + rename — the same
// never-tear discipline as the durable layer's checkpoint rotation: a reader
// (or a crash) observes the old bytes or the whole new bytes, never a
// prefix. Throws std::runtime_error on any I/O failure; on failure the
// target is untouched.
void write_blob_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes);

}  // namespace dapsp
