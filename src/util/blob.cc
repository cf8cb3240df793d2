#include "util/blob.h"

#include <bit>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <stdexcept>

#if defined(__unix__) || defined(__APPLE__)
#define DAPSP_HAVE_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace dapsp {

const char* to_string(CheckpointError e) noexcept {
  switch (e) {
    case CheckpointError::kNone:
      return "none";
    case CheckpointError::kMissing:
      return "missing";
    case CheckpointError::kTruncated:
      return "truncated";
    case CheckpointError::kBadMagic:
      return "bad-magic";
    case CheckpointError::kVersionMismatch:
      return "version-mismatch";
    case CheckpointError::kChecksumMismatch:
      return "checksum-mismatch";
    case CheckpointError::kBadPayload:
      return "bad-payload";
  }
  return "?";
}

namespace {

// xxHash64's primes and round (see the header comment of blob.h).
constexpr std::uint64_t kP1 = 0x9e3779b185ebca87ULL;
constexpr std::uint64_t kP2 = 0xc2b2ae3d27d4eb4fULL;
constexpr std::uint64_t kP3 = 0x165667b19e3779f9ULL;
constexpr std::uint64_t kP5 = 0x27d4eb2f165667c5ULL;

// A bijection of `acc` for fixed `w` and of `w` for fixed `acc` (P1 and P2
// are odd).
constexpr std::uint64_t mix_round(std::uint64_t acc, std::uint64_t w) noexcept {
  return std::rotl(acc + w * kP2, 31) * kP1;
}

}  // namespace

std::uint64_t frame_checksum(std::span<const std::uint8_t> bytes) noexcept {
  const std::uint8_t* p = bytes.data();
  const std::size_t words = bytes.size() / 8;
  // Word i feeds lane i % 4; the four chains run independently. The lanes
  // start at xxHash64's seed-0 values.
  std::uint64_t a = kP1 + kP2, b = kP2, c = 0, d = 0 - kP1;
  std::size_t i = 0;
  for (; i + 4 <= words; i += 4, p += 32) {
    a = mix_round(a, load_u64(p));
    b = mix_round(b, load_u64(p + 8));
    c = mix_round(c, load_u64(p + 16));
    d = mix_round(d, load_u64(p + 24));
  }
  const std::size_t rest = words - i;  // 0-3 words left, for a, b, c
  if (rest > 0) a = mix_round(a, load_u64(p));
  if (rest > 1) b = mix_round(b, load_u64(p + 8));
  if (rest > 2) c = mix_round(c, load_u64(p + 16));
  p += 8 * rest;
  std::uint64_t tail = 0;
  for (std::size_t k = 0; k < bytes.size() % 8; ++k) {
    tail |= std::uint64_t{p[k]} << (8 * k);
  }
  const std::uint64_t len = bytes.size();
  std::uint64_t h = kP5;
  for (const std::uint64_t w : {a, b, c, d, tail, len}) h = mix_round(h, w);
  h ^= h >> 33;
  h *= kP2;
  h ^= h >> 29;
  h *= kP3;
  h ^= h >> 32;
  return h;
}

std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes,
                      std::uint64_t h) noexcept {
  for (const std::uint8_t b : bytes) {
    h ^= b;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::uint64_t fnv1a64_u64(std::uint64_t h, std::uint64_t word) noexcept {
  std::uint8_t le[8];
  store_u64(le, word);
  return fnv1a64(le, h);
}

std::span<std::uint8_t> ByteWriter::take(std::size_t k) {
  if (rest_.size() < k) throw std::logic_error("ByteWriter: write past end");
  const std::span<std::uint8_t> s = rest_.first(k);
  rest_ = rest_.subspan(k);
  return s;
}

std::span<const std::uint8_t> ByteReader::take(std::uint64_t count,
                                               std::size_t width) {
  if (count > rest_.size() / width) {
    throw std::runtime_error(std::string(context_) + ": truncated input");
  }
  const std::span<const std::uint8_t> s =
      rest_.first(static_cast<std::size_t>(count) * width);
  rest_ = rest_.subspan(s.size());
  return s;
}

CheckpointError check_blob_tag(std::span<const std::uint8_t> bytes,
                               const BlobTag& tag) noexcept {
  if (bytes.empty()) return CheckpointError::kMissing;
  if (bytes.size() < tag.size()) return CheckpointError::kTruncated;
  if (std::memcmp(bytes.data(), tag.data(), 4) != 0) {
    return CheckpointError::kBadMagic;
  }
  if (std::memcmp(bytes.data() + 4, tag.data() + 4, 4) != 0) {
    return CheckpointError::kVersionMismatch;
  }
  return CheckpointError::kNone;
}

CheckpointError open_blob(std::span<const std::uint8_t> blob,
                          const BlobTag& tag,
                          std::span<const std::uint8_t>& body) noexcept {
  const CheckpointError err = check_blob_tag(blob, tag);
  if (err != CheckpointError::kNone) return err;
  if (blob.size() < framed_size(0)) return CheckpointError::kTruncated;
  const std::uint64_t declared = load_u64(blob.data() + tag.size());
  const std::uint64_t actual = blob.size() - framed_size(0);
  if (declared > actual) return CheckpointError::kTruncated;
  const std::size_t sum_at = blob.size() - 8;
  if (declared < actual ||
      frame_checksum(blob.first(sum_at)) != load_u64(blob.data() + sum_at)) {
    return CheckpointError::kChecksumMismatch;
  }
  body = blob.subspan(kBlobHeaderBytes, static_cast<std::size_t>(actual));
  return CheckpointError::kNone;
}

ByteWriter begin_blob(std::span<std::uint8_t> blob, const BlobTag& tag) {
  if (blob.size() < framed_size(0)) throw std::logic_error("begin_blob: short");
  ByteWriter w(blob);
  std::memcpy(w.take(tag.size()).data(), tag.data(), tag.size());
  w.u64(blob.size() - framed_size(0));
  return ByteWriter(blob.subspan(kBlobHeaderBytes, w.left() - 8));
}

void seal_blob(std::span<std::uint8_t> blob, const ByteWriter& body) {
  if (body.left() != 0) throw std::logic_error("seal_blob: body not filled");
  const std::size_t sum_at = blob.size() - 8;
  store_u64(blob.data() + sum_at, frame_checksum(blob.first(sum_at)));
}

std::optional<std::vector<std::uint8_t>> read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary | std::ios::ate);
  if (!in) return std::nullopt;
  const std::streamoff size = in.tellg();
  if (size < 0) throw std::runtime_error("read_file: cannot size " + path);
  std::vector<std::uint8_t> bytes(static_cast<std::size_t>(size));
  in.seekg(0);
  in.read(reinterpret_cast<char*>(bytes.data()),
          static_cast<std::streamsize>(bytes.size()));
  if (in.bad()) throw std::runtime_error("read_file: cannot read " + path);
  bytes.resize(static_cast<std::size_t>(in.gcount()));
  return bytes;
}

MappedBlob& MappedBlob::operator=(MappedBlob&& other) noexcept {
  if (this != &other) {
    reset();
    data_ = other.data_;
    size_ = other.size_;
    mapped_ = other.mapped_;
    owned_ = std::move(other.owned_);
    other.data_ = nullptr;
    other.size_ = 0;
    other.mapped_ = false;
    if (!mapped_ && size_ > 0) data_ = owned_.data();
  }
  return *this;
}

void MappedBlob::reset() noexcept {
#ifdef DAPSP_HAVE_MMAP
  if (mapped_ && data_ != nullptr) {
    ::munmap(const_cast<std::uint8_t*>(data_), size_);
  }
#endif
  data_ = nullptr;
  size_ = 0;
  mapped_ = false;
  owned_.clear();
}

MappedBlob MappedBlob::map_file(const std::string& path) {
  MappedBlob b;
#ifdef DAPSP_HAVE_MMAP
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) {
    throw std::runtime_error("MappedBlob: cannot open " + path);
  }
  struct stat st {};
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    throw std::runtime_error("MappedBlob: cannot stat " + path);
  }
  const std::size_t size = static_cast<std::size_t>(st.st_size);
  if (size == 0) {
    ::close(fd);
    return b;
  }
  void* p = ::mmap(nullptr, size, PROT_READ, MAP_PRIVATE, fd, 0);
  ::close(fd);
  if (p != MAP_FAILED) {
    b.data_ = static_cast<const std::uint8_t*>(p);
    b.size_ = size;
    b.mapped_ = true;
    return b;
  }
#endif
  // Fallback: plain read into owned memory.
  std::optional<std::vector<std::uint8_t>> bytes = read_file(path);
  if (!bytes) {
    throw std::runtime_error("MappedBlob: cannot open " + path);
  }
  b.owned_ = std::move(*bytes);
  b.data_ = b.owned_.data();
  b.size_ = b.owned_.size();
  b.mapped_ = false;
  return b;
}

void write_blob_atomic(const std::string& path,
                       std::span<const std::uint8_t> bytes) {
  const std::string tmp = path + ".tmp";
  {
    std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
    if (!out) {
      throw std::runtime_error("write_blob_atomic: cannot write " + tmp);
    }
    out.write(reinterpret_cast<const char*>(bytes.data()),
              static_cast<std::streamsize>(bytes.size()));
    out.flush();
    if (!out) {
      throw std::runtime_error("write_blob_atomic: write failed for " + tmp);
    }
  }
  if (std::rename(tmp.c_str(), path.c_str()) != 0) {
    std::remove(tmp.c_str());
    throw std::runtime_error("write_blob_atomic: rename failed for " + path);
  }
}

}  // namespace dapsp
