#include "util/blob.h"

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
      fnv1a64(blob.first(sum_at)) != load_u64(blob.data() + sum_at)) {
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
  store_u64(blob.data() + sum_at, fnv1a64(blob.first(sum_at)));
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
  std::ifstream in(path, std::ios::binary);
  if (!in) {
    throw std::runtime_error("MappedBlob: cannot open " + path);
  }
  b.owned_.assign((std::istreambuf_iterator<char>(in)),
                  std::istreambuf_iterator<char>());
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
