// Flat-memory primitives for the round engine's hot path (DESIGN.md §16).
//
// The CONGEST engine steps thousands of rounds; before this header existed,
// every round touched O(n) little `std::vector`s (per-node outboxes, delivery
// lists, event buffers), so the round loop was allocation- and pointer-chase
// bound instead of compute-bound. These types replace that idiom with flat,
// pooled, structure-of-arrays buffers:
//
//   * BumpArena<T> — a bump-pointer buffer of trivially copyable records.
//     push() bumps a cursor; reset() rewinds it WITHOUT freeing, so after a
//     warm-up round the steady-state round loop performs zero heap
//     allocations (tests/test_arena.cc pins this with an operator-new hook).
//     Under AddressSanitizer the tail [size, capacity) is manually poisoned
//     on every reset, so any read of a stale span from a previous round —
//     the classic arena-reuse bug — faults immediately instead of yielding
//     quietly wrong bytes. Slab growths are counted in a global probe
//     (arena_slab_allocations()) so tests can assert "no growth after
//     warm-up" without instrumenting malloc.
//
//   * CacheAligned<T> — pads a per-shard counter block to a cache line so
//     concurrent shards never false-share (the 8-thread scaling cliff in the
//     pre-flat engine was partly adjacent ShardAccums sharing lines).
//
//   * Bitset — a flat word-array bitset for per-round frontier/exclusion
//     sets (core/pebble_apsp.cc uses one to mark same-round flood senders
//     instead of per-root `std::vector` scans).
//
// All three are deliberately minimal: no iterators beyond span(), no
// erase, no non-trivial element types. The engine's determinism contract
// (DESIGN.md §11) depends only on WHAT is stored, never on where; these
// buffers change the where.
#pragma once

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <memory>
#include <span>
#include <type_traits>
#include <vector>

#if defined(__SANITIZE_ADDRESS__)
#define DAPSP_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DAPSP_ASAN 1
#endif
#endif

#ifndef DAPSP_ASAN
#define DAPSP_ASAN 0
#endif

#if DAPSP_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace dapsp {

inline constexpr std::size_t kCacheLineBytes = 64;

// Slab (backing-store) allocations performed by every BumpArena in the
// process since start. Steady-state round loops must not move this: a test
// snapshots it, runs N rounds, and asserts the delta is zero (capacity was
// reused, nothing grew). The counter is relaxed-atomic underneath — shards
// grow their own arenas concurrently — but tests read it at quiescent points.
std::uint64_t arena_slab_allocations() noexcept;

namespace detail {
void count_arena_slab_allocation() noexcept;

inline void poison(const void* p, std::size_t bytes) noexcept {
#if DAPSP_ASAN
  __asan_poison_memory_region(p, bytes);
#else
  (void)p;
  (void)bytes;
#endif
}

inline void unpoison(const void* p, std::size_t bytes) noexcept {
#if DAPSP_ASAN
  __asan_unpoison_memory_region(p, bytes);
#else
  (void)p;
  (void)bytes;
#endif
}
}  // namespace detail

// Bump-pointer buffer of trivially copyable records. Owned by exactly one
// shard/thread at a time; not thread-safe by itself.
template <typename T>
class BumpArena {
  static_assert(std::is_trivially_copyable_v<T>,
                "BumpArena records are memcpy-moved on growth");

 public:
  BumpArena() = default;
  ~BumpArena() {
    if (data_ != nullptr) {
      detail::unpoison(data_, capacity_ * sizeof(T));
      std::allocator<T>{}.deallocate(data_, capacity_);
    }
  }
  BumpArena(const BumpArena&) = delete;
  BumpArena& operator=(const BumpArena&) = delete;
  BumpArena(BumpArena&& other) noexcept { swap(other); }
  BumpArena& operator=(BumpArena&& other) noexcept {
    swap(other);
    return *this;
  }

  std::size_t size() const noexcept { return size_; }
  std::size_t capacity() const noexcept { return capacity_; }
  bool empty() const noexcept { return size_ == 0; }
  const T* data() const noexcept { return data_; }

  const T& operator[](std::size_t i) const noexcept { return data_[i]; }
  T& operator[](std::size_t i) noexcept { return data_[i]; }

  // Everything pushed since the last reset(), in push order.
  std::span<const T> span() const noexcept { return {data_, size_}; }
  // The records [first, first + count) — for per-node segments registered as
  // (mark, size-mark) pairs. Resolved at call time, so arena growth between
  // registration and read never invalidates a segment.
  std::span<const T> span(std::size_t first, std::size_t count) const noexcept {
    return {data_ + first, count};
  }

  // Cursor position, for delimiting a segment before a batch of pushes.
  std::size_t mark() const noexcept { return size_; }

  // Rewinds the cursor. Capacity (and the backing slab) are retained — this
  // is the "reset per round without freeing" half of the arena contract.
  // Under ASan the whole retained region is poisoned; stale spans from
  // before the reset fault on first touch.
  void reset() noexcept {
    size_ = 0;
    detail::poison(data_, capacity_ * sizeof(T));
  }

  T& push(const T& v) {
    if (size_ == capacity_) grow(size_ + 1);
    detail::unpoison(data_ + size_, sizeof(T));
    T* slot = data_ + size_;
    std::memcpy(static_cast<void*>(slot), &v, sizeof(T));
    ++size_;
    return *slot;
  }

  // Pre-grows the slab to hold at least `n` records (no size change). The
  // engine calls this once at init so steady-state rounds never grow.
  void reserve(std::size_t n) {
    if (n > capacity_) grow(n);
  }

 private:
  void swap(BumpArena& other) noexcept {
    std::swap(data_, other.data_);
    std::swap(size_, other.size_);
    std::swap(capacity_, other.capacity_);
  }

  void grow(std::size_t need) {
    std::size_t cap = capacity_ == 0 ? 16 : capacity_ * 2;
    if (cap < need) cap = need;
    T* fresh = std::allocator<T>{}.allocate(cap);
    detail::count_arena_slab_allocation();
    if (size_ != 0) {
      std::memcpy(static_cast<void*>(fresh), data_, size_ * sizeof(T));
    }
    if (data_ != nullptr) {
      detail::unpoison(data_, capacity_ * sizeof(T));
      std::allocator<T>{}.deallocate(data_, capacity_);
    }
    data_ = fresh;
    capacity_ = cap;
    detail::poison(data_ + size_, (capacity_ - size_) * sizeof(T));
  }

  T* data_ = nullptr;
  std::size_t size_ = 0;
  std::size_t capacity_ = 0;
};

// Pads T to a cache line so per-shard instances in one array never share a
// line. alignof is the line size, so std::vector<CacheAligned<T>> lays the
// elements out one per line (C++17 aligned operator new).
template <typename T>
struct alignas(kCacheLineBytes) CacheAligned {
  T value{};
};

// Flat word-array bitset sized at run time. Unlike std::vector<bool> the
// word array is directly addressable, and clear_prefix() lets a per-round
// user wipe only the words it dirtied.
class Bitset {
 public:
  void resize(std::size_t bits) {
    words_.assign((bits + 63) / 64, 0);
    bits_ = bits;
  }
  // Grows to at least `bits` without clearing existing words (new words are
  // zero). For per-round sets that expand as slots are discovered.
  void ensure(std::size_t bits) {
    if (bits > bits_) {
      words_.resize((bits + 63) / 64, 0);
      bits_ = bits;
    }
  }
  std::size_t size() const noexcept { return bits_; }
  // The word array: bit i is bit i % 64 of words()[i / 64].
  std::span<const std::uint64_t> words() const noexcept { return words_; }

  bool test(std::size_t i) const noexcept {
    return (words_[i >> 6] >> (i & 63)) & 1u;
  }
  void set(std::size_t i) noexcept { words_[i >> 6] |= std::uint64_t{1} << (i & 63); }
  void unset(std::size_t i) noexcept {
    words_[i >> 6] &= ~(std::uint64_t{1} << (i & 63));
  }
  // Zeroes the words covering bits [0, bits) — O(bits/64), not O(size).
  // The empty-bitset guards matter: memset is declared nonnull, and a
  // never-grown bitset has a null word array (UBSan flags the call).
  void clear_prefix(std::size_t bits) noexcept {
    const std::size_t words = std::min(words_.size(), (bits + 63) / 64);
    if (words != 0) {
      std::memset(words_.data(), 0, words * sizeof(std::uint64_t));
    }
  }
  void clear_all() noexcept {
    if (!words_.empty()) {
      std::memset(words_.data(), 0, words_.size() * sizeof(std::uint64_t));
    }
  }

 private:
  std::vector<std::uint64_t> words_;
  std::size_t bits_ = 0;
};

}  // namespace dapsp
