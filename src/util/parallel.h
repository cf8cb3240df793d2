// A small persistent worker pool for the round engine's per-round fan-out.
//
// The CONGEST engine steps thousands of rounds, each with one parallel
// region; spawning threads per round would dominate the work. WorkerPool
// keeps its threads alive across calls and hands out shard indices through
// an atomic counter, so one run() costs two condition-variable hops, not a
// thread launch. Shard *assignment* to threads is racy by design; callers
// must make the result independent of it (the engine does: each shard owns a
// fixed node range and a private accumulator, merged in shard order).
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

namespace dapsp {

// Non-owning reference to a callable invoked as R(Args...). WorkerPool::run
// used to take std::function, whose construction heap-allocates once the
// capture list outgrows the small-buffer optimisation — a per-round
// allocation in the engine's hot loop. FunctionRef is two words, never
// allocates, and calls through one plain function pointer. The referenced
// callable must outlive every call: bind a named callable, or a temporary
// only as a function argument (never `FunctionRef<...> f = [..]{..};`, which
// dangles at the end of the statement).
template <typename Signature>
class FunctionRef;

template <typename R, typename... Args>
class FunctionRef<R(Args...)> {
 public:
  FunctionRef() = default;
  template <typename F,
            typename = std::enable_if_t<
                !std::is_same_v<std::remove_cvref_t<F>, FunctionRef> &&
                std::is_invocable_r_v<R, F&, Args...>>>
  FunctionRef(F&& f) noexcept  // NOLINT: implicit by design, mirrors std::function
      : obj_(const_cast<void*>(static_cast<const void*>(std::addressof(f)))),
        call_([](void* obj, Args... args) -> R {
          return (*static_cast<std::remove_reference_t<F>*>(obj))(
              std::forward<Args>(args)...);
        }) {}

  R operator()(Args... args) const {
    return call_(obj_, std::forward<Args>(args)...);
  }
  explicit operator bool() const noexcept { return call_ != nullptr; }

 private:
  void* obj_ = nullptr;
  R (*call_)(void*, Args...) = nullptr;
};

class WorkerPool {
 public:
  // Spawns `workers` threads (>= 1). The calling thread also participates in
  // every run(), so total parallelism is workers + 1.
  explicit WorkerPool(unsigned workers);
  ~WorkerPool();

  WorkerPool(const WorkerPool&) = delete;
  WorkerPool& operator=(const WorkerPool&) = delete;

  // Invokes fn(shard) once for every shard in [0, num_shards), distributed
  // over the pool threads and the caller; returns when all invocations have
  // finished. The referenced callable must outlive the call (it is not
  // copied — no allocation per run). fn must not call run() reentrantly.
  // Exceptions thrown by fn terminate (the engine catches per-node failures
  // itself and never lets them escape into the pool).
  void run(unsigned num_shards, FunctionRef<void(unsigned)> fn);

  unsigned workers() const noexcept {
    return static_cast<unsigned>(threads_.size());
  }

 private:
  void worker_loop();
  void drain();  // grab-and-run shards until the current job is exhausted

  std::mutex mutex_;
  std::condition_variable wake_cv_;   // workers wait for a new generation
  std::condition_variable done_cv_;   // run() waits for remaining_ == 0
  FunctionRef<void(unsigned)> fn_;
  unsigned num_shards_ = 0;
  std::atomic<unsigned> next_shard_{0};
  unsigned remaining_ = 0;            // guarded by mutex_
  unsigned in_drain_ = 0;             // guarded by mutex_: workers inside drain()
  std::uint64_t generation_ = 0;      // guarded by mutex_
  bool stop_ = false;                 // guarded by mutex_
  std::vector<std::thread> threads_;
};

}  // namespace dapsp
