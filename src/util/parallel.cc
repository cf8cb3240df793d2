#include "util/parallel.h"

namespace dapsp {

WorkerPool::WorkerPool(unsigned workers) {
  if (workers == 0) workers = 1;
  threads_.reserve(workers);
  for (unsigned i = 0; i < workers; ++i) {
    threads_.emplace_back([this] { worker_loop(); });
  }
}

WorkerPool::~WorkerPool() {
  {
    std::lock_guard<std::mutex> lk(mutex_);
    stop_ = true;
  }
  wake_cv_.notify_all();
  for (std::thread& t : threads_) t.join();
}

void WorkerPool::run(unsigned num_shards, FunctionRef<void(unsigned)> fn) {
  if (num_shards == 0) return;
  {
    std::unique_lock<std::mutex> lk(mutex_);
    // A worker that finished the previous job's last shard may still be about
    // to probe the ticket counter once more; recycling the counter under it
    // would hand it a phantom shard. Wait for every straggler to leave.
    done_cv_.wait(lk, [&] { return in_drain_ == 0; });
    fn_ = fn;
    num_shards_ = num_shards;
    next_shard_.store(0, std::memory_order_relaxed);
    remaining_ = num_shards;
    ++generation_;
  }
  wake_cv_.notify_all();
  drain();  // the caller is always a participant
  std::unique_lock<std::mutex> lk(mutex_);
  done_cv_.wait(lk, [&] { return remaining_ == 0; });
  fn_ = FunctionRef<void(unsigned)>{};
}

void WorkerPool::drain() {
  // fn_/num_shards_ are written under mutex_ before the generation bump and
  // read here strictly after an acquire of mutex_ (workers observe the bump
  // under the lock; the caller set them itself), so plain reads are ordered.
  for (;;) {
    const unsigned s = next_shard_.fetch_add(1, std::memory_order_relaxed);
    if (s >= num_shards_) return;
    fn_(s);
    std::lock_guard<std::mutex> lk(mutex_);
    if (--remaining_ == 0) done_cv_.notify_all();
  }
}

void WorkerPool::worker_loop() {
  std::uint64_t seen = 0;
  std::unique_lock<std::mutex> lk(mutex_);
  for (;;) {
    wake_cv_.wait(lk, [&] { return stop_ || generation_ != seen; });
    if (stop_) return;
    seen = generation_;
    ++in_drain_;
    lk.unlock();
    drain();
    lk.lock();
    if (--in_drain_ == 0) done_cv_.notify_all();
  }
}

}  // namespace dapsp
