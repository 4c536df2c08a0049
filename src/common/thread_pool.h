// ThreadPool: a small fixed worker pool for fanning read-only query work
// out across cores (the batched range-sum executor's parallel path).
//
// Design constraints, in order:
//   1. The caller always participates: ParallelFor pulls indices on the
//      calling thread too, so progress never depends on a worker being
//      free. This is what makes it safe to call ParallelFor while holding
//      the facade's lock (ConcurrentCube's batched reads and kSet
//      resolution) — a busy or size-1 pool can never deadlock the caller.
//   2. Tasks must not block on the pool (no nested ParallelFor from inside
//      a task); they are pure computations, typically const tree reads.
//   3. Degrades gracefully: on a single-core host (or n <= 1) the loop runs
//      inline with zero synchronization, so the serial batched path is
//      never penalized.
//
// The process-wide Shared() pool sizes itself to the hardware and is what
// the concurrent facade uses; owning a private pool is supported for tests.

#ifndef DDC_COMMON_THREAD_POOL_H_
#define DDC_COMMON_THREAD_POOL_H_

#include <condition_variable>
#include <cstddef>
#include <deque>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace ddc {

class ThreadPool {
 public:
  // `num_threads` worker threads in addition to participating callers;
  // 0 is allowed and makes every ParallelFor run inline.
  explicit ThreadPool(int num_threads);
  ~ThreadPool();

  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  int num_threads() const { return static_cast<int>(workers_.size()); }

  // Invokes fn(0) .. fn(n-1), distributing indices across the pool and the
  // calling thread, and returns when every invocation has completed. fn
  // must not call back into this pool and must not throw.
  void ParallelFor(size_t n, const std::function<void(size_t)>& fn);

  // Process-wide pool: hardware_concurrency - 1 workers (the caller is the
  // remaining lane), capped at 8 — batched fan-out saturates well before
  // that, and a modest cap keeps many-core machines polite.
  static ThreadPool& Shared();

 private:
  void WorkerLoop();
  void Enqueue(std::function<void()> task);

  std::mutex mutex_;
  std::condition_variable wake_;
  std::deque<std::function<void()>> queue_;
  bool stop_ = false;
  std::vector<std::thread> workers_;
};

}  // namespace ddc

#endif  // DDC_COMMON_THREAD_POOL_H_
