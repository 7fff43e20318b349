// Reusable parallel-execution layer: a persistent thread pool with chunked
// self-scheduling (work-stealing-ish dynamic load balance without per-task
// allocation) plus the deterministic parallel_for helper. Its users are the
// injection campaign and the set-sharded trace replayer.
//
// Design rules the rest of the codebase relies on:
//  - The calling thread always participates as slot 0, so ThreadPool(1)
//    spawns no threads and degenerates to a plain serial loop — the serial
//    reference order IS the 1-slot schedule.
//  - Work is identified by index, never by thread: any state a task derives
//    (RNG streams, output slots) must come from the index, which is what
//    makes results bit-identical regardless of how many threads run them.
//  - `slot` arguments index per-worker scratch (e.g. per-thread kernel
//    instances); slots never exceed concurrency() and no two tasks share a
//    slot concurrently.
#pragma once

#include <atomic>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <mutex>
#include <thread>
#include <vector>

namespace dvf::parallel {

/// Worker count used when a caller passes `threads == 0`: the DVF_THREADS
/// environment variable when set to a positive integer, otherwise
/// std::thread::hardware_concurrency() (minimum 1).
[[nodiscard]] unsigned default_thread_count();

/// Resolves a user-supplied thread count: 0 → default_thread_count().
[[nodiscard]] inline unsigned resolve_thread_count(unsigned threads) {
  return threads == 0 ? default_thread_count() : threads;
}

class ThreadPool {
 public:
  /// A pool with `threads` execution slots (0 → default_thread_count()).
  /// Slot 0 is the calling thread, so `threads - 1` workers are spawned.
  explicit ThreadPool(unsigned threads = 0);
  ~ThreadPool();
  ThreadPool(const ThreadPool&) = delete;
  ThreadPool& operator=(const ThreadPool&) = delete;

  /// Total execution slots (worker threads + the calling thread).
  [[nodiscard]] unsigned concurrency() const noexcept {
    return static_cast<unsigned>(workers_.size()) + 1;
  }

  /// Runs body(index, slot) for every index in [0, count), distributing
  /// `grain`-sized chunks to whichever slot is free. Blocks until all
  /// indices ran; rethrows the first task exception. Concurrent calls from
  /// different threads serialize against each other; calling for_each on
  /// the SAME pool from inside one of its own bodies deadlocks (use a
  /// second pool for nested parallelism).
  void for_each(std::uint64_t count, std::uint64_t grain,
                const std::function<void(std::uint64_t index, unsigned slot)>&
                    body);

 private:
  void worker_loop(unsigned slot);
  void run_chunks(unsigned slot);

  std::vector<std::thread> workers_;

  std::mutex run_mutex_;  ///< serializes whole for_each invocations
  std::mutex mutex_;
  std::condition_variable work_ready_;
  std::condition_variable work_done_;
  std::uint64_t generation_ = 0;  ///< bumped per for_each to wake workers
  unsigned busy_ = 0;             ///< workers still inside the current job
  bool shutdown_ = false;

  // Current job (valid while a for_each is in flight).
  const std::function<void(std::uint64_t, unsigned)>* body_ = nullptr;
  std::uint64_t count_ = 0;
  std::uint64_t grain_ = 1;
  std::atomic<std::uint64_t> next_{0};
  std::atomic<bool> cancelled_{false};
  std::exception_ptr first_error_;
};

}  // namespace dvf::parallel
