#include "dvf/parallel/thread_pool.hpp"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <system_error>

#include "dvf/common/failpoint.hpp"
#include "dvf/obs/obs.hpp"

namespace dvf::parallel {

unsigned default_thread_count() {
  if (const char* env = std::getenv("DVF_THREADS")) {
    char* end = nullptr;
    const long parsed = std::strtol(env, &end, 10);
    if (end != env && *end == '\0' && parsed > 0) {
      return static_cast<unsigned>(parsed);
    }
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

ThreadPool::ThreadPool(unsigned threads) {
  const unsigned slots = resolve_thread_count(threads);
  workers_.reserve(slots - 1);
  for (unsigned slot = 1; slot < slots; ++slot) {
    // Spawn failure (EAGAIN under thread-limit pressure, or the pool.spawn
    // failpoint) degrades the pool to the workers that did start — slot 0 is
    // always the caller, so the pool still makes progress — instead of
    // propagating std::system_error out of a constructor mid-fleet.
    try {
      if (DVF_FAILPOINT("pool.spawn")) {
        throw std::system_error(
            std::make_error_code(std::errc::resource_unavailable_try_again),
            "injected thread-spawn failure");
      }
      workers_.emplace_back([this, slot] { worker_loop(slot); });
    } catch (const std::system_error& error) {
      std::fprintf(stderr,
                   "dvf: warning: thread pool degraded to %u of %u slots "
                   "(%s)\n",
                   slot, slots, error.what());
      break;
    }
  }
}

ThreadPool::~ThreadPool() {
  {
    const std::lock_guard<std::mutex> lock(mutex_);
    shutdown_ = true;
  }
  work_ready_.notify_all();
  for (std::thread& worker : workers_) {
    worker.join();
  }
}

void ThreadPool::worker_loop(unsigned slot) {
  std::uint64_t seen_generation = 0;
  bool named = false;
  for (;;) {
    {
      std::unique_lock<std::mutex> lock(mutex_);
      work_ready_.wait(lock, [&] {
        return shutdown_ || generation_ != seen_generation;
      });
      if (shutdown_) {
        return;
      }
      seen_generation = generation_;
    }
    if (obs::enabled() && !named) {
      obs::set_thread_name("pool-worker-" + std::to_string(slot));
      named = true;
    }
    {
      const obs::ScopedSpan span("pool.worker");
      run_chunks(slot);
    }
    {
      const std::lock_guard<std::mutex> lock(mutex_);
      --busy_;
    }
    work_done_.notify_one();
  }
}

void ThreadPool::run_chunks(unsigned slot) {
  for (;;) {
    const std::uint64_t begin = next_.fetch_add(grain_, std::memory_order_relaxed);
    if (begin >= count_ || cancelled_.load(std::memory_order_relaxed)) {
      return;
    }
    const std::uint64_t end = std::min(begin + grain_, count_);
    try {
      for (std::uint64_t index = begin; index < end; ++index) {
        (*body_)(index, slot);
      }
    } catch (...) {
      cancelled_.store(true, std::memory_order_relaxed);
      const std::lock_guard<std::mutex> lock(mutex_);
      if (!first_error_) {
        first_error_ = std::current_exception();
      }
      return;
    }
  }
}

void ThreadPool::for_each(
    std::uint64_t count, std::uint64_t grain,
    const std::function<void(std::uint64_t, unsigned)>& body) {
  if (count == 0) {
    return;
  }
  const std::lock_guard<std::mutex> run_lock(run_mutex_);
  const obs::ScopedSpan job_span("pool.for_each");
  if (obs::enabled()) {
    static const obs::Counter jobs = obs::counter("pool.jobs");
    static const obs::Gauge depth = obs::gauge("pool.queue_depth");
    static const obs::Gauge slots = obs::gauge("pool.slots");
    jobs.add();
    depth.set(static_cast<double>(count));
    slots.set(static_cast<double>(concurrency()));
  }
  grain_ = std::max<std::uint64_t>(1, grain);
  count_ = count;
  body_ = &body;
  next_.store(0, std::memory_order_relaxed);
  cancelled_.store(false, std::memory_order_relaxed);
  first_error_ = nullptr;

  {
    const std::lock_guard<std::mutex> lock(mutex_);
    ++generation_;
    busy_ = static_cast<unsigned>(workers_.size());
  }
  work_ready_.notify_all();

  run_chunks(/*slot=*/0);  // the caller participates

  {
    std::unique_lock<std::mutex> lock(mutex_);
    work_done_.wait(lock, [&] { return busy_ == 0; });
  }
  body_ = nullptr;
  if (first_error_) {
    std::rethrow_exception(first_error_);
  }
}

}  // namespace dvf::parallel
