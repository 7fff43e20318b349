// Set-sharded parallel replay: the tentpole of scaling the verification
// simulator with cores.
//
// LRU state in a set-associative cache never crosses set boundaries, so the
// set index space partitions cleanly: shard s simulates exactly the sets with
// `set mod shards == s`. Each worker walks the SAME shared record stream in
// order and filters it to its own sets — no locks, no queues, no shared
// mutable state on the hot path — and the per-structure stats merge by
// integer addition. The result is bit-identical to a single-stream
// CacheSimulator::replay() for every shard count, which the tests pin at
// 1/2/8 threads.
//
// The trade-off is that every worker scans every record, so sharding buys
// wall-clock time only when the per-record simulation work (tag scan,
// replacement update) dominates the filter test — true for random-ish
// streams that miss a lot, false for tiny traces or a 1-core host (see
// docs/performance.md, "when sharding loses").
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dvf/cachesim/cache_simulator.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/parallel/thread_pool.hpp"

namespace dvf {

class TraceReader;

/// Replays reference streams through `threads` set-sharded CacheSimulator
/// instances in parallel and exposes the deterministically merged stats.
class ShardedReplayer {
 public:
  /// `threads == 0` resolves like the thread pool: DVF_THREADS or the
  /// hardware concurrency. `threads == 1` degenerates to a plain
  /// single-stream replay with no pool dispatch.
  explicit ShardedReplayer(const CacheConfig& config, unsigned threads = 1);

  /// Replays a materialized stream across all shards in parallel.
  /// Bit-identical to CacheSimulator::replay() on the same stream.
  void replay(std::span<const MemoryRecord> records);

  /// Streams a trace chunk-by-chunk through the shards, so a multi-GB trace
  /// replays in O(chunk) memory. Workers join at each chunk boundary.
  void replay_stream(TraceReader& reader);

  /// Flushes every shard serially (handler callbacks, if any, run on the
  /// calling thread).
  void flush();
  /// Invalidates all shards and zeroes statistics.
  void reset();
  /// Pre-sizes every shard's stats table (call before replay so the hot
  /// path never reallocates).
  void reserve_structures(std::size_t count);

  /// Installs the handler on every shard. During replay() it runs
  /// concurrently from multiple workers — the handler must be thread-safe
  /// (e.g. accumulate into atomics). flush() invokes it serially.
  void set_eviction_handler(CacheSimulator::EvictionHandler handler);

  [[nodiscard]] unsigned shards() const noexcept {
    return static_cast<unsigned>(sims_.size());
  }
  /// Merged per-structure stats across all shards.
  [[nodiscard]] CacheStats stats(DsId ds) const;
  /// Merged aggregate stats across all shards.
  [[nodiscard]] CacheStats total_stats() const;
  /// Merged replacement-eviction count across all shards.
  [[nodiscard]] std::uint64_t evictions() const noexcept;

 private:
  std::vector<CacheSimulator> sims_;  ///< one full-geometry sim per shard
  parallel::ThreadPool pool_;
};

}  // namespace dvf
