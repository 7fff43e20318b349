// Trace-driven set-associative cache simulator.
//
// This is the verification reference of the paper's §IV-A: it consumes the
// per-data-structure reference stream the kernels emit and reports, per
// structure, how many main-memory accesses (misses and writebacks) the LLC
// produced. The analytical CGPMAC models are judged against these counts.
//
// Hot-path layout: the geometry (set count, associativity, line shift) is
// cached in members at construction; when the set count is a power of two
// the set index is a mask (`block & set_mask_`), falling back to modulo
// otherwise. Sets are stored as flat structure-of-arrays slabs — one
// contiguous tag array, one LRU-stamp array, one owner array, one flags
// array — so the N-way tag compare is a branch-light contiguous scan the
// compiler can vectorize (invalid ways hold a sentinel tag that never
// matches a real probe). The per-structure stats table can be pre-sized from
// a registry so the accounting lookup never grows mid-simulation, and
// replay() batches a recorded stream through the simulator with per-access
// dispatch hoisted out of the loop.
//
// Replacement is true LRU, the paper's reference. Its state (one last-use
// stamp per way) never crosses set boundaries, which is what makes
// set-sharded replay (dvf/cachesim/sharded_replay.hpp) bit-identical to the
// single stream.
#pragma once

#include <cstdint>
#include <functional>
#include <span>
#include <vector>

#include "dvf/machine/cache_config.hpp"
#include "dvf/trace/recorder.hpp"
#include "dvf/trace/registry.hpp"

namespace dvf {

/// Per-data-structure simulation outcome.
struct CacheStats {
  std::uint64_t accesses = 0;    ///< line-granular probes
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;      ///< lines fetched from main memory
  std::uint64_t writebacks = 0;  ///< dirty lines evicted to main memory

  /// Main-memory traffic attributable to the structure. The paper's N_ha
  /// counts accesses reaching main memory; fetches and writebacks both do.
  [[nodiscard]] std::uint64_t main_memory_accesses() const noexcept {
    return misses + writebacks;
  }
};

/// Set-associative cache with write-back / write-allocate policy and LRU
/// replacement — the simulator the paper reports: "the cache simulation is
/// based on the popular LRU algorithm and can report the number of cache
/// misses and writebacks".
class CacheSimulator {
 public:
  explicit CacheSimulator(CacheConfig config);
  /// As above, pre-sizing the stats table for every id the registry holds.
  CacheSimulator(CacheConfig config, const DataStructureRegistry& registry);

  /// Pre-sizes the per-structure stats table for ids [0, count), so the hot
  /// path never reallocates it. Existing tallies are kept.
  void reserve_structures(std::size_t count);

  /// Called when a valid line leaves the cache (replacement or flush), with
  /// its block number, owner and dirtiness. Used by CacheHierarchy to
  /// cascade writebacks; unset by default.
  using EvictionHandler =
      std::function<void(std::uint64_t block, DsId owner, bool dirty)>;
  void set_eviction_handler(EvictionHandler handler) {
    on_evict_ = std::move(handler);
  }

  /// Simulates one reference; accesses spanning a line boundary probe every
  /// covered line (matching how hardware splits them).
  void access(std::uint64_t address, std::uint32_t size, bool is_write, DsId ds);

  /// Batched replay of a recorded reference stream; equivalent to calling
  /// access() per record but with the per-record checks and stats dispatch
  /// hoisted out of the inner loop (zero-sized records are skipped).
  void replay(std::span<const MemoryRecord> records);

  /// Set-sharded replay worker: replays exactly the blocks whose set index
  /// satisfies `set mod shards == shard`, skipping everything else. With the
  /// full stream presented in order to `shards` simulators (one per shard
  /// value) the merged per-structure stats are bit-identical to a
  /// single-stream replay(), because replacement state never crosses set
  /// boundaries. Never instrumented — the sharded driver owns the obs span.
  void replay_filtered(std::span<const MemoryRecord> records,
                       std::uint32_t shards, std::uint32_t shard);

  /// Line-granular probe; returns true on hit. The building block the
  /// multi-level hierarchy composes.
  bool access_block(std::uint64_t block, bool is_write, DsId ds) {
    return touch_line(block, is_write, ds, stats_for(ds));
  }

  /// Recorder-concept entry points, so a simulator can be handed straight to
  /// a kernel.
  void on_load(DsId ds, std::uint64_t addr, std::uint32_t bytes) {
    access(addr, bytes, /*is_write=*/false, ds);
  }
  void on_store(DsId ds, std::uint64_t addr, std::uint32_t bytes) {
    access(addr, bytes, /*is_write=*/true, ds);
  }

  /// Flushes all dirty lines, charging writebacks to their owners. Call at
  /// end of simulation so write traffic of still-resident lines is counted.
  void flush();

  /// Invalidates everything and zeroes statistics (the stats table keeps its
  /// reserved size).
  void reset();

  [[nodiscard]] const CacheConfig& config() const noexcept { return config_; }
  /// Stats for one structure (zeros if never referenced).
  [[nodiscard]] CacheStats stats(DsId ds) const;
  /// Aggregate over all structures (including unattributed accesses).
  [[nodiscard]] CacheStats total_stats() const;
  /// Number of currently valid lines (for tests).
  [[nodiscard]] std::uint64_t resident_lines() const noexcept;
  /// Valid lines displaced by replacement since construction/reset (flush()
  /// does not count; it reports writebacks instead).
  [[nodiscard]] std::uint64_t evictions() const noexcept { return evictions_; }

 private:
  /// Invalid ways park their tag here so the vectorized scan skips them
  /// without a validity load; a probe FOR this block number takes the
  /// flag-checking slow path instead.
  static constexpr std::uint64_t kInvalidTag = ~std::uint64_t{0};
  static constexpr std::uint8_t kValidFlag = 0x1;
  static constexpr std::uint8_t kDirtyFlag = 0x2;

  bool touch_line(std::uint64_t block, bool is_write, DsId ds, CacheStats& st);
  CacheStats& stats_for(DsId ds);
  void replay_uninstrumented(std::span<const MemoryRecord> records);
  /// Cold path: wraps the plain replay in an obs span and publishes the
  /// stats deltas as counters. Never entered while obs is disabled.
  void replay_instrumented(std::span<const MemoryRecord> records);

  [[nodiscard]] std::uint64_t set_of_block(std::uint64_t block) const noexcept {
    return sets_pow2_ ? (block & set_mask_) : (block % num_sets_);
  }

  CacheConfig config_;
  // Geometry cached out of config_ so the hot path never re-derives it.
  std::uint32_t num_sets_;
  std::uint32_t assoc_;
  std::uint32_t line_shift_;   ///< log2(line_bytes); lines are power of two
  std::uint64_t set_mask_;     ///< num_sets - 1 when sets_pow2_
  bool sets_pow2_;

  // Flat SoA set storage, all num_sets * associativity, set-major. stamps_
  // holds each way's last-use tick_ (0 while the way is invalid).
  std::vector<std::uint64_t> tags_;
  std::vector<std::uint64_t> stamps_;
  std::vector<DsId> owners_;
  std::vector<std::uint8_t> flags_;

  std::vector<CacheStats> stats_;
  CacheStats unattributed_;
  std::uint64_t tick_ = 0;
  std::uint64_t evictions_ = 0;
  EvictionHandler on_evict_;
};
static_assert(RecorderLike<CacheSimulator>);

}  // namespace dvf
