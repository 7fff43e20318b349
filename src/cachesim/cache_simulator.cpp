#include "dvf/cachesim/cache_simulator.hpp"

#include <algorithm>
#include <bit>
#include <utility>

#include "dvf/common/error.hpp"
#include "dvf/obs/obs.hpp"

namespace dvf {

namespace {

/// One-time registered counters for the replay hot path. Registered lazily
/// so pure library users never pay the registration lock.
struct ReplayCounters {
  obs::Counter accesses = obs::counter("cachesim.accesses");
  obs::Counter hits = obs::counter("cachesim.hits");
  obs::Counter misses = obs::counter("cachesim.misses");
  obs::Counter writebacks = obs::counter("cachesim.writebacks");
  obs::Counter evictions = obs::counter("cachesim.evictions");
};

}  // namespace

CacheSimulator::CacheSimulator(CacheConfig config)
    : config_(std::move(config)),
      num_sets_(config_.num_sets()),
      assoc_(config_.associativity()),
      line_shift_(static_cast<std::uint32_t>(
          std::countr_zero(config_.line_bytes()))),
      set_mask_(num_sets_ - 1),
      sets_pow2_(std::has_single_bit(num_sets_)) {
  const std::size_t ways = static_cast<std::size_t>(num_sets_) * assoc_;
  tags_.assign(ways, kInvalidTag);
  stamps_.assign(ways, 0);
  owners_.assign(ways, kNoDs);
  flags_.assign(ways, 0);
}

CacheSimulator::CacheSimulator(CacheConfig config,
                               const DataStructureRegistry& registry)
    : CacheSimulator(std::move(config)) {
  reserve_structures(registry.size());
}

void CacheSimulator::reserve_structures(std::size_t count) {
  if (count > stats_.size()) {
    stats_.resize(count);
  }
}

CacheStats& CacheSimulator::stats_for(DsId ds) {
  if (ds == kNoDs) {
    return unattributed_;
  }
  if (ds >= stats_.size()) [[unlikely]] {
    stats_.resize(ds + 1);
  }
  return stats_[ds];
}

void CacheSimulator::access(std::uint64_t address, std::uint32_t size,
                            bool is_write, DsId ds) {
  DVF_CHECK_MSG(size > 0, "access size must be positive");
  const std::uint64_t first = address >> line_shift_;
  const std::uint64_t last = (address + size - 1) >> line_shift_;
  CacheStats& st = stats_for(ds);
  for (std::uint64_t block = first; block <= last; ++block) {
    touch_line(block, is_write, ds, st);
  }
}

void CacheSimulator::replay(std::span<const MemoryRecord> records) {
  if (obs::enabled()) [[unlikely]] {
    replay_instrumented(records);
    return;
  }
  replay_uninstrumented(records);
}

void CacheSimulator::replay_uninstrumented(
    std::span<const MemoryRecord> records) {
  const std::uint32_t line_shift = line_shift_;
  for (const MemoryRecord& record : records) {
    if (record.size == 0) [[unlikely]] {
      continue;
    }
    const std::uint64_t first = record.address >> line_shift;
    const std::uint64_t last =
        (record.address + record.size - 1) >> line_shift;
    CacheStats& st = stats_for(record.ds);
    for (std::uint64_t block = first; block <= last; ++block) {
      touch_line(block, record.is_write, record.ds, st);
    }
  }
}

void CacheSimulator::replay_filtered(std::span<const MemoryRecord> records,
                                     std::uint32_t shards,
                                     std::uint32_t shard) {
  DVF_CHECK_MSG(shards > 0 && shard < shards,
                "shard index must lie below the shard count");
  if (shards == 1) {
    replay_uninstrumented(records);
    return;
  }
  const std::uint32_t line_shift = line_shift_;
  const bool shards_pow2 = std::has_single_bit(shards);
  const std::uint64_t shard_mask = shards - 1;
  for (const MemoryRecord& record : records) {
    if (record.size == 0) [[unlikely]] {
      continue;
    }
    const std::uint64_t first = record.address >> line_shift;
    const std::uint64_t last =
        (record.address + record.size - 1) >> line_shift;
    if (first == last) [[likely]] {
      const std::uint64_t set = set_of_block(first);
      if ((shards_pow2 ? (set & shard_mask) : (set % shards)) != shard) {
        continue;
      }
      touch_line(first, record.is_write, record.ds, stats_for(record.ds));
      continue;
    }
    for (std::uint64_t block = first; block <= last; ++block) {
      const std::uint64_t set = set_of_block(block);
      if ((shards_pow2 ? (set & shard_mask) : (set % shards)) != shard) {
        continue;
      }
      touch_line(block, record.is_write, record.ds, stats_for(record.ds));
    }
  }
}

void CacheSimulator::replay_instrumented(
    std::span<const MemoryRecord> records) {
  static const ReplayCounters counters;
  const obs::ScopedSpan span("cachesim.replay");
  const CacheStats before = total_stats();
  const std::uint64_t evictions_before = evictions_;
  replay_uninstrumented(records);
  const CacheStats after = total_stats();
  counters.accesses.add(after.accesses - before.accesses);
  counters.hits.add(after.hits - before.hits);
  counters.misses.add(after.misses - before.misses);
  counters.writebacks.add(after.writebacks - before.writebacks);
  counters.evictions.add(evictions_ - evictions_before);
}

bool CacheSimulator::touch_line(std::uint64_t block, bool is_write, DsId ds,
                                CacheStats& st) {
  ++tick_;
  ++st.accesses;

  const std::uint64_t set = set_of_block(block);
  const std::size_t base = static_cast<std::size_t>(set) * assoc_;
  std::uint64_t* const tags = tags_.data() + base;
  std::uint64_t* const stamps = stamps_.data() + base;
  DsId* const owners = owners_.data() + base;
  std::uint8_t* const flags = flags_.data() + base;

  // Contiguous branch-light tag scan: at most one VALID way can match, and
  // invalid ways hold kInvalidTag, so for ordinary blocks a tag match is a
  // hit without any flag load. A probe for the sentinel block itself (only
  // reachable with 1-byte lines at the very top of the address space) takes
  // the flag-checking slow path.
  std::uint32_t hit_way = assoc_;
  if (block != kInvalidTag) [[likely]] {
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      hit_way = tags[w] == block ? w : hit_way;
    }
  } else {
    for (std::uint32_t w = 0; w < assoc_; ++w) {
      if (tags[w] == block && (flags[w] & kValidFlag) != 0) {
        hit_way = w;
      }
    }
  }

  if (hit_way != assoc_) {
    ++st.hits;
    flags[hit_way] =
        static_cast<std::uint8_t>(flags[hit_way] | (is_write ? kDirtyFlag : 0));
    owners[hit_way] = ds;
    stamps[hit_way] = tick_;
    return true;
  }

  ++st.misses;
  // LRU victim: the way with the oldest stamp. Invalid ways hold stamp 0 and
  // every touch stamps tick_ >= 1, so the first invalid way, if any, is
  // always the one picked.
  std::uint32_t victim = 0;
  std::uint64_t oldest = stamps[0];
  for (std::uint32_t w = 1; w < assoc_; ++w) {
    if (stamps[w] < oldest) {
      oldest = stamps[w];
      victim = w;
    }
  }
  if ((flags[victim] & kValidFlag) != 0) {
    ++evictions_;
    const bool dirty = (flags[victim] & kDirtyFlag) != 0;
    if (dirty) {
      // Cannot invalidate `st`: every owner stored in a line went through
      // stats_for() when it was stored, so this lookup never grows the
      // table while callers hold references into it.
      ++stats_for(owners[victim]).writebacks;
    }
    if (on_evict_) {
      on_evict_(tags[victim], owners[victim], dirty);
    }
  }
  tags[victim] = block;
  owners[victim] = ds;
  flags[victim] =
      static_cast<std::uint8_t>(kValidFlag | (is_write ? kDirtyFlag : 0));
  stamps[victim] = tick_;
  return false;
}

void CacheSimulator::flush() {
  for (std::size_t i = 0; i < flags_.size(); ++i) {
    if ((flags_[i] & kValidFlag) == 0) {
      continue;
    }
    const bool dirty = (flags_[i] & kDirtyFlag) != 0;
    if (dirty) {
      ++stats_for(owners_[i]).writebacks;
    }
    if (on_evict_) {
      on_evict_(tags_[i], owners_[i], dirty);
    }
    tags_[i] = kInvalidTag;
    stamps_[i] = 0;
    owners_[i] = kNoDs;
    flags_[i] = 0;
  }
}

void CacheSimulator::reset() {
  std::fill(tags_.begin(), tags_.end(), kInvalidTag);
  std::fill(stamps_.begin(), stamps_.end(), std::uint64_t{0});
  std::fill(owners_.begin(), owners_.end(), kNoDs);
  std::fill(flags_.begin(), flags_.end(), std::uint8_t{0});
  std::fill(stats_.begin(), stats_.end(), CacheStats{});
  unattributed_ = CacheStats{};
  tick_ = 0;
  evictions_ = 0;
}

CacheStats CacheSimulator::stats(DsId ds) const {
  if (ds == kNoDs) {
    return unattributed_;
  }
  return ds < stats_.size() ? stats_[ds] : CacheStats{};
}

CacheStats CacheSimulator::total_stats() const {
  CacheStats total = unattributed_;
  for (const CacheStats& st : stats_) {
    total.accesses += st.accesses;
    total.hits += st.hits;
    total.misses += st.misses;
    total.writebacks += st.writebacks;
  }
  return total;
}

std::uint64_t CacheSimulator::resident_lines() const noexcept {
  return static_cast<std::uint64_t>(
      std::count_if(flags_.begin(), flags_.end(), [](std::uint8_t f) {
        return (f & kValidFlag) != 0;
      }));
}

}  // namespace dvf
