#include "dvf/cachesim/sharded_replay.hpp"

#include <utility>

#include "dvf/obs/obs.hpp"
#include "dvf/trace/trace_reader.hpp"

namespace dvf {

namespace {

struct ShardedCounters {
  obs::Counter accesses = obs::counter("cachesim.sharded.accesses");
  obs::Counter misses = obs::counter("cachesim.sharded.misses");
  obs::Counter writebacks = obs::counter("cachesim.sharded.writebacks");
};

}  // namespace

ShardedReplayer::ShardedReplayer(const CacheConfig& config, unsigned threads)
    : pool_(parallel::resolve_thread_count(threads)) {
  const unsigned shards = pool_.concurrency();
  sims_.reserve(shards);
  for (unsigned s = 0; s < shards; ++s) {
    sims_.emplace_back(config);
  }
}

void ShardedReplayer::replay(std::span<const MemoryRecord> records) {
  const unsigned shards = this->shards();
  if (shards == 1) {
    sims_.front().replay(records);
    return;
  }
  const bool instrument = obs::enabled();
  CacheStats before;
  if (instrument) [[unlikely]] {
    before = total_stats();
  }
  {
    const obs::ScopedSpan span("cachesim.sharded_replay");
    // Grain 1: each index IS one shard's whole pass over the stream, so
    // chunking buys nothing. Shard s only ever touches sims_[s] — no locks.
    pool_.for_each(shards, /*grain=*/1,
                   [this, records, shards](std::uint64_t index, unsigned) {
                     sims_[index].replay_filtered(
                         records, shards, static_cast<std::uint32_t>(index));
                   });
  }
  if (instrument) [[unlikely]] {
    static const ShardedCounters counters;
    const CacheStats after = total_stats();
    counters.accesses.add(after.accesses - before.accesses);
    counters.misses.add(after.misses - before.misses);
    counters.writebacks.add(after.writebacks - before.writebacks);
  }
}

void ShardedReplayer::replay_stream(TraceReader& reader) {
  reserve_structures(reader.structures().size());
  while (!reader.done()) {
    replay(reader.next_chunk());
  }
}

void ShardedReplayer::flush() {
  for (CacheSimulator& sim : sims_) {
    sim.flush();
  }
}

void ShardedReplayer::reset() {
  for (CacheSimulator& sim : sims_) {
    sim.reset();
  }
}

void ShardedReplayer::reserve_structures(std::size_t count) {
  for (CacheSimulator& sim : sims_) {
    sim.reserve_structures(count);
  }
}

void ShardedReplayer::set_eviction_handler(
    CacheSimulator::EvictionHandler handler) {
  for (CacheSimulator& sim : sims_) {
    sim.set_eviction_handler(handler);
  }
}

CacheStats ShardedReplayer::stats(DsId ds) const {
  CacheStats merged;
  for (const CacheSimulator& sim : sims_) {
    const CacheStats st = sim.stats(ds);
    merged.accesses += st.accesses;
    merged.hits += st.hits;
    merged.misses += st.misses;
    merged.writebacks += st.writebacks;
  }
  return merged;
}

CacheStats ShardedReplayer::total_stats() const {
  CacheStats merged;
  for (const CacheSimulator& sim : sims_) {
    const CacheStats st = sim.total_stats();
    merged.accesses += st.accesses;
    merged.hits += st.hits;
    merged.misses += st.misses;
    merged.writebacks += st.writebacks;
  }
  return merged;
}

std::uint64_t ShardedReplayer::evictions() const noexcept {
  std::uint64_t total = 0;
  for (const CacheSimulator& sim : sims_) {
    total += sim.evictions();
  }
  return total;
}

}  // namespace dvf
