// Shard-equivalence suite: set-sharded parallel replay must be bit-identical
// to the single-stream CacheSimulator for every thread count, including the
// eviction-handler and flush() interplay.
#include "dvf/cachesim/sharded_replay.hpp"

#include <gtest/gtest.h>

#include <atomic>
#include <sstream>
#include <string>
#include <vector>

#include "dvf/cachesim/cache_simulator.hpp"
#include "dvf/common/rng.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/trace/trace_io.hpp"
#include "dvf/trace/trace_reader.hpp"
#include "cache_config_printer.hpp"

namespace dvf {
namespace {

/// Mixed random/sequential stream with line-spanning accesses, several
/// structures, and enough churn to evict and write back continuously.
std::vector<MemoryRecord> shard_reference_string() {
  std::vector<MemoryRecord> records;
  Xoshiro256 rng(7);
  std::uint64_t addr = 0;
  for (int i = 0; i < 30000; ++i) {
    const bool random = (i % 3) == 0;
    addr = random ? rng.below(1u << 17) : addr + 8;
    records.push_back({addr, 8, static_cast<DsId>(i % 5), (i % 4) == 0});
  }
  for (int i = 0; i < 128; ++i) {
    records.push_back({rng.below(1u << 17), 96, 1, (i & 1) != 0});
  }
  return records;
}

void expect_identical(const CacheStats& a, const CacheStats& b,
                      const std::string& what) {
  EXPECT_EQ(a.accesses, b.accesses) << what;
  EXPECT_EQ(a.hits, b.hits) << what;
  EXPECT_EQ(a.misses, b.misses) << what;
  EXPECT_EQ(a.writebacks, b.writebacks) << what;
}

struct ShardCase {
  unsigned threads;
  CacheConfig config;
};

void PrintTo(const ShardCase& c, std::ostream* os) {
  *os << "t" << c.threads << "_";
  PrintTo(c.config, os);
}

class ShardedReplayEquivalence : public ::testing::TestWithParam<ShardCase> {};

TEST_P(ShardedReplayEquivalence, BitIdenticalToSingleStream) {
  const ShardCase& c = GetParam();
  const auto records = shard_reference_string();

  CacheSimulator reference(c.config);
  reference.replay(records);
  reference.flush();

  ShardedReplayer sharded(c.config, c.threads);
  sharded.replay(records);
  sharded.flush();

  EXPECT_EQ(sharded.shards(), c.threads);
  for (DsId ds = 0; ds < 5; ++ds) {
    expect_identical(sharded.stats(ds), reference.stats(ds),
                     "ds=" + std::to_string(ds));
  }
  expect_identical(sharded.stats(kNoDs), reference.stats(kNoDs), "kNoDs");
  expect_identical(sharded.total_stats(), reference.total_stats(), "total");
  EXPECT_EQ(sharded.evictions(), reference.evictions());
}

INSTANTIATE_TEST_SUITE_P(
    ThreadCounts, ShardedReplayEquivalence,
    ::testing::Values(
        // The pinned 1/2/8-thread trio on the pow2 reference geometry.
        ShardCase{1, CacheConfig("pow2-64set", 4, 64, 32)},
        ShardCase{2, CacheConfig("pow2-64set", 4, 64, 32)},
        ShardCase{8, CacheConfig("pow2-64set", 4, 64, 32)},
        // Non-pow2 set count and shard counts that do not divide it.
        ShardCase{3, CacheConfig("mod-60set", 4, 60, 32)},
        ShardCase{8, CacheConfig("mod-60set", 4, 60, 32)},
        // More shards than sets: the surplus shards simply stay idle.
        ShardCase{8, CacheConfig("mod-3set", 2, 3, 16)}));

TEST(ShardedReplay, EvictionHandlerSeesEveryEvictionAcrossThreads) {
  const CacheConfig config("pow2-64set", 4, 64, 32);
  const auto records = shard_reference_string();

  std::uint64_t ref_evictions = 0;
  std::uint64_t ref_dirty = 0;
  CacheSimulator reference(config);
  reference.set_eviction_handler(
      [&](std::uint64_t, DsId, bool dirty) {
        ++ref_evictions;
        ref_dirty += dirty ? 1 : 0;
      });
  reference.replay(records);
  reference.flush();

  // During parallel replay the handler fires concurrently from the workers,
  // so it must be thread-safe: atomics here.
  std::atomic<std::uint64_t> evictions{0};
  std::atomic<std::uint64_t> dirty_evictions{0};
  ShardedReplayer sharded(config, 4);
  sharded.set_eviction_handler(
      [&](std::uint64_t, DsId, bool dirty) {
        evictions.fetch_add(1, std::memory_order_relaxed);
        dirty_evictions.fetch_add(dirty ? 1 : 0, std::memory_order_relaxed);
      });
  sharded.replay(records);
  sharded.flush();

  EXPECT_EQ(evictions.load(), ref_evictions);
  EXPECT_EQ(dirty_evictions.load(), ref_dirty);
}

TEST(ShardedReplay, FlushAndResetMirrorSingleSimulator) {
  const CacheConfig config("pow2-64set", 4, 64, 32);
  const auto records = shard_reference_string();

  ShardedReplayer sharded(config, 4);
  sharded.replay(records);
  const CacheStats before_flush = sharded.total_stats();
  sharded.flush();
  const CacheStats after_flush = sharded.total_stats();
  EXPECT_GT(after_flush.writebacks, before_flush.writebacks);
  sharded.flush();  // idempotent
  expect_identical(sharded.total_stats(), after_flush, "double flush");

  sharded.reset();
  EXPECT_EQ(sharded.total_stats().accesses, 0u);
  EXPECT_EQ(sharded.evictions(), 0u);

  // Usable again after reset, and still equivalent.
  CacheSimulator reference(config);
  reference.replay(records);
  reference.flush();
  sharded.replay(records);
  sharded.flush();
  expect_identical(sharded.total_stats(), reference.total_stats(),
                   "post-reset replay");
}

TEST(ShardedReplay, StreamedTraceMatchesMaterializedReplay) {
  const CacheConfig config("pow2-64set", 4, 64, 32);
  const auto records = shard_reference_string();

  DataStructureRegistry registry;
  static int dummy[8];
  for (int i = 0; i < 5; ++i) {
    (void)registry.register_structure("ds" + std::to_string(i), dummy,
                                      sizeof(dummy), 4);
  }
  std::stringstream stream;
  write_trace(stream, registry, records);

  CacheSimulator reference(config);
  reference.replay(records);
  reference.flush();

  TraceReader reader(stream);
  ShardedReplayer sharded(config, 4);
  sharded.replay_stream(reader);
  sharded.flush();

  EXPECT_TRUE(reader.done());
  EXPECT_EQ(reader.records_delivered(), records.size());
  for (DsId ds = 0; ds < 5; ++ds) {
    expect_identical(sharded.stats(ds), reference.stats(ds),
                     "ds=" + std::to_string(ds));
  }
  expect_identical(sharded.total_stats(), reference.total_stats(), "total");
}

}  // namespace
}  // namespace dvf
