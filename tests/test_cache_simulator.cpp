// Unit tests for the trace-driven LRU cache simulator.
#include "dvf/cachesim/cache_simulator.hpp"

#include <gtest/gtest.h>

#include <map>
#include <vector>

#include "dvf/common/error.hpp"
#include "dvf/common/rng.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/trace/registry.hpp"
#include "cache_config_printer.hpp"

namespace dvf {
namespace {

CacheConfig tiny() { return {"tiny", 2, 2, 16}; }  // 2-way, 2 sets, 16B lines

TEST(CacheSimulator, ColdMissThenHit) {
  CacheSimulator sim(tiny());
  sim.on_load(0, 0, 8);
  sim.on_load(0, 0, 8);
  const CacheStats st = sim.stats(0);
  EXPECT_EQ(st.accesses, 2u);
  EXPECT_EQ(st.misses, 1u);
  EXPECT_EQ(st.hits, 1u);
  EXPECT_EQ(st.writebacks, 0u);
}

TEST(CacheSimulator, AccessSpanningTwoLinesProbesBoth) {
  CacheSimulator sim(tiny());
  sim.on_load(0, 12, 8);  // bytes 12..19 cross the 16-byte boundary
  const CacheStats st = sim.stats(0);
  EXPECT_EQ(st.accesses, 2u);
  EXPECT_EQ(st.misses, 2u);
}

TEST(CacheSimulator, LruEvictionOrder) {
  CacheSimulator sim(tiny());
  // Set 0 receives blocks at addresses 0, 32, 64 (block % 2 == 0).
  sim.on_load(0, 0, 4);
  sim.on_load(0, 32, 4);
  sim.on_load(0, 0, 4);   // touch block 0 again: block 32 becomes LRU
  sim.on_load(0, 64, 4);  // evicts block 32
  sim.on_load(0, 0, 4);   // still resident
  EXPECT_EQ(sim.stats(0).misses, 3u);
  EXPECT_EQ(sim.stats(0).hits, 2u);
  sim.on_load(0, 32, 4);  // was evicted: miss
  EXPECT_EQ(sim.stats(0).misses, 4u);
}

TEST(CacheSimulator, WritebackOnDirtyEviction) {
  CacheSimulator sim(tiny());
  sim.on_store(1, 0, 4);   // dirty block 0 (owner ds=1)
  sim.on_load(2, 32, 4);   // same set
  sim.on_load(2, 64, 4);   // evicts ds=1's dirty block
  EXPECT_EQ(sim.stats(1).writebacks, 1u);
  EXPECT_EQ(sim.stats(2).writebacks, 0u);
}

TEST(CacheSimulator, FlushChargesResidentDirtyLines) {
  CacheSimulator sim(tiny());
  sim.on_store(0, 0, 4);
  sim.on_store(0, 16, 4);
  sim.on_load(0, 48, 4);
  EXPECT_EQ(sim.stats(0).writebacks, 0u);
  sim.flush();
  EXPECT_EQ(sim.stats(0).writebacks, 2u);
  EXPECT_EQ(sim.resident_lines(), 0u);
}

TEST(CacheSimulator, FlushIsIdempotent) {
  CacheSimulator sim(tiny());
  sim.on_store(0, 0, 4);
  sim.flush();
  sim.flush();
  EXPECT_EQ(sim.stats(0).writebacks, 1u);
}

TEST(CacheSimulator, ResetClearsEverything) {
  CacheSimulator sim(tiny());
  sim.on_store(0, 0, 4);
  sim.reset();
  EXPECT_EQ(sim.total_stats().accesses, 0u);
  EXPECT_EQ(sim.resident_lines(), 0u);
  sim.on_load(0, 0, 4);
  EXPECT_EQ(sim.stats(0).misses, 1u);
}

TEST(CacheSimulator, PerStructureAttribution) {
  CacheSimulator sim(tiny());
  sim.on_load(3, 0, 4);
  sim.on_load(7, 16, 4);
  EXPECT_EQ(sim.stats(3).misses, 1u);
  EXPECT_EQ(sim.stats(7).misses, 1u);
  EXPECT_EQ(sim.stats(4).accesses, 0u);
  EXPECT_EQ(sim.total_stats().misses, 2u);
}

TEST(CacheSimulator, UnattributedAccessesLandInTotals) {
  CacheSimulator sim(tiny());
  sim.on_load(kNoDs, 0, 4);
  EXPECT_EQ(sim.stats(kNoDs).misses, 1u);
  EXPECT_EQ(sim.total_stats().misses, 1u);
}

TEST(CacheSimulator, WorkingSetWithinCapacityNeverMissesTwice) {
  // 2 sets * 2 ways * 16B = 64B capacity: a 64-byte working set fits.
  CacheSimulator sim(tiny());
  for (int round = 0; round < 10; ++round) {
    for (std::uint64_t addr = 0; addr < 64; addr += 16) {
      sim.on_load(0, addr, 4);
    }
  }
  EXPECT_EQ(sim.stats(0).misses, 4u);
  EXPECT_EQ(sim.stats(0).hits, 36u);
}

TEST(CacheSimulator, CyclicOverCapacityThrashesUnderLru) {
  // 3 blocks cycling through a 2-way set: LRU evicts the block about to be
  // used, so every access misses.
  CacheSimulator sim({"one-set", 2, 1, 16});
  for (int round = 0; round < 5; ++round) {
    sim.on_load(0, 0, 4);
    sim.on_load(0, 16, 4);
    sim.on_load(0, 32, 4);
  }
  EXPECT_EQ(sim.stats(0).hits, 0u);
  EXPECT_EQ(sim.stats(0).misses, 15u);
}

TEST(CacheSimulator, ZeroSizeAccessRejected) {
  CacheSimulator sim(tiny());
  EXPECT_THROW(sim.access(0, 0, false, 0), InvalidArgumentError);
}

TEST(CacheConfig, DerivedQuantities) {
  const CacheConfig c = caches::small_verification();
  EXPECT_EQ(c.capacity_bytes(), 8u * 1024u);
  EXPECT_EQ(c.total_blocks(), 256u);
  EXPECT_EQ(c.set_of(0), 0u);
  EXPECT_EQ(c.set_of(32), 1u);
  EXPECT_EQ(c.block_of(63), 1u);
}

TEST(CacheConfig, RejectsBadGeometry) {
  EXPECT_THROW(CacheConfig("bad", 0, 4, 32), InvalidArgumentError);
  EXPECT_THROW(CacheConfig("bad", 4, 0, 32), InvalidArgumentError);
  EXPECT_THROW(CacheConfig("bad", 4, 4, 48), InvalidArgumentError);
}

// --- Hot-path fast set indexing (mask vs modulo) ---------------------------
//
// An independent, geometry-agnostic reference: true-LRU with explicit
// timestamps, set index always computed with the modulo definition. The
// production simulator must match it both when it takes the power-of-two
// mask path and when it falls back to modulo.
class ReferenceLru {
 public:
  explicit ReferenceLru(const CacheConfig& config) : config_(config) {
    ways_.resize(static_cast<std::size_t>(config.num_sets()) *
                 config.associativity());
  }

  void access(std::uint64_t address, std::uint32_t size, bool is_write,
              DsId ds) {
    const std::uint64_t first = address / config_.line_bytes();
    const std::uint64_t last = (address + size - 1) / config_.line_bytes();
    for (std::uint64_t block = first; block <= last; ++block) {
      touch(block, is_write, ds);
    }
  }

  void flush() {
    for (Way& way : ways_) {
      if (way.valid && way.dirty) {
        ++stats_[way.owner].writebacks;
      }
      way = Way{};
    }
  }

  [[nodiscard]] CacheStats stats(DsId ds) const {
    const auto it = stats_.find(ds);
    return it == stats_.end() ? CacheStats{} : it->second;
  }

 private:
  struct Way {
    std::uint64_t block = 0;
    std::uint64_t tick = 0;
    DsId owner = kNoDs;
    bool valid = false;
    bool dirty = false;
  };

  void touch(std::uint64_t block, bool is_write, DsId ds) {
    ++tick_;
    CacheStats& st = stats_[ds];
    ++st.accesses;
    const std::uint64_t set = block % config_.num_sets();
    Way* begin = ways_.data() + set * config_.associativity();
    Way* end = begin + config_.associativity();
    Way* victim = begin;
    for (Way* way = begin; way != end; ++way) {
      if (way->valid && way->block == block) {
        ++st.hits;
        way->tick = tick_;
        way->dirty = way->dirty || is_write;
        way->owner = ds;
        return;
      }
      if (victim->valid && (!way->valid || way->tick < victim->tick)) {
        victim = way;
      }
    }
    ++st.misses;
    if (victim->valid && victim->dirty) {
      ++stats_[victim->owner].writebacks;
    }
    *victim = {block, tick_, ds, true, is_write};
  }

  CacheConfig config_;
  std::vector<Way> ways_;
  std::map<DsId, CacheStats> stats_;
  std::uint64_t tick_ = 0;
};

std::vector<MemoryRecord> mixed_reference_string() {
  std::vector<MemoryRecord> records;
  Xoshiro256 rng(42);
  std::uint64_t addr = 0;
  for (int i = 0; i < 20000; ++i) {
    const bool random = (i % 3) == 0;
    addr = random ? rng.below(1u << 16) : addr + 8;
    records.push_back({addr, 8, static_cast<DsId>(i % 4), (i % 5) == 0});
  }
  // A few line-spanning and wide accesses.
  for (int i = 0; i < 64; ++i) {
    records.push_back({rng.below(1u << 16), 64, 2, (i & 1) != 0});
  }
  return records;
}

void expect_same_stats(CacheSimulator& sim, ReferenceLru& ref, DsId ds) {
  const CacheStats a = sim.stats(ds);
  const CacheStats b = ref.stats(ds);
  EXPECT_EQ(a.accesses, b.accesses) << "ds=" << ds;
  EXPECT_EQ(a.hits, b.hits) << "ds=" << ds;
  EXPECT_EQ(a.misses, b.misses) << "ds=" << ds;
  EXPECT_EQ(a.writebacks, b.writebacks) << "ds=" << ds;
}

class CacheSimulatorFastPath : public ::testing::TestWithParam<CacheConfig> {};

TEST_P(CacheSimulatorFastPath, MatchesReferenceLru) {
  const CacheConfig config = GetParam();
  CacheSimulator sim(config);
  ReferenceLru ref(config);
  for (const MemoryRecord& r : mixed_reference_string()) {
    sim.access(r.address, r.size, r.is_write, r.ds);
    ref.access(r.address, r.size, r.is_write, r.ds);
  }
  sim.flush();
  ref.flush();
  for (DsId ds = 0; ds < 4; ++ds) {
    expect_same_stats(sim, ref, ds);
  }
}

INSTANTIATE_TEST_SUITE_P(
    MaskAndModuloPaths, CacheSimulatorFastPath,
    ::testing::Values(
        CacheConfig("pow2-64set", 4, 64, 32),    // mask path
        CacheConfig("mod-60set", 4, 60, 32),     // modulo fallback
        CacheConfig("pow2-1set", 2, 1, 16),      // degenerate mask (sets=1)
        CacheConfig("mod-3set", 2, 3, 16)));     // tiny non-pow2

TEST(CacheSimulatorReplay, BatchedReplayMatchesPerCallAccess) {
  const auto records = mixed_reference_string();
  CacheSimulator one_by_one(caches::small_verification());
  for (const MemoryRecord& r : records) {
    one_by_one.access(r.address, r.size, r.is_write, r.ds);
  }
  one_by_one.flush();

  CacheSimulator batched(caches::small_verification());
  batched.replay(records);
  batched.flush();

  for (DsId ds = 0; ds < 4; ++ds) {
    const CacheStats a = one_by_one.stats(ds);
    const CacheStats b = batched.stats(ds);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.writebacks, b.writebacks);
  }
}

TEST(CacheSimulatorReplay, SkipsZeroSizedRecords) {
  CacheSimulator sim(tiny());
  const std::vector<MemoryRecord> records = {{0, 0, 0, false}, {0, 8, 0, false}};
  sim.replay(records);
  EXPECT_EQ(sim.stats(0).accesses, 1u);
}

TEST(CacheSimulatorStats, RegistryConstructorPreSizesTheTable) {
  DataStructureRegistry registry;
  double a[64] = {};
  double b[64] = {};
  registry.register_structure("A", a, sizeof(a), sizeof(double));
  registry.register_structure("B", b, sizeof(b), sizeof(double));
  CacheSimulator sim(tiny(), registry);
  sim.on_load(1, 0, 4);
  EXPECT_EQ(sim.stats(1).accesses, 1u);
  EXPECT_EQ(sim.stats(0).accesses, 0u);
}

// The victim scan takes the oldest LRU stamp; invalid ways (stamp 0) must be
// filled before any valid line is displaced, also after a flush.
TEST(CacheSimulator, FillsInvalidWaysBeforeEvicting) {
  CacheSimulator sim(CacheConfig("one-set4", 4, 1, 16));
  for (const std::uint64_t block : {1, 2, 3, 4, 2, 1}) {
    sim.on_load(0, block * 16, 4);
  }
  EXPECT_EQ(sim.evictions(), 0u);
  sim.flush();
  for (const std::uint64_t block : {5, 6, 7, 8, 5, 6, 7, 8}) {
    sim.on_load(0, block * 16, 4);
  }
  EXPECT_EQ(sim.evictions(), 0u);
  EXPECT_EQ(sim.stats(0).hits, 6u);
  EXPECT_EQ(sim.resident_lines(), 4u);
}

TEST(CacheSimulatorStats, ReservedTableKeepsTalliesAndSurvivesReset) {
  CacheSimulator sim(tiny());
  sim.on_load(7, 0, 4);  // grows the table past id 7 on the cold path
  sim.reserve_structures(32);
  EXPECT_EQ(sim.stats(7).accesses, 1u);  // growth kept existing tallies
  EXPECT_EQ(sim.stats(31).accesses, 0u);
  sim.reset();
  EXPECT_EQ(sim.stats(7).accesses, 0u);
  sim.on_load(31, 0, 4);  // pre-sized: still correctly attributed
  EXPECT_EQ(sim.stats(31).accesses, 1u);
}

}  // namespace
}  // namespace dvf
