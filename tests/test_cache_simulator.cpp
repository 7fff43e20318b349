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

// --- Replacement policies --------------------------------------------------

TEST(ReplacementPolicyNames, RoundTripThroughParser) {
  for (const ReplacementPolicy policy :
       {ReplacementPolicy::kLru, ReplacementPolicy::kPlru,
        ReplacementPolicy::kRrip}) {
    const auto parsed = parse_policy(policy_name(policy));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, policy);
  }
  EXPECT_FALSE(parse_policy("fifo").has_value());
  EXPECT_FALSE(parse_policy("LRU").has_value());
  EXPECT_FALSE(parse_policy("").has_value());
}

// With 2 ways, the bit-PLRU MRU bit identifies the LRU way exactly, so the
// approximation collapses to true LRU. A long mixed stream must agree.
TEST(ReplacementPolicy, PlruEqualsLruAtTwoWays) {
  const CacheConfig config("two-way", 2, 64, 32);
  CacheSimulator lru(config, ReplacementPolicy::kLru);
  CacheSimulator plru(config, ReplacementPolicy::kPlru);
  for (const MemoryRecord& r : mixed_reference_string()) {
    lru.access(r.address, r.size, r.is_write, r.ds);
    plru.access(r.address, r.size, r.is_write, r.ds);
  }
  lru.flush();
  plru.flush();
  for (DsId ds = 0; ds < 4; ++ds) {
    const CacheStats a = lru.stats(ds);
    const CacheStats b = plru.stats(ds);
    EXPECT_EQ(a.hits, b.hits) << "ds=" << ds;
    EXPECT_EQ(a.misses, b.misses) << "ds=" << ds;
    EXPECT_EQ(a.writebacks, b.writebacks) << "ds=" << ds;
  }
}

// Loads block `b` of a one-set cache with 16-byte lines.
void load_block(CacheSimulator& sim, std::uint64_t block) {
  sim.on_load(0, block * 16, 4);
}

// Hand-computed divergence, 4-way single set, sequence [1,2,3,4,1,2,3,5]:
//
//   bit-PLRU: filling 4 saturates the MRU bits ({0,0,0,1} after the clear);
//   hits on 1 and 2 set their bits; the hit on 3 saturates again, leaving
//   {0,0,1,0}. The miss on 5 takes the first clear way — way 0, BLOCK 1.
//   True LRU instead evicts BLOCK 4 (stalest timestamp).
TEST(ReplacementPolicy, PlruPinnedSequenceDivergesFromLru) {
  const CacheConfig config("one-set4", 4, 1, 16);
  for (const auto policy :
       {ReplacementPolicy::kPlru, ReplacementPolicy::kLru}) {
    CacheSimulator sim(config, policy);
    for (const std::uint64_t block : {1, 2, 3, 4, 1, 2, 3, 5}) {
      load_block(sim, block);
    }
    EXPECT_EQ(sim.stats(0).misses, 5u);
    const std::uint64_t misses_before = sim.stats(0).misses;
    load_block(sim, 4);  // PLRU: resident. LRU: evicted.
    load_block(sim, 1);  // PLRU: evicted. LRU: resident... until 4 refilled.
    if (policy == ReplacementPolicy::kPlru) {
      EXPECT_EQ(sim.stats(0).misses, misses_before + 1) << "victim must be 1";
    } else {
      EXPECT_EQ(sim.stats(0).misses, misses_before + 2)
          << "LRU evicts 4, and refilling 4 displaces 1";
    }
  }
}

// Hand-computed divergence, 4-way single set, sequence [1,2,3,4,1,5,3,6,7]:
//
//   2-bit SRRIP: fills insert at RRPV 2, the hit on 1 promotes it to 0; the
//   miss on 5 ages everyone and replaces block 2; the miss on 6 finds block
//   4 already distant; the miss on 7 ages again and replaces BLOCK 5,
//   keeping block 1 resident (its early promotion still protects it).
//   True LRU instead evicts BLOCK 1 at the miss on 7 (stalest) and keeps 5.
TEST(ReplacementPolicy, RripPinnedSequenceDivergesFromLru) {
  const CacheConfig config("one-set4", 4, 1, 16);
  for (const auto policy :
       {ReplacementPolicy::kRrip, ReplacementPolicy::kLru}) {
    CacheSimulator sim(config, policy);
    for (const std::uint64_t block : {1, 2, 3, 4, 1, 5, 3, 6, 7}) {
      load_block(sim, block);
    }
    EXPECT_EQ(sim.stats(0).misses, 7u);
    EXPECT_EQ(sim.stats(0).hits, 2u);
    const std::uint64_t hits_before = sim.stats(0).hits;
    load_block(sim, policy == ReplacementPolicy::kRrip ? 1 : 5);
    EXPECT_EQ(sim.stats(0).hits, hits_before + 1)
        << policy_name(policy) << " kept the wrong line resident";
  }
}

TEST(ReplacementPolicy, RripSingleWayStillTerminates) {
  // Degenerate associativity: the victim search must age RRPV up to the
  // distant value and terminate, not spin.
  CacheSimulator sim(CacheConfig("direct", 1, 2, 16),
                     ReplacementPolicy::kRrip);
  for (int i = 0; i < 16; ++i) {
    load_block(sim, static_cast<std::uint64_t>(i));
  }
  EXPECT_EQ(sim.stats(0).misses, 16u);
}

TEST(ReplacementPolicy, PolicyAccessorReportsConstructionChoice) {
  EXPECT_EQ(CacheSimulator(tiny()).policy(), ReplacementPolicy::kLru);
  EXPECT_EQ(CacheSimulator(tiny(), ReplacementPolicy::kRrip).policy(),
            ReplacementPolicy::kRrip);
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
