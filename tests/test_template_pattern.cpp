// Unit + property tests for the template-based model: block mapping, the
// two-step counting algorithm (cross-validated against a brute-force oracle
// over the materialized string), the periodic collapse of progressions
// (against a plain expand-intern-replay), and golden values for the bundled
// models.
#include "dvf/patterns/template_access.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cstdlib>
#include <filesystem>
#include <iomanip>
#include <list>
#include <map>
#include <set>
#include <string>
#include <unordered_map>
#include <variant>
#include <vector>

#include "dvf/common/error.hpp"
#include "dvf/common/rng.hpp"
#include "dvf/dsl/analyzer.hpp"

namespace dvf {
namespace {

constexpr std::uint64_t kColdMiss = ~std::uint64_t{0};

/// The template's cache-block reference string, one pass (structure
/// block-aligned at offset 0; elements wider than a line touch every block
/// they cover).
std::vector<std::uint64_t> blocks_of(const TemplateSpec& spec,
                                     std::uint32_t line_bytes) {
  std::vector<std::uint64_t> blocks;
  spec.for_each_index([&](std::uint64_t idx) {
    const std::uint64_t first = idx * spec.element_bytes / line_bytes;
    const std::uint64_t last =
        (idx * spec.element_bytes + spec.element_bytes - 1) / line_bytes;
    for (std::uint64_t b = first; b <= last; ++b) {
      blocks.push_back(b);
    }
  });
  return blocks;
}

/// The estimator before progressions stayed unexpanded: materialize the
/// block string, rename blocks in first-use order, then replay at most two
/// passes through a fully-associative LRU (stack) or a last-use table (raw):
/// N_ha = A1 + (R - 1) * A2.
double expand_intern_replay(const TemplateSpec& spec,
                            const CacheConfig& cache) {
  const std::vector<std::uint64_t> blocks =
      blocks_of(spec, cache.line_bytes());
  const auto capacity = static_cast<std::uint64_t>(
      static_cast<double>(cache.total_blocks()) * spec.cache_ratio);
  const std::uint64_t positions = blocks.size() * spec.repetitions;
  std::unordered_map<std::uint64_t, std::size_t> ids;
  std::vector<std::size_t> string;
  for (const std::uint64_t b : blocks) {
    string.push_back(ids.emplace(b, ids.size()).first->second);
  }
  if (capacity == 0) {
    return static_cast<double>(positions);
  }
  if (spec.distance == DistanceKind::kStack && capacity >= ids.size()) {
    return static_cast<double>(ids.size());
  }
  std::list<std::size_t> lru;  // most recent first
  std::vector<std::list<std::size_t>::iterator> where(ids.size(), lru.end());
  std::vector<std::uint64_t> last(ids.size(), kColdMiss);
  std::uint64_t now = 0;
  std::uint64_t per_pass[2] = {0, 0};
  for (int pass = 0; pass < (spec.repetitions > 1 ? 2 : 1); ++pass) {
    for (const std::size_t id : string) {
      bool miss = false;
      if (spec.distance == DistanceKind::kStack) {
        miss = where[id] == lru.end();
        if (!miss) {
          lru.erase(where[id]);
        } else if (lru.size() == capacity) {
          where[lru.back()] = lru.end();
          lru.pop_back();
        }
        lru.push_front(id);
        where[id] = lru.begin();
      } else {
        miss = last[id] == kColdMiss || now - last[id] > capacity;
        last[id] = now++;
      }
      per_pass[pass] += miss ? 1 : 0;
    }
  }
  return static_cast<double>(per_pass[0] +
                             (spec.repetitions - 1) * per_pass[1]);
}

/// Brute-force stack distance: distinct blocks strictly between the previous
/// and current use.
std::vector<std::uint64_t> oracle_distances(
    const std::vector<std::uint64_t>& blocks) {
  std::vector<std::uint64_t> out;
  std::unordered_map<std::uint64_t, std::size_t> last;
  for (std::size_t t = 0; t < blocks.size(); ++t) {
    const auto it = last.find(blocks[t]);
    if (it == last.end()) {
      out.push_back(kColdMiss);
    } else {
      std::set<std::uint64_t> distinct;
      for (std::size_t u = it->second + 1; u < t; ++u) {
        distinct.insert(blocks[u]);
      }
      out.push_back(distinct.size());
    }
    last[blocks[t]] = t;
  }
  return out;
}

/// Raw reference distance: positions since the previous use.
std::vector<std::uint64_t> oracle_gaps(const std::vector<std::uint64_t>& blocks) {
  std::vector<std::uint64_t> out;
  std::unordered_map<std::uint64_t, std::size_t> last;
  for (std::size_t t = 0; t < blocks.size(); ++t) {
    const auto it = last.find(blocks[t]);
    out.push_back(it == last.end() ? kColdMiss : t - it->second);
    last[blocks[t]] = t;
  }
  return out;
}

TEST(TemplateEstimate, MatchesTheTwoStepOracleOnRandomStrings) {
  const CacheConfig cache("c", 8, 256, 32);  // 2048 blocks
  Xoshiro256 rng(2024);
  for (int trial = 0; trial < 240; ++trial) {
    TemplateSpec spec;
    // 1-128 B elements: up to four 32 B lines each.
    spec.element_bytes = std::uint32_t{1} << rng.below(8);
    spec.repetitions = 1 + rng.below(6);
    const std::uint64_t universe = 1 + rng.below(200);
    const std::uint64_t length = 1 + rng.below(300);
    for (std::uint64_t i = 0; i < length; ++i) {
      spec.starts.push_back(rng.below(universe));
    }
    // The paper's two-step count, literally: materialize every repetition,
    // then one access per first use plus one per reuse whose distance
    // reaches the share (stack: >= C distinct blocks between uses; raw: a
    // gap > C references).
    const std::vector<std::uint64_t> once =
        blocks_of(spec, cache.line_bytes());
    std::vector<std::uint64_t> blocks;
    for (std::uint64_t rep = 0; rep < spec.repetitions; ++rep) {
      blocks.insert(blocks.end(), once.begin(), once.end());
    }
    const std::vector<std::uint64_t> stack = oracle_distances(blocks);
    const std::vector<std::uint64_t> raw = oracle_gaps(blocks);
    const auto distinct = static_cast<std::uint64_t>(
        std::set<std::uint64_t>(once.begin(), once.end()).size());
    // Capacities 0, 1, mid-range, exactly the distinct count and beyond it;
    // the half-block offset makes floor(total * ratio) land on the target.
    for (const std::uint64_t capacity :
         {std::uint64_t{0}, std::uint64_t{1}, 1 + rng.below(distinct),
          distinct, distinct + 1 + rng.below(64)}) {
      spec.cache_ratio = (static_cast<double>(capacity) + 0.5) /
                         static_cast<double>(cache.total_blocks());
      std::uint64_t stack_misses = 0;
      std::uint64_t raw_misses = 0;
      for (std::size_t t = 0; t < blocks.size(); ++t) {
        stack_misses += stack[t] == kColdMiss || stack[t] >= capacity ? 1 : 0;
        raw_misses += raw[t] == kColdMiss || raw[t] > capacity ? 1 : 0;
      }
      for (const DistanceKind kind :
           {DistanceKind::kStack, DistanceKind::kRaw}) {
        spec.distance = kind;
        const Result<double> got = try_estimate_template(spec, cache);
        ASSERT_TRUE(got.ok()) << "trial " << trial;
        ASSERT_EQ(got.value(), static_cast<double>(
                                   kind == DistanceKind::kStack ? stack_misses
                                                                : raw_misses))
            << "trial " << trial << " capacity " << capacity << " R "
            << spec.repetitions << " E " << spec.element_bytes
            << (kind == DistanceKind::kStack ? " stack" : " raw");
      }
    }
  }
}

TEST(TemplateEstimate, RepetitionCollapseSaturatesInsteadOfWrapping) {
  // 300 blocks cycling through a 256-block cache: every reference misses,
  // 300 * 2^63 times. With the budget's limits disabled nothing stops the
  // count, so it must clamp at 2^64 - 1 instead of wrapping.
  TemplateSpec spec;
  spec.element_bytes = 32;
  for (std::uint64_t i = 0; i < 300; ++i) {
    spec.starts.push_back(i);
  }
  spec.repetitions = std::uint64_t{1} << 63;
  const CacheConfig c("c", 4, 64, 32);
  EvalBudget unlimited(EvalLimits{0, 0, 0.0});
  for (const DistanceKind kind : {DistanceKind::kStack, DistanceKind::kRaw}) {
    spec.distance = kind;
    const Result<double> got = try_estimate_template(spec, c, &unlimited);
    ASSERT_TRUE(got.ok());
    EXPECT_EQ(got.value(), static_cast<double>(~std::uint64_t{0}));
  }
}

/// The estimate with no cache share (every block reference misses) and with
/// the whole cache (only first uses miss): the block string's length and its
/// distinct blocks.
std::pair<double, double> length_and_distinct(TemplateSpec spec,
                                              const CacheConfig& cache) {
  spec.cache_ratio = 0.5 / static_cast<double>(cache.total_blocks());
  const double length = try_estimate_template(spec, cache).value_or_throw();
  spec.cache_ratio = 1.0;
  return {length, try_estimate_template(spec, cache).value_or_throw()};
}

TEST(BlocksFromElements, MapsThroughElementAndLineSizes) {
  // 8-byte elements, 32-byte lines: four elements per block, so elements
  // 0..4 reference blocks 0, 0, 0, 0, 1.
  TemplateSpec spec;
  spec.element_bytes = 8;
  spec.starts = {0, 1, 2, 3, 4};
  const CacheConfig cache("c", 4, 64, 32);
  EXPECT_EQ(length_and_distinct(spec, cache), std::make_pair(5.0, 2.0));
  // The same string as a progression.
  spec.starts = {0};
  spec.count = 5;
  EXPECT_EQ(length_and_distinct(spec, cache), std::make_pair(5.0, 2.0));
}

TEST(BlocksFromElements, WideElementsTouchEveryCoveredBlock) {
  // 64-byte elements over 32-byte lines: each element covers two blocks, so
  // elements 0, 1 reference blocks 0, 1, 2, 3.
  TemplateSpec spec;
  spec.element_bytes = 64;
  spec.starts = {0, 1};
  const CacheConfig cache("c", 4, 64, 32);
  EXPECT_EQ(length_and_distinct(spec, cache), std::make_pair(4.0, 4.0));
  spec.starts = {0};
  spec.count = 2;
  EXPECT_EQ(length_and_distinct(spec, cache), std::make_pair(4.0, 4.0));
}

TEST(TemplateEstimate, ColdBlocksOnlyWhenFitting) {
  TemplateSpec spec;
  spec.element_bytes = 32;
  for (int rep = 0; rep < 5; ++rep) {
    for (std::uint64_t i = 0; i < 100; ++i) {
      spec.starts.push_back(i);
    }
  }
  const CacheConfig c("c", 4, 64, 32);  // 256 blocks >= 100
  EXPECT_DOUBLE_EQ(try_estimate_template(spec, c).value_or_throw(), 100.0);
}

TEST(TemplateEstimate, CyclicOverCapacityThrashes) {
  TemplateSpec spec;
  spec.element_bytes = 32;
  for (int rep = 0; rep < 3; ++rep) {
    for (std::uint64_t i = 0; i < 300; ++i) {  // 300 blocks > 256
      spec.starts.push_back(i);
    }
  }
  const CacheConfig c("c", 4, 64, 32);
  // Every reference misses under LRU for a cyclic over-capacity scan.
  EXPECT_DOUBLE_EQ(try_estimate_template(spec, c).value_or_throw(), 900.0);
}

TEST(TemplateEstimate, RepetitionsEquivalentToMaterializedRepeats) {
  TemplateSpec once;
  once.element_bytes = 8;
  Xoshiro256 rng(5);
  for (int i = 0; i < 500; ++i) {
    once.starts.push_back(rng.below(2000));
  }
  TemplateSpec repeated = once;
  repeated.repetitions = 4;
  TemplateSpec materialized = once;
  for (int rep = 1; rep < 4; ++rep) {
    materialized.starts.insert(materialized.starts.end(), once.starts.begin(),
                               once.starts.end());
  }
  const CacheConfig c("c", 2, 32, 32);
  EXPECT_DOUBLE_EQ(try_estimate_template(repeated, c).value_or_throw(),
                   try_estimate_template(materialized, c).value_or_throw());
}

TEST(TemplateEstimate, CacheRatioReducesEffectiveCapacity) {
  TemplateSpec spec;
  spec.element_bytes = 32;
  for (int rep = 0; rep < 2; ++rep) {
    for (std::uint64_t i = 0; i < 200; ++i) {
      spec.starts.push_back(i);
    }
  }
  const CacheConfig c("c", 4, 64, 32);  // 256 blocks
  spec.cache_ratio = 1.0;
  const double full =
      try_estimate_template(spec, c).value_or_throw();   // fits: 200
  spec.cache_ratio = 0.5;                            // 128 blocks: thrash
  const double half = try_estimate_template(spec, c).value_or_throw();
  EXPECT_DOUBLE_EQ(full, 200.0);
  EXPECT_DOUBLE_EQ(half, 400.0);
}

TEST(TemplateEstimate, RawDistanceVariantDiffersOnSkewedStrings) {
  // A string where raw distance is large but only one distinct block
  // intervenes: stack treats it as a hit, raw as a miss.
  TemplateSpec spec;
  spec.element_bytes = 32;
  spec.starts.push_back(0);
  for (int i = 0; i < 400; ++i) {
    spec.starts.push_back(1);
  }
  spec.starts.push_back(0);
  const CacheConfig c("c", 4, 64, 32);
  spec.distance = DistanceKind::kStack;
  EXPECT_DOUBLE_EQ(try_estimate_template(spec, c).value_or_throw(), 2.0);
  spec.distance = DistanceKind::kRaw;
  EXPECT_DOUBLE_EQ(try_estimate_template(spec, c).value_or_throw(), 3.0);
}

TEST(TemplateEstimate, RejectsInvalidSpecs) {
  TemplateSpec spec;
  const CacheConfig c("c", 4, 64, 32);
  EXPECT_THROW((void)try_estimate_template(spec, c).value_or_throw(),
               InvalidArgumentError);
  spec.starts = {1, 2, 3};
  spec.cache_ratio = 0.0;
  EXPECT_THROW((void)try_estimate_template(spec, c).value_or_throw(),
               InvalidArgumentError);
  spec.cache_ratio = 1.0;
  spec.repetitions = 0;
  EXPECT_THROW((void)try_estimate_template(spec, c).value_or_throw(),
               InvalidArgumentError);
  spec.repetitions = 1;
  spec.count = 0;
  EXPECT_THROW((void)try_estimate_template(spec, c).value_or_throw(),
               InvalidArgumentError);
}

TEST(TemplateEstimate, ProgressionsLeavingTheIndexRangeNameThePosition) {
  const CacheConfig c("c", 4, 64, 32);
  TemplateSpec spec;
  spec.element_bytes = 8;
  // 10, 30 | 7, 27 | 4, 24 | 1, 21 | -2: position 8 is the first negative.
  spec.starts = {10, 30};
  spec.step = -3;
  spec.count = 5;
  Result<double> r = try_estimate_template(spec, c);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ErrorKind::kDomainError);
  EXPECT_EQ(r.error().message,
            "template: element index at position 8 is negative");
  // Byte addresses of 8-byte elements end at index 2^61 - 1: the second
  // start crosses it first, at iteration 2 (position 5).
  const std::uint64_t top = (std::uint64_t{1} << 61) - 1;
  spec.starts = {top - 10, top - 1};
  spec.step = 1;
  r = try_estimate_template(spec, c);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ErrorKind::kOverflow);
  EXPECT_EQ(r.error().message, "template: element index " +
                                   std::to_string(top + 1) +
                                   " at position 5 overflows 64-bit byte "
                                   "addressing");
  // A downward sweep longer than the whole index range: iteration 1 is
  // already below element 0.
  spec.starts = {5};
  spec.step = -(std::int64_t{1} << 45);
  spec.count = std::uint64_t{1} << 17;
  r = try_estimate_template(spec, c);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ErrorKind::kDomainError);
  EXPECT_EQ(r.error().message,
            "template: element index at position 1 is negative");
}

TEST(TemplateEstimate, ManyStartProgressionsProbeQuickly) {
  // 2^14 starts 1 MiB apart, one byte each, advancing one byte per
  // iteration on the 8MB machine: 2^20 runs (P = 64 per start), and at
  // each period boundary the whole share holds blocks no start reaches
  // again. Each probe walks that share once, and must not test every run
  // for every block of it. Every reuse is 2^14 - 1 blocks deep, below the
  // 2^16-block share, so only first uses miss.
  TemplateSpec spec;
  spec.element_bytes = 1;
  spec.step = 1;
  spec.count = std::uint64_t{1} << 10;
  for (std::uint64_t j = 0; j < (std::uint64_t{1} << 14); ++j) {
    spec.starts.push_back(j << 20);
  }
  // Well under a second here; testing every run for every block took
  // over a minute, with no deadline check inside the probe.
  EvalLimits limits;
  limits.wall_seconds = 20.0;
  EvalBudget budget(limits);
  const auto begin = std::chrono::steady_clock::now();
  const Result<double> r =
      try_estimate_template(spec, caches::profiling_8mb(), &budget);
  const std::chrono::duration<double> took =
      std::chrono::steady_clock::now() - begin;
  ASSERT_TRUE(r.ok()) << r.error().message;
  EXPECT_EQ(*r, static_cast<double>(std::uint64_t{1} << 18));
  EXPECT_LT(took.count(), limits.wall_seconds);
}

TEST(TemplateEstimate, ProgressionMatchesExpandInternReplay) {
  // The estimator, number for number, against the plain algorithm over the
  // expanded string: random progressions (1-6 starts, step -3..3, up to a
  // few thousand iterations) and count-1 explicit lists; elements that tile
  // lines and elements that straddle them; lines of 8-128 B; capacities 0,
  // below the distinct count and at or above it; 1-5 repetitions; both
  // distance kinds.
  static constexpr std::uint32_t kSizes[] = {4, 8, 16, 24, 48, 100};
  static constexpr std::uint32_t kLines[] = {8, 16, 32, 64, 128};
  Xoshiro256 rng(2114);
  int collapsible = 0;
  for (int trial = 0; trial < 240; ++trial) {
    TemplateSpec spec;
    spec.element_bytes = kSizes[rng.below(6)];
    spec.repetitions = 1 + rng.below(5);
    if (trial % 8 == 0) {
      for (std::uint64_t i = 1 + rng.below(400); i > 0; --i) {
        spec.starts.push_back(rng.below(1000));
      }
    } else {
      spec.step = static_cast<std::int64_t>(rng.below(7)) - 3;
      spec.count = 2 + rng.below(trial % 4 == 0 ? 4000 : 600);
      const std::uint64_t floor =
          spec.step < 0 ? (spec.count - 1) * 3 : 0;  // stays >= element 0
      for (std::uint64_t j = 1 + rng.below(6); j > 0; --j) {
        spec.starts.push_back(floor + rng.below(1 + 64 * rng.below(40)));
      }
    }
    const CacheConfig cache("c", 1 + static_cast<std::uint32_t>(rng.below(8)),
                            std::uint32_t{16} << rng.below(8),
                            kLines[rng.below(5)]);
    const std::vector<std::uint64_t> blocks =
        blocks_of(spec, cache.line_bytes());
    const auto distinct = static_cast<std::uint64_t>(
        std::set<std::uint64_t>(blocks.begin(), blocks.end()).size());
    for (const std::uint64_t capacity :
         {std::uint64_t{0}, 1 + rng.below(distinct), distinct,
          distinct + 1 + rng.below(64)}) {
      if (capacity > cache.total_blocks()) {
        continue;
      }
      collapsible += capacity > 0 && capacity < distinct ? 1 : 0;
      spec.cache_ratio =
          std::min(1.0, (static_cast<double>(capacity) + 0.5) /
                            static_cast<double>(cache.total_blocks()));
      for (const DistanceKind kind :
           {DistanceKind::kStack, DistanceKind::kRaw}) {
        spec.distance = kind;
        const Result<double> got = try_estimate_template(spec, cache);
        ASSERT_TRUE(got.ok()) << "trial " << trial << " "
                              << got.error().describe();
        ASSERT_EQ(got.value(), expand_intern_replay(spec, cache))
            << "trial " << trial << " starts " << spec.starts.size()
            << " step " << spec.step << " count " << spec.count << " E "
            << spec.element_bytes << " CL " << cache.line_bytes()
            << " capacity " << capacity << " of " << distinct << " R "
            << spec.repetitions
            << (kind == DistanceKind::kStack ? " stack" : " raw");
      }
    }
  }
  EXPECT_GT(collapsible, 120);
}

/// The estimator's bound on the blocks of one block's lifetime window,
/// recomputed from its definition: slop = ceil((CL + E)/(|step|*E)) + 1,
/// life = slop + the largest floor((s_b - s_a)/|step|) over pairs of starts
/// s_a <= s_b whose lag is at most count + slop, and (life + 1) * |starts|
/// * the widest element reference in blocks. Requires step != 0.
std::uint64_t lifetime_window(const TemplateSpec& spec,
                              std::uint32_t line_bytes) {
  const auto magnitude = static_cast<std::uint64_t>(std::abs(spec.step));
  const std::uint64_t e = spec.element_bytes;
  const std::uint64_t slop =
      (line_bytes + e + magnitude * e - 1) / (magnitude * e) + 1;
  std::uint64_t lag = 0;
  for (const std::uint64_t a : spec.starts) {
    for (const std::uint64_t b : spec.starts) {
      const std::uint64_t l = b >= a ? (b - a) / magnitude : 0;
      if (l <= spec.count + slop) {
        lag = std::max(lag, l);
      }
    }
  }
  std::uint64_t widest = 0;
  spec.for_each_index([&](std::uint64_t idx) {
    widest = std::max(widest, (idx * e + e - 1) / line_bytes -
                                  idx * e / line_bytes + 1);
  });
  return (slop + lag + 1) * spec.starts.size() * widest;
}

/// Checks a repeated progression against expand_intern_replay at each
/// capacity in [lo, hi] that lies in [1, distinct - 1]; the number checked.
int check_capacities(TemplateSpec spec, std::uint32_t line_bytes,
                     std::uint64_t distinct, std::int64_t lo,
                     std::int64_t hi) {
  const CacheConfig cache("c", 8, std::bit_ceil(distinct), line_bytes);
  int checked = 0;
  for (std::int64_t c = std::max<std::int64_t>(lo, 1);
       c <= std::min<std::int64_t>(hi, static_cast<std::int64_t>(distinct) - 1);
       ++c) {
    spec.cache_ratio = (static_cast<double>(c) + 0.5) /
                       static_cast<double>(cache.total_blocks());
    const Result<double> got = try_estimate_template(spec, cache);
    EXPECT_TRUE(got.ok()) << got.error().describe();
    if (!got.ok()) {
      return checked;
    }
    EXPECT_EQ(got.value(), expand_intern_replay(spec, cache))
        << "starts " << spec.starts.size() << " step " << spec.step
        << " count " << spec.count << " E " << spec.element_bytes << " CL "
        << line_bytes << " capacity " << c << " of " << distinct << " R "
        << spec.repetitions;
    ++checked;
  }
  return checked;
}

TEST(TemplateEstimate, RepeatedSweepsMatchOnBothSidesOfTheLifetimeBound) {
  // A repeated progression takes pass 1 alone (N_ha = R * A1) when the
  // capacity is at most distinct - window. Random progressions (steps -7 to
  // 16, elements that tile and straddle lines, starts clustered and far
  // apart) are checked at the five capacities around that boundary.
  static constexpr std::uint32_t kSizes[] = {4, 8, 16, 24, 48, 100};
  static constexpr std::uint32_t kLines[] = {8, 16, 32, 64, 128};
  Xoshiro256 rng(2026);
  int below = 0;
  int above = 0;
  for (int trial = 0; trial < 250; ++trial) {
    TemplateSpec spec;
    spec.element_bytes = kSizes[rng.below(6)];
    spec.repetitions = 2 + rng.below(4);
    do {
      spec.step = static_cast<std::int64_t>(rng.below(24)) - 7;
    } while (spec.step == 0);
    spec.count = 2 + rng.below(800);
    const auto magnitude = static_cast<std::uint64_t>(std::abs(spec.step));
    std::uint64_t at = spec.step < 0 ? (spec.count - 1) * magnitude : 0;
    for (std::uint64_t j = 1 + rng.below(5); j > 0; --j) {
      spec.starts.push_back(at);
      // Next start: sharing this one's blocks or beyond its reach.
      at += rng.below(2) == 0 ? rng.below(64)
                              : spec.count * magnitude + rng.below(4096);
    }
    const std::uint32_t line = kLines[rng.below(5)];
    const std::vector<std::uint64_t> blocks = blocks_of(spec, line);
    const auto distinct = static_cast<std::int64_t>(
        std::set<std::uint64_t>(blocks.begin(), blocks.end()).size());
    const auto bound = distinct - static_cast<std::int64_t>(
                                      lifetime_window(spec, line));
    below += check_capacities(spec, line, distinct, bound - 2, bound);
    above += check_capacities(spec, line, distinct, bound + 1, bound + 2);
  }
  EXPECT_GT(below, 600);
  EXPECT_GT(above, 400);

  // Where the bound is nearly tight: one start pair `lag` elements apart
  // shares each block over a lifetime of `lag` iterations, while the other
  // starts are used once per block, so the blocks inside a pair block's
  // lifetime fill most of the window. Every capacity from below the
  // boundary up to the distinct count.
  int tight = 0;
  for (const std::uint64_t lag : {8, 40}) {
    for (const std::uint32_t e : {32, 48}) {
      TemplateSpec spec;
      spec.element_bytes = e;
      spec.count = 300;
      spec.repetitions = 3;
      spec.starts = {0, lag, 10'000, 20'000, 30'000};
      const std::vector<std::uint64_t> blocks = blocks_of(spec, 32);
      const auto distinct = static_cast<std::int64_t>(
          std::set<std::uint64_t>(blocks.begin(), blocks.end()).size());
      const auto bound = distinct - static_cast<std::int64_t>(
                                        lifetime_window(spec, 32));
      tight += check_capacities(spec, 32, distinct, bound - 2, distinct);
    }
  }
  EXPECT_GT(tight, 700);

  // The costliest cell of the pipeline benchmark's model_eval: the 56^3 MG
  // smoother sweep, repeat 2, on the 128KB machine at half its share. Its
  // 6160 blocks fit no share of 4096, yet every reference after a block's
  // first use hits, in both passes.
  const std::uint64_t n = 56;
  TemplateSpec mg;
  mg.element_bytes = 16;
  mg.starts = {2 * n * n + 1, 2 * n * n + 2 * n + 1, n * n + n + 1,
               2 * n * n + n + 1};
  mg.count = n * (n - 2);
  mg.repetitions = 2;
  mg.cache_ratio = 0.5;
  const CacheConfig kb128 = caches::profiling_128kb();
  EXPECT_EQ(try_estimate_template(mg, kb128).value_or_throw(), 12320.0);
  EXPECT_EQ(expand_intern_replay(mg, kb128), 12320.0);
}

TEST(TemplateEstimate, ProgressionSteadyStateIsSkippedNotReplayed) {
  // One start sweeping 2^32 8-byte elements over 32-byte lines: 2^30 blocks,
  // each used by four consecutive iterations, so a 16-block share misses
  // once per block and every pass alike. Replaying 2^32 references per pass
  // would take minutes; the collapse replays a few periods.
  TemplateSpec spec;
  spec.element_bytes = 8;
  spec.starts = {0};
  spec.count = std::uint64_t{1} << 32;
  spec.repetitions = 3;
  const CacheConfig c("c", 4, 64, 32);  // 256 blocks
  spec.cache_ratio = 16.0 / 256.0;
  EvalBudget unlimited(EvalLimits{0, 0, 0.0});
  const Result<double> got = try_estimate_template(spec, c, &unlimited);
  ASSERT_TRUE(got.ok()) << got.error().describe();
  EXPECT_EQ(got.value(), 3.0 * static_cast<double>(std::uint64_t{1} << 30));
  // A share holding every block misses only on first uses, counted in
  // closed form.
  spec.cache_ratio = 1.0;
  spec.count = 1024;
  EXPECT_EQ(try_estimate_template(spec, c, &unlimited).value(), 256.0);
}


/// The six Table IV caches: the two verification caches, then profiling.
std::vector<CacheConfig> table_iv_caches() {
  std::vector<CacheConfig> out = {caches::small_verification(),
                                  caches::large_verification()};
  for (CacheConfig& c : caches::all_profiling()) {
    out.push_back(std::move(c));
  }
  return out;
}

// Golden N_ha for every template pattern of models/*.aspen on every Table IV
// cache, in both distance modes, at the declared cache share and at 1/8 and
// 1/64 of it (so capacity boundaries fall inside the stencil's reuse
// distances). Key: file/model/structure#pattern/cache/mode/share-divisor.
// The values come from the original Fenwick-tree stack-distance replay; a
// faster replay must reproduce them exactly.
const std::map<std::string, double>& template_golden() {
  static const std::map<std::string, double> golden = {
    {"mg.aspen/MG/R#0/small-verification/stack/1", 3976},
    {"mg.aspen/MG/R#0/small-verification/stack/8", 7696},
    {"mg.aspen/MG/R#0/small-verification/stack/64", 15360},
    {"mg.aspen/MG/R#0/small-verification/raw/1", 3976},
    {"mg.aspen/MG/R#0/small-verification/raw/8", 7696},
    {"mg.aspen/MG/R#0/small-verification/raw/64", 15360},
    {"mg.aspen/MG/R#0/large-verification/stack/1", 498},
    {"mg.aspen/MG/R#0/large-verification/stack/8", 498},
    {"mg.aspen/MG/R#0/large-verification/stack/64", 498},
    {"mg.aspen/MG/R#0/large-verification/raw/1", 498},
    {"mg.aspen/MG/R#0/large-verification/raw/8", 498},
    {"mg.aspen/MG/R#0/large-verification/raw/64", 1992},
    {"mg.aspen/MG/R#0/16KB/stack/1", 15872},
    {"mg.aspen/MG/R#0/16KB/stack/8", 30720},
    {"mg.aspen/MG/R#0/16KB/stack/64", 30720},
    {"mg.aspen/MG/R#0/16KB/raw/1", 15872},
    {"mg.aspen/MG/R#0/16KB/raw/8", 30720},
    {"mg.aspen/MG/R#0/16KB/raw/64", 30720},
    {"mg.aspen/MG/R#0/128KB/stack/1", 1984},
    {"mg.aspen/MG/R#0/128KB/stack/8", 7936},
    {"mg.aspen/MG/R#0/128KB/stack/64", 15360},
    {"mg.aspen/MG/R#0/128KB/raw/1", 1984},
    {"mg.aspen/MG/R#0/128KB/raw/8", 7936},
    {"mg.aspen/MG/R#0/128KB/raw/64", 15360},
    {"mg.aspen/MG/R#0/1MB/stack/1", 994},
    {"mg.aspen/MG/R#0/1MB/stack/8", 994},
    {"mg.aspen/MG/R#0/1MB/stack/64", 3976},
    {"mg.aspen/MG/R#0/1MB/raw/1", 994},
    {"mg.aspen/MG/R#0/1MB/raw/8", 3976},
    {"mg.aspen/MG/R#0/1MB/raw/64", 3976},
    {"mg.aspen/MG/R#0/8MB/stack/1", 498},
    {"mg.aspen/MG/R#0/8MB/stack/8", 498},
    {"mg.aspen/MG/R#0/8MB/stack/64", 498},
    {"mg.aspen/MG/R#0/8MB/raw/1", 498},
    {"mg.aspen/MG/R#0/8MB/raw/8", 498},
    {"mg.aspen/MG/R#0/8MB/raw/64", 1992},
  };
  return golden;
}

TEST(TemplateGolden, BundledModelsOnTableIvCaches) {
  namespace fs = std::filesystem;
  std::vector<fs::path> files;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(DVF_MODELS_DIR)) {
    if (entry.path().extension() == ".aspen") {
      files.push_back(entry.path());
    }
  }
  std::sort(files.begin(), files.end());
  ASSERT_FALSE(files.empty());

  const std::vector<CacheConfig> caches_iv = table_iv_caches();
  std::set<std::string> seen;
  for (const fs::path& path : files) {
    const dsl::CompiledProgram program = dsl::compile_file(path.string());
    for (const ModelSpec& model : program.models) {
      for (const DataStructureSpec& ds : model.structures) {
        for (std::size_t p = 0; p < ds.patterns.size(); ++p) {
          const auto* tmpl = std::get_if<TemplateSpec>(&ds.patterns[p]);
          if (tmpl == nullptr) {
            continue;
          }
          for (const CacheConfig& cache : caches_iv) {
            for (const DistanceKind kind :
                 {DistanceKind::kStack, DistanceKind::kRaw}) {
              for (const int divisor : {1, 8, 64}) {
                TemplateSpec spec = *tmpl;
                spec.distance = kind;
                spec.cache_ratio = tmpl->cache_ratio / divisor;
                const std::string key =
                    path.filename().string() + "/" + model.name + "/" +
                    ds.name + "#" + std::to_string(p) + "/" + cache.name() +
                    (kind == DistanceKind::kStack ? "/stack/" : "/raw/") +
                    std::to_string(divisor);
                seen.insert(key);
                const Result<double> got = try_estimate_template(spec, cache);
                ASSERT_TRUE(got.ok()) << key;
                const auto it = template_golden().find(key);
                if (it == template_golden().end()) {
                  ADD_FAILURE() << "no golden value for {\"" << key
                                << "\", " << std::setprecision(17)
                                << got.value() << "},";
                  continue;
                }
                EXPECT_EQ(got.value(), it->second) << key;
              }
            }
          }
        }
      }
    }
  }
  // A golden entry no model produces any more is a stale pin.
  for (const auto& [key, value] : template_golden()) {
    EXPECT_TRUE(seen.count(key) == 1) << "stale golden entry " << key;
  }
}

}  // namespace
}  // namespace dvf
