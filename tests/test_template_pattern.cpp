// Unit + property tests for the template-based model: block expansion, the
// two-step counting algorithm (cross-validated against a brute-force oracle
// over the materialized string), and golden values for the bundled models.
#include "dvf/patterns/template_access.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <iomanip>
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
      spec.element_indices.push_back(rng.below(universe));
    }
    // The paper's two-step count, literally: materialize every repetition,
    // then one access per first use plus one per reuse whose distance
    // reaches the share (stack: >= C distinct blocks between uses; raw: a
    // gap > C references).
    const std::vector<std::uint64_t> once = blocks_from_elements(
        spec.element_indices, spec.element_bytes, cache.line_bytes());
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
    spec.element_indices.push_back(i);
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

TEST(BlocksFromElements, MapsThroughElementAndLineSizes) {
  const std::vector<std::uint64_t> idx = {0, 1, 2, 3, 4};
  // 8-byte elements, 32-byte lines: four elements per block.
  const auto blocks = blocks_from_elements(idx, 8, 32);
  EXPECT_EQ(blocks, (std::vector<std::uint64_t>{0, 0, 0, 0, 1}));
}

TEST(BlocksFromElements, WideElementsTouchEveryCoveredBlock) {
  const std::vector<std::uint64_t> idx = {0, 1};
  // 64-byte elements over 32-byte lines: each element covers two blocks.
  const auto blocks = blocks_from_elements(idx, 64, 32);
  EXPECT_EQ(blocks, (std::vector<std::uint64_t>{0, 1, 2, 3}));
}

TEST(TemplateEstimate, ColdBlocksOnlyWhenFitting) {
  TemplateSpec spec;
  spec.element_bytes = 32;
  for (int rep = 0; rep < 5; ++rep) {
    for (std::uint64_t i = 0; i < 100; ++i) {
      spec.element_indices.push_back(i);
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
      spec.element_indices.push_back(i);
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
    once.element_indices.push_back(rng.below(2000));
  }
  TemplateSpec repeated = once;
  repeated.repetitions = 4;
  TemplateSpec materialized = once;
  for (int rep = 1; rep < 4; ++rep) {
    materialized.element_indices.insert(materialized.element_indices.end(),
                                        once.element_indices.begin(),
                                        once.element_indices.end());
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
      spec.element_indices.push_back(i);
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
  spec.element_indices.push_back(0);
  for (int i = 0; i < 400; ++i) {
    spec.element_indices.push_back(1);
  }
  spec.element_indices.push_back(0);
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
  spec.element_indices = {1, 2, 3};
  spec.cache_ratio = 0.0;
  EXPECT_THROW((void)try_estimate_template(spec, c).value_or_throw(),
               InvalidArgumentError);
  spec.cache_ratio = 1.0;
  spec.repetitions = 0;
  EXPECT_THROW((void)try_estimate_template(spec, c).value_or_throw(),
               InvalidArgumentError);
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
