// Cross-cutting edge cases not covered by the per-module suites.
#include <gtest/gtest.h>

#include <variant>

#include "dvf/cachesim/cache_simulator.hpp"
#include "dvf/cachesim/hierarchy.hpp"
#include "dvf/dsl/lexer.hpp"
#include "dvf/dvf/inference.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/patterns/estimate.hpp"

namespace dvf {
namespace {

TEST(EdgeCases, AccessSpanningManyLinesProbesAll) {
  CacheSimulator sim({"tiny", 2, 2, 16});
  sim.on_load(0, 8, 64);  // bytes 8..71: lines 0..4 -> 5 probes
  EXPECT_EQ(sim.stats(0).accesses, 5u);
  EXPECT_EQ(sim.stats(0).misses, 5u);
}

TEST(EdgeCases, ThreeLevelHierarchyCascades) {
  CacheHierarchy h({{"l1", 1, 2, 16}, {"l2", 2, 4, 16}, {"l3", 4, 8, 16}});
  EXPECT_EQ(h.levels(), 3u);
  h.on_store(0, 0, 4);
  h.flush();
  // The dirty line travelled l1 -> l2 -> l3 -> memory.
  EXPECT_EQ(h.level_stats(2, 0).writebacks, 1u);
  EXPECT_EQ(h.main_memory_accesses(0), 2u);  // one fetch + one writeback
}

TEST(EdgeCases, LexerTreatsSuffixWithoutNumberAsIdentifier) {
  const auto tokens = dsl::tokenize("KB 4KB");
  EXPECT_TRUE(tokens[0].is_word("KB"));
  EXPECT_DOUBLE_EQ(tokens[1].number, 4096.0);
}

TEST(EdgeCases, LexerHandlesAdjacentOperators) {
  const auto tokens = dsl::tokenize("1--2");
  // number, minus, minus, number
  EXPECT_EQ(tokens.size(), 5u);
}

TEST(EdgeCases, SingleElementTemplate) {
  TemplateSpec t;
  t.element_bytes = 8;
  t.element_indices = {7};
  t.repetitions = 100;
  const CacheConfig c("c", 4, 64, 32);
  // First touch misses, every repetition hits.
  EXPECT_DOUBLE_EQ(try_estimate_template(t, c).value_or_throw(), 1.0);
}

TEST(EdgeCases, StreamingWithElementEqualLineAndStride) {
  StreamingSpec s;
  s.element_bytes = 32;
  s.element_count = 64;
  s.stride_elements = 1;
  const CacheConfig c("c", 4, 64, 32);
  // CL == E, S == E: one line per element.
  EXPECT_DOUBLE_EQ(try_estimate_streaming(s, c).value_or_throw(), 64.0);
}

TEST(EdgeCases, PatternLettersMatchPaperNotation) {
  EXPECT_EQ(pattern_letter(PatternSpec{StreamingSpec{}}), 's');
  RandomSpec r;
  EXPECT_EQ(pattern_letter(PatternSpec{r}), 'r');
  TemplateSpec t;
  EXPECT_EQ(pattern_letter(PatternSpec{t}), 't');
  ReuseSpec u;
  EXPECT_EQ(pattern_letter(PatternSpec{u}), 'u');
}

TEST(EdgeCases, InferenceHandlesSingleReference) {
  const std::vector<std::uint64_t> idx = {42};
  const auto patterns = infer_patterns(idx, 8, 100);
  ASSERT_EQ(patterns.size(), 1u);
  // One reference is a (trivial) template.
  EXPECT_TRUE(std::holds_alternative<TemplateSpec>(patterns[0]));
}

TEST(EdgeCases, InferenceDescendingStreamIsNotStreaming) {
  // Backward traversals are not the paper's streaming pattern; they fall
  // through to the template path (and are still modeled exactly).
  std::vector<std::uint64_t> idx;
  for (std::uint64_t i = 100; i-- > 0;) {
    idx.push_back(i);
  }
  const auto patterns = infer_patterns(idx, 8, 100);
  ASSERT_EQ(patterns.size(), 1u);
  EXPECT_TRUE(std::holds_alternative<TemplateSpec>(patterns[0]));
}

TEST(EdgeCases, HierarchySameConfigTwiceStillCoherent) {
  // Degenerate but legal: two identical levels; the second only sees the
  // first's misses.
  CacheConfig config("c", 2, 4, 16);
  CacheHierarchy h({config, config});
  for (std::uint64_t a = 0; a < 512; a += 16) {
    h.on_load(0, a, 4);
  }
  EXPECT_EQ(h.level_stats(0, 0).misses, h.level_stats(1, 0).accesses);
}

}  // namespace
}  // namespace dvf
