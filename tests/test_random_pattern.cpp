// Unit + property tests for the random-access model (Eqs. 5–7) and the
// IRM/Che extension.
#include "dvf/patterns/random.hpp"

#include <gtest/gtest.h>

#include <cmath>

#include "dvf/common/error.hpp"

namespace dvf {
namespace {

CacheConfig cache(std::uint32_t assoc, std::uint32_t sets, std::uint32_t line) {
  return {"test", assoc, sets, line};
}

TEST(ExpectedMissing, ZeroWhenEverythingFits) {
  EXPECT_DOUBLE_EQ(expected_missing_elements(100, 100, 10), 0.0);
  EXPECT_DOUBLE_EQ(expected_missing_elements(100, 200, 10), 0.0);
}

TEST(ExpectedMissing, AllMissingWhenNothingCached) {
  EXPECT_NEAR(expected_missing_elements(100, 0, 10), 10.0, 1e-9);
}

TEST(ExpectedMissing, MatchesClosedFormMean) {
  // X = k - Hypergeometric(N, k, m), so E[X] = k (1 - m/N).
  const std::uint64_t n = 1000;
  const std::uint64_t m = 300;
  const std::uint64_t k = 50;
  EXPECT_NEAR(expected_missing_elements(n, m, k),
              static_cast<double>(k) * (1.0 - 300.0 / 1000.0), 1e-9);
}

TEST(ExpectedMissing, MonotoneInCacheSize) {
  double prev = 1e300;
  for (std::uint64_t m = 0; m <= 1000; m += 100) {
    const double xe = expected_missing_elements(1000, m, 64);
    EXPECT_LE(xe, prev + 1e-12) << "m=" << m;
    prev = xe;
  }
}

TEST(RandomEstimate, CompulsoryOnlyWhenStructureFits) {
  RandomSpec spec;
  spec.element_count = 100;
  spec.element_bytes = 32;  // 3200 B footprint
  spec.visits_per_iteration = 10;
  spec.iterations = 100000;
  const CacheConfig c = cache(4, 64, 32);  // 8 KiB
  EXPECT_DOUBLE_EQ(try_estimate_random(spec, c).value_or_throw(),
                   100.0);  // 3200/32 blocks
}

TEST(RandomEstimate, GrowsLinearlyWithIterationsWhenOverCapacity) {
  RandomSpec spec;
  spec.element_count = 10000;
  spec.element_bytes = 32;  // 320 KB >> 8 KiB
  spec.visits_per_iteration = 50;
  const CacheConfig c = cache(4, 64, 32);
  spec.iterations = 100;
  const double at100 = try_estimate_random(spec, c).value_or_throw();
  spec.iterations = 200;
  const double at200 = try_estimate_random(spec, c).value_or_throw();
  const double compulsory = 10000.0;  // E*N/CL
  EXPECT_NEAR(at200 - compulsory, 2.0 * (at100 - compulsory), 1e-6);
}

TEST(RandomEstimate, ReloadCappedByNonResidentBlocks) {
  // Tiny structure slightly over its cache share: B_out caps the reload.
  RandomSpec spec;
  spec.element_count = 300;
  spec.element_bytes = 32;  // 9600 B vs 8 KiB cache
  spec.visits_per_iteration = 300;
  spec.iterations = 1;
  const CacheConfig c = cache(4, 64, 32);
  const double estimate = try_estimate_random(spec, c).value_or_throw();
  const double b_out = 9600.0 / 32.0 - 256.0;  // 44 blocks not resident
  EXPECT_DOUBLE_EQ(estimate, 300.0 + b_out);
}

TEST(RandomEstimate, CacheRatioShrinksTheShare) {
  RandomSpec spec;
  spec.element_count = 400;
  spec.element_bytes = 32;  // 12.8 KB
  spec.visits_per_iteration = 40;
  spec.iterations = 1000;
  const CacheConfig c = cache(4, 128, 32);  // 16 KiB: fits at ratio 1.0
  spec.cache_ratio = 1.0;
  EXPECT_DOUBLE_EQ(try_estimate_random(spec, c).value_or_throw(), 400.0);
  spec.cache_ratio = 0.25;  // share 4 KiB: misses appear
  EXPECT_GT(try_estimate_random(spec, c).value_or_throw(), 400.0);
}

TEST(RandomEstimate, RejectsInvalidSpecs) {
  RandomSpec spec;
  const CacheConfig c = cache(4, 64, 32);
  EXPECT_THROW((void)try_estimate_random(spec, c).value_or_throw(),
               InvalidArgumentError);
  spec.element_count = 10;
  spec.cache_ratio = 0.0;
  EXPECT_THROW((void)try_estimate_random(spec, c).value_or_throw(),
               InvalidArgumentError);
  spec.cache_ratio = 1.5;
  EXPECT_THROW((void)try_estimate_random(spec, c).value_or_throw(),
               InvalidArgumentError);
  spec.cache_ratio = 0.5;
  spec.visits_per_iteration = -1.0;
  EXPECT_THROW((void)try_estimate_random(spec, c).value_or_throw(),
               InvalidArgumentError);
}

// ---- IRM / Che extension --------------------------------------------------

TEST(LruIrm, DegenerateCases) {
  const std::vector<double> f = {1.0, 0.5, 0.25};
  EXPECT_DOUBLE_EQ(expected_misses_lru_irm(f, 3), 0.0);
  EXPECT_DOUBLE_EQ(expected_misses_lru_irm(f, 10), 0.0);
  EXPECT_NEAR(expected_misses_lru_irm(f, 0), 1.75, 1e-12);
}

TEST(LruIrm, UniformPopularityMatchesProportionalMissRate) {
  // All elements equally popular: misses/iter ~ k * (1 - m/N).
  const std::size_t n = 1000;
  const double k = 50.0;
  std::vector<double> f(n, k / static_cast<double>(n));
  const double misses = expected_misses_lru_irm(f, 400);
  EXPECT_NEAR(misses, k * (1.0 - 0.4), k * 0.02);
}

TEST(LruIrm, HotElementsAreRetained) {
  // 10 always-visited elements plus 990 rarely visited ones; a cache of 10
  // should absorb nearly all hot traffic.
  std::vector<double> f(1000, 0.001);
  for (int i = 0; i < 10; ++i) {
    f[static_cast<std::size_t>(i)] = 1.0;
  }
  const double misses = expected_misses_lru_irm(f, 10);
  // Hot mass (10/iter) is cached; at most the cold mass (~0.99) misses.
  EXPECT_LT(misses, 1.05);
  EXPECT_GT(misses, 0.5);
}

TEST(LruIrm, MonotoneInCacheSize) {
  std::vector<double> f;
  for (int i = 1; i <= 500; ++i) {
    f.push_back(1.0 / static_cast<double>(i));  // Zipf-ish
  }
  double prev = 1e300;
  for (std::uint64_t m = 0; m <= 500; m += 50) {
    const double misses = expected_misses_lru_irm(f, m);
    EXPECT_LE(misses, prev + 1e-9) << "m=" << m;
    prev = misses;
  }
}

TEST(LruIrm, SkewBeatsUniformAtEqualVisitMass) {
  // Same total visit mass, same cache: skewed popularity must miss less
  // (hot items stay resident).
  const std::size_t n = 1000;
  std::vector<double> uniform(n, 0.05);
  std::vector<double> skewed(n, 0.0);
  double mass = 0.0;
  for (std::size_t i = 0; i < n; ++i) {
    skewed[i] = 1.0 / static_cast<double>(1 + i);
    mass += skewed[i];
  }
  for (double& f : skewed) {
    f *= 50.0 / mass;  // normalize to the same 50 visits/iteration
  }
  for (double& f : skewed) {
    f = std::min(f, 1.0);
  }
  EXPECT_LT(expected_misses_lru_irm(skewed, 200),
            expected_misses_lru_irm(uniform, 200));
}

}  // namespace
}  // namespace dvf
