// Unit + property tests for the random-access model (Eqs. 5–7) and the
// IRM/Che extension.
#include "dvf/patterns/random.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>

#include "dvf/common/budget.hpp"
#include "dvf/common/error.hpp"
#include "dvf/common/math.hpp"
#include "dvf/common/rng.hpp"

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

/// Eq. 6 summed term by term (compensated) over the hypergeometric pmf of
/// Eq. 5: the series the closed form replaced, kept as its oracle.
double eq6_series(std::int64_t n, std::int64_t m, std::int64_t k) {
  if (k <= 0 || n <= 0 || m >= n) {
    return 0.0;
  }
  const std::int64_t x_max = std::min(n - m, k);
  math::KahanSum sum;
  for (std::int64_t x = 1; x <= x_max; ++x) {
    sum.add(static_cast<double>(x) * math::hypergeometric_pmf(n, k, m, k - x));
  }
  return sum.value();
}

TEST(ExpectedMissing, ClosedFormMatchesTheSeriesOnRandomSpecs) {
  // N log-uniform in [1, 2e6]; m and k uniform over their whole range.
  Xoshiro256 rng(2014);
  for (int trial = 0; trial < 60; ++trial) {
    const auto n = static_cast<std::uint64_t>(
        std::exp(rng.uniform() * std::log(2.0e6)));
    const auto m = static_cast<std::uint64_t>(
        rng.uniform() * static_cast<double>(n + 1));
    const auto k = static_cast<std::uint64_t>(
        rng.uniform() * static_cast<double>(n + 1));
    const double closed = expected_missing_elements(n, m, k);
    const double series =
        eq6_series(static_cast<std::int64_t>(n), static_cast<std::int64_t>(m),
                   static_cast<std::int64_t>(k));
    EXPECT_NEAR(closed, series, 1e-7 * series)
        << "N=" << n << " m=" << m << " k=" << k;
  }
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

TEST(RandomEstimate, UniformChargesOneReferenceAtAnyVisitCount) {
  RandomSpec spec;
  spec.element_count = std::uint64_t{1} << 40;
  spec.element_bytes = 8;
  spec.iterations = 10;
  const CacheConfig c = cache(16, 4096, 64);  // 4 MiB
  for (const double k : {1.0, 0x1p20, 0x1p30, 0x1p40}) {
    spec.visits_per_iteration = k;
    EvalBudget budget;
    ASSERT_TRUE(try_estimate_random(spec, c, &budget).ok()) << "k=" << k;
    EXPECT_EQ(budget.references_used(), 1U) << "k=" << k;
  }
}

TEST(RandomEstimate, VisitsBeyondThePopulationNeedAnOverflowingShare) {
  // k > N (lint's DVF-E012) is a domain error only past the footprint-fits
  // return: a structure that fits its share is compulsory-only at any k.
  RandomSpec spec;
  spec.element_count = 100;
  spec.element_bytes = 8;  // 800 B fits the 8 KiB cache
  spec.visits_per_iteration = 500;
  spec.iterations = 10;
  const CacheConfig c = cache(4, 64, 32);
  EXPECT_DOUBLE_EQ(try_estimate_random(spec, c).value_or_throw(), 25.0);
  spec.element_count = 400;
  spec.element_bytes = 64;  // 25.6 KB does not fit
  const Result<double> r = try_estimate_random(spec, c);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ErrorKind::kDomainError);
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
