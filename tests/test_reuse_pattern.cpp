// Unit + property tests for the data-reuse model (Eqs. 8–15) and the
// occupancy/scenario variants.
#include "dvf/patterns/reuse.hpp"

#include <gtest/gtest.h>

#include <numeric>

#include "dvf/common/error.hpp"

namespace dvf {
namespace {

CacheConfig small() { return {"small", 4, 64, 32}; }

double total_mass(const std::vector<double>& dist) {
  return std::accumulate(dist.begin(), dist.end(), 0.0);
}

TEST(OccupancyDistribution, IsAPmfWithCorrectSupport) {
  for (const std::uint64_t blocks : {0ULL, 1ULL, 64ULL, 300ULL, 100000ULL}) {
    const auto dist = set_occupancy_distribution(blocks, small());
    ASSERT_EQ(dist.size(), 5u);  // 0..CA
    EXPECT_NEAR(total_mass(dist), 1.0, 1e-9) << blocks;
    for (const double p : dist) {
      EXPECT_GE(p, 0.0);
    }
  }
}

TEST(OccupancyDistribution, ZeroBlocksLeaveEmptySets) {
  const auto dist = set_occupancy_distribution(0, small());
  EXPECT_DOUBLE_EQ(dist[0], 1.0);
  EXPECT_DOUBLE_EQ(expected_occupancy(dist), 0.0);
}

TEST(OccupancyDistribution, HugeStructureSaturatesEverySet) {
  const auto dist = set_occupancy_distribution(1000000, small());
  EXPECT_NEAR(dist[4], 1.0, 1e-9);
  EXPECT_NEAR(expected_occupancy(dist), 4.0, 1e-9);
}

TEST(OccupancyDistribution, MeanMatchesUncappedBinomialWhenFarFromCap) {
  // 64 blocks over 64 sets: mean 1, far below CA=4 — expectation ~ F/NA.
  const auto dist = set_occupancy_distribution(64, small());
  EXPECT_NEAR(expected_occupancy(dist), 1.0, 0.01);
}

TEST(ContiguousOccupancy, ExactTwoPointDistribution) {
  // 150 blocks over 64 sets: 22 sets hold 3, 42 hold 2.
  const auto dist = set_occupancy_contiguous(150, small());
  EXPECT_NEAR(dist[2], 42.0 / 64.0, 1e-12);
  EXPECT_NEAR(dist[3], 22.0 / 64.0, 1e-12);
  EXPECT_NEAR(total_mass(dist), 1.0, 1e-12);
  EXPECT_NEAR(expected_occupancy(dist) * 64.0, 150.0, 1e-9);
}

TEST(ContiguousOccupancy, CapsAtAssociativity) {
  const auto dist = set_occupancy_contiguous(1000, small());
  EXPECT_DOUBLE_EQ(dist[4], 1.0);
}

TEST(SurvivorDistribution, NoInterfererMeansNoLoss) {
  for (const auto occupancy : {ReuseOccupancy::kBernoulli,
                               ReuseOccupancy::kContiguous}) {
    const auto base = occupancy == ReuseOccupancy::kContiguous
                          ? set_occupancy_contiguous(100, small())
                          : set_occupancy_distribution(100, small());
    const auto survived = survivor_distribution(
        100, 0, small(), ReuseScenario::kLruProtects, occupancy);
    EXPECT_NEAR(expected_occupancy(survived), expected_occupancy(base), 1e-9);
  }
}

TEST(SurvivorDistribution, HeavyInterferenceEvictsUnderLru) {
  // Interferer saturates every set: under Eq. 11 the target keeps nothing.
  const auto survived = survivor_distribution(
      100, 1000000, small(), ReuseScenario::kLruProtects,
      ReuseOccupancy::kContiguous);
  EXPECT_NEAR(expected_occupancy(survived), 0.0, 1e-9);
}

TEST(SurvivorDistribution, ScenariosAreOrderedUnderModerateInterference) {
  // With a same-size interferer, uniform eviction strikes the target while
  // LRU protection spares it; blend sits between.
  const double lru = expected_occupancy(survivor_distribution(
      128, 128, small(), ReuseScenario::kLruProtects));
  const double uniform = expected_occupancy(survivor_distribution(
      128, 128, small(), ReuseScenario::kUniformEviction));
  const double blend = expected_occupancy(survivor_distribution(
      128, 128, small(), ReuseScenario::kBlend));
  EXPECT_GT(lru, uniform);
  EXPECT_NEAR(blend, 0.5 * (lru + uniform), 1e-9);
}

TEST(SurvivorDistribution, AlwaysAPmf) {
  for (const auto scenario : {ReuseScenario::kLruProtects,
                              ReuseScenario::kUniformEviction,
                              ReuseScenario::kBlend}) {
    for (const std::uint64_t fb : {0ULL, 50ULL, 256ULL, 5000ULL}) {
      const auto dist = survivor_distribution(120, fb, small(), scenario);
      EXPECT_NEAR(total_mass(dist), 1.0, 1e-6)
          << "fb=" << fb << " scenario=" << static_cast<int>(scenario);
    }
  }
}

TEST(ReuseEstimate, FittingStructureLoadsOnce) {
  ReuseSpec spec;
  spec.self_bytes = 2048;   // 64 blocks
  spec.other_bytes = 1024;  // 32 blocks: together well under 256
  spec.reuse_rounds = 50;
  spec.occupancy = ReuseOccupancy::kContiguous;
  EXPECT_NEAR(try_estimate_reuse(spec, small()).value_or_throw(), 64.0, 1e-6);
}

TEST(ReuseEstimate, OverwhelmedStructureReloadsEveryRound) {
  ReuseSpec spec;
  spec.self_bytes = 32 * 300;     // 300 blocks > 256-block cache
  spec.other_bytes = 32 * 10000;  // saturating interference
  spec.reuse_rounds = 10;
  spec.occupancy = ReuseOccupancy::kContiguous;
  EXPECT_NEAR(try_estimate_reuse(spec, small()).value_or_throw(),
              300.0 * 11.0, 1e-6);
}

TEST(ReuseEstimate, MonotoneInInterfererSize) {
  ReuseSpec spec;
  spec.self_bytes = 32 * 128;
  spec.reuse_rounds = 20;
  double prev = -1.0;
  for (const std::uint64_t other : {0ULL, 1024ULL, 4096ULL, 16384ULL,
                                    1048576ULL}) {
    spec.other_bytes = other;
    const double estimate = try_estimate_reuse(spec, small()).value_or_throw();
    EXPECT_GE(estimate, prev - 1e-9) << "other=" << other;
    prev = estimate;
  }
}

TEST(ReuseEstimate, MonotoneInRounds) {
  ReuseSpec spec;
  spec.self_bytes = 32 * 300;
  spec.other_bytes = 32 * 300;
  double prev = 0.0;
  for (const std::uint64_t rounds : {1ULL, 2ULL, 8ULL, 64ULL}) {
    spec.reuse_rounds = rounds;
    const double estimate = try_estimate_reuse(spec, small()).value_or_throw();
    EXPECT_GT(estimate, prev) << "rounds=" << rounds;
    prev = estimate;
  }
}

TEST(ReuseEstimate, RejectsEmptyTarget) {
  ReuseSpec spec;
  EXPECT_THROW((void)try_estimate_reuse(spec, small()).value_or_throw(),
               InvalidArgumentError);
}

}  // namespace
}  // namespace dvf
