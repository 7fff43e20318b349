// Unit tests for the ECC trade-off explorer (§V-B / Fig. 7 machinery).
#include "dvf/dvf/ecc.hpp"

#include <gtest/gtest.h>

#include "dvf/common/error.hpp"
#include "dvf/machine/cache_config.hpp"

namespace dvf {
namespace {

ModelSpec model() {
  ModelSpec spec;
  spec.name = "m";
  spec.exec_time_seconds = 1.0;
  DataStructureSpec ds;
  ds.name = "A";
  ds.size_bytes = 1 << 20;
  StreamingSpec s;
  s.element_bytes = 8;
  s.element_count = (1 << 20) / 8;
  s.stride_elements = 1;
  ds.patterns.emplace_back(s);
  spec.structures.push_back(std::move(ds));
  return spec;
}

EccTradeoffExplorer explorer() {
  return {Machine::with_cache(caches::profiling_8mb()), model()};
}

TEST(EccSweep, ZeroDegradationMeansNoProtection) {
  EccSweepConfig config;
  const auto points = explorer().try_sweep(config).value_or_throw();
  ASSERT_FALSE(points.empty());
  EXPECT_DOUBLE_EQ(points.front().degradation, 0.0);
  EXPECT_DOUBLE_EQ(points.front().coverage, 0.0);
  EXPECT_DOUBLE_EQ(points.front().effective_fit, config.raw_fit);
}

TEST(EccSweep, CoverageSaturatesAtFullCoverageDegradation) {
  EccSweepConfig config;
  config.full_coverage_degradation = 0.05;
  const auto points = explorer().try_sweep(config).value_or_throw();
  for (const auto& pt : points) {
    if (pt.degradation >= 0.05 - 1e-9) {
      EXPECT_DOUBLE_EQ(pt.coverage, 1.0);
      EXPECT_NEAR(pt.effective_fit, fit_rate(config.scheme), 1e-9);
    } else {
      EXPECT_LT(pt.coverage, 1.0);
    }
  }
}

TEST(EccSweep, MinimumSitsAtFullCoverage) {
  EccSweepConfig config;
  config.scheme = EccScheme::kSecDed;
  const auto points = explorer().try_sweep(config).value_or_throw();
  EXPECT_NEAR(EccTradeoffExplorer::optimal_degradation(points), 0.05, 1e-9);
}

TEST(EccSweep, DvfFallsThenRises) {
  EccSweepConfig config;
  const auto points = explorer().try_sweep(config).value_or_throw();
  // Strictly decreasing while coverage grows, strictly increasing after.
  for (std::size_t i = 1; i < points.size(); ++i) {
    if (points[i].degradation <= config.full_coverage_degradation + 1e-9) {
      EXPECT_LT(points[i].dvf, points[i - 1].dvf) << "i=" << i;
    } else {
      EXPECT_GT(points[i].dvf, points[i - 1].dvf) << "i=" << i;
    }
  }
}

TEST(EccSweep, ChipkillDominatesSecdedAtFullCoverage) {
  EccSweepConfig secded;
  secded.scheme = EccScheme::kSecDed;
  EccSweepConfig chipkill;
  chipkill.scheme = EccScheme::kChipkill;
  const auto s = explorer().try_sweep(secded).value_or_throw();
  const auto c = explorer().try_sweep(chipkill).value_or_throw();
  ASSERT_EQ(s.size(), c.size());
  for (std::size_t i = 0; i < s.size(); ++i) {
    if (s[i].coverage > 0.0) {
      EXPECT_LT(c[i].dvf, s[i].dvf) << "i=" << i;
    }
  }
}

TEST(EccSweep, ProtectionAlwaysBeatsNoProtectionWithinBudget) {
  EccSweepConfig config;
  const auto points = explorer().try_sweep(config).value_or_throw();
  const double unprotected = points.front().dvf;
  for (const auto& pt : points) {
    EXPECT_LE(pt.dvf, unprotected * (1.0 + config.max_degradation) + 1e-12);
  }
}

TEST(EccSweep, RejectsBadConfigs) {
  EccSweepConfig config;
  config.step = 0.0;
  EXPECT_THROW((void)explorer().try_sweep(config).value_or_throw(),
               InvalidArgumentError);
  config.step = 0.01;
  config.full_coverage_degradation = 0.0;
  EXPECT_THROW((void)explorer().try_sweep(config).value_or_throw(),
               InvalidArgumentError);
}

TEST(EccExplorer, RequiresExecutionTime) {
  ModelSpec spec = model();
  spec.exec_time_seconds.reset();
  EXPECT_THROW(EccTradeoffExplorer(
                   Machine::with_cache(caches::profiling_8mb()), spec),
               SemanticError);
}

TEST(EccExplorer, OptimalDegradationRejectsEmptySweep) {
  EXPECT_THROW((void)EccTradeoffExplorer::optimal_degradation({}),
               InvalidArgumentError);
}

}  // namespace
}  // namespace dvf
