// Tests for the weighted DVF refinement (§III-A).
#include "dvf/dvf/weighted.hpp"

#include <gtest/gtest.h>

#include <cmath>

namespace dvf {
namespace {

StructureDvf sample() {
  StructureDvf s;
  s.name = "A";
  s.n_error = 4.0;
  s.n_ha = 9.0;
  s.dvf = 36.0;
  return s;
}

TEST(WeightedDvf, UnitWeightsReproducePlainDvf) {
  EXPECT_DOUBLE_EQ(try_weighted_dvf(sample(), {}).value_or_throw(),
                   sample().dvf);
}

TEST(WeightedDvf, ZeroWeightRemovesATerm) {
  EXPECT_DOUBLE_EQ(
      try_weighted_dvf(sample(), {.error_weight = 0.0}).value_or_throw(), 9.0);
  EXPECT_DOUBLE_EQ(
      try_weighted_dvf(sample(), {.access_weight = 0.0}).value_or_throw(), 4.0);
  EXPECT_DOUBLE_EQ(
      try_weighted_dvf(sample(), {.error_weight = 0.0, .access_weight = 0.0})
          .value_or_throw(),
      1.0);
}

TEST(WeightedDvf, FractionalWeights) {
  EXPECT_DOUBLE_EQ(
      try_weighted_dvf(sample(), {.error_weight = 0.5, .access_weight = 0.5})
          .value_or_throw(),
      2.0 * 3.0);
}

TEST(WeightedDvf, PreservesOrderingForEqualWeights) {
  StructureDvf small = sample();
  StructureDvf big = sample();
  big.n_ha *= 10.0;
  for (const double w : {0.5, 1.0, 2.0}) {
    EXPECT_LT(try_weighted_dvf(small, {w, w}).value_or_throw(),
              try_weighted_dvf(big, {w, w}).value_or_throw());
  }
}

TEST(WeightedDvf, RejectsNegativeWeights) {
  EXPECT_THROW(
      (void)try_weighted_dvf(sample(), {.error_weight = -1.0}).value_or_throw(),
      InvalidArgumentError);
}

TEST(WeightedApplicationDvf, SumsWeightedStructures) {
  ApplicationDvf app;
  app.structures.push_back(sample());
  app.structures.push_back(sample());
  app.structures[1].n_ha = 16.0;
  const DvfWeights weights{.error_weight = 1.0, .access_weight = 0.5};
  EXPECT_DOUBLE_EQ(try_weighted_application_dvf(app, weights).value_or_throw(),
                   4.0 * 3.0 + 4.0 * 4.0);
}

}  // namespace
}  // namespace dvf
