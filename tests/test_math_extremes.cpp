// Extremes of the compensated sum and log-space combinatorics: NaN
// propagation in KahanSum, and huge coefficients whose log stays finite.
// Complements test_math.cpp, which covers the in-range values.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "dvf/common/math.hpp"

namespace dvf::math {
namespace {

TEST(KahanSum, PropagatesNanForHotPaths) {
  // The unchecked hot-path sum intentionally lets NaN through — the checked
  // boundary (finite_or_error) is where classification lives.
  KahanSum sum;
  sum.add(1.0);
  sum.add(std::nan(""));
  EXPECT_TRUE(std::isnan(sum.value()));
}

TEST(UncheckedLogBinomial, StaysFiniteLogSpaceEvenWhenExpWould) {
  // The log-space value for a huge coefficient is finite; only exp()
  // overflows, which is why the estimators stay in log space.
  const double ln = log_binomial(std::int64_t{1} << 30, std::int64_t{1} << 29);
  EXPECT_TRUE(std::isfinite(ln));
  EXPECT_GT(ln, 700.0);  // exp(ln) would be +inf
}

}  // namespace
}  // namespace dvf::math
