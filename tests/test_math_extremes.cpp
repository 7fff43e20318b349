// Extremes of the compensated sums and log-space combinatorics: Inf/NaN
// classification in checked_sum, NaN propagation in stable_sum, and huge
// coefficients whose log stays finite. Complements test_math.cpp, which
// covers the in-range values.
#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "dvf/common/math.hpp"
#include "dvf/common/result.hpp"

namespace dvf::math {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

TEST(CheckedSum, SumsFiniteSpansLikeStableSum) {
  const std::vector<double> xs{0.25, 0.5, 0.125, 1e6, -1e6};
  const auto r = checked_sum(xs);
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value(), 0.875);
  EXPECT_DOUBLE_EQ(r.value(), stable_sum(xs));
}

TEST(CheckedSum, EmptySpanIsExactZero) {
  const auto r = checked_sum(std::span<const double>{});
  ASSERT_TRUE(r.ok());
  EXPECT_DOUBLE_EQ(r.value(), 0.0);
}

TEST(CheckedSum, ClassifiesNanInputWithItsIndex) {
  const std::vector<double> xs{1.0, 2.0, std::nan(""), 4.0};
  const auto r = checked_sum(xs);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ErrorKind::kNonFinite);
  EXPECT_NE(r.error().message.find("2"), std::string::npos)
      << "message should name the offending index: " << r.error().message;
}

TEST(CheckedSum, ClassifiesInfInput) {
  const std::vector<double> xs{1.0, kInf};
  const auto r = checked_sum(xs);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ErrorKind::kNonFinite);
}

TEST(CheckedSum, ClassifiesAccumulatedOverflow) {
  // Each term is finite but the total leaves the double range.
  const std::vector<double> xs{1e308, 1e308};
  const auto r = checked_sum(xs);
  ASSERT_FALSE(r.ok());
  EXPECT_EQ(r.error().kind, ErrorKind::kOverflow);

  // Once the Kahan compensation itself has gone non-finite (three huge
  // terms: inf - inf = NaN), the classified kind degrades to non_finite —
  // still a classified error, never a silent NaN.
  const std::vector<double> three{1e308, 1e308, 1e308};
  const auto r3 = checked_sum(three);
  ASSERT_FALSE(r3.ok());
  EXPECT_EQ(r3.error().kind, ErrorKind::kNonFinite);
}

TEST(StableSum, PropagatesNanForHotPaths) {
  // The unchecked hot-path sum intentionally lets NaN through — the checked
  // boundary (finite_or_error / checked_sum) is where classification lives.
  const std::vector<double> xs{1.0, std::nan("")};
  EXPECT_TRUE(std::isnan(stable_sum(xs)));
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
