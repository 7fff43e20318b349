// Unit tests for the numerics substrate: log-gamma combinatorics,
// hypergeometric/binomial distributions, stable summation.
#include "dvf/common/math.hpp"

#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

namespace dvf::math {
namespace {

TEST(LogBinomial, MatchesSmallExactValues) {
  EXPECT_DOUBLE_EQ(binomial(0, 0), 1.0);
  EXPECT_NEAR(binomial(5, 2), 10.0, 1e-9);
  EXPECT_NEAR(binomial(10, 5), 252.0, 1e-7);
  EXPECT_NEAR(binomial(52, 5), 2598960.0, 1e-2);
}

TEST(LogBinomial, OutOfRangeIsZero) {
  EXPECT_EQ(binomial(5, 6), 0.0);
  EXPECT_EQ(binomial(5, -1), 0.0);
  EXPECT_EQ(binomial(-2, 1), 0.0);
  EXPECT_TRUE(std::isinf(log_binomial(3, 7)));
}

TEST(LogBinomial, SymmetricInK) {
  for (std::int64_t n = 1; n < 40; ++n) {
    for (std::int64_t k = 0; k <= n; ++k) {
      EXPECT_NEAR(log_binomial(n, k), log_binomial(n, n - k), 1e-9)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(LogBinomial, LargePopulationsStayFinite) {
  const double lb = log_binomial(10'000'000, 5'000'000);
  EXPECT_TRUE(std::isfinite(lb));
  EXPECT_GT(lb, 0.0);
}

// Evaluators call log_binomial from several threads at once (two serve
// clients on one engine). Under ThreadSanitizer this fails if it touches
// shared state such as glibc's `signgam`; everywhere it checks that every
// thread sees the serial values, which are those of std::lgamma.
TEST(MathConcurrency, LogBinomialFromManyThreads) {
  std::vector<std::pair<std::int64_t, std::int64_t>> args;
  for (std::int64_t n = 1; n < 2000; n += 37) {
    for (std::int64_t k = 1; k < n; k += 11) {
      args.emplace_back(n, k);
    }
  }
  std::vector<double> serial;
  for (const auto& [n, k] : args) {
    serial.push_back(log_binomial(n, k));
    EXPECT_EQ(serial.back(), std::lgamma(static_cast<double>(n) + 1.0) -
                                 std::lgamma(static_cast<double>(k) + 1.0) -
                                 std::lgamma(static_cast<double>(n - k) + 1.0))
        << "n=" << n << " k=" << k;
  }
  std::vector<int> mismatches(4, 0);
  std::vector<std::thread> threads;
  for (std::size_t t = 0; t < mismatches.size(); ++t) {
    threads.emplace_back([&, t] {
      for (int round = 0; round < 20; ++round) {
        for (std::size_t i = 0; i < args.size(); ++i) {
          mismatches[t] +=
              log_binomial(args[i].first, args[i].second) != serial[i] ? 1 : 0;
        }
      }
    });
  }
  for (std::thread& thread : threads) {
    thread.join();
  }
  for (const int m : mismatches) {
    EXPECT_EQ(m, 0);
  }
}

TEST(Hypergeometric, SumsToOneOverSupport) {
  const std::int64_t total = 50;
  const std::int64_t marked = 18;
  const std::int64_t draws = 12;
  double sum = 0.0;
  for (std::int64_t k = 0; k <= draws; ++k) {
    sum += hypergeometric_pmf(total, marked, draws, k);
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Hypergeometric, MeanMatchesTheory) {
  const std::int64_t total = 200;
  const std::int64_t marked = 60;
  const std::int64_t draws = 25;
  double mean = 0.0;
  for (std::int64_t k = 0; k <= draws; ++k) {
    mean += static_cast<double>(k) * hypergeometric_pmf(total, marked, draws, k);
  }
  const double expected = static_cast<double>(draws) * marked / total;
  EXPECT_NEAR(mean, expected, 1e-9);
}

TEST(Hypergeometric, ZeroOutsideSupport) {
  // Drawing more marked items than exist is impossible.
  EXPECT_EQ(hypergeometric_pmf(10, 3, 5, 4), 0.0);
  // Drawing fewer marked items than forced by the pool size is impossible.
  EXPECT_EQ(hypergeometric_pmf(10, 8, 5, 2), 0.0);
  // Invalid configurations.
  EXPECT_EQ(hypergeometric_pmf(10, 12, 5, 3), 0.0);
  EXPECT_EQ(hypergeometric_pmf(10, 3, 12, 3), 0.0);
}

TEST(BinomialPmf, MatchesClosedForm) {
  EXPECT_NEAR(binomial_pmf(4, 2, 0.5), 6.0 / 16.0, 1e-12);
  EXPECT_NEAR(binomial_pmf(10, 0, 0.1), std::pow(0.9, 10), 1e-12);
  EXPECT_NEAR(binomial_pmf(10, 10, 0.1), std::pow(0.1, 10), 1e-20);
}

TEST(BinomialPmf, DegenerateProbabilities) {
  EXPECT_EQ(binomial_pmf(5, 0, 0.0), 1.0);
  EXPECT_EQ(binomial_pmf(5, 3, 0.0), 0.0);
  EXPECT_EQ(binomial_pmf(5, 5, 1.0), 1.0);
  EXPECT_EQ(binomial_pmf(5, 2, 1.0), 0.0);
}

TEST(BinomialPmf, SumsToOne) {
  const std::int64_t n = 64;
  const double p = 1.0 / 64.0;
  double sum = 0.0;
  for (std::int64_t k = 0; k <= n; ++k) {
    sum += binomial_pmf(n, k, p);
  }
  EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(BinomialTail, ComplementsThePmf) {
  const std::int64_t n = 32;
  const double p = 0.07;
  for (std::int64_t k = 0; k <= n + 1; ++k) {
    double direct = 0.0;
    for (std::int64_t i = k; i <= n; ++i) {
      direct += binomial_pmf(n, i, p);
    }
    EXPECT_NEAR(binomial_tail(n, k, p), direct, 1e-10) << "k=" << k;
  }
}

TEST(KahanSum, RecoversSmallAddendsLostByNaiveSummation) {
  KahanSum sum;
  sum.add(1.0);
  for (int i = 0; i < 10'000'000; ++i) {
    sum.add(1e-16);
  }
  EXPECT_NEAR(sum.value(), 1.0 + 1e-9, 1e-12);
}

TEST(StableSum, MatchesKahan) {
  std::vector<double> xs(1000, 0.1);
  EXPECT_NEAR(stable_sum(xs), 100.0, 1e-12);
}

TEST(CeilDiv, Basics) {
  EXPECT_EQ(ceil_div(0, 4), 0u);
  EXPECT_EQ(ceil_div(1, 4), 1u);
  EXPECT_EQ(ceil_div(4, 4), 1u);
  EXPECT_EQ(ceil_div(5, 4), 2u);
}

TEST(RelativeError, Conventions) {
  EXPECT_EQ(relative_error(0.0, 0.0), 0.0);
  EXPECT_TRUE(std::isinf(relative_error(1.0, 0.0)));
  EXPECT_NEAR(relative_error(110.0, 100.0), 0.1, 1e-12);
}

TEST(ApproxEqual, ScalesWithMagnitude) {
  EXPECT_TRUE(approx_equal(1e12, 1e12 + 1.0, 1e-9));
  EXPECT_FALSE(approx_equal(1.0, 1.1, 1e-9));
}

TEST(WilsonHalfWidth, NoDataMeansMaximalUncertainty) {
  EXPECT_EQ(wilson_half_width(0, 0), 1.0);
}

TEST(WilsonHalfWidth, PinnedValue) {
  // p̂ = 0.5, n = 10, z = 1.959964: the 95% Wilson interval is
  // 0.5 ± 0.26340 (0.2366, 0.7634).
  EXPECT_NEAR(wilson_half_width(5, 10), 0.26340, 1e-4);
}

TEST(WilsonHalfWidth, SymmetricInSuccessesAndFailures) {
  for (std::uint64_t n : {1u, 7u, 100u}) {
    for (std::uint64_t k = 0; k <= n; ++k) {
      EXPECT_NEAR(wilson_half_width(k, n), wilson_half_width(n - k, n), 1e-12)
          << "n=" << n << " k=" << k;
    }
  }
}

TEST(WilsonHalfWidth, ShrinksWithSampleSizeAndStaysProper) {
  double previous = 1.0;
  for (std::uint64_t n = 10; n <= 100'000; n *= 10) {
    const double half = wilson_half_width(n / 2, n);
    EXPECT_GT(half, 0.0) << "n=" << n;
    EXPECT_LT(half, previous) << "n=" << n;
    previous = half;
  }
  // Unlike the Wald interval, the Wilson half-width is non-degenerate at
  // the boundaries p̂ = 0 and p̂ = 1.
  EXPECT_GT(wilson_half_width(0, 50), 0.0);
  EXPECT_LT(wilson_half_width(0, 50), 0.1);
  EXPECT_GT(wilson_half_width(50, 50), 0.0);
}

}  // namespace
}  // namespace dvf::math
