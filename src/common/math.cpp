#include "dvf/common/math.hpp"

#include <math.h>  // lgamma_r

#include <algorithm>
#include <cmath>
#include <limits>

namespace dvf::math {

namespace {

/// ln|Γ(x)|. std::lgamma writes the sign to the global `signgam`, a data
/// race when evaluators run on several threads; lgamma_r returns it through
/// an argument instead and computes the same values (glibc's lgamma wraps
/// it).
double log_gamma(double x) {
  int sign = 0;
  return ::lgamma_r(x, &sign);
}

}  // namespace

double log_binomial(std::int64_t n, std::int64_t k) {
  if (k < 0 || k > n || n < 0) {
    return -std::numeric_limits<double>::infinity();
  }
  if (k == 0 || k == n) {
    return 0.0;
  }
  return log_gamma(static_cast<double>(n) + 1.0) -
         log_gamma(static_cast<double>(k) + 1.0) -
         log_gamma(static_cast<double>(n - k) + 1.0);
}

double binomial(std::int64_t n, std::int64_t k) {
  const double lb = log_binomial(n, k);
  return std::isinf(lb) ? 0.0 : std::exp(lb);
}

double hypergeometric_pmf(std::int64_t total, std::int64_t marked,
                          std::int64_t draws, std::int64_t k) {
  if (total < 0 || marked < 0 || marked > total || draws < 0 || draws > total) {
    return 0.0;
  }
  // Support: max(0, draws - (total - marked)) <= k <= min(draws, marked).
  if (k < std::max<std::int64_t>(0, draws - (total - marked)) ||
      k > std::min(draws, marked)) {
    return 0.0;
  }
  const double log_p = log_binomial(marked, k) +
                       log_binomial(total - marked, draws - k) -
                       log_binomial(total, draws);
  return std::exp(log_p);
}

double binomial_pmf(std::int64_t n, std::int64_t k, double p) {
  if (k < 0 || k > n || n < 0 || p < 0.0 || p > 1.0) {
    return 0.0;
  }
  if (p == 0.0) {
    return k == 0 ? 1.0 : 0.0;
  }
  if (p == 1.0) {
    return k == n ? 1.0 : 0.0;
  }
  const double log_p = log_binomial(n, k) +
                       static_cast<double>(k) * std::log(p) +
                       static_cast<double>(n - k) * std::log1p(-p);
  return std::exp(log_p);
}

double binomial_tail(std::int64_t n, std::int64_t k, double p) {
  if (k <= 0) {
    return 1.0;
  }
  if (k > n) {
    return 0.0;
  }
  // The tails we need are short (k near the cache associativity), so direct
  // summation of the complement is both exact enough and fast.
  KahanSum below;
  for (std::int64_t i = 0; i < k; ++i) {
    below.add(binomial_pmf(n, i, p));
  }
  return std::clamp(1.0 - below.value(), 0.0, 1.0);
}

double stable_sum(std::span<const double> xs) {
  KahanSum s;
  for (const double x : xs) {
    s.add(x);
  }
  return s.value();
}

namespace {

[[nodiscard]] Result<void> check_population(std::int64_t n) {
  if (n > kMaxCombinatoricPopulation) {
    return EvalError{ErrorKind::kOverflow,
                     "population " + std::to_string(n) +
                         " exceeds the checked-combinatorics limit " +
                         std::to_string(kMaxCombinatoricPopulation) +
                         " (log-gamma differences lose all precision)"};
  }
  return {};
}

}  // namespace

Result<double> checked_log_binomial(std::int64_t n, std::int64_t k) {
  DVF_TRY_CHECK(check_population(n));
  return log_binomial(n, k);
}

Result<double> checked_binomial(std::int64_t n, std::int64_t k) {
  DVF_TRY_CHECK(check_population(n));
  const double lb = log_binomial(n, k);
  if (std::isinf(lb)) {
    return 0.0;  // empty support: exactly zero ways
  }
  const double value = std::exp(lb);
  if (!std::isfinite(value)) {
    return EvalError{ErrorKind::kOverflow,
                     "C(" + std::to_string(n) + ", " + std::to_string(k) +
                         ") exceeds the double range (ln C = " +
                         std::to_string(lb) + ")"};
  }
  return value;
}

Result<double> checked_hypergeometric_pmf(std::int64_t total,
                                          std::int64_t marked,
                                          std::int64_t draws, std::int64_t k) {
  DVF_TRY_CHECK(check_population(total));
  const double p = hypergeometric_pmf(total, marked, draws, k);
  if (!std::isfinite(p)) {
    return EvalError{ErrorKind::kNonFinite,
                     "hypergeometric pmf(total=" + std::to_string(total) +
                         ", marked=" + std::to_string(marked) +
                         ", draws=" + std::to_string(draws) +
                         ", k=" + std::to_string(k) +
                         ") is not finite"};
  }
  return p;
}

Result<double> checked_sum(std::span<const double> xs) {
  KahanSum s;
  for (std::size_t i = 0; i < xs.size(); ++i) {
    if (!std::isfinite(xs[i])) {
      return EvalError{ErrorKind::kNonFinite,
                       "summand " + std::to_string(i) + " is " +
                           (std::isnan(xs[i]) ? "NaN" : "infinite")};
    }
    s.add(xs[i]);
  }
  return finite_or_error(s.value(), "checked_sum total");
}

double wilson_half_width(std::uint64_t successes, std::uint64_t n, double z) {
  if (n == 0) {
    return 1.0;
  }
  const double nn = static_cast<double>(n);
  const double p = static_cast<double>(successes) / nn;
  const double z2 = z * z;
  return z * std::sqrt(p * (1.0 - p) / nn + z2 / (4.0 * nn * nn)) /
         (1.0 + z2 / nn);
}

bool approx_equal(double a, double b, double tol) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= tol * scale;
}

double relative_error(double estimate, double reference) {
  if (reference == 0.0) {
    return estimate == 0.0 ? 0.0 : std::numeric_limits<double>::infinity();
  }
  return std::fabs(estimate - reference) / std::fabs(reference);
}

}  // namespace dvf::math
