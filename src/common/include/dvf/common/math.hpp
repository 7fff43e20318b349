// Numerically stable combinatorics and small statistics helpers.
//
// The random-access model (paper Eqs. 5–7) evaluates hypergeometric
// probabilities with populations up to ~10^7; naive factorials overflow, so
// everything routes through log-gamma.
#pragma once

#include <cstdint>
#include <vector>

namespace dvf::math {

/// ln C(n, k); returns -infinity when the coefficient is zero
/// (k < 0 or k > n), so exp() of the result is always the true value.
[[nodiscard]] double log_binomial(std::int64_t n, std::int64_t k);

/// C(n, k) computed through log-gamma. Exact enough for probability ratios.
[[nodiscard]] double binomial(std::int64_t n, std::int64_t k);

/// Hypergeometric pmf: probability of drawing `k` marked items in `draws`
/// draws without replacement from a population of `total` containing
/// `marked` marked items.
[[nodiscard]] double hypergeometric_pmf(std::int64_t total, std::int64_t marked,
                                        std::int64_t draws, std::int64_t k);

/// Binomial pmf: P(X = k) for X ~ Binomial(n, p).
[[nodiscard]] double binomial_pmf(std::int64_t n, std::int64_t k, double p);

/// Upper-tail binomial mass: P(X >= k) for X ~ Binomial(n, p).
[[nodiscard]] double binomial_tail(std::int64_t n, std::int64_t k, double p);

/// Kahan-compensated running sum, for accumulating long probability series.
class KahanSum {
 public:
  void add(double x) noexcept {
    const double y = x - compensation_;
    const double t = sum_ + y;
    compensation_ = (t - sum_) - y;
    sum_ = t;
  }
  [[nodiscard]] double value() const noexcept { return sum_; }

 private:
  double sum_ = 0.0;
  double compensation_ = 0.0;
};

// ---------------------------------------------------------------------------
// Population guard. Eqs. 5-7 route through log-gamma, which keeps the LOG
// finite for any population, but above kMaxCombinatoricPopulation the
// log-gamma differences have lost every significant digit (lgamma(n) grows
// like n*ln(n); at n ≈ 2^48 its absolute rounding error reaches order 1 in
// log space, i.e. a factor of e in the probability).

/// Largest population the random and reuse estimators accept. Beyond it the
/// result would be numerically meaningless, so they return a classified
/// overflow error instead.
inline constexpr std::int64_t kMaxCombinatoricPopulation = std::int64_t{1}
                                                           << 48;

/// Integer ceiling division for non-negative operands. Written without the
/// (a + b - 1) intermediate so it cannot wrap for any a, b.
[[nodiscard]] constexpr std::uint64_t ceil_div(std::uint64_t a, std::uint64_t b) {
  return a / b + (a % b != 0 ? 1 : 0);
}

/// a * b clamped to UINT64_MAX instead of wrapping. Cost estimates charged
/// against an EvalBudget use this: a saturated estimate still trips the
/// budget, a wrapped one silently passes.
[[nodiscard]] constexpr std::uint64_t saturating_mul(std::uint64_t a,
                                                     std::uint64_t b) {
  std::uint64_t out = 0;
  return __builtin_mul_overflow(a, b, &out) ? ~std::uint64_t{0} : out;
}

/// a + b clamped to UINT64_MAX instead of wrapping.
[[nodiscard]] constexpr std::uint64_t saturating_add(std::uint64_t a,
                                                     std::uint64_t b) {
  std::uint64_t out = 0;
  return __builtin_add_overflow(a, b, &out) ? ~std::uint64_t{0} : out;
}

/// Half-width of the Wilson score confidence interval for a binomial
/// proportion with `successes` out of `n` observations at critical value
/// `z` (default: two-sided 95%). Returns 1.0 (maximal uncertainty) when
/// n == 0, so adaptive-stopping loops can call it unconditionally. Unlike
/// the Wald interval, the width is well-behaved at p̂ = 0 or 1 — exactly
/// the regime of rare SDC outcomes in injection campaigns.
[[nodiscard]] double wilson_half_width(std::uint64_t successes,
                                       std::uint64_t n,
                                       double z = 1.959963984540054);

/// Relative error |est - ref| / |ref| (0 when both are 0, +inf when only the
/// reference is 0). Used by the verification harness to report Fig. 4 errors.
[[nodiscard]] double relative_error(double estimate, double reference);

}  // namespace dvf::math
