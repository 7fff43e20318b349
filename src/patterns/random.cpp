#include "dvf/patterns/random.hpp"

#include <algorithm>
#include <span>
#include <cmath>
#include <utility>
#include <vector>

#include "dvf/common/error.hpp"
#include "dvf/common/math.hpp"

namespace dvf {

double expected_missing_elements(std::uint64_t element_count,
                                 std::uint64_t cached_elements,
                                 std::uint64_t visits) {
  const auto n = static_cast<std::int64_t>(element_count);
  const auto m = static_cast<std::int64_t>(cached_elements);
  const auto k = static_cast<std::int64_t>(visits);
  if (k <= 0 || n <= 0) {
    return 0.0;
  }
  if (m >= n) {
    return 0.0;  // everything fits: no element can be missing
  }
  // Eq. 6: X_E = sum_{x=1}^{min(N-m, k)} x * P(X = x), where X = k minus the
  // number of visited elements found among the m cached ones, so
  // P(X = x) = Hypergeometric(total=N, marked=k, draws=m) at (k - x) (Eq. 5).
  const std::int64_t x_max = std::min<std::int64_t>(n - m, k);
  math::KahanSum sum;
  for (std::int64_t x = 1; x <= x_max; ++x) {
    const double p = math::hypergeometric_pmf(n, k, m, k - x);
    sum.add(static_cast<double>(x) * p);
  }
  return sum.value();
}

double expected_misses_lru_irm(std::span<const double> visit_fractions,
                               std::uint64_t cached_elements) {
  if (cached_elements == 0) {
    math::KahanSum all;
    for (const double f : visit_fractions) {
      all.add(f);
    }
    return all.value();
  }
  if (cached_elements >= visit_fractions.size()) {
    return 0.0;
  }

  // Profiled histograms are dominated by repeated values (bisection levels,
  // tree levels, cold tails), so run-length compress before the root
  // search: the bisection then costs O(distinct) instead of O(N) per probe.
  // Kernel-produced histograms arrive sorted (either direction), in which
  // case compression is a single pass without the sort.
  std::vector<std::pair<double, double>> runs;  // (fraction, multiplicity)
  {
    const bool ascending = std::is_sorted(visit_fractions.begin(),
                                          visit_fractions.end());
    const bool descending = ascending ||
        std::is_sorted(visit_fractions.rbegin(), visit_fractions.rend());
    std::vector<double> scratch;
    std::span<const double> ordered = visit_fractions;
    if (!ascending && !descending) {
      scratch.assign(visit_fractions.begin(), visit_fractions.end());
      std::sort(scratch.begin(), scratch.end());
      ordered = scratch;
    }
    for (std::size_t i = 0; i < ordered.size();) {
      std::size_t j = i;
      while (j < ordered.size() && ordered[j] == ordered[i]) {
        ++j;
      }
      runs.emplace_back(std::clamp(ordered[i], 0.0, 1.0),
                        static_cast<double>(j - i));
      i = j;
    }
  }

  // Che's characteristic-time approximation of LRU under the independent
  // reference model: an element with per-iteration visit probability f is
  // resident with probability 1 - (1-f)^Tc, where Tc (in iterations) solves
  //   sum_i [1 - (1-f_i)^Tc] = m.
  // Expected misses per iteration are then sum_i f_i (1-f_i)^Tc.
  const double m = static_cast<double>(cached_elements);
  const auto occupancy = [&runs](double tc) {
    math::KahanSum occ;
    for (const auto& [f, count] : runs) {
      occ.add(count * (1.0 - std::pow(1.0 - f, tc)));
    }
    return occ.value();
  };

  double lo = 0.0;
  double hi = 1.0;
  while (occupancy(hi) < m && hi < 1e15) {
    hi *= 2.0;
  }
  for (int iter = 0; iter < 200 && (hi - lo) > 1e-9 * hi; ++iter) {
    const double mid = 0.5 * (lo + hi);
    (occupancy(mid) < m ? lo : hi) = mid;
  }
  const double tc = 0.5 * (lo + hi);

  math::KahanSum misses;
  for (const auto& [f, count] : runs) {
    misses.add(count * f * std::pow(1.0 - f, tc));
  }
  return misses.value();
}

namespace {

/// Budgeted Eq. 6 sum: the same series as expected_missing_elements, but the
/// support size is charged against the budget (an adversarial spec can make
/// it ~2^62 terms) and the wall clock is observed between chunks.
Result<double> try_expected_missing_elements(std::int64_t n, std::int64_t m,
                                             std::int64_t k,
                                             EvalBudget& budget) {
  if (k <= 0 || n <= 0 || m >= n) {
    return 0.0;
  }
  const std::int64_t x_max = std::min<std::int64_t>(n - m, k);
  DVF_TRY_CHECK(budget.charge_references(static_cast<std::uint64_t>(x_max)));
  math::KahanSum sum;
  for (std::int64_t x = 1; x <= x_max; ++x) {
    DVF_TRY_ASSIGN(p, math::checked_hypergeometric_pmf(n, k, m, k - x));
    sum.add(static_cast<double>(x) * p);
    if ((x & 0xFFFF) == 0) {
      DVF_TRY_CHECK(budget.check_deadline());
    }
  }
  return finite_or_error(sum.value(), "expected missing elements (Eq. 6)");
}

}  // namespace

Result<double> try_estimate_random(const RandomSpec& spec,
                                   const CacheConfig& cache,
                                   EvalBudget* budget_in) {
  EvalBudget& budget = budget_or_default(budget_in);
  DVF_EVAL_REQUIRE(spec.element_count > 0, "random: element count must be > 0");
  DVF_EVAL_REQUIRE(spec.element_bytes > 0, "random: element size must be > 0");
  DVF_EVAL_REQUIRE(spec.cache_ratio > 0.0 && spec.cache_ratio <= 1.0,
                   "random: cache ratio must be in (0, 1]");
  if (!std::isfinite(spec.visits_per_iteration)) {
    return EvalError{ErrorKind::kNonFinite,
                     "random: k (visits per iteration) is not finite"};
  }
  DVF_EVAL_REQUIRE(spec.visits_per_iteration >= 0.0,
                   "random: k must be non-negative");
  DVF_TRY_CHECK(budget.check_deadline());

  const double e = spec.element_bytes;
  const double n = static_cast<double>(spec.element_count);
  const double cl = cache.line_bytes();
  const double footprint = e * n;
  const double cache_share = static_cast<double>(cache.capacity_bytes()) *
                             spec.cache_ratio;
  const double footprint_blocks =
      std::ceil(footprint / cl);  // ceil(E*N / CL): compulsory load

  // Case 1: the structure's share of the cache holds every element —
  // compulsory misses only.
  if (footprint <= cache_share) {
    return footprint_blocks;
  }

  // Case 2 (Eqs. 5–7): per iteration, X_E of the k visited elements are
  // expected to be out of cache and must be reloaded.
  const auto m = static_cast<std::uint64_t>(cache_share / e);  // cached elements
  double xe;
  if (!spec.sorted_visit_fractions.empty()) {
    for (std::size_t i = 0; i < spec.sorted_visit_fractions.size(); ++i) {
      const double f = spec.sorted_visit_fractions[i];
      if (!std::isfinite(f)) {
        return EvalError{ErrorKind::kNonFinite,
                         "random: visit fraction " + std::to_string(i) +
                             " is not finite"};
      }
      // A fraction outside [0, 1] is not a probability; the zero-residency
      // path of the IRM estimator sums the raw histogram, so a negative
      // entry would surface as a negative miss count.
      DVF_EVAL_REQUIRE(f >= 0.0 && f <= 1.0,
                       "random: visit fraction " + std::to_string(i) +
                           " must be in [0, 1]");
    }
    // Bisection cost: ~260 occupancy probes, each a pass over the
    // run-length-compressed histogram (bounded by its raw size).
    DVF_TRY_CHECK(budget.charge_references(
        math::saturating_mul(spec.sorted_visit_fractions.size(), 260)));
    xe = expected_misses_lru_irm(spec.sorted_visit_fractions, m);
  } else {
    if (spec.element_count >
        static_cast<std::uint64_t>(math::kMaxCombinatoricPopulation)) {
      return EvalError{
          ErrorKind::kOverflow,
          "random: population " + std::to_string(spec.element_count) +
              " exceeds the checked-combinatorics limit " +
              std::to_string(math::kMaxCombinatoricPopulation)};
    }
    // llround is undefined for values outside the target range; the
    // population guard above bounds the useful k, so anything beyond it is
    // clamped (the Eq. 6 support caps at n - m anyway).
    const double k_clamped =
        std::min(spec.visits_per_iteration,
                 static_cast<double>(math::kMaxCombinatoricPopulation));
    const auto k = static_cast<std::int64_t>(std::llround(k_clamped));
    // Clamp m to the population before the signed cast: m can reach 2^64 / E
    // for huge caches, and Eq. 6 only cares whether m >= n anyway.
    const auto m_clamped = static_cast<std::int64_t>(
        std::min<std::uint64_t>(m, spec.element_count));
    DVF_TRY_ASSIGN(missing, try_expected_missing_elements(
                                static_cast<std::int64_t>(spec.element_count),
                                m_clamped, k, budget));
    xe = missing;
  }

  // B_elm: blocks needed to bring the missing elements in. When an element
  // spans multiple lines each miss costs ceil(E/CL) blocks; otherwise at
  // most one block per missing element.
  const double blocks_per_element = cl < e ? std::ceil(e / cl) : 1.0;
  const double b_elm = blocks_per_element * xe;

  // B_out: blocks of the structure that are not resident — an upper bound on
  // what one iteration can possibly reload.
  const double resident_blocks = static_cast<double>(cache.total_blocks()) *
                                 spec.cache_ratio;
  const double b_out = std::max(0.0, footprint / cl - resident_blocks);

  const double b_reload = std::min(b_elm, b_out);  // Eq. 7
  return finite_or_error(
      footprint_blocks + b_reload * static_cast<double>(spec.iterations),
      "random estimate (Eq. 7)");
}

}  // namespace dvf
