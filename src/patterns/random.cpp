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
  if (visits == 0 || element_count == 0 ||
      cached_elements >= element_count) {
    return 0.0;  // nothing visited, or everything fits: none can be missing
  }
  // Eq. 6: X_E = sum_x x * P(X = x), where X = k minus the number of visited
  // elements found among the m cached ones (Eq. 5's hypergeometric). The
  // sum over the whole support is the mean of X, k - k*m/N = k (N - m) / N.
  const double n = static_cast<double>(element_count);
  return static_cast<double>(visits) *
         (static_cast<double>(element_count - cached_elements) / n);
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

Result<RandomFacts> try_random_facts(const RandomSpec& spec,
                                     const CacheConfig& cache) {
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

  const double e = spec.element_bytes;
  const double n = static_cast<double>(spec.element_count);
  const double cl = cache.line_bytes();
  const double footprint = e * n;
  const double cache_share = static_cast<double>(cache.capacity_bytes()) *
                             spec.cache_ratio;
  RandomFacts facts;
  facts.footprint_blocks = std::ceil(footprint / cl);
  facts.share.working_set_blocks = math::ceil_div(
      math::saturating_mul(spec.element_bytes, spec.element_count),
      cache.line_bytes());
  facts.share.capacity_blocks = share_blocks(cache, spec.cache_ratio);
  // Case 1: the structure's share of the cache holds every element —
  // compulsory misses only.
  if (footprint <= cache_share) {
    facts.regime = RandomCase::kFits;
    return facts;
  }
  facts.share.exceeds_share = true;
  facts.cached_elements = static_cast<std::uint64_t>(cache_share / e);
  const double resident_blocks = static_cast<double>(cache.total_blocks()) *
                                 spec.cache_ratio;
  facts.out_blocks = std::max(0.0, footprint / cl - resident_blocks);

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
    facts.regime = RandomCase::kIrm;
    return facts;
  }
  if (spec.element_count >
      static_cast<std::uint64_t>(math::kMaxCombinatoricPopulation)) {
    return EvalError{
        ErrorKind::kOverflow,
        "random: population " + std::to_string(spec.element_count) +
            " exceeds the checked-combinatorics limit " +
            std::to_string(math::kMaxCombinatoricPopulation)};
  }
  // Eq. 5 draws the k visited elements without replacement from N, so a
  // larger k has no hypergeometric at all (lint's DVF-E012).
  if (spec.visits_per_iteration > n) {
    return EvalError{ErrorKind::kDomainError,
                     "random: k (visits per iteration) exceeds the " +
                         std::to_string(spec.element_count) +
                         " elements; Eq. 5 needs k <= N"};
  }
  facts.regime = RandomCase::kUniform;
  return facts;
}

Result<double> try_estimate_random(const RandomSpec& spec,
                                   const CacheConfig& cache,
                                   EvalBudget* budget_in) {
  DVF_TRY_ASSIGN(facts, try_random_facts(spec, cache));
  EvalBudget& budget = budget_or_default(budget_in);
  DVF_TRY_CHECK(budget.check_deadline());

  if (facts.regime == RandomCase::kFits) {
    return facts.footprint_blocks;  // compulsory misses only
  }

  // Case 2 (Eqs. 5–7): per iteration, X_E of the k visited elements are
  // expected to be out of cache and must be reloaded.
  const std::uint64_t m = facts.cached_elements;
  double xe;
  if (facts.regime == RandomCase::kIrm) {
    // 260 bounds the root search: at most 51 doubling checks (Tc up to
    // 2^50), at most 200 bisection steps and one miss pass, each a pass over
    // the run-length-compressed histogram (bounded by its raw size). A
    // typical histogram needs far fewer (48 passes in EXPERIMENTS.md).
    DVF_TRY_CHECK(budget.charge_references(
        math::saturating_mul(spec.sorted_visit_fractions.size(), 260)));
    xe = expected_misses_lru_irm(spec.sorted_visit_fractions, m);
  } else {
    // k is finite and at most N <= 2^48 here, so llround is defined.
    const auto k =
        static_cast<std::uint64_t>(std::llround(spec.visits_per_iteration));
    if (k > 0 && m < spec.element_count) {
      DVF_TRY_CHECK(budget.charge_references(1));  // Eq. 6 is O(1) at any k
    }
    xe = expected_missing_elements(spec.element_count, m, k);
  }

  // B_elm: blocks needed to bring the missing elements in. When an element
  // spans multiple lines each miss costs ceil(E/CL) blocks; otherwise at
  // most one block per missing element.
  const double e = spec.element_bytes;
  const double cl = cache.line_bytes();
  const double blocks_per_element = cl < e ? std::ceil(e / cl) : 1.0;
  const double b_elm = blocks_per_element * xe;

  const double b_reload = std::min(b_elm, facts.out_blocks);  // Eq. 7
  return finite_or_error(
      facts.footprint_blocks + b_reload * static_cast<double>(spec.iterations),
      "random estimate (Eq. 7)");
}

}  // namespace dvf
