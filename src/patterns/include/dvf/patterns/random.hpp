// Random-access main-memory model (§III-C, Eqs. 5–7).
#pragma once

#include <span>

#include "dvf/common/budget.hpp"
#include "dvf/common/result.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/patterns/facts.hpp"
#include "dvf/patterns/specs.hpp"

namespace dvf {

/// Expected number of the k visited elements NOT resident in a cache holding
/// m of the N elements, X_E (Eq. 6). The sum over Eq. 5's hypergeometric
/// pmf is that distribution's mean, evaluated in O(1) as k (N - m) / N.
[[nodiscard]] double expected_missing_elements(std::uint64_t element_count,
                                               std::uint64_t cached_elements,
                                               std::uint64_t visits);

/// IRM extension: expected misses per iteration under LRU for a profiled
/// popularity histogram (sorted or not — only the multiset matters), with
/// `cached_elements` element slots, via Che's characteristic-time
/// approximation. Used instead of Eq. 6 when a RandomSpec carries
/// sorted_visit_fractions.
[[nodiscard]] double expected_misses_lru_irm(
    std::span<const double> visit_fractions, std::uint64_t cached_elements);

/// Which branch of Eq. 7 an estimate takes.
enum class RandomCase {
  kFits,     ///< the share holds every element: compulsory misses only
  kIrm,      ///< reloads from the profiled histogram (Che's approximation)
  kUniform,  ///< reloads from Eq. 6's hypergeometric mean
};

/// try_estimate_random's budget-free facts step. The working set is the
/// footprint's lines, the share `cache_ratio` of the cache's lines. The
/// reload-path checks run only when the footprint exceeds the share.
struct RandomFacts {
  ShareFacts share;
  RandomCase regime = RandomCase::kFits;
  double footprint_blocks = 0.0;  ///< ceil(E * N / CL): the compulsory load
  /// B_out: footprint lines not resident, the most one iteration reloads.
  double out_blocks = 0.0;
  std::uint64_t cached_elements = 0;  ///< m, elements the share holds
};

[[nodiscard]] Result<RandomFacts> try_random_facts(const RandomSpec& spec,
                                                   const CacheConfig& cache);

/// Estimated main-memory accesses: compulsory footprint load plus
/// B_reload = min(B_elm, B_out) per iteration (Eq. 7). Classified EvalError
/// instead of an exception: from the facts step, domain_error for invalid
/// specs (non-positive sizes, cache_ratio outside (0, 1], negative k,
/// histogram entries outside [0, 1], k > N without a histogram), non_finite
/// for a non-finite k or histogram entry, overflow when the population
/// exceeds the checked-combinatorics range; then deadline_exceeded when the
/// budget's wall clock has expired, resource_limit when the histogram is
/// larger than the budget allows.
/// `budget` may be null (process-default limits apply).
[[nodiscard]] Result<double> try_estimate_random(const RandomSpec& spec,
                                                 const CacheConfig& cache,
                                                 EvalBudget* budget = nullptr);

}  // namespace dvf
