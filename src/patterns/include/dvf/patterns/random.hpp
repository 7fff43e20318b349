// Random-access main-memory model (§III-C, Eqs. 5–7).
#pragma once

#include <span>

#include "dvf/common/budget.hpp"
#include "dvf/common/result.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/patterns/specs.hpp"

namespace dvf {

/// Expected number of the k visited elements NOT resident in a cache holding
/// m of the N elements, X_E (Eq. 6): sum over the hypergeometric pmf of
/// Eq. 5. Exposed for unit tests and the DSL's diagnostics.
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

/// Estimated main-memory accesses: compulsory footprint load plus
/// B_reload = min(B_elm, B_out) per iteration (Eq. 7). Classified EvalError
/// instead of an exception: domain_error for invalid specs (non-positive
/// sizes, cache_ratio outside (0, 1], non-finite k or histogram entries),
/// overflow when the population exceeds the checked-combinatorics range,
/// resource_limit when the Eq. 6 support is larger than the budget allows,
/// deadline_exceeded when the budget's wall clock expires mid-sum.
/// `budget` may be null (process-default limits apply).
[[nodiscard]] Result<double> try_estimate_random(const RandomSpec& spec,
                                                 const CacheConfig& cache,
                                                 EvalBudget* budget = nullptr);

}  // namespace dvf
