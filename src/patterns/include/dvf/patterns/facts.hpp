// What every estimator's budget-free facts step (try_<family>_facts)
// reports besides its case: the working set against the structure's cache
// share. Estimators run the facts step before any budget check, and the
// analysis (dvf/analysis/bounds.hpp) calls the same step; see
// docs/analysis.md "Transfer functions".
#pragma once

#include <cstdint>

#include "dvf/machine/cache_config.hpp"

namespace dvf {

struct ShareFacts {
  /// Distinct cache lines of the working set the family compares against
  /// its share (0 when the family cannot count it in O(1)).
  std::uint64_t working_set_blocks = 0;
  /// Cache lines of the structure's share.
  std::uint64_t capacity_blocks = 0;
  /// The working set exceeds the share: steady-state reuse misses.
  bool exceeds_share = false;
};

/// Lines of a `cache_ratio` share of `cache`, rounded down. `cache_ratio`
/// must lie in (0, 1]; the product stays below 2^64, so the cast is defined.
[[nodiscard]] inline std::uint64_t share_blocks(const CacheConfig& cache,
                                                double cache_ratio) noexcept {
  return static_cast<std::uint64_t>(
      static_cast<double>(cache.total_blocks()) * cache_ratio);
}

}  // namespace dvf
