// Pattern dispatch: one entry point for estimating main-memory accesses of
// any access-pattern spec, and of a composition of specs.
#pragma once

#include <span>

#include "dvf/machine/cache_config.hpp"
#include "dvf/patterns/random.hpp"
#include "dvf/patterns/reuse.hpp"
#include "dvf/patterns/specs.hpp"
#include "dvf/patterns/streaming.hpp"
#include "dvf/patterns/template_access.hpp"
#include "dvf/patterns/tiled.hpp"

namespace dvf {

/// Estimated main-memory accesses of one pattern phase. Classified EvalError instead of an exception on invalid specs,
/// overflow, non-finite intermediates, budget exhaustion, or deadline
/// expiry; allocation failure inside an evaluator is classified as
/// resource_limit. `budget` may be null (process-default limits apply).
[[nodiscard]] Result<double> try_estimate_accesses(const PatternSpec& spec,
                                                   const CacheConfig& cache,
                                                   EvalBudget* budget = nullptr);

/// A data structure whose behaviour is a composition of pattern phases
/// accumulates the phases' estimates (CGPMAC composability): Kahan-sums the
/// phases' estimates, propagating the first phase error (annotated with the
/// phase index).
[[nodiscard]] Result<double> try_estimate_accesses(
    std::span<const PatternSpec> phases, const CacheConfig& cache,
    EvalBudget* budget = nullptr);

}  // namespace dvf
