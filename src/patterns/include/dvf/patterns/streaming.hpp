// Streaming-access main-memory model (§III-C, Eqs. 3–4 and the three cases).
#pragma once

#include "dvf/common/budget.hpp"
#include "dvf/common/result.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/patterns/specs.hpp"

namespace dvf {

/// Probability that an element straddles one more cache line than its
/// aligned placement would need: p = ((E-1) mod CL) / CL (Eq. 3).
[[nodiscard]] double misalignment_probability(std::uint32_t element_bytes,
                                              std::uint32_t line_bytes);

/// Expected main-memory accesses per element reference, A_E (Eq. 4).
[[nodiscard]] double expected_accesses_per_element(std::uint32_t element_bytes,
                                                   std::uint32_t line_bytes);

/// Estimated number of main-memory accesses for one streaming traversal.
/// All accesses are compulsory misses; the three cases follow the ordering
/// of CL, E and S (§III-C). Classified EvalError instead of an exception:
/// domain_error for invalid specs (zero elements, zero stride), overflow
/// when the footprint or stride would wrap 64 bits, non_finite if the
/// estimate degenerates. `budget` may be null (process-default limits
/// apply).
[[nodiscard]] Result<double> try_estimate_streaming(
    const StreamingSpec& spec, const CacheConfig& cache,
    EvalBudget* budget = nullptr);

}  // namespace dvf
