// Template-based access model (§III-C "Template-Based Access Pattern").
//
// The user-supplied template is an element-index reference string; elements
// map to cache blocks, and the paper's two-step algorithm counts one
// main-memory access for each first use of a block plus one for each reuse
// whose distance exceeds the available cache capacity.
//
// The count is exact and linear in the string length. Blocks are renamed to
// dense ids in first-use order. A reuse's LRU stack distance reaches the
// capacity C exactly when the block is absent from a fully-associative LRU
// of C blocks (Mattson inclusion), so the stack mode replays such an LRU in
// O(1) per reference instead of computing distances. After one pass every
// block has been used, so every later pass starts from the same state and
// costs the same: N_ha = A1 + (R - 1) * A2 from passes 1 and 2 alone.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "dvf/common/budget.hpp"
#include "dvf/common/result.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/patterns/specs.hpp"

namespace dvf {

/// Converts the template's element indices to a cache-block reference string
/// (structure assumed block-aligned at offset 0). `line_bytes` must be a
/// power of two, as every CacheConfig's is.
[[nodiscard]] std::vector<std::uint64_t> blocks_from_elements(
    std::span<const std::uint64_t> element_indices, std::uint32_t element_bytes,
    std::uint32_t line_bytes);

/// The two-step counting algorithm. Returns the estimated number of
/// main-memory accesses for the reference string under a cache with
/// `cache_ratio * total_blocks` blocks available to this structure.
/// Classified EvalError instead of an exception: domain_error for invalid
/// specs, overflow when an element index times the element size wraps 64-bit
/// byte addressing, resource_limit when the materialized block string
/// (expansion) or the replayed reference count (references, charged as
/// string length times repetitions) exceeds the budget, deadline_exceeded on
/// wall-clock expiry mid-replay. `budget` may be null (process-default
/// limits apply).
[[nodiscard]] Result<double> try_estimate_template(const TemplateSpec& spec,
                                                   const CacheConfig& cache,
                                                   EvalBudget* budget = nullptr);

}  // namespace dvf
