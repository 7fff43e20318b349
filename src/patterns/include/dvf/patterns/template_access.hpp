// Template-based access model (§III-C "Template-Based Access Pattern").
//
// The template is the DSL's progression (start tuple, step, count); its
// element references map to cache blocks, and the paper's two-step algorithm
// counts one main-memory access for each first use of a block plus one for
// each reuse whose distance exceeds the available cache capacity.
//
// The count is exact. A reuse's LRU stack distance reaches the capacity C
// exactly when the block is absent from a fully-associative LRU of C blocks
// (Mattson inclusion), so the stack mode replays such an LRU in O(1) per
// reference instead of computing distances. After one pass every block has
// been used, so every later pass starts from the same state and costs the
// same: N_ha = A1 + (R - 1) * A2 from passes 1 and 2 alone.
//
// A progression is replayed only until it turns periodic. Byte addresses
// advance by step*E per iteration, so every P = CL / gcd(|step|*E, CL)
// iterations each reference has moved by the same whole number s of blocks.
// LRU compares blocks only for equality, so it commutes with that shift:
// from a state S, the next period leaves S' and misses m exactly when from
// S + s it leaves S' + s and misses m. Once the state at one period boundary
// equals the previous boundary's state moved by s, every later period
// misses m again, and the replay skips to the last whole period by moving
// the state. A share that holds every distinct block misses only on first
// uses, which the footprint counts in closed form.
#pragma once

#include <cstdint>

#include "dvf/common/budget.hpp"
#include "dvf/common/result.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/patterns/specs.hpp"

namespace dvf {

/// Checks that every element of the reference string lies in [0, I] with
/// I*E + E - 1 < 2^64, without expanding it. overflow names the first
/// string position past 64-bit byte addressing; domain_error the first
/// position a negative step takes below element 0.
[[nodiscard]] Result<void> try_check_template_indices(const TemplateSpec& spec);

/// Block-level size of one pass over a template (structure block-aligned at
/// offset 0).
struct TemplateFootprint {
  std::uint64_t references = 0;  ///< block references, saturating
  std::uint64_t distinct = 0;    ///< distinct blocks (when requested)
  std::uint64_t widest = 0;      ///< most blocks one element reference covers
};

/// Computes the footprint in O(starts * P log) for P iterations per period,
/// not in the string length. `line_bytes` must be a power of two and the
/// spec's indices must pass try_check_template_indices. `count_distinct`
/// false skips the distinct count and its memory.
[[nodiscard]] TemplateFootprint template_footprint(const TemplateSpec& spec,
                                                   std::uint32_t line_bytes,
                                                   bool count_distinct = true);

/// try_estimate_template's budget-free facts step: the lines of the
/// structure's share. The working set, the distinct-block count, costs
/// template_footprint's O(starts * P log), so the facts step leaves it to
/// the callers that need it.
struct TemplateFacts {
  std::uint64_t capacity_blocks = 0;
};
[[nodiscard]] Result<TemplateFacts> try_template_facts(
    const TemplateSpec& spec, const CacheConfig& cache);

/// The two-step counting algorithm. Returns the estimated number of
/// main-memory accesses for the reference string under a cache with
/// `cache_ratio * total_blocks` blocks available to this structure.
/// Classified EvalError instead of an exception: from the facts step,
/// domain_error for invalid specs or an index below 0 and overflow when an
/// element index times the element size wraps 64-bit byte addressing; then
/// resource_limit when the worst-case block string (expansion) or the
/// replayed reference count (references, charged as string length times
/// repetitions however much the replay skips) exceeds the budget,
/// deadline_exceeded on wall-clock expiry mid-replay. `budget` may be null
/// (process-default limits apply).
[[nodiscard]] Result<double> try_estimate_template(const TemplateSpec& spec,
                                                   const CacheConfig& cache,
                                                   EvalBudget* budget = nullptr);

}  // namespace dvf
