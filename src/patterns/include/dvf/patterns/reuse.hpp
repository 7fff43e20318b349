// Data-reuse main-memory model (§III-C "Data Reuse Pattern", Eqs. 8–15).
//
// Blocks are thrown into associative sets as Bernoulli trials; the model
// derives the distribution of how many blocks of the target structure
// survive in a set after interference, and from it the expected number of
// blocks that must be refetched on each reuse.
#pragma once

#include <vector>

#include "dvf/common/budget.hpp"
#include "dvf/common/result.hpp"
#include "dvf/machine/cache_config.hpp"
#include "dvf/patterns/specs.hpp"

namespace dvf {

/// Eq. 8 (with the Bernoulli binomial coefficient the paper's typesetting
/// dropped): distribution of the number of blocks a structure of
/// `total_blocks` blocks leaves in ONE cache set when it uses the cache
/// exclusively. Index = occupancy 0..CA; the top bin absorbs the
/// P(X >= CA) tail because a set cannot hold more than CA blocks.
[[nodiscard]] std::vector<double> set_occupancy_distribution(
    std::uint64_t total_blocks, const CacheConfig& cache);

/// Contiguous-array variant (ReuseOccupancy::kContiguous): blocks map
/// round-robin onto sets, so the occupancy is floor(F/NA) in some sets and
/// ceil(F/NA) in the rest — a deterministic two-point distribution (capped
/// at the associativity).
[[nodiscard]] std::vector<double> set_occupancy_contiguous(
    std::uint64_t total_blocks, const CacheConfig& cache);

/// Eq. 9 / Eq. 15: expectation of an occupancy distribution.
[[nodiscard]] double expected_occupancy(const std::vector<double>& dist);

/// Distribution of R_A — blocks of the target surviving in one set after
/// interference — combining Eqs. 8 and 10–14 under the chosen scenario and
/// occupancy model.
[[nodiscard]] std::vector<double> survivor_distribution(
    std::uint64_t self_blocks, std::uint64_t other_blocks,
    const CacheConfig& cache, ReuseScenario scenario,
    ReuseOccupancy occupancy = ReuseOccupancy::kBernoulli);

/// Estimated main-memory accesses: initial footprint load (F_A blocks) plus,
/// per reuse round, the expected refetch F_A − N_A·E(R_A) (clamped at 0).
/// Classified EvalError instead of an exception: domain_error for invalid
/// specs (including an empty target footprint), overflow when the combined
/// footprint wraps or exceeds the checked-combinatorics range,
/// resource_limit when the associativity makes the Eq. 13/14 double loop
/// larger than the budget allows, deadline_exceeded on wall-clock expiry
/// mid-convolution. `budget` may be null (process-default limits apply).
[[nodiscard]] Result<double> try_estimate_reuse(const ReuseSpec& spec,
                                                const CacheConfig& cache,
                                                EvalBudget* budget = nullptr);

}  // namespace dvf
