// Weighted DVF — §III-A's proposed refinement: "a further refined definition
// of DVF could assign a weighting factor to each term to account for diverse
// vulnerability contributions from each term."
//
// We implement the exponent form DVF_w = N_error^alpha * N_ha^beta, which
// preserves the plain definition at alpha = beta = 1 and keeps the metric
// scale-free in each term. Comparative statements (which structure is more
// vulnerable) are invariant to common rescaling, so the weights only matter
// when the two terms trade off — exactly the paper's intent.
#pragma once

#include "dvf/common/error.hpp"
#include "dvf/common/result.hpp"
#include "dvf/dvf/calculator.hpp"

namespace dvf {

/// Exponent weights for the two DVF terms.
struct DvfWeights {
  double error_weight = 1.0;   ///< alpha — exponent on N_error
  double access_weight = 1.0;  ///< beta — exponent on N_ha
};

/// Weighted DVF of an already-evaluated structure. pow overflow (large
/// bases with large exponents reach inf fast) and NaN (negative base with
/// fractional exponent) are classified instead of returned.
[[nodiscard]] Result<double> try_weighted_dvf(const StructureDvf& structure,
                                              const DvfWeights& weights);

/// Weighted DVF_a: the weighted per-structure values summed (Eq. 2 applied
/// to the refined metric); a per-structure error is annotated with the
/// structure's name.
[[nodiscard]] Result<double> try_weighted_application_dvf(
    const ApplicationDvf& app, const DvfWeights& weights);

}  // namespace dvf
