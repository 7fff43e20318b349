#include "dvf/dvf/weighted.hpp"

#include <cmath>

#include "dvf/common/math.hpp"

namespace dvf {

Result<double> try_weighted_dvf(const StructureDvf& structure,
                                const DvfWeights& weights) {
  DVF_EVAL_REQUIRE(weights.error_weight >= 0.0 && weights.access_weight >= 0.0,
                   "DVF weights must be non-negative");
  // 0^0 is taken as 1 so a zeroed weight truly removes the term.
  const auto term = [](double base, double exponent) {
    if (exponent == 0.0) {
      return 1.0;
    }
    return std::pow(base, exponent);
  };
  // pow leaves the finite range quickly (n_ha^beta with paper-scale n_ha
  // ~1e6 overflows for beta ≳ 51); classify instead of returning inf/NaN.
  DVF_TRY_ASSIGN(error_term,
                 finite_or_error(term(structure.n_error, weights.error_weight),
                                 "weighted N_error term"));
  DVF_TRY_ASSIGN(access_term,
                 finite_or_error(term(structure.n_ha, weights.access_weight),
                                 "weighted N_ha term"));
  return finite_or_error(error_term * access_term, "weighted DVF");
}

Result<double> try_weighted_application_dvf(const ApplicationDvf& app,
                                            const DvfWeights& weights) {
  math::KahanSum total;
  for (const StructureDvf& s : app.structures) {
    auto structure_result = try_weighted_dvf(s, weights);
    if (!structure_result.ok()) {
      EvalError err = std::move(structure_result).error();
      err.message = "structure '" + s.name + "': " + err.message;
      return err;
    }
    total.add(*structure_result);
  }
  return finite_or_error(total.value(), "weighted application DVF");
}

}  // namespace dvf
