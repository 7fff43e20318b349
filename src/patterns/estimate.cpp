#include "dvf/patterns/estimate.hpp"

#include <new>
#include <string>
#include <variant>

#include "dvf/common/math.hpp"

namespace dvf {

char pattern_letter(const PatternSpec& spec) noexcept {
  return std::visit(
      [](const auto& s) {
        using T = std::decay_t<decltype(s)>;
        if constexpr (std::is_same_v<T, StreamingSpec>) {
          return 's';
        } else if constexpr (std::is_same_v<T, RandomSpec>) {
          return 'r';
        } else if constexpr (std::is_same_v<T, TemplateSpec>) {
          return 't';
        } else if constexpr (std::is_same_v<T, TiledSpec>) {
          return 'b';
        } else {
          return 'u';
        }
      },
      spec);
}

Result<double> try_estimate_accesses(const PatternSpec& spec,
                                     const CacheConfig& cache,
                                     EvalBudget* budget) {
  try {
    return std::visit(
        [&cache, budget](const auto& s) -> Result<double> {
          using T = std::decay_t<decltype(s)>;
          if constexpr (std::is_same_v<T, StreamingSpec>) {
            return try_estimate_streaming(s, cache, budget);
          } else if constexpr (std::is_same_v<T, RandomSpec>) {
            return try_estimate_random(s, cache, budget);
          } else if constexpr (std::is_same_v<T, TemplateSpec>) {
            return try_estimate_template(s, cache, budget);
          } else if constexpr (std::is_same_v<T, TiledSpec>) {
            return try_estimate_tiled(s, cache, budget);
          } else {
            return try_estimate_reuse(s, cache, budget);
          }
        },
        spec);
  } catch (const std::bad_alloc&) {
    // The expansion budget bounds planned allocations; anything that still
    // exhausts memory is a resource failure, not a crash.
    return EvalError{ErrorKind::kResourceLimit,
                     "allocation failed while evaluating pattern '" +
                         std::string(1, pattern_letter(spec)) + "'"};
  }
}

Result<double> try_estimate_accesses(std::span<const PatternSpec> phases,
                                     const CacheConfig& cache,
                                     EvalBudget* budget) {
  math::KahanSum sum;
  for (std::size_t i = 0; i < phases.size(); ++i) {
    auto phase_result = try_estimate_accesses(phases[i], cache, budget);
    if (!phase_result.ok()) {
      EvalError err = std::move(phase_result).error();
      err.message = "phase " + std::to_string(i) + " (pattern '" +
                    std::string(1, pattern_letter(phases[i])) + "'): " +
                    err.message;
      return err;
    }
    sum.add(*phase_result);
  }
  return finite_or_error(sum.value(), "composed pattern estimate");
}

}  // namespace dvf
