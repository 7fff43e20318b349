// The paper's template syntax and access-order strings.
//
// A template is written as (start tuple) : step : count — the references of
// the first iteration, advanced by `step` elements each iteration (the MG
// example of §III-D advances four stencil references by one until the grid
// boundary). It lowers to a TemplateSpec in the same form, unexpanded. An
// access-order string like "r(Ap)p(xp)(Ap)r(rp)" lists the phase sequence of
// the structures within one outer iteration; parenthesized groups are
// concurrently accessed.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "dvf/common/budget.hpp"
#include "dvf/common/result.hpp"
#include "dvf/patterns/specs.hpp"

namespace dvf::dsl {

/// Validates a template progression and returns it as a TemplateSpec
/// (starts, step and count set; the other fields default): iteration r
/// references start[0]+r*step, start[1]+r*step, ... Nothing is expanded.
/// Classified EvalError instead of an exception: domain_error for an empty
/// start tuple, zero count or a progression that would underflow below
/// element 0; overflow when start + r*step leaves the int64 range;
/// resource_limit when the expanded size start.size()*count exceeds the
/// budget's expansion cap (the guard against (0):1:2^62-style expansion
/// bombs, kept so the evaluators never see one). Errors name the first
/// failing reference as a front-to-back expansion would. `budget` may be
/// null (process-default limits apply).
[[nodiscard]] Result<TemplateSpec> try_progression(
    std::span<const std::int64_t> start, std::int64_t step,
    std::uint64_t count, EvalBudget* budget = nullptr);

/// One phase of an access order: the structures accessed (concurrently when
/// more than one).
using AccessPhase = std::vector<std::string>;

/// Parsed access-order string.
struct AccessOrder {
  std::vector<AccessPhase> phases;

  /// How many phases the named structure appears in.
  [[nodiscard]] std::uint64_t appearances(std::string_view name) const;
  /// Names that ever share a phase with `name` (each listed once).
  [[nodiscard]] std::vector<std::string> concurrent_with(
      std::string_view name) const;
};

/// Parses "r(Ap)p(xp)(Ap)r(rp)"-style strings. Structure names are single
/// characters (the paper's notation). Throws ParseError on unbalanced
/// parentheses or stray characters.
[[nodiscard]] AccessOrder parse_access_order(std::string_view text);

}  // namespace dvf::dsl
