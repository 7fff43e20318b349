#include "dvf/dsl/template_expander.hpp"

#include <algorithm>
#include <cctype>
#include <limits>
#include <string>

#include "dvf/common/error.hpp"
#include "dvf/common/math.hpp"

namespace dvf::dsl {

namespace {

TemplateSpec spec_of(std::span<const std::int64_t> start, std::int64_t step,
                     std::uint64_t count) {
  TemplateSpec t;
  for (const std::int64_t s : start) {
    t.starts.push_back(static_cast<std::uint64_t>(s));
  }
  t.step = step;
  t.count = count;
  return t;
}

}  // namespace

Result<TemplateSpec> try_progression(std::span<const std::int64_t> start,
                                     std::int64_t step, std::uint64_t count,
                                     EvalBudget* budget) {
  DVF_EVAL_REQUIRE(!start.empty(), "template progression needs a start tuple");
  DVF_EVAL_REQUIRE(count >= 1, "template progression needs count >= 1");
  // The expansion bomb guard: (0):1:2^62 would ask for 2^62 indices (32 EiB
  // of vector). Charged as the full expanded size, although nothing is.
  DVF_TRY_CHECK(budget_or_default(budget).charge_expansion(
      math::saturating_mul(start.size(), count)));

  // A front-to-back scan of the expansion would stop at the first negative
  // index or int64 overflow. Every start moves monotonically, so each kind
  // of failure has a first iteration, found in closed form, and the
  // earliest (iteration, start) is the one the scan reports. Iteration 0
  // only fails on a negative start.
  DVF_EVAL_REQUIRE(std::all_of(start.begin(), start.end(),
                               [](std::int64_t s) { return s >= 0; }),
                   "template progression references a negative element "
                   "index");
  if (step == 0) {
    return spec_of(start, step, count);
  }
  constexpr auto kMax =
      static_cast<std::uint64_t>(std::numeric_limits<std::int64_t>::max());
  const std::uint64_t magnitude =
      step < 0 ? std::uint64_t{0} - static_cast<std::uint64_t>(step)
               : static_cast<std::uint64_t>(step);
  // The offset r * step leaves [-2^63, 2^63 - 1] first at this iteration;
  // it is checked before the iteration's indices (bad_start == size).
  std::uint64_t bad = (step > 0 ? kMax : kMax + 1) / magnitude + 1;
  std::size_t bad_start = start.size();
  for (std::size_t j = 0; j < start.size(); ++j) {
    const auto s = static_cast<std::uint64_t>(start[j]);
    // Upward, s + r * step overflows past r = (2^63 - 1 - s) / step;
    // downward, it turns negative past r = s / |step|.
    const std::uint64_t first = (step > 0 ? kMax - s : s) / magnitude + 1;
    if (first < bad) {
      bad = first;
      bad_start = j;
    }
  }
  if (bad >= count) {
    return spec_of(start, step, count);
  }
  if (bad_start == start.size()) {
    return EvalError{ErrorKind::kOverflow,
                     "template progression offset " + std::to_string(bad) +
                         " * " + std::to_string(step) +
                         " overflows a 64-bit index"};
  }
  DVF_EVAL_REQUIRE(step > 0,
                   "template progression references a negative element "
                   "index");
  return EvalError{ErrorKind::kOverflow,
                   "template progression index " +
                       std::to_string(start[bad_start]) + " + " +
                       std::to_string(static_cast<std::int64_t>(bad) * step) +
                       " overflows a 64-bit index"};
}

std::uint64_t AccessOrder::appearances(std::string_view name) const {
  std::uint64_t n = 0;
  for (const AccessPhase& phase : phases) {
    n += static_cast<std::uint64_t>(
        std::count(phase.begin(), phase.end(), std::string(name)));
  }
  return n;
}

std::vector<std::string> AccessOrder::concurrent_with(
    std::string_view name) const {
  std::vector<std::string> out;
  for (const AccessPhase& phase : phases) {
    const bool has_name =
        std::find(phase.begin(), phase.end(), std::string(name)) != phase.end();
    if (!has_name) {
      continue;
    }
    for (const std::string& other : phase) {
      if (other != name &&
          std::find(out.begin(), out.end(), other) == out.end()) {
        out.push_back(other);
      }
    }
  }
  return out;
}

AccessOrder parse_access_order(std::string_view text) {
  AccessOrder order;
  bool in_group = false;
  AccessPhase group;
  int column = 0;
  for (const char ch : text) {
    ++column;
    if (std::isspace(static_cast<unsigned char>(ch))) {
      continue;
    }
    if (ch == '(') {
      if (in_group) {
        throw ParseError("nested '(' in access-order string", 1, column);
      }
      in_group = true;
      group.clear();
      continue;
    }
    if (ch == ')') {
      if (!in_group) {
        throw ParseError("unmatched ')' in access-order string", 1, column);
      }
      if (group.empty()) {
        throw ParseError("empty group in access-order string", 1, column);
      }
      order.phases.push_back(group);
      in_group = false;
      continue;
    }
    if (std::isalnum(static_cast<unsigned char>(ch)) || ch == '_') {
      if (in_group) {
        group.emplace_back(1, ch);
      } else {
        order.phases.push_back({std::string(1, ch)});
      }
      continue;
    }
    throw ParseError(std::string("unexpected character '") + ch +
                         "' in access-order string",
                     1, column);
  }
  if (in_group) {
    throw ParseError("unterminated '(' in access-order string", 1, column);
  }
  return order;
}

}  // namespace dvf::dsl
